"""Reproducible experiment driver: point-set files, seeded sampling,
batch sweeps, and report persistence.

Point-set file format (text):
    # comments start with '#', blank lines are skipped
    q=5 d=2
    0,0
    1,2
The header line declares the field order and dimension; every following
line is one point with d comma-separated coordinates in [0, q).

Sampling is driven entirely by SplitMix64 (see `prng`), so a given
(q, d, n, seed) produces the same point set on every platform, and
re-running a sweep cell reproduces its outcome payload byte for byte.
A cell is a composition of public calls: a similarity cell draws with
`random_pointset` and runs `find_similar_config`; a det cell draws with
`random_subset(Space.punctured(q, d), n, seed)` and runs
`find_det_similar`, and builds that space only for a search that can
use it (`_det_draw`).
"""

from __future__ import annotations

import hashlib
import io
import json
import time
import warnings
from concurrent import futures
from dataclasses import dataclass, field as dc_field
from typing import Iterable, Iterator

from . import __version__
from .configurations import (
    find_det_similar,
    find_similar_config,
    meets_threshold,
    similarity_threshold,
)
from .errors import FqsimError, HeaderMismatch, ParseError, SpaceTooLarge, TooMany
from .field import PrimeField, as_field
from .geometry import ENUMERATION_CAP, PointSet, _check_dim, _power_exceeds
from .groups import Space
from .prng import SplitMix64, derive_seed


# --- point-set I/O ---

def random_pointset(q_or_field, dim: int, n: int, seed: int) -> PointSet:
    """n distinct points of F_q^d, uniform without replacement, seeded.

    Indices into the lexicographic enumeration of the space are chosen
    by a SplitMix64-driven partial shuffle (`SplitMix64.sample_indices`),
    sorted, and decoded to coordinates one base-q digit at a time, last
    coordinate first, for all picks at once; they are then already in the
    set's canonical order.  Memory stays O(n) regardless of q^d.  A space
    of more than 2^64 points, past what one 64-bit draw covers, is
    refused (`SpaceTooLarge`) before any draw and before q^d is computed.
    """
    field = as_field(q_or_field)
    _check_dim(dim)
    _check_sample_space(field.q, dim)
    total = field.q ** dim
    if n < 0:
        raise ValueError(f"sample size must be nonnegative, got {n}")
    if n > total:
        raise TooMany(f"cannot sample {n} distinct points from a space of {total}")
    rest = sorted(SplitMix64(seed).sample_indices(total, n))
    q = field.q
    digits = []
    for _ in range(dim):
        digits.append([i % q for i in rest])
        rest = [i // q for i in rest]
    return PointSet._canonical(field, dim, zip(*reversed(digits)))


def _check_sample_space(q: int, dim: int) -> None:
    if _power_exceeds(q, dim, 1 << 64):
        raise SpaceTooLarge(f"cannot sample from F_{q}^{dim}: more than 2^64 points")


def _det_draw(field: PrimeField, d: int, n: int, seed: int) -> PointSet:
    """random_subset(Space.punctured(field, d), n, seed), unless the det
    search's q^(d^2) matrix scan is past ENUMERATION_CAP: it then refuses
    whatever it gets, and no earlier check looks at the points, so the
    empty set stands in once the draw's size checks pass, and a space of
    up to 10^8 points is not built for nothing."""
    _check_dim(d)
    q = field.q
    if _power_exceeds(q, d, ENUMERATION_CAP) or not _power_exceeds(q, d * d, ENUMERATION_CAP):
        return random_subset(Space.punctured(field, d), n, seed)
    size = q ** d - 1
    if n > size:
        raise TooMany(f"cannot sample {n} distinct points from a set of {size}")
    if n < 0:
        raise ValueError(f"cannot sample {n} of {size}")  # as sample_indices says it
    return PointSet(field, d)


def random_subset(points: PointSet, n: int, seed: int) -> PointSet:
    """n distinct points drawn from a point set, such as a group's space
    (seeded); the sorted picks keep its canonical order."""
    size = len(points)
    if n > size:
        raise TooMany(f"cannot sample {n} distinct points from a set of {size}")
    picks = sorted(SplitMix64(seed).sample_indices(size, n))
    return PointSet._canonical(points.field, points.dim, map(points._coords.__getitem__, picks))


def parse_pointset(text_or_lines) -> PointSet:
    """Parse the point-set format; duplicates are dropped with a warning."""
    if isinstance(text_or_lines, str):
        lines = io.StringIO(text_or_lines)
    else:
        lines = text_or_lines
    field: PrimeField | None = None
    dim = 0
    seen: set[tuple[int, ...]] = set()
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if field is None:
            parts = line.replace("=", " = ").split()
            if len(parts) != 6 or parts[0] != "q" or parts[1] != "=" or parts[3] != "d" or parts[4] != "=":
                raise ParseError(lineno, f"expected header 'q=<int> d=<int>', got {line!r}")
            try:
                q = int(parts[2])
                dim = int(parts[5])
            except ValueError:
                raise ParseError(lineno, f"non-integer header values in {line!r}") from None
            if dim < 1:
                raise ParseError(lineno, f"dimension must be positive, got {dim}")
            field = as_field(q)
            continue
        cells = [c.strip() for c in line.split(",")]
        if len(cells) != dim:
            raise HeaderMismatch(lineno, f"expected {dim} coordinates, got {len(cells)}")
        try:
            coords = tuple(int(c) for c in cells)
        except ValueError:
            raise ParseError(lineno, f"non-integer coordinate in {line!r}") from None
        for c in coords:
            if not 0 <= c < field.q:
                raise HeaderMismatch(lineno, f"coordinate {c} out of range for q={field.q}")
        if coords in seen:
            warnings.warn(f"line {lineno}: duplicate point {coords} ignored")
            continue
        seen.add(coords)
    if field is None:
        raise ParseError(0, "missing header line 'q=<int> d=<int>'")
    return PointSet._canonical(field, dim, sorted(seen))


def load_pointset(path) -> PointSet:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_pointset(fh)


def file_digest(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


# --- reports and sweeps ---

def canonical_json(obj) -> str:
    """Stable serialization used wherever payloads are compared byte-wise."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


@dataclass
class Report:
    """One experiment cell: config echo, outcome, timing, provenance.

    Re-running an identical config reproduces the outcome payload
    exactly; only `timing_ms` varies.
    """

    config: dict
    outcome: dict
    timing_ms: float
    version: str = __version__
    input_digests: dict = dc_field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "config": self.config,
            "outcome": self.outcome,
            "timing_ms": self.timing_ms,
            "version": self.version,
            "input_digests": self.input_digests,
        }

    def outcome_bytes(self) -> bytes:
        return canonical_json(self.outcome).encode()


@dataclass(frozen=True)
class SweepConfig:
    """Cartesian grid of similarity-search cells.

    ratios: "all-squares" expands, per q, to every nonzero square of
    F_q; otherwise a fixed tuple of residues.  size: "threshold" uses
    the smallest set size meeting |E|^2 >= (k+1) q^d, otherwise a fixed
    count.  Each cell's sampling seed is derived from the base seed and
    the cell parameters, so cells are independent of grid order.
    """

    qs: tuple[int, ...]
    d: int
    ks: tuple[int, ...]
    ratios: str | tuple[int, ...] = "all-squares"
    trials: int = 1
    base_seed: int = 1
    size: str | int = "threshold"
    kind: str = "similarity"

    def __post_init__(self):
        if self.kind not in ("similarity", "det-similarity"):
            raise ValueError(f"unknown sweep kind {self.kind!r}")
        _check_dim(self.d)
        if self.trials < 1:
            raise ValueError("need at least one trial per cell")
        if self.size != "threshold" and int(self.size) < 0:
            raise ValueError(f"set size must be nonnegative, got {self.size}")
        if self.base_seed < 0 or self.base_seed >= 1 << 64:
            raise ValueError("base seed must fit in 64 bits")

    def cells(self) -> list[dict]:
        out = []
        for q in self.qs:
            as_field(q)  # validates primality up front
            if self.kind == "similarity":
                _check_sample_space(q, self.d)  # refused before any cell runs
            if self.ratios == "all-squares":
                ratios = sorted({v * v % q for v in range(1, q)})
            else:
                ratios = [r % q for r in self.ratios]
            for k in self.ks:
                n = similarity_threshold(q, self.d, k) if self.size == "threshold" else int(self.size)
                met = meets_threshold(n * n, k, q, self.d)
                for r in ratios:
                    for trial in range(self.trials):
                        out.append({
                            "kind": self.kind,
                            "q": q,
                            "d": self.d,
                            "k": k,
                            "r": r,
                            "trial": trial,
                            "seed": derive_seed(self.base_seed, q, self.d, k, r, trial),
                            "n": n,
                            "meets_threshold": met,
                        })
        return out


def run_cell(cell: dict) -> Report:
    """Execute one sweep cell; errors become part of the outcome."""
    start = time.perf_counter()
    try:
        field = as_field(cell["q"])
        ratio = field(cell["r"])
        if cell["kind"] == "similarity":
            points = random_pointset(field, cell["d"], cell["n"], cell["seed"])
            witness = find_similar_config(points, ratio, cell["k"])
        else:
            points = _det_draw(field, cell["d"], cell["n"], cell["seed"])
            witness = find_det_similar(points, ratio, cell["k"])
        outcome = {
            "status": "witness",
            "witness": witness.to_json(),
            "best_count": witness.report.best_count,
            "bound_num": witness.report.bound_num,
            "bound_den": witness.report.bound_den,
        }
    except (FqsimError, ValueError) as exc:
        outcome = {"status": "error", "error": type(exc).__name__, "message": str(exc)}
        if hasattr(exc, "best_count"):
            outcome["best_count"] = exc.best_count
    timing = (time.perf_counter() - start) * 1000.0
    return Report(config=dict(cell), outcome=outcome, timing_ms=timing)


def _sweep_reports(config: SweepConfig, jobs: int) -> Iterator[Report]:
    """run_cell over every cell, yielded in grid order for any worker count.

    A worker count below 1 raises ValueError before any cell runs.
    """
    if jobs < 1:
        raise ValueError(f"a sweep needs at least one worker, got jobs = {jobs}")
    cells = config.cells()
    if jobs == 1:
        yield from map(run_cell, cells)
    else:
        with futures.ThreadPoolExecutor(max_workers=jobs) as pool:
            yield from pool.map(run_cell, cells)


def run_sweep(config: SweepConfig, jobs: int = 1) -> list[Report]:
    """Execute every cell; reports come back in grid order regardless of jobs."""
    return list(_sweep_reports(config, jobs))


def sweep_summary(reports: Iterable[Report]) -> dict:
    """Pass/fail counts, in one pass over the reports; a 'violation' is a
    failed search that met the size guarantee, which the counting argument
    rules out."""
    cells = witnesses = errors = violations = 0
    for r in reports:
        cells += 1
        status = r.outcome["status"]
        if status == "witness":
            witnesses += 1
        elif status == "error":
            errors += 1
            if (r.outcome.get("error") == "InsufficientIntersection"
                    and r.config.get("meets_threshold")):
                violations += 1
    return {
        "summary": True,
        "cells": cells,
        "witnesses": witnesses,
        "errors": errors,
        "violations": violations,
    }


def write_sweep(config: SweepConfig, stream, jobs: int = 1) -> dict:
    """Stream one JSON line per cell plus a final summary line.

    Lines are flushed as written, so an interrupted sweep leaves a
    valid JSON-lines prefix behind, and no report is kept once written.
    """
    def written():
        for report in _sweep_reports(config, jobs):
            stream.write(canonical_json(report.to_json()) + "\n")
            stream.flush()
            yield report

    summary = sweep_summary(written())
    stream.write(canonical_json(summary) + "\n")
    stream.flush()
    return summary
