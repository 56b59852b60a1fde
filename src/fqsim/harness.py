"""Reproducible experiment driver: point-set and edge-set files, seeded
sampling, batch sweeps, and report persistence.

Point-set file format (text):
    # comments start with '#', blank lines are skipped
    q=5 d=2
    0,0
    1,2
The header line declares the field order and dimension; every following
line is one point with d comma-separated coordinates in [0, q).  An
edge-set file (`--edges pairs:FILE`) holds one 'i,j' pair a line,
1 <= i < j <= k + 1.  Both formats go through one line reader
(`_lines`: the '#' comment cut, the rest stripped, blank lines skipped)
and one integer parser (`_ints`, every cell stripped), so a cell reads
and a refusal names its line the same way in both.  A file is read once
(`_load`): its bytes are decoded as UTF-8 with universal newlines and
parsed, and its digest is the SHA-256 of those same bytes.

Sampling is driven entirely by SplitMix64 (see `prng`), so a given
(q, d, n, seed) produces the same point set on every platform, and
re-running a sweep cell reproduces its outcome payload byte for byte.
A similarity cell draws with `random_pointset` and runs
`find_similar_config`; a det cell draws the points that
`random_subset(Space.punctured(q, d), n, seed)` draws (`_det_draw`) and
runs `find_det_similar`.  Both draws, like `random_subset` of a whole
full or punctured space of at most 256 points, are one draw of sorted
flat indices of F_q^d (`_flat_draw`), so neither lists a space, and
build their set from them (`PointSet._at_flat`): while q^d <= 256 the
set keeps the indices as bytes, which the finder's scan reads, so a
cell decodes no drawn point but the k + 1 its witness takes; past it
they are decoded at once.  A sweep runs its cells one after another in
the calling thread, whatever its jobs.
"""

from __future__ import annotations

import functools
import hashlib
import io
import json
import time
import warnings
from dataclasses import dataclass, field as dc_field
from itertools import compress
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
from .geometry import ENUMERATION_CAP, PointSet, _check_budget, _check_dim, _power_exceeds
from .groups import _ACTIONS, Space, _check_space
from .prng import SplitMix64, _fold, derive_seed


# --- point-set I/O ---

def random_pointset(q_or_field, dim: int, n: int, seed: int) -> PointSet:
    """n distinct points of F_q^d, uniform without replacement, seeded.

    Indices into the lexicographic enumeration of the space are chosen
    by a SplitMix64-driven partial shuffle (`SplitMix64.sample_indices`)
    and sorted, in O(n) memory whatever q^d: the set keeps them as bytes
    while q^d <= 256 and decodes them at once past it
    (`PointSet._at_flat`).  A
    space of more than 2^64 points, past what one 64-bit draw covers, is
    refused (`SpaceTooLarge`) before any draw and before q^d is computed;
    a sample of more than ENUMERATION_CAP points is refused before any
    draw (`EnumerationCapExceeded`).
    """
    field = as_field(q_or_field)
    _check_dim(dim)
    _check_sample_space(field.q, dim)
    total = field.q ** dim
    if n < 0:
        raise ValueError(f"sample size must be nonnegative, got {n}")
    if n > total:
        raise TooMany(f"cannot sample {n} distinct points from a space of {total}")
    _check_budget(n, 1, "random sample (points)")
    return _flat_draw(field, dim, total, n, seed)


def _check_sample_space(q: int, dim: int) -> None:
    if _power_exceeds(q, dim, 1 << 64):
        raise SpaceTooLarge(f"cannot sample from F_{q}^{dim}: more than 2^64 points")


def _det_draw(field: PrimeField, d: int, n: int, seed: int) -> PointSet:
    """random_subset(Space.punctured(field, d), n, seed), refused alike but
    listing no space: its pick i is flat index i + 1, and the set is built
    from the flat indices (`PointSet._at_flat`), kept as bytes while q^d
    <= 256.  Past the det search's SL(d, q) build budget, which refuses
    any set, it draws no point."""
    action = _ACTIONS["special-linear"]
    _check_space(field.q, d, action.space)
    size = field.q ** d - 1
    if n > size:
        raise TooMany(f"cannot sample {n} distinct points from a set of {size}")
    if _power_exceeds(field.q, d ** action.power, ENUMERATION_CAP):
        n = min(n, 0)  # n < 0 is still refused as sample_indices refuses it
    return _flat_draw(field, d, size, n, seed, 1)


_BYTES = bytes(range(256))
_NEXT = _BYTES[1:] + bytes(1)  # byte i to i + 1


def _flat_draw(field: PrimeField, d: int, size: int, n: int, seed: int, first: int = 0) -> PointSet:
    """n of the size = q^d - first flat indices of F_q^d from `first` (0
    or 1) on, seeded: pick i is flat index i + first, and the set is built
    from the ascending indices (`PointSet._at_flat`), kept as bytes while
    q^d <= 256.  Fewer than 32 picks, or picks past that bound, are
    sorted; else they are put in order in C, as the span of picks less
    those that none names, and shifted by a byte translation.  The one
    draw of `random_pointset`, `_det_draw` and a whole space's
    `random_subset`."""
    picks = SplitMix64(seed).sample_indices(size, n)
    if n < 32 or size + first > 256:  # sorting a few picks costs less than two passes over the span
        picks = sorted(picks)
        return PointSet._at_flat(field, d, [i + 1 for i in picks] if first else picks)
    picks = _BYTES[:size].translate(None, _BYTES[:size].translate(None, bytes(picks)))  # not unpicked
    return PointSet._at_flat(field, d, picks.translate(_NEXT) if first else picks)


def random_subset(points: PointSet, n: int, seed: int) -> PointSet:
    """n distinct points drawn from a point set, such as a group's space
    (seeded), in its canonical order.  A full or punctured space of at
    most 256 points whose points are its kind's whole set
    (`Space._flat_start`) is drawn by flat index, as `random_pointset`
    draws: the set holds its picks' flat indices as bytes.  From any other
    set, a draw of at least a quarter of it marks its picks and keeps the
    marked points, a sparser one sorts its picks; either way it holds
    tuples of the set's own, and no tuple is decoded."""
    size = len(points)
    if n > size:
        raise TooMany(f"cannot sample {n} distinct points from a set of {size}")
    if isinstance(points, Space) and (first := points._flat_start) is not None:
        return _flat_draw(points.field, points.dim, size, n, seed, first)
    picks = SplitMix64(seed).sample_indices(size, n)
    if 4 * n < size:
        return PointSet._canonical(points.field, points.dim, map(points._coords.__getitem__, sorted(picks)))
    marks = bytearray(size)
    for i in picks:
        marks[i] = 1
    return PointSet._canonical(points.field, points.dim, compress(points._coords, marks))


def _lines(lines) -> Iterator[tuple[int, str]]:
    """(number, text) of each line of either text format that holds more
    than a '#' comment, the comment cut and the text stripped."""
    stripped = (raw.split("#", 1)[0].strip() for raw in lines)
    return ((lineno, line) for lineno, line in enumerate(stripped, start=1) if line)


def _ints(lineno: int, cells: Iterable[str], what: str, line: str) -> tuple[int, ...]:
    """The cells of a line, each stripped, as integers, or ParseError
    naming the line."""
    try:
        return tuple(int(cell.strip()) for cell in cells)
    except ValueError:
        raise ParseError(lineno, f"non-integer {what} in {line!r}") from None


def parse_pointset(text_or_lines) -> PointSet:
    """Parse the point-set format; duplicates are dropped with a warning."""
    lines = io.StringIO(text_or_lines) if isinstance(text_or_lines, str) else text_or_lines
    field: PrimeField | None = None
    dim = 0
    seen: set[tuple[int, ...]] = set()
    for lineno, line in _lines(lines):
        if field is None:
            parts = line.replace("=", " = ").split()
            if len(parts) != 6 or parts[0] != "q" or parts[1] != "=" or parts[3] != "d" or parts[4] != "=":
                raise ParseError(lineno, f"expected header 'q=<int> d=<int>', got {line!r}")
            q, dim = _ints(lineno, parts[2::3], "header values", line)
            if dim < 1:
                raise ParseError(lineno, f"dimension must be positive, got {dim}")
            field = as_field(q)
            continue
        cells = line.split(",")
        if len(cells) != dim:
            raise HeaderMismatch(lineno, f"expected {dim} coordinates, got {len(cells)}")
        coords = _ints(lineno, cells, "coordinate", line)
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


def _load(path, parse):
    """parse of the file's text, decoded as UTF-8 with universal newlines
    as text-mode `open` reads it, and the SHA-256 of its bytes: one read,
    so that a digest names the bytes that were parsed."""
    with open(path, "rb") as fh:
        data = fh.read()
    return parse(io.StringIO(data.decode("utf-8"), newline=None)), hashlib.sha256(data).hexdigest()


def load_pointset(path) -> PointSet:
    return _load(path, parse_pointset)[0]


def _edge_pairs(lines) -> list[tuple[int, ...]]:
    """The edges of an edge file (`--edges pairs:FILE`), one 'i,j' pair a
    line, read as point files are."""
    pairs = []
    for lineno, line in _lines(lines):
        cells = line.split(",")
        if len(cells) != 2:
            raise ParseError(lineno, f"expected one 'i,j' pair, got {line!r}")
        pairs.append(_ints(lineno, cells, "edge index", line))
    return pairs


# --- reports and sweeps ---

# Every payload is a tree that fqsim has just built, so no cycle check.
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"), check_circular=False)


def canonical_json(obj) -> str:
    """Stable serialization used wherever payloads are compared byte-wise."""
    return _CANONICAL.encode(obj)


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
    """Cartesian grid of sweep cells, similarity or det-similarity searches by `kind`.

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

    @functools.cached_property
    def _plan(self) -> list:
        """(q, [(k, n, meets_threshold) for each k]) for every q, once every
        q has passed its checks: worked out once per config, so a sweep
        that asks for its cells twice checks and warns once.  The q whose
        cells take the running count past ENUMERATION_CAP is refused before
        its ratios are listed."""
        plan, count = [], 0
        for q in self.qs:
            as_field(q)  # validates primality up front
            if self.kind == "similarity":
                _check_sample_space(q, self.d)  # refused before any cell runs
            # F_q has q // 2 nonzero squares, q = 2 included
            n_ratios = q // 2 if self.ratios == "all-squares" else len(self.ratios)
            count += n_ratios * len(self.ks) * self.trials
            _check_budget(count, 1, "sweep grid (cells)")
            sizes = []
            for k in self.ks:
                n = similarity_threshold(q, self.d, k) if self.size == "threshold" else int(self.size)
                # the threshold size is the smallest n that meets the threshold
                sizes.append((k, n, self.size == "threshold" or meets_threshold(n * n, k, q, self.d)))
            plan.append((q, sizes))
        return plan

    def cells(self) -> Iterator[dict]:
        """Every cell, in grid order, made one at a time; the grid's checks
        (`_plan`) are made on the call, before the first cell.  A cell's
        seed is derive_seed(base, q, d, k, r, trial)."""
        squares = self.ratios == "all-squares"
        return ({"kind": self.kind, "q": q, "d": self.d, "k": k, "r": r, "trial": trial,
                 "seed": _fold(prefix, trial), "n": n, "meets_threshold": met}
                for q, sizes in self._plan
                for ratios in [sorted({v * v % q for v in range(1, q)}) if squares else [r % q for r in self.ratios]]
                for k, n, met in sizes
                for r in ratios
                for prefix in [derive_seed(self.base_seed, q, self.d, k, r)]
                for trial in range(self.trials))


def run_cell(cell: dict) -> Report:
    """Execute one sweep cell; errors become part of the outcome."""
    start = time.perf_counter()
    try:
        field = _cell_field(cell["q"])
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


@functools.lru_cache(maxsize=8, typed=True)
def _cell_field(q) -> PrimeField:
    """F_q for a sweep cell, built once per q: a sweep asks for the same
    few q cell after cell, and a kept field keeps the nonresidue that
    `sqrt` caches."""
    return as_field(q)


def _sweep_reports(config: SweepConfig, jobs: int) -> Iterator[Report]:
    """run_cell over every cell, one after another in the calling thread,
    in grid order; a reader that stops starts no more cells.  Every
    refusal of the sweep is made on the call, before any cell runs.

    jobs is validated but, for now, changes no scheduling: one that is
    not an integer of at least 1 raises ValueError.
    """
    if not isinstance(jobs, int) or jobs < 1:
        raise ValueError(f"a sweep needs a whole number of workers, at least 1, got jobs = {jobs!r}")
    return map(run_cell, config.cells())


def run_sweep(config: SweepConfig, jobs: int = 1) -> list[Report]:
    """Execute every cell in the calling thread, in grid order; jobs is only validated."""
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

    Cells run in the calling thread; jobs is only validated.  Lines are
    flushed as written, so an interrupted sweep leaves a valid JSON-lines
    prefix behind, and no report is kept once written.
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
