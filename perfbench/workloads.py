"""The four seeded workloads: inputs, timed batches and output checks.

A workload's run is a fixed number of batches, sized from `--seconds`
so that one run takes about that long on the reference host.  Batch b's
inputs are a pure function of (workload, seed, b).  A batch returns one
`Op` per operation: its latency, its output as a JSON-ready dict (the
part that is hashed into the digest) and, for library calls, the live
`IntersectionReport` to check after the timed region.

Why each workload exists is recorded next to its class and in
BENCHMARK.json.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import time
from dataclasses import dataclass

import fqsim
import fqsim.cli
import fqsim.configurations as configurations
import fqsim.groups as groups
import fqsim.harness as harness
import fqsim.intersection as intersection


@dataclass
class Op:
    latency_ms: float
    output: dict
    report: object = None  # IntersectionReport, when the library returns one
    error: str | None = None


def sub_seed(workload: str, seed: int, *parts) -> int:
    """64-bit seed for one batch or input, independent of fqsim's own
    seed derivation so that a change there cannot change the inputs."""
    text = ":".join(str(p) for p in (workload, seed) + parts)
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def output_line(op) -> bytes:
    """What the digest hashes for one op: its canonical JSON output."""
    return (canonical(op.output) + "\n").encode()


def digest(ops) -> str:
    """SHA-256 over every op's output line, in op order."""
    h = hashlib.sha256()
    for op in ops:
        h.update(output_line(op))
    return h.hexdigest()


def _report_reasons(report) -> list[str]:
    reasons = []
    if not report.satisfies_bound:
        reasons.append("report breaks the intersection bound")
    if report.transitive and not report.double_count_ok:
        reasons.append("report breaks the double-count identity")
    hist = report.per_g_histogram
    if hist is not None:
        if sum(hist.values()) != report.group_order:
            reasons.append("histogram does not cover the group")
        if sum(c * m for c, m in hist.items()) != report.double_count_total:
            reasons.append("histogram disagrees with the double-count total")
    return reasons


def _witness_reasons(obj: dict) -> list[str]:
    """Re-verify a witness from its serialized JSON alone."""
    try:
        if obj["kind"] == "similarity":
            check = configurations.verify_similarity(
                configurations.SimilarityWitness.from_json(obj))
        else:
            check = configurations.verify_det_similarity(
                configurations.DetSimilarityWitness.from_json(obj))
    except Exception as exc:  # a witness that cannot be re-read fails the op
        return [f"witness does not deserialize: {type(exc).__name__}: {exc}"]
    reasons = list(check.reasons)
    if not check.ok and not reasons:
        reasons.append("witness failed verification")
    if not obj.get("verified"):
        reasons.append("witness not marked verified")
    return reasons


class Workload:
    name = ""
    batch_s = 1.0  # seconds of work per batch on the reference host
    jobs = 1

    def __init__(self, seed: int, seconds: float, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.n_batches = max(1, round(seconds / self.batch_s))

    def prepare(self) -> None:
        """Generate every input of the run (counted in setup_s)."""

    def run(self, b: int):
        """Timed part of batch b."""
        raise NotImplementedError

    def collect(self, b: int, raw) -> list[Op]:
        """Untimed: turn what run(b) returned into Ops."""
        return raw

    def check(self, op: Op) -> list[str]:
        """Untimed re-verification; an empty list means the op is correct."""
        raise NotImplementedError


class SimilarLarge(Workload):
    """find_similar_config at q=101, d=2, k=3, simplex edges, on a fresh
    seeded 450-point set per operation (about 2.2x the 202-point size
    guarantee); the ratio cycles through the nonzero squares.

    The difference-count kernel in intersection.translate is about 90%
    of the time and no group is built, so translation-kernel work shows
    here and group work cannot.
    """

    name = "similar_large"
    batch_s = 0.34
    Q, D, K, N = 101, 2, 3, 450

    def prepare(self):
        field = fqsim.make_field(self.Q)
        squares = sorted({v * v % self.Q for v in range(1, self.Q)})
        self.inputs = [
            (harness.random_pointset(field, self.D, self.N,
                                     sub_seed(self.name, self.seed, b)),
             field(squares[(self.seed + b) % len(squares)]))
            for b in range(self.n_batches)
        ]

    def run(self, b):
        points, ratio = self.inputs[b]
        start = time.perf_counter()
        witness = configurations.find_similar_config(points, ratio, self.K)
        latency = (time.perf_counter() - start) * 1000.0
        output = {"witness": witness.to_json(), "report": witness.report.to_json()}
        return [Op(latency, output, witness.report)]

    def check(self, op):
        return _witness_reasons(op.output["witness"]) + _report_reasons(op.report)


class _CliSweep(Workload):
    """One batch is one `fqsim sweep` CLI call writing JSON lines to a
    file; one operation is one cell, timed by the cell's own timing_ms."""

    sweep_args: list[str] = []
    trials = 1

    def prepare(self):
        self.out_path = os.path.join(self.workdir, f"sweep-{self.name}.jsonl")
        self.argvs = [
            ["sweep", *self.sweep_args, "--trials", str(self.trials),
             "--seed", str(sub_seed(self.name, self.seed, b)),
             "--jobs", str(self.jobs), "--out", self.out_path]
            for b in range(self.n_batches)
        ]

    def run(self, b):
        return fqsim.cli.main(self.argvs[b])

    def collect(self, b, code):
        with open(self.out_path, "r", encoding="utf-8") as fh:
            lines = [json.loads(line) for line in fh]
        summary = lines.pop() if lines and lines[-1].get("summary") else None
        ops = [Op(line["timing_ms"],
                  {"config": line["config"], "outcome": line["outcome"]})
               for line in lines]
        problems = []
        if code != 0:
            problems.append(f"sweep exited with {code}")
        if summary is None or summary["cells"] != len(ops) or summary["violations"]:
            problems.append(f"bad sweep summary {summary}")
        if problems and ops:
            ops[0].error = "; ".join(problems)
        elif problems:
            ops.append(Op(0.0, {}, error="; ".join(problems)))
        return ops

    def check(self, op):
        outcome = op.output["outcome"]
        if outcome.get("status") != "witness":
            return [f"cell failed: {outcome}"]
        reasons = _witness_reasons(outcome["witness"])
        if outcome["best_count"] * outcome["bound_den"] < outcome["bound_num"]:
            reasons.append("cell breaks the intersection bound")
        return reasons


class SimilaritySweep(_CliSweep):
    """`fqsim sweep` over qs 3,5,7,11,13, d=2, ks 1,2,3, all-squares
    ratios, threshold size, --jobs 1: thousands of sub-millisecond
    searches.  q=11 is there so that the median cell is not the boundary
    between two clusters: with qs 3,5,7,13 exactly half the cells are
    q=13 ones, and the median would be the mean of the slowest small-q
    cell and the fastest q=13 cell, both outliers.

    The kernel is only ~58% of a cell; sampling, finder self time,
    verification and JSON take the rest, so a kernel that adds per-call
    set-up or heavier objects shows a cost here.  Also the plain
    single-worker baseline.
    """

    name = "similarity_sweep"
    batch_s = 0.2
    trials = 4  # 51 cells per trial
    sweep_args = ["--qs", "3,5,7,11,13", "--d", "2", "--ks", "1,2,3",
                  "--r", "all-squares", "--size", "threshold"]


class DetSweep(_CliSweep):
    """`fqsim sweep --kind det-similarity` over qs 5,7, ks 2,3,
    --jobs 2 (the sweep's thread-pool path).

    SL(2,q) is rebuilt in every cell: groups.perms is ~74% of the time,
    groups.build ~23%, intersection.scan ~3%.  Group caching, image-only
    scans and the parallel sweep path show here and nowhere else.
    """

    name = "det_sweep"
    batch_s = 0.6
    trials = 1  # 10 cells per trial
    jobs = 2
    sweep_args = ["--kind", "det-similarity", "--qs", "5,7", "--d", "2",
                  "--ks", "2,3", "--r", "all-squares", "--size", "threshold"]


class BoundAudit(Workload):
    """max_intersection(..., want_histogram=True) traffic on three groups
    built once per run inside the timed region: SL(2,11) on the punctured
    plane (1320 elements, 120 points), O(3) over F_7 on the radius-1
    sphere (672, 42) and the translations of F_13^2 through the generic
    scan (169, 169).  E and H are seeded random subsets with sizes
    between |X|/4 and 3|X|/4; operations cycle through the groups.

    Many scans per group amortise the perms() table, so scan and
    histogram dominate.  The only workload that builds an orthogonal
    group; a change that replaces the table by per-scan image
    evaluation wins on det_sweep and could lose here.
    """

    name = "bound_audit"
    batch_s = 0.2
    OPS_PER_GROUP = 12
    GROUPS = (
        ("sl2_11", lambda: groups.special_linear_group(11, 2),
         lambda: groups.Space.punctured(11, 2)),
        ("o3_7", lambda: groups.orthogonal_group(7, 3, radius=1),
         lambda: groups.Space.sphere(7, 3, 1)),
        ("tr_13", lambda: groups.translations(13, 2),
         lambda: groups.Space.full(13, 2)),
    )

    def prepare(self):
        self.groups = None
        self.inputs = []
        for g_index, (_, _, make_space) in enumerate(self.GROUPS):
            space = make_space()
            x = space.size
            rng = random.Random(sub_seed(self.name, self.seed, g_index))
            sets = []
            for b in range(self.n_batches):
                for i in range(self.OPS_PER_GROUP):
                    ne, nh = (rng.randint(x // 4, 3 * x // 4) for _ in range(2))
                    sets.append((
                        harness.random_subset(space, ne, sub_seed(self.name, self.seed, g_index, b, i, "e")),
                        harness.random_subset(space, nh, sub_seed(self.name, self.seed, g_index, b, i, "h")),
                    ))
            self.inputs.append(sets)

    def run(self, b):
        if self.groups is None:
            self.groups = [make() for _, make, _ in self.GROUPS]
        ops = []
        for i in range(self.OPS_PER_GROUP):
            for g_index, group in enumerate(self.groups):
                e_set, h_set = self.inputs[g_index][b * self.OPS_PER_GROUP + i]
                start = time.perf_counter()
                report = intersection.max_intersection(group, e_set, h_set,
                                                       want_histogram=True)
                latency = (time.perf_counter() - start) * 1000.0
                output = {"group": self.GROUPS[g_index][0], "report": report.to_json()}
                ops.append(Op(latency, output, report))
        return ops

    def check(self, op):
        reasons = _report_reasons(op.report)
        if not op.report.transitive:
            reasons.append("audit group is not transitive")
        return reasons


WORKLOADS = {w.name: w for w in (SimilarLarge, SimilaritySweep, DetSweep, BoundAudit)}
