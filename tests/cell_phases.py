"""Where a sweep cell's time goes, phase by phase, on the benchmark's two
sweep grids, and where a `similar_large` find's goes.

    python tests/cell_phases.py [--repeat N]    # default N = 11

Both grids run at base seed 1, d = 2, every square ratio, threshold size:
similarity over qs 3,5,7,11,13, ks 1,2,3 and 4 trials (204 cells), and
det-similarity over qs 5,7, ks 2,3 and 1 trial (10 cells).  Every cell
runs through `harness.run_cell` with the function of each phase wrapped,
by module attribute or class attribute as perfbench's tracer wraps its
layers, and each phase is the self time of its wrapped calls:

- draw: `harness.random_pointset` or `harness._det_draw`;
- roots: `FieldElement.sqrt`, `is_mth_power` and `mth_root`; a root the
  finder keeps from an earlier cell reaches none of them, and its look-up
  is glue;
- scan: `configurations._shift_overlap` or `_coset_overlap`;
- pairs: the scan's overlap call and each pair read from what it
  returns, with every wrapped call they make;
- verifier: `configurations.verify_similarity` or `verify_det_similarity`;
- glue: the finder, `find_similar_config` or `find_det_similar`, less the
  phases it calls;
- outcome: `run_cell` less the draw and the finder: the field, the
  outcome and the witness's JSON.

The find runs `find_similar_config` on the inputs of a 20-second
`similar_large` run at seed 1 (its `SimilarLarge.prepare`: 450 points of
F_101^2, k = 3, the ratio cycling over the squares), past the byte bound,
where its phases are:

- codes: `intersection._codes` and `_columns` in the scan, the base-2q
  codes of H and of E and the coordinate columns they are read from;
- planes: `intersection._translation_counts` less the codes, the bit
  table of H and the bit-plane adders;
- readout: `intersection._read_planes`;
- pairs: as in a cell, so the codes of g·x for the reported shift g,
  which the overlap call makes, are pairs;
- verifier: as in a cell;
- glue: the finder and its scan, `_shift_overlap`, less the phases they
  call: the root, the report and the witness.

A pass measures both grids and the find, one after the other, into two
rows of medians in µs each.  Hot: each cell or find run N times in a
row, each phase's best of the N, then the median over the cells.  Sweep
or benchmark flow: the grid or the inputs run N times in order, each
once per run, then the median over every call of every run.  There are
PASSES = 5 passes, and each table prints, per row and phase, the median
of the passes' medians with the
lowest and the highest beside it, `median [lowest–highest]`: on a
shared host whole passes run fast or slow together, so one pass's
medians can show any phase moving either way, and a change is resolved
only past the spread.  A phase's medians do not add up to the cell's.  Each wrapped
call costs its caller about the wrapper cost printed at the top, the
same at any tree; and a pass of the cyclic garbage collector is charged
to whichever phase is open when it starts, so a phase moves when
another one allocates less.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import fqsim  # noqa: E402
from fqsim import configurations, harness  # noqa: E402
from fqsim.harness import SweepConfig  # noqa: E402
from perfbench.workloads import SimilarLarge  # noqa: E402

PASSES = 5

PHASES = ("cell", "draw", "roots", "scan", "pairs", "glue", "verifier", "outcome")
FIND_PHASES = ("find", "codes", "planes", "readout", "pairs", "verifier", "glue")

# (module, function or Class.method, phase)
TARGETS = [
    ("harness", "run_cell", "outcome"),
    ("harness", "random_pointset", "draw"),
    ("harness", "_det_draw", "draw"),
    ("configurations", "find_similar_config", "glue"),
    ("configurations", "find_det_similar", "glue"),
    ("field", "FieldElement.sqrt", "roots"),
    ("field", "FieldElement.is_mth_power", "roots"),
    ("field", "FieldElement.mth_root", "roots"),
    ("configurations", "_shift_overlap", "scan"),
    ("configurations", "_coset_overlap", "scan"),
    ("configurations", "verify_similarity", "verifier"),
    ("configurations", "verify_det_similarity", "verifier"),
]

FIND_TARGETS = [
    ("configurations", "find_similar_config", "glue"),
    ("configurations", "_shift_overlap", "glue"),
    ("intersection", "_codes", "codes"),
    ("intersection", "_columns", "codes"),
    ("intersection", "_translation_counts", "planes"),
    ("intersection", "_read_planes", "readout"),
    ("configurations", "verify_similarity", "verifier"),
]

# the scans, whose overlap call and pairs are timed as pairs
SCANS = ("_shift_overlap", "_coset_overlap")

GRIDS = {
    "similarity": SweepConfig(qs=(3, 5, 7, 11, 13), d=2, ks=(1, 2, 3), trials=4, base_seed=1),
    "det-similarity": SweepConfig(qs=(5, 7), d=2, ks=(2, 3), trials=1, base_seed=1,
                                  kind="det-similarity"),
}


class Phases:
    """Self time per phase of the wrapped calls in the current cell or
    find, in ns: `names` are the whole call's, then its phases'."""

    def __init__(self, names=PHASES):
        self.names = names
        self.totals = dict.fromkeys(names, 0)
        self.stack = [0]  # ns spent in wrapped children, per open call
        self.pairing = False  # whether a pairs call is open

    def wrap(self, phase, fn):
        clock = time.perf_counter_ns

        def timed(*args, **kwargs):
            # a pairs call keeps the wrapped calls it makes as pairs
            charged, pairing = ("pairs", True) if self.pairing else (phase, phase == "pairs")
            self.stack.append(0)
            self.pairing, outer = pairing, self.pairing
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self.pairing = outer
                self.totals[charged] += elapsed - self.stack.pop()
                self.stack[-1] += elapsed
            if fn.__name__ in SCANS:  # time the overlap call and each pair read off it
                report, overlap = result
                pairs = self.wrap("pairs", overlap)
                result = report, lambda: _Pairs(self.wrap("pairs", iter(pairs()).__next__))
            return result
        return timed

    def take(self) -> dict:
        """This call's phases in µs, the whole call among them, and a reset."""
        out = {name: ns / 1000 for name, ns in self.totals.items()}
        out[self.names[0]] = sum(out.values())
        self.totals = dict.fromkeys(self.names, 0)
        return out


class _Pairs:
    """An iterator whose every step is a timed call."""

    def __init__(self, step):
        self.step = step

    def __iter__(self):
        return self

    def __next__(self):
        return self.step()


def install(phases: Phases, targets=TARGETS) -> list:
    """Wrap every target wherever fqsim binds it; the list of what to restore."""
    prefix = fqsim.__name__
    loaded = [m for n, m in list(sys.modules.items())
              if m is not None and (n == prefix or n.startswith(prefix + "."))]
    patched = []
    for module_name, qualname, phase in targets:
        owner_name, _, attr = qualname.rpartition(".")
        module = sys.modules[f"{prefix}.{module_name}"]
        owners = [getattr(module, owner_name)] if owner_name else loaded
        original = (owners[0] if owner_name else module).__dict__.get(attr)
        if original is None:
            continue  # a later tree may not have it
        for owner in owners:
            if owner.__dict__.get(attr) is original:
                patched.append((owner, attr, original))
                setattr(owner, attr, phases.wrap(phase, original))
    return patched


def wrapper_cost(phases: Phases, calls: int = 20000) -> float:
    """µs that one wrapped call adds to its caller's self time."""
    inner = phases.wrap("pairs", lambda: None)

    def body():
        for _ in range(calls):
            inner()
    outer = phases.wrap("glue", body)
    bare_start = time.perf_counter_ns()
    for _ in range(calls):
        (lambda: None)()
    bare = time.perf_counter_ns() - bare_start
    outer()
    cost = (phases.totals["glue"] - bare) / calls / 1000
    phases.take()
    return cost


def grid_calls(config: SweepConfig) -> list:
    """One call per cell of the grid, each running it through `run_cell`."""
    return [lambda cell=cell: harness.run_cell(cell) for cell in config.cells()]


def find_calls() -> list:
    """One call per input of a 20-second seed-1 `similar_large` run, each
    a find on it."""
    workload = SimilarLarge(1, 20, "")
    workload.prepare()
    return [lambda points=points, ratio=ratio: configurations.find_similar_config(points, ratio, workload.K)
            for points, ratio in workload.inputs]


# table -> (phases, targets, what a call is, the in-order row's label, its calls)
TABLES = {
    "similarity": (PHASES, TARGETS, "cells", "sweep flow", lambda: grid_calls(GRIDS["similarity"])),
    "det-similarity": (PHASES, TARGETS, "cells", "sweep flow", lambda: grid_calls(GRIDS["det-similarity"])),
    "similar_large": (FIND_PHASES, FIND_TARGETS, "finds", "benchmark flow", find_calls),
}


def measure(calls: list, phases: Phases, repeat: int) -> tuple[dict, dict]:
    """(hot, in-order flow) medians per phase, in µs."""
    hot = []
    for call in calls:
        runs = []
        for _ in range(repeat):
            call()
            runs.append(phases.take())
        hot.append({name: min(r[name] for r in runs) for name in phases.names})
    flow = []
    for _ in range(repeat):
        for call in calls:
            call()
            flow.append(phases.take())
    return tuple({name: statistics.median(r[name] for r in rows) for name in phases.names}
                 for rows in (hot, flow))


def spread(values) -> str:
    """The median of the values with their lowest and highest, in µs."""
    return f"{statistics.median(values):.1f} [{min(values):.1f}–{max(values):.1f}]"


def run_table(name: str, calls: list, repeat: int) -> tuple[dict, dict]:
    """One pass's rows of a table, its targets wrapped for the pass alone."""
    names, targets = TABLES[name][:2]
    phases = Phases(names)
    patched = install(phases, targets)
    try:
        return measure(calls, phases, repeat)
    finally:
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeat", type=int, default=11, help="runs per cell or find (default 11)")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    calls = {name: table[-1]() for name, table in TABLES.items()}
    print(f"wrapper cost: {wrapper_cost(Phases()):.2f} µs per wrapped call; "
          f"per-pass medians in µs, median [lowest–highest] over {PASSES} passes")
    passes = [{name: run_table(name, calls[name], args.repeat) for name in TABLES} for _ in range(PASSES)]
    for name, (names, _, unit, flow, _) in TABLES.items():
        print(f"\n{name}: {len(calls[name])} {unit}, repeat {args.repeat}, {PASSES} passes")
        print("| " + " | ".join(("rows",) + names) + " |")
        for i, label in enumerate((f"hot best of {args.repeat}", flow)):
            rows = [one[name][i] for one in passes]
            print("| " + " | ".join([label] + [spread([row[p] for row in rows]) for p in names]) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
