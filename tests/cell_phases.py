"""Where a sweep cell's time goes, phase by phase, on the benchmark's two
sweep grids.

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
- pairs: the scan's overlap call and each pair read from what it returns;
- verifier: `configurations.verify_similarity` or `verify_det_similarity`;
- glue: the finder, `find_similar_config` or `find_det_similar`, less the
  phases it calls;
- outcome: `run_cell` less the draw and the finder: the field, the
  outcome and the witness's JSON.

A pass measures both grids, one after the other, into two rows of
medians in µs each.  Hot: each cell run N times in a row, each phase's
best of the N, then the median over the cells.  Sweep flow: the grid run
N times in grid order, each cell once per run, then the median over
every cell of every run.  There are PASSES = 5 passes, and each grid
prints, per row and phase, the median of the passes' medians with the
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

import fqsim  # noqa: E402
from fqsim import harness  # noqa: E402
from fqsim.harness import SweepConfig  # noqa: E402

PASSES = 5

PHASES = ("cell", "draw", "roots", "scan", "pairs", "glue", "verifier", "outcome")

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

GRIDS = {
    "similarity": SweepConfig(qs=(3, 5, 7, 11, 13), d=2, ks=(1, 2, 3), trials=4, base_seed=1),
    "det-similarity": SweepConfig(qs=(5, 7), d=2, ks=(2, 3), trials=1, base_seed=1,
                                  kind="det-similarity"),
}


class Phases:
    """Self time per phase of the wrapped calls in the current cell, in ns."""

    def __init__(self):
        self.totals = dict.fromkeys(PHASES, 0)
        self.stack = [0]  # ns spent in wrapped children, per open call

    def wrap(self, phase, fn):
        clock = time.perf_counter_ns

        def timed(*args, **kwargs):
            self.stack.append(0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self.totals[phase] += elapsed - self.stack.pop()
                self.stack[-1] += elapsed
            if phase == "scan":  # time the overlap call and each pair read off it
                report, overlap = result
                pairs = self.wrap("pairs", overlap)
                result = report, lambda: _Pairs(self.wrap("pairs", iter(pairs()).__next__))
            return result
        return timed

    def take(self) -> dict:
        """This cell's phases in µs, the whole cell among them, and a reset."""
        out = {name: ns / 1000 for name, ns in self.totals.items()}
        out["cell"] = sum(out.values())
        self.totals = dict.fromkeys(PHASES, 0)
        return out


class _Pairs:
    """An iterator whose every step is a timed call."""

    def __init__(self, step):
        self.step = step

    def __iter__(self):
        return self

    def __next__(self):
        return self.step()


def install(phases: Phases) -> list:
    """Wrap every target wherever fqsim binds it; the list of what to restore."""
    prefix = fqsim.__name__
    loaded = [m for n, m in list(sys.modules.items())
              if m is not None and (n == prefix or n.startswith(prefix + "."))]
    patched = []
    for module_name, qualname, phase in TARGETS:
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


def measure(config: SweepConfig, phases: Phases, repeat: int) -> tuple[dict, dict]:
    """(hot, sweep-flow) medians per phase, in µs."""
    cells = list(config.cells())
    hot = []
    for cell in cells:
        runs = []
        for _ in range(repeat):
            harness.run_cell(cell)
            runs.append(phases.take())
        hot.append({name: min(r[name] for r in runs) for name in PHASES})
    flow = []
    for _ in range(repeat):
        for cell in cells:
            harness.run_cell(cell)
            flow.append(phases.take())
    return tuple({name: statistics.median(r[name] for r in rows) for name in PHASES}
                 for rows in (hot, flow))


def spread(values) -> str:
    """The median of the values with their lowest and highest, in µs."""
    return f"{statistics.median(values):.1f} [{min(values):.1f}–{max(values):.1f}]"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeat", type=int, default=11, help="runs per cell (default 11)")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    phases = Phases()
    patched = install(phases)
    try:
        print(f"wrapper cost: {wrapper_cost(phases):.2f} µs per wrapped call; "
              f"per-pass medians in µs, median [lowest–highest] over {PASSES} passes")
        passes = [{name: measure(config, phases, args.repeat) for name, config in GRIDS.items()}
                  for _ in range(PASSES)]
        for name, config in GRIDS.items():
            print(f"\n{name}: {len(list(config.cells()))} cells, repeat {args.repeat}, {PASSES} passes")
            print("| " + " | ".join(("rows",) + PHASES) + " |")
            for i, label in enumerate((f"hot best of {args.repeat}", "sweep flow")):
                rows = [one[name][i] for one in passes]
                print("| " + " | ".join([label] + [spread([row[p] for row in rows]) for p in PHASES]) + " |")
    finally:
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)
    return 0


if __name__ == "__main__":
    sys.exit(main())
