"""fqsim benchmark: one workload, end-to-end metrics or a traced run.

    python3 perfbench/run.py --workload similar_large --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; fqsim is imported from its src/.
`--workload all` runs every workload of BENCHMARK.json in turn.
Stdlib only.  Prints a human-readable report, then, as the last line,
one JSON object {"correct", "attempted", "failed", "metrics"}.  Exits 1
when any output is wrong and 2 when the benchmark cannot run at all.

--trace 0: nine fresh worker processes are started and timed until
their inputs are ready (setup_s is the median); the last one then runs
the timed batches.  Metrics: ops_per_s, op_ms_p50, setup_s, peak_rss_mb.
The report also gives op_ms_p90 (when at least ten samples lie beyond
it) and error_ratio.

--trace 1: the same work at half the size, run once untraced and once
traced, both single-worker, each in a fresh process.  Metrics: the
per-layer table of layers.py plus trace.overhead_ratio.

Every time is rescaled to reference-host speed by a calibration kernel
run before and after each timed batch; see metrics.py.  For the
reference seed and size, the digest of all outputs must match
reference.json; every output of every seed is re-verified.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

from layers import METRICS as LAYER_UNITS
from metrics import calibrate, host_factor

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKDIR = os.path.join(ROOT, ".perfbench")
SETUP_SAMPLES = 9
DEADLINE_S = 170

END_TO_END = {"ops_per_s": "1/s", "op_ms_p50": "ms", "setup_s": "s", "peak_rss_mb": "MB"}


class BenchError(Exception):
    pass


class Worker:
    """A worker.py process, started in this checkout and recorded in
    `live` so that main() can stop whatever is left running."""

    def __init__(self, args, mode: str, seconds: float, live: list):
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "worker.py"),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(seconds), "--mode", mode, "--workdir", WORKDIR],
            cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        live.append(self.proc)

    def wait_ready(self) -> None:
        line = self.proc.stdout.readline().strip()
        if line != "ready":
            self.proc.kill()
            self.proc.wait()
            raise BenchError(f"worker did not get ready (said {line!r}, "
                             f"exit {self.proc.returncode})")

    def stop(self) -> None:
        self.proc.communicate("stop\n")

    def go(self) -> dict:
        out, _ = self.proc.communicate("go\n")
        lines = out.strip().splitlines()
        if self.proc.returncode != 0 or not lines:
            raise BenchError(f"worker exited with {self.proc.returncode}")
        return json.loads(lines[-1])


def timed_setups(args, seconds: float, live: list):
    """Setup samples in reference-host seconds, plus the last worker,
    ready to measure.  An untimed first start compiles the bytecode."""
    warm = Worker(args, "measure", seconds, live)
    warm.wait_ready()
    warm.stop()
    samples = []
    for i in range(SETUP_SAMPLES):
        before = calibrate()
        start = time.perf_counter()
        worker = Worker(args, "measure", seconds, live)
        worker.wait_ready()
        elapsed = time.perf_counter() - start
        samples.append(elapsed * host_factor(before, calibrate()))
        if i < SETUP_SAMPLES - 1:
            worker.stop()
    return samples, worker


def reference_digest(args):
    with open(os.path.join(HERE, "reference.json"), "r", encoding="utf-8") as fh:
        ref = json.load(fh)
    if args.seed != ref["seed"] or args.seconds != ref["seconds"]:
        return None
    return ref["digests"].get(args.workload)


def run_end_to_end(args, live):
    setups, worker = timed_setups(args, args.seconds, live)
    res = worker.go()
    expected = reference_digest(args)
    digest_ok = expected is None or res["digest"] == expected
    failed = res["failed"] + (0 if digest_ok else 1)
    n = res["attempted"]
    metrics = {
        "ops_per_s": (res["ops_per_s"], f"{n} ops, {res['batches']} batches"),
        "op_ms_p50": (res["op_ms_p50"], f"{n} ops"),
        "setup_s": (statistics.median(setups), f"{len(setups)} fresh processes"),
        "peak_rss_mb": (res["peak_rss_mb"], "1 process tree"),
    }
    lines = [f"{name} = {value:.6g} {END_TO_END[name]} ({count})"
             for name, (value, count) in metrics.items()]
    p90 = res["op_ms_p90"]
    lines.append(f"op_ms_p90 = {p90:.6g} ms ({n} ops)" if p90 is not None
                 else f"op_ms_p90 = n/a (needs >= 100 ops, have {n})")
    lines.append(f"error_ratio = {failed / n:.6g} ({failed} of {n} ops)")
    lines.append(f"raw (not host-normalised): ops_per_s = {res['ops_per_s_raw']:.6g} 1/s, "
                 f"op_ms_p50 = {res['op_ms_p50_raw']:.6g} ms, "
                 f"median host factor = {res['host_factor_median']:.4f}")
    lines.append(f"digest {res['digest']} "
                 + ("(not compared: not the reference seed and size)" if expected is None
                    else "matches reference.json" if digest_ok
                    else f"DIFFERS from reference.json {expected}"))
    record = {"result": res, "setup_samples_s": setups, "digest_expected": expected}
    return lines, metrics, n, failed, record, [res]


def run_traced(args, live):
    half = args.seconds / 2.0
    results = []
    for mode in ("trace-ref", "trace"):
        worker = Worker(args, mode, half, live)
        worker.wait_ready()
        results.append(worker.go())
    ref, tr = results
    failed = ref["failed"] + tr["failed"] + (0 if ref["digest"] == tr["digest"] else 1)
    n = ref["attempted"] + tr["attempted"]
    layers = dict(tr["layers"])
    layers["trace.overhead_ratio"] = tr["wall_s_norm"] / ref["wall_s_norm"] - 1.0
    metrics = {name: (layers.get(name, 0), "") for name in LAYER_UNITS}
    lines = [f"{name} = {value:.6g} {LAYER_UNITS[name]}" for name, (value, _) in metrics.items()]
    accounted = layers["trace.unattributed_ms"] + sum(
        v for k, v in layers.items() if k.endswith(".self_ms"))
    lines.append(f"traced passes: --jobs 1, {tr['attempted']} ops each, {tr['spans']} spans; "
                 f"layer self times + unattributed = {accounted:.6g} ms, "
                 f"traced wall = {layers['trace.wall_ms']:.6g} ms")
    if tr["trace_missing"]:
        lines.append(f"not traced (absent from fqsim): {', '.join(tr['trace_missing'])}")
    if ref["digest"] != tr["digest"]:
        lines.append("traced outputs DIFFER from untraced outputs")
    lines.append(f"error_ratio = {failed / n:.6g} ({failed} of {n} ops)")
    return lines, metrics, n, failed, {"untraced": ref, "traced": tr}, results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if args.workload == "all":
        with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
            names = [w["name"] for w in json.load(fh)["workloads"]]
        base = ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        return max(main(["--workload", name, *base]) for name in names)

    if not os.path.isfile(os.path.join(ROOT, "src", "fqsim", "__init__.py")):
        print(f"perfbench: no fqsim sources under {ROOT}/src", file=sys.stderr)
        return 2
    os.makedirs(WORKDIR, exist_ok=True)

    def on_deadline(signum, frame):
        raise BenchError(f"deadline of {DEADLINE_S} s passed")

    signal.signal(signal.SIGALRM, on_deadline)
    signal.alarm(DEADLINE_S)
    live: list[subprocess.Popen] = []
    try:
        run = run_traced if args.trace else run_end_to_end
        lines, metrics, attempted, failed, record, results = run(args, live)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        signal.alarm(0)
        for proc in live:
            if proc.poll() is None:
                proc.kill()
            proc.wait()

    units = LAYER_UNITS if args.trace else END_TO_END
    machine = results[-1]["machine"]
    for res in results:
        for failure in res["failures"]:
            lines.append(f"FAILED ({res['mode']}): {'; '.join(failure)}")
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds} s, trace {args.trace}; "
          + ", ".join(f"{k} {v}" for k, v in machine.items()))
    print("\n".join(lines))
    record.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, machine=machine)
    with open(os.path.join(WORKDIR, f"result-{args.workload}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, (value, _) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
