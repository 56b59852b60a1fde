"""One fresh benchmark process: set up one workload, then measure it.

Protocol with run.py: the worker generates every input, prints `ready`,
and waits for one line on stdin.  `go` starts the timed batches; any
other line ends the process (a set-up-only sample).  After each batch,
outside the timed region, the worker re-verifies and hashes that batch's
outputs; at the end it prints one JSON object as its last stdout line.

Modes: `measure` (untraced, the workload's own --jobs), `trace-ref`
(untraced, --jobs 1) and `trace` (traced, --jobs 1).  Traced passes run
single-worker so that layer self times and unattributed time add up to
the traced wall time; trace-ref is the same work untraced, for
trace.overhead_ratio.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback

from layers import TARGETS, layer_metrics
from metrics import calibrate, host_factor, percentile
from tracing import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def import_fqsim():
    """Import fqsim from this checkout's src/, never from anywhere else."""
    if not os.path.isfile(os.path.join(SRC, "fqsim", "__init__.py")):
        raise SystemExit(f"no fqsim sources under {SRC}")
    sys.path.insert(0, SRC)
    import fqsim
    if os.path.dirname(os.path.dirname(os.path.abspath(fqsim.__file__))) != SRC:
        raise SystemExit(f"imported fqsim from {fqsim.__file__}, not from {SRC}")
    return fqsim


def machine_facts() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(), "cpu": cpu}


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0  # ru_maxrss is in KiB on Linux


def measure(wl, tracer):
    """Run every batch; check and hash its outputs between batches.

    Batch b is timed between calibrations cal_before[b] and
    cal_after[b]; checking happens after cal_after[b], so it never
    sits between a batch and its calibrations.  Outputs are dropped
    once hashed, so peak RSS is the program's, not the benchmark's.
    """
    from workloads import Op, output_line
    digest = hashlib.sha256()
    walls, factors, latencies, failures = [], [], [], []
    attempted = failed = 0
    for b in range(wl.n_batches):
        cal_before = calibrate()
        start = time.perf_counter()
        try:
            raw = tracer.root(b, lambda: wl.run(b)) if tracer else wl.run(b)
            error = None
        except Exception as exc:  # an operation that raises fails; the run goes on
            traceback.print_exc()
            raw, error = None, f"{type(exc).__name__}: {exc}"
        walls.append(time.perf_counter() - start)
        factors.append(host_factor(cal_before, calibrate()))
        ops = wl.collect(b, raw) if error is None else [Op(0.0, {}, error=error)]
        with tracer.paused() if tracer else contextlib.nullcontext():
            for op in ops:
                attempted += 1
                digest.update(output_line(op))
                reasons = [op.error] if op.error else []
                reasons += wl.check(op) if op.output else []
                if reasons:
                    failed += 1
                    failures.append(reasons)
                latencies.append((op.latency_ms, factors[-1]))
    return {"walls": walls, "factors": factors, "latencies": latencies,
            "attempted": attempted, "failed": failed, "failures": failures,
            "digest": digest.hexdigest()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=["measure", "trace-ref", "trace"], required=True)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args(argv)

    fqsim = import_fqsim()
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.seed, args.seconds, args.workdir)
    if args.mode != "measure":
        wl.jobs = 1
    wl.prepare()
    print("ready", flush=True)
    if sys.stdin.readline().strip() != "go":
        return 0

    tracer = None
    if args.mode == "trace":
        tracer = Tracer()
        tracer.install(fqsim, TARGETS)
    try:
        m = measure(wl, tracer)
    finally:
        if tracer:
            tracer.uninstall()
    rss = peak_rss_mb()

    walls, factors = m["walls"], m["factors"]
    latencies = [ms * f for ms, f in m["latencies"]]
    norm_wall = sum(w * f for w, f in zip(walls, factors))
    ok_ops = m["attempted"] - m["failed"]
    result = {
        "workload": wl.name, "seed": args.seed, "mode": args.mode, "jobs": wl.jobs,
        "batches": wl.n_batches, "attempted": m["attempted"], "failed": m["failed"],
        "failures": m["failures"][:5], "digest": m["digest"],
        "machine": machine_facts(),
        "wall_s": sum(walls), "wall_s_norm": norm_wall,
        "host_factor_median": statistics.median(factors),
        "ops_per_s": ok_ops / norm_wall,
        "ops_per_s_raw": ok_ops / sum(walls),
        "op_ms_p50": statistics.median(latencies),
        "op_ms_p50_raw": statistics.median(ms for ms, _ in m["latencies"]),
        "op_ms_p90": percentile(latencies, 0.9),
        "peak_rss_mb": rss,
    }
    if tracer:
        run_factor = dict(enumerate(factors))
        result["layers"] = layer_metrics(tracer.spans, run_factor)
        result["trace_missing"] = tracer.missing
        result["spans"] = len(tracer.spans)
        path = os.path.join(args.workdir, f"spans-{wl.name}.jsonl")
        tracer.write(path, {"workload": wl.name, "seed": args.seed, "jobs": wl.jobs,
                            "run_factor": run_factor, "machine": machine_facts()})
    print(json.dumps(result, sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
