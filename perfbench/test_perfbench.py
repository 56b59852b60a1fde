"""Tests of the benchmark's own helpers.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import copy
import os
import sys
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import pytest

from layers import layer_metrics
from metrics import percentile
from tracing import ROOT, Tracer, layer_totals, self_times
from workloads import WORKLOADS, digest


def span(sid, parent, name, start, end, run=0, thread=1, attrs=None):
    return (sid, parent, name, start, end, run, thread, False, attrs or {})


# --- percentile rule ---

def test_p90_needs_ten_samples_beyond_it():
    assert percentile(list(range(99)), 0.9) is None
    values = list(range(100, 0, -1))
    p90 = percentile(values, 0.9)
    assert p90 == 90
    assert sum(v > p90 for v in values) == 10


def test_median_rule_and_empty_input():
    assert percentile(list(range(19)), 0.5) is None
    assert percentile(list(range(20)), 0.5) == 9
    assert percentile([], 0.5) is None


# --- self-time arithmetic ---

def test_self_time_nested_and_sibling_spans():
    spans = [
        span(1, None, ROOT, 0, 100),
        span(2, 1, "a", 10, 40),
        span(3, 2, "b", 20, 30),
        span(4, 1, "c", 50, 70),
    ]
    assert self_times(spans) == {1: 50, 2: 20, 3: 10, 4: 20}
    assert sum(self_times(spans).values()) == 100


def test_self_time_counts_overlapping_children_once():
    # Children from two threads parented to one span may overlap in time.
    spans = [
        span(1, None, ROOT, 0, 100),
        span(2, 1, "a", 10, 40, thread=1),
        span(3, 1, "a", 30, 60, thread=2),
        span(4, 1, "a", 90, 120, thread=2),  # runs past its parent's end
    ]
    assert self_times(spans)[1] == 100 - 50 - 10


def test_layer_totals_scale_each_run_by_its_factor():
    spans = [
        span(1, None, ROOT, 0, 1_000_000, run=0),
        span(2, 1, "a", 0, 500_000, run=0, attrs={"pairs": 3}),
        span(3, None, ROOT, 0, 1_000_000, run=1),
        span(4, 3, "a", 0, 500_000, run=1, attrs={"pairs": 4}),
    ]
    totals = layer_totals(spans, {0: 1.0, 1: 2.0})
    assert totals["a"]["self_ms"] == pytest.approx(0.5 + 1.0)
    assert totals[ROOT]["wall_ms"] == pytest.approx(1.0 + 2.0)
    assert totals["a"]["attrs"]["pairs"] == 7


def test_per_thread_stacks_keep_threads_apart():
    tracer = Tracer()
    barrier = threading.Barrier(2, timeout=10)

    def inner():
        barrier.wait()  # both threads hold an open outer span here
        return threading.get_ident()

    traced_inner = tracer.wrap("inner", inner)
    traced_outer = tracer.wrap("outer", lambda: traced_inner())
    threads = [threading.Thread(target=lambda: tracer.root(0, traced_outer))
               for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
        assert not t.is_alive()

    by_id = {s[0]: s for s in tracer.spans}
    assert len(tracer.spans) == 6
    for s in tracer.spans:
        if s[1] is not None:
            assert by_id[s[1]][6] == s[6], "a span's parent ran on another thread"
    selfs = self_times(tracer.spans)
    for thread in {s[6] for s in tracer.spans}:
        mine = [s for s in tracer.spans if s[6] == thread]
        root = next(s for s in mine if s[2] == ROOT)
        assert sum(selfs[s[0]] for s in mine) == root[4] - root[3]


def test_layer_self_times_add_up_to_traced_wall():
    import fqsim
    from layers import TARGETS
    from worker import measure

    wl = WORKLOADS["similarity_sweep"](seed=2, seconds=0.4, workdir=_tmp())
    wl.prepare()
    cli_main = fqsim.cli.main
    tracer = Tracer()
    tracer.install(fqsim, TARGETS)
    assert fqsim.cli.main is not cli_main
    try:
        m = measure(wl, tracer)
    finally:
        tracer.uninstall()
    assert fqsim.cli.main is cli_main
    assert tracer.missing == [] and m["failed"] == 0
    layers = layer_metrics(tracer.spans, dict(enumerate(m["factors"])))
    selfs = sum(v for k, v in layers.items() if k.endswith(".self_ms"))
    assert selfs + layers["trace.unattributed_ms"] == pytest.approx(layers["trace.wall_ms"])
    # The benchmark's own re-verification between batches is not traced.
    assert layers["harness.cell.calls"] == m["attempted"] == layers["configurations.verify.calls"]
    assert layers["configurations.find.success_ratio"] == 1.0
    assert layers["harness.sweep.bytes"] > 0


# --- reduced-size runs and the output gate ---

def _tmp():
    path = os.path.join(HERE, os.pardir, ".perfbench", "test")
    os.makedirs(path, exist_ok=True)
    return path


def _run(name, seed=3):
    wl = WORKLOADS[name](seed=seed, seconds=WORKLOADS[name].batch_s, workdir=_tmp())
    wl.prepare()
    ops = []
    for b in range(wl.n_batches):
        ops.extend(wl.collect(b, wl.run(b)))
    return wl, ops


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_reduced_run_is_reproducible_and_correct(name):
    wl, first = _run(name)
    _, second = _run(name)
    assert first and digest(first) == digest(second)
    assert all(op.error is None and wl.check(op) == [] for op in first)


def test_corrupted_outputs_are_caught():
    wl, ops = _run("similar_large")
    bad = copy.deepcopy(ops[0])
    bad.output["witness"]["ys"][0][0] = (bad.output["witness"]["ys"][0][0] + 1) % 101
    assert wl.check(bad)
    assert digest([bad]) != digest(ops[:1])

    wl, ops = _run("similarity_sweep")
    bad = copy.deepcopy(ops[0])
    bad.output["outcome"]["witness"]["sqrt_r"] += 1
    assert wl.check(bad)
    bad = copy.deepcopy(ops[0])
    bad.output["outcome"] = {"status": "error", "error": "InsufficientIntersection"}
    assert wl.check(bad)
