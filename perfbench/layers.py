"""The traced layers: which public fqsim calls are wrapped, under which
layer name, and how the per-layer metrics are computed from the spans.

geometry (Vector, Matrix) and prng draws are deliberately not wrapped:
they run millions of times per run and a wrapper would swamp them.
Their cost lands in the self time of the layer that called them.
"""

from __future__ import annotations

from tracing import ROOT, layer_totals


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _pairs(args, kwargs):
    return {"pairs": len(_arg(args, kwargs, 0, "moving")) * len(_arg(args, kwargs, 1, "fixed"))}


def _perms_miss(args, kwargs):
    group = args[0]
    miss = getattr(group, "_perms", None) is None
    return {"misses": int(miss), "images": group.order * group.space.size if miss else 0}


def _scan_images(args, kwargs):
    group = _arg(args, kwargs, 0, "group")
    return {"images": group.order * len(_arg(args, kwargs, 1, "moving"))}


def _elements(result, args, kwargs, attrs):
    attrs["elements"] = result.order


def _failed(result, args, kwargs, attrs):
    attrs["failed"] = int(not result.ok)


def _tell_before(args, kwargs):
    try:
        return {"_tell": _arg(args, kwargs, 1, "stream").tell()}
    except (OSError, ValueError):
        return {}


def _bytes_written(result, args, kwargs, attrs):
    if "_tell" in attrs:
        attrs["bytes"] = _arg(args, kwargs, 1, "stream").tell() - attrs["_tell"]


# (module, function or Class.method, layer, pre-call hook, post-call hook)
TARGETS = [
    ("intersection", "max_translation_intersection_fast", "intersection.translate", _pairs, None),
    ("groups", "FiniteGroup.perms", "groups.perms", _perms_miss, None),
    ("groups", "translations", "groups.build", None, _elements),
    ("groups", "special_linear_group", "groups.build", None, _elements),
    ("groups", "orthogonal_group", "groups.build", None, _elements),
    ("intersection", "max_intersection", "intersection.scan", _scan_images, None),
    ("configurations", "find_similar_config", "configurations.find", None, None),
    ("configurations", "find_det_similar", "configurations.find", None, None),
    ("configurations", "verify_similarity", "configurations.verify", None, _failed),
    ("configurations", "verify_det_similarity", "configurations.verify", None, _failed),
    ("field", "FieldElement.is_mth_power", "field.roots", None, None),
    ("field", "FieldElement.sqrt", "field.roots", None, None),
    ("field", "FieldElement.mth_root", "field.roots", None, None),
    ("harness", "random_pointset", "harness.sample", None, None),
    ("harness", "random_subset", "harness.sample", None, None),
    ("harness", "run_cell", "harness.cell", None, None),
    ("harness", "write_sweep", "harness.sweep", _tell_before, _bytes_written),
    ("cli", "main", "cli", None, None),
]

# Per-layer metric -> unit, in the order they are reported.
METRICS = {
    "intersection.translate.calls": "count",
    "intersection.translate.self_ms": "ms",
    "intersection.translate.pairs": "count",
    "intersection.translate.pairs_per_s": "1/s",
    "groups.perms.calls": "count",
    "groups.perms.misses": "count",
    "groups.perms.self_ms": "ms",
    "groups.perms.images": "count",
    "groups.build.calls": "count",
    "groups.build.self_ms": "ms",
    "groups.build.elements": "count",
    "intersection.scan.calls": "count",
    "intersection.scan.self_ms": "ms",
    "intersection.scan.images": "count",
    "intersection.scan.images_per_s": "1/s",
    "configurations.find.calls": "count",
    "configurations.find.self_ms": "ms",
    "configurations.find.success_ratio": "ratio",
    "configurations.verify.calls": "count",
    "configurations.verify.self_ms": "ms",
    "configurations.verify.failed": "count",
    "field.roots.calls": "count",
    "field.roots.self_ms": "ms",
    "harness.sample.calls": "count",
    "harness.sample.self_ms": "ms",
    "harness.cell.calls": "count",
    "harness.cell.self_ms": "ms",
    "harness.sweep.self_ms": "ms",
    "harness.sweep.bytes": "bytes",
    "cli.calls": "count",
    "cli.self_ms": "ms",
    "trace.overhead_ratio": "ratio",
    "trace.unattributed_ms": "ms",
    "trace.wall_ms": "ms",
}


def layer_metrics(spans, run_factor) -> dict[str, float]:
    """Every per-layer metric except trace.overhead_ratio, which needs
    the untraced pass.  Times are reference-host ms (see metrics.py)."""
    totals = layer_totals(spans, run_factor)
    empty = {"calls": 0, "errors": 0, "self_ms": 0.0, "wall_ms": 0.0, "attrs": {}}
    out: dict[str, float] = {}
    for layer in dict.fromkeys(t[2] for t in TARGETS):
        row = totals.get(layer, empty)
        out[f"{layer}.calls"] = row["calls"]
        out[f"{layer}.self_ms"] = row["self_ms"]
        for key, value in row["attrs"].items():
            out[f"{layer}.{key}"] = value
    for layer, work in (("intersection.translate", "pairs"), ("intersection.scan", "images")):
        out.setdefault(f"{layer}.{work}", 0)
        secs = out[f"{layer}.self_ms"] / 1000.0
        out[f"{layer}.{work}_per_s"] = out[f"{layer}.{work}"] / secs if secs else 0.0
    calls = out["configurations.find.calls"]
    find = totals.get("configurations.find", empty)
    out["configurations.find.success_ratio"] = (calls - find["errors"]) / calls if calls else 0.0
    for key in ("groups.perms.misses", "groups.perms.images", "groups.build.elements",
                "configurations.verify.failed", "harness.sweep.bytes"):
        out.setdefault(key, 0)
    root = totals.get(ROOT, empty)
    out["trace.unattributed_ms"] = root["self_ms"]
    out["trace.wall_ms"] = root["wall_ms"]
    return {name: out[name] for name in METRICS if name in out}
