"""Command-line interface.

Every subcommand prints a single JSON object (sweeps print JSON lines)
on stdout.  Exit codes:
    0  success
    2  a guarantee the counting argument makes failed to hold (should
       never happen), or a witness failed verification
    3  input error (bad files, bad parameters, mismatched sets, malformed
       witness JSON, unknown or badly typed flags), or stdout closed by
       its reader (a broken pipe, as in `fqsim sweep ... | head`); the
       rest of the output is discarded
    4  an enumeration or scan cap was exceeded
    1  a search legitimately found too small an intersection while the
       size guarantee did not apply
Warnings, such as an empty point set or a duplicate line in a point
file, go to stderr as one `warning: <message>` line each.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import warnings

from . import __version__
from .configurations import (
    _tuple_size,
    EdgeSet,
    edge_preset,
    find_det_similar,
    find_similar_config,
    meets_threshold,
    verify_det_similarity,
    verify_similarity,
    DetSimilarityWitness,
    SimilarityWitness,
)
from .errors import (
    EnumerationCapExceeded,
    FqsimError,
    InsufficientIntersection,
    MalformedWitness,
    NotOnSphere,
    ScanCapExceeded,
    SpaceMismatch,
    VerificationFailed,
)
from .field import as_field, make_field
from .geometry import Vector, _power_exceeds
from .groups import _ACTIONS, _Action, orthogonal_group, special_linear_group, translations
from .harness import (
    SweepConfig,
    _edge_pairs,
    _load,
    _sweep_reports,
    load_pointset,
    parse_pointset,
    random_pointset,
    write_sweep,
)
from .intersection import (_check_audit_space, _check_set_space, _coset_overlap, _not_transitive,
                           _shift_overlap, exhaustive_pairs_audit, intersect_count, max_intersection)


def _emit(obj) -> None:
    print(json.dumps(obj, sort_keys=True, indent=2))


def _emit_error(exc: Exception, **extra) -> None:
    _emit({"error": type(exc).__name__, "message": str(exc), **extra})


def _admit(kind: str, q: int, d: int, radius) -> _Action:
    """The action of this kind, once every refusal of building its group
    has passed, in the build's order and words, building nothing:
    --radius, then the prime and the action's own (`_Action.admit`)."""
    action = _ACTIONS[kind]
    if radius is not None and not action.on_spheres:
        raise ValueError(f"--radius applies to orthogonal groups only, not {kind}")
    action.admit(q, d)
    return action


def _build_group(action: _Action, q: int, d: int, radius):
    """The group of an admitted action, for `enumerate-group` and the
    subset-pair audit; explicit sets of an action with a scan build none."""
    return globals()[action.builder](q, d, **({"radius": radius} if action.on_spheres else {}))


def cmd_enumerate_group(args) -> int:
    group = _build_group(_admit(args.kind, args.q, args.d, args.radius), args.q, args.d, args.radius)
    out = group.describe()
    if args.dump:
        out["elements"] = [g.to_json() for g in group.elements]
    _emit(out)
    return 0


def _recount(report, e_set, h_set) -> None:
    """Count |H ∩ best_g·E| again with `intersect_count`, which applies
    best_g point by point and shares no kernel with the scans, and refuse
    a report that it does not reach its best_count, before any output."""
    count = intersect_count(report.best_g, e_set, h_set)
    if count != report.best_count:
        raise VerificationFailed([f"best_g sends {count} points of the moving set into the fixed "
                                  f"set, the report's best_count is {report.best_count}"])


def _orthogonal_bound(q: int, d: int, radius, e_set, h_set, want_histogram: bool = False):
    """The report of O(d, q) on the radius sphere, or on F_q^d for radius
    None, over the moving and fixed sets, read before the group is built
    (a set that is None is the group's whole space), counted again by
    `_recount`; and that space."""
    group = orthogonal_group(q, d, radius=radius)
    e_set, h_set = (group.space if points is None else points for points in (e_set, h_set))
    report = max_intersection(group, e_set, h_set, want_histogram=want_histogram)
    _recount(report, e_set, h_set)
    return report, group.space


def cmd_verify_bound(args) -> int:
    q, d = args.q, args.d
    action = _admit(args.group, q, d, args.radius)
    if args.exhaustive_subsets:
        # decided by closed forms before the build: an action that is not
        # transitive is refused, then a space past the audit's limit
        if action.transitive(q, d, args.radius) is False:
            raise _not_transitive(args.group, action.space)
        if args.radius is None:
            _check_audit_space(action.size(q, d))
        group = _build_group(action, q, d, args.radius)
        audit = exhaustive_pairs_audit(group)
        _emit({"mode": "exhaustive-subsets", "group": group.describe(), **audit.to_json()})
        return 2 if audit.bound_violations or audit.double_count_mismatches else 0
    if not args.set_e or not args.set_h:
        raise ValueError("verify-bound needs --set-e and --set-h (or --exhaustive-subsets)")
    (e_set, e_digest), (h_set, h_digest) = (_load(path, parse_pointset) for path in (args.set_e, args.set_h))
    if action.scan is None:
        report, _ = _orthogonal_bound(q, d, args.radius, e_set, h_set, args.histogram)
    else:
        # counted by the finders' scans, which need no group: a set over
        # F_q^d lies in the action's space unless it holds the origin and
        # the space is punctured, so no space is listed
        for name, points in (("moving", e_set), ("fixed", h_set)):
            _check_set_space(q, d, name, points)
            if action.space == "punctured" and points._holds_origin():
                raise SpaceMismatch(f"{name} set: {Vector(points.field, (0,) * d)!r} is not a point of "
                                    f"Space({action.space}, q={q}, d={d}, size={action.size(q, d)})")
        report = globals()[action.scan](e_set, 1, h_set, args.histogram)[0]
        _recount(report, e_set, h_set)
    out = report.to_json()
    out["double_count_ok"] = report.double_count_ok if report.transitive else None
    out["input_digests"] = {"set_e": e_digest, "set_h": h_digest}
    _emit(out)
    return 2 if report.transitive and (not report.satisfies_bound or not report.double_count_ok) else 0


def _edge_set_from_option(option: str, k: int) -> EdgeSet:
    if option.startswith("pairs:"):
        return EdgeSet(k, _load(option[len("pairs:"):], _edge_pairs)[0])
    return edge_preset(option, k)


def _points_for(args):
    field = make_field(args.q)
    if args.set:
        points, digest = _load(args.set, parse_pointset)
        if points.field.q != args.q or points.dim != args.d:
            raise ValueError(
                f"point-set file declares q={points.field.q} d={points.dim}, "
                f"flags say q={args.q} d={args.d}"
            )
        return field, points, {"set": digest}
    if args.random is None:
        raise ValueError("provide --set FILE or --random N")
    return field, random_pointset(field, args.d, args.random, args.seed), {}


def cmd_find(args) -> int:
    """find-similar and find-det-similar: run args.finder, report its witness."""
    field, points, digests = _points_for(args)
    ratio = field(args.r)
    edges = _edge_set_from_option(args.edges, args.k) if args.edges else None
    met = meets_threshold(len(points) ** 2, args.k, field.q, args.d)
    try:
        witness = args.finder(points, ratio, args.k, edges)
    except InsufficientIntersection as exc:
        _emit_error(exc, best_count=exc.best_count, needed=exc.needed,
                    meets_threshold=met, set_size=len(points))
        return 2 if met else 1
    out = witness.to_json()
    out["meets_threshold"] = met
    out["best_count"] = witness.report.best_count
    if digests:
        out["input_digests"] = digests
    _emit(out)
    return 0


def cmd_sphere_experiment(args) -> int:
    """The O(d, q) bound on a sphere, a set not given being the whole
    sphere, with both size thresholds: the exact one on the sphere's size
    and the coarse q^(d-1).  The set files are read, then the prime, the k
    checks (once) and each given point's norm are checked, all before the
    group is built.  Transitivity on the sphere is reported, never
    assumed: it fails, for instance, on spheres through the origin."""
    q, d, k = args.q, args.d, args.k
    sets = [load_pointset(path) if path else None for path in (args.set_e, args.set_h)]
    radius = args.radius % as_field(q).q
    need = _tuple_size(k)
    for name, points in zip(("moving", "fixed"), sets):
        for p in points or ():
            if p.field.q != q or p.dim != d or p.norm().value != radius:
                raise NotOnSphere(f"{name} set point {p!r} is not on the radius-{radius} sphere")
    report, surface = _orthogonal_bound(q, d, radius, *sets)
    share = report.moving_size * report.fixed_size // need  # >= X iff |E||H| >= (k+1)·X
    exact = not _power_exceeds(len(surface), 1, share)
    reaches = report.best_count >= need
    # max >= k+1 is guaranteed on a nonempty sphere, when the action is
    # transitive and the exact threshold is met; on an empty sphere the
    # bound |E||H|/|X| is vacuous
    holds = reaches or not (len(surface) and report.transitive and exact)
    out = report.to_json()
    out.update(k=k, sphere_size=len(surface), coarse_space_size=q ** (d - 1),
               meets_exact_threshold=exact, meets_coarse_threshold=not _power_exceeds(q, d - 1, share),
               reaches_target=reaches, guarantee_holds=holds)
    _emit(out)
    return 0 if holds else 2


def cmd_sweep(args) -> int:
    ratios = "all-squares" if args.r == "all-squares" else tuple(
        int(v) for v in args.r.split(",")
    )
    size = "threshold" if args.size == "threshold" else int(args.size)
    config = SweepConfig(
        qs=tuple(int(v) for v in args.qs.split(",")),
        d=args.d,
        ks=tuple(int(v) for v in args.ks.split(",")),
        ratios=ratios,
        trials=args.trials,
        base_seed=args.seed,
        size=size,
        kind=args.kind,
    )
    _sweep_reports(config, args.jobs)  # refuses before --out is opened, which truncates it
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            summary = write_sweep(config, fh, jobs=args.jobs)
    else:
        summary = write_sweep(config, sys.stdout, jobs=args.jobs)
    return 2 if summary["violations"] else 0


def cmd_verify_witness(args) -> int:
    try:
        obj, digest = _load(args.file, json.load)
    except RecursionError:  # the decoder recurses once per nesting level
        raise MalformedWitness("witness JSON nests deeper than the decoder's recursion limit") from None
    if not isinstance(obj, dict):
        raise MalformedWitness(f"witness JSON must be an object, got {type(obj).__name__}")
    kind = obj.get("kind")
    if kind == "similarity":
        check = verify_similarity(SimilarityWitness.from_json(obj))
    elif kind == "det-similarity":
        check = verify_det_similarity(DetSimilarityWitness.from_json(obj))
    else:
        raise MalformedWitness(f"unknown witness kind {kind!r}")
    _emit({"verified": check.ok, "reasons": list(check.reasons),
           "input_digest": digest})
    return 0 if check.ok else 2


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 3 (input error); argparse's own 2 would read as a
    failed guarantee.  Subparsers inherit this class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(3, f"{self.prog}: error: {message}\n")


def _required_ints(parser: argparse.ArgumentParser, *names: str) -> None:
    for name in names:
        parser.add_argument(f"--{name}", type=int, required=True)


def _group_options(parser: argparse.ArgumentParser, flag: str) -> None:
    parser.add_argument(flag, required=True, choices=list(_ACTIONS))
    _required_ints(parser, "q", "d")
    parser.add_argument("--radius", type=int, default=None,
                        help="act on this sphere instead of the full space (orthogonal only)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parsing leaves it
    unchanged.  Tests that patch what it binds call `cache_clear()`."""
    parser = _Parser(
        prog="fqsim",
        description="Exact group-action intersection bounds and similar "
                    "point configurations over prime fields.",
    )
    parser.add_argument("--version", action="version", version=f"fqsim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate-group", help="enumerate a group and describe its action")
    _group_options(p, "--kind")
    p.add_argument("--dump", action="store_true", help="include the element list")
    p.set_defaults(func=cmd_enumerate_group)

    p = sub.add_parser("verify-bound", help="maximize |H ∩ gE| and check the exact bound")
    _group_options(p, "--group")
    p.add_argument("--set-e", dest="set_e")
    p.add_argument("--set-h", dest="set_h")
    p.add_argument("--exhaustive-subsets", action="store_true",
                   help="audit every subset pair of the space instead of reading sets")
    p.add_argument("--histogram", action="store_true")
    p.set_defaults(func=cmd_verify_bound)

    p = sub.add_parser("find-similar", help="find tuples similar under a square ratio")
    _required_ints(p, "q", "d", "r", "k")
    p.add_argument("--edges", default="simplex",
                   help="simplex|cycle|path|star|pairs:FILE")
    p.add_argument("--set", help="point-set file")
    p.add_argument("--random", type=int, help="sample this many random points instead")
    p.add_argument("--seed", type=int, default=1)
    p.set_defaults(func=cmd_find, finder=find_similar_config)

    p = sub.add_parser("find-det-similar",
                       help="find tuples with proportional subset determinants")
    _required_ints(p, "q", "d", "r", "k")
    p.add_argument("--set", help="point-set file")
    p.add_argument("--random", type=int,
                   help="sample this many random points of all of F_q^d instead; the "
                        "sample may hold the origin (exit 3, OriginInSet), so use --set "
                        "or 'sweep --kind det-similarity' for the punctured space")
    p.add_argument("--seed", type=int, default=1)
    p.set_defaults(func=cmd_find, edges=None,
                   finder=lambda points, ratio, k, edges: find_det_similar(points, ratio, k))

    p = sub.add_parser("sphere-experiment",
                       help="orthogonal-action intersection bound on a sphere")
    _required_ints(p, "q", "d", "radius", "k")
    p.add_argument("--set-e", dest="set_e")
    p.add_argument("--set-h", dest="set_h")
    p.set_defaults(func=cmd_sphere_experiment)

    p = sub.add_parser("sweep", help="run a grid of similarity searches, one JSON line each")
    p.add_argument("--qs", required=True, help="comma-separated prime orders")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--ks", required=True, help="comma-separated k values")
    p.add_argument("--r", default="all-squares",
                   help="'all-squares' or comma-separated residues")
    p.add_argument("--trials", type=int, default=1, help="seeded repetitions per cell")
    p.add_argument("--seed", type=int, default=1, help="base seed")
    p.add_argument("--size", default="threshold",
                   help="'threshold' or a fixed set size")
    p.add_argument("--kind", default="similarity",
                   choices=["similarity", "det-similarity"])
    p.add_argument("--jobs", type=int, default=1,
                   help="worker count, at least 1; validated only: cells run one after another")
    p.add_argument("--out", help="write JSON lines here instead of stdout")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("verify-witness", help="re-verify a serialized witness")
    p.add_argument("file")
    p.set_defaults(func=cmd_verify_witness)

    return parser


def _show_warning(message, category, filename, lineno, file=None, line=None) -> None:
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    with warnings.catch_warnings():
        warnings.showwarning = _show_warning  # no source path and line prefix
        try:
            return args.func(args)
        except BrokenPipeError:
            # Nothing more can reach the reader; point stdout at devnull so
            # that neither an error report nor the flush at exit raises again.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            return 3
        except (EnumerationCapExceeded, ScanCapExceeded) as exc:
            _emit_error(exc)
            return 4
        except VerificationFailed as exc:
            _emit_error(exc, reasons=list(exc.reasons))
            return 2
        except (FqsimError, ValueError, OSError) as exc:  # JSONDecodeError is a ValueError
            _emit_error(exc)
            return 3


if __name__ == "__main__":
    sys.exit(main())
