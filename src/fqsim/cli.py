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
    EdgeSet,
    edge_preset,
    find_det_similar,
    find_similar_config,
    meets_threshold,
    sphere_experiment,
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
    ParseError,
    ScanCapExceeded,
    VerificationFailed,
)
from .field import make_field
from .groups import orthogonal_group, special_linear_group, translations
from .harness import (
    SweepConfig,
    file_digest,
    load_pointset,
    random_pointset,
    write_sweep,
)
from .intersection import (_space_indices, exhaustive_pairs_audit, max_intersection,
                           max_translation_intersection_fast)


def _emit(obj) -> None:
    print(json.dumps(obj, sort_keys=True, indent=2))


def _emit_error(exc: Exception, **extra) -> None:
    _emit({"error": type(exc).__name__, "message": str(exc), **extra})


def _build_group(kind: str, q: int, d: int, radius):
    if radius is not None and kind != "orthogonal":
        raise ValueError(f"--radius applies to orthogonal groups only, not {kind}")
    if kind == "translations":
        return translations(q, d)
    if kind == "orthogonal":
        return orthogonal_group(q, d, radius=radius)
    return special_linear_group(q, d)


def cmd_enumerate_group(args) -> int:
    group = _build_group(args.kind, args.q, args.d, args.radius)
    out = group.describe()
    if args.dump:
        out["elements"] = [g.to_json() for g in group.elements]
    _emit(out)
    return 0


def cmd_verify_bound(args) -> int:
    group = _build_group(args.group, args.q, args.d, args.radius)
    if args.exhaustive_subsets:
        audit = exhaustive_pairs_audit(group)
        out = {"mode": "exhaustive-subsets", "group": group.describe()}
        out.update(audit.to_json())
        _emit(out)
        bad = audit.bound_violations + audit.double_count_mismatches
        return 2 if bad else 0
    if not args.set_e or not args.set_h:
        raise ValueError("verify-bound needs --set-e and --set-h (or --exhaustive-subsets)")
    e_set = load_pointset(args.set_e)
    h_set = load_pointset(args.set_h)
    if args.group == "translations":  # the finders' kernel: no image table
        for name, points in (("moving", e_set), ("fixed", h_set)):
            _space_indices(group.space, name, points)
        report = max_translation_intersection_fast(e_set, h_set, want_histogram=args.histogram)
    else:
        report = max_intersection(group, e_set, h_set, want_histogram=args.histogram)
    out = report.to_json()
    out["double_count_ok"] = report.double_count_ok if report.transitive else None
    out["input_digests"] = {"set_e": file_digest(args.set_e), "set_h": file_digest(args.set_h)}
    _emit(out)
    if report.transitive and (not report.satisfies_bound or not report.double_count_ok):
        return 2
    return 0


def _edge_set_from_option(option: str, k: int) -> EdgeSet:
    if option.startswith("pairs:"):
        path = option[len("pairs:"):]
        pairs = []
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                cells = line.split(",")
                if len(cells) != 2:
                    raise ParseError(lineno, f"expected one 'i,j' pair, got {line!r}")
                try:
                    pairs.append((int(cells[0]), int(cells[1])))
                except ValueError:
                    raise ParseError(lineno, f"non-integer edge index in {line!r}") from None
        return EdgeSet(k, pairs)
    return edge_preset(option, k)


def _points_for(args):
    field = make_field(args.q)
    if args.set:
        points = load_pointset(args.set)
        if points.field.q != args.q or points.dim != args.d:
            raise ValueError(
                f"point-set file declares q={points.field.q} d={points.dim}, "
                f"flags say q={args.q} d={args.d}"
            )
        return field, points, {"set": file_digest(args.set)}
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
    e_set = load_pointset(args.set_e) if args.set_e else None
    h_set = load_pointset(args.set_h) if args.set_h else None
    result = sphere_experiment(args.q, args.d, args.radius, args.k,
                               e_set=e_set, h_set=h_set)
    _emit(result.to_json())
    return 0 if result.guarantee_holds else 2


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
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            summary = write_sweep(config, fh, jobs=args.jobs)
    else:
        summary = write_sweep(config, sys.stdout, jobs=args.jobs)
    return 2 if summary["violations"] else 0


def cmd_verify_witness(args) -> int:
    with open(args.file, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
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
           "input_digest": file_digest(args.file)})
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
    p.add_argument("--kind", required=True,
                   choices=["translations", "orthogonal", "special-linear"])
    _required_ints(p, "q", "d")
    p.add_argument("--radius", type=int, default=None,
                   help="act on this sphere instead of the full space (orthogonal only)")
    p.add_argument("--dump", action="store_true", help="include the element list")
    p.set_defaults(func=cmd_enumerate_group)

    p = sub.add_parser("verify-bound", help="maximize |H ∩ gE| and check the exact bound")
    p.add_argument("--group", required=True,
                   choices=["translations", "orthogonal", "special-linear"])
    _required_ints(p, "q", "d")
    p.add_argument("--radius", type=int, default=None,
                   help="act on this sphere instead of the full space (orthogonal only)")
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
    p.add_argument("--jobs", type=int, default=1, help="worker count, at least 1")
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
