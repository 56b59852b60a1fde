"""Constructive search for r-similar and determinant-similar point tuples.

Given a set E in F_q^d and a nonzero square ratio r, a similarity
witness is a pair of (k+1)-tuples (x_i), (y_i) drawn from E whose
pairwise norms satisfy ‖y_i - y_j‖ = r·‖x_i - x_j‖ on a prescribed
edge set.  The finder realizes the counting argument directly: scale E
by a square root of r, translate E over it, and read the witness off
any shift whose overlap reaches k+1 points.  Whenever
|E|^2 >= (k+1)·q^d the overlap bound guarantees success.

The determinant variant replaces translations by unimodular matrices
and the norm relation by det(x-subset) = r·det(y-subset) over every
d-subset of indices.  Its scan counts, for each pair of points, the
unimodular maps sending one to the other, so it builds no group; the
q^(d^2) matrix budget still applies.  Both finders search on coordinate
tuples and build vectors only for the 3(k+1) witness points.

Every finder re-derives the claimed relations from raw coordinates with
an independent verifier, on integer tuples, before returning, and the
verifiers are public so serialized witnesses can be re-checked by third
parties.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, field as dc_field
from operator import mul
from typing import Optional

from .errors import (
    EnumerationCapExceeded,
    FieldMismatch,
    InsufficientIntersection,
    MalformedWitness,
    NotADthPower,
    NotASquare,
    NotOnSphere,
    OriginInSet,
    VerificationFailed,
    ZeroDilation,
)
from .field import FieldElement, PrimeField, make_field, as_field
from .geometry import _PRINTABLE, Matrix, PointSet, Vector, _check_budget, _det_cofactor, _power_exceeds
from .groups import GroupElement, SpecialLinear, orthogonal_group
from .intersection import (
    IntersectionReport,
    _max_special_linear_intersection,
    max_intersection,
    max_translation_intersection_fast,
)


class EdgeSet:
    """Index pairs (i, j), 1 <= i < j <= k+1, selecting which pair norms
    a similarity witness must relate.

    Presets: `all_pairs` (every pair — the simplex), `path` (a chain
    through all k+1 points), `star` (everything joined to point 1), and
    `cycle` (the chain closed up, k >= 2).
    """

    __slots__ = ("k", "pairs")

    def __init__(self, k: int, pairs):
        if k < 1:
            raise ValueError(f"edge sets need k >= 1, got {k}")
        canon = sorted({(int(i), int(j)) for i, j in pairs})
        if not canon:
            raise ValueError("edge set must be nonempty")
        for i, j in canon:
            if not (1 <= i < j <= k + 1):
                raise ValueError(f"edge ({i}, {j}) out of range for k = {k}")
        self.k = k
        self.pairs = tuple(canon)

    @classmethod
    def all_pairs(cls, k: int) -> "EdgeSet":
        return cls(k, itertools.combinations(range(1, k + 2), 2))

    @classmethod
    def path(cls, k: int) -> "EdgeSet":
        return cls(k, [(i, i + 1) for i in range(1, k + 1)])

    @classmethod
    def star(cls, k: int) -> "EdgeSet":
        return cls(k, [(1, j) for j in range(2, k + 2)])

    @classmethod
    def cycle(cls, k: int) -> "EdgeSet":
        if k < 2:
            raise ValueError("a cycle through k+1 points needs k >= 2")
        return cls(k, [(i, i + 1) for i in range(1, k + 1)] + [(1, k + 1)])

    def __iter__(self):
        return iter(self.pairs)

    def __eq__(self, other) -> bool:
        return isinstance(other, EdgeSet) and other.k == self.k and other.pairs == self.pairs

    def __hash__(self) -> int:
        return hash((self.k, self.pairs))

    def to_json(self) -> list[list[int]]:
        return [list(p) for p in self.pairs]

    def __repr__(self) -> str:
        return f"EdgeSet(k={self.k}, pairs={list(self.pairs)})"


_EDGE_PRESETS = {
    "simplex": EdgeSet.all_pairs,
    "all-pairs": EdgeSet.all_pairs,
    "cycle": EdgeSet.cycle,
    "path": EdgeSet.path,
    "star": EdgeSet.star,
}


def edge_preset(name: str, k: int) -> EdgeSet:
    try:
        maker = _EDGE_PRESETS[name]
    except KeyError:
        raise ValueError(
            f"unknown edge preset {name!r}; expected one of {sorted(_EDGE_PRESETS)}"
        )
    return maker(k)


def meets_threshold(product: int, k: int, base: int, e: int) -> bool:
    """The size guarantee |E||H| = product >= (k+1)·base^e, for base, e >= 0.

    The k checks of `_tuple_size` run first.  Since product >= (k+1)·X
    is X <= product // (k+1), no power past product is computed."""
    return not _power_exceeds(base, e, product // _tuple_size(k))


def similarity_threshold(q_or_field, dim: int, k: int) -> int:
    """The smallest n with n² >= (k+1)·q^d.  An n of more than 4,300
    digits, which no output could print, is refused before q^d is
    computed."""
    q = as_field(q_or_field).q
    if not meets_threshold(_PRINTABLE * _PRINTABLE, k, q, dim):
        raise EnumerationCapExceeded(
            f"threshold set size for q = {q}, d = {dim}, k = {k} has more than 4300 digits")
    return math.isqrt((k + 1) * q ** dim - 1) + 1


def _tuple_size(k: int) -> int:
    """k + 1, the points a similar copy must share; k < 0 is refused."""
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    if k == 0:
        warnings.warn("k = 0 is the degenerate single-point case")
    return k + 1


@dataclass(frozen=True)
class Verification:
    """Outcome of an independent witness re-check."""

    ok: bool
    reasons: tuple[str, ...] = ()

    def __bool__(self) -> bool:
        return self.ok


def _json_get(obj, key: str):
    try:
        return obj[key]
    except KeyError:
        raise MalformedWitness(f"witness JSON lacks key {key!r}") from None


def _json_int(obj: dict, key: str, low: int | None = None) -> int:
    """obj[key] as an int (>= low if given); bools are rejected."""
    value = _json_get(obj, key)
    if type(value) is not int or (low is not None and value < low):
        bound = "" if low is None else f" >= {low}"
        raise MalformedWitness(f"witness key {key!r} must be an integer{bound}, got {value!r}")
    return value


def _is_int_list(value, length: int) -> bool:
    return isinstance(value, list) and len(value) == length and all(type(c) is int for c in value)


def _json_rows(obj: dict, key: str, rows: int | None, width: int) -> list[list[int]]:
    """obj[key] as `rows` lists (any number if None) of `width` ints."""
    value = _json_get(obj, key)
    if not (isinstance(value, list) and (rows is None or len(value) == rows)
            and all(_is_int_list(row, width) for row in value)):
        shape = f"{'n' if rows is None else rows}x{width}"
        raise MalformedWitness(f"witness key {key!r} must be a {shape} list of integer lists")
    return value


def _json_witness_core(obj) -> tuple[PrimeField, int, int, dict]:
    """Schema checks shared by both witness kinds.

    Returns the field, d, k, and the ratio, xs/ys/zs and verified
    arguments of the witness, each tuple having been checked to be a
    (k+1)×d list of integer lists.
    """
    if not isinstance(obj, dict):
        raise MalformedWitness(f"witness JSON must be an object, got {type(obj).__name__}")
    field = make_field(_json_int(obj, "q", 2))
    d = _json_int(obj, "d", 1)
    k = _json_int(obj, "k", 1)
    core = {"ratio": field(_json_int(obj, "r")),
            "verified": bool(obj.get("verified", False))}
    for name in ("xs", "ys", "zs"):
        core[name] = tuple(Vector(field, c) for c in _json_rows(obj, name, k + 1, d))
    return field, d, k, core


def _json_witness(w, kind: str, d: int, **extra) -> dict:
    """The keys both witness kinds share, plus the kind's own `extra`;
    `_json_witness_core` reads them back."""
    return {
        "kind": kind,
        "q": w.ratio.field.q,
        "d": d,
        "k": w.k,
        "r": w.ratio.value,
        "xs": [list(v.coords) for v in w.xs],
        "ys": [list(v.coords) for v in w.ys],
        "zs": [list(v.coords) for v in w.zs],
        "verified": w.verified,
        **extra,
    }


@dataclass
class SimilarityWitness:
    """Explicit tuples realizing ‖y_i - y_j‖ = ratio·‖x_i - x_j‖ on an edge set.

    The construction data is carried along: z_i = root·x_i = y_i + shift,
    where root is a square root of the ratio.  `ratio`/`root`/`shift`
    serialize to JSON keys "r"/"sqrt_r"/"a".
    """

    ratio: FieldElement
    root: FieldElement
    shift: Vector
    xs: tuple[Vector, ...]
    ys: tuple[Vector, ...]
    zs: tuple[Vector, ...]
    edges: EdgeSet
    verified: bool = False
    report: Optional[IntersectionReport] = dc_field(default=None, repr=False, compare=False)

    @property
    def k(self) -> int:
        return self.edges.k

    def to_json(self) -> dict:
        return _json_witness(self, "similarity", self.shift.dim, sqrt_r=self.root.value,
                             a=list(self.shift.coords), edges=self.edges.to_json())

    @classmethod
    def from_json(cls, obj: dict) -> "SimilarityWitness":
        """Decode witness JSON; MalformedWitness if it breaks the schema."""
        field, d, k, core = _json_witness_core(obj)
        shift = _json_get(obj, "a")
        if not _is_int_list(shift, d):
            raise MalformedWitness(f"witness key 'a' must be a list of {d} integers")
        return cls(
            root=field(_json_int(obj, "sqrt_r")),
            shift=Vector(field, shift),
            edges=EdgeSet(k, _json_rows(obj, "edges", None, 2)),
            **core,
        )


@dataclass
class DetSimilarityWitness:
    """Explicit tuples with det(x-subset) = ratio·det(y-subset) on all d-subsets.

    Construction data: z_i = transform(x_i) = root·y_i, where root is a
    d-th root of the ratio and the transform has determinant 1.
    """

    ratio: FieldElement
    root: FieldElement
    transform: GroupElement
    xs: tuple[Vector, ...]
    ys: tuple[Vector, ...]
    zs: tuple[Vector, ...]
    verified: bool = False
    report: Optional[IntersectionReport] = dc_field(default=None, repr=False, compare=False)

    @property
    def k(self) -> int:
        return len(self.xs) - 1

    def to_json(self) -> dict:
        return _json_witness(self, "det-similarity", self.xs[0].dim, root=self.root.value,
                             g=[list(r[:-1]) for r in self.transform.rows])

    @classmethod
    def from_json(cls, obj: dict) -> "DetSimilarityWitness":
        """Decode witness JSON; MalformedWitness if it breaks the schema."""
        field, d, _, core = _json_witness_core(obj)
        return cls(
            root=field(_json_int(obj, "root")),
            transform=SpecialLinear.unchecked(Matrix(field, _json_rows(obj, "g", d, d))),
            **core,
        )


def _tuple_field_issues(w, names=("xs", "ys", "zs")) -> list[str]:
    """Structural problems that would make the arithmetic checks crash.

    Verifiers must never raise, so field and dimension agreement is
    established before any witness arithmetic runs.
    """
    reasons = []
    q = w.ratio.field.q
    if w.root.field.q != q:
        reasons.append(f"root lives in F_{w.root.field.q}, ratio in F_{q}")
    dims = set()
    for name in names:
        vs = getattr(w, name)
        if not vs:
            reasons.append(f"{name} is empty")
            continue
        for v in vs:
            if v.field.q != q:
                reasons.append(f"{name} contains a vector over F_{v.field.q}, expected F_{q}")
                break
            dims.add(v.dim)
    if len(dims) > 1:
        reasons.append(f"mixed dimensions {sorted(dims)}")
    return reasons


def verify_similarity(w: SimilarityWitness) -> Verification:
    """Re-derive every claim of a similarity witness from raw coordinates.

    Trusts nothing about how the witness was produced: the stored root
    is only used through the identity root^2 = ratio, and the norm
    relation is recomputed per edge.  Never raises; failures come back
    as a reason list.
    """
    reasons = _tuple_field_issues(w)
    if reasons:
        return Verification(False, tuple(reasons))
    k = w.edges.k
    n = k + 1
    if not (len(w.xs) == len(w.ys) == len(w.zs) == n):
        reasons.append(
            f"expected {n} points per tuple, got {len(w.xs)}/{len(w.ys)}/{len(w.zs)}"
        )
        return Verification(False, tuple(reasons))
    if w.shift.field.q != w.ratio.field.q or w.shift.dim != w.xs[0].dim:
        reasons.append("shift does not match the point tuples' field and dimension")
        return Verification(False, tuple(reasons))

    q, r, s, a = w.ratio.field.q, w.ratio.value, w.root.value, w.shift.coords
    xs, ys, zs = ([v.coords for v in vs] for vs in (w.xs, w.ys, w.zs))
    if s * s % q != r:
        reasons.append("stored root does not square to the ratio")
    for i, (x, y, z) in enumerate(zip(xs, ys, zs), start=1):
        if tuple([s * c % q for c in x]) != z:
            reasons.append(f"z[{i}] is not root*x[{i}]")
        if tuple([(c + b) % q for c, b in zip(y, a)]) != z:
            reasons.append(f"z[{i}] is not y[{i}] + shift")
    reasons += [f"distinctness: repeated {name} point"
                for name, vs in (("x", xs), ("y", ys)) if len(set(vs)) != n]
    for i, j in w.edges:
        lhs = sum((b - c) ** 2 for b, c in zip(ys[i - 1], ys[j - 1])) % q
        rhs = r * sum((b - c) ** 2 for b, c in zip(xs[i - 1], xs[j - 1])) % q
        if lhs != rhs:
            reasons.append(f"norm relation violated at edge ({i}, {j})")
    return Verification(not reasons, tuple(reasons))


def _find_by_overlap(points: PointSet, ratio: FieldElement, k: int, m: int,
                     not_power, root_of, scan, pull_back, build, verify):
    """The group-action argument behind both finders.

    For G acting transitively on X, some g has |H ∩ gE| >= |E||H|/|X|.
    With H = root·E, where root^m = ratio, each z in H ∩ gE gives two
    points of E: z/root and g⁻¹z.  `root_of(ratio)` takes the root,
    `scan(H)` maximizes the overlap over G, `pull_back(g)` maps a
    coordinate tuple z to g⁻¹z, `build(root, report, zs, shrunk,
    pulled)` arranges the first k+1 such z of H (canonical order), their
    z/root and their g⁻¹z into a witness, and `verify` re-checks it.
    A ratio that is no m-th power raises `not_power`.
    """
    if ratio.field.q != points.field.q:
        raise FieldMismatch("ratio and point set live in different fields")
    if ratio.is_zero():
        raise ZeroDilation("ratio 0 collapses every configuration to a point")
    if not ratio.is_mth_power(m):
        raise not_power(f"{ratio.value} is not an m-th power in F_{ratio.field.q} (m = {m})")
    root = root_of(ratio)

    scaled = points.scaled(root)
    report = scan(scaled)
    if report.best_count < k + 1:
        raise InsufficientIntersection(k + 1, report.best_count)

    pull = pull_back(report.best_g)
    held = points._index
    zs, pulled = [], []
    for z in scaled._coords:  # canonical order, so the extraction is deterministic
        x = pull(z)
        if x in held:
            zs.append(z)
            pulled.append(x)
            if len(zs) == k + 1:
                break
    field, inv_root = points.field, root.inverse().value
    witness = build(root, report, tuple(Vector(field, z) for z in zs),
                    tuple(Vector(field, [inv_root * c for c in z]) for z in zs),
                    tuple(Vector(field, x) for x in pulled))
    check = verify(witness)
    if not check:
        raise VerificationFailed(check.reasons)
    witness.verified = True
    return witness


def find_similar_config(points: PointSet, ratio: FieldElement, k: int,
                        edges: EdgeSet | None = None) -> SimilarityWitness:
    """Find (k+1)-tuples in `points` similar with the given square ratio.

    Scales the set by a square root of the ratio, maximizes the overlap
    with the translated original via the difference histogram, and
    extracts the k+1 lexicographically smallest overlap points z, with
    x = z/root and y = z - shift.  Works for any set size; when the
    overlap tops out below k+1 (possible for small sets) the failure
    carries the achieved count.
    """
    if k < 1:
        raise ValueError(f"similarity search needs k >= 1, got {k}")
    if edges is None:
        edges = EdgeSet.all_pairs(k)
    elif edges.k != k:
        raise ValueError(f"edge set is for k = {edges.k}, search is for k = {k}")
    q = points.field.q
    # sqrt, unlike mth_root(2), scans no field, so it serves any q
    return _find_by_overlap(
        points, ratio, k, 2, NotASquare, FieldElement.sqrt,
        scan=lambda scaled: max_translation_intersection_fast(points, scaled),
        pull_back=lambda g: lambda z, a=[r[-1] for r in g.rows]: tuple([(c - b) % q for c, b in zip(z, a)]),
        build=lambda root, report, zs, shrunk, pulled: SimilarityWitness(
            ratio=ratio, root=root, shift=report.best_g.vector,
            xs=shrunk, ys=pulled, zs=zs, edges=edges, report=report),
        verify=verify_similarity,
    )


def _subset_dets(points: list[tuple[int, ...]], d: int, q: int):
    """det mod q of every d-subset of the points, in combinations order.

    The points are the rows (det is transpose-invariant).  Each det is
    expanded by cofactors along its last row; the d cofactors of a
    (d-1)-point prefix are themselves cofactor expansions, computed once
    and shared by every subset that extends the prefix.
    """
    for prefix in itertools.combinations(range(len(points)), d - 1):
        rows = [points[i] for i in prefix]
        cofactors = [(-1) ** (d - 1 + k) * _det_cofactor([p[:k] + p[k + 1:] for p in rows], q)
                     for k in range(d)] if rows else [1]
        for j in range(prefix[-1] + 1 if prefix else 0, len(points)):
            yield sum(map(mul, cofactors, points[j])) % q


def verify_det_similarity(w: DetSimilarityWitness) -> Verification:
    """Re-derive every claim of a determinant-similarity witness.

    All determinants are recomputed by cofactor expansion on the raw
    coordinates, a separate code path from the elimination determinant
    and from the finder's transporter count.  The one exception to
    "never raises": a witness whose re-check would exceed
    ENUMERATION_CAP, counted as the n!/(n-d)! cofactor terms of its
    C(n, d) subset determinants, raises EnumerationCapExceeded before
    any determinant is computed.
    """
    reasons = _tuple_field_issues(w)
    if reasons:
        return Verification(False, tuple(reasons))
    n = len(w.xs)
    d = w.xs[0].dim
    if not (len(w.ys) == len(w.zs) == n):
        reasons.append(f"tuple lengths differ: {len(w.xs)}/{len(w.ys)}/{len(w.zs)}")
        return Verification(False, tuple(reasons))
    if n < d + 1:
        reasons.append(f"need at least d+1 = {d + 1} points, got {n}")
        return Verification(False, tuple(reasons))
    if not isinstance(w.transform, SpecialLinear):
        reasons.append("transform is not a unimodular matrix element")
        return Verification(False, tuple(reasons))
    rows = [r[:-1] for r in w.transform.rows]  # M of [M | a]
    if w.transform.field.q != w.ratio.field.q or len(rows) != d:
        reasons.append("transform does not match the point tuples' field and dimension")
        return Verification(False, tuple(reasons))
    _check_budget(math.perm(n, d), 1, "det-witness re-check (n!/(n-d)! cofactor terms)")

    q = w.ratio.field.q
    if w.root ** d != w.ratio:
        reasons.append(f"stored root to the {d}-th power is not the ratio")
    if w.root.is_zero():
        reasons.append("root is zero")
    if _det_cofactor(rows, q) != 1:
        reasons.append("transform determinant is not 1")
    r, s = w.ratio.value, w.root.value
    xs, ys, zs = ([v.coords for v in vs] for vs in (w.xs, w.ys, w.zs))
    for i, (x, y, z) in enumerate(zip(xs, ys, zs), start=1):
        if tuple([sum(map(mul, row, x)) % q for row in rows]) != z:
            reasons.append(f"z[{i}] is not transform(x[{i}])")
        if tuple([s * c % q for c in y]) != z:
            reasons.append(f"z[{i}] is not root*y[{i}]")
    reasons += [f"distinctness: repeated {name} point"
                for name, vs in (("x", xs), ("y", ys)) if len(set(vs)) != n]

    dets = [_subset_dets(vs, d, q) for vs in (xs, ys, zs)]
    for combo, dx, dy, dz in zip(itertools.combinations(range(n), d), *dets):
        label = tuple(i + 1 for i in combo)
        if dx != r * dy % q:
            reasons.append(f"determinant relation violated at indices {label}")
        if dz != dx:
            reasons.append(f"unimodular step violated at indices {label}")
        if dz != r * dy % q:
            reasons.append(f"homogeneity step violated at indices {label}")
    return Verification(not reasons, tuple(reasons))


def find_det_similar(points: PointSet, ratio: FieldElement, k: int) -> DetSimilarityWitness:
    """Find (k+1)-tuples whose d-subset determinants differ by the ratio.

    Requires k >= d (otherwise no d-subset exists beyond a single one),
    the origin excluded from the set (the unimodular action is only
    transitive away from it), and the ratio a nonzero d-th power.  The
    scan counts the maps g with gx = y per pair and builds no group.  The
    overlap points z give x = g⁻¹z and y = z/root.
    """
    d = points.dim
    if k < d:
        raise ValueError(f"determinant similarity needs k >= d = {d}, got k = {k}")
    if (0,) * d in points._index:
        raise OriginInSet("the set must avoid the origin for the unimodular action")
    q = points.field.q
    # The scan checks the matrix budget, so a bad ratio is refused before
    # an oversized q is.
    return _find_by_overlap(
        points, ratio, k, d, NotADthPower, lambda r: r.mth_root(d),
        scan=lambda scaled: _max_special_linear_intersection(points, scaled),
        pull_back=lambda g: lambda z, rows=g.inverse().rows: tuple(  # rows of [M⁻¹ | 0]
            [sum(map(mul, r, z)) % q for r in rows]),
        build=lambda root, report, zs, shrunk, pulled: DetSimilarityWitness(
            ratio=ratio, root=root, transform=report.best_g,
            xs=pulled, ys=shrunk, zs=zs, report=report),
        verify=verify_det_similarity,
    )


@dataclass
class SphereExperimentReport:
    """Orthogonal-action intersection run on a sphere, with both size
    thresholds reported: the exact one using the true sphere size and
    the coarser q^(d-1) approximation."""

    report: IntersectionReport
    k: int
    sphere_size: int
    coarse_space_size: int  # q^(d-1)
    transitive: bool

    @property
    def meets_exact_threshold(self) -> bool:
        return meets_threshold(self.report.moving_size * self.report.fixed_size,
                               self.k, self.sphere_size, 1)

    @property
    def meets_coarse_threshold(self) -> bool:
        return meets_threshold(self.report.moving_size * self.report.fixed_size,
                               self.k, self.coarse_space_size, 1)

    @property
    def reaches_target(self) -> bool:
        return self.report.best_count >= self.k + 1

    @property
    def guarantee_holds(self) -> bool:
        """The guarantee max >= k+1 applies only on a nonempty sphere, when
        the action is transitive and the exact threshold is met; it must
        then hold.  On an empty sphere the bound |E||H|/|X| is vacuous."""
        if self.sphere_size and self.transitive and self.meets_exact_threshold:
            return self.reaches_target
        return True

    def to_json(self) -> dict:
        out = self.report.to_json()
        out.update(
            k=self.k,
            sphere_size=self.sphere_size,
            coarse_space_size=self.coarse_space_size,
            meets_exact_threshold=self.meets_exact_threshold,
            meets_coarse_threshold=self.meets_coarse_threshold,
            reaches_target=self.reaches_target,
            guarantee_holds=self.guarantee_holds,
        )
        return out


def sphere_experiment(q_or_field, dim: int, radius: int, k: int,
                      e_set: PointSet | None = None,
                      h_set: PointSet | None = None) -> SphereExperimentReport:
    """Run the orthogonal-group intersection bound on a sphere.

    Defaults both sets to the full sphere, which is the group's space.
    Given sets are checked point by point against the sphere equation
    before the group is enumerated.  Transitivity of the action
    on this particular sphere is checked and reported, never assumed
    (it fails, for instance, on spheres through the origin).  The k
    checks run before any point is checked or the group is built.
    """
    field = as_field(q_or_field)
    _tuple_size(k)
    radius %= field.q
    for name, ps in (("moving", e_set), ("fixed", h_set)):
        for p in ps or ():
            if p.field.q != field.q or p.dim != dim or p.norm().value != radius:
                raise NotOnSphere(f"{name} set point {p!r} is not on the radius-{radius} sphere")
    group = orthogonal_group(field, dim, radius=radius)
    surface = group.space
    report = max_intersection(group, surface if e_set is None else e_set,
                              surface if h_set is None else h_set)
    return SphereExperimentReport(
        report=report,
        k=k,
        sphere_size=len(surface),
        coarse_space_size=field.q ** (dim - 1),
        transitive=report.transitive,
    )
