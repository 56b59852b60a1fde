"""Constructive search for r-similar and determinant-similar point tuples.

Given a set E in F_q^d and a nonzero square ratio r, a similarity
witness is a pair of (k+1)-tuples (x_i), (y_i) drawn from E whose
pairwise norms satisfy ‖y_i - y_j‖ = r·‖x_i - x_j‖ on a prescribed
edge set.  The finder realizes the counting argument directly: scale E
by a square root of r, translate E over it, and read the witness off
any shift whose overlap reaches k+1 points; the scaled set is never
built, only its codes.  Whenever |E|^2 >= (k+1)·q^d the overlap bound
guarantees success.

The determinant variant replaces translations by unimodular matrices
and the norm relation by det(x-subset) = r·det(y-subset) over every
d-subset of indices.  Its scan counts, for each pair of points, the
unimodular maps sending one to the other, so it builds no group; the
q^(d^2) matrix budget still applies.  Each overlap point z is paired
with the x that g sends to it without inverting g, by coding g·x for
every x in E.
Both finders search on flat indices below the byte bound, q^d <= 256,
and on coordinate tuples past it, and hand their witness the canonical
coordinate tuples they have (`_Witness._of`): its points, and a
similarity witness's shift, become vectors only when they are read, so
a sweep cell builds none; its verifier and its JSON read the tuples.

Each finder takes its root once per (q, r, m) (`_root`).  Every finder
re-derives the claimed relations from raw coordinates with an
independent verifier before returning, and the verifiers are public so
serialized witnesses can be re-checked by third parties.  A verifier
reads each tuple's coordinate tuples once and checks each relation a
whole list at a time on plain ints: root·x, y + shift, g·x and root·y as
one list over every coordinate of every point, and the subset
determinants as three lists while there are at most 2^16 of them,
streamed past it.  A reason per index, edge or subset is read only off
a list that differs from its claim.  Subset determinants of 2 rows are
written out, larger ones expanded by Laplace along the last row.
"""

from __future__ import annotations

import functools
import itertools
import math
import warnings
from dataclasses import dataclass, field as dc_field
from operator import mul, sub
from typing import Optional

from .errors import (
    EnumerationCapExceeded,
    FieldMismatch,
    InsufficientIntersection,
    MalformedWitness,
    NoRoot,
    NotADthPower,
    NotASquare,
    OriginInSet,
    VerificationFailed,
    ZeroDilation,
)
from .field import FieldElement, PrimeField, make_field, as_field
from .geometry import _PRINTABLE_SQUARE, Matrix, PointSet, Vector, _check_budget, _power_exceeds
from .groups import GroupElement, SpecialLinear
from .intersection import IntersectionReport, _coset_overlap, _shift_overlap


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
    def _preset(cls, k: int, count: int, pairs) -> "EdgeSet":
        """The `count` pairs that `pairs` yields lazily; past a k < 1, a count
        past ENUMERATION_CAP is refused before any pair is built."""
        if k >= 1:
            _check_budget(count, 1, "edge set (pairs)")
        return cls(k, pairs)

    @classmethod
    def all_pairs(cls, k: int) -> "EdgeSet":
        """Every pair, one object per k (the finders' default): the k and
        budget checks run on every call, the build once per k."""
        if k >= 1:
            _check_budget(k * (k + 1) // 2, 1, "edge set (pairs)")
        return _simplex(k)

    @classmethod
    def path(cls, k: int) -> "EdgeSet":
        return cls._preset(k, k, ((i, i + 1) for i in range(1, k + 1)))

    @classmethod
    def star(cls, k: int) -> "EdgeSet":
        return cls._preset(k, k, ((1, j) for j in range(2, k + 2)))

    @classmethod
    def cycle(cls, k: int) -> "EdgeSet":
        if k < 2:
            raise ValueError("a cycle through k+1 points needs k >= 2")
        path = ((i, i + 1) for i in range(1, k + 1))
        return cls._preset(k, k + 1, itertools.chain(path, [(1, k + 1)]))

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


@functools.lru_cache(maxsize=8)
def _simplex(k: int) -> EdgeSet:
    return EdgeSet(k, itertools.combinations(range(1, k + 2), 2))


_EDGE_PRESETS = {
    "simplex": EdgeSet.all_pairs,
    "all-pairs": EdgeSet.all_pairs,
    "cycle": EdgeSet.cycle,
    "path": EdgeSet.path,
    "star": EdgeSet.star,
}


def edge_preset(name: str, k: int) -> EdgeSet:
    if name not in _EDGE_PRESETS:
        raise ValueError(f"unknown edge preset {name!r}; expected one of {sorted(_EDGE_PRESETS)}")
    return _EDGE_PRESETS[name](k)


def meets_threshold(product: int, k: int, base: int, e: int) -> bool:
    """The size guarantee |E||H| = product >= (k+1)·base^e, for base, e >= 0.

    The k checks of `_tuple_size` run first.  Since product >= (k+1)·X
    is X <= product // (k+1), no power past product is computed."""
    return not _power_exceeds(base, e, product // _tuple_size(k))


def similarity_threshold(q_or_field, dim: int, k: int) -> int:
    """The smallest n with n² >= (k+1)·q^d.  An n of more than 4,300
    digits, which no output could print, is refused before q^d is
    computed.  (k+1)·q^d < 2^(d·bits(q) + bits(k+1)), so while that
    exponent is below the bit length of the square of the largest such
    n, n prints, and no 28,569-bit division is made."""
    q, size = as_field(q_or_field).q, _tuple_size(k)
    if (dim * q.bit_length() + size.bit_length() >= _PRINTABLE_SQUARE.bit_length()
            and _power_exceeds(q, dim, _PRINTABLE_SQUARE // size)):
        raise EnumerationCapExceeded(
            f"threshold set size for q = {q}, d = {dim}, k = {k} has more than 4300 digits")
    return math.isqrt(size * q ** dim - 1) + 1


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


_VERIFIED = Verification(True)


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


def _json_witness(w, kind: str, kept, d: int, k: int, **extra) -> dict:
    """The keys both witness kinds share, `kept` being the witness's kept
    fields as coordinate tuples (`_Witness._kept`), plus the kind's own
    `extra`; `_json_witness_core` reads them back."""
    return {
        "kind": kind,
        "q": w.ratio.field.q,
        "d": d,
        "k": k,
        "r": w.ratio.value,
        "xs": [list(c) for c in kept[0]],
        "ys": [list(c) for c in kept[1]],
        "zs": [list(c) for c in kept[2]],
        "verified": w.verified,
        **extra,
    }


class _Kept:
    """A kept field of a witness that holds coordinate tuples (`_Witness`):
    its vectors are built on the first read and kept in the instance, and a
    value set there is read as it is, as with `functools.cached_property`."""

    def __set_name__(self, owner, name: str):
        self.name = name

    def __get__(self, w, owner=None):
        if w is None or w._tuples is None or self.name not in w._names:
            raise AttributeError(self.name)  # on the class too, so that the dataclass field has no default
        of, coords = functools.partial(Vector._of, w._field), w._tuples[w._names.index(self.name)]
        return w.__dict__.setdefault(self.name, of(coords) if self.name == "shift" else tuple(map(of, coords)))


class _Witness:
    """What both witness kinds share.  A finder's witness (`_of`) holds its
    points, and a similarity witness its shift, as the coordinate tuples
    the scan gave, over one field by construction, and builds a field's
    vectors only where it is read (`_Kept`), as a PointSet builds its
    points.  A witness built from vectors, by the constructor, `from_json`
    or `dataclasses.replace`, holds no tuples."""

    _field = _tuples = None
    _names = ("xs", "ys", "zs")  # the kept fields, in the order of `_tuples`
    xs, ys, zs, shift = _Kept(), _Kept(), _Kept(), _Kept()

    @classmethod
    def _of(cls, field: PrimeField, tuples: tuple, **fields):
        """The witness of `fields` whose kept fields are `tuples`, canonical
        coordinate tuples over `field`, unchecked."""
        w = object.__new__(cls)
        w.__dict__.update(fields, verified=False, _field=field, _tuples=tuples)
        return w

    def _kept(self):
        """The kept fields as coordinate tuples: the held ones, with no
        vector built, while none of them was read or set."""
        if self._tuples is not None and self.__dict__.keys().isdisjoint(self._names):
            return self._tuples
        return [getattr(self, n).coords if n == "shift" else [v.coords for v in getattr(self, n)] for n in self._names]


@dataclass
class SimilarityWitness(_Witness):
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
    _names = ("xs", "ys", "zs", "shift")

    @property
    def k(self) -> int:
        return self.edges.k

    def to_json(self) -> dict:
        return _json_witness(self, "similarity", kept := self._kept(), len(kept[3]), self.edges.k,
                             sqrt_r=self.root.value, a=list(kept[3]), edges=self.edges.to_json())

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
class DetSimilarityWitness(_Witness):
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
        return len(self._kept()[0]) - 1

    def to_json(self) -> dict:
        return _json_witness(self, "det-similarity", kept := self._kept(), len(kept[0][0]), len(kept[0]) - 1,
                             root=self.root.value, g=[list(r) for r in self.transform.linear])

    @classmethod
    def from_json(cls, obj: dict) -> "DetSimilarityWitness":
        """Decode witness JSON; MalformedWitness if it breaks the schema."""
        field, d, _, core = _json_witness_core(obj)
        return cls(
            root=field(_json_int(obj, "root")),
            transform=SpecialLinear.unchecked(Matrix(field, _json_rows(obj, "g", d, d))),
            **core,
        )


def _tuple_field_issues(w) -> tuple[list[str], list[list[tuple]]]:
    """Structural problems that would make the arithmetic checks crash,
    and the list of each tuple's coordinate tuples.

    Verifiers must never raise, so field and dimension agreement is
    established before any witness arithmetic runs.  A finder's witness
    whose kept fields were neither read nor set holds coordinate tuples
    of one field and one dimension by construction: over the ratio's
    field they are handed back as they are, the shift's after the
    points', and no vector is built or read.
    """
    q = w.ratio.field.q
    reasons = [] if w.root.field.q == q else [f"root lives in F_{w.root.field.q}, ratio in F_{q}"]
    if (held := w._tuples) is not None and w._field.q == q and w.__dict__.keys().isdisjoint(w._names):
        return reasons, held
    tuples, dims = [], set()
    for name in ("xs", "ys", "zs"):
        vs = getattr(w, name)
        tuples.append([v.coords for v in vs])
        if not vs:
            reasons.append(f"{name} is empty")
        for v in vs:
            if v.field.q != q:
                reasons.append(f"{name} contains a vector over F_{v.field.q}, expected F_{q}")
                break
            dims.add(len(v.coords))
    if len(dims) > 1:
        reasons.append(f"mixed dimensions {sorted(dims)}")
    return reasons, tuples


def _step_reasons(reasons: list[str], found: list[list[int]], claims, zs: list[tuple]) -> None:
    """Each of the two lists in `found` is the coordinates of every
    point's claimed image in turn, and point i's image should be z_i.
    If either list differs from the z's coordinates as a whole, append,
    point by point, `claims[j]` at i for each list j whose image at i is
    not z_i."""
    flat = list(itertools.chain.from_iterable(zs))
    if found[0] != flat or found[1] != flat:
        points = [zip(*[iter(f)] * len(zs[0])) for f in found]
        for i, (*at, z) in enumerate(zip(*points, zs), start=1):
            reasons += [claim.format(i=i) for claim, v in zip(claims, at) if v != z]


def verify_similarity(w: SimilarityWitness) -> Verification:
    """Re-derive every claim of a similarity witness from raw coordinates.

    Trusts nothing about how the witness was produced: the stored root
    is only used through the identity root^2 = ratio, and the norm
    relation is recomputed per edge, its two norms summed over `map`.
    On plain ints, root·x and y + shift are each one list over every
    coordinate of every point, compared with the z's as a whole; the
    reasons per index are read only off a list that differs.  Never
    raises; failures come back as a reason list.
    """
    reasons, (xs, ys, zs, *held) = _tuple_field_issues(w)
    if reasons:
        return Verification(False, tuple(reasons))
    n = w.edges.k + 1
    if not (len(xs) == len(ys) == len(zs) == n):
        return Verification(False, (f"expected {n} points per tuple, got {len(xs)}/{len(ys)}/{len(zs)}",))
    a = held[0] if held else w.shift.coords
    if not held and (w.shift.field.q != w.ratio.field.q or len(a) != len(xs[0])):
        return Verification(False, ("shift does not match the point tuples' field and dimension",))

    q, r, s = w.ratio.field.q, w.ratio.value, w.root.value
    if s * s % q != r:
        reasons.append("stored root does not square to the ratio")
    _step_reasons(reasons, [[s * c % q for x in xs for c in x], [(c + b) % q for y in ys for c, b in zip(y, a)]],
                  ("z[{i}] is not root*x[{i}]", "z[{i}] is not y[{i}] + shift"), zs)
    reasons += [f"distinctness: repeated {name} point"
                for name, vs in (("x", xs), ("y", ys)) if len(set(vs)) != n]
    for i, j in w.edges.pairs:
        u, v = list(map(sub, ys[i - 1], ys[j - 1])), list(map(sub, xs[i - 1], xs[j - 1]))
        if sum(map(mul, u, u)) % q != r * sum(map(mul, v, v)) % q:
            reasons.append(f"norm relation violated at edge ({i}, {j})")
    return Verification(False, tuple(reasons)) if reasons else _VERIFIED


@functools.lru_cache(maxsize=64)
def _root(take, field: PrimeField, r: int, *m: int) -> FieldElement | None:
    """take(field(r), *m): a finder's root of the nonzero ratio r, or None
    when r has none (NoRoot from `mth_root`), kept per (take, q, r, m),
    since a sweep asks for the same few roots cell after cell."""
    try:
        return take(field(r), *m)
    except NoRoot:
        return None


def _find_by_overlap(points: PointSet, ratio: FieldElement, k: int, m: int,
                     not_power, root_of, scan, build, verify):
    """The group-action argument behind both finders.

    For G acting transitively on X, some g has |H ∩ gE| >= |E||H|/|X|.
    With H = root·E, where root^m = ratio, each z in H ∩ gE gives two
    points of E: z/root and the x with gx = z.  `root_of(ratio)` takes
    the root, kept per (q, r, m) (`_root`), or gives None for a ratio
    that is no m-th power, which raises `not_power`.  `scan(points, s,
    points)`, s the root's value, maximizes the overlap of E with H = s·E
    over G and returns its report with a call that
    hands back H ∩ gE for the reported g, as (z, x) pairs of coordinate
    tuples with gx = z, in canonical z order; the call is made only when
    the overlap reaches k+1, and only the pairs read are decoded.
    Neither scan (`_shift_overlap`, `_coset_overlap`) builds H: it codes
    root·x for every x in E, and g·x too, or reads g·x off its rows at
    the position of g that its report builder hands back with the report.
    `build(root, report, zs, shrunk, sources)` arranges the first k+1
    pairs' z, z/root and x into a witness, and `verify` re-checks it.
    All three are canonical coordinate tuples, z/root read as one list
    over every coordinate, so the witness keeps them as they are, unchecked
    (`_Witness._of`), and builds no vector; the verifier reads the tuples
    and still re-checks every relation.
    """
    if ratio.field.q != points.field.q:
        raise FieldMismatch("ratio and point set live in different fields")
    if ratio.is_zero():
        raise ZeroDilation("ratio 0 collapses every configuration to a point")
    root = root_of(ratio)
    if root is None:
        raise not_power(f"{ratio.value} is not an m-th power in F_{ratio.field.q} (m = {m})")

    report, overlap = scan(points, root.value, points)
    if report.best_count < k + 1:
        raise InsufficientIntersection(k + 1, report.best_count)

    zs, sources = zip(*itertools.islice(overlap(), k + 1))
    d, q = points.dim, points.field.q
    inv_root = pow(root.value, q - 2, q)
    witness = build(root, report, zs, tuple(zip(*[iter([inv_root * c % q for z in zs for c in z])] * d)), sources)
    check = verify(witness)
    if not check:
        raise VerificationFailed(check.reasons)
    witness.verified = True
    return witness


def find_similar_config(points: PointSet, ratio: FieldElement, k: int,
                        edges: EdgeSet | None = None) -> SimilarityWitness:
    """Find (k+1)-tuples in `points` similar with the given square ratio.

    Takes H = root·E for a square root of the ratio, maximizes |H ∩ (E
    + a)| over the shifts a, and extracts the k+1 lexicographically
    smallest overlap points z, with x = z/root and y = z - a, by one scan
    (`_shift_overlap`) that builds no point set: for q^d <= 255 it sums
    byte rows of the shift table, past it bit planes or difference codes
    count.  Works for any set size; when the overlap
    tops out below k+1 (possible for small sets) the failure carries the
    achieved count.
    """
    if k < 1:
        raise ValueError(f"similarity search needs k >= 1, got {k}")
    if edges is None:
        edges = EdgeSet.all_pairs(k)
    elif edges.k != k:
        raise ValueError(f"edge set is for k = {edges.k}, search is for k = {k}")
    # sqrt, unlike mth_root(2), scans no field, so it serves any q, and
    # answers None for a nonsquare
    return _find_by_overlap(
        points, ratio, k, 2, NotASquare, lambda r: _root(FieldElement.sqrt, r.field, r.value), _shift_overlap,
        build=lambda root, report, zs, shrunk, sources: SimilarityWitness._of(
            points.field, (shrunk, sources, zs, report.best_g.shift),
            ratio=ratio, root=root, edges=edges, report=report),
        verify=verify_similarity,
    )


def _subset_dets(points, d: int, q: int):
    """det mod q of every d-subset of the points, in combinations order.

    The points are the rows (det is transpose-invariant).  Determinants
    of 1 and 2 rows are written out and streamed, so a planar witness
    past 2^16 subsets is re-checked in O(n) memory.  A larger one is expanded
    along its last row: its cofactors are the (d-1)-subset determinants
    of the points with one column deleted, listed once per column by
    this same function and shared by every subset that extends the
    prefix.
    """
    if d == 1:
        return (p[0] % q for p in points)
    if d == 2:
        return ((a * e - b * c) % q for (a, b), (c, e) in itertools.combinations(points, 2))
    columns = [list(_subset_dets([p[:k] + p[k + 1:] for p in points], d - 1, q)) for k in range(d)]
    for k in range(d % 2, d, 2):  # the cofactor sign (-1)^(d-1+k) is -1
        columns[k] = [-c for c in columns[k]]
    n = len(points)
    return (sum(map(mul, cofactors, points[j])) % q
            for prefix, *cofactors in zip(itertools.combinations(range(n), d - 1), *columns)
            for j in range(prefix[-1] + 1, n))


def verify_det_similarity(w: DetSimilarityWitness) -> Verification:
    """Re-derive every claim of a determinant-similarity witness.

    All determinants, det g among them (the one d-subset of its rows),
    are recomputed from the raw coordinates by `_subset_dets`: written
    out for d <= 2, by Laplace expansion past it.  That is a separate
    code path from the elimination determinant and from the finder's
    transporter count.  g·x and root·y are each one list over every
    coordinate of every point, compared with the z's as a whole, and
    while there are at most 2^16 subsets the three lists of their
    determinants are compared whole; past it they are streamed.  A
    reason per index or subset is read only off a list that differs.
    The one exception to "never raises": a witness
    whose re-check would exceed ENUMERATION_CAP, counted as the
    n!/(n-d)! cofactor terms of its C(n, d) subset determinants, raises
    EnumerationCapExceeded before any determinant is computed.
    """
    reasons, (xs, ys, zs) = _tuple_field_issues(w)
    if reasons:
        return Verification(False, tuple(reasons))
    n, d = len(xs), len(xs[0])
    if not (len(ys) == len(zs) == n):
        return Verification(False, (f"tuple lengths differ: {len(xs)}/{len(ys)}/{len(zs)}",))
    if n < d + 1:
        return Verification(False, (f"need at least d+1 = {d + 1} points, got {n}",))
    if not isinstance(w.transform, SpecialLinear):
        return Verification(False, ("transform is not a unimodular matrix element",))
    rows = w.transform.linear
    if w.transform.field.q != w.ratio.field.q or len(rows) != d:
        return Verification(False, ("transform does not match the point tuples' field and dimension",))
    _check_budget(math.perm(n, d), 1, "det-witness re-check (n!/(n-d)! cofactor terms)")

    q, r, s = w.ratio.field.q, w.ratio.value, w.root.value
    if pow(s, d, q) != r:
        reasons.append(f"stored root to the {d}-th power is not the ratio")
    if not s:
        reasons.append("root is zero")
    if next(_subset_dets(rows, d, q)) != 1:
        reasons.append("transform determinant is not 1")
    _step_reasons(reasons, [[sum(map(mul, row, x)) % q for x in xs for row in rows], [s * c % q for y in ys for c in y]],
                  ("z[{i}] is not transform(x[{i}])", "z[{i}] is not root*y[{i}]"), zs)
    reasons += [f"distinctness: repeated {name} point"
                for name, vs in (("x", xs), ("y", ys)) if len(set(vs)) != n]

    dets = [_subset_dets(vs, d, q) for vs in (xs, ys, zs)]
    if math.comb(n, d) <= 1 << 16:  # three lists of at most 2^16 determinants, compared whole
        dx, dy, dz = dets = [list(ds) for ds in dets]
        if dx == dz == [r * v % q for v in dy]:
            dets = [()] * 3
    for combo, dx, dy, dz in zip(itertools.combinations(range(n), d), *dets):
        ry = r * dy % q
        if dx == ry == dz:
            continue
        label = tuple([i + 1 for i in combo])
        if dx != ry:
            reasons.append(f"determinant relation violated at indices {label}")
        if dz != dx:
            reasons.append(f"unimodular step violated at indices {label}")
        if dz != ry:
            reasons.append(f"homogeneity step violated at indices {label}")
    return Verification(False, tuple(reasons)) if reasons else _VERIFIED


def find_det_similar(points: PointSet, ratio: FieldElement, k: int) -> DetSimilarityWitness:
    """Find (k+1)-tuples whose d-subset determinants differ by the ratio.

    Requires k >= d (otherwise no d-subset exists beyond a single one),
    the origin excluded from the set (the unimodular action is only
    transitive away from it), and the ratio a nonzero d-th power.  The
    scan (`_coset_overlap`) counts the maps g with gx = y per pair and
    builds no group and no point set: the cosets of the stabiliser while
    q^d <= 256, the transporters past it and for d = 1.  The overlap
    points z give y = z/root and the x with gx = z, from g·x for every x
    in E.  g is never inverted.
    """
    d = points.dim
    if k < d:
        raise ValueError(f"determinant similarity needs k >= d = {d}, got k = {k}")
    if points._holds_origin():
        raise OriginInSet("the set must avoid the origin for the unimodular action")
    # The scan checks the matrix budget, so a bad ratio is refused before
    # an oversized q is.
    return _find_by_overlap(
        points, ratio, k, d, NotADthPower, lambda r: _root(FieldElement.mth_root, r.field, r.value, d),
        _coset_overlap,
        build=lambda root, report, zs, shrunk, sources: DetSimilarityWitness._of(
            points.field, (sources, shrunk, zs), ratio=ratio, root=root, transform=report.best_g, report=report),
        verify=verify_det_similarity,
    )

