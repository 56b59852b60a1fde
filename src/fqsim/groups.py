"""Explicit finite groups acting on explicit finite spaces.

Three families are enumerated element by element: translations of
F_q^d, orthogonal matrices (preserving the sum-of-squares form), and
unimodular matrices (determinant 1).  Every element is an affine map
x -> Mx + a held as its linear part M and its shift a (translations
share one identity M per dimension, linear maps have a = 0); the kinds
differ only in their constructors and documents.  Element lists are
kept in a total canonical order — variant first, then lexicographic on
(M, a) — so that every argmax and every listing is reproducible.  A
group's one image table, `FiniteGroup.columns()`, holds per point the
index of its image under every element, built from M and a in C.

The matrix groups are built in time proportional to the group, not to
the q^(d^2) candidate matrices: the determinant and the orthogonal
complement are linear in the last row or column, so d - 1 rows or
columns are enumerated and the last one is solved for.  The q^(d^2)
budget still applies to both, so a group is refused exactly where a
full matrix scan would have been.

The unimodular group acts on the punctured space F_q^d minus the
origin: linear maps fix the origin, so the action on the full space is
never transitive, while on the punctured space it is (for d >= 2).
Orthogonal groups act on the full space or on a sphere; whether a
sphere action is transitive is checked per instance, never assumed.

What is known of each kind before its group is built is one `_Action`
record in `_ACTIONS`: its space, its refusals in their order, its build
budget, |G| and |X| and transitivity as closed forms where they are
written, its builder and the finders' scan of its kind.  The builders,
the command line, the SL scan and the det sweep's draw all read it.
"""

from __future__ import annotations

import functools
import itertools
import sys
from array import array
from collections import namedtuple
from itertools import repeat
from operator import add, attrgetter, itemgetter, mod, mul
from typing import Iterable

from .errors import DimensionMismatch, FieldMismatch, NotInSpace
from .field import PrimeField, as_field
from .geometry import (
    Matrix,
    PointSet,
    Vector,
    _check_budget,
    _check_dim,
    _det_rows,
    _inverse_rows,
    _power_exceeds,
    sphere,
)


# The q^d budget of listing each kind of space but spheres, by its name.
_SPACE_BUDGET = {"full": "full space (q^d)", "punctured": "punctured space (q^d)"}


def _check_space(q: int, dim: int, kind: str) -> None:
    """Refuse listing the full or punctured F_q^d as listing it refuses,
    listing nothing: the dimension, then the q^d budget."""
    _check_dim(dim)
    _check_budget(q, dim, _SPACE_BUDGET[kind])


class Space(PointSet):
    """A point set of a kind on which a group acts: all of F_q^d, the
    punctured space (origin removed), or a sphere of some radius."""

    __slots__ = ("kind", "radius", "_flat_start")

    def __init__(self, field: PrimeField, dim: int, kind: str,
                 points: Iterable[Vector], radius: int | None = None):
        super().__init__(field, dim, points)
        self.kind = kind
        self.radius = radius
        self._flat_start = self._whole_start()

    @classmethod
    def _of(cls, field: PrimeField, dim: int, kind: str, coords: Iterable[tuple],
            radius: int | None = None) -> "Space":
        """The space of these canonical, sorted coordinate tuples."""
        self = cls._canonical(field, dim, coords)
        self.kind, self.radius = kind, radius
        self._flat_start = self._whole_start()
        return self

    @classmethod
    def full(cls, q_or_field, dim: int) -> "Space":
        return cls._listed(as_field(q_or_field), dim, "full")

    @classmethod
    def punctured(cls, q_or_field, dim: int) -> "Space":
        return cls._listed(as_field(q_or_field), dim, "punctured")

    @classmethod
    def _listed(cls, field: PrimeField, dim: int, kind: str) -> "Space":
        _check_space(field.q, dim, kind)
        everything = itertools.product(range(field.q), repeat=dim)  # the origin first
        return cls._of(field, dim, kind, itertools.islice(everything, kind == "punctured", None))

    @classmethod
    def sphere(cls, q_or_field, dim: int, radius: int) -> "Space":
        field = as_field(q_or_field)
        radius = radius % field.q
        return cls._of(field, dim, "sphere", sphere(field, dim, radius)._coords, radius=radius)

    @property
    def size(self) -> int:
        return len(self)

    def _whole_start(self) -> int | None:
        """1 for all of F_q^d but the origin, 0 for all of it, q^d <= 256, so
        that point i is flat index i + 1 or i; None for a sphere, a larger
        space or one built from other points than its kind's whole set.
        Kept as `_flat_start` when the space is built."""
        q, d, first = self.field.q, self.dim, self.kind == "punctured"
        whole = self.kind in _SPACE_BUDGET and not _power_exceeds(q, d, 256) and len(self) + first == q ** d
        return int(first) if whole and self._holds_origin() is not first else None

    def describe(self) -> dict:
        out = {"kind": self.kind, "q": self.field.q, "d": self.dim, "size": self.size}
        if self.radius is not None:
            out["radius"] = self.radius
        return out

    def __repr__(self) -> str:
        r = f", radius={self.radius}" if self.radius is not None else ""
        return f"Space({self.kind}, q={self.field.q}, d={self.dim}{r}, size={self.size})"


class GroupElement:
    """An affine map x -> Mx + a of F_q^d, held as its `linear` part, the d
    integer rows of M, and its `shift`, the d-tuple a, entries in [0, q).
    A translation has M = I, one table per dimension, a linear map a = 0;
    apply, compose, inverse and the canonical order are written once, on
    the pair, and the kind is the class."""

    __slots__ = ("field", "linear", "shift")

    @classmethod
    def _of(cls, field: PrimeField, linear: tuple, shift: tuple) -> "GroupElement":
        """An element of this kind with these canonical parts, unchecked."""
        g = object.__new__(cls)
        g.field, g.linear, g.shift = field, linear, shift
        return g

    @classmethod
    def unchecked(cls, matrix: Matrix) -> "GroupElement":
        """The linear map of `matrix`, built without the membership check.

        For products, inverses and enumerated matrices, which are members
        by construction, and for witness data, which the verifiers re-check.
        """
        return cls._of(matrix.field, matrix.rows, (0,) * matrix.n)

    @property
    def matrix(self) -> Matrix:
        return Matrix(self.field, self.linear)

    @property
    def vector(self) -> Vector:
        return Vector._of(self.field, self.shift)

    def _check_peer(self, q: int, d: int, what: str) -> None:
        if q != self.field.q:
            raise FieldMismatch(f"{what} over F_{q}, map over F_{self.field.q}")
        if d != len(self.shift):
            raise DimensionMismatch(f"{what} of dimension {d}, map of dimension {len(self.shift)}")

    def apply(self, v: Vector) -> Vector:
        if not isinstance(v, Vector):
            raise TypeError(f"expected Vector, got {type(v).__name__}")
        self._check_peer(v.field.q, len(v.coords), "vector")
        return Vector(self.field, [sum(map(mul, r, v.coords), a) for r, a in zip(self.linear, self.shift)])

    def compose(self, other: "GroupElement") -> "GroupElement":
        """The map sending x to self(other(x)): x -> MM'x + (Ma' + a)."""
        if type(other) is not type(self):
            raise TypeError(f"cannot compose {type(self).__name__} with {type(other).__name__}")
        self._check_peer(other.field.q, len(other.shift), "map")
        q = self.field.q
        if isinstance(self, Translation):  # M = I
            return self._of(self.field, other.linear,
                            tuple([(a + b) % q for a, b in zip(self.shift, other.shift)]))
        cols = list(zip(*other.linear))
        linear = tuple(tuple([sum(map(mul, r, c)) % q for c in cols]) for r in self.linear)
        return self._of(self.field, linear, tuple([sum(map(mul, r, other.shift), a) % q
                                                   for r, a in zip(self.linear, self.shift)]))

    def inverse(self) -> "GroupElement":
        """x -> M^-1 x - M^-1 a; the identity of a translation is its own inverse."""
        q, m = self.field.q, self.linear
        inv = m if isinstance(self, Translation) else tuple(map(tuple, _inverse_rows(m, q)))
        return self._of(self.field, inv, tuple([-sum(map(mul, r, self.shift)) % q for r in inv]))

    def is_identity(self) -> bool:
        return not any(self.shift) and self.linear == _identity(len(self.shift))

    def sort_key(self) -> tuple:
        return (self.tag, self.field.q, self.linear, self.shift)

    def to_json(self) -> dict:
        return {"type": self.kind, "matrix": [list(r) for r in self.linear]}

    def __repr__(self) -> str:
        return f"{type(self).__name__}({[list(r) for r in self.linear]} mod {self.field.q})"

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and other.sort_key() == self.sort_key()

    def __lt__(self, other: "GroupElement") -> bool:
        return self.sort_key() < other.sort_key()

    def __hash__(self) -> int:
        return hash(self.sort_key())


@functools.lru_cache(maxsize=8)
def _identity(d: int) -> tuple[tuple[int, ...], ...]:
    """The rows of the d x d identity, windows of one padded unit row.  A
    translation is known by its class, so the cache may drop a table."""
    unit = (0,) * (d - 1) + (1,) + (0,) * (d - 1)
    return tuple(unit[d - 1 - i:2 * d - 1 - i] for i in range(d))


class Translation(GroupElement):
    """x maps to x + a."""

    __slots__ = ()
    tag = 0
    kind = "translation"

    def __init__(self, vector: Vector):
        self.field, self.linear, self.shift = vector.field, _identity(vector.dim), vector.coords

    def to_json(self) -> dict:
        return {"type": "translation", "by": list(self.shift)}

    def __repr__(self) -> str:
        return f"Translation({list(self.shift)} mod {self.field.q})"


class Orthogonal(GroupElement):
    """Linear map whose matrix has orthonormal columns (norm-preserving)."""

    __slots__ = ()
    tag = 1
    kind = "orthogonal"

    def __init__(self, matrix: Matrix):
        if not matrix.is_orthogonal():
            raise ValueError("matrix is not orthogonal: transpose times matrix != identity")
        self.field, self.linear, self.shift = matrix.field, matrix.rows, (0,) * matrix.n


class SpecialLinear(GroupElement):
    """Linear map of determinant 1."""

    __slots__ = ()
    tag = 2
    kind = "special-linear"

    def __init__(self, matrix: Matrix):
        if not matrix.is_special_linear():
            raise ValueError("matrix determinant is not 1")
        self.field, self.linear, self.shift = matrix.field, matrix.rows, (0,) * matrix.n


class FiniteGroup:
    """An explicit element list together with the space it acts on.

    Elements are deduplicated and held in canonical order, so that
    `elements[0]` is the canonically smallest element and scans over the
    group are reproducible regardless of how the list was produced.
    """

    def __init__(self, elements: Iterable[GroupElement], space: Space, kind: str):
        # Keyed by sort_key, the dedupe dict is also the membership index.
        self._by_key = {e.sort_key(): e for e in elements}
        self.elements = tuple(self._by_key[k] for k in sorted(self._by_key))
        self.space = space
        self.kind = kind
        self._columns: list | None = None
        self._transitive: bool | None = None
        # Every element of one kind, field and dimension: the identity is
        # then one key away.
        shapes = {(tag, q, len(shift)) for tag, q, _, shift in self._by_key}
        tag, q, d = shapes.pop() if len(shapes) == 1 else (None, None, 0)
        self.identity = self._by_key.get((tag, q, _identity(d), (0,) * d))
        if self.identity is None:
            raise ValueError("group must contain exactly one identity element")

    @property
    def order(self) -> int:
        return len(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, g) -> bool:
        return isinstance(g, GroupElement) and g.sort_key() in self._by_key

    def perms(self) -> list[tuple[int, ...]]:
        """Index permutations of the space, one per element, in element
        order: the image table `columns()` transposed, built on each call."""
        return list(zip(*self.columns())) or [()] * self.order

    def columns(self) -> list:
        """The image table: per space point x, the index of g·x for every
        element g in canonical order, as bytes up to 256 points, else as an
        array of two-byte ('H') or, past 65,536 points, 'I' indices.

        Image coordinate i of x is Σ_j M_ij·x_j + a_i mod q: the columns of
        M, then the shift a as column d, read at x_d = 1.  With at most t
        of these d + 1 columns nonzero in row i for any element, each such
        sum is below B = t(q-1) + 1, so the base-B code of the unreduced
        image carries no digit.  Per column j and value v one share list
        holds, for every element, its column's share of the code at x_j = v;
        a point's codes are the sum of its d + 1 share lists, taken in C,
        with the sums over each prefix of its coordinates shared by the
        points that follow, and one list of B^d entries maps each code to
        its space index, packed to the column's width, or to None outside
        the space, which raises NotInSpace.
        """
        if self._columns is None:
            space = self.space
            coords = space._coords
            q, d = space.field.q, space.dim
            # The shares would silently reduce elements over another field or
            # dimension; apply raises on them, as it always has.  Every element
            # has the identity's shape.
            for x in coords[:1]:
                self.identity.apply(Vector(space.field, x))
            # Per column j of M, then a: each element's column, and the distinct ones numbered.
            per_column = [(cols, {c: n for n, c in enumerate(dict.fromkeys(cols))})
                          for cols in zip(*[(*zip(*g.linear), g.shift) for g in self.elements])]
            distinct = [list(seen) for _, seen in per_column]
            ids = [list(map(seen.__getitem__, cols)) for cols, seen in per_column]
            base = max(sum(any(c[i] for c in cs) for cs in distinct) for i in range(d)) * (q - 1) + 1
            weights = [base ** (d - 1 - i) for i in range(d)]
            values = [sorted({x[j] for x in coords}) for j in range(d)] + [[1]]
            def at_values(c, vs):  # Σ_i w_i·(c_i·v mod q) for each v in vs, in C
                terms = [map(mul, repeat(w), map(mod, map(mul, vs, repeat(m)), repeat(q)))
                         for w, m in zip(weights, c)]
                return list(map(sum, zip(*terms)))
            shares = [dict(zip(vs, zip(*map([at_values(c, vs) for c in cs].__getitem__, js))))
                      for cs, js, vs in zip(distinct, ids, values)]
            typecode = None if len(coords) <= 256 else "H" if len(coords) <= 65536 else "I"
            width = array(typecode).itemsize if typecode else 1
            packed = {c: i.to_bytes(width, sys.byteorder) for i, c in enumerate(coords)}
            lookup = [packed.get(c) for c in itertools.product([v % q for v in range(base)], repeat=d)]
            columns = []
            prefix, partial = (None,) * (d - 1), [shares.pop()[1]]  # then plus the shares of x_0, x_1, ..
            last = shares[-1]  # the shares of x_(d-1), added point by point
            try:
                # Points come in lexicographic order: a run sharing its first
                # d - 1 coordinates reuses one sum, and the sum over each
                # shorter prefix is kept until that prefix changes.
                for head, run in itertools.groupby(coords, itemgetter(slice(0, d - 1))):
                    k = next((j for j, (a, b) in enumerate(zip(head, prefix)) if a != b), d - 1)
                    del partial[k + 1:]
                    for j in range(k, d - 1):
                        partial.append(list(map(add, partial[j], shares[j][head[j]])))
                    prefix, summed = head, partial[-1]
                    raws = (b"".join(map(lookup.__getitem__, map(add, summed, last[x[-1]]))) for x in run)
                    columns += raws if typecode is None else map(array, repeat(typecode), raws)
            except TypeError:  # a None: name the first element, then point, that leaves
                image = next(y for g in self.elements for y in map(g.apply, space.points) if y not in space)
                raise NotInSpace(f"{image!r} is not a point of {space!r}") from None
            self._columns = columns
        return self._columns

    def orbit(self, x: Vector) -> PointSet:
        """All images of x under the group."""
        self.space.index(x)
        return PointSet(self.space.field, self.space.dim, [g.apply(x) for g in self.elements])

    def stabilizer(self, x: Vector) -> list[GroupElement]:
        """Elements fixing x, by full scan, in canonical order."""
        return self.transporter(x, x)

    def transporter(self, x: Vector, y: Vector) -> list[GroupElement]:
        """Elements mapping x to y, by full scan, in canonical order."""
        self.space.index(x)
        self.space.index(y)
        return [g for g in self.elements if g.apply(x) == y]

    def is_transitive(self) -> bool:
        """Single-orbit test: the orbit of the smallest point is the whole space.

        The orbit is counted as the distinct image tuples of the point:
        coordinate i of g·x is a_i + Σ_j M_ij·x_j over the nonzero x_j, for
        the linear part M and the shift a of g, summed for all elements at
        once in C.  An empty space counts as (vacuously) transitive.
        """
        if self._transitive is None:
            space, q = self.space, self.space.field.q
            images = set()  # an empty space has no first point and no images
            for x in space._coords[:1]:
                self.identity.apply(Vector(space.field, x))  # another field or dimension raises
                terms = [(j, c) for j, c in enumerate(x) if c]
                image = []  # per coordinate i, its value under every element
                for i, shifts in enumerate(zip(*map(attrgetter("shift"), self.elements))):
                    row = list(map(itemgetter(i), map(attrgetter("linear"), self.elements)))
                    parts = [map(mul, map(itemgetter(j), row), repeat(c)) for j, c in terms]
                    image.append(map(mod, map(sum, zip(shifts, *parts)), repeat(q)))
                images = set(zip(*image))
            self._transitive = len(images) == len(space)
        return self._transitive

    def describe(self) -> dict:
        return {
            "kind": self.kind,
            "order": self.order,
            "space": self.space.describe(),
            "transitive": self.is_transitive(),
        }

    def __repr__(self) -> str:
        return f"FiniteGroup({self.kind}, order={self.order}, on {self.space!r})"


class _Action(namedtuple("_Action", "space on_spheres refusals power label order transitive builder scan")):
    """What is known of one kind of group action before its group is built.

    space        the space it acts on without a radius: "full" or "punctured"
    on_spheres   whether, given a radius, it acts on that sphere instead
    refusals     after the prime, "dim" and "budget" in the order its build checks them
    power        its build's budget: q^(d^power) candidates, ...
    label        ... refused under this name
    order        |G| as a closed form of (q, d); None where none is written
    transitive   whether it is, as a closed form of (q, d, radius); None where
                 the build decides
    builder      the name of its builder, called (q, d), and radius= when on_spheres
    scan         the name of the finders' overlap scan of its kind, which counts
                 explicit sets with no group as scan(E, 1, H, histogram); None
                 where the group's image table counts them

    Closed forms are lambdas, and builders and scans are names, each looked
    up when it runs, so that a function patched on its module is the one
    called.
    """

    __slots__ = ()

    def size(self, q: int, d: int) -> int:
        """|X| without a radius: q^d, less the origin for the punctured space."""
        return q ** d - (self.space == "punctured")

    def admit(self, q_or_field, d: int) -> PrimeField:
        """F_q, once every refusal of the build has passed, in its order
        and words, building nothing."""
        field = as_field(q_or_field)
        for refusal in self.refusals:
            if refusal == "dim":
                _check_dim(d)
            else:
                _check_budget(field.q, d ** self.power, self.label)
        return field


# One record per group kind, by its name on the command line, in the order
# the command line lists them.  A linear map fixes the origin, so O(d, q) on
# F_q^d is never transitive, while on a sphere the build counts the orbit;
# SL(1, q) is the identity alone, which moves none of its q - 1 points.
_ACTIONS = {
    "translations": _Action("full", False, ("dim", "budget"), 1, _SPACE_BUDGET["full"], lambda q, d: q ** d,
                            lambda q, d, radius: True, "translations", "_shift_overlap"),
    "orthogonal": _Action("full", True, ("budget", "dim"), 2, "matrix enumeration (q^(d^2))", None,
                          lambda q, d, radius: None if radius is not None else False, "orthogonal_group", None),
    "special-linear": _Action("punctured", False, ("dim", "budget"), 2, "matrix scan (q^(d^2))",
                              lambda q, d: _special_linear_order(q, d), lambda q, d, radius: d >= 2 or q == 2,
                              "special_linear_group", "_coset_overlap"),
}


@functools.lru_cache(maxsize=8)
def _special_linear_order(q: int, d: int) -> int:
    """|SL(d, q)| = q^(d(d-1)/2) · prod over i = 2..d of (q^i - 1)."""
    order = q ** (d * (d - 1) // 2)
    for i in range(2, d + 1):
        order *= q ** i - 1
    return order


def translations(q_or_field, dim: int) -> FiniteGroup:
    """The q^d translations of F_q^d, acting on the full space."""
    field = _ACTIONS["translations"].admit(q_or_field, dim)
    space = Space.full(field, dim)
    identity = _identity(dim)
    return FiniteGroup([Translation._of(field, identity, a) for a in space._coords], space, "translations")


def _cofactors(top, q: int) -> list[int]:
    """C with det[top; r] = C·r mod q for every last row r, where `top`
    holds d - 1 rows of length d: C_k = (-1)^(d-1+k) det(top minus column k)."""
    d = len(top) + 1
    return [(-1) ** (d - 1 + k) * _det_rows([r[:k] + r[k + 1:] for r in top], q) % q
            for k in range(d)]


def _unimodular_rows(q: int, dim: int):
    """Rows of every d x d matrix of determinant 1 mod q, in canonical order.

    Enumerates the first d - 1 rows and solves C·r = 1 for the last row r,
    where C is their cofactor vector; C = 0 means they are dependent and
    have no completion.  The solved entry is r_k for the last k with
    C_k != 0: it depends only on the entries before it, and those after
    it are free, so walking the d - 1 free entries in lexicographic order
    yields the last rows in lexicographic order.  Every candidate tried
    is kept: q^(d-1) last rows per independent prefix.
    """
    for flat in itertools.product(range(q), repeat=(dim - 1) * dim):
        top = tuple(flat[i * dim:(i + 1) * dim] for i in range(dim - 1))
        cof = _cofactors(top, q)
        k = max((j for j, c in enumerate(cof) if c), default=None)
        if k is None:
            continue
        inv = pow(cof[k], q - 2, q)
        head = cof[:k]
        for free in itertools.product(range(q), repeat=dim - 1):
            rk = (1 - sum(c * r for c, r in zip(head, free))) * inv % q
            yield top + (free[:k] + (rk,) + free[k:],)


def special_linear_group(q_or_field, dim: int) -> FiniteGroup:
    """All d x d matrices of determinant 1, acting on the punctured space.

    Enumerated by solving the last row of each independent choice of the
    first d - 1 rows (`_unimodular_rows`).  The q^(d^2) matrix-scan budget
    still applies: past ENUMERATION_CAP the group is refused.
    """
    field = _ACTIONS["special-linear"].admit(q_or_field, dim)
    zero = (0,) * dim
    els = [SpecialLinear._of(field, rows, zero) for rows in _unimodular_rows(field.q, dim)]
    return FiniteGroup(els, Space.punctured(field, dim), "special-linear")


def orthogonal_group(q_or_field, dim: int, radius: int | None = None) -> FiniteGroup:
    """All matrices with orthonormal columns, acting on the full space
    or, when a radius is given, on that sphere.

    Backtracks over tuples of d - 1 mutually orthogonal norm-one
    columns c_i.  Their cofactor vector v, with det[c_1..c_(d-1), w] = v·w,
    spans the vectors orthogonal to all of them, so the last column is
    t·v with t^2 (v·v) = 1.  That always has the two roots t = ±1: for
    C = [c_1..c_(d-1), v], det C = v·v and det(C)^2 = det(C^T C) = v·v,
    so v·v is 0 or 1, and 0 would make v, which is nonzero, a combination
    of the c_i orthogonal to each of them.  The q^(d^2) budget of a full
    matrix scan still applies: past ENUMERATION_CAP the group is refused.
    """
    field = _ACTIONS["orthogonal"].admit(q_or_field, dim)
    q = field.q
    unit = sphere(field, dim, 1)._coords
    zero = (0,) * dim

    matrices = []

    def extend(cols):
        if len(cols) == dim - 1:
            v = _cofactors(cols, q)
            matrices.append(tuple(zip(*cols, v)))
            matrices.append(tuple(zip(*cols, [-c % q for c in v])))  # the same when q = 2
            return
        for c in unit:
            if all(sum(map(mul, c, b)) % q == 0 for b in cols):
                extend(cols + [c])

    extend([])
    space = Space.full(field, dim) if radius is None else Space.sphere(field, dim, radius)
    return FiniteGroup([Orthogonal._of(field, m, zero) for m in matrices], space, "orthogonal")
