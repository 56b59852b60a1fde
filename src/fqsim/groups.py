"""Explicit finite groups acting on explicit finite spaces.

Three families are enumerated element by element: translations of
F_q^d, orthogonal matrices (preserving the sum-of-squares form), and
unimodular matrices (determinant 1).  Element lists are kept in a total
canonical order — variant first, then lexicographic on the serialized
entries — so that every argmax and every listing is reproducible.

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
"""

from __future__ import annotations

import itertools
from operator import add
from typing import Iterable

from .errors import NotInSpace
from .field import PrimeField, as_field
from .geometry import (
    Matrix,
    PointSet,
    Vector,
    _check_budget,
    _det_rows,
    all_vectors,
    sphere,
)


class Space(PointSet):
    """A point set of a kind on which a group acts: all of F_q^d, the
    punctured space (origin removed), or a sphere of some radius."""

    __slots__ = ("kind", "radius")

    def __init__(self, field: PrimeField, dim: int, kind: str,
                 points: Iterable[Vector], radius: int | None = None):
        super().__init__(field, dim, points)
        self.kind = kind
        self.radius = radius

    @classmethod
    def full(cls, q_or_field, dim: int) -> "Space":
        field = as_field(q_or_field)
        _check_budget(field.q ** dim, "full space (q^d)")
        return cls(field, dim, "full", all_vectors(field, dim))

    @classmethod
    def punctured(cls, q_or_field, dim: int) -> "Space":
        field = as_field(q_or_field)
        _check_budget(field.q ** dim, "punctured space (q^d)")
        pts = [v for v in all_vectors(field, dim) if not v.is_zero()]
        return cls(field, dim, "punctured", pts)

    @classmethod
    def sphere(cls, q_or_field, dim: int, radius: int) -> "Space":
        field = as_field(q_or_field)
        radius = radius % field.q
        return cls(field, dim, "sphere", sphere(field, dim, radius), radius=radius)

    @property
    def size(self) -> int:
        return len(self.points)

    def describe(self) -> dict:
        out = {"kind": self.kind, "q": self.field.q, "d": self.dim, "size": self.size}
        if self.radius is not None:
            out["radius"] = self.radius
        return out

    def __repr__(self) -> str:
        r = f", radius={self.radius}" if self.radius is not None else ""
        return f"Space({self.kind}, q={self.field.q}, d={self.dim}{r}, size={self.size})"


class GroupElement:
    """A transformation of F_q^d: a translation or an invertible linear map."""

    __slots__ = ()
    tag = -1

    def apply(self, v: Vector) -> Vector:
        raise NotImplementedError

    def _affine_columns(self) -> list[tuple[int, tuple[int, ...]]]:
        """The nonzero columns (j, c) of the d x (d+1) matrix [M | a] of the
        map x -> Mx + a; column d multiplies the constant coordinate 1."""
        raise NotImplementedError

    def _row_terms(self) -> int:
        """A bound on the nonzero entries in a row of [M | a]."""
        raise NotImplementedError

    def compose(self, other: "GroupElement") -> "GroupElement":
        """The map sending x to self(other(x))."""
        raise NotImplementedError

    def inverse(self) -> "GroupElement":
        raise NotImplementedError

    def is_identity(self) -> bool:
        raise NotImplementedError

    def sort_key(self) -> tuple:
        raise NotImplementedError

    def to_json(self) -> dict:
        raise NotImplementedError

    def _like(self, other):
        if type(other) is not type(self):
            raise TypeError(
                f"cannot compose {type(self).__name__} with {type(other).__name__}"
            )
        return other

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and other.sort_key() == self.sort_key()

    def __lt__(self, other: "GroupElement") -> bool:
        return self.sort_key() < other.sort_key()

    def __hash__(self) -> int:
        return hash(self.sort_key())


class Translation(GroupElement):
    """x maps to x + a."""

    __slots__ = ("vector",)
    tag = 0

    def __init__(self, vector: Vector):
        self.vector = vector

    def apply(self, v: Vector) -> Vector:
        return v + self.vector

    def _affine_columns(self):
        a = self.vector.coords
        d = len(a)
        cols = [(j, tuple(int(i == j) for i in range(d))) for j in range(d)]
        return cols + [(d, a)] if any(a) else cols

    def _row_terms(self) -> int:
        return 2  # x_i + a_i

    def compose(self, other: "Translation") -> "Translation":
        other = self._like(other)
        return Translation(self.vector + other.vector)

    def inverse(self) -> "Translation":
        return Translation(-self.vector)

    def is_identity(self) -> bool:
        return self.vector.is_zero()

    def sort_key(self) -> tuple:
        return (self.tag, self.vector.field.q, self.vector.coords)

    def to_json(self) -> dict:
        return {"type": "translation", "by": list(self.vector.coords)}

    def __repr__(self) -> str:
        return f"Translation({list(self.vector.coords)} mod {self.vector.field.q})"


class _LinearMap(GroupElement):
    """Common base for matrix actions: x maps to Mx."""

    __slots__ = ("matrix",)

    def __init__(self, matrix: Matrix):
        self._validate(matrix)
        self.matrix = matrix

    def _validate(self, matrix: Matrix) -> None:
        raise NotImplementedError

    @classmethod
    def unchecked(cls, matrix: Matrix) -> "_LinearMap":
        """An element built without the membership check.

        For products, inverses and enumerated matrices, which are members
        by construction, and for witness data, which the verifiers re-check.
        """
        g = object.__new__(cls)
        g.matrix = matrix
        return g

    def apply(self, v: Vector) -> Vector:
        return self.matrix.apply(v)

    def _affine_columns(self):
        return [(j, c) for j, c in enumerate(zip(*self.matrix.rows)) if any(c)]

    def _row_terms(self) -> int:
        return len(self.matrix.rows)

    def compose(self, other):
        other = self._like(other)
        return self.unchecked(self.matrix @ other.matrix)

    def is_identity(self) -> bool:
        return all(e == (i == j) for i, row in enumerate(self.matrix.rows)
                   for j, e in enumerate(row))

    def sort_key(self) -> tuple:
        m = self.matrix
        return (self.tag, m.field.q, tuple(e for row in m.rows for e in row))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({[list(r) for r in self.matrix.rows]} mod {self.matrix.field.q})"


class Orthogonal(_LinearMap):
    """Linear map whose matrix has orthonormal columns (norm-preserving)."""

    __slots__ = ()
    tag = 1

    def _validate(self, matrix: Matrix) -> None:
        if not matrix.is_orthogonal():
            raise ValueError("matrix is not orthogonal: transpose times matrix != identity")

    def inverse(self) -> "Orthogonal":
        return Orthogonal.unchecked(self.matrix.transpose())

    def to_json(self) -> dict:
        return {"type": "orthogonal", "matrix": [list(r) for r in self.matrix.rows]}


class SpecialLinear(_LinearMap):
    """Linear map of determinant 1."""

    __slots__ = ()
    tag = 2

    def _validate(self, matrix: Matrix) -> None:
        if not matrix.is_special_linear():
            raise ValueError("matrix determinant is not 1")

    def inverse(self) -> "SpecialLinear":
        return SpecialLinear.unchecked(self.matrix.inverse())

    def to_json(self) -> dict:
        return {"type": "special-linear", "matrix": [list(r) for r in self.matrix.rows]}


class FiniteGroup:
    """An explicit element list together with the space it acts on.

    Elements are deduplicated and held in canonical order, so that
    `elements[0]` is the canonically smallest element and scans over the
    group are reproducible regardless of how the list was produced.
    """

    def __init__(self, elements: Iterable[GroupElement], space: Space, kind: str):
        unique = {e.sort_key(): e for e in elements}
        self.elements = tuple(unique[k] for k in sorted(unique))
        self.space = space
        self.kind = kind
        self._element_set = frozenset(self.elements)
        self._perms: list[tuple[int, ...]] | None = None
        self._columns: list[bytes] | None = None
        self._transitive: bool | None = None
        ident = [e for e in self.elements if e.is_identity()]
        if len(ident) != 1:
            raise ValueError("group must contain exactly one identity element")
        self.identity = ident[0]

    @property
    def order(self) -> int:
        return len(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, g) -> bool:
        return g in self._element_set

    def perms(self) -> list[tuple[int, ...]]:
        """Index permutations of the space, one per element, in element order.

        Image coordinate i of x is the sum over the affine columns (j, c)
        of c_i·x_j mod q, with x_d = 1.  With at most t nonzero terms in a
        row (d for a linear map, 2 for x_i + a_i), each such sum is below
        B = t(q-1) + 1, so the base-B code of the unreduced image carries
        no digit.  One table per column holds that column's share of the
        code for every point; an element's codes are the sum of its
        tables, taken in C, and one list of B^d entries maps each code to
        its space index, None outside the space, which raises NotInSpace.
        """
        if self._perms is None:
            space = self.space
            index = space._index
            coords = list(index)  # the points' coordinates, in canonical order
            q = space.field.q
            d = space.dim
            if coords:
                # The tables would silently reduce an element over another
                # field or dimension; apply raises on it, as it always has.
                x = space.points[0]
                for g in self.elements:
                    g.apply(x)
            base = max((g._row_terms() for g in self.elements), default=1) * (q - 1) + 1
            weights = [base ** (d - 1 - i) for i in range(d)]
            xs = [[c[j] for c in coords] for j in range(d)] + [[1] * len(coords)]
            reduced = [v % q for v in range(base)]
            lookup = [index.get(c) for c in itertools.product(reduced, repeat=d)]
            tables = {}
            perms = []
            for g in self.elements:
                codes = None
                for column in g._affine_columns():
                    t = tables.get(column)
                    if t is None:
                        j, c = column
                        share = {v: sum(w * (m * v % q) for w, m in zip(weights, c))
                                 for v in set(xs[j])}
                        t = tables[column] = list(map(share.__getitem__, xs[j]))
                    codes = t if codes is None else map(add, codes, t)
                perm = tuple(map(lookup.__getitem__, codes))
                if None in perm:
                    image = g.apply(space.points[perm.index(None)])
                    raise NotInSpace(f"{image!r} is not a point of {space!r}")
                perms.append(perm)
            self._perms = perms
        return self._perms

    def columns(self) -> list[bytes]:
        """The perms() table transposed: per space point x, the index of g·x
        for every element g in canonical order, one byte per element.

        Needs a space of at most 256 points, so that every index fits a byte.
        """
        if self._columns is None:
            if self.space.size > 256:
                raise ValueError(
                    f"byte columns need a space of at most 256 points, got {self.space.size}"
                )
            self._columns = [bytes(c) for c in zip(*self.perms())]
        return self._columns

    def orbit(self, x: Vector) -> PointSet:
        """All images of x under the group."""
        self.space.index(x)
        return PointSet(self.space.field, self.space.dim, [g.apply(x) for g in self.elements])

    def stabilizer(self, x: Vector) -> list[GroupElement]:
        """Elements fixing x, by full scan, in canonical order."""
        self.space.index(x)
        return [g for g in self.elements if g.apply(x) == x]

    def transporter(self, x: Vector, y: Vector) -> list[GroupElement]:
        """Elements mapping x to y, by full scan, in canonical order."""
        self.space.index(x)
        self.space.index(y)
        return [g for g in self.elements if g.apply(x) == y]

    def is_transitive(self) -> bool:
        """Single-orbit test: the orbit of the smallest point is the whole space.

        An empty space counts as (vacuously) transitive.
        """
        if self._transitive is None:
            if self.space.size == 0:
                self._transitive = True
            else:
                self._transitive = len(self.orbit(self.space.points[0])) == self.space.size
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


def translations(q_or_field, dim: int) -> FiniteGroup:
    """The q^d translations of F_q^d, acting on the full space."""
    field = as_field(q_or_field)
    space = Space.full(field, dim)
    return FiniteGroup([Translation(v) for v in space.points], space, "translations")


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
    field = as_field(q_or_field)
    _check_budget(field.q ** (dim * dim), "matrix scan (q^(d^2))")
    els = [SpecialLinear.unchecked(Matrix(field, rows)) for rows in _unimodular_rows(field.q, dim)]
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
    field = as_field(q_or_field)
    q = field.q
    _check_budget(q ** (dim * dim), "matrix enumeration (q^(d^2))")
    unit = [v.coords for v in sphere(field, dim, 1).points]

    def dot(a, b):
        return sum(x * y for x, y in zip(a, b)) % q

    matrices = []

    def extend(cols):
        if len(cols) == dim - 1:
            v = _cofactors(cols, q)
            matrices.append(tuple(zip(*cols, v)))
            matrices.append(tuple(zip(*cols, [-c % q for c in v])))  # the same when q = 2
            return
        for c in unit:
            if all(dot(c, b) == 0 for b in cols):
                extend(cols + [c])

    extend([])
    if radius is None:
        space = Space.full(field, dim)
    else:
        space = Space.sphere(field, dim, radius)
    els = [Orthogonal.unchecked(Matrix(field, rows)) for rows in matrices]
    return FiniteGroup(els, space, "orthogonal")
