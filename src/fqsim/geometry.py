"""Vectors and matrices over F_q^d: the sum-of-squares form, determinants,
and sphere enumeration.  A vector is a point's coordinates, its norm and
equality by value, with no arithmetic.

The "norm" here is the F_q-valued sum of squared coordinates.  It is not
a metric, but it shares the two properties that drive every construction
in this package: invariance under orthogonal matrices and homogeneity of
degree 2 under scalar dilation.

A point set is one sorted tuple of canonical coordinate tuples, the
canonical form behind digests and tie-breaks; its position dict is
built on the first lookup and its vectors on the first iteration.  A
set drawn from a space whose flat indices fit a byte (q^d <= 256) is
held as its ascending flat indices, one byte each, and decodes its
tuples on first read (`_flat_coords`); the scans read the bytes.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Sequence

from .errors import DimensionMismatch, EnumerationCapExceeded, FieldMismatch, NotInSpace
from .field import FieldElement, PrimeField, as_field

# Ceiling on every enumeration: full spaces, spheres and matrix scans.
ENUMERATION_CAP = 10 ** 8
_PRINTABLE = 10 ** 4300 - 1  # the largest int str() spells out, 4,300 digits
_PRINTABLE_SQUARE = _PRINTABLE * _PRINTABLE  # n <= _PRINTABLE iff n² <= this, for n >= 0


def _power_exceeds(base: int, e: int, limit: int) -> bool:
    """base^e > limit, for base, e, limit >= 0.  2^(e·(b - 1)) <= base^e
    < 2^(e·b) (base, e >= 1, b = bits(base)) decides it from bit lengths unless
    the bounds straddle limit; only then is base^e computed, below
    2^(2·bits(limit)).  The same two tests stay exact for base or e = 0."""
    bits, edge = base.bit_length(), limit.bit_length()
    if e * (bits - 1) >= edge:
        return True
    if e * bits < edge:
        return False
    return base ** e > limit


def _check_dim(dim: int) -> None:
    if dim < 1:
        raise ValueError(f"dimension must be positive, got {dim}")


def _check_budget(base: int, e: int, what: str) -> None:
    """Refuse, before anything is allocated and without computing a huge
    power, an enumeration of base^e candidates past ENUMERATION_CAP; the
    refusal spells the count out up to _PRINTABLE and reads base^e beyond."""
    if not _power_exceeds(base, e, ENUMERATION_CAP):
        return
    shown = f"{base}^{e}" if _power_exceeds(base, e, _PRINTABLE) else base ** e
    raise EnumerationCapExceeded(f"{what} needs at most {ENUMERATION_CAP} candidates, got {shown}")


class Vector:
    """A point of F_q^d, stored as canonical integer coordinates, with its
    norm and equality by value; it moves only by a group element."""

    __slots__ = ("field", "coords")

    def __init__(self, field: PrimeField, coords: Iterable):
        q = field.q
        canon = []
        for c in coords:  # a loop costs less than a comprehension at small d
            canon.append(c % q)
        if not canon:
            raise ValueError("vectors need at least one coordinate")
        self.field = field
        self.coords = tuple(canon)

    @classmethod
    def _of(cls, field: PrimeField, coords: tuple) -> "Vector":
        """The vector with these canonical coordinates, unchecked."""
        v = object.__new__(cls)
        v.field, v.coords = field, coords
        return v

    @property
    def dim(self) -> int:
        return len(self.coords)

    def norm(self) -> FieldElement:
        """Sum of squared coordinates, as a field element."""
        q = self.field.q
        return FieldElement(sum(c * c for c in self.coords) % q, self.field)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Vector)
            and other.field.q == self.field.q
            and other.coords == self.coords
        )

    def __hash__(self) -> int:
        return hash((self.field.q, self.coords))

    def __repr__(self) -> str:
        return f"Vector({list(self.coords)} mod {self.field.q})"


def index_to_coords(index: int, q: int, d: int) -> tuple[int, ...]:
    """Coordinates of the point at `index` in the lexicographic order of F_q^d."""
    coords = [0] * d
    for i in reversed(range(d)):
        index, coords[i] = divmod(index, q)
    return tuple(coords)


def _flat_coords(q: int, d: int, indices: Sequence[int]) -> Iterable[tuple]:
    """The coordinate tuples at these flat indices of F_q^d, decoded one
    base-q digit at a time, last coordinate first, for all indices at
    once; flat order is lexicographic, so ascending indices give tuples
    in canonical order."""
    digits = []
    for _ in range(d - 1):
        digits.append([i % q for i in indices])
        indices = [i // q for i in indices]
    digits.append(indices)  # below q^d, what is left is the first coordinate
    return zip(*reversed(digits))


class PointSet:
    """A deduplicated, lexicographically sorted subset of F_q^d.

    The canonical ordering makes point sets hashable inputs for digests,
    diffable in reports, and deterministic to iterate; `index` gives a
    point's position in it.  A set holds one sorted tuple of coordinate
    tuples, `_coords`; its position dict is built on the first lookup and
    its `Vector`s on the first iteration, unless vectors were given.  A
    set built from flat indices below the byte bound (`_at_flat`) holds
    them as `_flat`, ascending bytes, and decodes `_coords` on first read.
    """

    __slots__ = ("field", "dim", "_flat", "_tuples", "_positions", "_points")

    def __init__(self, field: PrimeField, dim: int, points: Iterable[Vector] = ()):
        _check_dim(dim)
        q = field.q
        seen = {}
        for p in points:
            if not isinstance(p, Vector):
                raise TypeError(f"expected Vector, got {type(p).__name__}")
            if p.field.q != q:
                raise FieldMismatch(f"point over F_{p.field.q} in a set over F_{q}")
            if len(p.coords) != dim:
                raise DimensionMismatch(f"point of dimension {p.dim} in a {dim}-dimensional set")
            seen[p.coords] = p
        self.field = field
        self.dim = dim
        self._flat = self._positions = None
        self._tuples = tuple(sorted(seen))
        self._points = tuple(seen[c] for c in self._tuples)

    @classmethod
    def _canonical(cls, field: PrimeField, dim: int, coords: Iterable[tuple]) -> "PointSet":
        """The set of points with these coordinates: distinct canonical tuples
        of length dim, already sorted, so nothing is checked or sorted again."""
        self = object.__new__(cls)
        self.field = field
        self.dim = dim
        self._tuples = tuple(coords)
        self._flat = self._positions = self._points = None
        return self

    @classmethod
    def _at_flat(cls, field: PrimeField, dim: int, indices: Sequence[int]) -> "PointSet":
        """The points at these distinct ascending flat indices of F_q^d:
        kept as bytes while every index of the space fits one (q^d <= 256),
        decoded at once past it."""
        if _power_exceeds(field.q, dim, 256):
            return cls._canonical(field, dim, _flat_coords(field.q, dim, indices))
        self = cls._canonical(field, dim, ())
        self._flat, self._tuples = bytes(indices), None
        return self

    @property
    def _coords(self) -> tuple:
        """The sorted coordinate tuples; a set held as flat indices decodes
        them on first read.  Threads that race here decode equal tuples."""
        if self._tuples is None:
            self._tuples = tuple(_flat_coords(self.field.q, self.dim, self._flat))
        return self._tuples

    @property
    def _index(self) -> dict:
        """Coordinate tuple -> position, built on first lookup.  Threads that
        race here build equal dicts, so whichever is kept answers alike."""
        if self._positions is None:
            self._positions = dict(zip(self._coords, itertools.count()))
        return self._positions

    @property
    def points(self) -> tuple[Vector, ...]:
        """The points as vectors, in canonical order, built on first use."""
        if self._points is None:
            self._points = tuple([Vector(self.field, c) for c in self._coords])
        return self._points

    def _holds_origin(self) -> bool:
        """Whether the origin, first in canonical order as flat index 0, is a point."""
        return self._flat[:1] == b"\0" if self._flat is not None else self._coords[:1] == ((0,) * self.dim,)

    def __len__(self) -> int:
        return len(self._tuples if self._flat is None else self._flat)

    def __iter__(self):
        return iter(self.points)

    def __contains__(self, v) -> bool:
        return (
            isinstance(v, Vector)
            and v.field.q == self.field.q
            and v.coords in self._index
        )

    def index(self, v: Vector) -> int:
        """Position of v in the canonical order; NotInSpace if v is not held."""
        i = self._index.get(v.coords) if v.field.q == self.field.q else None
        if i is None:
            raise NotInSpace(f"{v!r} is not a point of {self!r}")
        return i

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PointSet)
            and other.field.q == self.field.q
            and other.dim == self.dim
            and other._coords == self._coords
        )

    def __hash__(self) -> int:
        return hash((self.field.q, self.dim, self._coords))

    def __repr__(self) -> str:
        return f"PointSet(q={self.field.q}, d={self.dim}, n={len(self)})"


class Matrix:
    """A square matrix over F_q, row-major, canonical entries."""

    __slots__ = ("field", "rows")

    def __init__(self, field: PrimeField, rows: Iterable[Iterable]):
        q = field.q
        canon = []
        for row in rows:  # loops, as in Vector
            r = []
            for e in row:
                r.append(e % q)
            canon.append(tuple(r))
        n = len(canon)
        if n == 0 or any(len(r) != n for r in canon):
            raise DimensionMismatch("matrix must be square and nonempty")
        self.field = field
        self.rows = tuple(canon)

    @property
    def n(self) -> int:
        return len(self.rows)

    @classmethod
    def identity(cls, field: PrimeField, n: int) -> "Matrix":
        return cls(field, [[1 if i == j else 0 for j in range(n)] for i in range(n)])

    def __matmul__(self, other):
        if not isinstance(other, Matrix):
            raise TypeError(f"cannot multiply Matrix by {type(other).__name__}")
        if other.field.q != self.field.q:
            raise FieldMismatch("matrices over different fields")
        if other.n != self.n:
            raise DimensionMismatch(f"matrix sizes {self.n} and {other.n}")
        n = self.n
        cols = list(zip(*other.rows))
        return Matrix(self.field, [[sum(r[k] * c[k] for k in range(n)) for c in cols]
                                   for r in self.rows])

    def is_orthogonal(self) -> bool:
        """Whether the transpose is a two-sided inverse (columns orthonormal)."""
        return Matrix(self.field, zip(*self.rows)) @ self == Matrix.identity(self.field, self.n)

    def is_special_linear(self) -> bool:
        return _det_rows(self.rows, self.field.q) == 1

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matrix)
            and other.field.q == self.field.q
            and other.rows == self.rows
        )

    def __hash__(self) -> int:
        return hash((self.field.q, self.rows))

    def __repr__(self) -> str:
        return f"Matrix({[list(r) for r in self.rows]} mod {self.field.q})"


def _det_rows(rows: Sequence[Sequence[int]], q: int) -> int:
    """Exact determinant of integer rows modulo prime q, O(n^3)."""
    n = len(rows)
    m = [list(r) for r in rows]
    det = 1
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col]), None)
        if pivot is None:
            return 0
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det % q
        pv = m[col][col]
        det = det * pv % q
        inv = pow(pv, q - 2, q)
        for r in range(col + 1, n):
            factor = m[r][col] * inv % q
            if factor:
                lead = m[col]
                target = m[r]
                for c in range(col, n):
                    target[c] = (target[c] - factor * lead[c]) % q
    return det


def _inverse_rows(rows: Sequence[Sequence[int]], q: int) -> list[list[int]]:
    """Gauss-Jordan inverse; raises on singular input."""
    n = len(rows)
    aug = [list(rows[i]) + [1 if j == i else 0 for j in range(n)] for i in range(n)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col]), None)
        if pivot is None:
            raise ZeroDivisionError("matrix is singular")
        if pivot != col:
            aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = pow(aug[col][col], q - 2, q)
        aug[col] = [e * inv % q for e in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                factor = aug[r][col]
                aug[r] = [(a - factor * b) % q for a, b in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def sphere(q_or_field, dim: int, radius) -> PointSet:
    """All points of F_q^d whose sum of squared coordinates equals radius.

    Within ENUMERATION_CAP (q^d), each of the q^(d-1) prefixes of d - 1
    coordinates in lex order is followed by the roots of x_d² = radius -
    Σ x_i², `FieldElement.sqrt`'s root and q minus it (over F_2 the
    value itself), so the points come in canonical order.
    """
    field = as_field(q_or_field)
    q = field.q
    _check_dim(dim)
    _check_budget(q, dim, "sphere enumeration (q^d)")
    want = radius.value if isinstance(radius, FieldElement) else radius % q
    points = []
    for head in itertools.product(range(q), repeat=dim - 1):
        r = FieldElement(want - sum(x * x for x in head), field)
        if q == 2 or (r := r.sqrt()) is not None:
            points += [(*head, x) for x in dict.fromkeys((r.value, -r.value % q))]
    return PointSet._canonical(field, dim, points)
