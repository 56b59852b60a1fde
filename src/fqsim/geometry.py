"""Vectors and matrices over F_q^d: the sum-of-squares form, determinants,
and sphere enumeration.

The "norm" here is the F_q-valued sum of squared coordinates.  It is not
a metric, but it shares the two properties that drive every construction
in this package: invariance under orthogonal matrices and homogeneity of
degree 2 under scalar dilation.

Vectors carry a total lexicographic order on canonical representatives,
giving point sets a canonical form and every search a deterministic
tie-break.
"""

from __future__ import annotations

import functools
import itertools
from typing import Iterable, Sequence

from .errors import DimensionMismatch, EnumerationCapExceeded, FieldMismatch, NotInSpace
from .field import FieldElement, PrimeField, as_field

# Ceiling on every enumeration: full spaces, spheres and matrix scans.
ENUMERATION_CAP = 10 ** 8


def _check_budget(count: int, what: str) -> None:
    """Refuse, before anything is allocated, an enumeration of `count` candidates."""
    if count > ENUMERATION_CAP:
        raise EnumerationCapExceeded(
            f"{what} needs at most {ENUMERATION_CAP} candidates, got {count}"
        )


@functools.total_ordering
class Vector:
    """A point of F_q^d, stored as canonical integer coordinates."""

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

    @property
    def dim(self) -> int:
        return len(self.coords)

    def _peer(self, other: "Vector") -> "Vector":
        if not isinstance(other, Vector):
            raise TypeError(f"expected Vector, got {type(other).__name__}")
        if other.field.q != self.field.q:
            raise FieldMismatch(
                f"vectors over F_{self.field.q} and F_{other.field.q}"
            )
        if other.dim != self.dim:
            raise DimensionMismatch(f"dimensions {self.dim} and {other.dim}")
        return other

    def __add__(self, other: "Vector") -> "Vector":
        other = self._peer(other)
        q = self.field.q
        return Vector(self.field, [(a + b) % q for a, b in zip(self.coords, other.coords)])

    def __sub__(self, other: "Vector") -> "Vector":
        other = self._peer(other)
        q = self.field.q
        return Vector(self.field, [(a - b) % q for a, b in zip(self.coords, other.coords)])

    def __neg__(self) -> "Vector":
        q = self.field.q
        return Vector(self.field, [-a % q for a in self.coords])

    def __rmul__(self, scalar: FieldElement) -> "Vector":
        if not isinstance(scalar, FieldElement):
            raise TypeError("vectors scale by FieldElement only")
        if scalar.field.q != self.field.q:
            raise FieldMismatch("scalar and vector live in different fields")
        q = self.field.q
        s = scalar.value
        return Vector(self.field, [s * a % q for a in self.coords])

    def norm(self) -> FieldElement:
        """Sum of squared coordinates, as a field element."""
        q = self.field.q
        return FieldElement(sum(c * c for c in self.coords) % q, self.field)

    def is_zero(self) -> bool:
        return not any(self.coords)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Vector)
            and other.field.q == self.field.q
            and other.coords == self.coords
        )

    def __lt__(self, other: "Vector") -> bool:
        other = self._peer(other)
        return self.coords < other.coords

    def __hash__(self) -> int:
        return hash((self.field.q, self.coords))

    def __repr__(self) -> str:
        return f"Vector({list(self.coords)} mod {self.field.q})"


def all_vectors(field: PrimeField, dim: int):
    """Every point of F_q^d in lexicographic order."""
    for coords in itertools.product(range(field.q), repeat=dim):
        yield Vector(field, coords)


def index_to_coords(index: int, q: int, d: int) -> tuple[int, ...]:
    """Coordinates of the point at `index` in the lexicographic order of F_q^d."""
    coords = [0] * d
    for i in reversed(range(d)):
        index, coords[i] = divmod(index, q)
    return tuple(coords)


class PointSet:
    """A deduplicated, lexicographically sorted subset of F_q^d.

    The canonical ordering makes point sets hashable inputs for digests,
    diffable in reports, and deterministic to iterate; `index` gives a
    point's position in it.
    """

    __slots__ = ("field", "dim", "points", "_index")

    def __init__(self, field: PrimeField, dim: int, points: Iterable[Vector] = ()):
        if dim < 1:
            raise ValueError(f"dimension must be positive, got {dim}")
        seen = {}
        for p in points:
            if not isinstance(p, Vector):
                raise TypeError(f"expected Vector, got {type(p).__name__}")
            if p.field.q != field.q:
                raise FieldMismatch(
                    f"point over F_{p.field.q} in a set over F_{field.q}"
                )
            if p.dim != dim:
                raise DimensionMismatch(f"point of dimension {p.dim} in a {dim}-dimensional set")
            seen[p.coords] = p
        self.field = field
        self.dim = dim
        self._index = {c: i for i, c in enumerate(sorted(seen))}
        self.points = tuple(seen[c] for c in self._index)

    @classmethod
    def from_coords(cls, field: PrimeField, dim: int, coords: Iterable) -> "PointSet":
        return cls(field, dim, [Vector(field, c) for c in coords])

    @property
    def q(self) -> int:
        return self.field.q

    def __len__(self) -> int:
        return len(self.points)

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
            and other._index == self._index
        )

    def __hash__(self) -> int:
        return hash((self.field.q, self.dim, tuple(self._index)))

    def scaled(self, scalar: FieldElement) -> "PointSet":
        """Image of the set under coordinatewise scalar dilation."""
        return PointSet(self.field, self.dim, [scalar * p for p in self.points])

    def translated(self, shift: Vector) -> "PointSet":
        return PointSet(self.field, self.dim, [p + shift for p in self.points])

    def coords_list(self) -> list[list[int]]:
        return [list(p.coords) for p in self.points]

    def __repr__(self) -> str:
        return f"PointSet(q={self.field.q}, d={self.dim}, n={len(self.points)})"


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

    @classmethod
    def from_columns(cls, columns: Sequence[Vector]) -> "Matrix":
        """Matrix whose j-th column is columns[j]."""
        if not columns:
            raise DimensionMismatch("need at least one column")
        d = columns[0].dim
        if len(columns) != d:
            raise DimensionMismatch(
                f"need exactly {d} columns of dimension {d}, got {len(columns)}"
            )
        field = columns[0].field
        for c in columns:
            if c.field.q != field.q:
                raise FieldMismatch("columns from different fields")
            if c.dim != d:
                raise DimensionMismatch("columns of unequal dimension")
        return cls(field, [[columns[j].coords[i] for j in range(d)] for i in range(d)])

    def transpose(self) -> "Matrix":
        n = self.n
        return Matrix(self.field, [[self.rows[j][i] for j in range(n)] for i in range(n)])

    def __matmul__(self, other):
        if not isinstance(other, Matrix):
            raise TypeError(f"cannot multiply Matrix by {type(other).__name__}")
        if other.field.q != self.field.q:
            raise FieldMismatch("matrices over different fields")
        if other.n != self.n:
            raise DimensionMismatch(f"matrix sizes {self.n} and {other.n}")
        q = self.field.q
        n = self.n
        cols = list(zip(*other.rows))
        return Matrix(
            self.field,
            [[sum(r[k] * c[k] for k in range(n)) % q for c in cols] for r in self.rows],
        )

    def apply(self, v: Vector) -> Vector:
        if v.field.q != self.field.q:
            raise FieldMismatch("matrix and vector over different fields")
        if v.dim != self.n:
            raise DimensionMismatch(f"matrix size {self.n}, vector dimension {v.dim}")
        q = self.field.q
        vc = v.coords
        return Vector(
            self.field,
            [sum(r[k] * vc[k] for k in range(self.n)) % q for r in self.rows],
        )

    def determinant(self) -> FieldElement:
        """Determinant by Gaussian elimination with nonzero-pivot search."""
        return FieldElement(_det_rows(self.rows, self.field.q), self.field)

    def determinant_cofactor(self) -> FieldElement:
        """Determinant by recursive cofactor expansion.

        Kept as a deliberately independent route from the elimination
        determinant, so one can cross-check the other.
        """
        return FieldElement(_det_cofactor(self.rows, self.field.q), self.field)

    def inverse(self) -> "Matrix":
        return Matrix(self.field, _inverse_rows(self.rows, self.field.q))

    def is_orthogonal(self) -> bool:
        """Whether the transpose is a two-sided inverse (columns orthonormal)."""
        return (self.transpose() @ self) == Matrix.identity(self.field, self.n)

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


def _det_cofactor(rows: Sequence[Sequence[int]], q: int) -> int:
    n = len(rows)
    if n == 1:
        return rows[0][0] % q
    total = 0
    sign = 1
    for j in range(n):
        if rows[0][j]:
            minor = [r[:j] + r[j + 1:] for r in (tuple(row) for row in rows[1:])]
            total += sign * rows[0][j] * _det_cofactor(minor, q)
        sign = -sign
    return total % q


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

    Full enumeration of q^d points, within ENUMERATION_CAP.
    """
    field = as_field(q_or_field)
    q = field.q
    _check_budget(q ** dim, "sphere enumeration (q^d)")
    want = radius.value if isinstance(radius, FieldElement) else radius % q
    squares = [i * i % q for i in range(q)]
    hits = []
    for coords in itertools.product(range(q), repeat=dim):
        if sum(squares[c] for c in coords) % q == want:
            hits.append(Vector(field, coords))
    return PointSet(field, dim, hits)
