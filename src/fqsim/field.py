"""Prime-field arithmetic with quadratic-residue and root extraction.

Elements are canonical residues in [0, q).  Binary operations demand
matching field order and never coerce silently.  Residue-class and root
operations (`is_mth_power`, `sqrt`, `mth_root`) additionally require odd
q: squaring is a bijection in characteristic 2, which makes the residue
questions there degenerate, so F_2 supports plain arithmetic only.

Root selection is deterministic: whenever several roots exist, the one
with the smallest canonical representative is returned, so downstream
constructions are reproducible.
"""

from __future__ import annotations

import math

from .errors import (
    DivisionByZero,
    EvenFieldUnsupported,
    FieldMismatch,
    NoRoot,
    NotPrime,
    ScanCapExceeded,
    TooLarge,
)

# Orders are kept below 2^32 so a product of two canonical residues fits
# comfortably in one machine word.
ORDER_LIMIT = 1 << 32

# Largest field the m-th root scanner is willing to walk element by element.
ROOT_SCAN_CAP = 10 ** 6


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


class PrimeField:
    """The field of integers modulo a prime q."""

    __slots__ = ("q", "_nonresidue")

    def __init__(self, q: int):
        if not isinstance(q, int) or isinstance(q, bool):
            raise TypeError(f"field order must be an int, got {type(q).__name__}")
        if q < 2:
            raise ValueError(f"field order must be at least 2, got {q}")
        if q >= ORDER_LIMIT:
            raise TooLarge(f"field order {q} is not below 2^32")
        if not _is_prime(q):
            raise NotPrime(f"{q} is not prime (extension fields are unsupported)")
        self.q = q
        self._nonresidue: int | None = None

    def __call__(self, value: int) -> "FieldElement":
        return FieldElement(value, self)

    @property
    def zero(self) -> "FieldElement":
        return FieldElement(0, self)

    def smallest_nonresidue(self) -> int:
        """The least quadratic nonresidue, found by scanning 2, 3, 4, ...

        Cached; used as the auxiliary element of the square-root routine.
        """
        self._require_odd()
        if self._nonresidue is None:
            exp = (self.q - 1) // 2
            n = 2
            while pow(n, exp, self.q) == 1:
                n += 1
            self._nonresidue = n
        return self._nonresidue

    def _require_odd(self) -> None:
        if self.q == 2:
            raise EvenFieldUnsupported(
                "residue and root operations are unavailable over F_2"
            )

    def __eq__(self, other) -> bool:
        return isinstance(other, PrimeField) and other.q == self.q

    def __hash__(self) -> int:
        return hash(("PrimeField", self.q))

    def __repr__(self) -> str:
        return f"PrimeField({self.q})"


def make_field(q: int) -> PrimeField:
    """Field of order q; rejects composite q and q >= 2^32."""
    return PrimeField(q)


class FieldElement:
    """A canonical residue together with its field."""

    __slots__ = ("value", "field")

    def __init__(self, value: int, field: PrimeField):
        self.value = value % field.q
        self.field = field

    def _check_field(self, other: "FieldElement", op: str) -> None:
        if other.field.q != self.field.q:
            raise FieldMismatch(
                f"cannot {op} elements of F_{self.field.q} and F_{other.field.q}"
            )

    def __add__(self, other):
        if not isinstance(other, FieldElement):
            return NotImplemented
        self._check_field(other, "add")
        return FieldElement(self.value + other.value, self.field)

    def __sub__(self, other):
        if not isinstance(other, FieldElement):
            return NotImplemented
        self._check_field(other, "subtract")
        return FieldElement(self.value - other.value, self.field)

    def __mul__(self, other):
        if not isinstance(other, FieldElement):
            return NotImplemented
        self._check_field(other, "multiply")
        return FieldElement(self.value * other.value, self.field)

    def __truediv__(self, other):
        if not isinstance(other, FieldElement):
            return NotImplemented
        self._check_field(other, "divide")
        return self * other.inverse()

    def __neg__(self):
        return FieldElement(-self.value, self.field)

    def __pow__(self, exponent: int):
        if exponent < 0:
            raise ValueError("negative exponent; invert explicitly instead")
        return FieldElement(pow(self.value, exponent, self.field.q), self.field)

    def inverse(self) -> "FieldElement":
        if self.value == 0:
            raise DivisionByZero(f"0 has no inverse in F_{self.field.q}")
        return FieldElement(pow(self.value, self.field.q - 2, self.field.q), self.field)

    def is_zero(self) -> bool:
        return self.value == 0

    def is_mth_power(self, m: int) -> bool:
        """Whether this element is an m-th power in F_q (odd q only).

        Zero always is.  Otherwise the element is an m-th power exactly
        when raising it to (q-1)/gcd(m, q-1) gives 1; for m = 2 this is
        the Euler criterion.
        """
        if m < 1:
            raise ValueError(f"power index must be positive, got {m}")
        self.field._require_odd()
        if self.value == 0:
            return True
        q = self.field.q
        g = math.gcd(m, q - 1)
        return pow(self.value, (q - 1) // g, q) == 1

    def sqrt(self) -> "FieldElement | None":
        """The smaller square root, or None when no root exists (odd q only)."""
        self.field._require_odd()
        q = self.field.q
        a = self.value
        if a == 0:
            return self.field.zero
        if pow(a, (q - 1) // 2, q) != 1:
            return None
        if q % 4 == 3:
            root = pow(a, (q + 1) // 4, q)
        else:
            root = _tonelli_shanks(a, q, self.field.smallest_nonresidue())
        return FieldElement(min(root, q - root), self.field)

    def mth_root(self, m: int) -> "FieldElement":
        """The smallest x with x^m equal to this element (odd q only).

        When gcd(m, q-1) = 1 the root is unique and obtained by raising
        to the inverse exponent; otherwise the field is scanned in
        canonical order, which is capped at q <= 10^6.  Raises NoRoot
        when the element is not an m-th power.
        """
        if m < 1:
            raise ValueError(f"root index must be positive, got {m}")
        self.field._require_odd()
        q = self.field.q
        if self.value == 0:
            return self.field.zero
        if not self.is_mth_power(m):
            raise NoRoot(f"{self.value} is not an {m}-th power in F_{q}")
        if math.gcd(m, q - 1) == 1:
            exponent = pow(m, -1, q - 1)
            return FieldElement(pow(self.value, exponent, q), self.field)
        if q > ROOT_SCAN_CAP:
            raise ScanCapExceeded(
                f"m-th root scan needs q <= {ROOT_SCAN_CAP}, got q = {q}"
            )
        for x in range(q):
            if pow(x, m, q) == self.value:
                return FieldElement(x, self.field)
        raise AssertionError("unreachable: the residue test guaranteed a root")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FieldElement)
            and other.field.q == self.field.q
            and other.value == self.value
        )

    def __hash__(self) -> int:
        return hash((self.field.q, self.value))

    def __repr__(self) -> str:
        return f"FieldElement({self.value} mod {self.field.q})"


def _tonelli_shanks(a: int, q: int, nonresidue: int) -> int:
    """One square root of the residue a, for odd prime q = 1 (mod 4)."""
    t, s = q - 1, 0
    while t % 2 == 0:
        t //= 2
        s += 1
    c = pow(nonresidue, t, q)
    x = pow(a, (t + 1) // 2, q)
    b = pow(a, t, q)
    m = s
    while b != 1:
        i = 0
        sq = b
        while sq != 1:
            sq = sq * sq % q
            i += 1
        step = pow(c, 1 << (m - i - 1), q)
        x = x * step % q
        c = step * step % q
        b = b * c % q
        m = i
    return x


def as_field(q_or_field) -> PrimeField:
    """Accept either a PrimeField or a raw order."""
    if isinstance(q_or_field, PrimeField):
        return q_or_field
    return PrimeField(q_or_field)
