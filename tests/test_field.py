"""Field arithmetic against brute-force residue oracles."""

import pytest
from hypothesis import given, strategies as st

from fqsim import (
    DivisionByZero,
    EvenFieldUnsupported,
    FieldMismatch,
    NoRoot,
    NotPrime,
    ScanCapExceeded,
    TooLarge,
    make_field,
)

ODD_PRIMES_TO_97 = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
                    53, 59, 61, 67, 71, 73, 79, 83, 89, 97]


def squares_oracle(q):
    return {b * b % q for b in range(q)}


def mth_powers_oracle(q, m):
    return {pow(b, m, q) for b in range(q)}


def smallest_root_oracle(q, m):
    """value -> smallest x with x^m = value, by full enumeration."""
    roots = {}
    for x in range(q):
        p = pow(x, m, q)
        roots.setdefault(p, x)
    return roots


class TestMakeField:
    def test_prime_accepted(self):
        assert make_field(5).q == 5

    def test_composite_rejected(self):
        with pytest.raises(NotPrime):
            make_field(9)

    def test_two_allowed_but_not_odd(self):
        f = make_field(2)
        assert (f(1) + f(1)).value == 0
        with pytest.raises(EvenFieldUnsupported):
            f(1).sqrt()

    def test_too_small(self):
        with pytest.raises(ValueError):
            make_field(1)

    def test_too_large(self):
        with pytest.raises(TooLarge):
            make_field((1 << 32) + 15)

    def test_large_prime_ok(self):
        assert make_field(4294967291).q == 4294967291  # largest prime below 2^32


class TestArith:
    def test_examples(self):
        f = make_field(5)
        assert (f(3) * f(4)).value == 2
        assert (f(1) / f(2)).value == 3
        assert (f(2) + f(3)).value == 0
        assert (f(2) - f(3)).value == 4

    def test_division_by_zero(self):
        f = make_field(5)
        with pytest.raises(DivisionByZero):
            f(1) / f(0)
        with pytest.raises(DivisionByZero):
            f(0).inverse()

    def test_field_mismatch(self):
        a, b = make_field(5)(1), make_field(7)(1)
        for op in (lambda: a + b, lambda: a - b, lambda: a * b, lambda: a / b):
            with pytest.raises(FieldMismatch):
                op()

    def test_characteristic_two_arithmetic(self):
        f = make_field(2)
        assert (f(1) + f(1)).value == 0
        assert (f(1) / f(1)).value == 1

    @given(st.sampled_from([3, 5, 7, 13, 97]), st.integers(1, 10 ** 6))
    def test_inverse_and_fermat(self, q, raw):
        f = make_field(q)
        a = f(raw)
        if a.value == 0:
            return
        assert (a * a.inverse()).value == 1
        assert (a ** (q - 1)).value == 1


class TestPow:
    def test_examples(self):
        assert (make_field(5)(2) ** 4).value == 1
        assert (make_field(7)(3) ** 0).value == 1
        assert (make_field(5)(2) ** 3).value == 3

    def test_zero_to_zero(self):
        assert (make_field(5)(0) ** 0).value == 1

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            make_field(5)(2) ** -1


class TestIsMthPower:
    def test_examples(self):
        f = make_field(5)
        assert f(4).is_mth_power(2)
        assert not f(2).is_mth_power(2)
        assert make_field(7)(0).is_mth_power(3)

    def test_even_field_unsupported(self):
        with pytest.raises(EvenFieldUnsupported):
            make_field(2)(1).is_mth_power(2)

    @pytest.mark.parametrize("q", ODD_PRIMES_TO_97)
    def test_squares_match_oracle(self, q):
        f = make_field(q)
        oracle = squares_oracle(q)
        for v in range(q):
            assert f(v).is_mth_power(2) == (v in oracle)

    @pytest.mark.parametrize("q", [3, 5, 7, 13])
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
    def test_general_powers_match_oracle(self, q, m):
        f = make_field(q)
        oracle = mth_powers_oracle(q, m)
        for v in range(q):
            assert f(v).is_mth_power(m) == (v in oracle)

    @pytest.mark.parametrize("q", ODD_PRIMES_TO_97)
    def test_nonzero_square_count(self, q):
        f = make_field(q)
        nonzero_squares = [v for v in range(1, q) if f(v).is_mth_power(2)]
        assert len(nonzero_squares) == (q - 1) // 2


class TestSqrt:
    def test_examples(self):
        assert make_field(5)(4).sqrt().value == 2
        assert make_field(13)(3).sqrt().value == 4
        assert make_field(5)(2).sqrt() is None

    def test_even_field_unsupported(self):
        with pytest.raises(EvenFieldUnsupported):
            make_field(2)(1).sqrt()

    @pytest.mark.parametrize("q", ODD_PRIMES_TO_97)
    def test_matches_oracle(self, q):
        f = make_field(q)
        oracle = smallest_root_oracle(q, 2)
        for v in range(q):
            got = f(v).sqrt()
            if v in oracle:
                assert got is not None
                assert got.value == oracle[v]
                assert (got * got).value == v
            else:
                assert got is None


class TestMthRoot:
    def test_examples(self):
        f = make_field(5)
        assert f(1).mth_root(2).value == 1
        assert f(4).mth_root(2).value == 2
        with pytest.raises(NoRoot):
            f(3).mth_root(2)

    def test_zero(self):
        assert make_field(7)(0).mth_root(3).value == 0

    def test_coprime_fast_path(self):
        # gcd(3, 4) = 1 in F_5: cubing is a bijection
        f = make_field(5)
        for v in range(5):
            root = f(v).mth_root(3)
            assert (root ** 3).value == v

    def test_even_field_unsupported(self):
        with pytest.raises(EvenFieldUnsupported):
            make_field(2)(1).mth_root(2)

    def test_scan_cap(self):
        f = make_field(1000003)
        with pytest.raises(ScanCapExceeded):
            f(4).mth_root(2)

    @pytest.mark.parametrize("q", [3, 5, 7, 13, 17])
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
    def test_matches_oracle(self, q, m):
        f = make_field(q)
        oracle = smallest_root_oracle(q, m)
        for v in range(q):
            if v in oracle:
                assert f(v).mth_root(m).value == oracle[v]
            else:
                with pytest.raises(NoRoot):
                    f(v).mth_root(m)


def test_smallest_nonresidue_is_a_nonresidue():
    for q in ODD_PRIMES_TO_97:
        f = make_field(q)
        n = f.smallest_nonresidue()
        assert not f(n).is_mth_power(2)
        assert all(f(v).is_mth_power(2) for v in range(2, n))


def test_field_equality_by_order():
    assert make_field(5) == make_field(5)
    assert (make_field(5)(3) + make_field(5)(4)).value == 2
