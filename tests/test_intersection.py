"""Intersection maximization, double counting, and the fast translation kernel."""

import functools
import hashlib
import itertools
import random
import re
import tracemalloc
import warnings
from fractions import Fraction
from math import isqrt
from operator import mul

import pytest
from hypothesis import given, settings, strategies as st

from fqsim import (
    DimensionMismatch,
    EnumerationCapExceeded,
    FieldMismatch,
    FqsimError,
    IntersectionReport,
    Matrix,
    NotTransitive,
    PointSet,
    SpaceMismatch,
    SplitMix64,
    Vector,
    canonical_json,
    exhaustive_pairs_audit,
    intersect_count,
    make_field,
    max_intersection,
    max_translation_intersection_fast,
    orthogonal_group,
    random_pairs_audit,
    random_pointset,
    random_subset,
    Space,
    SpecialLinear,
    SweepConfig,
    find_det_similar,
    special_linear_group,
    Translation,
    translations,
)
import fqsim.intersection
from fqsim.geometry import _det_rows, _inverse_rows
from fqsim.intersection import (
    _codes,
    _coset_counts,
    _coset_images,
    _coset_overlap,
    _first_special_linear_code,
    _report_from_counts,
    _shift_overlap,
    _smallest_coset_code,
    _space_table,
    _special_linear_order,
    _special_linear_plan,
    _translation_counts,
    _transporter_counts,
)

from helpers import (assert_same_report, completion, flat_index, from_coords, naive_translation_counts,
                     oracle_translation_report, scaled_by_vectors, translated, translation_count_map)

F3 = make_field(3)
F5 = make_field(5)


def is_dense(e_set, h_set):
    """Whether the translation kernel takes the bit-slot branch."""
    return not isinstance(_translation_counts(e_set, _codes(h_set, 2 * e_set.field.q)), dict)


class TestIntersectCount:
    def test_identity_self_overlap(self):
        e = from_coords(F3, 2, [[0, 0], [1, 2]])
        group = translations(3, 2)
        assert intersect_count(group.identity, e, e) == 2

    def test_disjoint(self):
        e = from_coords(F3, 1, [[0]])
        h = from_coords(F3, 1, [[2]])
        group = translations(3, 1)
        assert intersect_count(group.identity, e, h) == 0

    def test_shift_example(self):
        e = from_coords(F3, 1, [[0], [1]])
        from fqsim import Translation

        g = Translation(Vector(F3, [1]))
        assert intersect_count(g, e, e) == 1

    def test_mismatch(self):
        with pytest.raises(SpaceMismatch):
            intersect_count(
                translations(3, 1).identity,
                from_coords(F3, 1, [[0]]),
                from_coords(F5, 1, [[0]]),
            )


class TestMaxIntersection:
    def test_full_space_equality_case(self):
        group = translations(3, 2)
        full = Space.full(F3, 2)
        rep = max_intersection(group, full, full)
        assert rep.best_count == 9
        assert rep.bound == 9
        assert rep.satisfies_bound

    def test_counts_example(self):
        group = translations(3, 1)
        e = from_coords(F3, 1, [[0], [1]])
        rep = max_intersection(group, e, e, want_histogram=True)
        assert rep.best_count == 2
        assert rep.bound == Fraction(4, 3)
        assert rep.double_count_total == 4
        assert rep.per_g_histogram == {2: 1, 1: 2}
        assert rep.best_g == group.identity

    def test_matches_naive_scan_on_random_sets(self):
        for seed in range(10):
            e = random_pointset(5, 2, 6, seed=seed * 2 + 1)
            h = random_pointset(5, 2, 9, seed=seed * 2 + 2)
            rep = max_intersection(translations(5, 2), e, h)
            oracle = naive_translation_counts(e, h)
            assert rep.best_count == max(oracle.values())
            assert rep.best_count >= Fraction(len(e) * len(h), 25)

    def test_empty_set_is_warning_not_error(self):
        group = translations(3, 1)
        empty = PointSet(F3, 1)
        e = from_coords(F3, 1, [[0]])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rep = max_intersection(group, empty, e)
        assert rep.best_count == 0
        assert rep.bound == 0
        assert any("vacuous" in str(w.message) for w in caught)

    def test_space_mismatch(self):
        group = special_linear_group(3, 2)
        with_origin = from_coords(F3, 2, [[0, 0], [1, 0]])
        ok = from_coords(F3, 2, [[1, 0]])
        outside = "Vector([0, 0] mod 3) is not a point of Space(punctured, q=3, d=2, size=8)"
        with pytest.raises(SpaceMismatch, match=r"^moving set: " + re.escape(outside) + "$"):
            max_intersection(group, with_origin, ok)
        with pytest.raises(SpaceMismatch, match=r"^fixed set: " + re.escape(outside) + "$"):
            max_intersection(group, ok, with_origin)
        other = from_coords(F5, 2, [[1, 0]])
        with pytest.raises(SpaceMismatch, match=r"^moving set lives in F_5\^2, the group acts on F_3\^2$"):
            max_intersection(group, other, ok)

    def test_tie_break_is_canonical_smallest(self):
        group = translations(3, 1)
        # H = whole line: every shift ties at 1, so the zero shift must win
        e = from_coords(F3, 1, [[1]])
        h = Space.full(F3, 1)
        rep = max_intersection(group, e, h)
        assert rep.best_g == group.identity

    def test_best_count_at_least_average(self):
        for seed in range(8):
            e = random_pointset(5, 2, 4 + seed, seed=seed)
            h = random_pointset(5, 2, 10, seed=seed + 50)
            rep = max_intersection(translations(5, 2), e, h)
            assert rep.best_count >= Fraction(rep.double_count_total, rep.group_order)


class TestDoubleCount:
    def test_example(self):
        rep = max_intersection(
            translations(3, 1),
            from_coords(F3, 1, [[0], [1]]),
            from_coords(F3, 1, [[0], [1]]),
        )
        assert rep.double_count_total == 4
        assert rep.double_count_expected == 4
        assert rep.double_count_ok and rep.transitive

    def test_empty(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rep = max_intersection(
                translations(3, 1), PointSet(F3, 1), PointSet(F3, 1)
            )
        assert rep.double_count_total == 0 and rep.double_count_ok

    def test_singleton_under_special_linear(self):
        group = special_linear_group(3, 2)
        s = from_coords(F3, 2, [[1, 0]])
        rep = max_intersection(group, s, s)
        assert rep.double_count_total == 3
        assert rep.double_count_expected == Fraction(24 * 1 * 1, 8)
        assert rep.double_count_ok

    def test_non_transitive_reported_not_fatal(self):
        group = orthogonal_group(3, 2)  # full space: origin is a fixed point
        e = from_coords(F3, 2, [[1, 0]])
        rep = max_intersection(group, e, e)
        assert not rep.transitive


class TestFastTranslationKernel:
    def test_singleton(self):
        e = from_coords(F5, 2, [[1, 2]])
        rep = max_translation_intersection_fast(e, e)
        assert rep.best_count == 1
        assert rep.best_g.vector.coords == (0, 0)

    def test_exact_translate_recovers_shift(self):
        e = from_coords(F5, 2, [[0, 0], [1, 2], [3, 1]])
        shift = Vector(F5, [2, 4])
        h = translated(e, shift)
        rep = max_translation_intersection_fast(e, h)
        assert rep.best_count == len(e)
        assert rep.best_g.vector == shift

    def test_agrees_with_naive_scan(self):
        trial = 0
        for q in (2, 3, 5, 7):
            for d in (1, 2):
                total = q ** d
                for _ in range(4):
                    trial += 1
                    e = random_pointset(q, d, (trial * 3) % (total + 1), seed=trial)
                    h = random_pointset(q, d, (trial * 5) % (total + 1), seed=trial + 1000)
                    with warnings.catch_warnings():
                        warnings.simplefilter("ignore")
                        fast = translation_count_map(e, h)
                        oracle = naive_translation_counts(e, h)
                        rep_fast = max_translation_intersection_fast(e, h, want_histogram=True)
                        rep_naive = max_intersection(
                            translations(e.field, d), e, h, want_histogram=True
                        )
                    assert fast == oracle
                    assert rep_fast.best_count == rep_naive.best_count
                    assert rep_fast.best_g == rep_naive.best_g
                    assert rep_fast.double_count_total == rep_naive.double_count_total
                    assert rep_fast.per_g_histogram == rep_naive.per_g_histogram

    # Bit slots run when w·|H| + 40·q^d <= 7000·|H|², w = q(2q)^(d-1);
    # each case is (q, d, |E|, |H|, whether bit slots run).
    BRANCH_CASES = [
        (2, 2, 4, 4, True),     # the whole space as H
        (2, 2, 3, 4, True),
        (5, 2, 10, 10, True),
        (5, 2, 9, 11, True),
        (2, 3, 8, 8, True),     # the whole space twice
        (3, 3, 10, 20, True),
        (3, 3, 15, 15, True),
        (5, 3, 9, 1, True),     # 500 + 5,000 <= 7,000: every nonempty H
        (31, 2, 9, 2, False),   # 3,844 + 38,440 > 28,000
        (31, 2, 9, 3, True),    # 5,766 + 38,440 <= 63,000: the smallest dense |H|
        (17, 2, 40, 1, False),  # 578 + 11,560 > 7,000
        (17, 2, 40, 2, True),   # 1,156 + 11,560 <= 28,000
        (3, 3, 0, 12, False),   # an empty E takes no slots
        (3, 3, 12, 0, False),
        (3, 3, 0, 0, False),
    ]

    @pytest.mark.parametrize("q, d, n_e, n_h, dense", [
        pytest.param(*case, id="-".join(map(str, case[:4]))) for case in BRANCH_CASES
    ])
    def test_both_kernel_branches_match_naive(self, q, d, n_e, n_h, dense):
        e = random_pointset(q, d, n_e, seed=q * 100 + n_e)
        h = random_pointset(q, d, n_h, seed=q * 100 + n_h + 50)
        assert is_dense(e, h) == dense
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            fast = translation_count_map(e, h)
            oracle = naive_translation_counts(e, h)
            rep_fast = max_translation_intersection_fast(e, h, want_histogram=True)
            rep_naive = max_intersection(translations(q, d), e, h, want_histogram=True)
        assert 0 not in fast.values()
        assert fast == oracle
        assert rep_fast.best_count == rep_naive.best_count
        assert rep_fast.best_g == rep_naive.best_g
        assert rep_fast.double_count_total == rep_naive.double_count_total
        assert rep_fast.per_g_histogram == rep_naive.per_g_histogram

    def test_large_q_allocates_nothing_of_size_q(self):
        q = 1000003
        e = random_pointset(q, 3, 40, seed=1)
        h = random_pointset(q, 3, 40, seed=2)
        tracemalloc.start()
        try:
            rep = max_translation_intersection_fast(e, h, want_histogram=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert rep.double_count_total == 1600
        assert sum(rep.per_g_histogram.values()) == q ** 3

    def test_counts_past_one_byte(self):
        # E = H = F_17^2: every shift counts 289, past one byte (nine planes)
        f17 = make_field(17)
        full = Space.full(f17, 2)
        assert is_dense(full, full)
        for hist in (False, True):
            rep = max_translation_intersection_fast(full, full, want_histogram=hist)
            assert_same_report(rep, max_intersection(translations(17, 2), full, full,
                                                     want_histogram=hist))
        assert rep.best_count == 289 and rep.per_g_histogram == {289: 289}
        assert rep.best_g.vector.coords == (0, 0)

    @pytest.mark.parametrize("n_e", [255, 256, 511])
    def test_chunk_edges(self, n_e):
        e = random_pointset(101, 2, n_e, seed=n_e)
        h = scaled_by_vectors(e, make_field(101)(3))
        assert is_dense(e, h)
        for hist in (False, True):
            assert_same_report(max_translation_intersection_fast(e, h, want_histogram=hist),
                               oracle_translation_report(e, h, hist))

    @pytest.mark.parametrize("q, d, n_e, n_h", [
        (283, 1, 283, 283),  # the whole line: nine planes
        (283, 1, 40, 90),
        (2, 1, 1, 2),
        (2, 3, 5, 8),
        (2, 8, 200, 256),    # the whole of F_2^8 as H
        (5, 3, 60, 70),
        (13, 2, 30, 169),
    ])
    def test_other_shapes_match_group_scan(self, q, d, n_e, n_h):
        e = random_pointset(q, d, n_e, seed=n_e + d)
        h = random_pointset(q, d, n_h, seed=n_h + q)
        assert is_dense(e, h)
        for hist in (False, True):
            assert_same_report(max_translation_intersection_fast(e, h, want_histogram=hist),
                               max_intersection(translations(q, d), e, h, want_histogram=hist))

    @pytest.mark.parametrize("q, d, n_e, n_h", [
        (1009, 1, 300, 400),
        (31, 3, 120, 300),
        (101, 2, 40, 450),
    ])
    def test_large_spaces_match_pair_oracle(self, q, d, n_e, n_h):
        e = random_pointset(q, d, n_e, seed=q + n_e)
        h = random_pointset(q, d, n_h, seed=q + n_h)
        assert is_dense(e, h)
        assert_same_report(max_translation_intersection_fast(e, h, want_histogram=True),
                           oracle_translation_report(e, h, True))

    @pytest.mark.parametrize("q, d, n_e, n_h", [
        (31, 2, 9, 2),
        (17, 2, 40, 1),
        (1009, 2, 30, 40),
    ])
    def test_sparse_histogram_counts_the_zero_shifts(self, q, d, n_e, n_h):
        e = random_pointset(q, d, n_e, seed=q + n_e)
        h = random_pointset(q, d, n_h, seed=q + n_h)
        assert not is_dense(e, h)
        reached = len(_translation_counts(e, _codes(h, 2 * q)))  # the shifts some pair reaches
        rep = max_translation_intersection_fast(e, h, want_histogram=True)
        assert rep.per_g_histogram[0] == q ** d - reached > 0
        assert rep.double_count_total == n_e * n_h
        assert_same_report(rep, oracle_translation_report(e, h, True))

    def test_byte_slots_memory_at_finder_scale(self):
        # The finder's 450-point scan of F_101^2: a 5,101-byte table, masks
        # and nine bit planes of 20,402 bits, the valid-slot mask it caches
        # and one histogram group per distinct count (~150 KB measured, ~73
        # KB without the histogram; the difference-code branch peaks at ~3
        # MB here).
        q = 101
        e = random_pointset(q, 2, 450, seed=1)
        h = scaled_by_vectors(e, make_field(q)(2))
        assert is_dense(e, h)
        fqsim.intersection._valid_slots.cache_clear()
        tracemalloc.start()
        try:
            rep = max_translation_intersection_fast(e, h, want_histogram=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * (2 * q) ** 2
        assert rep.double_count_total == 450 * 450
        assert sum(rep.per_g_histogram.values()) == q ** 2

    @pytest.mark.parametrize("n_e", [1, 2, 3, 254, 255, 256, 510, 511])
    def test_bit_slots_match_pair_oracle_across_chunks(self, n_e):
        # 1 to 3 points fill 1 or 2 planes; from 255 to 256 points the
        # planes go from 8 to 9, and 510 and 511 points fill all 9.
        e = random_pointset(101, 2, n_e, seed=n_e + 7)
        h = random_pointset(101, 2, 300, seed=3)
        assert is_dense(e, h)
        assert translation_count_map(e, h) == naive_translation_counts(e, h)
        assert_same_report(max_translation_intersection_fast(e, h, want_histogram=True),
                           oracle_translation_report(e, h, True))

    @pytest.mark.parametrize("n_e", [127, 128, 255, 256, 289])
    def test_bit_slots_with_the_whole_space_as_h(self, n_e):
        # Every mask is all ones, so every plane fills and 128 or more
        # points carry into the eighth plane; every shift counts |E|.
        f17 = make_field(17)
        full = Space.full(f17, 2)
        e = random_pointset(17, 2, n_e, seed=n_e)
        assert is_dense(e, full)
        counts = translation_count_map(e, full)
        assert counts == naive_translation_counts(e, full)
        assert len(counts) == 289 and set(counts.values()) == {n_e}
        rep = max_translation_intersection_fast(e, full, want_histogram=True)
        assert rep.per_g_histogram == {n_e: 289} and rep.best_g.vector.coords == (0, 0)

    @pytest.mark.parametrize("d", [1, 3, 8])
    def test_bit_slots_over_f2(self, d):
        # q = 2: windows of 2, 32 and 32,768 bits, on spaces of 2 to 256 points.
        n = 2 ** d
        for n_e, n_h in ((1, n), (n, n), (n // 2, n), (n, n // 2)):
            e = random_pointset(2, d, n_e, seed=n_e + d)
            h = random_pointset(2, d, n_h, seed=n_h + d + 1)
            assert is_dense(e, h)
            assert_same_report(max_translation_intersection_fast(e, h, want_histogram=True),
                               max_intersection(translations(2, d), e, h, want_histogram=True))

    @pytest.mark.parametrize("q, n_e, n_h", [(5, 125, 125), (7, 300, 200), (7, 40, 343)])
    def test_bit_slots_in_dimension_three(self, q, n_e, n_h):
        e = random_pointset(q, 3, n_e, seed=q + n_e)
        h = random_pointset(q, 3, n_h, seed=q + n_h)
        assert is_dense(e, h)
        assert_same_report(max_translation_intersection_fast(e, h, want_histogram=True),
                           oracle_translation_report(e, h, True))

    @given(st.sampled_from([(2, 1), (2, 4), (3, 2), (5, 2), (7, 2), (3, 3), (5, 3)]), st.data())
    @settings(max_examples=60, deadline=None)
    def test_bit_slots_property(self, shape, data):
        q, d = shape
        space = q ** d
        n_h = data.draw(st.integers(max(1, space // 3), space), label="|H|")
        n_e = data.draw(st.integers(1, space), label="|E|")
        e = random_pointset(q, d, n_e, seed=data.draw(st.integers(0, 2 ** 32), label="seed E"))
        h = random_pointset(q, d, n_h, seed=data.draw(st.integers(0, 2 ** 32), label="seed H"))
        assert is_dense(e, h)
        assert translation_count_map(e, h) == naive_translation_counts(e, h)

    def test_histogram_frequencies_sum_to_group_order(self):
        e = random_pointset(5, 2, 7, seed=5)
        h = random_pointset(5, 2, 11, seed=6)
        rep = max_translation_intersection_fast(e, h, want_histogram=True)
        assert sum(rep.per_g_histogram.values()) == 25

    def test_mismatches(self):
        with pytest.raises(FieldMismatch):
            max_translation_intersection_fast(
                from_coords(F3, 1, [[0]]), from_coords(F5, 1, [[0]])
            )
        with pytest.raises(DimensionMismatch):
            max_translation_intersection_fast(
                from_coords(F3, 1, [[0]]), from_coords(F3, 2, [[0, 0]])
            )


# (q, d) of the pinned translation reports; the draws are `pinned_draws`.
PINNED_SHAPES = [(2, 1), (2, 3), (2, 8), (3, 2), (5, 2), (7, 2), (13, 2), (17, 2),
                 (101, 2), (5, 3), (7, 3), (3, 4), (31, 1), (1009, 1)]


def pinned_draws(q, d):
    """15 seeded (E, H) pairs of F_q^d: |E| up to 300 points, |H| up to 300
    points and, every third draw, up to 30, so both kernel branches run."""
    total = q ** d
    sizes = SplitMix64(q * 100 + d)
    for i in range(15):
        n_e = sizes.next_below(min(total, 300) + 1)
        n_h = sizes.next_below(min(total, 30 if i % 3 == 0 else 300) + 1)
        yield (random_pointset(q, d, n_e, seed=q * 1000 + d * 100 + 2 * i),
               random_pointset(q, d, n_h, seed=q * 1000 + d * 100 + 2 * i + 1))


class TestTranslationReadout:
    """The translation kernel's report, pinned byte for byte and checked
    against the pair oracle where the bit-slot readout has edges."""

    def test_reports_are_golden(self):
        # sha256 over the canonical JSON of every report, histogram off and
        # on, recorded before the bit-slot branch read its report off the
        # bit planes instead of a byte per slot.
        digest = hashlib.sha256()
        branches = set()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # empty draws are legitimate here
            for q, d in PINNED_SHAPES:
                for e, h in pinned_draws(q, d):
                    branches.add(is_dense(e, h))
                    for hist in (False, True):
                        rep = max_translation_intersection_fast(e, h, want_histogram=hist)
                        digest.update(canonical_json(rep.to_json()).encode() + b"\n")
        assert branches == {False, True}
        assert digest.hexdigest() == (
            "52c073e690c35c1e68bd38f9a92073a66838e06beb054ab95b97648a7a477528")

    @pytest.mark.parametrize("n_e", [1, 2, 3, 4, 7, 8, 255, 256, 511, 512])
    def test_plane_counts_match_pair_oracle(self, n_e):
        # |E| where n.bit_length(), the number of bit planes, steps or not.
        e = random_pointset(101, 2, n_e, seed=n_e + 11)
        h = random_pointset(101, 2, 60, seed=5)
        assert is_dense(e, h)
        assert translation_count_map(e, h) == naive_translation_counts(e, h)
        for hist in (False, True):
            assert_same_report(max_translation_intersection_fast(e, h, want_histogram=hist),
                               oracle_translation_report(e, h, hist))

    @pytest.mark.parametrize("q, d, side", [(1009, 1, 300), (61, 2, 16)])
    def test_histogram_of_many_distinct_counts(self, q, d, side):
        # E = H = a box of side s from the origin: the shift a counts
        # Π (s - |a_i|), so the histogram has hundreds of distinct counts.
        field = make_field(q)
        box = from_coords(field, d, list(itertools.product(range(side), repeat=d)))
        assert is_dense(box, box)
        rep = max_translation_intersection_fast(box, box, want_histogram=True)
        assert len(rep.per_g_histogram) > side
        assert_same_report(rep, oracle_translation_report(box, box, True))

    def test_argmax_tie_across_rows(self):
        # Shifts (1, 5) and (3, 2) both count 2; the first in flat order
        # wins although (3, 2) has the smaller last digit.
        f7 = make_field(7)
        e = from_coords(f7, 2, [[0, 0], [0, 1]])
        h = from_coords(f7, 2, [[1, 5], [1, 6], [3, 2], [3, 3]])
        assert is_dense(e, h)
        for hist in (False, True):
            rep = max_translation_intersection_fast(e, h, want_histogram=hist)
            assert rep.best_count == 2 and rep.best_g.vector.coords == (1, 5)
            assert_same_report(rep, oracle_translation_report(e, h, hist))


class TestByteTotals:
    """The byte kernels' double-count total, read off the counts' Adler-32
    checksum while best·|G| < 65,520 and summed past it, is their sum."""

    @pytest.mark.parametrize("size, best, fill", [
        (1, 1, 1), (256, 255, 255), (65519, 1, 1), (65520, 1, 1), (21839, 3, 3), (21840, 3, 3),
        (336, 8, 0), (372000, 5, 0)])
    def test_total_is_the_byte_sum(self, size, best, fill):
        # every byte `fill`, or, for fill 0, a spread of values up to `best`, the last one best
        if fill:
            counts = bytes([fill]) * size
        else:
            counts = bytes((i * 7 + 3) % (best + 1) for i in range(size - 1)) + bytes([best])
        field = make_field(257)
        points = from_coords(field, 1, [[i] for i in range(best)])
        report = _report_from_counts(counts, points, points, decode=lambda i: i, first=0,
                                     group_order=len(counts), space_size=257, transitive=True,
                                     want_histogram=False)[0]
        assert (report.best_count, report.double_count_total) == (max(counts), sum(counts))
        assert report.best_g == counts.index(max(counts))


@functools.lru_cache(maxsize=None)
def translation_group(q, d):
    """T(q, d), enumerated once per module."""
    return translations(q, d)


class TestPlanePieces:
    """The bit-plane branch takes each point's mask from one of
    isqrt(|E|) pieces of the lifted table, width + stride bits from each
    multiple of stride: counts and reports against the pair oracle and the
    group scan where the pieces have edges."""

    @staticmethod
    def check(e, h):
        assert is_dense(e, h)
        assert translation_count_map(e, h) == naive_translation_counts(e, h)
        group = translation_group(e.field.q, e.dim)
        for hist in (False, True):
            assert_same_report(max_translation_intersection_fast(e, h, want_histogram=hist),
                               max_intersection(group, e, h, want_histogram=hist))

    @pytest.mark.parametrize("n_e", [1, 2, 3, 4, 8, 9, 15, 16, 17])
    def test_piece_count_steps(self, n_e):
        # isqrt(|E|), the number of pieces, steps at 4, 9 and 16; with H the
        # whole space every window bit is set, so a bit a piece lost would show.
        f7 = make_field(7)
        e = random_pointset(f7, 2, n_e, seed=n_e + 3)
        self.check(e, random_pointset(f7, 2, 30, seed=n_e))
        self.check(e, Space.full(f7, 2))

    @pytest.mark.parametrize("q, d, n_e", [(31, 1, 9), (7, 2, 16)])
    def test_shifts_on_the_edges_of_the_pieces(self, q, d, n_e):
        # E holds shift 0, the first bit of the first piece, and every last
        # shift of a piece whose next shift, the first of the next piece, is
        # a point too.
        field = make_field(q)
        weights = [(2 * q) ** (d - 1 - i) for i in range(d)]
        stride = -(-q * weights[0] // isqrt(n_e))
        by_code = {sum(map(mul, x, weights)): x
                   for x in itertools.product(range(q), repeat=d)}
        edges = {0} | {c + i for c in by_code if c % stride == stride - 1 and c + 1 in by_code
                       for i in (0, 1)}
        assert len(edges) >= 3
        fill = (c for c in sorted(by_code, key=lambda c: c * 7919 % len(by_code) ** 2)
                if c not in edges)
        codes = edges | {next(fill) for _ in range(n_e - len(edges))}
        e = from_coords(field, d, [by_code[c] for c in codes])
        assert len(e) == n_e
        self.check(e, Space.full(field, d))
        self.check(e, random_pointset(field, d, q ** d // 2, seed=q))

    @pytest.mark.parametrize("d", [1, 3, 4])
    def test_over_f2(self, d):
        f2 = make_field(2)
        full = Space.full(f2, d)
        for n_e in sorted({1, 2, 3, 2 ** d} - {3 if d == 1 else 0}):
            e = random_pointset(f2, d, n_e, seed=n_e + d)
            self.check(e, full)
            if d > 1:
                self.check(e, random_pointset(f2, d, 2 ** d // 2, seed=d))

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_codes(self, d):
        # _codes is offset + Σ c_i·w_i with w_i = base^(d-1-i), by Horner's rule.
        weights = [(2 * 13) ** (d - 1 - i) for i in range(d)]
        points = random_pointset(13, d, 12, seed=d)
        for offset in (0, 13 * sum(weights)):
            assert _codes(points, 2 * 13, offset) == [
                offset + sum(map(mul, x, weights)) for x in points._coords]
            assert _codes(PointSet(make_field(13), d), 2 * 13, offset) == []


class TestPackedWindows:
    """E's points taken in pairs in code order, as the bit-plane branch
    can pack two masks into one window: the second of a pair cut from its
    own piece q bits further up, where the lowest digit of the first's
    slots is idle.  Counts against the pair oracle and reports against
    the enumerated group, for odd and even |E|, a second point at a
    piece's first q codes (a left shift) and on a piece's last code."""

    PACKED_SHAPES = [(257, 1), (17, 2), (7, 3), (2, 9)]

    @pytest.mark.parametrize("q, d", PACKED_SHAPES)
    @pytest.mark.parametrize("n_e", [1, 2, 3, 4, 5, 16, 17])
    def test_odd_and_even_sizes(self, q, d, n_e):
        # an odd |E| leaves its last mask unpaired; H the whole space sets
        # every slot of every mask, so a bit one half lost or took would show
        field = make_field(q)
        e = random_pointset(field, d, n_e, seed=n_e * 31 + d)
        TestPlanePieces.check(e, random_pointset(field, d, q ** d // 2, seed=n_e + q))
        TestPlanePieces.check(e, Space.full(field, d))

    @pytest.mark.parametrize("q, d, n_e", [(257, 1, 16), (17, 2, 16), (17, 2, 5), (7, 3, 16), (2, 9, 10)])
    def test_second_points_on_the_edges_of_their_pieces(self, q, d, n_e):
        # Two codes of E in the second place of a pair (an odd position in
        # code order): one less than q past its piece's start, whose mask
        # the kernel shifts left, and the last code of a piece.
        field = make_field(q)
        weights = [(2 * q) ** (d - 1 - i) for i in range(d)]
        stride = -(-q * weights[0] // isqrt(n_e))
        by_code = {sum(map(mul, x, weights)): x for x in itertools.product(range(q), repeat=d)}
        near = max(c for c in by_code if c % stride < q)
        last = min(c for c in by_code if c % stride == stride - 1)
        rng = random.Random(q * 100 + n_e)
        others = sorted(set(by_code) - {near, last})
        for _ in range(1000):
            codes = sorted([near, last, *rng.sample(others, n_e - 2)])
            if codes.index(near) % 2 and codes.index(last) % 2:
                break
        else:
            pytest.fail("no draw puts both codes second in their pairs")
        assert near % stride < q and last % stride == stride - 1
        e = from_coords(field, d, [by_code[c] for c in codes])
        TestPlanePieces.check(e, Space.full(field, d))
        TestPlanePieces.check(e, random_pointset(field, d, q ** d // 2, seed=q + d))


def sl_cases(q, d):
    """(E, H) pairs on the punctured space: all of it, empty sets, forced
    ties and seeded random subsets of assorted sizes."""
    space = Space.punctured(q, d)
    n = len(space)
    empty = PointSet(space.field, d)
    one = PointSet(space.field, d, space.points[:1])
    last = PointSet(space.field, d, space.points[-1:])
    cases = [(space, space), (empty, space), (space, empty), (empty, empty),
             (one, one), (one, last), (one, space), (space, last)]
    for seed in range(5):
        e = random_subset(space, (seed * 7 + 2) % (n + 1), seed)
        h = random_subset(space, (seed * 5 + 1) % (n + 1), seed + 100)
        cases.append((e, h))
    return cases


# (q, d, largest set) of the pinned det reports: the whole punctured space
# where scanning it is cheap, a few points where the stabiliser S is large.
DET_PINNED_SHAPES = [(2, 2, 3), (3, 2, 8), (5, 2, 24), (7, 2, 48), (13, 2, 168), (31, 2, 40),
                     (2, 3, 7), (3, 3, 26), (5, 3, 6), (2, 4, 15), (5, 1, 4), (31, 1, 30)]


def det_pinned_draws(q, d, top):
    """Seeded (E, H) pairs of the punctured space, sizes 1 to `top`: each
    size against itself and against the sizes in reverse."""
    space = Space.punctured(q, d)
    sizes = sorted({min(s, top) for s in (1, 2, 3, top // 4, top // 2, top)} - {0})
    for i, (n_e, n_h) in enumerate([*zip(sizes, sizes), *zip(sizes, reversed(sizes))]):
        seed = q * 1000 + d * 100 + 2 * i
        yield random_subset(space, n_e, seed), random_subset(space, n_h, seed + 1)


@functools.lru_cache(maxsize=None)
def sl_group(q, d):
    """SL(d, q), enumerated once per module."""
    return special_linear_group(q, d)


class TestTransporterKernel:
    """The finders' unimodular scan against max_intersection over SL(d, q)."""

    @pytest.mark.parametrize("q, d", [
        (2, 1), (3, 1), (5, 1), (2, 2), (3, 2), (5, 2), (2, 3), (3, 3),
    ])
    def test_matches_the_enumerated_group(self, q, d):
        group = special_linear_group(q, d)
        for e, h in sl_cases(q, d):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                kernel = _coset_overlap(e, 1, h, True)[0]
                oracle = max_intersection(group, e, h, want_histogram=True)
            assert_same_report(kernel, oracle)
            assert kernel.best_g in group
            if d >= 2:  # each pair (x, y) is sent by one coset of the stabiliser of e1
                assert kernel.double_count_total == len(e) * len(h) * group.order // (q ** d - 1)

    def test_exact_where_the_group_is_too_big_to_enumerate(self):
        # SL(3, 5) has 372000 elements: check every counted element directly
        # instead; the counts then sum to the double count only if none is missing
        from fqsim.intersection import _transporter_counts

        space = Space.punctured(5, 3)
        e = random_subset(space, 3, 11)
        h = random_subset(space, 4, 12)
        counts = _transporter_counts(e, h._coords)
        rep = _coset_overlap(e, 1, h, True)[0]
        assert rep.group_order == 372000
        assert sum(counts.values()) == rep.double_count_total == 3 * 4 * 372000 // 124
        for code, c in counts.items():
            flat = [code // 5 ** (8 - i) % 5 for i in range(9)]
            g = SpecialLinear(Matrix(F5, [flat[0:3], flat[3:6], flat[6:9]]))
            assert intersect_count(g, e, h) == c
        best = min(code for code, c in counts.items() if c == rep.best_count)
        assert rep.best_count == max(counts.values())
        flat = [best // 5 ** (8 - i) % 5 for i in range(9)]
        assert rep.best_g.matrix == Matrix(F5, [flat[0:3], flat[3:6], flat[6:9]])
        assert sum(rep.per_g_histogram.values()) == 372000

    @pytest.mark.parametrize("q, n", [(97, 5), (31, 3)])
    def test_exact_at_large_q_with_few_leads(self, q, n):
        # H's coordinates take a handful of the q values, so each per-point
        # table has |leads|·q rows, far fewer than q²: every counted code
        # is decoded and checked directly, and the q maps per pair sum to
        # the double count |E||H||S| with |S| = q.
        space = Space.punctured(q, 2)
        e, h = random_subset(space, n, q), random_subset(space, n, q + 1)
        assert len({c for y in h for c in y.coords}) <= 2 * n < q
        counts = _transporter_counts(e, h._coords)
        rep = _coset_overlap(e, 1, h, True)[0]
        assert rep.group_order == q * (q * q - 1)
        assert sum(counts.values()) == rep.double_count_total == n * n * q
        field = make_field(q)
        decode = lambda code: SpecialLinear(Matrix(field, [[code // q ** 3, code // q ** 2 % q],
                                                           [code // q % q, code % q]]))
        for code, c in counts.items():
            assert intersect_count(decode(code), e, h) == c
        assert rep.best_count == max(counts.values())
        assert rep.best_g == decode(min(code for code, c in counts.items() if c == rep.best_count))
        assert sum(rep.per_g_histogram.values()) == rep.group_order

    @pytest.mark.parametrize("q, d", [(7, 2), (17, 2), (3, 3), (7, 3)])
    def test_plan_is_built_once_per_shape_and_holds_only_tuples(self, q, d, monkeypatch):
        # Both sides of the byte bound q^d = 256: the coset scan and its
        # tie-break are handed the plan, the transporters look it up.
        space = Space.punctured(q, d)
        e, h = random_subset(space, 1, 1), random_subset(space, 1, 2)
        handed = []
        for name, at in (("_coset_counts", 2), ("_smallest_coset_code", 0)):
            def reader(*args, kernel=getattr(fqsim.intersection, name), at=at):
                handed.append(args[at])
                return kernel(*args)
            monkeypatch.setattr(fqsim.intersection, name, reader)
        _special_linear_plan.cache_clear()
        _coset_overlap(e, 1, h)  # 1-point sets: the |S| maps sending e to h tie
        _coset_overlap(h, 1, e)
        _transporter_counts(e, h._coords)
        info = _special_linear_plan.cache_info()
        assert (info.misses, info.hits) == (1, 2)
        plan = _special_linear_plan(q, d)
        assert len(handed) == (4 if q ** d <= 256 else 0) and all(p is plan for p in handed)

        def only_tuples(table):
            return isinstance(table, (int, bytes)) or (
                isinstance(table, tuple) and all(map(only_tuples, table)))

        assert only_tuples(plan)

    def test_reports_are_golden(self):
        # sha256 over the canonical JSON of every det report, histogram off
        # and on, then of the det finder's witness (or refusal) on every
        # cell of the det_sweep benchmark grid at three base seeds; recorded
        # before the kernel's (q, d) tables were built once per process.
        digest = hashlib.sha256()
        for q, d, top in DET_PINNED_SHAPES:
            for e, h in det_pinned_draws(q, d, top):
                for hist in (False, True):
                    rep = _coset_overlap(e, 1, h, hist)[0]
                    digest.update(canonical_json(rep.to_json()).encode() + b"\n")
        for base_seed in (1, 2, 3):
            config = SweepConfig(qs=(5, 7), d=2, ks=(2, 3), base_seed=base_seed,
                                 kind="det-similarity")
            for cell in config.cells():
                field = make_field(cell["q"])
                points = random_subset(Space.punctured(field, 2), cell["n"], cell["seed"])
                try:
                    out = find_det_similar(points, field(cell["r"]), cell["k"]).to_json()
                except FqsimError as exc:
                    out = {"error": type(exc).__name__, "message": str(exc)}
                digest.update(canonical_json(out).encode() + b"\n")
        assert digest.hexdigest() == (
            "3f84676f54bd7014cb08d9f6fa12f0aea5082155f432b31889bc46ad2072b081")

    def test_reports_past_the_byte_bound_are_golden(self):
        # sha256 over the canonical JSON of every det report, histogram off
        # and on, where q^d > 256 and the transporters count: d = 2 at a
        # small and a large q, and d = 3, where S holds SL(2, 7).  Recorded
        # before the transporter kernel read the shared (q, d) plan.
        digest = hashlib.sha256()
        for q, d, top in [(17, 2, 96), (97, 2, 40), (7, 3, 4)]:
            for e, h in det_pinned_draws(q, d, top):
                for hist in (False, True):
                    rep = _coset_overlap(e, 1, h, hist)[0]
                    digest.update(canonical_json(rep.to_json()).encode() + b"\n")
        assert digest.hexdigest() == (
            "af1abc33cecebcb1734d461ceeea7bac44f9d98d6b0a9c09fa9a5b60ea39dd07")

    def test_forced_ties_go_to_the_smallest_matrix(self):
        group = special_linear_group(5, 2)
        x = from_coords(F5, 2, [[1, 2]])
        y = from_coords(F5, 2, [[3, 0]])
        rep = _coset_overlap(x, 1, y, True)[0]
        # the q maps sending x to y tie at 1; every other element counts 0
        assert rep.per_g_histogram == {1: 5, 0: 115}
        assert rep.best_g == min(group.transporter(x.points[0], y.points[0]))

    def test_one_dimension_counts_the_common_points(self):
        e = from_coords(F5, 1, [[1], [2], [3]])
        h = from_coords(F5, 1, [[2], [3], [4]])
        rep = _coset_overlap(e, 1, h, True)[0]
        assert (rep.best_count, rep.double_count_total, rep.group_order) == (2, 2, 1)
        assert rep.per_g_histogram == {2: 1}
        assert rep.best_g == special_linear_group(5, 1).identity and not rep.transitive

    def test_empty_set_warns(self):
        e = from_coords(F5, 2, [[1, 0]])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rep = _coset_overlap(PointSet(F5, 2), 1, e)[0]
        assert rep.best_count == 0
        assert any("vacuous" in str(w.message) for w in caught)

    @pytest.mark.parametrize("q, d", [(2, 2), (3, 2), (5, 2), (7, 2), (2, 3), (3, 3), (2, 4)])
    def test_closed_form_inverse_of_the_completion(self, q, d):
        """The rows of h_x⁻¹ from what the kernel works out per point: the
        pivot i, 1/x_i off the plan and λ, r_0 = e_i/x_i, and the two
        nonzero entries of r_k, s_k at j_k and -s_k·x_jk/x_i at i."""
        inverse = _special_linear_plan(q, d)[2]
        for x in itertools.product(range(q), repeat=d):
            if not any(x):
                continue
            h = completion(x, q)
            assert [row[0] for row in h] == list(x) and _det_rows(h, q) == 1
            i = next(j for j, c in enumerate(x) if c)
            inv, s = inverse[x[i]], (-1) ** i * x[i] % q
            assert inv * x[i] % q == 1
            rows = [[0] * d for _ in range(d)]
            rows[0][i] = inv
            for row, j in zip(rows[1:], (j for j in range(d) if j != i)):
                row[j], row[i], s = s, -s * x[j] * inv % q, 1
            assert rows == _inverse_rows(h, q), x

    @pytest.mark.parametrize("q, d", [(13, 2), (17, 2), (5, 3), (7, 3)])
    def test_plan_reads_the_carrier_matrices(self, q, d):
        """Both sides of the byte bound: row r of h_c·s, s = [[1, b], [0, A]],
        is (c_r, c_r·b + h_c[r][1:]·A), so for every point c the plan's
        row-r table is h_c[r][1:]·A over A in canonical order and eb[e] is
        e·b over b in lex order, both coded in base 2q; h_c is the
        completion of c.  Below the bound columns[r] holds every c_r."""
        plan = _special_linear_plan(q, d)
        eb, carriers = plan[3:5]

        def code(v):
            return sum(e % q * (2 * q) ** (d - 2 - k) for k, e in enumerate(v))

        vecs = list(itertools.product(range(q), repeat=d - 1))
        for e in range(q):
            assert eb[e] == tuple(code([e * v for v in b]) for b in vecs)
        blocks = [g.linear for g in sl_group(q, d - 1)]
        products = {}  # u -> u·A over A: a carrier's tails take d + q - 2 values
        points = list(itertools.product(range(q), repeat=d))[1:]
        assert len(carriers) == len(points)
        for c, tables in zip(points, carriers):
            h = completion(c, q)
            assert len(tables) == d
            for row, table in zip(h, tables):
                u = tuple(row[1:])
                if u not in products:
                    products[u] = tuple(code([sum(map(mul, u, col)) for col in zip(*a)]) for a in blocks)
                assert table == products[u], (c, row)
        assert len(products) == d + q - 2
        if q ** d <= 256:
            assert plan[5] == tuple(map(bytes, zip(*points)))

    @pytest.mark.parametrize("q", [2, 3, 5, 7, 13])
    def test_plan_holds_every_coset_row_of_the_plane(self, q):
        """d = 2: byte b·(q² - 1) + (c - 1) of x's row in the plan is the
        flat index of h_c·[[1, b], [0, 1]]·x, for every flat index x, b in
        F_q and point c of the punctured plane; h_c is the completion of c."""
        rows = _special_linear_plan(q, 2)[-1]
        vecs = list(itertools.product(range(q), repeat=2))
        carried = []  # carried[c - 1][v]: the flat index of h_c·v
        for c in vecs[1:]:
            h = completion(c, q)
            carried.append([sum(map(mul, h[0], v)) % q * q + sum(map(mul, h[1], v)) % q for v in vecs])
        assert len(rows) == len(vecs)
        for (x0, x1), row in zip(vecs, rows):
            moved = [(x0 + b * x1) % q * q + x1 for b in range(q)]  # [[1, b], [0, 1]]·x
            assert row == bytes(h[v] for v in moved for h in carried), (x0, x1)

    @pytest.mark.parametrize("q, d", [(3, 2), (5, 2), (7, 2), (2, 3), (3, 3)])
    def test_edge_shapes_match_the_enumerated_group(self, q, d):
        """Pivots on the last coordinate only, the whole punctured space,
        a single moving point and disjoint sets."""
        group = sl_group(q, d)
        space = Space.punctured(q, d)
        field = space.field
        last = [p for p in space if not any(p.coords[:-1])]  # pivot on the last coordinate
        rest = PointSet(field, d, [p for p in space if any(p.coords[:-1])])
        half = random_subset(rest, len(rest) // 2, q + d)
        other = PointSet(field, d, [p for p in rest if p not in half])
        cases = [
            (PointSet(field, d, last), PointSet(field, d, last)),
            (PointSet(field, d, last), half),
            (half, PointSet(field, d, last[-1:])),
            (space, space),
            (PointSet(field, d, space.points[-1:]), space),
            (PointSet(field, d, last[:1]), half),
            (half, other),
            (PointSet(field, d, last), other),
        ]
        for e, h in cases:
            assert_same_report(_coset_overlap(e, 1, h, True)[0],
                               max_intersection(group, e, h, want_histogram=True))

    @given(st.sampled_from([(2, 2), (3, 2), (5, 2), (7, 2), (2, 3), (3, 3)]), st.data())
    @settings(max_examples=40, deadline=None)
    def test_matches_the_enumerated_group_property(self, shape, data):
        """d = 3 stops at q = 3: SL(3, 5) has 372,000 elements to enumerate
        (`test_exact_where_the_group_is_too_big_to_enumerate` covers it)."""
        q, d = shape
        space = Space.punctured(q, d)
        n = len(space)
        e = random_subset(space, data.draw(st.integers(0, n), label="|E|"),
                          data.draw(st.integers(0, 2 ** 32), label="seed E"))
        h = random_subset(space, data.draw(st.integers(0, n), label="|H|"),
                          data.draw(st.integers(0, 2 ** 32), label="seed H"))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # empty sets
            assert_same_report(_coset_overlap(e, 1, h, True)[0],
                               max_intersection(sl_group(q, d), e, h, want_histogram=True))

    def test_refuses_the_matrix_budget_before_counting(self, monkeypatch):
        import fqsim.intersection

        def no_count(moving, fixed):
            raise AssertionError("counted past the budget")

        monkeypatch.setattr(fqsim.intersection, "_transporter_counts", no_count)
        e = from_coords(make_field(101), 2, [[1, 0]])
        built = _special_linear_plan.cache_info().misses
        with pytest.raises(EnumerationCapExceeded) as exc:
            _coset_overlap(e, 1, e)
        assert str(exc.value) == (
            "matrix scan (q^(d^2)) needs at most 100000000 candidates, got 104060401")
        assert _special_linear_plan.cache_info().misses == built  # no plan for q = 101


def transporter_reports(e, h):
    """The reports, without and with the histogram, of `_transporter_counts`'
    counts, the det kernel past the byte bound, on any shape: its codes
    are decoded as base-q row-major entries."""
    q, d = e.field.q, e.dim
    counts = _transporter_counts(e, h._coords)

    def decode(code):
        flat = [code // q ** (d * d - 1 - i) % q for i in range(d * d)]
        return SpecialLinear(Matrix(e.field, [flat[i * d:(i + 1) * d] for i in range(d)]))

    return tuple(_report_from_counts(
        counts, e, h, decode=decode, first=_first_special_linear_code(q, d),
        group_order=_special_linear_order(q, d), space_size=q ** d - 1, transitive=True,
        want_histogram=hist)[0] for hist in (False, True))


def coset_cases(q, d, seed, small=False, whole=True):
    """(E, H) pairs: single points, sets of different sizes and, unless
    `small`, a punctured line against itself and, if `whole`, the whole
    punctured space against itself."""
    space = Space.punctured(q, d)
    n = len(space)
    point = random_subset(space, 1, seed)
    line = from_coords(space.field, d, [[c * v % q for v in point.points[0].coords] for c in range(1, q)])
    cases = [(point, random_subset(space, 1, seed + 1)),
             (point, random_subset(space, min(5, n), seed + 2)),
             (random_subset(space, min(4, n), seed + 3), point),
             (random_subset(space, min(3, n), seed + 4), random_subset(space, min(7, n), seed + 5))]
    return cases if small else cases + [(line, line)] + [(space, space)] * whole


def coset_element(q, d, p):
    """Rows of the element g = h_c·[[1, b], [0, A]] at position p =
    (A·q^(d-1) + b)·(q^d - 1) + c - 1 of the coset counts, by matrix
    product: h_c is the completion of the point c, b the b-th vector of
    F_q^(d-1) in lex order and A the A-th element of SL(d-1, q)."""
    n, m = q ** d, q ** (d - 1)
    a, b, c = p // (n - 1) // m, p // (n - 1) % m, p % (n - 1) + 1
    h = completion(list(itertools.product(range(q), repeat=d))[c], q)
    shift = list(itertools.product(range(q), repeat=d - 1))[b]
    s = [[1, *shift]] + [[0, *row] for row in sl_group(q, d - 1).elements[a].linear]
    return [[sum(map(mul, row, col)) % q for col in zip(*s)] for row in h]


class TestCosetScan:
    """The byte-column scan over the cosets h_c·S, q^d <= 256, against the
    transporter counts and the enumerated group, on both sides of the bound."""

    @pytest.mark.parametrize("q, d, whole", [(2, 2, True), (3, 2, True), (5, 2, True), (7, 2, True),
                                             (13, 2, True), (3, 3, True), (2, 4, False)])
    def test_matches_the_transporters_and_the_group(self, q, d, whole):
        group = sl_group(q, d)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for e, h in coset_cases(q, d, 10 * q + d, whole=whole):
                for hist, oracle in zip((False, True), transporter_reports(e, h)):
                    rep = _coset_overlap(e, 1, h, hist)[0]
                    assert_same_report(rep, oracle)
                    assert_same_report(rep, max_intersection(group, e, h, want_histogram=hist))

    def test_matches_the_transporters_on_sl_3_5(self):
        # 372,000 elements, more than the tests enumerate: the transporter
        # counts are the oracle, on a punctured line too, where 4 x 3000
        # elements tie
        cases = coset_cases(5, 3, 53, whole=False)
        for e, h in cases:
            for hist, oracle in zip((False, True), transporter_reports(e, h)):
                assert_same_report(_coset_overlap(e, 1, h, hist)[0], oracle)
        line = cases[-1][0]
        assert _coset_overlap(line, 1, line, True)[0].per_g_histogram[4] == 12000

    def test_every_count_ties_on_the_whole_space(self):
        space = Space.punctured(5, 3)
        rep = _coset_overlap(space, 1, space, True)[0]
        assert rep.per_g_histogram == {124: 372000}
        assert rep.best_g.matrix == Matrix(F5, [[0, 0, 1], [0, 1, 0], [4, 0, 0]])

    @pytest.mark.parametrize("q, d", [(17, 2), (7, 3)])
    def test_past_the_byte_bound_the_transporters_count(self, q, d, monkeypatch):
        monkeypatch.setattr(fqsim.intersection, "_coset_counts", None)  # never reached
        order, n = _special_linear_order(q, d), q ** d - 1
        for e, h in coset_cases(q, d, 10 * q + d, small=True):
            rep = _coset_overlap(e, 1, h, True)[0]
            if d == 2:
                assert_same_report(rep, max_intersection(sl_group(q, d), e, h, want_histogram=True))
            assert isinstance(rep.best_g, SpecialLinear) and _det_rows(rep.best_g.linear, q) == 1
            assert intersect_count(rep.best_g, e, h) == rep.best_count == max(rep.per_g_histogram)
            assert rep.double_count_total == len(e) * len(h) * order // n
            assert sum(rep.per_g_histogram.values()) == order

    def test_scan_peaks_at_a_few_bytes_per_element(self):
        # The transporter Counter holds ~80 B per nonzero count; the byte
        # columns hold the running sum, one row and its marks: 3 x |G| bytes.
        space = Space.punctured(5, 3)
        e, h = random_subset(space, 40, 1), random_subset(space, 40, 2)
        _coset_overlap(e, 1, h)  # the (q, d) tables are built once per process
        tracemalloc.start()
        try:
            rep = _coset_overlap(e, 1, h, True)[0]
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rep.group_order == 372000 and rep.double_count_total == 40 * 40 * 3000
        assert peak < 4 * rep.group_order

    @pytest.mark.parametrize("q, d", [(2, 2), (3, 2), (5, 2), (7, 2), (13, 2), (3, 3), (5, 3), (2, 4)])
    def test_images_read_off_the_plan_are_the_matrix_products(self, q, d):
        """At 50 seeded positions p of the coset counts, the flat index of
        g·x read off ω, leads and images, for every x of F_q^d, is that of
        `coset_element`'s g times x, and so is what `_coset_images` reads;
        for d = 2 it is also byte p of joined[x].  The vectors and scale
        tables of `_space_table`, which the det finder decodes and dilates
        with, are checked against the coordinates."""
        plan = _special_linear_plan(q, d)
        omega, leads, images, joined = plan[-4:]
        n, m = q ** d, q ** (d - 1)
        points = list(itertools.product(range(q), repeat=d))
        vectors, _, scales = _space_table(q, d)[:3]
        assert vectors == tuple(points)  # the vectors of F_q^d by flat index
        for e, scale in enumerate(scales):  # byte x of scales[e] is the flat index of e·x
            assert scale[:n] == bytes(flat_index([e * c % q for c in x], q) for x in points)
        rng = SplitMix64(10 * q + d)
        for _ in range(50):
            p = rng.next_below(_special_linear_order(q, d))
            g = coset_element(q, d, p)
            moved = [flat_index([sum(map(mul, row, x)) % q for row in g], q) for x in points]
            a, b, c = p // (n - 1) // m, p // (n - 1) % m, p % (n - 1)
            assert [omega[images[x % m][a]][leads[x][b]][c] for x in range(n)] == moved, p
            assert _coset_images(plan, q, d, range(n), p) == moved, p
            if d == 2:
                assert [joined[x][p] for x in range(n)] == moved, p

    @pytest.mark.parametrize("q, d", [(5, 2), (3, 3), (2, 4)])
    def test_tie_break_hands_back_the_smallest_maximal_position(self, q, d):
        """1- and 2-point sets and a seeded half of the space: the code
        `_smallest_coset_code` returns is the smallest code, by matrix
        product, of an element at a maximal position, and the position it
        returns holds that element.  Past d = 2 a 1-point set has more
        maximal positions than the tie-break lists, max(q^d - 1,
        |G|/(128q)), so it reads the columns of the smallest lead c_0."""
        plan = _special_linear_plan(q, d)
        space = Space.punctured(q, d)
        for n, seed in ((1, 1), (2, 2), (len(space) // 2, 3)):
            e, h = random_subset(space, n, seed), random_subset(space, n, seed + 10)
            counts = _coset_counts(_codes(e, q), _codes(h, q), plan, q, d)
            best = max(counts)
            codes = {p: flat_index(itertools.chain(*coset_element(q, d, p)), q)
                     for p, v in enumerate(counts) if v == best}
            listed = max(q ** d - 1, len(counts) // (128 * q))
            assert len(codes) > (listed if n == 1 and d > 2 else 0)
            code, p = _smallest_coset_code(plan, q, d, counts, best)
            assert code == min(codes.values()) == codes[p], n


def handed_back(scan, *args):
    """(report, counts, position): the report of `scan(*args)`, the counts
    it handed `_report_from_counts` and the position handed back with it."""
    seen, builder = [], fqsim.intersection._report_from_counts

    def spy(counts, *rest, **kw):
        report, p = builder(counts, *rest, **kw)
        seen.append((counts, p))
        return report, p

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fqsim.intersection, "_report_from_counts", spy)
        out = scan(*args)
    [(counts, p)] = seen
    return (out[0] if isinstance(out, tuple) else out), counts, p


def images_of(g, points):
    """The flat index of g·x for every x in `points`, applied point by point."""
    return [flat_index(g.apply(x).coords, points.field.q) for x in points]


class TestReportPosition:
    """`_report_from_counts` hands back, with its report, the position in
    byte counts of the element it reports: the shift's flat index, the
    coset position whose images `_coset_images` reads, the image table's
    element index.  It is None for dict, list and bit-plane counts, and
    when every count ties under a tie-break."""

    @pytest.mark.parametrize("q, d", [(13, 1), (251, 1), (3, 2), (7, 2), (13, 2), (5, 3), (3, 5)])
    def test_a_shift_position_is_its_flat_index(self, q, d):
        space = Space.full(q, d)
        for n, seed in ((1, 1), (3, 2), (len(space) // 3, 3), (len(space), 4)):  # the last: every shift ties
            e, h = random_subset(space, n, seed), random_subset(space, n, seed + 10)
            for fixed in (e, h):
                report, counts, p = handed_back(_shift_overlap, e, 1, fixed)
                assert isinstance(counts, bytes)
                assert p == flat_index(report.best_g.shift, q), (n, seed)

    @pytest.mark.parametrize("q, d", [(5, 2), (7, 2), (3, 3)])
    def test_a_coset_position_holds_the_reported_element(self, q, d):
        plan, space = _special_linear_plan(q, d), Space.punctured(q, d)
        unique = set()
        for n, seed in ((1, 1), (2, 2), (5, 3), (len(space) // 2, 4)):
            e, h = random_subset(space, n, seed), random_subset(space, n, seed + 10)
            for fixed in (e, h):
                report, counts, p = handed_back(_coset_overlap, e, 1, fixed)
                unique.add(counts.count(report.best_count) == 1)
                assert _coset_images(plan, q, d, _codes(e, q), p) == images_of(report.best_g, e), (n, seed)
        assert unique == {False, True}

    def test_a_coset_position_past_the_tie_breaks_list(self):
        # one point against one: the 3,000 maps of SL(3, 5) sending e to h
        # tie, past the max(q^d - 1, |G|/(128q)) positions listed
        q, d = 5, 3
        space = Space.punctured(q, d)
        e, h = random_subset(space, 1, 1), random_subset(space, 1, 2)
        report, counts, p = handed_back(_coset_overlap, e, 1, h)
        assert counts.count(1) > max(q ** d - 1, len(counts) // (128 * q))
        assert _coset_images(_special_linear_plan(q, d), q, d, _codes(e, q), p) == images_of(report.best_g, e)

    def test_an_image_table_position_is_the_element_index(self):
        group = sl_group(5, 2)
        for seed in range(3):
            e, h = random_subset(group.space, 6, seed), random_subset(group.space, 6, seed + 10)
            report, counts, p = handed_back(max_intersection, group, e, h)
            assert isinstance(counts, bytes) and group.elements[p] == report.best_g

    @pytest.mark.filterwarnings("ignore:empty point set")
    def test_no_position_when_all_tie_or_counts_are_not_bytes(self):
        punctured, full = Space.punctured(5, 2), Space.full(17, 2)
        sparse, dense = random_subset(full, 1, 1), random_subset(full, 100, 2)
        assert not is_dense(sparse, sparse) and is_dense(dense, dense)
        for scan, args, kind in [
            (_coset_overlap, (random_subset(punctured, 3, 1), 1, PointSet(make_field(5), 2)), bytes),
            (_coset_overlap, (punctured, 1, punctured), bytes),
            (_shift_overlap, (sparse, 1, sparse), dict),
            (_shift_overlap, (dense, 1, dense), tuple),
            (_coset_overlap, (Space.punctured(17, 2), 1, Space.punctured(17, 2)), dict),
            (max_intersection, (translations(17, 2), sparse, dense), dict),
        ]:
            report, counts, p = handed_back(scan, *args)
            assert isinstance(counts, kind) and p is None, (scan.__name__, kind)


class TestOneByteKernel:
    """Below 256 points the oracle's image table, the shift rows and the
    coset rows are summed by one kernel, `_row_counts`, once a scan."""

    @pytest.mark.parametrize("space, scan", [
        (lambda: Space.punctured(11, 2), lambda e, h: max_intersection(sl_group(11, 2), e, h)),
        (lambda: Space.sphere(7, 3, 1), lambda e, h: max_intersection(orthogonal_group(7, 3, radius=1), e, h)),
        (lambda: Space.full(13, 2), lambda e, h: max_intersection(translations(13, 2), e, h)),
        (lambda: Space.full(13, 2), lambda e, h: _shift_overlap(e, 1, h)[0]),
        (lambda: Space.punctured(7, 2), lambda e, h: _coset_overlap(e, 1, h)[0]),
    ], ids=["SL(2,11) table", "O(3,7) sphere table", "T(13,2) table", "T(13,2) rows", "SL(2,7) cosets"])
    def test_each_scan_sums_its_rows_once(self, monkeypatch, space, scan):
        space = space()
        n, calls = len(space), []

        def spy(*args, kernel=fqsim.intersection._row_counts):
            calls.append(args)
            return kernel(*args)

        monkeypatch.setattr(fqsim.intersection, "_row_counts", spy)
        # E under half of X, E past it (the table reads X \ E), one point
        for i, ne in enumerate((n // 3, 2 * n // 3, 1)):
            e, h = random_subset(space, ne, i), random_subset(space, n // 2, i + 10)
            before = len(calls)
            scan(e, h)
            assert len(calls) == before + 1, ne


def scan_oracles(group, moving, fixed):
    """max_intersection recomputed element by element: each g's images
    M·x + a mod q of E's coordinate tuples are looked up in a set of H's
    tuples, with no perms table, no columns, no masks.  M·x is taken once
    per linear part M, which every translation shares.  The counts are
    taken once and give both reports, without and with the histogram.  An
    empty space bounds nothing: its bound is 0."""
    space = group.space
    q, targets, products = space.field.q, set(fixed._coords), {}

    def image(g, x):
        return tuple([sum(map(mul, row, x), a) % q for row, a in zip(g.linear, g.shift)])

    def count(g):
        if g.linear not in products:
            products[g.linear] = [[sum(map(mul, row, x)) for row in g.linear] for x in moving._coords]
        return sum(tuple([(v + a) % q for v, a in zip(mx, g.shift)]) in targets
                   for mx in products[g.linear])

    counts = list(map(count, group))
    best = max(counts)
    orbit = {image(g, x) for g in group for x in space._coords[:1]}
    histogram = {c: counts.count(c) for c in set(counts)}
    return tuple(IntersectionReport(
        best_g=group.elements[counts.index(best)], best_count=best,
        bound=Fraction(len(moving) * len(fixed), space.size) if space.size else Fraction(0),
        double_count_total=sum(counts), transitive=len(orbit) == space.size,
        group_order=group.order, space_size=space.size,
        moving_size=len(moving), fixed_size=len(fixed),
        per_g_histogram=histogram if want_histogram else None,
    ) for want_histogram in (False, True))


def scan_cases(space, seed):
    """(E, H) pairs: all of the space, empty sets, forced ties and
    seeded random subsets of assorted sizes, on both sides of |E| = |X|/2,
    where the scan switches to the columns of X \\ E."""
    n = len(space)
    empty = PointSet(space.field, space.dim)
    one = PointSet(space.field, space.dim, space.points[:1])
    last = PointSet(space.field, space.dim, space.points[-1:])
    cases = [(space, space), (empty, space), (space, empty), (empty, empty),
             (one, space), (one, last)]
    for i, (ne, nh) in enumerate([(n // 4, 3 * n // 4), (n // 2, n // 3), (3 * n // 4, n // 5),
                                  (n // 2 + 1, n // 2), (n // 2, n), (n // 2 + 1, n),
                                  (n, n // 3)]):
        ne, nh = min(ne, n), min(nh, n)  # n // 2 + 1 exceeds only an empty space
        cases.append((random_subset(space, ne, seed + i), random_subset(space, nh, seed + i + 100)))
    return cases


class TestScanOracle:
    """max_intersection, byte columns up to 256 points and two-byte lanes
    above, against the per-element scan."""

    @pytest.mark.parametrize("make, columns", [
        (lambda: translations(3, 5), True),  # 243 points: a count of 243 fits a byte
        (lambda: translations(2, 8), True),  # 256 points: byte columns, a count of 256 does not fit
        (lambda: translations(17, 2), True),  # 289 points: two-byte columns and counts
        (lambda: special_linear_group(5, 2), True),
        (lambda: orthogonal_group(7, 3, radius=1), True),
        (lambda: orthogonal_group(3, 1, radius=2), False),  # x² = 2 mod 3: only empty sets
        (lambda: orthogonal_group(17, 2), True),  # 289 points, 32 matrices
    ], ids=["T(3,5)", "T(2,8)", "T(17,2)", "SL(2,5)", "O(3,7)-sphere", "O(1,3)-empty-sphere",
            "O(2,17)"])
    def test_matches_the_per_element_scan(self, make, columns):
        group = make()
        space = group.space
        for e, h in scan_cases(space, group.order):
            oracles = scan_oracles(group, e, h)
            for want_histogram in (False, True):
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")  # the empty set warns
                    rep = max_intersection(group, e, h, want_histogram=want_histogram)
                assert_same_report(rep, oracles[want_histogram])
        assert (group._columns is not None) == columns

    def test_reports_are_golden(self):
        # sha256 over the canonical JSON of every report, histogram off and
        # on, on the three groups of the bound audit, recorded before the
        # byte columns were summed through one map pipeline and the byte
        # counts histogrammed by value.
        digest = hashlib.sha256()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the empty set warns
            for group in (special_linear_group(11, 2), orthogonal_group(7, 3, radius=1),
                          translations(13, 2)):
                assert group.space.size <= 256  # the byte columns
                for e, h in scan_cases(group.space, group.order):
                    for hist in (False, True):
                        rep = max_intersection(group, e, h, want_histogram=hist)
                        digest.update(canonical_json(rep.to_json()).encode() + b"\n")
        assert digest.hexdigest() == (
            "d17c2c9eb30d48c671afe49f00354c03c34d5c1d80340e97c4b9683bf7697491")

    def test_special_linear_above_255_points(self):
        # SL(2,17) on its 288 points, with E kept small: the oracle applies
        # every one of the 4,896 matrices to every point of E.
        group = special_linear_group(17, 2)
        space = group.space
        e = random_subset(space, 24, 3)
        h = random_subset(space, 200, 4)
        oracles = scan_oracles(group, e, h)
        for want_histogram in (False, True):
            rep = max_intersection(group, e, h, want_histogram=want_histogram)
            assert_same_report(rep, oracles[want_histogram])
        assert group._columns[0].typecode == "H"

    @pytest.mark.parametrize("make", [
        lambda: translations(3, 5),  # 243 points, odd
        lambda: special_linear_group(5, 2),  # 24 points, even
    ], ids=["T(3,5)", "SL(2,5)"])
    def test_sums_the_columns_of_the_smaller_side(self, make):
        group = make()
        space = group.space
        n = space.size
        read = []

        class Recording(list):
            def __getitem__(self, i):
                read.append(i)
                return list.__getitem__(self, i)

        group._columns = Recording(group.columns())
        h = random_subset(space, n // 3, 7)
        for ne in (0, 1, n // 2, n // 2 + 1, n - 1, n):
            e = random_subset(space, ne, ne)
            read.clear()
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # the empty set warns
                rep = max_intersection(group, e, h, want_histogram=True)
            assert_same_report(rep, scan_oracles(group, e, h)[True])
            if ne:
                assert len(read) == min(ne, n - ne)
                assert (set(read) == {space.index(x) for x in e}) == (2 * ne <= n)

    @pytest.mark.parametrize("make, order", [
        (lambda: translations(3, 2), 9),
        (lambda: orthogonal_group(3, 1, radius=2), 2),  # {±1} on the empty sphere x² = 2
    ], ids=["T(3,2)", "O(1,3)-empty-sphere"])
    def test_empty_sets_report_zero(self, make, order):
        group = make()
        space = group.space
        empty = PointSet(space.field, space.dim)
        for e, h in [(empty, space), (space, empty), (empty, empty)]:
            for want_histogram in (False, True):
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    rep = max_intersection(group, e, h, want_histogram=want_histogram)
                assert [str(w.message) for w in caught] == [
                    "empty point set: the intersection bound is vacuous"]
                assert (rep.best_count, rep.bound, rep.double_count_total) == (0, 0, 0)
                assert rep.best_g == group.identity
                assert rep.per_g_histogram == ({0: order} if want_histogram else None)
                assert_same_report(rep, scan_oracles(group, e, h)[want_histogram])
        assert group._columns is None  # nothing was scanned

    def test_full_space_count_fills_a_byte(self):
        group = translations(3, 5)
        rep = max_intersection(group, group.space, group.space, want_histogram=True)
        assert rep.best_count == 243
        assert rep.per_g_histogram == {243: 243}
        assert rep.best_g == group.identity

    def test_forced_ties_go_to_the_smallest_element(self):
        group = orthogonal_group(7, 3, radius=1)
        space = group.space
        x, y = space.points[3], space.points[-2]
        rep = max_intersection(group, PointSet(space.field, 3, [x]),
                               PointSet(space.field, 3, [y]))
        assert rep.best_count == 1
        assert rep.best_g == group.transporter(x, y)[0]

    @pytest.mark.parametrize("make", [
        lambda: translations(3, 5),
        lambda: special_linear_group(5, 2),
        lambda: orthogonal_group(7, 3, radius=1),
    ], ids=["T(3,5)", "SL(2,5)", "O(3,7)-sphere"])
    def test_columns_are_the_transposed_perms(self, make):
        group = make()
        perms = group.perms()
        columns = group.columns()
        assert len(columns) == group.space.size
        for x, column in enumerate(columns):
            assert len(column) == group.order
            for g, image in enumerate(column):
                assert image == perms[g][x]


class TestAudits:
    def test_exhaustive_small_translation_space(self):
        audit = exhaustive_pairs_audit(translations(3, 1))
        assert audit.pairs == 64
        assert audit.bound_violations == 0
        assert audit.double_count_mismatches == 0

    def test_exhaustive_matches_api_spot_checks(self):
        group = translations(3, 1)
        # cross-route: audit says no violation; recompute a few pairs via the API
        for e_coords, h_coords in [([[0]], [[1]]), ([[0], [2]], [[1], [2]])]:
            e = from_coords(F3, 1, e_coords)
            h = from_coords(F3, 1, h_coords)
            rep = max_intersection(group, e, h)
            assert rep.satisfies_bound

    def test_random_audit(self):
        audit = random_pairs_audit(special_linear_group(5, 2), pairs=50, seed=9)
        assert audit.pairs == 50
        assert audit.bound_violations == 0
        assert audit.double_count_mismatches == 0
        assert audit.min_slack >= 0

    def test_audit_requires_transitive(self):
        with pytest.raises(NotTransitive):
            exhaustive_pairs_audit(orthogonal_group(3, 2))


def oracle_audit(group, mask_pairs):
    """Recompute a BoundAudit from max_intersection over PointSets built
    from the same (E, H) masks."""
    space = group.space
    n = space.size

    def subset(mask):
        return PointSet(space.field, space.dim,
                        [v for i, v in enumerate(space.points) if mask >> i & 1])

    pairs = violations = mismatches = 0
    worst = None
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # empty subsets warn; the bound is 0 <= 0
        for e_mask, h_mask in mask_pairs:
            rep = max_intersection(group, subset(e_mask), subset(h_mask))
            gap = rep.moving_size * rep.fixed_size - rep.best_count * n
            pairs += 1
            violations += gap > 0
            mismatches += not rep.double_count_ok
            worst = gap if worst is None else max(worst, gap)
    return pairs, violations, mismatches, worst


def audit_fields(audit):
    return (audit.pairs, audit.bound_violations, audit.double_count_mismatches,
            audit.worst_gap_num)


class TestAuditOracle:
    @pytest.mark.parametrize("make", [
        lambda: translations(3, 1),
        lambda: translations(2, 2),
        lambda: special_linear_group(2, 2),
        lambda: orthogonal_group(3, 2, radius=1),
    ], ids=["T(3,1)", "T(2,2)", "SL(2,2)", "O(2,3)-sphere"])
    def test_exhaustive_matches_oracle(self, make):
        group = make()
        size = 1 << group.space.size
        expected = oracle_audit(group, ((e, h) for e in range(size) for h in range(size)))
        assert audit_fields(exhaustive_pairs_audit(group)) == expected

    @pytest.mark.parametrize("make,seed,worst", [
        (lambda: special_linear_group(5, 2), 12345, -27),
        (lambda: translations(5, 2), 7, None),
    ], ids=["SL(2,5)", "T(5,2)"])
    def test_random_matches_oracle(self, make, seed, worst):
        group = make()
        n = group.space.size
        rng = SplitMix64(seed)
        masks = []
        for _ in range(500):
            e_mask = rng.next_bits(n)  # E then H, pair by pair
            masks.append((e_mask, rng.next_bits(n)))
        expected = oracle_audit(group, masks)
        audit = random_pairs_audit(group, 500, seed)
        assert audit_fields(audit) == expected
        assert audit.worst_gap_num < 0
        if worst is not None:
            assert audit.worst_gap_num == worst

    def test_a_group_that_is_not_transitive_breaks_both_counts(self):
        # Both audits refuse O(2, 5) on F_5^2, which fixes the origin (index
        # 0); the tally under them counts E = {0} against H = {1}, {0}, {0, 1}:
        # only the first falls short of the bound, and no total is |G||E||H|/|X|.
        group = orthogonal_group(5, 2)
        h_masks = [0b10, 0b01, 0b11]
        audit = fqsim.intersection._audit(group, [(0b01, h_masks)])
        assert audit_fields(audit) == oracle_audit(group, [(0b01, h) for h in h_masks])
        assert (audit.bound_violations, audit.double_count_mismatches) == (1, 3)


# --- pins of the audits, the one-point scans and the one-point complements ---

def audit_digest(audit):
    return hashlib.sha256(canonical_json(audit.to_json()).encode()).hexdigest()


class TestAuditPins:
    """Both audits' JSON on small groups, O on its radius-1 sphere, pinned
    while the audits read the transposed image table, `perms()`."""

    @pytest.mark.parametrize("make, digest", [
        (lambda: translations(2, 3),
         "d938d84de4f3288ded707c9aa47776754dedf025a9cfa08e5e0e22efb6f45051"),
        (lambda: translations(3, 2),
         "e361b9e592731dd57f870797a26b5e2c43eef9ebe18a98b3e70a6d57251c896f"),
        (lambda: special_linear_group(3, 2),
         "d938d84de4f3288ded707c9aa47776754dedf025a9cfa08e5e0e22efb6f45051"),
        (lambda: orthogonal_group(5, 2, radius=1),
         "6b6755c7cb30816860b0ef7daa3230ef930d678942936fe51d75dfcc3496d686"),
    ], ids=["T(2,3)", "T(3,2)", "SL(2,3)", "O(2,5)-sphere"])
    def test_exhaustive_audits_are_golden(self, make, digest):
        assert audit_digest(exhaustive_pairs_audit(make())) == digest

    @pytest.mark.parametrize("make, digest", [
        (lambda: translations(7, 2),
         "bd8bac9e93a1d6cd3acb8c99bc973f7108d127ad1222fb6aca6a2306d60fd0cf"),
        (lambda: special_linear_group(7, 2),
         "674e80cb525a96234ca41b26fa9055c1507b6604a660d16288c6ec7737b29ee8"),
        (lambda: special_linear_group(3, 3),
         "18d19a72505f90e01c1004b2c552078ef7d372ed5e0635988dde30d63ade93f0"),
        (lambda: orthogonal_group(7, 3, radius=1),
         "949b46ac720c94c89f059d3be209d03e93dcd2363e1ba472dae4bd3b88a22873"),
    ], ids=["T(7,2)", "SL(2,7)", "SL(3,3)", "O(3,7)-sphere"])
    def test_random_audits_are_golden(self, make, digest):
        assert audit_digest(random_pairs_audit(make(), 200, 7)) == digest


def one_point_report_digest(group):
    """sha256 over `max_intersection`'s reports, without and with a
    histogram, for E one point and for E the space less one point, each
    against seeded H of one point, a third of the space and all but one."""
    space = group.space
    n, points = space.size, list(space.points)
    digest = hashlib.sha256()
    for i in (0, n // 2, n - 1):
        for e in ([points[i]], points[:i] + points[i + 1:]):
            e = PointSet(space.field, space.dim, e)
            for m in (1, n // 3, n - 1):
                h = random_subset(space, m, i * n + m)
                for want in (False, True):
                    report = max_intersection(group, e, h, want_histogram=want)
                    digest.update(canonical_json(report.to_json()).encode() + b"\n")
    return digest.hexdigest()


class TestOnePointReportPins:
    """The oracle's reports on one-point E and one-point X \\ E, pinned
    while `_row_counts` kept a branch of its own for one row."""

    @pytest.mark.parametrize("make, digest", [
        (lambda: translations(13, 2),
         "be563a4c19df2e272d3c550e8fad56118d5f7da0fb03768e0cec81a14ac8cbf0"),
        (lambda: special_linear_group(7, 2),
         "d31f73e97e9f619ee7dc824682d6ff58978789bd073f322b8ff0fbffb30eead1"),
        (lambda: orthogonal_group(7, 3, radius=1),
         "1a51aee8a4b8281a902a7eb7e74e16ddb010b88d88cef09bfecb00ddf87e1e80"),
    ], ids=["T(13,2)", "SL(2,7)", "O(3,7)-sphere"])
    def test_reports_are_golden(self, make, digest):
        assert one_point_report_digest(make()) == digest


def one_point_scan_digest(scan, space):
    """sha256 over a scan's reports, without and with a histogram, and
    their first two pairs, for E one point scaled by three roots against
    H = s·E and H = s·(seeded third of the space)."""
    q, n, points = space.field.q, space.size, list(space.points)
    digest = hashlib.sha256()
    for i in (0, n // 2, n - 1):
        e = PointSet(space.field, space.dim, [points[i]])
        for s in sorted({1, 2 % q or 1, q - 1}):
            for fixed in (e, random_subset(space, n // 3, i + s)):
                for want in (False, True):
                    report, overlap = scan(e, s, fixed, want)
                    pairs = [[list(z), list(x)] for z, x in itertools.islice(overlap(), 2)]
                    digest.update(canonical_json([report.to_json(), pairs]).encode() + b"\n")
    return digest.hexdigest()


class TestOnePointScanPins:
    """Both scans on one-point E, pinned while `_row_counts` kept a branch
    of its own for one row and the scans took H = E by default."""

    @pytest.mark.parametrize("q, d, digest", [
        (5, 2,
         "d53ef53606ede8fa4c619440cb2b3b0721bd961e55cf1c4505e963d374b7c43f"),
        (13, 2,
         "5292e13e132e4a8410256071fa1b77f11e4e50cd13c60da3fd84dd5bb3c36556"),
        (31, 1,
         "44bd6153463dbad3a4524bb6acfc3a702e02020ac771c3dab4c949950338ebf2"),
        (17, 2,
         "9ea39de1c16273ddcd68fb5687f07fc1443b96bc046f7c9d91d484ec4d44e6e7"),
    ], ids=["T(5,2)", "T(13,2)", "T(31,1)", "T(17,2)"])
    def test_shift_scans_are_golden(self, q, d, digest):
        assert one_point_scan_digest(_shift_overlap, Space.full(q, d)) == digest

    @pytest.mark.parametrize("q, d, digest", [
        (5, 2,
         "ac381fc3962805cdabcb877fce8a8c00af943f254d03181fa46a71c216c2f2fa"),
        (7, 2,
         "d4379bdfa2f500358277778862e013dc355bc2481933f3faa180c6401428a656"),
        (3, 3,
         "5571b30ddc3476acf6c0b5a5db56313dfe4e67ec30b666c5fc83af02cf7ffc83"),
        (7, 1,
         "73197e6273bbe9d46a2ebf6eb1516e9caad234573d09398f8e205e63912278bc"),
        (17, 2,
         "f23e40d2eee5a845c1405f3dfab067a152e537876e6ac4bef3aa1580fa565e90"),
    ], ids=["SL(2,5)", "SL(2,7)", "SL(3,3)", "SL(1,7)", "SL(2,17)"])
    def test_coset_scans_are_golden(self, q, d, digest):
        assert one_point_scan_digest(_coset_overlap, Space.punctured(q, d)) == digest
