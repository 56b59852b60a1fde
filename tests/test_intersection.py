"""Intersection maximization, double counting, and the fast translation kernel."""

import functools
import itertools
import re
import tracemalloc
import warnings
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from fqsim import (
    DimensionMismatch,
    EnumerationCapExceeded,
    FieldMismatch,
    IntersectionReport,
    Matrix,
    NotTransitive,
    PointSet,
    SpaceMismatch,
    SplitMix64,
    Vector,
    all_vectors,
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
    special_linear_group,
    Translation,
    translations,
)
import fqsim.intersection
from fqsim.geometry import _det_rows, _inverse_rows
from fqsim.intersection import (
    _inverse_completion,
    _max_special_linear_intersection,
    _translation_counts,
)

from helpers import completion, from_coords, translated, translation_count_map

F3 = make_field(3)
F5 = make_field(5)


def naive_translation_counts(e_set, h_set):
    """Oracle: the nonzero |H ∩ (E + a)| by shift a, as a Counter of the
    coordinate tuples of y - x over every pair (x, y) in E × H."""
    return Counter((y - x).coords for x in e_set for y in h_set)


def is_dense(e_set, h_set):
    """Whether the translation kernel takes the bit-slot branch."""
    return not isinstance(_translation_counts(e_set, h_set), dict)


def oracle_translation_report(e_set, h_set, want_histogram):
    """The report `max_intersection` over the translation group would
    give, built from `naive_translation_counts` without the group."""
    q, d = e_set.field.q, e_set.dim
    counts = naive_translation_counts(e_set, h_set)
    best = max(counts.values(), default=0)
    shift = min((a for a, c in counts.items() if c == best), default=(0,) * d)
    hist = None
    if want_histogram:
        hist = dict(Counter(counts.values()))
        if q ** d > len(counts):
            hist[0] = q ** d - len(counts)
    return IntersectionReport(
        best_g=Translation(Vector(e_set.field, shift)), best_count=best,
        bound=Fraction(len(e_set) * len(h_set), q ** d),
        double_count_total=sum(counts.values()), transitive=True, group_order=q ** d,
        space_size=q ** d, moving_size=len(e_set), fixed_size=len(h_set),
        per_g_histogram=hist,
    )


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
        full = PointSet(F3, 2, list(all_vectors(F3, 2)))
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
        h = PointSet(F3, 1, list(all_vectors(F3, 1)))
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
        assert rep.best_g.vector.is_zero()

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

    # Bit slots run when w·|H| + 60·q^d <= 600·|H|², w = q(2q)^(d-1);
    # each case is (q, d, |E|, |H|, whether bit slots run).
    BRANCH_CASES = [
        (2, 2, 4, 4, True),     # the whole space as H
        (2, 2, 3, 4, True),
        (5, 2, 10, 10, True),
        (5, 2, 9, 11, True),
        (2, 3, 8, 8, True),     # the whole space twice
        (3, 3, 10, 20, True),
        (3, 3, 15, 15, True),
        (5, 3, 9, 3, False),    # 4,500 + 7,500 > 5,400
        (5, 3, 9, 4, True),     # 9,500 <= 9,600: the smallest dense |H|
        (5, 3, 9, 5, True),     # 10,000 <= 15,000
        (17, 2, 40, 5, False),  # 20,230 > 15,000
        (17, 2, 40, 6, True),   # 20,808 <= 21,600
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
        # E = H = F_17^2: every shift counts 289, over two chunks (255 + 34)
        f17 = make_field(17)
        full = PointSet(f17, 2, list(all_vectors(f17, 2)))
        assert is_dense(full, full)
        for hist in (False, True):
            rep = max_translation_intersection_fast(full, full, want_histogram=hist)
            assert_same_report(rep, max_intersection(translations(17, 2), full, full,
                                                     want_histogram=hist))
        assert rep.best_count == 289 and rep.per_g_histogram == {289: 289}
        assert rep.best_g.vector.is_zero()

    @pytest.mark.parametrize("n_e", [255, 256, 511])
    def test_chunk_edges(self, n_e):
        e = random_pointset(101, 2, n_e, seed=n_e)
        h = e.scaled(make_field(101)(3))
        assert is_dense(e, h)
        for hist in (False, True):
            assert_same_report(max_translation_intersection_fast(e, h, want_histogram=hist),
                               oracle_translation_report(e, h, hist))

    @pytest.mark.parametrize("q, d, n_e, n_h", [
        (283, 1, 283, 283),  # the whole line: two chunks
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
        (5, 3, 9, 3),
        (17, 2, 40, 5),
        (1009, 2, 30, 40),
    ])
    def test_sparse_histogram_counts_the_zero_shifts(self, q, d, n_e, n_h):
        e = random_pointset(q, d, n_e, seed=q + n_e)
        h = random_pointset(q, d, n_h, seed=q + n_h)
        assert not is_dense(e, h)
        reached = len(_translation_counts(e, h))  # the shifts some pair reaches
        rep = max_translation_intersection_fast(e, h, want_histogram=True)
        assert rep.per_g_histogram[0] == q ** d - reached > 0
        assert rep.double_count_total == n_e * n_h
        assert_same_report(rep, oracle_translation_report(e, h, True))

    def test_byte_slots_memory_at_finder_scale(self):
        # The finder's 450-point scan of F_101^2: a 5,101-byte table, masks
        # of 20,402 bits, planes spread to 20,402 bytes, 10,201 counts and
        # the 101 row slices it caches (~239 KB measured; the difference-code
        # branch peaks at ~3 MB here).
        q = 101
        e = random_pointset(q, 2, 450, seed=1)
        h = e.scaled(make_field(q)(2))
        assert is_dense(e, h)
        fqsim.intersection._slot_rows.cache_clear()
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
        # 255 moving points per chunk: one short of, at and one past one and
        # two chunks, and chunks of 1 to 3 points that fill 1 or 2 planes.
        e = random_pointset(101, 2, n_e, seed=n_e + 7)
        h = random_pointset(101, 2, 300, seed=3)
        assert is_dense(e, h)
        assert translation_count_map(e, h) == naive_translation_counts(e, h)
        assert_same_report(max_translation_intersection_fast(e, h, want_histogram=True),
                           oracle_translation_report(e, h, True))

    @pytest.mark.parametrize("n_e", [127, 128, 255, 256, 289])
    def test_bit_slots_with_the_whole_space_as_h(self, n_e):
        # Every mask is all ones, so every plane fills and a chunk of 128 or
        # more carries into the eighth plane; every shift counts |E|.
        f17 = make_field(17)
        full = PointSet(f17, 2, list(all_vectors(f17, 2)))
        e = random_pointset(17, 2, n_e, seed=n_e)
        assert is_dense(e, full)
        assert list(_translation_counts(e, full)) == [n_e] * 289
        rep = max_translation_intersection_fast(e, full, want_histogram=True)
        assert rep.per_g_histogram == {n_e: 289} and rep.best_g.vector.is_zero()

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


REPORT_FIELDS = ("best_g", "best_count", "bound", "double_count_total", "transitive",
                 "group_order", "space_size", "moving_size", "fixed_size", "per_g_histogram")


def assert_same_report(kernel, oracle):
    for name in REPORT_FIELDS:
        assert getattr(kernel, name) == getattr(oracle, name), name
    assert kernel.to_json() == oracle.to_json()


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
                kernel = _max_special_linear_intersection(e, h, want_histogram=True)
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
        counts = _transporter_counts(e, h)
        rep = _max_special_linear_intersection(e, h, want_histogram=True)
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

    def test_forced_ties_go_to_the_smallest_matrix(self):
        group = special_linear_group(5, 2)
        x = from_coords(F5, 2, [[1, 2]])
        y = from_coords(F5, 2, [[3, 0]])
        rep = _max_special_linear_intersection(x, y, want_histogram=True)
        # the q maps sending x to y tie at 1; every other element counts 0
        assert rep.per_g_histogram == {1: 5, 0: 115}
        assert rep.best_g == min(group.transporter(x.points[0], y.points[0]))

    def test_one_dimension_counts_the_common_points(self):
        e = from_coords(F5, 1, [[1], [2], [3]])
        h = from_coords(F5, 1, [[2], [3], [4]])
        rep = _max_special_linear_intersection(e, h, want_histogram=True)
        assert (rep.best_count, rep.double_count_total, rep.group_order) == (2, 2, 1)
        assert rep.per_g_histogram == {2: 1}
        assert rep.best_g.is_identity() and not rep.transitive

    def test_empty_set_warns(self):
        e = from_coords(F5, 2, [[1, 0]])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rep = _max_special_linear_intersection(PointSet(F5, 2), e)
        assert rep.best_count == 0
        assert any("vacuous" in str(w.message) for w in caught)

    @pytest.mark.parametrize("q, d", [(2, 2), (3, 2), (5, 2), (7, 2), (2, 3), (3, 3), (2, 4)])
    def test_closed_form_inverse_of_the_completion(self, q, d):
        for x in itertools.product(range(q), repeat=d):
            if not any(x):
                continue
            h = completion(x, q)
            assert [row[0] for row in h] == list(x) and _det_rows(h, q) == 1
            i, rows = _inverse_completion(x, q)
            assert i == next(j for j, c in enumerate(x) if c)
            assert rows == _inverse_rows(h, q), x

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
            assert_same_report(_max_special_linear_intersection(e, h, want_histogram=True),
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
            assert_same_report(_max_special_linear_intersection(e, h, want_histogram=True),
                               max_intersection(sl_group(q, d), e, h, want_histogram=True))

    def test_refuses_the_matrix_budget_before_counting(self, monkeypatch):
        import fqsim.intersection

        def no_count(moving, fixed):
            raise AssertionError("counted past the budget")

        monkeypatch.setattr(fqsim.intersection, "_transporter_counts", no_count)
        e = from_coords(make_field(101), 2, [[1, 0]])
        with pytest.raises(EnumerationCapExceeded) as exc:
            _max_special_linear_intersection(e, e)
        assert str(exc.value) == (
            "matrix scan (q^(d^2)) needs at most 100000000 candidates, got 104060401")


def scan_oracles(group, moving, fixed):
    """max_intersection recomputed element by element with g.apply and
    intersect_count: no perms table, no columns, no masks.  The counts are
    taken once and give both reports, without and with the histogram.  An
    empty space bounds nothing: its bound is 0."""
    counts = [intersect_count(g, moving, fixed) for g in group]
    best = max(counts)
    space = group.space
    orbit = {g.apply(x) for g in group for x in space.points[:1]}
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
