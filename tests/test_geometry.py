"""Vectors, matrices, norms, determinants, spheres."""

import itertools
import sys
import threading
import time
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from fqsim import (
    DimensionMismatch,
    EnumerationCapExceeded,
    FieldMismatch,
    Matrix,
    NotInSpace,
    ENUMERATION_CAP,
    PointSet,
    Space,
    SpecialLinear,
    Vector,
    make_field,
    orthogonal_group,
    random_subset,
    special_linear_group,
    sphere,
)
from fqsim.geometry import _check_budget, _inverse_rows, _power_exceeds
from fqsim.intersection import _codes, _columns, _space_table

from helpers import (
    _det_cofactor,
    coords_list,
    det_of_columns_cofactor,
    from_columns,
    from_coords,
    pair_norms,
    scaled_by_vectors,
    translated,
)

F3 = make_field(3)
F5 = make_field(5)


def det_of_columns(columns):
    """Determinant, by elimination, of the matrix whose columns are the vectors."""
    return from_columns(columns).determinant()


class TestNorm:
    def test_examples(self):
        assert Vector(F5, [1, 2]).norm().value == 0
        assert Vector(F5, [0, 0, 0]).norm().value == 0
        assert Vector(F3, [1, 0]).norm().value == 1

    @given(st.sampled_from([3, 5, 7]), st.integers(1, 3), st.data())
    @settings(max_examples=50)
    def test_homogeneity(self, q, d, data):
        f = make_field(q)
        v = Vector(f, [data.draw(st.integers(0, q - 1)) for _ in range(d)])
        c = f(data.draw(st.integers(0, q - 1)))
        assert (c * v).norm() == c * c * v.norm()

    def test_translation_invariance_exhaustive_small(self):
        # all (x, y, shift) triples for q <= 5, d <= 2
        for q, d in [(3, 1), (3, 2), (5, 1), (5, 2)]:
            f = make_field(q)
            pts = list(Space.full(f, d))
            for x, y, a in itertools.product(pts, repeat=3):
                assert ((x + a) - (y + a)).norm() == (x - y).norm()

    def test_orthogonal_invariance(self):
        for q in (3, 5, 7):
            f = make_field(q)
            group = orthogonal_group(f, 2)
            for g in group:
                for v in Space.full(f, 2):
                    assert g.apply(v).norm() == v.norm()


class TestVectorOps:
    def test_scale_translate_apply(self):
        v = Vector(F5, [1, 2])
        assert (F5(2) * v).coords == (2, 4)
        assert (v + Vector(F5, [4, 4])).coords == (0, 1)
        ident = SpecialLinear(Matrix.identity(F5, 2))
        assert ident.apply(v) == v

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            Vector(F5, [1, 2]) + Vector(F5, [1, 2, 3])

    def test_field_mismatch(self):
        with pytest.raises(FieldMismatch):
            Vector(F5, [1, 2]) + Vector(F3, [1, 2])
        with pytest.raises(FieldMismatch):
            F3(2) * Vector(F5, [1, 2])

    def test_lexicographic_order(self):
        vs = [Vector(F3, c) for c in [(2, 0), (0, 1), (1, 0), (0, 0)]]
        assert [v.coords for v in sorted(vs)] == [(0, 0), (0, 1), (1, 0), (2, 0)]

    @given(st.sampled_from([2, 3, 5, 13]), st.integers(1, 4), st.data())
    @settings(max_examples=60, deadline=None)
    def test_unchecked_vector_is_the_checked_one(self, q, d, data):
        # Vector._of on canonical coordinates, against the checked constructor
        field = make_field(q)
        coord = st.tuples(*[st.integers(0, q - 1)] * d)
        c, other = data.draw(coord), Vector(field, data.draw(coord))
        fast, checked = Vector._of(field, c), Vector(field, c)
        assert type(fast) is Vector and fast.coords == checked.coords and fast.field is field
        assert fast == checked and hash(fast) == hash(checked) and repr(fast) == repr(checked)
        assert [fast < other, fast <= other, fast > other, other < fast] == \
               [checked < other, checked <= other, checked > other, other < checked]


class TestDeterminant:
    def test_identity(self):
        for q, d in [(3, 2), (5, 3), (7, 4)]:
            assert Matrix.identity(make_field(q), d).determinant().value == 1

    def test_two_by_two_example(self):
        m = Matrix(F5, [[1, 2], [3, 4]])
        assert m.determinant().value == 3
        assert _det_cofactor(m.rows, 5) == 3

    def test_equal_rows_vanish(self):
        m = Matrix(F5, [[1, 2], [1, 2]])
        assert m.determinant().value == 0

    def test_multiplicative(self):
        import random

        rng = random.Random(7)
        for q in (3, 5):
            f = make_field(q)
            for d in (2, 3):
                for _ in range(20):
                    a = Matrix(f, [[rng.randrange(q) for _ in range(d)] for _ in range(d)])
                    b = Matrix(f, [[rng.randrange(q) for _ in range(d)] for _ in range(d)])
                    assert (a @ b).determinant() == a.determinant() * b.determinant()

    def test_cofactor_agrees_with_elimination(self):
        import random

        rng = random.Random(11)
        for q in (2, 3, 5, 7):
            f = make_field(q)
            for d in (1, 2, 3, 4):
                for _ in range(15):
                    m = Matrix(f, [[rng.randrange(q) for _ in range(d)] for _ in range(d)])
                    assert m.determinant().value == _det_cofactor(m.rows, q)

    def test_inverse(self):
        m = Matrix(F5, [[1, 2], [3, 4]])
        assert m @ Matrix(F5, _inverse_rows(m.rows, 5)) == Matrix.identity(F5, 2)


class TestDetOfColumns:
    def test_standard_basis(self):
        for d in (2, 3):
            cols = [Vector(F5, [1 if i == j else 0 for i in range(d)]) for j in range(d)]
            assert det_of_columns(cols).value == 1

    def test_column_swap_is_minus_one(self):
        e1 = Vector(F5, [1, 0])
        e2 = Vector(F5, [0, 1])
        assert det_of_columns([e2, e1]).value == 4
        assert det_of_columns_cofactor([e2, e1]).value == 4

    def test_repeated_column(self):
        v = Vector(F5, [1, 2])
        assert det_of_columns([v, v]).value == 0

    def test_wrong_count(self):
        with pytest.raises(DimensionMismatch):
            det_of_columns([Vector(F5, [1, 2])])


class TestSphere:
    def test_small_example(self):
        s = sphere(3, 2, 1)
        assert coords_list(s) == [[0, 1], [0, 2], [1, 0], [2, 0]]

    def test_radius_zero_contains_origin(self):
        for q, d in [(3, 2), (5, 2), (7, 1)]:
            s = sphere(q, d, 0)
            assert Vector(make_field(q), [0] * d) in s

    def test_radius_one_size_mod_five(self):
        assert len(sphere(5, 2, 1)) == 4

    def test_sizes_partition_space(self):
        for q, d in [(3, 1), (3, 2), (5, 2), (3, 3)]:
            total = sum(len(sphere(q, d, r)) for r in range(q))
            assert total == q ** d

    def test_cap(self):
        with pytest.raises(EnumerationCapExceeded):
            sphere(101, 4, 1)

    @pytest.mark.parametrize("q", [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_matches_the_filter_oracle(self, q, d):
        """Every radius, as an int, a larger int or a field element, gives
        the points of F_q^d whose squared coordinates sum to it, in
        canonical order, as filtering the whole space does."""
        field, by_radius = make_field(q), {r: [] for r in range(q)}
        for c in itertools.product(range(q), repeat=d):
            by_radius[sum(x * x for x in c) % q].append(c)
        for r, points in by_radius.items():
            s = sphere(q, d, r)
            assert type(s) is PointSet and (s.field.q, s.dim) == (q, d)
            assert s._coords == tuple(points), r
            assert sphere(q, d, r + q)._coords == sphere(field, d, field(r))._coords == s._coords


class TestPairNorms:
    def test_equal_points(self):
        v = Vector(F3, [1, 2])
        assert [n.value for n in pair_norms([v, v])] == [0]

    def test_dictionary_order_example(self):
        pts = [Vector(F3, c) for c in [(0, 0), (1, 0), (0, 1)]]
        assert [n.value for n in pair_norms(pts)] == [1, 1, 2]

    def test_translation_invariant(self):
        pts = [Vector(F5, c) for c in [(0, 0), (1, 2), (3, 3)]]
        shift = Vector(F5, [4, 1])
        assert pair_norms(pts) == pair_norms([p + shift for p in pts])


class TestPointSet:
    def test_dedupe_and_sort(self):
        ps = from_coords(F3, 2, [[2, 0], [0, 1], [2, 0]])
        assert coords_list(ps) == [[0, 1], [2, 0]]
        assert len(ps) == 2

    def test_membership(self):
        ps = from_coords(F3, 2, [[0, 1]])
        assert Vector(F3, [0, 1]) in ps
        assert Vector(F3, [1, 1]) not in ps
        assert Vector(F5, [0, 1]) not in ps

    def test_index_agrees_with_membership(self):
        ps = from_coords(F3, 2, [[2, 0], [0, 1], [1, 2]])
        assert [ps.index(p) for p in ps] == [0, 1, 2]
        for v in (Vector(F3, [1, 1]), Vector(F5, [0, 1])):  # absent; other field
            with pytest.raises(NotInSpace):
                ps.index(v)

    def test_equality_and_hash_ignore_input_order(self):
        a = from_coords(F3, 2, [[2, 0], [0, 1]])
        b = from_coords(F3, 2, [[0, 1], [2, 0], [0, 1]])
        assert a == b and hash(a) == hash(b)
        assert a != from_coords(F5, 2, [[2, 0], [0, 1]])
        assert a != from_coords(F3, 2, [[2, 0]])
        assert a != from_coords(F3, 2, [[2, 0], [0, 2]])

    def test_scaled_and_translated(self):
        ps = from_coords(F5, 2, [[1, 2], [3, 4]])
        assert coords_list(translated(ps, Vector(F5, [1, 1]))) == [[2, 3], [4, 0]]

    def test_scaled_errors_match_vector_scaling(self):
        ps = from_coords(F5, 2, [[1, 2], [3, 4]])
        for bad, error, message in ((2, TypeError, "vectors scale by FieldElement only"),
                                    (F3(2), FieldMismatch, "scalar and vector live in different fields")):
            with pytest.raises(error, match=f"^{message}$"):
                bad * ps.points[0]

    def test_rejects_mixed_dimension(self):
        with pytest.raises(DimensionMismatch):
            PointSet(F3, 2, [Vector(F3, [1])])

    @pytest.mark.parametrize("built", [
        lambda: PointSet._canonical(F3, 2, [(0, 0), (0, 1), (1, 2), (2, 0)]),
        lambda: PointSet._canonical(F5, 2, itertools.islice(itertools.product(range(5), repeat=2), 1, None)),
        lambda: Space.punctured(5, 2),
        lambda: Space.sphere(5, 3, 1),
    ], ids=["canonical", "canonical-iterator", "punctured-space", "sphere-space"])
    def test_agrees_with_the_vector_built_set_before_and_after_the_dict(self, built):
        tuples = built()
        field, dim = tuples.field, tuples.dim
        given = [Vector(field, c) for c in reversed(tuples._coords)]
        if isinstance(tuples, Space):  # built from vectors, the way a custom space is
            vectors = Space(field, dim, tuples.kind, given, tuples.radius)
        else:
            vectors = PointSet(field, dim, given)
        for dict_built in (False, True):
            assert tuples == vectors and hash(tuples) == hash(vectors) and len(tuples) == len(vectors)
            assert [p.coords for p in tuples] == [p.coords for p in vectors] == sorted(tuples._coords)
            assert (tuples._positions is not None) == (vectors._positions is not None) == dict_built
            assert_same_set(tuples, vectors)  # `in` and index() build the dicts

    def test_random_subset_builds_no_dict_until_a_lookup(self):
        space = Space.punctured(11, 2)
        e = random_subset(space, 60, 1)
        assert e == random_subset(space, 60, 1) and hash(e) == hash(random_subset(space, 60, 1))
        assert len(e) == 60 and len(list(e)) == 60
        assert e._positions is None and space._positions is None
        assert e.index(e.points[3]) == 3
        assert e._positions is not None

    def test_threads_racing_on_the_first_lookup_read_one_answer(self):
        field = make_field(31)
        coords = list(itertools.product(range(31), repeat=2))
        points = [Vector(field, c) for c in coords]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(10):
                fresh = PointSet._canonical(field, 2, coords)
                start = threading.Barrier(8)
                got = [None] * 8

                def look(i):
                    start.wait()
                    got[i] = [fresh.index(x) for x in points]

                threads = [threading.Thread(target=look, args=(i,)) for i in range(8)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=10)
                    assert not t.is_alive()
                assert got == [list(range(len(coords)))] * 8
        finally:
            sys.setswitchinterval(interval)

    def test_random_subsets_hold_no_dict(self):
        space = Space.punctured(11, 2)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            subsets = [random_subset(space, 60, seed) for seed in range(1000)]
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert all(len(e) == 60 for e in subsets)
        assert held / len(subsets) < 1024  # bytes per 60-point set


def assert_same_set(tuples, vectors):
    """A tuple-backed set answers as the vector-built set of the same points."""
    field, dim = vectors.field, vectors.dim
    assert tuples == vectors and vectors == tuples
    assert hash(tuples) == hash(vectors)
    assert len(tuples) == len(vectors)
    assert repr(tuples) == repr(vectors)
    for x in Space.full(field, dim):
        assert (x in tuples) == (x in vectors)
        if x in vectors:
            assert tuples.index(x) == vectors.index(x)
        else:
            with pytest.raises(NotInSpace):
                tuples.index(x)


class TestTupleBackedPointSet:
    @given(st.sampled_from([2, 3, 5, 13]), st.integers(1, 3), st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_the_vector_built_set(self, q, d, data):
        field = make_field(q)
        coord = st.tuples(*[st.integers(0, q - 1)] * d)
        picked = data.draw(st.lists(coord, max_size=min(q ** d, 40), unique=True))
        tuples = PointSet._canonical(field, d, sorted(picked))
        vectors = PointSet(field, d, [Vector(field, c) for c in reversed(picked)])
        assert_same_set(tuples, vectors)
        assert tuples._points is None  # nothing above built a vector
        assert [p.coords for p in tuples] == [p.coords for p in vectors] == sorted(picked)
        assert tuples.points == vectors.points
        assert_same_set(tuples, vectors)

    @pytest.mark.parametrize("q, d", [(2, 1), (2, 3), (3, 2), (5, 1), (5, 2), (13, 2), (3, 3)])
    def test_scaled_matches_the_vector_oracle(self, q, d):
        """Both dilations the scans read, of coordinate columns
        (`_columns`) and of flat indices (`_space_table`'s scales), give the
        tuple-backed set of `Vector.__rmul__`'s images."""
        field = make_field(q)
        vectors, _, scales, _ = _space_table(q, d)
        space = list(itertools.product(range(q), repeat=d))
        sets = [PointSet(field, d)] + [PointSet._canonical(field, d, part)
                                       for part in (space, space[1::3], space[-1:])]
        for points in sets:
            for s in range(q):
                want = scaled_by_vectors(points, field(s))
                by_columns = sorted(set(zip(*_columns(points, s))))
                by_codes = sorted({vectors[x] for x in bytes(_codes(points, q)).translate(scales[s])})
                for image in (by_columns, by_codes):
                    got = PointSet._canonical(field, d, image)
                    assert got == want  # == compares the positions too
                    assert type(got) is PointSet
                    assert [p.coords for p in got] == [p.coords for p in want]

    def test_dilation_of_a_space_is_a_point_set(self):
        space = orthogonal_group(5, 2).space
        assert type(scaled_by_vectors(space, F5(2))) is PointSet
        assert scaled_by_vectors(space, F5(2)) == space
        assert scaled_by_vectors(space, F5(0))._index == {(0, 0): 0}
        assert sorted(set(zip(*_columns(space, 0)))) == [(0, 0)]


class TestBudget:
    @pytest.mark.parametrize("limit", [10 ** 8, 2 ** 64, 10 ** 4300 - 1],
                             ids=["1e8", "2^64", "printable"])
    @pytest.mark.parametrize("base", [1, 2, 3, 97, 2 ** 31 - 1])
    def test_power_exceeds_is_the_power_compared(self, base, limit):
        """Exponents on both sides of each bit-length edge, where the bound
        e·(bits - 1) or e·bits crosses bits(limit), and of the true edge."""
        bits, edge = base.bit_length(), limit.bit_length()
        edges = {0, -(-edge // bits)} | ({-(-edge // (bits - 1))} if bits > 1 else set())
        if base > 1:
            edges.add(next(e for e in itertools.count() if base ** e > limit))
        exponents = {e + step for e in edges for step in (-2, -1, 0, 1, 2) if e + step >= 0}
        for e in sorted(exponents):
            assert _power_exceeds(base, e, limit) == (base ** e > limit), e

    def test_both_sides_of_the_exponent_limit(self):
        _check_budget(2, 26, "test")  # 2^26 <= ENUMERATION_CAP < 2^27
        _check_budget(3, 16, "test")
        _check_budget(ENUMERATION_CAP, 1, "test")
        for base, e, shown in [(2, 27, 2 ** 27), (3, 17, 3 ** 17), (3, 30, 3 ** 30),
                               (ENUMERATION_CAP + 1, 1, ENUMERATION_CAP + 1)]:
            with pytest.raises(EnumerationCapExceeded) as exc:
                _check_budget(base, e, "test")
            assert str(exc.value) == f"test needs at most 100000000 candidates, got {shown}"

    def test_a_count_of_more_than_4300_digits_reads_as_a_power(self):
        # 3^9012 and 2^14284 have 4,300 digits; 3^9013 and 2^14285 have 4,301
        for base, e, printed in [(3, 9012, True), (3, 9013, False),
                                 (2, 14284, True), (2, 14285, False), (101, 10 ** 9, False)]:
            with pytest.raises(EnumerationCapExceeded) as exc:
                _check_budget(base, e, "test")
            shown = str(exc.value).rsplit(" ", 1)[1]
            assert shown == (str(base ** e) if printed else f"{base}^{e}")

    def test_huge_exponents_are_refused_before_any_power(self):
        start = time.perf_counter()
        for make in (lambda: Space.full(3, 10 ** 7), lambda: Space.punctured(3, 10 ** 9),
                     lambda: sphere(3, 10 ** 8, 1), lambda: special_linear_group(3, 10 ** 5),
                     lambda: orthogonal_group(3, 10 ** 5)):
            with pytest.raises(EnumerationCapExceeded, match=r"candidates, got 3\^1"):
                make()
        assert time.perf_counter() - start < 1.0
