"""Vectors, matrices, norms, determinants, spheres."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from fqsim import (
    DimensionMismatch,
    EnumerationCapExceeded,
    FieldMismatch,
    Matrix,
    NotInSpace,
    PointSet,
    Vector,
    all_vectors,
    make_field,
    orthogonal_group,
    sphere,
)

F3 = make_field(3)
F5 = make_field(5)


def det_of_columns(columns):
    """Determinant, by elimination, of the matrix whose columns are the vectors."""
    return Matrix.from_columns(columns).determinant()


def det_of_columns_cofactor(columns):
    return Matrix.from_columns(columns).determinant_cofactor()


def pair_norms(points):
    """Norms of all pairwise differences, in dictionary order on (i, j)."""
    return [(points[i] - points[j]).norm()
            for i, j in itertools.combinations(range(len(points)), 2)]


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
            pts = list(all_vectors(f, d))
            for x, y, a in itertools.product(pts, repeat=3):
                assert ((x + a) - (y + a)).norm() == (x - y).norm()

    def test_orthogonal_invariance(self):
        for q in (3, 5, 7):
            f = make_field(q)
            group = orthogonal_group(f, 2)
            for g in group:
                for v in all_vectors(f, 2):
                    assert g.apply(v).norm() == v.norm()


class TestVectorOps:
    def test_scale_translate_apply(self):
        v = Vector(F5, [1, 2])
        assert (F5(2) * v).coords == (2, 4)
        assert (v + Vector(F5, [4, 4])).coords == (0, 1)
        ident = Matrix.identity(F5, 2)
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


class TestDeterminant:
    def test_identity(self):
        for q, d in [(3, 2), (5, 3), (7, 4)]:
            assert Matrix.identity(make_field(q), d).determinant().value == 1

    def test_two_by_two_example(self):
        m = Matrix(F5, [[1, 2], [3, 4]])
        assert m.determinant().value == 3
        assert m.determinant_cofactor().value == 3

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
                    assert m.determinant() == m.determinant_cofactor()

    def test_inverse(self):
        m = Matrix(F5, [[1, 2], [3, 4]])
        assert m @ m.inverse() == Matrix.identity(F5, 2)


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
        assert s.coords_list() == [[0, 1], [0, 2], [1, 0], [2, 0]]

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
        ps = PointSet.from_coords(F3, 2, [[2, 0], [0, 1], [2, 0]])
        assert ps.coords_list() == [[0, 1], [2, 0]]
        assert len(ps) == 2

    def test_membership(self):
        ps = PointSet.from_coords(F3, 2, [[0, 1]])
        assert Vector(F3, [0, 1]) in ps
        assert Vector(F3, [1, 1]) not in ps
        assert Vector(F5, [0, 1]) not in ps

    def test_index_agrees_with_membership(self):
        ps = PointSet.from_coords(F3, 2, [[2, 0], [0, 1], [1, 2]])
        assert [ps.index(p) for p in ps] == [0, 1, 2]
        for v in (Vector(F3, [1, 1]), Vector(F5, [0, 1])):  # absent; other field
            with pytest.raises(NotInSpace):
                ps.index(v)

    def test_equality_and_hash_ignore_input_order(self):
        a = PointSet.from_coords(F3, 2, [[2, 0], [0, 1]])
        b = PointSet.from_coords(F3, 2, [[0, 1], [2, 0], [0, 1]])
        assert a == b and hash(a) == hash(b)
        assert a != PointSet.from_coords(F5, 2, [[2, 0], [0, 1]])
        assert a != PointSet.from_coords(F3, 2, [[2, 0]])

    def test_scaled_and_translated(self):
        ps = PointSet.from_coords(F5, 2, [[1, 2], [3, 4]])
        assert ps.scaled(F5(2)).coords_list() == [[1, 3], [2, 4]]
        assert ps.translated(Vector(F5, [1, 1])).coords_list() == [[2, 3], [4, 0]]

    def test_rejects_mixed_dimension(self):
        with pytest.raises(DimensionMismatch):
            PointSet(F3, 2, [Vector(F3, [1])])
