"""Group enumeration, orbits, stabilizers, transporters."""

import functools
import hashlib
import itertools
import json
from operator import mul

import pytest
from hypothesis import given, settings, strategies as st

from fqsim import (
    ENUMERATION_CAP,
    DimensionMismatch,
    EnumerationCapExceeded,
    FieldMismatch,
    FiniteGroup,
    GroupElement,
    Matrix,
    NotInSpace,
    Orthogonal,
    Space,
    SpecialLinear,
    Translation,
    Vector,
    make_field,
    orthogonal_group,
    special_linear_group,
    sphere,
    translations,
)
from fqsim.geometry import _det_rows
from fqsim.groups import _ACTIONS, _identity, _unimodular_rows
from fqsim.intersection import max_intersection

from helpers import oracle_apply, oracle_compose, oracle_inverse, oracle_is_identity

F3 = make_field(3)
F5 = make_field(5)


def brute_force_orthogonal(q, d):
    """Oracle: filter all q^(d^2) matrices on transpose-times-self = identity."""
    f = make_field(q)
    out = []
    for flat in itertools.product(range(q), repeat=d * d):
        m = Matrix(f, [flat[i * d:(i + 1) * d] for i in range(d)])
        if m.is_orthogonal():
            out.append(m)
    return out


@functools.lru_cache(maxsize=None)
def raw_unimodular_rows(q, d):
    """Oracle: the rows of every determinant-1 matrix, by scanning all
    q^(d^2) candidates in lexicographic order."""
    out = []
    for flat in itertools.product(range(q), repeat=d * d):
        rows = tuple(flat[i * d:(i + 1) * d] for i in range(d))
        if _det_rows(rows, q) == 1:
            out.append(rows)
    return tuple(out)


def brute_force_special_linear(q, d):
    """Oracle: the determinant-1 matrices of the raw scan, a Matrix built
    for each member only."""
    f = make_field(q)
    return [Matrix(f, rows) for rows in raw_unimodular_rows(q, d)]


@functools.lru_cache(maxsize=None)
def raw_orthogonal_rows(q, d):
    """Oracle: the rows of every matrix with orthonormal columns, by
    scanning all q^(d^2) candidates in lexicographic order."""
    out = []
    for flat in itertools.product(range(q), repeat=d * d):
        cols = [flat[j::d] for j in range(d)]
        if all(sum(map(mul, a, b)) % q == (i == j)
               for i, a in enumerate(cols) for j, b in enumerate(cols[:i + 1])):
            out.append(tuple(flat[i * d:(i + 1) * d] for i in range(d)))
    return tuple(out)


def image_columns_perms(group):
    """Oracle for perms(): every image computed per element and per point,
    x + a or the row sums of Mx reduced mod q, then looked up in the space."""
    space = group.space
    index = space._index
    coords = list(index)
    q = space.field.q
    perms = []
    for g in group:
        if isinstance(g, Translation):
            cols = [[(x + a) % q for x in col] for a, col in zip(g.vector.coords, zip(*coords))]
        else:
            cols = [[sum(map(mul, row, c)) % q for c in coords] for row in g.matrix.rows]
        perms.append(tuple(map(index.__getitem__, zip(*cols))))
    return perms


def assert_closed_forms(group):
    """The action table's closed forms for the group's kind against the
    built group: |G| where a formula is written, |X| off spheres, and
    transitivity, which on a sphere the build alone decides."""
    space = group.space
    q, d, radius = space.field.q, space.dim, space.radius
    action = _ACTIONS[group.kind]
    if action.order is not None:
        assert action.order(q, d) == group.order
    if radius is None:
        assert (space.kind, action.size(q, d)) == (action.space, len(space))
    assert action.transitive(q, d, radius) == (None if radius is not None else group.is_transitive())


SL_GRID = [(2, q) for q in (2, 3, 5, 7, 11, 13)] + [(3, 2), (3, 3), (4, 2)]
O_GRID = [(1, q) for q in (2, 3, 5)] + [(2, q) for q in (2, 3, 5, 7, 11, 13)] + [(3, 2), (3, 3), (4, 2)]


class TestEnumerationOracles:
    """The solved-row and solved-column enumerations, and the table-built
    perms(), against the q^(d^2) scans and the per-element images."""

    @pytest.mark.parametrize("d, q", SL_GRID + [(1, 2), (1, 5)])
    def test_special_linear_matches_the_raw_scan(self, d, q):
        oracle = list(raw_unimodular_rows(q, d))
        assert list(_unimodular_rows(q, d)) == oracle  # lexicographic order kept
        group = special_linear_group(q, d)
        assert [g.matrix.rows for g in group] == oracle
        assert group.perms() == image_columns_perms(group)
        assert_closed_forms(group)

    @pytest.mark.parametrize("d, q", O_GRID)
    @pytest.mark.parametrize("radius", [None, 0, 1, 2])
    def test_orthogonal_matches_the_raw_scan(self, d, q, radius):
        group = orthogonal_group(q, d, radius=radius)
        assert tuple(g.matrix.rows for g in group) == raw_orthogonal_rows(q, d)
        space = Space.full(q, d) if radius is None else Space.sphere(q, d, radius)
        assert group.space == space and group.space.kind == space.kind
        assert group.perms() == image_columns_perms(group)
        assert_closed_forms(group)

    @pytest.mark.parametrize("make", [
        lambda: translations(7, 1),
        lambda: translations(5, 2),
        lambda: translations(2, 4),
        lambda: translations(3, 3),
        lambda: translations(2, 1),
    ], ids=["T(1,7)", "T(2,5)", "T(4,2)", "T(3,3)", "T(1,2)"])
    def test_translation_perms_match_the_images(self, make):
        group = make()
        assert group.perms() == image_columns_perms(group)
        assert_closed_forms(group)


class TestSpaces:
    def test_sizes(self):
        assert Space.full(3, 2).size == 9
        assert Space.punctured(3, 2).size == 8
        assert Space.sphere(3, 2, 1).size == 4

    def test_index_round_trip(self):
        sp = Space.punctured(3, 2)
        for i, v in enumerate(sp.points):
            assert sp.index(v) == i

    def test_not_in_space(self):
        sp = Space.punctured(3, 2)
        with pytest.raises(NotInSpace):
            sp.index(Vector(F3, [0, 0]))


class TestTranslations:
    def test_order(self):
        assert translations(3, 2).order == 9
        assert translations(5, 1).order == 5

    def test_identity_is_zero_shift(self):
        g = translations(3, 2)
        assert isinstance(g.identity, Translation)
        assert g.identity.vector.is_zero()

    def test_transitive(self):
        assert translations(3, 2).is_transitive()

    def test_orbit_is_full_space(self):
        g = translations(3, 2)
        assert len(g.orbit(Vector(F3, [1, 2]))) == 9

    def test_stabilizer_trivial(self):
        g = translations(3, 2)
        for v in g.space:
            assert g.stabilizer(v) == [g.identity]

    def test_transporter_is_the_difference(self):
        g = translations(5, 1)
        x, y = Vector(F5, [2]), Vector(F5, [4])
        t = g.transporter(x, y)
        assert len(t) == 1
        assert t[0].vector.coords == (2,)

    def test_cap(self):
        with pytest.raises(EnumerationCapExceeded):
            translations(10007, 3)


class TestOrthogonalGroup:
    @pytest.mark.parametrize("q", [3, 5, 7])
    def test_matches_brute_force(self, q):
        group = orthogonal_group(q, 2)
        oracle = brute_force_orthogonal(q, 2)
        assert group.order == len(oracle)
        assert {g.matrix for g in group} == set(oracle)

    def test_small_orders(self):
        assert orthogonal_group(3, 2).order == 8
        # 2(q-1) when -1 is a square, 2(q+1) when it is not
        assert orthogonal_group(13, 2).order == 24
        assert orthogonal_group(7, 2).order == 16

    def test_d3_matches_brute_force(self):
        group = orthogonal_group(3, 3)
        oracle = brute_force_orthogonal(3, 3)
        assert group.order == len(oracle)
        assert {g.matrix for g in group} == set(oracle)

    def test_identity_present(self):
        assert oracle_is_identity(orthogonal_group(5, 2).identity)

    def test_orbit_on_sphere(self):
        group = orthogonal_group(3, 2, radius=1)
        orbit = group.orbit(Vector(F3, [1, 0]))
        assert [list(p.coords) for p in orbit] == [[0, 1], [0, 2], [1, 0], [2, 0]]
        assert group.is_transitive()

    def test_not_transitive_on_full_space(self):
        assert not orthogonal_group(3, 2).is_transitive()

    def test_preserves_norm_on_space(self):
        group = orthogonal_group(5, 2, radius=1)
        for g in group:
            for v in group.space:
                assert g.apply(v).norm() == v.norm()

    def test_budget(self):
        with pytest.raises(EnumerationCapExceeded):
            orthogonal_group(101, 3)

    def test_invalid_matrix_rejected(self):
        with pytest.raises(ValueError):
            Orthogonal(Matrix(F3, [[1, 1], [0, 1]]))


class TestSpecialLinearGroup:
    @pytest.mark.parametrize("q,expected", [(3, 24), (5, 120), (7, 336)])
    def test_order_matches_brute_force(self, q, expected):
        group = special_linear_group(q, 2)
        oracle = brute_force_special_linear(q, 2)
        assert group.order == len(oracle) == expected
        assert {g.matrix for g in group} == set(oracle)

    def test_identity_present(self):
        assert oracle_is_identity(special_linear_group(3, 2).identity)

    def test_orbit_of_unit_vector(self):
        group = special_linear_group(3, 2)
        orbit = group.orbit(Vector(F3, [1, 0]))
        assert len(orbit) == 8

    def test_stabilizer_size(self):
        group = special_linear_group(3, 2)
        stab = group.stabilizer(Vector(F3, [1, 0]))
        assert len(stab) == 24 // 8

    @pytest.mark.parametrize("q", [3, 5, 7])
    def test_transitive_on_punctured(self, q):
        assert special_linear_group(q, 2).is_transitive()

    def test_not_transitive_on_full_space(self):
        sl = special_linear_group(3, 2)
        on_full = FiniteGroup(sl.elements, Space.full(3, 2), "special-linear")
        assert not on_full.is_transitive()

    def test_origin_not_in_punctured_space(self):
        group = special_linear_group(3, 2)
        with pytest.raises(NotInSpace):
            group.orbit(Vector(F3, [0, 0]))

    def test_invalid_matrix_rejected(self):
        with pytest.raises(ValueError):
            SpecialLinear(Matrix(F3, [[2, 0], [0, 1]]))


class TestGroupStructure:
    # Every O of the grid, and every SL of order at most 168: |G|^2
    # products through the kinds' checked constructors.  The larger SL grid
    # groups equal the raw determinant scan (TestEnumerationOracles), a set
    # closed under products.
    @pytest.mark.parametrize("kind, d, q", [("T", 2, 3)] + [
        ("SL", d, q) for d, q in SL_GRID if q ** (d * d) <= 625
    ] + [("O", d, q) for d, q in O_GRID], ids=lambda v: str(v))
    def test_closure(self, kind, d, q):
        # every product and every inverse is an element of the list
        group = grid_group(kind, d, q)
        for g in group:
            assert oracle_inverse(g) in group
            for h in group:
                assert oracle_compose(g, h) in group

    def test_orbit_stabilizer_identity(self):
        for group in (translations(3, 2), special_linear_group(3, 2),
                      orthogonal_group(3, 2, radius=1)):
            for x in group.space:
                assert group.order == len(group.orbit(x)) * len(group.stabilizer(x))

    @pytest.mark.parametrize("make", [
        lambda: translations(3, 2),
        lambda: orthogonal_group(3, 2),  # full space: the origin is its own orbit
        lambda: orthogonal_group(7, 2, radius=5),  # first point (1, 2)
        lambda: orthogonal_group(7, 3, radius=5),  # first point (0, 1, 2)
        lambda: orthogonal_group(3, 1, radius=2),  # empty sphere
        lambda: special_linear_group(5, 2),
        lambda: FiniteGroup(special_linear_group(3, 2).elements, Space.full(3, 2), "special-linear"),
        lambda: FiniteGroup(translations(5, 2).elements, Space.sphere(5, 2, 3), "translations"),
    ], ids=["T(3,2)", "O(2,3)", "O(2,7)-r5", "O(3,7)-r5", "O(1,3)-empty", "SL(2,5)", "SL(2,3)-full",
            "T(5,2)-sphere"])
    def test_is_transitive_is_one_orbit(self, make):
        group = make()
        space = group.space
        assert group.is_transitive() == (not space.points or len(group.orbit(space.points[0])) == space.size)

    def test_is_transitive_refuses_another_field_or_dimension(self):
        for space, error in ((Space.full(5, 2), FieldMismatch), (Space.full(3, 3), DimensionMismatch)):
            with pytest.raises(error):
                FiniteGroup(translations(3, 2).elements, space, "translations").is_transitive()

    def test_transporter_size_for_transitive_actions(self):
        for group in (translations(3, 1), special_linear_group(3, 2),
                      orthogonal_group(5, 2, radius=1)):
            n = group.space.size
            for x, y in itertools.product(group.space, repeat=2):
                assert len(group.transporter(x, y)) * n == group.order

    def test_canonical_order(self):
        group = special_linear_group(3, 2)
        keys = [g.sort_key() for g in group]
        assert keys == sorted(keys)

    def test_perms_match_action(self):
        # perms() computes images on raw coordinates; apply() is the oracle.
        for group in (translations(5, 2), translations(3, 3), special_linear_group(5, 2),
                      orthogonal_group(5, 2), orthogonal_group(3, 2, radius=1),
                      orthogonal_group(3, 3, radius=2)):
            perms = group.perms()
            assert len(perms) == group.order
            for gi, g in enumerate(group):
                for xi, x in enumerate(group.space):
                    assert group.space.points[perms[gi][xi]] == g.apply(x)

    def test_perms_image_outside_the_space_is_not_in_space(self):
        # Translations do not preserve the punctured space, nor SL a sphere;
        # the first image outside, in element then point order, is named.
        for group, space, image in [
            (translations(3, 2), Space.punctured(3, 2), "Vector([0, 0] mod 3)"),
            (special_linear_group(3, 2), Space.sphere(3, 2, 1), "Vector([1, 1] mod 3)"),
        ]:
            group = FiniteGroup(group.elements, space, group.kind)
            with pytest.raises(NotInSpace) as caught:
                group.perms()
            assert str(caught.value) == f"{image} is not a point of {space!r}"
            assert group._columns is None

    @pytest.mark.parametrize("make, space, error", [
        (lambda: translations(3, 3), Space.full(3, 2), DimensionMismatch),
        (lambda: translations(5, 2), Space.full(3, 2), FieldMismatch),
        (lambda: special_linear_group(5, 2), Space.punctured(3, 2), FieldMismatch),
    ], ids=["dimension", "translation-field", "matrix-field"])
    def test_perms_refuse_elements_over_another_space(self, make, space, error):
        group = FiniteGroup(make().elements, space, "mismatched")
        with pytest.raises(error):
            group.perms()

    def test_membership(self):
        group = special_linear_group(3, 2)
        member = SpecialLinear.unchecked(Matrix(F3, [[1, 1], [0, 1]]))  # a new, equal object
        non_member = SpecialLinear.unchecked(Matrix(F3, [[2, 0], [0, 1]]))  # determinant 2
        other_kind = Orthogonal.unchecked(Matrix(F3, [[1, 0], [0, 1]]))  # the identity matrix
        assert member in group
        assert non_member not in group
        assert other_kind not in group
        assert group.identity.sort_key() not in group  # a plain tuple, even a member's key
        assert [1, 0] not in group  # unhashable, still not in

    def test_one_kind_holding_its_identity(self):
        # The identity is found by key: a list without it, an empty list and
        # a list mixing kinds or dimensions, with two identities or one, are
        # all refused.
        sl, t, sl3 = special_linear_group(3, 2), translations(3, 2), special_linear_group(3, 3)
        others = [g for g in sl3 if g != sl3.identity]
        for elements in ([g for g in sl if g != sl.identity], [], sl.elements + t.elements,
                         sl.elements + sl3.elements, sl.elements + tuple(others)):
            with pytest.raises(ValueError, match="exactly one identity"):
                FiniteGroup(elements, sl.space, "special-linear")
        assert FiniteGroup(reversed(sl.elements), sl.space, "special-linear").identity == sl.identity

    @pytest.mark.parametrize("make", [
        lambda: special_linear_group(3, 2),
        lambda: orthogonal_group(5, 2),
        lambda: orthogonal_group(3, 3, radius=1),
    ])
    def test_the_identity_is_the_one_identity_map(self, make):
        group = make()
        assert [g for g in group if oracle_is_identity(g)] == [group.identity]
        assert group.identity.matrix == Matrix.identity(group.space.field, group.space.dim)


class TestEnumerationBudget:
    @pytest.mark.parametrize("build", [
        lambda: Space.full(101, 4),
        lambda: Space.punctured(101, 4),
        lambda: Space.sphere(101, 4, 1),
        lambda: special_linear_group(11, 3),
    ])
    def test_refuses_past_the_cap(self, build):
        # sphere, translations and orthogonal_group: the test_cap/test_budget cases
        with pytest.raises(EnumerationCapExceeded, match=str(ENUMERATION_CAP)):
            build()

    @pytest.mark.parametrize("d", [0, -1])
    @pytest.mark.parametrize("build", [
        Space.full, Space.punctured, lambda q, d: Space.sphere(q, d, 1),
        lambda q, d: sphere(q, d, 1), translations, orthogonal_group,
        lambda q, d: orthogonal_group(q, d, radius=1), special_linear_group,
    ], ids=["full", "punctured", "Space.sphere", "sphere", "T", "O", "O-sphere", "SL"])
    def test_dimensions_below_one_are_refused_first(self, build, d):
        with pytest.raises(ValueError) as exc:
            build(3, d)
        assert str(exc.value) == f"dimension must be positive, got {d}"


@functools.lru_cache(maxsize=None)
def grid_group(kind, d, q):
    return {"T": translations, "SL": special_linear_group, "O": orthogonal_group}[kind](q, d)


T_GRID = [(1, 7), (2, 3), (2, 5), (3, 3), (4, 2)]
ELEMENT_GRID = ([("T", d, q) for d, q in T_GRID] + [("SL", d, q) for d, q in SL_GRID]
                + [("O", d, q) for d, q in O_GRID])


class TestElementArithmetic:
    """apply, written once on the linear part and the shift, against each
    kind's own arithmetic (`helpers.oracle_*`)."""

    @settings(max_examples=150, deadline=None)
    @given(shape=st.sampled_from(ELEMENT_GRID), data=st.data())
    def test_rows_agree_with_the_kind_oracle(self, shape, data):
        group = grid_group(*shape)
        pick = st.integers(0, group.order - 1)
        g = group.elements[data.draw(pick, label="g")]
        x = Vector(group.space.field, data.draw(
            st.lists(st.integers(0, shape[2] - 1), min_size=shape[1], max_size=shape[1]), label="x"))
        assert g.apply(x) == oracle_apply(g, x)
        assert oracle_is_identity(g) == (g == group.identity)

    def test_apply_refuses_other_spaces(self):
        for g in (grid_group("T", 2, 3).identity, grid_group("SL", 2, 3).identity):
            with pytest.raises(FieldMismatch):
                g.apply(Vector(F5, [1, 2]))
            with pytest.raises(DimensionMismatch):
                g.apply(Vector(F3, [1, 2, 0]))
            with pytest.raises(TypeError):
                g.apply((1, 2))

    def test_views_and_documents(self):
        t = Translation(Vector(F5, [3, 4]))
        assert (t.linear, t.shift) == (((1, 0), (0, 1)), (3, 4))
        assert t.vector == Vector(F5, [3, 4]) and t.matrix == Matrix.identity(F5, 2)
        assert (t.to_json(), repr(t)) == ({"type": "translation", "by": [3, 4]}, "Translation([3, 4] mod 5)")
        s = SpecialLinear(Matrix(F5, [[1, 2], [0, 1]]))
        assert (s.linear, s.shift) == (((1, 2), (0, 1)), (0, 0)) and s.vector.is_zero()
        assert s.to_json() == {"type": "special-linear", "matrix": [[1, 2], [0, 1]]}
        assert repr(s) == "SpecialLinear([[1, 2], [0, 1]] mod 5)"
        o = Orthogonal(Matrix(F5, [[0, 1], [1, 0]]))
        assert o.to_json() == {"type": "orthogonal", "matrix": [[0, 1], [1, 0]]}
        assert repr(grid_group("SL", 2, 3)) == "FiniteGroup(special-linear, order=24, on Space(punctured, q=3, d=2, size=8))"

    @pytest.mark.parametrize("shape", [("T", 2, 3), ("SL", 2, 3), ("O", 2, 5)])
    def test_equal_elements_hash_equal(self, shape):
        # an element rebuilt from its parts equals, hashes and dedupes as the group's own
        group = grid_group(*shape)
        kind = type(group.identity)
        copies = [kind(g.vector) if kind is Translation else kind(g.matrix) for g in group.elements]
        assert [hash(c) for c in copies] == [hash(g) for g in group.elements]
        assert len(set(group.elements).union(copies)) == group.order

    def test_translations_keep_the_shared_identity(self):
        # In F_3^400 every translation holds the one identity table of the
        # dimension, as does every element of a built translation group.
        d = 400
        g = Translation(Vector(F3, [i % 3 for i in range(d)]))
        h = Translation(Vector(F3, [i * i % 3 for i in range(d)]))
        assert g.linear is _identity(d) and h.linear is _identity(d)
        assert all(t.linear is _identity(2) for t in translations(3, 2))

    def test_translations_outlive_the_identity_cache(self):
        # The cache is bounded, so a table may be dropped while translations
        # built on it live on; they still equal, order and apply as a new
        # translation built on the new table.
        assert _identity.cache_info().maxsize is not None
        d = 400
        g = Translation(Vector(F3, [i % 3 for i in range(d)]))
        h = Translation(Vector(F3, [i * i % 3 for i in range(d)]))
        _identity.cache_clear()
        g2, h2 = Translation(g.vector), Translation(h.vector)
        assert g2.linear is _identity(d) and g.linear is not _identity(d)
        assert (g, h) == (g2, h2) and (g < h) == (g2 < h2)
        assert g.apply(h.vector) == g2.apply(h.vector) == oracle_apply(g, h.vector)


class TestImageTable:
    """columns(), the one image table, against per-element apply images."""

    @pytest.mark.parametrize("make, kind", [
        (lambda: translations(3, 5), bytes),  # 243 points
        (lambda: translations(2, 8), bytes),  # 256 points
        (lambda: orthogonal_group(17, 2), "H"),  # 289 points
        (lambda: special_linear_group(5, 2), bytes),
        (lambda: orthogonal_group(3, 3, radius=2), bytes),
    ], ids=["T(3,5)", "T(2,8)", "O(2,17)", "SL(2,5)", "O(3,3)-radius-2"])
    def test_columns_are_the_images_under_apply(self, make, kind):
        group = make()
        space = group.space
        columns = group.columns()
        assert len(columns) == space.size
        for x, column in zip(space.points, columns):
            assert type(column) is bytes if kind is bytes else column.typecode == kind
            assert list(column) == [space.index(g.apply(x)) for g in group]
        assert group.columns() is columns  # cached
        if space.size <= 256:
            assert group.perms() == list(zip(*columns))

    def test_column_type_follows_the_space_size(self):
        # 243 and 256 points fit a byte index, 288 and 512 need two bytes
        assert type(translations(3, 5).columns()[0]) is bytes
        assert type(translations(2, 8).columns()[0]) is bytes
        assert grid_group("SL", 2, 17).columns()[0].typecode == "H"
        assert translations(2, 9).columns()[0].typecode == "H"

    def test_scan_over_four_byte_columns(self):
        # ±1 on F_65537: column x is (x, -x), in lanes of four bytes, and H
        # spreads over every high part of the indices.
        from fqsim import random_subset

        group = orthogonal_group(65537, 1)
        space = group.space
        assert [(g.linear, g.shift) for g in group] == [(((1,),), (0,)), (((65536,),), (0,))]
        assert {column.typecode for column in group.columns()} == {"I"}
        assert [list(column) for column in group.columns()] == [[x, -x % 65537] for x in range(65537)]
        e, h = random_subset(space, 40, 1), random_subset(space, 30000, 2)
        counts = [sum(g.apply(x) in h for x in e) for g in group]
        rep = max_intersection(group, e, h, want_histogram=True)
        assert (rep.best_count, rep.double_count_total) == (max(counts), sum(counts))
        assert rep.per_g_histogram == {c: counts.count(c) for c in set(counts)}

    def test_empty_sphere(self):
        group = orthogonal_group(3, 1, radius=2)  # x² = 2 has no root mod 3
        assert group.space.size == 0 and group.order == 2
        assert group.columns() == []
        assert group.perms() == [(), ()]

    def test_first_element_then_first_point_leaving_the_space(self):
        # F_17^2 without (0, 1) and (1, 0): 287 points, two-byte columns.
        # The first element of SL(2,17), x -> (x_1, -x_0), first sends
        # (16, 0) out, to (0, 1); other elements send earlier points to (1, 0).
        field = make_field(17)
        missing = {(0, 1), (1, 0)}
        space = Space(field, 2, "custom", [v for v in Space.full(17, 2).points if v.coords not in missing])
        group = FiniteGroup(special_linear_group(17, 2).elements, space, "special-linear")
        assert (group.elements[0].linear, group.elements[0].shift) == (((0, 1), (16, 0)), (0, 0))
        with pytest.raises(NotInSpace) as caught:
            group.columns()
        assert str(caught.value) == f"Vector([0, 1] mod 17) is not a point of {space!r}"
        assert group._columns is None

    @pytest.mark.parametrize("make", [lambda: translations(2, 8), lambda: grid_group("SL", 2, 17)],
                             ids=["T(2,8)", "SL(2,17)"])
    def test_scan_on_both_sides_of_half_the_space(self, make):
        # At |E| = |X|/2 the scan reads E's columns, at |X|/2 + 1 those of
        # X \ E; one column, read as E or as X \ E, and E = X are the edges.
        # The oracle counts each element's images in H by perms().
        from fqsim import random_subset

        group = make()
        space = group.space
        n = space.size
        perms = group.perms()
        for ne, nh, seed in [(n // 2, n // 3, 1), (n // 2 + 1, n // 3, 2), (n // 2, n, 3),
                             (n // 2 + 1, n, 4), (n, n, 5), (1, n // 3, 6), (n - 1, n // 3, 7),
                             (n, n // 3, 8)]:
            e, h = random_subset(space, ne, seed), random_subset(space, nh, seed + 10)
            ei, hi = [space.index(x) for x in e], {space.index(x) for x in h}
            counts = [sum(p[i] in hi for i in ei) for p in perms]
            rep = max_intersection(group, e, h, want_histogram=True)
            assert rep.best_count == max(counts)
            assert rep.best_g == group.elements[counts.index(max(counts))]
            assert rep.per_g_histogram == {c: counts.count(c) for c in set(counts)}


def augmented_rows(g):
    """The rows of [M | a], from the element's public matrix and vector."""
    return tuple(r + (a,) for r, a in zip(g.matrix.rows, g.vector.coords))


PINNED_GROUPS = {
    "T(3,2)": lambda: translations(3, 2),
    "SL(2,3)": lambda: special_linear_group(3, 2),
    "SL(3,2)": lambda: special_linear_group(2, 3),
    "O(2,5)": lambda: orthogonal_group(5, 2),
    "O(3,3)-radius-2": lambda: orthogonal_group(3, 3, radius=2),
    "SL(1,7)": lambda: special_linear_group(7, 1),
}


class TestElementPins:
    """What the element layout must not move: listings, documents and
    image tables, pinned byte for byte."""

    # sha256 over every element's repr, the identity's repr, describe() and
    # the columns() bytes, recorded before elements held a linear part and
    # a shift instead of the rows of [M | a].
    @pytest.mark.parametrize("name, digest", [
        ("T(3,2)",
         "e432d8477b5e8f7798e268561da62eb44fc449d6b28cd9f5a0ed931ae6ad1815"),
        ("SL(2,3)",
         "f8db97a6eae0b03a9422aa8d81a7ae2af94975f0b76781bac2eceee295e67753"),
        ("SL(3,2)",
         "345c113d3231ca026f452d04f856bc34b68a6ae8ff49154a146b3d8add62380f"),
        ("O(2,5)",
         "ec27513fc5e27db54ef0d12cb4b40bf9d8f2b09a9e6727d1137eff498ef82fa4"),
        ("O(3,3)-radius-2",
         "2eca0cd31355eb269482098f588db26361c3c1a8327a8ac935c8121f1d025810"),
        ("SL(1,7)",
         "067bbd16a8f2939242012bb26b833e0be3aeb919d797a246a35c8d0a6bb96169"),
    ], ids=list(PINNED_GROUPS))
    def test_listing_and_image_table_are_golden(self, name, digest):
        group = PINNED_GROUPS[name]()
        parts = [repr(g) for g in group] + [repr(group.identity), json.dumps(group.describe())]
        blob = "\n".join(parts).encode() + b"".join(group.columns())
        assert hashlib.sha256(blob).hexdigest() == digest

    @pytest.mark.parametrize("shape", ELEMENT_GRID, ids=str)
    def test_canonical_order_is_the_order_of_the_augmented_rows(self, shape):
        elements = grid_group(*shape).elements[::-1]
        assert ([augmented_rows(g) for g in sorted(elements, key=GroupElement.sort_key)]
                == sorted(map(augmented_rows, elements)))
