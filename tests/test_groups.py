"""Group enumeration, orbits, stabilizers, transporters."""

import functools
import itertools
from operator import mul

import pytest

from fqsim import (
    ENUMERATION_CAP,
    DimensionMismatch,
    EnumerationCapExceeded,
    FieldMismatch,
    FiniteGroup,
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
    translations,
)
from fqsim.geometry import _det_rows
from fqsim.groups import _unimodular_rows

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


def brute_force_special_linear(q, d):
    f = make_field(q)
    out = []
    for flat in itertools.product(range(q), repeat=d * d):
        m = Matrix(f, [flat[i * d:(i + 1) * d] for i in range(d)])
        if m.determinant().value == 1:
            out.append(m)
    return out


def raw_unimodular_rows(q, d):
    """Oracle: the rows of every determinant-1 matrix, by scanning all
    q^(d^2) candidates in lexicographic order."""
    for flat in itertools.product(range(q), repeat=d * d):
        rows = tuple(flat[i * d:(i + 1) * d] for i in range(d))
        if _det_rows(rows, q) == 1:
            yield rows


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

    @pytest.mark.parametrize("d, q", O_GRID)
    @pytest.mark.parametrize("radius", [None, 0, 1, 2])
    def test_orthogonal_matches_the_raw_scan(self, d, q, radius):
        group = orthogonal_group(q, d, radius=radius)
        assert tuple(g.matrix.rows for g in group) == raw_orthogonal_rows(q, d)
        space = Space.full(q, d) if radius is None else Space.sphere(q, d, radius)
        assert group.space == space and group.space.kind == space.kind
        assert group.perms() == image_columns_perms(group)

    @pytest.mark.parametrize("make", [
        lambda: translations(7, 1),
        lambda: translations(5, 2),
        lambda: translations(2, 4),
        lambda: translations(3, 3),
    ], ids=["T(1,7)", "T(2,5)", "T(4,2)", "T(3,3)"])
    def test_translation_perms_match_the_images(self, make):
        group = make()
        assert group.perms() == image_columns_perms(group)


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
        assert orthogonal_group(5, 2).identity.is_identity()

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
        assert special_linear_group(3, 2).identity.is_identity()

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
    # products at ~10 us each.  The larger SL grid groups equal the raw
    # determinant scan (TestEnumerationOracles), a set closed under products.
    @pytest.mark.parametrize("kind, d, q", [("T", 2, 3)] + [
        ("SL", d, q) for d, q in SL_GRID if q ** (d * d) <= 625
    ] + [("O", d, q) for d, q in O_GRID], ids=lambda v: str(v))
    def test_closure(self, kind, d, q):
        # every product and every inverse is an element of the list
        make = {"T": translations, "SL": special_linear_group, "O": orthogonal_group}[kind]
        group = make(q, d)
        for g in group:
            assert g.inverse() in group
            for h in group:
                assert g.compose(h) in group

    def test_orbit_stabilizer_identity(self):
        for group in (translations(3, 2), special_linear_group(3, 2),
                      orthogonal_group(3, 2, radius=1)):
            for x in group.space:
                assert group.order == len(group.orbit(x)) * len(group.stabilizer(x))

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
            assert group._perms is None

    @pytest.mark.parametrize("make, space, error", [
        (lambda: translations(3, 3), Space.full(3, 2), DimensionMismatch),
        (lambda: translations(5, 2), Space.full(3, 2), FieldMismatch),
        (lambda: special_linear_group(5, 2), Space.punctured(3, 2), FieldMismatch),
    ], ids=["dimension", "translation-field", "matrix-field"])
    def test_perms_refuse_elements_over_another_space(self, make, space, error):
        group = FiniteGroup(make().elements, space, "mismatched")
        with pytest.raises(error):
            group.perms()

    def test_columns_need_byte_indices(self):
        assert len(translations(2, 8).columns()) == 256
        group = translations(2, 9)
        with pytest.raises(ValueError, match="at most 256 points"):
            group.columns()
        assert group._perms is None  # refused before the table is built

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

    def test_compose_and_inverse(self):
        group = special_linear_group(5, 2)
        g = group.elements[1]
        h = group.elements[7]
        v = Vector(F5, [1, 3])
        assert g.compose(h).apply(v) == g.apply(h.apply(v))
        assert g.compose(g.inverse()).is_identity()

    def test_cross_variant_compose_rejected(self):
        t = translations(3, 2).identity
        s = special_linear_group(3, 2).identity
        with pytest.raises(TypeError):
            t.compose(s)

    @pytest.mark.parametrize("make", [
        lambda: special_linear_group(3, 2),
        lambda: orthogonal_group(5, 2),
        lambda: orthogonal_group(3, 3, radius=1),
    ])
    def test_unchecked_products_and_inverses_are_members(self, make):
        # compose and inverse skip the membership check; closure shows it holds
        group = make()
        for g in group:
            assert g.inverse() in group
            assert g.compose(g.inverse()) == group.identity
            for h in group.elements[:5]:
                assert g.compose(h) in group
        assert [g for g in group if g.is_identity()] == [group.identity]
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
