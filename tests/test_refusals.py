"""Library refusals that no other test reaches: each raises its error,
in its own words, before any work is done."""

import pytest

from fqsim import (
    DetSimilarityWitness,
    DimensionMismatch,
    EnumerationCapExceeded,
    FieldMismatch,
    MalformedWitness,
    Matrix,
    PointSet,
    SimilarityWitness,
    SweepConfig,
    TooLarge,
    Vector,
    find_similar_config,
    make_field,
    random_pairs_audit,
    random_pointset,
    translations,
)
from fqsim.geometry import _inverse_rows


def refused(error, words, call, *args):
    """Assert that call(*args) raises `error` whose message is `words`."""
    with pytest.raises(error) as exc:
        call(*args)
    assert str(exc.value) == words


def test_random_pairs_audit_needs_at_most_64_points():
    group = translations(3, 4)  # 81 points
    with pytest.raises(EnumerationCapExceeded) as exc:
        random_pairs_audit(group, 5, 1)
    assert str(exc.value) == "random-pair audit draws 64-bit subset masks, needs |X| <= 64, got 81"


@pytest.mark.parametrize("seed", [-1, 2 ** 64])
def test_sweep_base_seed_must_fit_in_64_bits(seed):
    with pytest.raises(ValueError, match="^base seed must fit in 64 bits$"):
        SweepConfig(qs=(5,), d=2, ks=(1,), base_seed=seed)
    SweepConfig(qs=(5,), d=2, ks=(1,), base_seed=seed % 2 ** 64)  # either end of the range is kept


@pytest.mark.parametrize("m", [0, -1])
def test_power_and_root_indices_must_be_positive(m):
    x = make_field(7)(2)
    with pytest.raises(ValueError, match=f"^power index must be positive, got {m}$"):
        x.is_mth_power(m)
    with pytest.raises(ValueError, match=f"^root index must be positive, got {m}$"):
        x.mth_root(m)


@pytest.mark.parametrize("kind, obj, name", [(SimilarityWitness, [], "list"),
                                             (DetSimilarityWitness, "x", "str")])
def test_witness_json_must_be_an_object(kind, obj, name):
    with pytest.raises(MalformedWitness) as exc:
        kind.from_json(obj)
    assert str(exc.value) == f"witness JSON must be an object, got {name}"


@pytest.mark.parametrize("shift", [None, "12", [1], [1, 2, 3], [1, "2"], [1, 2.0], [True, 2]])
def test_similarity_witness_shift_must_be_d_integers(shift):
    f5 = make_field(5)
    obj = find_similar_config(random_pointset(f5, 2, 9, seed=3), f5(4), 2).to_json()
    SimilarityWitness.from_json(obj)  # the finder's own document decodes
    refused(MalformedWitness, "witness key 'a' must be a list of 2 integers",
            SimilarityWitness.from_json, {**obj, "a": shift})


@pytest.mark.parametrize("q, name", [("7", "str"), (7.0, "float"), (True, "bool"), (None, "NoneType")])
def test_field_order_must_be_an_int(q, name):
    refused(TypeError, f"field order must be an int, got {name}", make_field, q)


@pytest.mark.parametrize("q", [1, 0, -7])
def test_field_order_must_be_at_least_2(q):
    refused(ValueError, f"field order must be at least 2, got {q}", make_field, q)


@pytest.mark.parametrize("q", [2 ** 32, 2 ** 32 + 15, 2 ** 61 - 1])
def test_field_order_must_be_below_2_to_the_32(q):
    # refused before the primality test, which 2^32 + 15 and 2^61 - 1 would pass
    refused(TooLarge, f"field order {q} is not below 2^32", make_field, q)


def test_field_elements_have_no_negative_powers():
    refused(ValueError, "negative exponent; invert explicitly instead", pow, make_field(7)(3), -1)


F5, F7 = make_field(5), make_field(7)


def test_vectors_need_a_coordinate():
    refused(ValueError, "vectors need at least one coordinate", Vector, F5, [])


def test_point_sets_hold_vectors_of_their_field_and_dimension():
    refused(TypeError, "expected Vector, got tuple", PointSet, F5, 2, [Vector(F5, [1, 2]), (0, 1)])
    refused(FieldMismatch, "point over F_7 in a set over F_5", PointSet, F5, 2, [Vector(F7, [1, 2])])
    refused(DimensionMismatch, "point of dimension 3 in a 2-dimensional set",
            PointSet, F5, 2, [Vector(F5, [1, 2]), Vector(F5, [1, 2, 3])])


@pytest.mark.parametrize("rows", [[], [[1, 2]], [[1, 2], [3]], [[1], [2]]])
def test_matrices_are_square_and_nonempty(rows):
    refused(DimensionMismatch, "matrix must be square and nonempty", Matrix, F5, rows)


def test_matrix_products_need_a_matrix_of_the_same_field_and_size():
    m = Matrix.identity(F5, 2)
    refused(TypeError, "cannot multiply Matrix by Vector", m.__matmul__, Vector(F5, [1, 2]))
    refused(TypeError, "cannot multiply Matrix by list", m.__matmul__, [[1, 0], [0, 1]])
    refused(FieldMismatch, "matrices over different fields", m.__matmul__, Matrix.identity(F7, 2))
    refused(DimensionMismatch, "matrix sizes 2 and 3", m.__matmul__, Matrix.identity(F5, 3))


@pytest.mark.parametrize("rows", [[[1, 2], [2, 4]], [[0, 0], [0, 0]], [[0]]])
def test_a_singular_matrix_has_no_inverse(rows):
    refused(ZeroDivisionError, "matrix is singular", _inverse_rows, rows, 5)
