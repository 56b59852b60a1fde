"""Library refusals that no other test reaches: each raises its error,
in its own words, before any work is done."""

import pytest

from fqsim import (
    DetSimilarityWitness,
    EnumerationCapExceeded,
    MalformedWitness,
    SimilarityWitness,
    SweepConfig,
    make_field,
    random_pairs_audit,
    translations,
)


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
