"""Acceptance suite: every advertised guarantee, exact, at its stated scale.

Each criterion prints one PASS/FAIL line directly to the terminal (pytest
capture is bypassed for those lines) and enforces its runtime limit.
All comparisons are integer or rational; nothing is checked through
floating point.
"""

import itertools
import time
import warnings
from fractions import Fraction

import pytest

from fqsim import (
    NoRoot,
    PointSet,
    Space,
    SplitMix64,
    SweepConfig,
    all_vectors,
    derive_seed,
    exhaustive_pairs_audit,
    find_det_similar,
    find_similar_config,
    intersect_count,
    make_field,
    max_intersection,
    max_translation_intersection_fast,
    orthogonal_group,
    random_pairs_audit,
    random_pointset,
    random_subset,
    run_sweep,
    similarity_threshold,
    special_linear_group,
    translations,
    verify_det_similarity,
    verify_similarity,
)

from helpers import translation_count_map

BASE_SEED = 0x5EED_F00D

TRANSLATION_CASES = [(3, 1), (5, 1), (3, 2), (5, 2)]
MATRIX_GROUP_PRIMES = [3, 5, 7]
RANDOM_PAIRS = 500
EXHAUSTIVE_SPACE_LIMIT = 9


def criterion(num, label, limit=None):
    """Wrap a test so it prints one PASS/FAIL line and checks its time budget."""

    def deco(fn):
        def wrapper(capsys):
            start = time.perf_counter()
            try:
                fn()
            except BaseException:
                with capsys.disabled():
                    print(f"criterion {num}: FAIL - {label}", flush=True)
                raise
            elapsed = time.perf_counter() - start
            on_time = limit is None or elapsed <= limit
            with capsys.disabled():
                status = "PASS" if on_time else "FAIL (over time limit)"
                print(f"criterion {num}: {status} ({elapsed:.1f}s) - {label}", flush=True)
            if not on_time:
                pytest.fail(f"runtime {elapsed:.1f}s exceeded the {limit}s limit")

        wrapper.__name__ = fn.__name__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    return deco


def bound_actions():
    """Every transitive action covered by the intersection-bound criterion."""
    for q, d in TRANSLATION_CASES:
        yield f"translations q={q} d={d}", translations(q, d)
    for q in MATRIX_GROUP_PRIMES:
        yield f"special-linear q={q}", special_linear_group(q, 2)
    for q in MATRIX_GROUP_PRIMES:
        yield f"orthogonal q={q} radius=1", orthogonal_group(q, 2, radius=1)


@criterion(1, "exact double-count identity over translation actions", limit=60)
def test_criterion_1_double_count_identity():
    for q, d in TRANSLATION_CASES:
        group = translations(q, d)
        if group.space.size <= EXHAUSTIVE_SPACE_LIMIT:
            audit = exhaustive_pairs_audit(group)
            assert audit.pairs == 4 ** group.space.size
        else:
            audit = random_pairs_audit(group, RANDOM_PAIRS, derive_seed(BASE_SEED, 1, q, d))
        assert audit.double_count_mismatches == 0, f"q={q} d={d}"


@criterion(2, "intersection bound for every implemented transitive action", limit=120)
def test_criterion_2_intersection_bound():
    for name, group in bound_actions():
        assert group.is_transitive(), name
        if group.space.size <= EXHAUSTIVE_SPACE_LIMIT:
            audit = exhaustive_pairs_audit(group)
        else:
            audit = random_pairs_audit(group, RANDOM_PAIRS,
                                       derive_seed(BASE_SEED, 2, group.space.size))
        assert audit.bound_violations == 0, name
        assert audit.double_count_mismatches == 0, name
        assert audit.min_slack >= 0, name


def similarity_cells():
    for q in (3, 5, 7, 13):
        field = make_field(q)
        squares = sorted({v * v % q for v in range(1, q)})
        for k in (1, 2, 3):
            size = similarity_threshold(field, 2, k)
            for r in squares:
                for trial in range(50):
                    seed = derive_seed(BASE_SEED, 3, q, k, r, trial)
                    yield field, q, k, r, size, seed


@criterion(3, "similarity witnesses at the size threshold, 100% verified", limit=120)
def test_criterion_3_similarity_at_threshold():
    cells = 0
    for field, q, k, r, size, seed in similarity_cells():
        cells += 1
        points = random_pointset(field, 2, size, seed)
        witness = find_similar_config(points, field(r), k)
        assert witness.verified
        check = verify_similarity(witness)
        assert check.ok, (q, k, r, seed, check.reasons)
        assert all(x in points for x in witness.xs)
        assert all(y in points for y in witness.ys)
    assert cells == (1 + 2 + 3 + 6) * 3 * 50  # squares per q, times k, times trials


@criterion(4, "translation maximizer meets |E|^2/q^d in every threshold run", limit=120)
def test_criterion_4_scaled_overlap_bound():
    for field, q, k, r, size, seed in similarity_cells():
        points = random_pointset(field, 2, size, seed)
        witness = find_similar_config(points, field(r), k)
        report = witness.report
        exact_bound = Fraction(len(points) ** 2, q ** 2)
        assert report.bound == exact_bound
        assert report.best_count >= exact_bound, (q, k, r, seed)


@criterion(5, "determinant-similarity witnesses with independent cofactor re-check",
           limit=300)
def test_criterion_5_det_similarity():
    for q in (3, 5):
        field = make_field(q)
        squares = sorted({v * v % q for v in range(1, q)})
        punctured = PointSet(field, 2,
                             [v for v in all_vectors(field, 2) if not v.is_zero()])
        space = Space.punctured(field, 2)
        for k in (2, 3):
            size = similarity_threshold(field, 2, k)
            sets = [punctured] + [
                random_subset(space, size, derive_seed(BASE_SEED, 5, q, k, trial))
                for trial in range(20)
            ]
            for r in squares:
                for points in sets:
                    witness = find_det_similar(points, field(r), k)
                    assert witness.verified
                    check = verify_det_similarity(witness)
                    assert check.ok, (q, k, r, check.reasons)
                    # third route: raw 2x2 formula, no library determinant at all
                    for i, j in itertools.combinations(range(k + 1), 2):
                        x1, x2 = witness.xs[i].coords, witness.xs[j].coords
                        y1, y2 = witness.ys[i].coords, witness.ys[j].coords
                        dx = (x1[0] * x2[1] - x1[1] * x2[0]) % q
                        dy = (y1[0] * y2[1] - y1[1] * y2[0]) % q
                        assert dx == r * dy % q, (q, k, r, i, j)


@criterion(6, "orbit-stabilizer and transporter-size identities", limit=120)
def test_criterion_6_orbit_stabilizer_transporter():
    rng = SplitMix64(derive_seed(BASE_SEED, 6))
    for name, group in bound_actions():
        n = group.space.size
        order = group.order
        for x in group.space:
            assert order == len(group.orbit(x)) * len(group.stabilizer(x)), name
        if n <= 30:
            pairs = itertools.product(group.space, repeat=2)
        else:
            pairs = (
                (group.space.points[rng.next_below(n)],
                 group.space.points[rng.next_below(n)])
                for _ in range(100)
            )
        for x, y in pairs:
            assert len(group.transporter(x, y)) * n == order, name


@criterion(7, "difference-histogram kernel equals the naive group scan", limit=120)
def test_criterion_7_fast_kernel_oracle_equivalence():
    combos = [(q, d) for q in (2, 3, 5, 7) for d in (1, 2)]
    groups = {(q, d): translations(q, d) for q, d in combos}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # empty draws are legitimate here
        for trial in range(RANDOM_PAIRS):
            q, d = combos[trial % len(combos)]
            total = q ** d
            sizes = SplitMix64(derive_seed(BASE_SEED, 7, trial))
            e_set = random_pointset(q, d, sizes.next_below(total + 1),
                                    derive_seed(BASE_SEED, 7, trial, 1))
            h_set = random_pointset(q, d, sizes.next_below(total + 1),
                                    derive_seed(BASE_SEED, 7, trial, 2))
            group = groups[(q, d)]
            fast_counts = translation_count_map(e_set, h_set)
            for g in group:
                naive = intersect_count(g, e_set, h_set)
                assert fast_counts.get(g.vector.coords, 0) == naive, (q, d, trial)
            fast = max_translation_intersection_fast(e_set, h_set, want_histogram=True)
            naive_rep = max_intersection(group, e_set, h_set, want_histogram=True)
            assert fast.best_count == naive_rep.best_count
            assert fast.best_g == naive_rep.best_g
            assert fast.double_count_total == naive_rep.double_count_total
            assert fast.per_g_histogram == naive_rep.per_g_histogram


@criterion(8, "residue and root kernel equals exhaustive oracles, q <= 97", limit=30)
def test_criterion_8_field_kernel_oracles():
    odd_primes = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
                  53, 59, 61, 67, 71, 73, 79, 83, 89, 97]
    for q in odd_primes:
        field = make_field(q)
        squares = {}
        for x in range(q):
            squares.setdefault(x * x % q, x)
        for v in range(q):
            element = field(v)
            assert element.is_mth_power(2) == (v in squares)
            root = element.sqrt()
            if v in squares:
                assert root is not None and root.value == squares[v]
            else:
                assert root is None
        for m in range(1, 7):
            powers = {}
            for x in range(q):
                powers.setdefault(pow(x, m, q), x)
            for v in range(q):
                element = field(v)
                assert element.is_mth_power(m) == (v in powers)
                if v in powers:
                    assert element.mth_root(m).value == powers[v]
                else:
                    with pytest.raises(NoRoot):
                        element.mth_root(m)


@criterion(9, "sweep payloads are byte-identical across worker counts", limit=None)
def test_criterion_9_determinism_across_jobs():
    config = SweepConfig(qs=(3, 5, 7, 13), d=2, ks=(1, 2, 3),
                         ratios="all-squares", trials=50,
                         base_seed=derive_seed(BASE_SEED, 9), size="threshold")
    sequential = run_sweep(config, jobs=1)
    parallel = run_sweep(config, jobs=8)
    assert len(sequential) == len(parallel) == 1800
    for a, b in zip(sequential, parallel):
        assert a.config == b.config
        assert a.outcome_bytes() == b.outcome_bytes()
    for report in sequential:
        assert report.outcome["status"] == "witness"
        assert report.outcome["witness"]["verified"] is True
