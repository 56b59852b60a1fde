"""Similarity and determinant-similarity witnesses, thresholds, edge sets."""

import itertools
import json
import random
import time
import warnings
from dataclasses import replace
from fractions import Fraction

import pytest

import fqsim
from fqsim import (
    DetSimilarityWitness,
    EdgeSet,
    EnumerationCapExceeded,
    InsufficientIntersection,
    MalformedWitness,
    NotADthPower,
    NotASquare,
    NotOnSphere,
    OriginInSet,
    PointSet,
    SimilarityWitness,
    Vector,
    ZeroDilation,
    all_vectors,
    edge_preset,
    find_det_similar,
    find_similar_config,
    make_field,
    meets_threshold,
    random_pointset,
    similarity_threshold,
    sphere,
    sphere_experiment,
    verify_det_similarity,
    verify_similarity,
)
from fqsim.cli import main

from helpers import det_of_columns_cofactor, from_coords, pair_norms

F3 = make_field(3)
F5 = make_field(5)


def full_plane(field):
    return PointSet(field, 2, list(all_vectors(field, 2)))


def punctured_plane(field):
    return PointSet(field, 2, [v for v in all_vectors(field, 2) if not v.is_zero()])


class TestEdgeSet:
    def test_all_pairs(self):
        assert EdgeSet.all_pairs(2).pairs == ((1, 2), (1, 3), (2, 3))

    def test_path(self):
        assert EdgeSet.path(3).pairs == ((1, 2), (2, 3), (3, 4))

    def test_star(self):
        assert EdgeSet.star(3).pairs == ((1, 2), (1, 3), (1, 4))

    def test_cycle(self):
        assert EdgeSet.cycle(3).pairs == ((1, 2), (1, 4), (2, 3), (3, 4))

    def test_cycle_needs_k_at_least_two(self):
        with pytest.raises(ValueError):
            EdgeSet.cycle(1)

    def test_nonempty_required(self):
        with pytest.raises(ValueError):
            EdgeSet(2, [])

    def test_range_checked(self):
        with pytest.raises(ValueError):
            EdgeSet(2, [(1, 4)])
        with pytest.raises(ValueError):
            EdgeSet(2, [(2, 2)])

    def test_presets_by_name(self):
        assert edge_preset("simplex", 2) == EdgeSet.all_pairs(2)
        with pytest.raises(ValueError):
            edge_preset("wheel", 2)


class TestThreshold:
    def test_examples(self):
        assert similarity_threshold(5, 2, 2) == 9
        assert similarity_threshold(3, 2, 1) == 5

    @pytest.mark.filterwarnings("ignore:k = 0 is the degenerate")
    def test_meets_threshold_is_the_squared_comparison(self):
        assert meets_threshold(9 * 9, 2, 5, 2) and not meets_threshold(8 * 8, 2, 5, 2)
        for q, d, k in itertools.product((2, 3, 5, 97), (1, 2, 3), (0, 1, 2, 3)):
            size = (k + 1) * q ** d
            for product in (size - 1, size, size + 1):
                assert meets_threshold(product, k, q, d) == (product >= size), (q, d, k, product)
            n = similarity_threshold(q, d, k)
            assert (n - 1) ** 2 < size <= n * n, (q, d, k)
        for base, e in [(0, 0), (0, 1), (1, 0), (7, 0)]:  # an empty sphere has base 0
            for product in range(4):
                assert meets_threshold(product, 1, base, e) == (product >= 2 * base ** e)

    def test_huge_dimension_answers_at_once(self):
        start = time.perf_counter()
        assert not meets_threshold(10 ** 100, 2, 3, 10 ** 7)
        with pytest.raises(EnumerationCapExceeded, match="has more than 4300 digits"):
            similarity_threshold(3, 10 ** 7, 2)
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("n, met", [(8, False), (9, True)])
    def test_find_similar_reports_the_verdict(self, capsys, n, met):
        code = main(["find-similar", "--q", "5", "--d", "2", "--r", "4", "--k", "2",
                     "--random", str(n), "--seed", "3"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["meets_threshold"] is met

    def test_degenerate_k_zero_warns(self):
        with pytest.warns(UserWarning):
            assert similarity_threshold(5, 2, 0) == 5

    @pytest.mark.parametrize("k", [-1, -5])
    def test_negative_k_is_refused(self, k):
        with pytest.raises(ValueError, match=f"k must be nonnegative, got {k}"):
            meets_threshold(100, k, 5, 2)
        with pytest.raises(ValueError, match=f"k must be nonnegative, got {k}"):
            similarity_threshold(5, 2, k)


class TestFindSimilar:
    def test_full_plane_example(self):
        w = find_similar_config(full_plane(F5), F5(4), 2)
        assert w.verified
        assert bool(verify_similarity(w))
        # independent re-check: pair norms scale by the ratio
        xn = [n.value for n in pair_norms(list(w.xs))]
        yn = [n.value for n in pair_norms(list(w.ys))]
        assert yn == [(4 * v) % 5 for v in xn]

    def test_points_come_from_the_set(self):
        e = random_pointset(13, 2, 26, seed=3)
        w = find_similar_config(e, make_field(13)(3), 3)
        assert all(x in e for x in w.xs)
        assert all(y in e for y in w.ys)

    def test_not_a_square(self):
        with pytest.raises(NotASquare):
            find_similar_config(full_plane(F5), F5(2), 2)

    def test_zero_dilation(self):
        with pytest.raises(ZeroDilation):
            find_similar_config(full_plane(F5), F5(0), 2)

    def test_ratio_one_gives_identity_similarity(self):
        e = from_coords(F5, 2, [[0, 0], [1, 1], [2, 3]])
        w = find_similar_config(e, F5(1), 2)
        assert w.shift.is_zero()
        assert w.xs == w.ys == w.zs

    def test_insufficient_intersection_carries_count(self):
        e = from_coords(F5, 2, [[0, 0], [1, 2]])
        with pytest.raises(InsufficientIntersection) as exc:
            find_similar_config(e, F5(4), 2)
        assert exc.value.best_count <= 2
        assert exc.value.needed == 3

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            find_similar_config(full_plane(F5), F5(4), 0)

    def test_edge_set_k_must_match(self):
        with pytest.raises(ValueError):
            find_similar_config(full_plane(F5), F5(4), 2, EdgeSet.all_pairs(3))

    def test_bound_recorded_on_witness(self):
        e = random_pointset(7, 2, 15, seed=11)
        w = find_similar_config(e, make_field(7)(2), 2)
        assert w.report.best_count >= Fraction(len(e) ** 2, 49)


def vectors_built(monkeypatch, call):
    """How many times `call()` runs Vector.__init__."""
    built = []
    init = Vector.__init__

    def counting(self, field, coords):
        built.append(None)
        init(self, field, coords)

    monkeypatch.setattr(Vector, "__init__", counting)
    result = call()
    monkeypatch.setattr(Vector, "__init__", init)
    return result, len(built)


class TestVectorsOnlyForTheWitness:
    """The finders search on coordinate tuples: at most the 3(k+1) witness
    points and a few of the scan's elements become vectors, whatever |E|."""

    @pytest.mark.parametrize("q, n, k", [(13, 23, 2), (13, 60, 3), (31, 80, 1)])
    def test_similarity_finder(self, monkeypatch, q, n, k):
        points = random_pointset(q, 2, n, seed=5)
        ratio = make_field(q)(4)
        w, built = vectors_built(monkeypatch, lambda: find_similar_config(points, ratio, k))
        assert w.verified and n > 3 * (k + 1) + 3
        assert built <= 3 * (k + 1) + 3
        assert points._points is None

    @pytest.mark.parametrize("q, n, k", [(7, 20, 2), (11, 40, 3)])
    def test_det_finder(self, monkeypatch, q, n, k):
        field = make_field(q)
        space = list(itertools.product(range(q), repeat=2))[1:]
        points = PointSet._canonical(field, 2, sorted(random.Random(n).sample(space, n)))
        w, built = vectors_built(monkeypatch, lambda: find_det_similar(points, field(4), k))
        assert w.verified and n > 3 * (k + 1) + 3
        assert built <= 3 * (k + 1) + 3
        assert points._points is None


class TestVerifySimilarity:
    def _witness(self):
        return find_similar_config(full_plane(F5), F5(4), 2)

    def test_verifier_accepts_finder_output(self):
        assert bool(verify_similarity(self._witness()))

    def test_perturbed_y_fails_with_norm_reason(self):
        w = self._witness()
        ys = list(w.ys)
        ys[1] = ys[1] + Vector(F5, [1, 0])
        bad = replace(w, ys=tuple(ys))
        check = verify_similarity(bad)
        assert not check
        assert any("norm relation" in r or "z[" in r for r in check.reasons)

    def test_duplicate_x_fails_distinctness(self):
        w = self._witness()
        xs = list(w.xs)
        zs = list(w.zs)
        xs[1] = xs[0]
        zs[1] = w.root * xs[0]
        ys = [z - w.shift for z in zs]
        bad = replace(w, xs=tuple(xs), ys=tuple(ys), zs=tuple(zs))
        check = verify_similarity(bad)
        assert not check
        assert any("distinctness" in r for r in check.reasons)

    def test_wrong_root_detected(self):
        w = self._witness()
        bad = replace(w, root=F5(1))
        check = verify_similarity(bad)
        assert not check
        assert any("root" in r for r in check.reasons)

    def test_monotone_under_edge_subsets(self):
        w = self._witness()
        for size in (1, 2):
            for pairs in itertools.combinations(EdgeSet.all_pairs(2).pairs, size):
                sub = replace(w, edges=EdgeSet(2, pairs))
                assert bool(verify_similarity(sub))

    def test_json_round_trip(self):
        w = self._witness()
        again = SimilarityWitness.from_json(json.loads(json.dumps(w.to_json())))
        assert bool(verify_similarity(again))
        assert again.to_json() == w.to_json()

    def test_never_raises_on_malformed_witnesses(self):
        w = self._witness()
        f7 = make_field(7)
        malformed = [
            replace(w, root=f7(2)),
            replace(w, shift=Vector(f7, [0, 0])),
            replace(w, xs=(Vector(F5, [1]),) + w.xs[1:]),
            replace(w, zs=w.zs[:-1]),
        ]
        for bad in malformed:
            check = verify_similarity(bad)
            assert not check and check.reasons


class TestFindDetSimilar:
    def test_punctured_plane_example(self):
        w = find_det_similar(punctured_plane(F5), F5(4), 2)
        assert w.verified
        assert bool(verify_det_similarity(w))
        # independent re-check with the raw 2x2 formula
        r = 4
        for i, j in itertools.combinations(range(3), 2):
            x1, x2 = w.xs[i].coords, w.xs[j].coords
            y1, y2 = w.ys[i].coords, w.ys[j].coords
            dx = (x1[0] * x2[1] - x1[1] * x2[0]) % 5
            dy = (y1[0] * y2[1] - y1[1] * y2[0]) % 5
            assert dx == r * dy % 5

    def test_ratio_one_verifies(self):
        w = find_det_similar(punctured_plane(F3), F3(1), 2)
        assert w.verified
        assert w.ys == w.zs  # root is 1

    def test_not_a_dth_power(self):
        f7 = make_field(7)
        pts = PointSet(f7, 2, [v for v in all_vectors(f7, 2) if not v.is_zero()])
        with pytest.raises(NotADthPower):
            find_det_similar(pts, f7(3), 2)

    def test_origin_rejected(self):
        with pytest.raises(OriginInSet):
            find_det_similar(full_plane(F5), F5(4), 2)

    def test_k_below_dimension_rejected(self):
        with pytest.raises(ValueError):
            find_det_similar(punctured_plane(F5), F5(4), 1)

    def test_zero_dilation(self):
        with pytest.raises(ZeroDilation):
            find_det_similar(punctured_plane(F5), F5(0), 2)

    def test_insufficient_intersection(self):
        e = from_coords(F5, 2, [[1, 0], [0, 1]])
        with pytest.raises(InsufficientIntersection):
            find_det_similar(e, F5(4), 2)

    def test_json_round_trip(self):
        w = find_det_similar(punctured_plane(F5), F5(4), 3)
        again = DetSimilarityWitness.from_json(json.loads(json.dumps(w.to_json())))
        assert bool(verify_det_similarity(again))
        assert again.to_json() == w.to_json()

    @pytest.mark.parametrize("change", [
        {"g": [[1, 0]]},             # not d x d
        {"g": [[1, 0], [0, "1"]]},   # non-integer entry
        {"k": True},                 # a bool is not an int
        {"root": None},
        {"ys": [[1, 0]]},            # k+1 = 4 rows expected
    ])
    def test_from_json_rejects_malformed(self, change):
        w = find_det_similar(punctured_plane(F5), F5(4), 3)
        with pytest.raises(MalformedWitness):
            DetSimilarityWitness.from_json({**w.to_json(), **change})

    def test_three_dimensional_witness(self):
        # cubing is a bijection mod 3, so every nonzero ratio is admissible
        pts = PointSet(F3, 3, [v for v in all_vectors(F3, 3) if not v.is_zero()])
        w = find_det_similar(pts, F3(2), 3)
        assert w.verified
        assert w.root.value ** 3 % 3 == 2
        check = verify_det_similarity(w)
        assert check.ok, check.reasons
        for combo in itertools.combinations(range(4), 3):
            cols_x = [w.xs[i] for i in combo]
            cols_y = [w.ys[i] for i in combo]
            assert det_of_columns_cofactor(cols_x) == F3(2) * det_of_columns_cofactor(cols_y)

    def test_perturbation_detected(self):
        w = find_det_similar(punctured_plane(F5), F5(4), 2)
        ys = list(w.ys)
        ys[0] = ys[0] + Vector(F5, [0, 1])
        bad = replace(w, ys=tuple(ys))
        assert not verify_det_similarity(bad)

    def test_never_raises_on_malformed_witnesses(self):
        from fqsim import Matrix, SpecialLinear

        w = find_det_similar(punctured_plane(F5), F5(4), 2)
        malformed = [
            replace(w, root=make_field(7)(1)),
            replace(w, transform=SpecialLinear(Matrix.identity(F5, 3))),
            replace(w, xs=w.xs[:-1]),
        ]
        for bad in malformed:
            check = verify_det_similarity(bad)
            assert not check and check.reasons


def no_group(*args, **kwargs):
    raise AssertionError("the det finder enumerated a group")


def object_level_reasons(w):
    """Oracle for the subset checks of verify_det_similarity: the same
    reasons from Matrix-level cofactor determinants of Vector columns."""
    reasons = []
    for combo in itertools.combinations(range(len(w.xs)), w.xs[0].dim):
        dx = det_of_columns_cofactor([w.xs[i] for i in combo])
        dy = det_of_columns_cofactor([w.ys[i] for i in combo])
        dz = det_of_columns_cofactor([w.zs[i] for i in combo])
        label = tuple(i + 1 for i in combo)
        if dx != w.ratio * dy:
            reasons.append(f"determinant relation violated at indices {label}")
        if dz != dx:
            reasons.append(f"unimodular step violated at indices {label}")
        if dz != w.ratio * dy:
            reasons.append(f"homogeneity step violated at indices {label}")
    return reasons


class TestDetFinderScan:
    """find_det_similar counts transporters instead of enumerating SL(d, q)."""

    @pytest.mark.parametrize("q, d, k, r", [(5, 2, 3, 4), (7, 2, 2, 2), (3, 3, 3, 2), (5, 1, 2, 3)])
    def test_builds_no_group(self, monkeypatch, q, d, k, r):
        import fqsim.cli
        import fqsim.groups

        field = make_field(q)
        points = PointSet(field, d, [v for v in all_vectors(field, d) if not v.is_zero()])
        expected = find_det_similar(points, field(r), k).to_json()
        for module in (fqsim, fqsim.groups, fqsim.cli):
            monkeypatch.setattr(module, "special_linear_group", no_group)
        monkeypatch.setattr(fqsim.groups.FiniteGroup, "perms", no_group)
        monkeypatch.setattr(fqsim.groups.FiniteGroup, "__init__", no_group)
        w = find_det_similar(points, field(r), k)
        assert w.verified and w.to_json() == expected

    @pytest.mark.parametrize("q, d, n, seed", [(5, 2, 10, 1), (7, 2, 14, 2), (3, 3, 12, 3)])
    def test_report_matches_the_enumerated_group(self, q, d, n, seed):
        from fqsim import max_intersection, random_subset, Space, special_linear_group

        field = make_field(q)
        points = random_subset(Space.punctured(field, d), n, seed)
        w = find_det_similar(points, field(1), d)
        oracle = max_intersection(special_linear_group(field, d), points, points.scaled(w.root))
        assert w.report.to_json() == oracle.to_json()

    def test_budget_refusal_comes_after_the_ratio_checks(self):
        field = make_field(101)
        points = from_coords(field, 2, [[1, 0], [0, 1], [1, 1]])
        with pytest.raises(NotADthPower):  # 2 is no square mod 101: exit 3 first
            find_det_similar(points, field(2), 2)
        with pytest.raises(EnumerationCapExceeded) as exc:
            find_det_similar(points, field(4), 2)
        assert str(exc.value) == (
            "matrix scan (q^(d^2)) needs at most 100000000 candidates, got 104060401")

    def test_sweep_outcome_for_an_oversized_q(self):
        from fqsim import SweepConfig, run_sweep

        reports = run_sweep(SweepConfig(qs=(101,), d=2, ks=(2,), ratios=(4,),
                                        kind="det-similarity"))
        assert [r.outcome for r in reports] == [{
            "status": "error", "error": "EnumerationCapExceeded",
            "message": "matrix scan (q^(d^2)) needs at most 100000000 candidates, "
                       "got 104060401"}]


class TestDetVerifierDeterminants:
    """The int-row subset determinants against Matrix-level cofactors."""

    @pytest.mark.parametrize("q, d, n", [(5, 1, 4), (7, 2, 9), (3, 3, 6), (5, 3, 7)])
    def test_reasons_match_object_level_oracle(self, q, d, n):
        from fqsim import Matrix, SpecialLinear, random_subset, Space

        field = make_field(q)
        rng = random.Random(q * 100 + d)
        for trial in range(6):
            xs = random_subset(Space.punctured(field, d), n, trial).points
            root = field(rng.randrange(1, q))
            ys = [root.inverse() * v for v in xs]
            if trial:  # perturb a few coordinates of y
                for _ in range(trial):
                    i = rng.randrange(n)
                    ys[i] = ys[i] + Vector(field, [rng.randrange(q) for _ in range(d)])
            w = DetSimilarityWitness(ratio=root ** d, root=root,
                                     transform=SpecialLinear(Matrix.identity(field, d)),
                                     xs=tuple(xs), ys=tuple(ys), zs=tuple(xs))
            check = verify_det_similarity(w)
            expected = object_level_reasons(w)
            assert [s for s in check.reasons if "indices" in s] == expected
            if trial == 0:
                assert check.ok


class TestSphereExperiment:
    def test_full_sphere_mod_three(self):
        result = sphere_experiment(3, 2, 1, 3)
        assert result.transitive
        assert result.sphere_size == 4
        assert result.report.best_count == 4
        assert result.report.bound == 4
        assert result.meets_exact_threshold
        assert result.guarantee_holds

    def test_full_sphere_mod_five(self):
        result = sphere_experiment(5, 2, 1, 1)
        assert result.report.best_count == result.sphere_size

    def test_empty_set(self):
        f = make_field(5)
        empty = PointSet(f, 2)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            result = sphere_experiment(5, 2, 1, 1, e_set=empty)
        assert result.report.best_count == 0
        assert result.report.bound == 0
        assert result.guarantee_holds

    def test_empty_sphere_applies_no_guarantee(self):
        # x² = 2 has no root mod 3: |E||H|/|X| bounds nothing on an empty sphere
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            result = sphere_experiment(3, 1, 2, 1)
        assert result.sphere_size == 0
        assert (result.report.best_count, result.report.bound) == (0, 0)
        assert result.meets_exact_threshold and not result.reaches_target
        assert result.guarantee_holds

    def test_radius_zero_not_transitive(self):
        # the radius-0 sphere mod 5 contains the origin and 8 isotropic points
        result = sphere_experiment(5, 2, 0, 1)
        assert not result.transitive
        assert result.guarantee_holds  # guarantee does not apply

    def test_not_on_sphere(self):
        bad = from_coords(F3, 2, [[1, 1]])  # norm 2, not 1
        with pytest.raises(NotOnSphere):
            sphere_experiment(3, 2, 1, 1, e_set=bad)

    def test_negative_k_is_refused_before_the_points_and_the_group(self, monkeypatch):
        monkeypatch.setattr(fqsim.configurations, "orthogonal_group", None)
        bad = from_coords(F3, 2, [[1, 1]])
        with pytest.raises(ValueError, match="k must be nonnegative, got -1"):
            sphere_experiment(7, 2, 1, -1)
        with pytest.raises(ValueError, match="k must be nonnegative, got -1"):
            sphere_experiment(3, 2, 1, -1, e_set=bad)

    def test_coarse_threshold_reported(self):
        result = sphere_experiment(3, 2, 1, 3)
        assert result.coarse_space_size == 3
        assert result.meets_coarse_threshold
        # |E||H| = 15 on the 8-point circle mod 7: 2·7 <= 15 < 2·8
        surface = sphere(7, 2, 1)
        e_set, h_set = (PointSet(make_field(7), 2, list(surface.points[:n])) for n in (3, 5))
        result = sphere_experiment(7, 2, 1, 1, e_set=e_set, h_set=h_set)
        assert (result.coarse_space_size, result.sphere_size) == (7, 8)
        assert result.meets_coarse_threshold and not result.meets_exact_threshold

    def test_subset_run(self):
        surface = sphere(7, 2, 1)
        half = PointSet(make_field(7), 2, list(surface.points[:4]))
        result = sphere_experiment(7, 2, 1, 1, e_set=half, h_set=half)
        assert result.report.best_count >= Fraction(16, len(surface))
        assert result.guarantee_holds
