"""Similarity and determinant-similarity witnesses, thresholds, edge sets."""

import hashlib
import itertools
import json
import random
import sys
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
    FieldMismatch,
    InsufficientIntersection,
    MalformedWitness,
    NotADthPower,
    NotASquare,
    OriginInSet,
    PointSet,
    SimilarityWitness,
    Space,
    Vector,
    ZeroDilation,
    edge_preset,
    find_det_similar,
    find_similar_config,
    make_field,
    meets_threshold,
    random_pointset,
    similarity_threshold,
    verify_det_similarity,
    verify_similarity,
)
from fqsim.cli import main
from fqsim.configurations import _subset_dets
from fqsim.groups import _identity

from helpers import _det_cofactor, det_of_columns_cofactor, from_coords, pair_norms, scaled_by_vectors

F3 = make_field(3)
F5 = make_field(5)


def full_plane(field):
    return Space.full(field, 2)


def punctured_plane(field):
    return Space.punctured(field, 2)


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

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
    def test_all_pairs_is_one_edge_set_per_k(self, k):
        built = EdgeSet(k, itertools.combinations(range(1, k + 2), 2))
        kept = EdgeSet.all_pairs(k)
        assert kept == built and hash(kept) == hash(built) and repr(kept) == repr(built)
        assert EdgeSet.all_pairs(k) is kept and edge_preset("simplex", k) is kept

    def test_presets_by_name(self):
        assert edge_preset("simplex", 2) == EdgeSet.all_pairs(2)
        with pytest.raises(ValueError):
            edge_preset("wheel", 2)

    def test_presets_are_budgeted_by_their_pair_counts(self, monkeypatch):
        """C(k+1, 2), k, k and k + 1 pairs, on both sides of a cap of 10;
        a k < 1, and a cycle's k < 2, keep their own refusal."""
        monkeypatch.setattr(fqsim.geometry, "ENUMERATION_CAP", 10)
        for preset, fits in [(EdgeSet.all_pairs, 4), (EdgeSet.path, 10), (EdgeSet.star, 10),
                             (EdgeSet.cycle, 9)]:
            assert len(preset(fits).pairs) == 10
            with pytest.raises(EnumerationCapExceeded, match="^edge set \\(pairs\\) needs at most 10 "):
                preset(fits + 1)
        monkeypatch.setattr(fqsim.geometry, "ENUMERATION_CAP", 0)
        for preset in (EdgeSet.all_pairs, EdgeSet.path, EdgeSet.star):
            for k in (0, -10 ** 6, 0):  # a refusal is never kept
                with pytest.raises(ValueError, match=f"^edge sets need k >= 1, got {k}$"):
                    preset(k)
        for k in (1, 0, -10 ** 6):
            with pytest.raises(ValueError, match="^a cycle through k\\+1 points needs k >= 2$"):
                EdgeSet.cycle(k)


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

    @pytest.mark.parametrize("q, k", [(2, 1), (3, 2), (101, 3), (2 ** 31 - 1, 6), (2 ** 31 - 1, 2 ** 18 - 2)])
    def test_refused_exactly_past_4300_digits(self, q, k):
        # around the largest d whose threshold prints, and around the d past
        # which d·bits(q) + bits(k+1) reaches the bit length of 10^8600; at
        # q = 2^31 - 1, k + 1 = 2^18 - 1 and d = 921 that exponent is the
        # bit length itself, and (k+1)·q^d, a hair below 2^28569, is refused
        square = (10 ** 4300 - 1) ** 2
        low, high = 0, square.bit_length()  # bisect for the largest d with (k+1)·q^d <= square
        while low < high:
            mid = (low + high + 1) // 2
            low, high = (mid, high) if (k + 1) * q ** mid <= square else (low, mid - 1)
        last = low
        edge = (square.bit_length() - (k + 1).bit_length()) // q.bit_length()
        for d in sorted({last - 1, last, last + 1, edge - 1, edge, edge + 1}):
            size = (k + 1) * q ** d
            if size > square:
                with pytest.raises(EnumerationCapExceeded, match="^threshold set size for "
                                   f"q = {q}, d = {d}, k = {k} has more than 4300 digits$"):
                    similarity_threshold(q, d, k)
            else:
                n = similarity_threshold(q, d, k)
                assert (n - 1) ** 2 < size <= n * n, (q, d, k)

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

    def test_ratio_over_another_field_is_refused(self):
        with pytest.raises(FieldMismatch) as refused:
            find_similar_config(full_plane(F5), make_field(7)(2), 2)
        assert str(refused.value) == "ratio and point set live in different fields"

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

    def test_header_only_set_in_huge_dimension_answers_at_once(self, capsys, tmp_path):
        # The one decoded best shift shares the cached d x d identity, so
        # the answer costs one identity table, built once.
        path = tmp_path / "header.txt"
        path.write_text("q=3 d=4000\n")
        start = time.perf_counter()
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # the empty set warns
                code = main(["find-similar", "--q", "3", "--d", "4000", "--r", "1", "--k", "1",
                             "--set", str(path)])
            elapsed = time.perf_counter() - start
        finally:
            _identity.cache_clear()  # 16M entries, about 128 MB
        assert code == 1 and elapsed < 1.0
        assert json.loads(capsys.readouterr().out)["error"] == "InsufficientIntersection"


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


def vectors_made(monkeypatch, call):
    """`call()` and the number of vectors it makes, by `Vector.__init__` or
    by `Vector._of`."""
    made = []
    init, of = Vector.__init__, Vector._of.__func__

    def counting_init(self, field, coords):
        made.append(None)
        init(self, field, coords)

    def counting_of(cls, field, coords):
        made.append(None)
        return of(cls, field, coords)

    monkeypatch.setattr(Vector, "__init__", counting_init)
    monkeypatch.setattr(Vector, "_of", classmethod(counting_of))
    try:
        return call(), len(made)
    finally:
        monkeypatch.undo()


class TestWitnessKeepsTuples:
    """A finder hands its witness the coordinate tuples it has: a sweep
    cell of either kind, and a similarity find past the byte bound, make
    no vector; xs, ys, zs and the shift become vectors on first read, once."""

    @pytest.mark.parametrize("kind, q, k", [("similarity", 13, 2), ("det-similarity", 7, 3)])
    def test_a_sweep_cell_makes_no_vector(self, monkeypatch, kind, q, k):
        from fqsim.harness import SweepConfig, run_cell

        cell = next(c for c in SweepConfig(qs=(q,), d=2, ks=(k,), trials=1, base_seed=1, kind=kind).cells()
                    if c["r"] == 4)
        report, made = vectors_made(monkeypatch, lambda: run_cell(cell))
        assert report.outcome["status"] == "witness" and report.outcome["witness"]["verified"]
        assert made == 0

    def test_a_find_past_the_byte_bound_makes_no_vector(self, monkeypatch):
        points = random_pointset(101, 2, 450, 1)

        def find():
            w = find_similar_config(points, make_field(101)(4), 3)
            return w, w.to_json(), w.k

        (w, out, k), made = vectors_made(monkeypatch, find)
        assert w.verified and out["verified"] and k == 3 and made == 0

    @pytest.mark.parametrize("name", ["T(13,2) k=3", "T(101,2) k=3", "SL(2,7) k=2", "SL(2,17) k=2"])
    def test_each_field_is_built_once_on_first_read(self, monkeypatch, name):
        w = FINDER_WITNESSES[name]()
        n = w.k + 1
        for field in ("xs", "ys", "zs"):
            first, made = vectors_made(monkeypatch, lambda: getattr(w, field))
            again, made_again = vectors_made(monkeypatch, lambda: getattr(w, field))
            assert (made, made_again) == (n, 0) and again is first and len(first) == n
            assert all(type(v) is Vector and v.field.q == w.ratio.field.q for v in first)
        if isinstance(w, SimilarityWitness):
            shift, made = vectors_made(monkeypatch, lambda: w.shift)
            assert made == 1 and w.shift is shift and shift.dim == len(w.xs[0].coords)
        else:
            assert not hasattr(w, "shift")

    @pytest.mark.parametrize("name", ["T(13,2) k=2", "T(5,3) k=2", "SL(2,7) k=3", "SL(3,3) k=3"])
    def test_reads_and_sets_keep_json_and_verdicts(self, name):
        """The witness reads alike before and after its fields are built;
        a set field is what the JSON and the verifier read."""
        w = FINDER_WITNESSES[name]()
        before, check = w.to_json(), check_of(w)
        assert check.ok
        w.ys  # built: the verifier reads the vectors from here on
        assert w.to_json() == before and check_of(w) == check
        w.zs = w.zs[::-1]
        assert w.to_json()["zs"] == before["zs"][::-1] and w.to_json()["xs"] == before["xs"]
        assert check_of(w) == check_of(type(w).from_json(w.to_json())) and not check_of(w).ok
        fresh = FINDER_WITNESSES[name]()
        fresh.ratio = make_field(11 if w.ratio.field.q == 7 else 7)(1)
        check = check_of(fresh)  # tuples of another field than the ratio's are read as vectors
        assert not check.ok and check.reasons == check_of(replace(fresh)).reasons


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


class TestRootsAreKept:
    """Each finder takes its root once per (q, r, m), and the det finder's
    root stays the smallest m-th root, refused as before."""

    @pytest.mark.parametrize("kind, take", [("similarity", "sqrt"), ("det-similarity", "mth_root")])
    def test_one_root_per_ratio_across_a_sweep(self, monkeypatch, kind, take):
        import fqsim.configurations
        from fqsim import SweepConfig, run_sweep

        calls = []
        original = getattr(fqsim.FieldElement, take)

        def counted(self, *m):
            calls.append((self.field.q, self.value, *m))
            return original(self, *m)

        monkeypatch.setattr(fqsim.FieldElement, take, counted)
        fqsim.configurations._root.cache_clear()
        config = SweepConfig(qs=(5, 7, 13), d=2, ks=(2, 3), trials=3, base_seed=1, kind=kind)
        reports = run_sweep(config) + run_sweep(config)
        assert all(r.outcome["status"] == "witness" for r in reports)
        assert sorted(calls) == sorted(set(calls)) and len(calls) == 2 + 3 + 6  # one per (q, r)

    def test_a_det_root_is_not_a_kept_square_root(self):
        """sqrt serves any q, mth_root(2) scans the field up to 10^6: a kept
        square root of a similarity search is not the det finder's root."""
        from fqsim import ScanCapExceeded

        field = make_field(1000003)
        points = from_coords(field, 2, [[1, 0], [2, 0], [4, 0], [0, 1]])  # 2·E meets E twice
        assert find_similar_config(points, field(4), 1).root.value == 2
        with pytest.raises(ScanCapExceeded):
            find_det_similar(points, field(4), 2)
        with pytest.raises(NotADthPower):
            find_det_similar(points, field(5), 2)  # 1000003 = 3 (mod 4): 5 is no square


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
        pts = punctured_plane(f7)
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
        pts = Space.punctured(F3, 3)
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

    def test_a_zero_root_is_named(self):
        w = find_det_similar(punctured_plane(F5), F5(4), 2)
        check = verify_det_similarity(replace(w, root=F5(0)))
        assert not check and "root is zero" in check.reasons
        assert "stored root to the 2-th power is not the ratio" in check.reasons

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


def no_inverse(*args, **kwargs):
    raise AssertionError("the det finder inverted a matrix")


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
        import fqsim.geometry
        import fqsim.groups

        field = make_field(q)
        points = Space.punctured(field, d)
        expected = find_det_similar(points, field(r), k).to_json()
        for module in (fqsim, fqsim.groups, fqsim.cli):
            monkeypatch.setattr(module, "special_linear_group", no_group)
        monkeypatch.setattr(fqsim.groups.FiniteGroup, "perms", no_group)
        monkeypatch.setattr(fqsim.groups.FiniteGroup, "__init__", no_group)
        # the witness's x are read off E pushed forward by g, not g⁻¹z
        monkeypatch.setattr(fqsim.groups.GroupElement, "inverse", no_inverse)
        for module in (fqsim.geometry, fqsim.groups):
            monkeypatch.setattr(module, "_inverse_rows", no_inverse)
        w = find_det_similar(points, field(r), k)
        assert w.verified and w.to_json() == expected

    @pytest.mark.parametrize("q, d, n, seed", [(5, 2, 10, 1), (7, 2, 14, 2), (3, 3, 12, 3)])
    def test_report_matches_the_enumerated_group(self, q, d, n, seed):
        from fqsim import max_intersection, random_subset, Space, special_linear_group

        field = make_field(q)
        points = random_subset(Space.punctured(field, d), n, seed)
        w = find_det_similar(points, field(1), d)
        oracle = max_intersection(special_linear_group(field, d), points, scaled_by_vectors(points, w.root))
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


def det_pin_cases():
    """(group of shapes, points, ratio, k) of the det finder pins, every
    nonzero ratio of a shape taken in turn, d-th powers or not."""
    from fqsim import Space, random_subset

    def ratios(q, points, k, step=1):
        field = make_field(q)
        return [(points, field(r), k) for r in range(1, q, step)]

    for q, d in ((3, 2), (5, 2), (3, 3)):  # every count ties
        for k in (d, d + 1):
            yield from (("punctured",) + case for case in ratios(q, Space.punctured(q, d), k))
    for q, d in ((5, 2), (7, 2), (13, 2), (3, 3), (5, 3)):  # exactly k + 1 points
        for k, seed in itertools.product((d, d + 1), (1, 2)):
            points = random_subset(Space.punctured(q, d), k + 1, 100 * q + 10 * d + seed)
            yield from (("k+1 points",) + case for case in ratios(q, points, k))
    for q, d, n, k in ((5, 3, 20, 3), (5, 3, 40, 4), (2, 4, 12, 4), (3, 4, 5, 4)):
        points = random_subset(Space.punctured(q, d), n, 7 * n + q)
        yield from (("seeded",) + case for case in ratios(q, points, k, 2))
    for q, n, k, step in ((17, 40, 2, 3), (17, 100, 3, 5), (19, 30, 2, 4), (19, 60, 3, 6)):
        points = random_subset(Space.punctured(q, 2), n, q + n)
        yield from (("transporters",) + case for case in ratios(q, points, k, step))


@pytest.fixture(scope="module")
def det_pin_digests():
    """sha256 per group of `det_pin_cases`: over the canonical JSON of each
    witness and its report, or of the refusal."""
    from fqsim.harness import canonical_json

    digests = {}
    for name, points, ratio, k in det_pin_cases():
        try:
            w = find_det_similar(points, ratio, k)
            out = {"witness": w.to_json(), "report": w.report.to_json()}
        except fqsim.FqsimError as exc:
            out = {"error": type(exc).__name__, "message": str(exc)}
        digests.setdefault(name, hashlib.sha256()).update(canonical_json(out).encode() + b"\n")
    return {name: h.hexdigest() for name, h in digests.items()}


class TestDetFinderPins:
    """The det finder's witnesses, reports and refusals, pinned before the
    witness was read off the coset scan: where every count ties, sets of
    k + 1 points, d = 3 and 4, and past the byte bound q^d = 256."""

    @pytest.mark.parametrize("name, digest", [
        ("punctured",
         "2dec08ab1996bb333f0d61c1bc5a4182a2a4ff019ec7dba3ac0d9a890190d637"),
        ("k+1 points",
         "b2ed11c6275aebf8896bbcc4f10e04af86f118d4ccce312c2e090fbd44b08ebc"),
        ("seeded",
         "8bb7dc37f51b85db028396cf1719abffdb491cadc863abf896cacd8b865b4179"),
        ("transporters",
         "6c2eb7701db97e3c5f6c63c8afd02f68610db9e5130e6036183c116275cec7f1"),
    ])
    def test_witnesses_are_golden(self, det_pin_digests, name, digest):
        assert det_pin_digests[name] == digest


def overlap_pin_cases():
    """(shape, finder, points, ratio, k) of the shapes that the byte scans
    do not reach and no other pin covers: lines for both finders, the
    `similar_large` shape T(101, 2) and SL(3, 7) at k + 1 and k + 2 points."""
    from fqsim import Space, random_subset

    for q in (31, 251):
        field, full = make_field(q), Space.full(q, 1)
        squares = sorted({v * v % q for v in range(1, q)})[:4]
        for k in (1, 2, 3):
            sets = [random_subset(full, n, q + 10 * k + n) for n in
                    (k + 1, similarity_threshold(q, 1, k), q // 2)] + [full]
            yield from ((f"T({q},1)", find_similar_config, points, field(r), k)
                        for points in sets for r in squares)
    for q in (7, 31):
        field, punctured = make_field(q), Space.punctured(q, 1)
        for k in (1, 2):
            sets = [random_subset(punctured, n, q + 10 * k + n) for n in (k + 1, q // 2)] + [punctured]
            yield from ((f"SL(1,{q})", find_det_similar, points, field(r), k)
                        for points in sets for r in range(1, q, 3))
    field = make_field(101)
    for seed, r in ((1, 4), (2, 9), (3, 100)):
        yield "T(101,2)", find_similar_config, random_pointset(field, 2, 450, seed), field(r), 3
    field = make_field(7)
    for k, extra, seed in itertools.product((3, 4), (1, 2), (1, 2)):
        points = random_subset(Space.punctured(7, 3), k + extra, 70 * k + 7 * extra + seed)
        yield from (("SL(3,7)", find_det_similar, points, field(r), k) for r in range(1, 7))


@pytest.fixture(scope="module")
def overlap_pin_digests():
    """sha256 per shape of `overlap_pin_cases`: over the canonical JSON of
    each witness and its report, or of the refusal."""
    from fqsim.harness import canonical_json

    digests = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for name, finder, points, ratio, k in overlap_pin_cases():
            try:
                w = finder(points, ratio, k)
                out = {"witness": w.to_json(), "report": w.report.to_json()}
            except fqsim.FqsimError as exc:
                out = {"error": type(exc).__name__, "message": str(exc)}
            digests.setdefault(name, hashlib.sha256()).update(canonical_json(out).encode() + b"\n")
    return {name: h.hexdigest() for name, h in digests.items()}


class TestOverlapScanPins:
    """Both finders' witnesses, reports and refusals on lines, on the
    `similar_large` shape and on SL(3, 7), pinned while both finders still
    built H = root·E and walked it past the byte bound and on lines."""

    @pytest.mark.parametrize("name, digest", [
        ("T(31,1)",
         "89ef88f7574608e60c269fc851c353bc9216c26b2270811de8829c554e9a07d5"),
        ("T(251,1)",
         "4fa6a3c3109d892f115f26639a3b510d2e7774ce37385aaaed6fd8ed86315202"),
        ("SL(1,7)",
         "115b8e1eef410eab99856a84a9aedc960ceb987667ca6db792407a69c96a1ea4"),
        ("SL(1,31)",
         "bb6b030c61b135e4b86765b857ff85338a1de68fb10ce46b5627115cd3113854"),
        ("T(101,2)",
         "318de57d4bd9d60f29a64f7f4aa0363fe663f4a49eefa8de33d3ef6992000e6f"),
        ("SL(3,7)",
         "4e4eaf172665bb3ec460538114de3909c2f6a1326831970136e77749390a0ac7"),
    ])
    def test_witnesses_are_golden(self, overlap_pin_digests, name, digest):
        assert overlap_pin_digests[name] == digest


class TestDetVerifierDeterminants:
    """The int-row subset determinants against Matrix-level cofactors."""

    @pytest.mark.parametrize("q, d, n", [(5, 1, 4), (7, 2, 9), (3, 3, 6), (5, 3, 7), (3, 4, 6),
                                         (3, 5, 7)])
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

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_subset_dets_match_the_cofactor_oracle(self, d):
        rng = random.Random(d)
        for q, n in ((2, d + 2), (3, d + 3), (7, d + 2), (5, d - 1), (5, d)):
            for trial in range(4):
                points = [tuple(rng.randrange(q) for _ in range(d)) for _ in range(n)]
                if trial == 1 and n:  # a zero row
                    points[rng.randrange(n)] = (0,) * d
                if trial >= 2 and n > 1:  # a repeated row
                    points[-1] = points[0]
                assert list(_subset_dets(points, d, q)) == [
                    _det_cofactor(rows, q) for rows in itertools.combinations(points, d)], (q, n, trial)

    def test_planar_dets_are_streamed(self):
        import tracemalloc

        points = fqsim.random_subset(fqsim.Space.punctured(101, 2), 300, 1)._coords
        tracemalloc.start()
        try:
            count = sum(1 for _ in _subset_dets(points, 2, 101))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # a list of the 44,850 determinants would hold about 350 KiB
        assert count == 44_850 and peak < 16 * 1024, peak


def pinned_det_witnesses(q, d, seed):
    """A good det witness over F_q^d with d + 3 points, then the same with a
    perturbed x, y and z point, a wrong root, a transform of determinant 2,
    a repeated point (in all three tuples) and the z tuple reversed."""
    from fqsim import Matrix, SpecialLinear

    field = make_field(q)
    rng = random.Random(seed)
    n = d + 3
    xs = rng.sample([c for c in itertools.product(range(q), repeat=d) if any(c)], n)
    upper = [[int(i == j) if i >= j else rng.randrange(q) for j in range(d)] for i in range(d)]
    lower = [[int(i == j) if i <= j else rng.randrange(q) for j in range(d)] for i in range(d)]
    g = [[sum(upper[i][t] * lower[t][j] for t in range(d)) % q for j in range(d)] for i in range(d)]
    s = rng.randrange(1, q)
    inv = pow(s, q - 2, q)
    zs = [tuple(sum(a * b for a, b in zip(row, x)) % q for row in g) for x in xs]
    ys = [tuple(inv * c % q for c in z) for z in zs]

    def witness(xs=xs, ys=ys, zs=zs, root=s, g=g):
        return DetSimilarityWitness(
            ratio=field(s) ** d, root=field(root),
            transform=SpecialLinear.unchecked(Matrix(field, g)),
            xs=tuple(Vector(field, c) for c in xs), ys=tuple(Vector(field, c) for c in ys),
            zs=tuple(Vector(field, c) for c in zs))

    def bumped(vs, i):
        return [tuple((c + 1) % q for c in v) if j == i else v for j, v in enumerate(vs)]

    def repeated(vs):
        return [vs[0], vs[0], *vs[2:]]

    yield witness()
    yield witness(xs=bumped(xs, 1))
    yield witness(ys=bumped(ys, 2))
    yield witness(zs=bumped(zs, n - 1))
    yield witness(root=s % (q - 1) + 1)
    yield witness(g=[[2 * c % q for c in g[0]]] + g[1:])
    yield witness(xs=repeated(xs), ys=repeated(ys), zs=repeated(zs))
    yield witness(zs=zs[::-1])


class TestDetVerifierPinned:
    """The det verifier's verdicts, pinned before its determinants were
    streamed: `ok` and every reason, in order."""

    def test_verdicts_are_golden(self):
        # sha256 over [ok, reasons] of every pinned witness, d = 1..4
        digest = hashlib.sha256()
        for q, d, seed in ((7, 1, 1), (11, 2, 2), (5, 3, 3), (3, 4, 4)):
            checks = [verify_det_similarity(w) for w in pinned_det_witnesses(q, d, seed)]
            assert [c.ok for c in checks] == [True] + [False] * 7, (q, d)
            for check in checks:
                digest.update(json.dumps([check.ok, list(check.reasons)]).encode() + b"\n")
        assert digest.hexdigest() == (
            "a180fbac023c020568f40ed68861197855763dc4a107044042a49bb9c3fe31cb")


def pinned_similarity_witnesses(q, d, seed):
    """A good similarity witness over F_q^d with d + 3 points on every pair,
    then the same with an x, y and z point off by one, a wrong root, a
    wrong shift, a repeated point (in all three tuples), the z tuple
    reversed and a broken edge norm (y and z moved together, so that z = y
    + shift still holds)."""
    field = make_field(q)
    rng = random.Random(seed)
    n = d + 3
    xs = rng.sample(list(itertools.product(range(q), repeat=d)), n)
    s = rng.randrange(1, q)
    a = tuple(rng.randrange(q) for _ in range(d))
    zs = [tuple(s * c % q for c in x) for x in xs]
    ys = [tuple((c - b) % q for c, b in zip(z, a)) for z in zs]

    def witness(xs=xs, ys=ys, zs=zs, root=s, a=a):
        return SimilarityWitness(
            ratio=field(s * s), root=field(root), shift=Vector(field, a),
            xs=tuple(Vector(field, c) for c in xs), ys=tuple(Vector(field, c) for c in ys),
            zs=tuple(Vector(field, c) for c in zs), edges=EdgeSet.all_pairs(n - 1))

    def bumped(vs, i):
        return [tuple((c + 1) % q for c in v) if j == i else v for j, v in enumerate(vs)]

    def repeated(vs):
        return [vs[0], vs[0], *vs[2:]]

    yield witness()
    yield witness(xs=bumped(xs, 1))
    yield witness(ys=bumped(ys, 2))
    yield witness(zs=bumped(zs, n - 1))
    yield witness(root=s % (q - 1) + 1)
    yield witness(a=bumped([a], 0)[0])
    yield witness(xs=repeated(xs), ys=repeated(ys), zs=repeated(zs))
    yield witness(zs=zs[::-1])
    yield witness(ys=bumped(ys, 1), zs=bumped(zs, 1))


def structural_witnesses():
    """Witnesses of both kinds whose tuples, root, shift or transform do not
    fit together: each verifier's structural refusals, singly and together."""
    for w in (next(pinned_similarity_witnesses(5, 2, 1)), next(pinned_det_witnesses(5, 2, 1))):
        yield from structural_mutations(w)


def structural_mutations(w):
    """The `replace` copies of `w` that `structural_witnesses` checks, each
    foreign vector over F_7 (F_11 when `w` lives in F_7)."""
    from fqsim import Matrix, SpecialLinear, Translation

    field, d = w.ratio.field, w.xs[0].dim
    other = make_field(11 if field.q == 7 else 7)
    foreign = tuple(Vector(other, v.coords) for v in w.ys)
    wider = Vector(field, w.zs[1].coords + (0,))
    yield replace(w, root=other(1))
    yield replace(w, xs=(Vector(other, w.xs[0].coords),) + w.xs[1:])
    yield replace(w, ys=())
    yield replace(w, zs=(w.zs[0], wider) + w.zs[2:])
    yield replace(w, root=other(1), xs=(), ys=foreign, zs=(w.zs[0], wider) + w.zs[2:])
    yield replace(w, xs=w.xs[:-1])
    yield replace(w, zs=w.zs + w.zs[:1])
    # past a tuple's first foreign vector its dimensions are not read
    yield replace(w, xs=(w.xs[0], Vector(other, w.xs[1].coords), wider) + w.xs[3:],
                  ys=(Vector(other, wider.coords),) + w.ys[1:])
    if isinstance(w, SimilarityWitness):
        yield replace(w, shift=Vector(other, w.shift.coords))
        yield replace(w, shift=Vector(field, w.shift.coords + (0,)))
        yield replace(w, xs=w.xs[:1], ys=w.ys[:1], zs=w.zs[:1])
    else:
        yield replace(w, transform=Translation(Vector(field, (1,) * d)))
        yield replace(w, transform=SpecialLinear.unchecked(Matrix(other, w.transform.linear)))
        yield replace(w, transform=SpecialLinear(Matrix.identity(field, d + 1)))
        yield replace(w, xs=w.xs[:d], ys=w.ys[:d], zs=w.zs[:d])


class TestSimilarityVerifierPinned:
    """The similarity verifier's verdicts and the structural refusals of
    both verifiers, pinned before the verifiers checked whole tuple lists
    at a time: `ok` and every reason, in order."""

    CASES = ((7, 1, 1), (11, 2, 2), (5, 3, 3), (3, 4, 4))

    def test_verdicts_are_golden(self):
        # sha256 over [ok, reasons] of every pinned witness, d = 1..4
        digest = hashlib.sha256()
        for q, d, seed in self.CASES:
            checks = [verify_similarity(w) for w in pinned_similarity_witnesses(q, d, seed)]
            assert [c.ok for c in checks] == [True] + [False] * 8, (q, d)
            for check in checks:
                digest.update(json.dumps([check.ok, list(check.reasons)]).encode() + b"\n")
        assert digest.hexdigest() == (
            "db1bb4589ae1e28ff4b0ffc52cbcef8146208d17bcd44e50e88259eecd6e35c5")

    def test_structural_reasons_are_golden(self):
        digest = hashlib.sha256()
        for w in structural_witnesses():
            verify = verify_similarity if isinstance(w, SimilarityWitness) else verify_det_similarity
            check = verify(w)
            assert not check.ok and check.reasons
            digest.update(json.dumps([check.ok, list(check.reasons)]).encode() + b"\n")
        assert digest.hexdigest() == (
            "4421cbbc7869ac8568b6faec6d3303da6aff5ff0ded5cf75428a8c88d20b826e")

    def test_verify_witness_outputs_are_golden(self, tmp_path, capsys):
        """`verify-witness` on the JSON of every pinned witness of both
        kinds: its exit code and its stdout, the file's digest included."""
        digest = hashlib.sha256()
        path = tmp_path / "witness.json"
        for q, d, seed in self.CASES:
            for w in itertools.chain(pinned_similarity_witnesses(q, d, seed),
                                     pinned_det_witnesses(q, d, seed)):
                path.write_text(json.dumps(w.to_json()))
                code = main(["verify-witness", str(path)])
                digest.update(json.dumps([code, capsys.readouterr().out]).encode() + b"\n")
        assert digest.hexdigest() == (
            "11ad8443dbce94472f443826e72d1ce70ebcd9be051524fd7b8f2f46b63a8bb6")


def finder_witness_cases():
    """name -> a call that runs a finder afresh, so that nothing has read
    its witness yet: similarity on T(13, 2) at k = 1, 2 and 3, on the
    `similar_large` shape (450 points of F_101^2, k = 3), on a line and on
    F_5^3; det on SL(2, 7) at k = 2 and 3, on SL(3, 3) and on SL(2, 17),
    past the byte bound, where the transporter count runs."""
    from fqsim import random_subset

    def det(q, d, n, seed, r, k):
        return lambda: find_det_similar(random_subset(Space.punctured(q, d), n, seed), make_field(q)(r), k)

    cases = {f"T(13,2) k={k}": lambda k=k: find_similar_config(
        random_pointset(13, 2, 30 + 5 * k, k), make_field(13)(4), k) for k in (1, 2, 3)}
    cases.update({
        "T(101,2) k=3": lambda: find_similar_config(random_pointset(101, 2, 450, 1), make_field(101)(4), 3),
        "T(31,1) k=2": lambda: find_similar_config(random_subset(Space.full(31, 1), 20, 3), make_field(31)(9),
                                                   2, EdgeSet.path(2)),
        "T(5,3) k=2": lambda: find_similar_config(random_subset(Space.full(5, 3), 40, 4), make_field(5)(4), 2),
        "SL(2,7) k=2": det(7, 2, 14, 5, 2, 2),
        "SL(2,7) k=3": det(7, 2, 16, 6, 4, 3),
        "SL(3,3) k=3": det(3, 3, 15, 7, 2, 3),
        "SL(2,17) k=2": det(17, 2, 60, 8, 13, 2),
    })
    return cases


FINDER_WITNESSES = finder_witness_cases()


def check_of(w):
    return verify_similarity(w) if isinstance(w, SimilarityWitness) else verify_det_similarity(w)


class TestFinderWitnessPins:
    """Witnesses as the finders build them, pinned while they were built
    from vectors: their repr, JSON, coordinates, shift or transform and k;
    their JSON round trip; and the verifier's verdicts on each and on its
    structural mutations."""

    @pytest.mark.parametrize("name, digest", [
        ("T(13,2) k=1",
         "13061f3cfe7cf59a5e3f08e71a2f97f201605f1ae6dbca1ebd7029db24f84cb0"),
        ("T(13,2) k=2",
         "a33ca94d35a2373ad826a6fd363763a9e3c0652a6a6fc6fb66d7f5e1fe9d7967"),
        ("T(13,2) k=3",
         "902d11bbab5964772aeab3a539ac8f0e33d5cee49093e56f2f9f3d04baa3c265"),
        ("T(101,2) k=3",
         "221fc4a922afe0b21ad2e6afa02ed59afcec00d4fc237bebfe973e7ff7b91522"),
        ("T(31,1) k=2",
         "40daf7fc7eac2a3c69954abc5b8412e3aa5bd467a2b03f3dcd6ce17380c09260"),
        ("T(5,3) k=2",
         "54c5e5da04fc68f58adf3d2230f447be112fdfe3d23ed7e7e253c0cca5c533fb"),
        ("SL(2,7) k=2",
         "c36d6024bba9fa7b0f7b43da918034eaba95a89f554f1383bee755f5e4bb712c"),
        ("SL(2,7) k=3",
         "bc68545a990402b620d87ddab8507821e629f8107f451df8e637a53ce98b06c8"),
        ("SL(3,3) k=3",
         "338bfa8fa04fded0a8fb6f7443716d5911b945865bcb16544f56623ba206cfca"),
        ("SL(2,17) k=2",
         "ec2737b59e6b05aa0b08027ccad6373d6be3c32e1ec2a1f73fc7766738066e98"),
    ])
    def test_witness_is_golden(self, name, digest):
        from fqsim.harness import canonical_json

        w = FINDER_WITNESSES[name]()
        held = w.shift.coords if isinstance(w, SimilarityWitness) else w.transform.linear
        data = [repr(w), canonical_json(w.to_json()), [[v.coords for v in vs] for vs in (w.xs, w.ys, w.zs)],
                held, w.k]
        assert hashlib.sha256(json.dumps(data).encode()).hexdigest() == digest

    @pytest.mark.parametrize("name", FINDER_WITNESSES)
    def test_json_round_trip_is_equal(self, name):
        w = FINDER_WITNESSES[name]()
        again = type(w).from_json(w.to_json())
        assert w == again and again == w and again.to_json() == w.to_json()

    @pytest.mark.parametrize("name, digest", [
        ("T(13,2) k=1",
         "ff5752e8a2fc67b1a147ca954796cae4efb53227c3f3aca020df33aeb5c48ca1"),
        ("T(13,2) k=2",
         "6d554c3a1710477d7f25e82a0167e80a964234e1cebce8cc4d554838ab747c27"),
        ("T(13,2) k=3",
         "97ee1c9cc29e3eb97a4f7f53cab0f02c7eed5f4058e0090ee210140d2fb586c2"),
        ("T(101,2) k=3",
         "ef71f18f9a6ce51f80161a70128f7bbc2294e2c1945f206158646ff107982103"),
        ("T(31,1) k=2",
         "bf39edaccb33982eb852f011cfa3a1c48a159b758e4e91c172f0a815991c646b"),
        ("T(5,3) k=2",
         "11a1334409be1e4acf2b78b45b9bd1c2ebbfb9814b76fce7df82c024364a025b"),
        ("SL(2,7) k=2",
         "f6e1de7e619d1ffea92fba872213d60d16db2ade0910922be87e6531839d562e"),
        ("SL(2,7) k=3",
         "13e9f95f46b9b85293df413342b70360870927c8fa3dd9a912c42fa983fc7abd"),
        ("SL(3,3) k=3",
         "7a2555768c1553f1010d42a03ddc07a99a48c6665d6c0460b0b9befec3c8b11b"),
        ("SL(2,17) k=2",
         "1b9d432fa17ebe38c616824dbf64a81f1551887f2b87a59181822186d44c3b56"),
    ])
    def test_verdicts_are_golden(self, name, digest):
        # the witness first, before anything reads it, then its mutations
        w = FINDER_WITNESSES[name]()
        checks = [check_of(w)] + [check_of(bad) for bad in structural_mutations(w)]
        assert checks[0].ok and not any(c.ok for c in checks[1:])
        verdicts = [[c.ok, list(c.reasons)] for c in checks]
        assert hashlib.sha256(json.dumps(verdicts).encode()).hexdigest() == digest


def frames_run(call):
    """The result of `call()` and the code object of every Python frame it ran."""
    codes = set()

    def record(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    sys.setprofile(record)
    try:
        result = call()
    finally:
        sys.setprofile(None)
    return result, codes


FINDER_FRAMES = {"find_similar_config", "find_det_similar", "_find_by_overlap", "FiniteGroup.columns",
                 "_root", "FieldElement.sqrt", "FieldElement.mth_root",
                 "FieldElement.is_mth_power"}


class TestVerifierIndependence:
    """The verifiers share no code with the finders: no frame of
    `intersection.py`, of the image table, of a finder (or of anything
    defined in one) or of the field's root routines runs while a witness
    is checked, good or tampered, and the finders' root cache, whose hits
    run no frame, is not asked."""

    @pytest.mark.parametrize("find, verify", [
        (lambda: find_similar_config(random_pointset(13, 2, 60, seed=5), make_field(13)(4), 3),
         verify_similarity),
        (lambda: find_det_similar(PointSet._canonical(make_field(7), 2, sorted(random.Random(20).sample(
            list(itertools.product(range(7), repeat=2))[1:], 20))), make_field(7)(4), 2),
         verify_det_similarity),
        (lambda: find_det_similar(fqsim.random_subset(fqsim.Space.punctured(3, 3), 18, 3), F3(2), 3),
         verify_det_similarity),
    ], ids=["similarity", "det-similarity", "det-similarity-d3"])
    def test_no_kernel_or_finder_frame_runs(self, find, verify):
        w = find()
        roots = fqsim.configurations._root.cache_info
        for witness in (w, type(w).from_json(w.to_json()), replace(w, zs=w.zs[::-1])):
            asked = roots()
            check, codes = frames_run(lambda: verify(witness))
            assert check.ok == (witness.zs == w.zs) and verify.__code__ in codes
            assert roots() == asked
            names = [(c.co_filename, getattr(c, "co_qualname", c.co_name)) for c in codes]
            assert [(f, n) for f, n in names if f.endswith("intersection.py")
                    or n.split(".<locals>")[0] in FINDER_FRAMES] == []
