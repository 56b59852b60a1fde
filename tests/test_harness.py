"""Point-set I/O, seeded sampling, and sweep execution."""

import collections
import hashlib
import io
import itertools
import json
import random
import threading
import time
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

import fqsim.geometry
import fqsim.harness
from fqsim import (
    EdgeSet,
    EnumerationCapExceeded,
    FqsimError,
    HeaderMismatch,
    ParseError,
    PointSet,
    Report,
    Space,
    SpaceTooLarge,
    SplitMix64,
    SweepConfig,
    TooMany,
    Vector,
    derive_seed,
    find_det_similar,
    make_field,
    parse_pointset,
    random_pointset,
    random_subset,
    run_cell,
    run_sweep,
    sweep_summary,
    write_sweep,
)

from fqsim.harness import _det_draw
from fqsim.prng import _BLOCK as BLOCK
from helpers import (coords_list, derive_seed_by_objects, draws_by_doubling, format_pointset,
                     sample_indices_sequential, seed_before)

F5 = make_field(5)

# Range sizes for the sampler: point counts of spaces the package samples,
# 3^40 and 2^63 + 1 (where about a third and a half of all draws fall in
# the rejected top band), and the largest ranges a 64-bit draw covers.
SAMPLE_TOTALS = [1, 2, 25, 120, 121, 169, 10201, 3 ** 40, 2 ** 63 + 1, 2 ** 64 - 1, 2 ** 64]


def coords_digest(sets):
    """sha256 over the coordinate tuples of point sets, one line per set."""
    h = hashlib.sha256()
    for points in sets:
        h.update(repr([p.coords for p in points]).encode() + b"\n")
    return h.hexdigest()


class TestSplitMix64:
    def test_matches_inline_reference(self):
        # step-by-step reference computation, independent of the class
        mask = (1 << 64) - 1

        def reference_stream(seed, n):
            state = seed & mask
            out = []
            for _ in range(n):
                state = (state + 0x9E3779B97F4A7C15) & mask
                z = state
                z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
                z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
                out.append(z ^ (z >> 31))
            return out

        for seed in (0, 1, 42, 2 ** 64 - 1):
            rng = SplitMix64(seed)
            assert [rng.next_u64() for _ in range(5)] == reference_stream(seed, 5)

    def test_next_below_range_and_determinism(self):
        a = SplitMix64(123)
        b = SplitMix64(123)
        draws_a = [a.next_below(7) for _ in range(100)]
        draws_b = [b.next_below(7) for _ in range(100)]
        assert draws_a == draws_b
        assert all(0 <= d < 7 for d in draws_a)

    @pytest.mark.parametrize("call, message", [
        (lambda rng: rng.next_below(0), "next_below needs a positive bound, got 0"),
        (lambda rng: rng.next_below(2 ** 64 + 1), f"next_below covers bounds up to 2^64, got {2 ** 64 + 1}"),
        (lambda rng: rng.next_bits(-1), "bit count out of range: -1"),
        (lambda rng: rng.next_bits(65), "bit count out of range: 65"),
    ], ids=["below-0", "below-past-2^64", "bits-negative", "bits-past-64"])
    def test_bounds_out_of_range_are_refused_before_any_draw(self, call, message):
        rng = SplitMix64(9)
        with pytest.raises(ValueError) as refused:
            call(rng)
        assert str(refused.value) == message and rng.state == 9

    def test_zero_bits_are_zero_and_draw_nothing(self):
        rng = SplitMix64(9)
        assert rng.next_bits(0) == 0 and rng.state == 9
        assert rng.next_bits(64) == SplitMix64(9).next_u64()

    def test_sample_indices_distinct(self):
        rng = SplitMix64(5)
        picks = rng.sample_indices(100, 30)
        assert len(set(picks)) == 30
        assert all(0 <= p < 100 for p in picks)

    def test_sample_all(self):
        rng = SplitMix64(5)
        assert sorted(rng.sample_indices(6, 6)) == [0, 1, 2, 3, 4, 5]

    @given(st.integers(0, 2 ** 64 - 1),
           st.sampled_from(SAMPLE_TOTALS) | st.integers(1, 2 ** 64),
           st.integers(0, 500))
    @example(seed=1, total=2 ** 63 + 1, count=500)
    @example(seed=2 ** 64 - 1, total=2 ** 64, count=0)
    # a range of 4·count is shuffled as a list, one more point takes the dict
    @example(seed=5, total=4 * 300, count=300)
    @example(seed=5, total=4 * 300 + 1, count=300)
    @example(seed=6, total=4 * BLOCK, count=BLOCK)
    @example(seed=6, total=4 * BLOCK + 1, count=BLOCK)
    @example(seed=7, total=3, count=1)
    @example(seed=7, total=2 * BLOCK + 1, count=2 * BLOCK + 1)
    @example(seed=8, total=10 ** 6, count=2 * BLOCK + 1)
    # above 2^63 about half the draws are rejected, so batches run pick by pick
    @example(seed=9, total=2 ** 63 + 1, count=1)
    @example(seed=9, total=2 ** 63 + 12345, count=BLOCK - 1)
    @example(seed=10, total=2 ** 63 + 2 ** 62, count=BLOCK)
    @example(seed=11, total=2 ** 64 - 1, count=BLOCK + 1)
    @example(seed=12, total=2 ** 64, count=2 * BLOCK + 1)
    # a first draw of 2^64 - 1 lies past 2^64 - total, so even a dense range
    # runs pick by pick: rejected for 3 and 1,200 indices, kept for 1,024
    @example(seed=seed_before(2 ** 64 - 1), total=3, count=1)
    @example(seed=seed_before(2 ** 64 - 1), total=4 * 300, count=300)
    @example(seed=seed_before(2 ** 64 - 1), total=4 * 256, count=256)
    @settings(max_examples=100, deadline=None)
    def test_bulk_sampling_matches_the_sequential_oracle(self, seed, total, count):
        count = min(count, total)
        bulk, sequential = SplitMix64(seed), SplitMix64(seed)
        assert bulk.sample_indices(total, count) == sample_indices_sequential(
            sequential, total, count)
        assert bulk.state == sequential.state

    def test_bulk_draws_match_next_u64(self):
        """Against one call per draw and against lanes doubled afresh."""
        for seed in (0, 7, 2 ** 64 - 1):
            for count in (0, 1, 2, 3, 64, 65, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1):
                bulk, one, doubled = SplitMix64(seed), SplitMix64(seed), SplitMix64(seed)
                draws = bulk._draws(count)
                assert draws == [one.next_u64() for _ in range(count)]
                assert draws == list(draws_by_doubling(doubled, count))
                assert bulk.state == one.state == doubled.state

    def test_sampling_memory_is_linear_in_the_count(self):
        """2^64 indices, of which 10^4 are drawn: the peak stays within a
        few dozen words per pick (a pick alone holds a 36-byte int and a
        list slot)."""
        count = 10 ** 4
        tracemalloc.start()
        try:
            SplitMix64(1).sample_indices(2 ** 64, count)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 8 * count

    def test_bounds_past_two_to_the_64_are_refused(self):
        rng = SplitMix64(3)
        assert SplitMix64(3).next_below(2 ** 64) == rng.next_u64()
        with pytest.raises(ValueError, match="up to 2"):
            rng.next_below(2 ** 64 + 1)
        state = rng.state
        with pytest.raises(ValueError, match="more than 2"):
            rng.sample_indices(2 ** 64 + 1, 1)
        assert rng.state == state

    def test_derive_seed_sensitivity(self):
        assert derive_seed(1, 3, 2, 1) != derive_seed(1, 3, 2, 2)
        assert derive_seed(1, 3, 2, 1) == derive_seed(1, 3, 2, 1)

    def test_derive_seed_folds_as_one_generator_per_part(self):
        """The inline fold against one SplitMix64 object per round, over
        random bases and parts: negative, past 2^64 and none at all."""
        rng = random.Random(30)
        values = [lambda: rng.getrandbits(64), lambda: rng.randrange(-10 ** 6, 10 ** 6),
                  lambda: -rng.getrandbits(80), lambda: 2 ** 64 + rng.getrandbits(70),
                  lambda: rng.choice([0, 1, -1, 2 ** 64 - 1, 2 ** 64, -2 ** 64])]
        for _ in range(2000):
            base = rng.choice(values)()
            parts = [rng.choice(values)() for _ in range(rng.randrange(7))]
            assert derive_seed(base, *parts) == derive_seed_by_objects(base, *parts)


class TestRandomPointset:
    def test_determinism(self):
        assert random_pointset(5, 2, 8, seed=1) == random_pointset(5, 2, 8, seed=1)

    def test_seed_sensitivity(self):
        assert random_pointset(5, 2, 8, seed=1) != random_pointset(5, 2, 8, seed=2)

    def test_frozen_sample(self):
        # regression pin: the documented generator must never drift
        ps = random_pointset(5, 2, 8, seed=1)
        assert coords_list(ps) == [
            [0, 1], [0, 3], [1, 3], [2, 0], [2, 3], [3, 0], [3, 1], [4, 4],
        ]

    def test_full_space_any_seed(self):
        for seed in (1, 99):
            assert len(random_pointset(3, 2, 9, seed=seed)) == 9

    def test_too_many(self):
        with pytest.raises(TooMany):
            random_pointset(3, 1, 4, seed=1)

    @pytest.mark.parametrize("dim", [0, -1])
    @pytest.mark.parametrize("n", [0, 1, 3])
    def test_dimension_checked_before_size(self, dim, n):
        with pytest.raises(ValueError, match="dimension must be positive"):
            random_pointset(5, dim, n, seed=1)

    def test_space_of_two_to_the_64_points_is_sampled(self):
        points = random_pointset(2, 64, 5, seed=1)
        assert len(points) == 5 and points.dim == 64

    @pytest.mark.parametrize("q, dim", [(2, 65), (65537, 4), (3, 10 ** 9)])
    @pytest.mark.parametrize("n", [0, 5])
    def test_larger_space_is_refused(self, q, dim, n):
        """Before any draw, and at d = 10^9 without computing q^d."""
        with pytest.raises(SpaceTooLarge, match="more than 2\\^64 points"):
            random_pointset(q, dim, n, seed=1)

    # sha256 of the coordinates of seeded samples, recorded before the
    # draws came in bulk and the samples skipped re-sorting.
    @pytest.mark.parametrize("grid, digest", [
        ([(q, d, n, seed)
          for q, d in [(2, 1), (2, 6), (3, 2), (5, 2), (7, 3), (11, 2), (101, 2), (13, 4)]
          for n in (0, 1, 5, 40) for seed in (1, 2, 2 ** 64 - 1) if n <= q ** d],
         "48100c4620d57de53431b22d74adcd05e7df63eb78ec91c4ac7f14ba175790a4"),
        ([(2, 64, 30, 1), (2, 63, 30, 2), (3, 40, 60, 3), (65521, 4, 40, 4),
          (2147483647, 2, 25, 5), (101, 2, 10201, 6)],
         "6d13b5cdacca476c38b93b9476e5372e4019fc24883d9c280e906290f07f2c67"),
    ])
    def test_random_pointsets_are_golden(self, grid, digest):
        assert coords_digest(random_pointset(*args) for args in grid) == digest

    def test_random_subsets_are_golden(self):
        spaces = [Space.punctured(5, 2), Space.full(7, 2), Space.sphere(13, 2, 1),
                  Space.sphere(7, 3, 3), Space.punctured(3, 3)]
        subsets = [random_subset(space, n, seed) for space in spaces
                   for n in (0, 1, 7, len(space) // 2, len(space)) for seed in (1, 5, 2 ** 63)]
        assert coords_digest(subsets) == (
            "b347dc17676da93f3f1e73c3414c9b06371ea004c428564d2d0f01dfba17c390")

    def test_samples_are_in_canonical_order(self):
        samples = [random_pointset(7, 3, 40, seed=3), random_pointset(2, 64, 9, seed=4),
                   random_subset(Space.sphere(13, 2, 1), 7, seed=5),
                   random_subset(Space.punctured(5, 2), 12, seed=6)]
        for points in samples:
            coords = [p.coords for p in points]
            assert coords == sorted(set(coords))
            assert [points.index(p) for p in points] == list(range(len(points)))
            assert points == PointSet(points.field, points.dim, reversed(points.points))

    @pytest.mark.parametrize("make, seeds", [
        (lambda: Space.punctured(2, 1), (1, 2 ** 63)), (lambda: Space.sphere(7, 3, 1), (1, 2 ** 63)),
        (lambda: Space.full(13, 2), (1, 2 ** 63)), (lambda: Space.full(1000003, 1), (1,))],
        ids=["1", "42", "169", "1000003"])
    def test_random_subset_is_the_sorted_picks(self, make, seeds):
        """A draw of at least a quarter of the set marks its picks, a
        sparser one sorts them: either way the subset holds the picked
        points in canonical order."""
        space = make()
        size = len(space)
        quarter = -(-size // 4)  # the fewest points that mark their picks
        ns = {0, 1, 1000, quarter - 1, quarter} if size > 10 ** 4 else {0, 1, quarter - 1, quarter, size // 2, size}
        for n in sorted(ns):
            for seed in seeds:
                picks = sorted(SplitMix64(seed).sample_indices(size, n))
                assert random_subset(space, n, seed)._coords == tuple(space._coords[i] for i in picks)

    def test_random_subset_of_space(self):
        space = Space.punctured(5, 2)
        ps = random_subset(space, 10, seed=4)
        assert len(ps) == 10
        assert all(p in space for p in ps)


# (q, d) whose det search fits the q^(d^2) scan budget, and two past it
DET_SHAPES = [(q, d) for q in (2, 3, 5, 7, 31) for d in (1, 2, 3)
              if q ** (d * d) <= fqsim.geometry.ENUMERATION_CAP]
PAST_THE_SCAN = [(31, 3), (101, 2)]


class TestFlatIndexDraws:
    @pytest.mark.parametrize("q, d", DET_SHAPES)
    def test_det_draw_is_the_punctured_subset(self, q, d):
        """Pick i of the punctured space is flat index i + 1: the same
        points, in the same order, as the draw from the listed space."""
        field, space = make_field(q), Space.punctured(q, d)
        size = len(space)
        for n in sorted({0, 1, size // 2, size}):
            for seed in (1, 5, 2 ** 63):
                drawn = _det_draw(field, d, n, seed)
                assert drawn._coords == random_subset(space, n, seed)._coords

    @pytest.mark.parametrize("q, d", DET_SHAPES + PAST_THE_SCAN)
    def test_det_draw_refuses_as_the_punctured_subset(self, q, d):
        field, space = make_field(q), Space.punctured(q, d)
        for n in (len(space) + 1, -1):
            with pytest.raises((TooMany, ValueError)) as want:
                random_subset(space, n, 3)
            with pytest.raises(type(want.value)) as got:
                _det_draw(field, d, n, 3)
            assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("q, d", PAST_THE_SCAN)
    def test_det_draw_past_the_scan_budget_draws_nothing(self, q, d, monkeypatch):
        monkeypatch.setattr(SplitMix64, "_draws", None)
        for n in (0, 1, q ** d - 1):
            assert _det_draw(make_field(q), d, n, 3) == PointSet(make_field(q), d)

    def test_det_cell_on_a_line_lists_no_space(self):
        """F_10000019 minus the origin holds 10^7 points; the cell draws
        4,473 of them."""
        cell = next(SweepConfig(qs=(10000019,), d=1, ks=(1,), ratios=(1,), kind="det-similarity").cells())
        start = time.perf_counter()
        outcome = run_cell(cell).outcome
        assert time.perf_counter() - start < 1.0
        assert outcome["status"] == "witness"
        tracemalloc.start()
        try:
            assert run_cell(cell).outcome == outcome
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * 2 ** 20


class TestBudgets:
    """Each budget on both sides of a small ENUMERATION_CAP."""

    @pytest.fixture
    def cap(self, monkeypatch):
        def set_cap(value):
            monkeypatch.setattr(fqsim.geometry, "ENUMERATION_CAP", value)
        return set_cap

    def test_random_sample(self, cap, monkeypatch):
        cap(10)
        assert len(random_pointset(5, 2, 10, seed=1)) == 10
        monkeypatch.setattr(SplitMix64, "sample_indices", None)  # refused before any draw
        with pytest.raises(EnumerationCapExceeded, match="^random sample \\(points\\) needs at most 10 "
                                                         "candidates, got 11$"):
            random_pointset(5, 2, 11, seed=1)
        # the size checks come first
        with pytest.raises(TooMany):
            random_pointset(3, 2, 11, seed=1)
        with pytest.raises(ValueError, match="nonnegative"):
            random_pointset(5, 2, -11, seed=1)

    def test_sweep_grid(self, cap):
        cap(12)
        # 3 squares of F_7 · 2 ks · 2 trials
        assert len(list(SweepConfig(qs=(7,), d=1, ks=(1, 2), trials=2).cells())) == 12
        # the count runs over qs: 2 + 3 + 3 fixed ratios, times 1 k and 1 trial
        assert len(list(SweepConfig(qs=(5, 7, 3), d=1, ks=(1,), ratios=(1, 2, 1), trials=1).cells())) == 9
        for config in [SweepConfig(qs=(7,), d=1, ks=(1, 2), trials=3),
                       SweepConfig(qs=(7, 7, 5), d=1, ks=(1,), trials=2),
                       SweepConfig(qs=(5,), d=1, ks=(1, 2, 3, 4), ratios=(1, 2, 1, 4), trials=1)]:
            with pytest.raises(EnumerationCapExceeded, match="^sweep grid \\(cells\\) needs at most 12 "):
                list(config.cells())
        # each q's own checks come first
        with pytest.raises(FqsimError, match="prime"):
            list(SweepConfig(qs=(4,), d=1, ks=(1,), trials=20).cells())
        with pytest.raises(SpaceTooLarge):
            list(SweepConfig(qs=(2,), d=65, ks=(1,), trials=20).cells())

    def test_square_count_is_the_expansion(self, cap):
        """The grid counts q // 2 nonzero squares, for q = 2 and every odd
        prime up to 97."""
        for q in [2] + [q for q in range(3, 98, 2) if all(q % p for p in range(3, q, 2))]:
            squares = len({v * v % q for v in range(1, q)})
            cap(squares)
            assert len(list(SweepConfig(qs=(q,), d=1, ks=(1,)).cells())) == squares
            cap(squares - 1)
            with pytest.raises(EnumerationCapExceeded):
                list(SweepConfig(qs=(q,), d=1, ks=(1,)).cells())

    def test_a_large_grid_is_refused_before_it_is_built(self):
        start = time.perf_counter()
        for config in [SweepConfig(qs=(3,), d=2, ks=(1,), trials=10 ** 9),
                       SweepConfig(qs=(4294967291,), d=1, ks=(1,))]:
            with pytest.raises(EnumerationCapExceeded, match="^sweep grid"):
                list(config.cells())
        assert time.perf_counter() - start < 1.0


class TestPointsetFormat:
    def test_parse_basic(self):
        ps = parse_pointset("q=5 d=2\n0,0\n1,2\n")
        assert coords_list(ps) == [[0, 0], [1, 2]]

    def test_comments_and_blanks(self):
        ps = parse_pointset("# header\nq=5 d=2\n\n0,0  # origin\n")
        assert len(ps) == 1

    @pytest.mark.parametrize("c", ["\x1c", "\x1d", "\x1e", "\x1f"])
    def test_cells_are_stripped_as_edge_cells_are(self, c):
        # str.strip removes each of these, int() does not
        messy = parse_pointset(f"q=5 d=2\n{c}1{c},{c}2{c}\n2{c},{c}3\n")
        assert coords_list(messy) == coords_list(parse_pointset("q=5 d=2\n1,2\n2,3\n")) == [[1, 2], [2, 3]]

    def test_out_of_range_coordinate(self):
        with pytest.raises(HeaderMismatch) as exc:
            parse_pointset("q=5 d=2\n7,0\n")
        assert exc.value.line == 2

    def test_wrong_coordinate_count(self):
        with pytest.raises(HeaderMismatch):
            parse_pointset("q=5 d=2\n1,2,3\n")

    def test_header_mismatch_is_a_parse_error(self):
        with pytest.raises(ParseError) as exc:
            parse_pointset("q=5 d=2\n0,0\n7,0\n")
        assert type(exc.value) is HeaderMismatch
        assert (exc.value.line, exc.value.reason) == (3, "coordinate 7 out of range for q=5")
        assert str(exc.value) == "line 3: coordinate 7 out of range for q=5"

    def test_duplicate_warns_and_dedupes(self):
        with pytest.warns(UserWarning):
            ps = parse_pointset("q=5 d=2\n1,2\n1,2\n")
        assert len(ps) == 1

    def test_malformed_line(self):
        with pytest.raises(ParseError):
            parse_pointset("q=5 d=2\na,b\n")

    def test_missing_header(self):
        with pytest.raises(ParseError):
            parse_pointset("0,0\n")

    def test_bad_header(self):
        with pytest.raises(ParseError):
            parse_pointset("q=5\n0,0\n")

    def test_round_trip(self):
        ps = random_pointset(7, 2, 10, seed=2)
        assert parse_pointset(format_pointset(ps)) == ps


class TestSweeps:
    def small_config(self, **overrides):
        base = dict(qs=(3, 5), d=2, ks=(1, 2), ratios="all-squares",
                    trials=2, base_seed=7, size="threshold")
        base.update(overrides)
        return SweepConfig(**base)

    def test_cell_count(self):
        cfg = self.small_config()
        # q=3 has 1 nonzero square, q=5 has 2; 2 k values; 2 trials
        assert len(list(cfg.cells())) == (1 + 2) * 2 * 2

    def test_every_seed_is_derived_from_the_cell(self):
        """The grid folds (base, q, d, k, r) once and each trial after it."""
        for config in [self.small_config(trials=5), self.small_config(base_seed=2 ** 64 - 1, ratios=(1, 6)),
                       SweepConfig(qs=(7, 3), d=3, ks=(3, 4), trials=3, kind="det-similarity")]:
            cells = list(config.cells())
            assert len(cells) > config.trials
            for c in cells:
                assert c["seed"] == derive_seed(config.base_seed, c["q"], c["d"], c["k"], c["r"], c["trial"])

    def test_all_threshold_cells_yield_witnesses(self):
        reports = run_sweep(self.small_config())
        summary = sweep_summary(reports)
        assert summary["witnesses"] == summary["cells"]
        assert summary["violations"] == 0
        for rep in reports:
            assert rep.outcome["witness"]["verified"]

    def test_a_similarity_cell_rebuilds_no_vector_or_edge_set(self, monkeypatch):
        """After a cell with the same k, a similarity cell builds every
        vector from canonical tuples unchecked and reuses the edge set: no
        checked Vector or EdgeSet constructor runs.  Checked, they would run
        14 and 1 times here: the 3(k+1) witness points, the shift, the
        decoded best shift and the edge set."""
        calls = collections.Counter()
        for cls in (Vector, EdgeSet):
            def counted(self, *args, _init=cls.__init__, _name=cls.__name__, **kwargs):
                calls[_name] += 1
                _init(self, *args, **kwargs)
            monkeypatch.setattr(cls, "__init__", counted)
        warm, cell = list(SweepConfig(qs=(11,), d=2, ks=(3,), trials=2, base_seed=1).cells())[-2:]
        assert run_cell(warm).outcome["status"] == "witness"
        calls.clear()
        outcome = run_cell(cell).outcome
        assert outcome["status"] == "witness" and outcome["witness"]["verified"]
        assert (calls["Vector"], calls["EdgeSet"]) == (0, 0)

    def test_jobs_reproduce_payloads(self):
        cfg = self.small_config()
        seq = run_sweep(cfg, jobs=1)
        par = run_sweep(cfg, jobs=4)
        assert [r.outcome_bytes() for r in seq] == [r.outcome_bytes() for r in par]
        assert [r.config for r in seq] == [r.config for r in par]

    @pytest.mark.parametrize("jobs", [0, -3, 2.5])
    def test_jobs_below_one_rejected_before_any_cell(self, jobs):
        with pytest.raises(ValueError):
            run_sweep(self.small_config(), jobs=jobs)
        buf = io.StringIO()
        with pytest.raises(ValueError):
            write_sweep(self.small_config(), buf, jobs=jobs)
        assert buf.getvalue() == ""

    @pytest.mark.parametrize("size", [-1, -3, "-3"])
    def test_negative_size_rejected_before_any_cell(self, size):
        with pytest.raises(ValueError, match="set size must be nonnegative"):
            self.small_config(size=size)

    def test_zero_size_is_a_valid_config(self):
        assert {c["n"] for c in self.small_config(size=0).cells()} == {0}

    def test_undersized_cells_fail_without_aborting(self):
        cfg = self.small_config(ks=(2,), size=2, trials=1)
        reports = run_sweep(cfg)
        summary = sweep_summary(reports)
        assert summary["errors"] == summary["cells"]
        assert summary["violations"] == 0  # below threshold, so not a violation
        for rep in reports:
            assert rep.outcome["error"] == "InsufficientIntersection"

    def test_a_failed_search_that_met_the_threshold_is_a_violation(self):
        reports = [Report(config={"meets_threshold": met}, outcome={"status": "error", "error": error},
                          timing_ms=0.0)
                   for met, error in [(True, "InsufficientIntersection"), (False, "InsufficientIntersection"),
                                      (True, "VerificationFailed")]]
        assert sweep_summary(reports) == {"summary": True, "cells": 3, "witnesses": 0, "errors": 3,
                                          "violations": 1}

    def test_write_sweep_stream_is_json_lines(self):
        buf = io.StringIO()
        summary = write_sweep(self.small_config(trials=1), buf)
        lines = buf.getvalue().strip().split("\n")
        parsed = [json.loads(line) for line in lines]
        assert len(parsed) == summary["cells"] + 1
        assert parsed[-1]["summary"] is True

    def test_write_sweep_keeps_no_report(self):
        class Discard:
            def write(self, text):
                return len(text)

            def flush(self):
                pass

        cfg = self.small_config(qs=(3,), ks=(1,), trials=2000)  # 2,000 witness cells
        write_sweep(self.small_config(qs=(3,), ks=(1,)), Discard())  # warm the caches
        tracemalloc.start()
        try:
            cells = list(cfg.cells())
            _, cells_peak = tracemalloc.get_traced_memory()
            del cells
            tracemalloc.reset_peak()
            summary = write_sweep(cfg, Discard())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert summary["cells"] == summary["witnesses"] == 2000
        # The cell list plus one cell's work; keeping every report (~2 KB
        # each) would add about 4 MB.
        assert peak - cells_peak < 1 << 20

    def test_write_sweep_makes_each_cell_as_it_runs(self):
        class OneLine:
            lines = 0

            def write(self, text):
                if self.lines:
                    raise BrokenPipeError
                self.lines += 1

            def flush(self):
                pass

        # 10^5 cells, about 35 MB as a list
        cfg = self.small_config(qs=(3,), ks=(1,), trials=10 ** 5)
        tracemalloc.start()
        try:
            with pytest.raises(BrokenPipeError):
                write_sweep(cfg, OneLine())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 << 20

    @pytest.mark.parametrize("jobs", [1, 2, 10 ** 6])
    def test_every_cell_runs_in_the_calling_thread(self, monkeypatch, jobs):
        idents = []
        run = fqsim.harness.run_cell

        def recorded(cell):
            idents.append(threading.get_ident())
            return run(cell)

        monkeypatch.setattr(fqsim.harness, "run_cell", recorded)
        cfg = self.small_config(qs=(3,), ks=(1,), trials=8)  # at most 8 cells, whatever jobs is
        assert len(run_sweep(cfg, jobs=jobs)) == len(idents) == 8
        assert set(idents) == {threading.get_ident()}

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_a_stopped_reader_starts_at_most_one_more_cell(self, monkeypatch, jobs):
        """Cells run one at a time, so a reader that stops after one line
        leaves at most 2 cells started, whatever jobs is."""
        class OneLine:
            lines = 0

            def write(self, text):
                if self.lines:
                    raise BrokenPipeError
                self.lines += 1

            def flush(self):
                pass

        started = itertools.count()
        run = fqsim.harness.run_cell

        def counted(cell):
            next(started)
            return run(cell)

        monkeypatch.setattr(fqsim.harness, "run_cell", counted)
        with pytest.raises(BrokenPipeError):
            write_sweep(self.small_config(qs=(3,), ks=(1,), trials=10 ** 4), OneLine(), jobs=jobs)
        assert next(started) <= 2

    @pytest.mark.parametrize("d, shown", [(17, 3 ** 17), (30, 3 ** 30), (9013, "3^9013"),
                                          (10 ** 7, "3^10000000")])
    def test_det_cell_budget_comes_before_any_power(self, d, shown):
        cell = {"kind": "det-similarity", "q": 3, "d": d, "k": 2, "r": 1, "trial": 0,
                "seed": 1, "n": 5, "meets_threshold": False}
        outcome = run_cell(cell).outcome
        assert outcome == {
            "status": "error", "error": "EnumerationCapExceeded",
            "message": f"punctured space (q^d) needs at most 100000000 candidates, got {shown}"}

    def test_det_similarity_sweep(self):
        cfg = SweepConfig(qs=(3, 5), d=2, ks=(2,), ratios="all-squares",
                          trials=2, base_seed=3, size="threshold",
                          kind="det-similarity")
        reports = run_sweep(cfg)
        assert sweep_summary(reports)["witnesses"] == len(reports)

    @pytest.mark.parametrize("grid, cells, digest", [
        (dict(qs=(3, 5, 7, 11), d=2, ks=(2, 3), trials=2), 44,
         "1eb3c9ec0acd4e8ef87375ee75fccef95e8691ca4192780563804c7f6fe2286c"),
        (dict(qs=(3,), d=3, ks=(3, 4), trials=2), 4,
         "0f1c843d1853bc923e4fe8efabe56a0cdb33862b015ab0891b05802a6e6509e3"),
        (dict(qs=(3, 5), d=2, ks=(2,), size=30), 3,  # more points than the space
         "bba37ef95f2a4012eff16bea0eb6c89557fe68ec7327be1ce45485266a5c98d0"),
        (dict(qs=(101,), d=5, ks=(5,), ratios=(1,), size=10 ** 12), 1,  # budget first
         "2d5d8c70c8ea396c2ef87dedf8314480fb1be3fc70a9faed818703e3c7c744b8"),
        (dict(qs=(2,), d=2, ks=(2, 3)), 2,
         "88f2f996300bceb37bedd620e8812701f84d0444aebbb4988d9c8e1dafbadbd2"),
        (dict(qs=(2,), d=2, ks=(2, 3), size=3), 2,
         "023560a542207ee023fb3eea3ab345e0e8a2b6a57308718d3a50bbadbca6c13f"),
        (dict(qs=(5, 7), d=2, ks=(2,), ratios=(0,)), 2,
         "0666b37a6be4dc90df75f8b6fbe6caec5ac509ce8016d8f2a1081a7d208634c3"),
        (dict(kind="similarity", qs=(3, 5, 7, 11), d=2, ks=(1, 2, 3), trials=2), 66,
         "a9b36a39cd6d1bfba143a2efb39e9e72743687b2b8932ab8b402d82fdda2fda9"),
    ])
    def test_det_similarity_payloads_are_golden(self, grid, cells, digest):
        """sha256 over the outcome bytes of sweeps, one line per cell.  The
        det-similarity rows were recorded before the flat-index transporter
        kernel and the space-free det sampling: witnesses at d = 2 and 3,
        and the oversize, matrix-budget, q = 2 and r = 0 errors.  The last
        row, of similarity witnesses, was recorded before the bulk draws."""
        reports = run_sweep(SweepConfig(**{"kind": "det-similarity", "base_seed": 1, **grid}))
        assert len(reports) == cells
        lines = b"".join(r.outcome_bytes() + b"\n" for r in reports)
        assert hashlib.sha256(lines).hexdigest() == digest

    @pytest.mark.parametrize("grid, cells, digest", [
        (dict(qs=(3, 5, 7, 11, 13), ks=(1, 2, 3), trials=4), 204,
         "94cf8a2a67d4999273ec7dc93934331dcedd42d66ad2116f6c888ebe1af1f151"),
        (dict(qs=(5, 7), ks=(2, 3), kind="det-similarity"), 10,
         "a8a7ea34b57c61ab871aca4e2de3f5b94d25fce8286395a324c356b84652987c"),
    ], ids=["similarity_sweep", "det_sweep"])
    def test_benchmark_grids_are_golden(self, grid, cells, digest):
        """sha256 over the outcome bytes of the benchmark's two sweep grids
        at base seed 1 (d = 2, every square ratio, threshold size), one line
        per cell, recorded before the finders kept their roots: the
        similarity grid reaches q = 13, whose square roots are taken by
        Tonelli-Shanks."""
        reports = run_sweep(SweepConfig(d=2, base_seed=1, **grid))
        assert len(reports) == cells
        assert all(r.outcome["status"] == "witness" for r in reports)
        lines = b"".join(r.outcome_bytes() + b"\n" for r in reports)
        assert hashlib.sha256(lines).hexdigest() == digest

    @pytest.mark.parametrize("kind, qs, ks", [("similarity", (3, 13), (1, 3)),
                                              ("det-similarity", (5, 7), (2, 3))])
    def test_each_cell_calls_its_verifier_by_module_attribute(self, monkeypatch, kind, qs, ks):
        """A wrapper put on `configurations.verify_similarity` and
        `verify_det_similarity` wherever fqsim binds them, as perfbench's
        tracer puts its layers, sees one call per witness cell: a finder
        that stopped calling its verifier by that name would zero the
        traced layer."""
        import sys

        import fqsim.configurations as configurations

        calls = collections.Counter()
        for name in ("verify_similarity", "verify_det_similarity"):
            original = getattr(configurations, name)

            def counted(w, _name=name, _original=original):
                calls[_name] += 1
                return _original(w)

            for module in [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "fqsim"]:
                if vars(module).get(name) is original:
                    monkeypatch.setattr(module, name, counted)
        reports = run_sweep(SweepConfig(qs=qs, d=2, ks=ks, trials=2, base_seed=1, kind=kind))
        verifier = "verify_similarity" if kind == "similarity" else "verify_det_similarity"
        assert sweep_summary(reports)["witnesses"] == len(reports)
        assert calls == {verifier: len(reports)}

    def test_space_past_two_to_the_64_points(self):
        """A similarity sweep that would sample it is refused before any
        cell runs; a cell built by hand records the refusal as its outcome."""
        for qs, d in [((65537,), 4), ((3,), 10 ** 9)]:
            with pytest.raises(SpaceTooLarge):
                list(SweepConfig(qs=qs, d=d, ks=(1,), ratios=(1,), size=5).cells())
        cell = next(SweepConfig(qs=(65521,), d=4, ks=(1,), ratios=(1,), size=5).cells())
        outcome = run_cell(dict(cell, q=65537)).outcome
        assert outcome["status"] == "error" and outcome["error"] == "SpaceTooLarge"

    def test_threshold_size_past_4300_digits_is_refused(self):
        """n = ⌈√(3·3^d)⌉ has 4,300 digits at d = 18023 and 4,301 at 18024;
        a fixed size needs no threshold and is not refused."""
        def config(d, size="threshold"):
            return SweepConfig(qs=(3,), d=d, ks=(2,), ratios=(1,), kind="det-similarity", size=size)

        assert len(str(next(config(18023).cells())["n"])) == 4300
        for d in (18024, 28569, 28570, 10 ** 9):
            with pytest.raises(EnumerationCapExceeded, match="has more than 4300 digits"):
                list(config(d).cells())
        assert next(config(18024, size=5).cells())["n"] == 5
        # q = 5: d·(bits(q) - 1) reaches 28,570 at d = 14285, refused before the power
        with pytest.raises(EnumerationCapExceeded):
            list(SweepConfig(qs=(5,), d=14285, ks=(1,), ratios=(1,), kind="det-similarity").cells())

    def test_det_cells_sample_the_punctured_space(self):
        """A det cell's outcome is that of its public composition."""
        for q, d, k in [(5, 2, 2), (7, 2, 2), (31, 2, 2), (3, 3, 3)]:
            cell = next(SweepConfig(qs=(q,), d=d, ks=(k,), kind="det-similarity").cells())
            points = random_subset(Space.punctured(q, d), cell["n"], cell["seed"])
            witness = find_det_similar(points, make_field(q)(cell["r"]), cell["k"])
            report = witness.report
            expected = {"status": "witness", "witness": witness.to_json(),
                        "best_count": report.best_count,
                        "bound_num": report.bound_num, "bound_den": report.bound_den}
            assert json.dumps(run_cell(cell).outcome) == json.dumps(expected)

    @pytest.mark.parametrize("k, r, n, error", [
        (1, 1, 5, "ValueError"),  # k < d
        (2, 0, 5, "ZeroDilation"),
        (2, 2, 5, "NotADthPower"),  # 2 is no square mod 101
        (2, 1, 5, "EnumerationCapExceeded"),  # 101^4 > 10^8 maps to scan
        (2, 1, 145, "EnumerationCapExceeded"),
        (2, 1, 10201, "TooMany"),
        (2, 1, -1, "ValueError"),
    ])
    def test_det_cell_past_the_scan_cap_refuses_as_its_draw_would(self, k, r, n, error):
        """F_101^2 fits the enumeration cap but SL(2, 101)'s matrix scan
        does not: the cell builds no space, and refuses as the public
        composition on a built one does."""
        cell = {"kind": "det-similarity", "q": 101, "d": 2, "k": k, "r": r, "trial": 0,
                "seed": 7, "n": n, "meets_threshold": False}
        with pytest.raises((FqsimError, ValueError)) as exc:
            points = random_subset(Space.punctured(101, 2), n, cell["seed"])
            find_det_similar(points, make_field(101)(r), k)
        assert run_cell(cell).outcome == {"status": "error", "error": error, "message": str(exc.value)}
        assert type(exc.value).__name__ == error

    def test_det_sweep_past_the_scan_cap_builds_no_space(self):
        """3^16 points fit the enumeration cap, but no det search at d = 16
        can run, so the cell answers before 43M tuples are built."""
        start = time.perf_counter()
        reports = run_sweep(SweepConfig(qs=(3,), d=16, ks=(2, 16), ratios=(1,), size=5,
                                        kind="det-similarity"))
        assert time.perf_counter() - start < 1.0
        assert [r.outcome["error"] for r in reports] == ["ValueError", "EnumerationCapExceeded"]
        assert reports[0].outcome["message"] == "determinant similarity needs k >= d = 16, got k = 2"
        assert reports[1].outcome["message"].startswith("matrix scan (q^(d^2)) needs at most")

    @pytest.mark.parametrize("d", [0, -1])
    def test_det_cell_below_dimension_one(self, d):
        cell = {"kind": "det-similarity", "q": 3, "d": d, "k": 2, "r": 1, "trial": 0,
                "seed": 1, "n": 5, "meets_threshold": False}
        assert run_cell(cell).outcome == {
            "status": "error", "error": "ValueError",
            "message": f"dimension must be positive, got {d}"}

    def test_fixed_size_threshold_computes_no_power_past_n_squared(self):
        start = time.perf_counter()
        cells = list(SweepConfig(qs=(3,), d=10 ** 8, ks=(2,), ratios=(1,), size=5,
                                 kind="det-similarity").cells())
        assert time.perf_counter() - start < 1.0
        assert [c["meets_threshold"] for c in cells] == [False]
        # Both sides of n^2 >= (k + 1)·q^d: 15^2 < 3·3^4 = 243 <= 16^2, 26^2 < 3·3^5 = 27^2
        for d, n, met in [(4, 15, False), (4, 16, True), (5, 26, False), (5, 27, True)]:
            cell = next(SweepConfig(qs=(3,), d=d, ks=(2,), ratios=(1,), size=n).cells())
            assert cell["meets_threshold"] is met

    @pytest.mark.parametrize("size", ["threshold", 5])
    def test_k_is_checked_before_any_size(self, size):
        """Also where q^d alone puts the threshold size past 4,300 digits."""
        with pytest.raises(ValueError, match="k must be nonnegative, got -1"):
            list(SweepConfig(qs=(3,), d=28570, ks=(-1,), ratios=(1,), size=size,
                             kind="det-similarity").cells())

    def test_report_shape(self):
        reports = run_sweep(self.small_config(trials=1))
        payload = reports[0].to_json()
        assert set(payload) == {"config", "outcome", "timing_ms", "version", "input_digests"}
        assert payload["version"]

    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            SweepConfig(qs=(3,), d=0, ks=(1,))
        with pytest.raises(ValueError):
            SweepConfig(qs=(3,), d=2, ks=(1,), kind="frobnicate")
