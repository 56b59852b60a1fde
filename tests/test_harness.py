"""Point-set I/O, seeded sampling, and sweep execution."""

import hashlib
import io
import json
import tracemalloc

import pytest

from fqsim import (
    HeaderMismatch,
    ParseError,
    Space,
    SplitMix64,
    SweepConfig,
    TooMany,
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

from helpers import coords_list, format_pointset

F5 = make_field(5)


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

    def test_sample_indices_distinct(self):
        rng = SplitMix64(5)
        picks = rng.sample_indices(100, 30)
        assert len(set(picks)) == 30
        assert all(0 <= p < 100 for p in picks)

    def test_sample_all(self):
        rng = SplitMix64(5)
        assert sorted(rng.sample_indices(6, 6)) == [0, 1, 2, 3, 4, 5]

    def test_derive_seed_sensitivity(self):
        assert derive_seed(1, 3, 2, 1) != derive_seed(1, 3, 2, 2)
        assert derive_seed(1, 3, 2, 1) == derive_seed(1, 3, 2, 1)


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

    def test_random_subset_of_space(self):
        space = Space.punctured(5, 2)
        ps = random_subset(space, 10, seed=4)
        assert len(ps) == 10
        assert all(p in space for p in ps)


class TestPointsetFormat:
    def test_parse_basic(self):
        ps = parse_pointset("q=5 d=2\n0,0\n1,2\n")
        assert coords_list(ps) == [[0, 0], [1, 2]]

    def test_comments_and_blanks(self):
        ps = parse_pointset("# header\nq=5 d=2\n\n0,0  # origin\n")
        assert len(ps) == 1

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
        assert len(cfg.cells()) == (1 + 2) * 2 * 2

    def test_all_threshold_cells_yield_witnesses(self):
        reports = run_sweep(self.small_config())
        summary = sweep_summary(reports)
        assert summary["witnesses"] == summary["cells"]
        assert summary["violations"] == 0
        for rep in reports:
            assert rep.outcome["witness"]["verified"]

    def test_jobs_reproduce_payloads(self):
        cfg = self.small_config()
        seq = run_sweep(cfg, jobs=1)
        par = run_sweep(cfg, jobs=4)
        assert [r.outcome_bytes() for r in seq] == [r.outcome_bytes() for r in par]
        assert [r.config for r in seq] == [r.config for r in par]

    @pytest.mark.parametrize("jobs", [0, -3])
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
            cells = cfg.cells()
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
    ])
    def test_det_similarity_payloads_are_golden(self, grid, cells, digest):
        """sha256 over the outcome bytes of det-similarity sweeps, one line
        per cell, as recorded before the flat-index transporter kernel and
        the space-free det sampling: witnesses at d = 2 and 3, and the
        oversize, matrix-budget, q = 2 and r = 0 errors."""
        reports = run_sweep(SweepConfig(kind="det-similarity", base_seed=1, **grid))
        assert len(reports) == cells
        lines = b"".join(r.outcome_bytes() + b"\n" for r in reports)
        assert hashlib.sha256(lines).hexdigest() == digest

    def test_det_cells_sample_the_punctured_space(self):
        cell = SweepConfig(qs=(7,), d=2, ks=(2,), kind="det-similarity").cells()[0]
        space = Space.punctured(7, 2)
        expected = find_det_similar(random_subset(space, cell["n"], cell["seed"]),
                                    make_field(7)(cell["r"]), cell["k"])
        assert run_cell(cell).outcome["witness"] == expected.to_json()

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
