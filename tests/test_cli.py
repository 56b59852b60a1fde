"""End-to-end runs of the command-line interface."""

import hashlib
import json
import os
import subprocess
import sys
import time
import warnings

import pytest

import fqsim
from fqsim import (
    FiniteGroup,
    PointSet,
    Vector,
    file_digest,
    make_field,
    max_intersection,
    random_pointset,
    sphere,
    translations,
)
from fqsim.cli import build_parser, main

from helpers import format_pointset


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def first_json(out):
    return json.loads(out)


class TestEnumerateGroup:
    def test_translations(self, capsys):
        code, out = run_cli(capsys, "enumerate-group", "--kind", "translations",
                            "--q", "3", "--d", "2")
        obj = first_json(out)
        assert code == 0
        assert obj["order"] == 9
        assert obj["transitive"] is True

    def test_orthogonal_on_sphere_with_dump(self, capsys):
        code, out = run_cli(capsys, "enumerate-group", "--kind", "orthogonal",
                            "--q", "3", "--d", "2", "--radius", "1", "--dump")
        obj = first_json(out)
        assert code == 0
        assert obj["order"] == 8
        assert len(obj["elements"]) == 8

    # sha256 of the `--dump` stdout, recorded before elements were held as
    # the rows of [M | a], and unchanged since they are held as a linear
    # part and a shift: order, listing and JSON documents stay the same.
    @pytest.mark.parametrize("args, digest", [
        ("translations --q 3 --d 2",
         "9c95c4b9f7386fa02d9a34dc6a729bb536d45390930544c27b370aafa865d63e"),
        ("orthogonal --q 5 --d 2",
         "bd756414edf7a0c7904f37ac99b043d91f56b5e4feb8efc0ef4291d28f1969db"),
        ("orthogonal --q 3 --d 3 --radius 2",
         "1a8fbc886e300ffd5200b8c29d695e6a8707083fb65b609b50709a24f576d22a"),
        ("special-linear --q 3 --d 2",
         "870c4658e5bab3e16051c915bb36fc5d7736b6de748432573919835b01b0b0c7"),
        ("special-linear --q 2 --d 3",
         "e8934f4cf98bd4657ef3354b610cb137685f3f6b10eaac0b70f9ad023549e463"),
    ], ids=["T(2,3)", "O(2,5)", "O(3,3)-radius-2", "SL(2,3)", "SL(3,2)"])
    def test_dump_is_golden(self, capsys, args, digest):
        code, out = run_cli(capsys, "enumerate-group", "--kind", *args.split(), "--dump")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_special_linear(self, capsys):
        code, out = run_cli(capsys, "enumerate-group", "--kind", "special-linear",
                            "--q", "5", "--d", "2")
        assert first_json(out)["order"] == 120

    def test_cap_exceeded_exit_code(self, capsys):
        code, out = run_cli(capsys, "enumerate-group", "--kind", "orthogonal",
                            "--q", "101", "--d", "3")
        assert code == 4
        assert first_json(out)["error"] == "EnumerationCapExceeded"

    @pytest.mark.parametrize("d", ["1000000", "10000000"])
    def test_exponent_past_the_budget_exits_four_at_once(self, capsys, d):
        start = time.perf_counter()
        code, out = run_cli(capsys, "enumerate-group", "--kind", "translations",
                            "--q", "3", "--d", d)
        assert time.perf_counter() - start < 0.5
        assert code == 4
        assert first_json(out) == {
            "error": "EnumerationCapExceeded",
            "message": f"full space (q^d) needs at most 100000000 candidates, got 3^{d}"}

    @pytest.mark.parametrize("d", ["0", "-1"])
    @pytest.mark.parametrize("kind", ["translations", "orthogonal", "special-linear", "sweep"])
    def test_dimension_below_one_is_input_error(self, capsys, kind, d):
        argv = (["sweep", "--qs", "3", "--ks", "1"] if kind == "sweep"
                else ["enumerate-group", "--kind", kind, "--q", "3"])
        code, out = run_cli(capsys, *argv, "--d", d)
        assert code == 3
        assert first_json(out) == {"error": "ValueError",
                                   "message": f"dimension must be positive, got {d}"}

    def test_composite_order_is_input_error(self, capsys):
        code, out = run_cli(capsys, "enumerate-group", "--kind", "translations",
                            "--q", "9", "--d", "2")
        assert code == 3
        assert first_json(out)["error"] == "NotPrime"

    # Building SL(3, 101) or F_101^5 would exceed the budget (exit 4), so
    # exit 3 shows the radius is refused before anything is built.
    @pytest.mark.parametrize("kind, d", [("translations", "5"), ("special-linear", "3")])
    def test_radius_without_orthogonal_is_input_error(self, capsys, kind, d):
        code, out = run_cli(capsys, "enumerate-group", "--kind", kind,
                            "--q", "101", "--d", d, "--radius", "1")
        obj = first_json(out)
        assert code == 3
        assert obj["error"] == "ValueError"
        assert "--radius" in obj["message"]


class TestVerifyBound:
    def write_sets(self, tmp_path, e_set, h_set):
        pe = tmp_path / "e.txt"
        ph = tmp_path / "h.txt"
        pe.write_text(format_pointset(e_set))
        ph.write_text(format_pointset(h_set))
        return str(pe), str(ph)

    def test_translation_bound(self, capsys, tmp_path):
        e = random_pointset(5, 2, 7, seed=1)
        h = random_pointset(5, 2, 9, seed=2)
        pe, ph = self.write_sets(tmp_path, e, h)
        code, out = run_cli(capsys, "verify-bound", "--group", "translations",
                            "--q", "5", "--d", "2", "--set-e", pe, "--set-h", ph)
        obj = first_json(out)
        assert code == 0
        assert obj["best_count"] * obj["bound_den"] >= obj["bound_num"]
        assert obj["double_count_ok"] is True
        assert set(obj["input_digests"]) == {"set_e", "set_h"}

    def test_required_keys_present(self, capsys, tmp_path):
        e = random_pointset(3, 2, 4, seed=3)
        pe, ph = self.write_sets(tmp_path, e, e)
        code, out = run_cli(capsys, "verify-bound", "--group", "translations",
                            "--q", "3", "--d", "2", "--set-e", pe, "--set-h", ph,
                            "--histogram")
        obj = first_json(out)
        for key in ("best_g", "best_count", "bound_num", "bound_den",
                    "double_count_total", "transitive", "per_g_histogram"):
            assert key in obj

    def test_exhaustive_subsets(self, capsys):
        code, out = run_cli(capsys, "verify-bound", "--group", "translations",
                            "--q", "3", "--d", "1", "--exhaustive-subsets")
        obj = first_json(out)
        assert code == 0
        assert obj["pairs"] == 64
        assert obj["bound_violations"] == 0

    @pytest.mark.parametrize("argv, pairs", [
        (["--group", "translations", "--q", "3", "--d", "2"], 4 ** 9),
        (["--group", "special-linear", "--q", "2", "--d", "2"], 4 ** 3),
        (["--group", "orthogonal", "--q", "3", "--d", "2", "--radius", "1"], 4 ** 4),
    ])
    def test_exhaustive_subsets_check_the_double_count(self, capsys, argv, pairs):
        code, out = run_cli(capsys, "verify-bound", *argv, "--exhaustive-subsets")
        assert code == 0
        assert "\n  \"double_count_mismatches\": 0,\n" in out
        assert first_json(out)["pairs"] == pairs

    def test_missing_sets_is_input_error(self, capsys):
        code, out = run_cli(capsys, "verify-bound", "--group", "translations",
                            "--q", "3", "--d", "1")
        assert code == 3

    def test_set_outside_space_is_input_error(self, capsys, tmp_path):
        origin = PointSet(make_field(3), 2, [Vector(make_field(3), [0, 0])])
        pe, ph = self.write_sets(tmp_path, origin, origin)
        code, out = run_cli(capsys, "verify-bound", "--group", "special-linear",
                            "--q", "3", "--d", "2", "--set-e", pe, "--set-h", ph)
        assert code == 3
        assert first_json(out)["error"] == "SpaceMismatch"

    @pytest.mark.parametrize("kind, d", [("translations", "5"), ("special-linear", "3")])
    def test_radius_without_orthogonal_is_input_error(self, capsys, tmp_path, kind, d):
        e = random_pointset(3, 2, 4, seed=3)
        pe, ph = self.write_sets(tmp_path, e, e)
        code, out = run_cli(capsys, "verify-bound", "--group", kind, "--q", "101",
                            "--d", d, "--radius", "1", "--set-e", pe, "--set-h", ph)
        obj = first_json(out)
        assert code == 3
        assert "--radius" in obj["message"]


def translation_set_pairs(q, d):
    """(name, E, H) pairs on F_q^d: an empty E, a one-point H, seeded
    random sets, disjoint sets and the whole space as both.  A one-point H
    ties |E| shifts, and on F_7^3 takes the kernel's difference codes."""
    field, n = make_field(q), q ** d
    whole = random_pointset(q, d, n, seed=0)
    e = random_pointset(q, d, max(1, n // 3), seed=q * d)
    h = random_pointset(q, d, (n + 1) // 2, seed=q + d)
    return [
        ("empty", PointSet(field, d), h),
        ("one-point", e, random_pointset(q, d, 1, seed=q)),
        ("random", e, h),
        ("disjoint", e, PointSet(field, d, [p for p in whole if p not in e])),
        ("whole", whole, whole),
    ]


def write_set(path, points):
    path.write_text(format_pointset(points))
    return str(path)


class TableBuilt(Exception):
    pass


@pytest.mark.filterwarnings("default::UserWarning")
class TestKernelBackedVerifyBound:
    """Explicit-set translation bounds come from the finders' kernel, with
    no image table; every other scan still reads the table, and the
    refusals keep the group build's order and messages."""

    def expected(self, q, d, e, h, pe, ph, histogram):
        """stdout, stderr and exit code that `max_intersection` over the
        enumerated group gives."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            report = max_intersection(translations(q, d), e, h, want_histogram=histogram)
        out = report.to_json()
        out["double_count_ok"] = report.double_count_ok
        out["input_digests"] = {"set_e": file_digest(pe), "set_h": file_digest(ph)}
        code = 0 if report.satisfies_bound and report.double_count_ok else 2
        err = "".join(f"warning: {w.message}\n" for w in caught)
        return json.dumps(out, sort_keys=True, indent=2) + "\n", err, code

    @pytest.mark.parametrize("q, d", [(q, d) for q in (2, 3, 5, 7) for d in (1, 2, 3)
                                      if q ** d <= 343])
    def test_matches_the_enumerated_scan(self, capsys, tmp_path, q, d):
        for name, e, h in translation_set_pairs(q, d):
            pe, ph = write_set(tmp_path / "e.txt", e), write_set(tmp_path / "h.txt", h)
            for histogram in (False, True):
                expected = self.expected(q, d, e, h, pe, ph, histogram)
                argv = ["verify-bound", "--group", "translations", "--q", str(q), "--d", str(d),
                        "--set-e", pe, "--set-h", ph] + ["--histogram"] * histogram
                code = main(argv)
                captured = capsys.readouterr()
                assert (captured.out, captured.err, code) == expected, (name, histogram)

    def test_translations_build_no_image_table(self, capsys, tmp_path, monkeypatch):
        e, h = translation_set_pairs(5, 2)[2][1:]
        pe, ph = write_set(tmp_path / "e.txt", e), write_set(tmp_path / "h.txt", h)
        expected = self.expected(5, 2, e, h, pe, ph, True)

        def columns(self):
            raise TableBuilt

        monkeypatch.setattr(FiniteGroup, "columns", columns)
        code = main(["verify-bound", "--group", "translations", "--q", "5", "--d", "2",
                     "--set-e", pe, "--set-h", ph, "--histogram"])
        captured = capsys.readouterr()
        assert (captured.out, captured.err, code) == expected
        pu = write_set(tmp_path / "punctured.txt",
                       PointSet(make_field(5), 2, [p for p in e if any(p.coords)]))
        po = write_set(tmp_path / "sphere.txt", sphere(5, 2, 1))
        for argv in (["special-linear", "--q", "5", "--d", "2", "--set-e", pu, "--set-h", pu],
                     ["orthogonal", "--q", "5", "--d", "2", "--set-e", pe, "--set-h", ph],
                     ["orthogonal", "--q", "5", "--d", "2", "--radius", "1",
                      "--set-e", po, "--set-h", po],
                     ["translations", "--q", "3", "--d", "1", "--exhaustive-subsets"]):
            with pytest.raises(TableBuilt):
                main(["verify-bound", "--group", *argv])

    @pytest.mark.parametrize("argv, code, message", [
        (["--q", "5", "--d", "2", "--set-e", "F7", "--set-h", "F5"], 3,
         "moving set lives in F_7^2, the group acts on F_5^2"),
        (["--q", "5", "--d", "2", "--set-e", "F5", "--set-h", "F7"], 3,
         "fixed set lives in F_7^2, the group acts on F_5^2"),
        (["--q", "5", "--d", "2", "--set-e", "D3", "--set-h", "F5"], 3,
         "moving set lives in F_5^3, the group acts on F_5^2"),
        (["--q", "101", "--d", "10", "--set-e", "missing", "--set-h", "missing"], 4,
         "full space (q^d) needs at most 100000000 candidates, got 110462212541120451001"),
        (["--q", "4", "--d", "2", "--set-e", "F5", "--set-h", "F5"], 3,
         "4 is not prime (extension fields are unsupported)"),
        (["--q", "5", "--d", "2", "--radius", "1", "--set-e", "F5", "--set-h", "F5"], 3,
         "--radius applies to orthogonal groups only, not translations"),
        (["--q", "5", "--d", "2", "--set-e", "F5"], 3,
         "verify-bound needs --set-e and --set-h (or --exhaustive-subsets)"),
    ], ids=["moving-field", "fixed-field", "dimension", "budget-before-read", "q-4",
            "radius", "missing-set-h"])
    def test_refusals(self, capsys, tmp_path, argv, code, message):
        files = {"F5": "q=5 d=2\n1,2\n", "F7": "q=7 d=2\n1,6\n", "D3": "q=5 d=3\n1,2,3\n"}
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        argv = [str(tmp_path / a) if a in files or a == "missing" else a for a in argv]
        got = main(["verify-bound", "--group", "translations", *argv])
        obj = first_json(capsys.readouterr().out)
        assert (got, obj["message"]) == (code, message)


@pytest.mark.filterwarnings("default::UserWarning")
class TestWarnings:
    """The library's warnings reach stderr as one `warning: <message>` line
    each, with no source path or line number, and leave the exit code as
    it was."""

    def verify_bound(self, capsys, tmp_path, q, d, e_text, h_text):
        pe, ph = tmp_path / "e.txt", tmp_path / "h.txt"
        pe.write_text(e_text)
        ph.write_text(h_text)
        code = main(["verify-bound", "--group", "translations", "--q", str(q), "--d", str(d),
                     "--set-e", str(pe), "--set-h", str(ph)])
        captured = capsys.readouterr()
        return code, json.loads(captured.out), captured.err

    def test_empty_point_set(self, capsys, tmp_path):
        code, obj, err = self.verify_bound(capsys, tmp_path, 3, 1, "q=3 d=1\n", "q=3 d=1\n0\n2\n")
        assert code == 0
        assert obj["best_count"] == 0 and obj["double_count_ok"] is True
        assert err == "warning: empty point set: the intersection bound is vacuous\n"

    def test_duplicate_point_line(self, capsys, tmp_path):
        code, obj, err = self.verify_bound(capsys, tmp_path, 5, 2, "q=5 d=2\n1,2\n0,3\n1,2\n",
                                           "q=5 d=2\n1,2\n4,4\n")
        assert code == 0
        assert obj["moving_size"] == 2
        assert err == "warning: line 4: duplicate point (1, 2) ignored\n"


class TestFindSimilar:
    def test_random_set_witness(self, capsys):
        code, out = run_cli(capsys, "find-similar", "--q", "5", "--d", "2",
                            "--r", "4", "--k", "2", "--random", "9", "--seed", "3")
        obj = first_json(out)
        assert code == 0
        assert obj["verified"] is True
        assert obj["meets_threshold"] is True
        assert set(obj) >= {"r", "sqrt_r", "a", "xs", "ys", "zs", "edges", "verified"}

    def test_below_threshold_failure_is_exit_one(self, capsys):
        code, out = run_cli(capsys, "find-similar", "--q", "5", "--d", "2",
                            "--r", "4", "--k", "2", "--random", "2", "--seed", "3")
        obj = first_json(out)
        assert code == 1
        assert obj["error"] == "InsufficientIntersection"
        assert obj["meets_threshold"] is False

    def test_nonsquare_ratio_is_input_error(self, capsys):
        code, out = run_cli(capsys, "find-similar", "--q", "5", "--d", "2",
                            "--r", "2", "--k", "2", "--random", "9")
        assert code == 3
        assert first_json(out)["error"] == "NotASquare"

    def test_edge_presets(self, capsys):
        for preset in ("simplex", "cycle", "path", "star"):
            code, out = run_cli(capsys, "find-similar", "--q", "5", "--d", "2",
                                "--r", "4", "--k", "2", "--random", "9",
                                "--seed", "1", "--edges", preset)
            assert code == 0

    def test_edges_from_file(self, capsys, tmp_path):
        edge_file = tmp_path / "edges.txt"
        edge_file.write_text("1,2\n2,3\n")
        code, out = run_cli(capsys, "find-similar", "--q", "5", "--d", "2",
                            "--r", "4", "--k", "2", "--random", "9",
                            "--edges", f"pairs:{edge_file}")
        obj = first_json(out)
        assert code == 0
        assert obj["edges"] == [[1, 2], [2, 3]]

    @pytest.mark.parametrize("text, message", [
        ("1,2\n# comment\n\n3\n", "line 4: expected one 'i,j' pair, got '3'"),
        ("1,2\n1,2,3\n", "line 2: expected one 'i,j' pair, got '1,2,3'"),
        ("1,2\n2,x  # bad\n", "line 2: non-integer edge index in '2,x'"),
    ])
    def test_bad_edge_file_names_the_line(self, capsys, tmp_path, text, message):
        edge_file = tmp_path / "edges.txt"
        edge_file.write_text(text)
        code, out = run_cli(capsys, "find-similar", "--q", "5", "--d", "2",
                            "--r", "4", "--k", "2", "--random", "9",
                            "--edges", f"pairs:{edge_file}")
        assert code == 3
        assert first_json(out) == {"error": "ParseError", "message": message}

    @pytest.mark.parametrize("n", ["0", "1", "3"])
    def test_zero_dimension_reported_before_sample_size(self, capsys, n):
        code, out = run_cli(capsys, "find-similar", "--q", "5", "--d", "0",
                            "--r", "4", "--k", "1", "--random", n)
        assert code == 3
        assert first_json(out) == {"error": "ValueError",
                                   "message": "dimension must be positive, got 0"}

    def test_set_file_input(self, capsys, tmp_path):
        ps = random_pointset(5, 2, 10, seed=8)
        path = tmp_path / "set.txt"
        path.write_text(format_pointset(ps))
        code, out = run_cli(capsys, "find-similar", "--q", "5", "--d", "2",
                            "--r", "1", "--k", "1", "--set", str(path))
        obj = first_json(out)
        assert code == 0
        assert "set" in obj["input_digests"]


class TestFindDetSimilar:
    def test_set_file_witness(self, capsys, tmp_path):
        from fqsim import PointSet, all_vectors, make_field

        f = make_field(5)
        punctured = PointSet(f, 2, [v for v in all_vectors(f, 2) if not v.is_zero()])
        path = tmp_path / "p.txt"
        path.write_text(format_pointset(punctured))
        code, out = run_cli(capsys, "find-det-similar", "--q", "5", "--d", "2",
                            "--r", "4", "--k", "2", "--set", str(path))
        obj = first_json(out)
        assert code == 0
        assert obj["kind"] == "det-similarity"
        assert obj["verified"] is True

    def test_origin_in_random_set_is_input_error(self, capsys):
        # seed chosen so the sample contains the origin
        for seed in range(50):
            ps = random_pointset(3, 2, 8, seed=seed)
            from fqsim import Vector, make_field

            if Vector(make_field(3), [0, 0]) in ps:
                code, out = run_cli(capsys, "find-det-similar", "--q", "3", "--d", "2",
                                    "--r", "1", "--k", "2", "--random", "8",
                                    "--seed", str(seed))
                assert code == 3
                assert first_json(out)["error"] == "OriginInSet"
                return
        raise AssertionError("no seed produced a set containing the origin")


class TestSphereExperiment:
    def test_default_full_sphere(self, capsys):
        code, out = run_cli(capsys, "sphere-experiment", "--q", "3", "--d", "2",
                            "--radius", "1", "--k", "3")
        obj = first_json(out)
        assert code == 0
        assert obj["best_count"] == 4
        assert obj["transitive"] is True
        assert obj["guarantee_holds"] is True

    def test_empty_sphere_is_no_failed_guarantee(self, capsys):
        # x² = 2 has no root mod 3, so the sphere is empty and the bound vacuous
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code, out = run_cli(capsys, "sphere-experiment", "--q", "3", "--d", "1",
                                "--radius", "2", "--k", "1")
        obj = first_json(out)
        assert code == 0
        assert (obj["sphere_size"], obj["best_count"], obj["bound_num"]) == (0, 0, 0)
        assert obj["guarantee_holds"] is True

    def test_negative_k_is_input_error(self, capsys, monkeypatch):
        monkeypatch.setattr(fqsim.configurations, "orthogonal_group", None)
        code, out = run_cli(capsys, "sphere-experiment", "--q", "7", "--d", "2",
                            "--radius", "1", "--k", "-1")
        assert code == 3
        assert first_json(out) == {"error": "ValueError",
                                   "message": "k must be nonnegative, got -1"}

    @pytest.mark.filterwarnings("default::UserWarning")
    def test_k_zero_warns_once(self, capsys):
        sphere_k = ["sphere-experiment", "--q", "7", "--d", "2", "--radius", "1", "--k"]
        assert main(sphere_k + ["1"]) == 0
        k_one = first_json(capsys.readouterr().out)
        assert main(sphere_k + ["0"]) == 0
        captured = capsys.readouterr()
        assert first_json(captured.out) == dict(k_one, k=0)
        assert captured.err == "warning: k = 0 is the degenerate single-point case\n"

    def test_k_zero_warns_once_under_always(self, capsys):
        # The k checks run once per command, not again for each verdict.
        with warnings.catch_warnings():
            warnings.simplefilter("always")
            assert main(["sphere-experiment", "--q", "7", "--d", "2", "--radius", "1", "--k", "0"]) == 0
        assert capsys.readouterr().err == "warning: k = 0 is the degenerate single-point case\n"

    def test_set_files(self, capsys, tmp_path):
        surface = sphere(7, 2, 1)
        path = tmp_path / "s.txt"
        path.write_text(format_pointset(surface))
        code, out = run_cli(capsys, "sphere-experiment", "--q", "7", "--d", "2",
                            "--radius", "1", "--k", "1",
                            "--set-e", str(path), "--set-h", str(path))
        assert code == 0
        assert first_json(out)["reaches_target"] is True


class TestSweepAndVerifyWitness:
    def test_sweep_to_file(self, capsys, tmp_path):
        out_path = tmp_path / "sweep.jsonl"
        code, _ = run_cli(capsys, "sweep", "--qs", "3,5", "--d", "2", "--ks", "1,2",
                          "--trials", "2", "--seed", "7", "--out", str(out_path))
        assert code == 0
        lines = out_path.read_text().strip().split("\n")
        parsed = [json.loads(line) for line in lines]
        assert parsed[-1]["summary"] is True
        assert parsed[-1]["violations"] == 0

    def test_threshold_sweep_k_zero_warns_once_per_q(self, capsys):
        # A threshold-size cell meets the threshold by construction, so
        # only the threshold size runs the k checks: once per q.
        with warnings.catch_warnings():
            warnings.simplefilter("always")
            assert main(["sweep", "--qs", "5,7", "--d", "2", "--ks", "0", "--r", "1"]) == 0
        assert capsys.readouterr().err == "warning: k = 0 is the degenerate single-point case\n" * 2

    def test_sweep_jobs_reproduce_file(self, capsys, tmp_path):
        paths = []
        for jobs in ("1", "4"):
            path = tmp_path / f"sweep{jobs}.jsonl"
            run_cli(capsys, "sweep", "--qs", "3,5", "--d", "2", "--ks", "1",
                    "--trials", "2", "--seed", "7", "--jobs", jobs,
                    "--out", str(path))
            paths.append(path)
        strip = lambda line: {k: v for k, v in json.loads(line).items() if k != "timing_ms"}
        a = [strip(l) for l in paths[0].read_text().strip().split("\n")]
        b = [strip(l) for l in paths[1].read_text().strip().split("\n")]
        assert a == b

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_sweep_jobs_below_one_is_input_error(self, capsys, tmp_path, jobs):
        sweep = ["sweep", "--qs", "3,5", "--d", "2", "--ks", "1", "--jobs", jobs]
        path = tmp_path / "sweep.jsonl"
        code, out = run_cli(capsys, *sweep, "--out", str(path))
        assert code == 3
        assert first_json(out)["error"] == "ValueError"
        assert path.read_text() == ""
        code, out = run_cli(capsys, *sweep)
        assert code == 3
        assert first_json(out)["error"] == "ValueError"  # the only object printed

    def test_sweep_into_a_closed_pipe_exits_three(self, monkeypatch, tmp_path):
        # `fqsim sweep ... | head -2`: the reader goes away after two lines.
        sink = tmp_path / "stdout"

        class ClosedPipe:
            def __init__(self, fh):
                self.fh = fh
                self.lines = 0

            def write(self, text):
                if self.lines == 2:
                    raise BrokenPipeError(32, "Broken pipe")
                self.lines += 1
                return len(text)

            def flush(self):
                pass

            def fileno(self):
                return self.fh.fileno()

        with open(sink, "wb") as fh:
            stdout = ClosedPipe(fh)
            monkeypatch.setattr("sys.stdout", stdout)
            code = main(["sweep", "--qs", "5,7", "--d", "2", "--ks", "1,2", "--trials", "2"])
            os.write(fh.fileno(), b"after")  # the descriptor now points at devnull
        assert code == 3
        assert stdout.lines == 2
        assert sink.read_bytes() == b""

    def test_threshold_size_past_4300_digits_exits_four(self, capsys, tmp_path):
        """Every cell line prints the threshold size n = ⌈√(3·3^d)⌉: at
        d = 18023 it has 4,300 digits and prints; at d = 18024 it has
        4,301 and the sweep is refused before any line is written."""
        sweep = ["sweep", "--kind", "det-similarity", "--qs", "3", "--ks", "2", "--r", "1"]
        code, out = run_cli(capsys, *sweep, "--d", "18023")
        assert code == 0
        cell = json.loads(out.splitlines()[0])
        assert len(str(cell["config"]["n"])) == 4300
        assert cell["outcome"]["error"] == "EnumerationCapExceeded"
        for d in ("18024", "20000", "1000000000"):
            path = tmp_path / f"sweep-{d}.jsonl"
            start = time.perf_counter()
            code, out = run_cli(capsys, *sweep, "--d", d, "--out", str(path))
            assert time.perf_counter() - start < 1
            assert code == 4
            assert first_json(out) == {
                "error": "EnumerationCapExceeded",
                "message": f"threshold set size for q = 3, d = {d}, k = 2 has more than 4300 digits"}
            assert path.read_bytes() == b""

    def test_det_sweep_past_the_space_budget_reports_per_cell(self, capsys):
        # 3^17 points exceed the budget: each cell records the refusal.
        code, out = run_cli(capsys, "sweep", "--kind", "det-similarity", "--qs", "3",
                            "--d", "17", "--ks", "2,3", "--r", "1")
        lines = [json.loads(line) for line in out.splitlines()]
        assert code == 0
        assert [c["config"]["n"] for c in lines[:-1]] == [19683, 22728]
        assert {c["outcome"]["error"] for c in lines[:-1]} == {"EnumerationCapExceeded"}
        assert lines[-1] == {"summary": True, "cells": 2, "witnesses": 0, "errors": 2,
                             "violations": 0}

    def test_sweep_negative_size_is_input_error(self, capsys, tmp_path):
        sweep = ["sweep", "--qs", "5", "--d", "2", "--ks", "1", "--size", "-3"]
        path = tmp_path / "sweep.jsonl"
        code, out = run_cli(capsys, *sweep, "--out", str(path))
        assert code == 3
        assert first_json(out) == {"error": "ValueError",
                                   "message": "set size must be nonnegative, got -3"}
        assert not path.exists()

    def test_over_budget_det_witness_is_refused(self, capsys, tmp_path, monkeypatch):
        # d = k = 11 over F_3: 3*C(12, 11) + 1 cofactor determinants of
        # 11x11 matrices, about 12!/1 terms each, far past the budget
        import fqsim.configurations
        import fqsim.geometry

        def no_determinant(rows, q):
            raise AssertionError("a determinant was computed")

        # the verifier calls configurations' binding of _det_cofactor
        monkeypatch.setattr(fqsim.geometry, "_det_cofactor", no_determinant)
        monkeypatch.setattr(fqsim.configurations, "_det_cofactor", no_determinant)
        d = 11
        points = [[int(i == j) for j in range(d)] for i in range(d)] + [[1] * d]
        witness = {"kind": "det-similarity", "q": 3, "d": d, "k": d, "r": 1, "root": 1,
                   "g": points[:d], "xs": points, "ys": points, "zs": points,
                   "verified": True}
        path = tmp_path / "big.json"
        path.write_text(json.dumps(witness))
        code, out = run_cli(capsys, "verify-witness", str(path))
        assert code == 4
        assert first_json(out)["error"] == "EnumerationCapExceeded"

    def test_witness_round_trip_through_cli(self, capsys, tmp_path):
        code, out = run_cli(capsys, "find-similar", "--q", "5", "--d", "2",
                            "--r", "4", "--k", "2", "--random", "9", "--seed", "3")
        assert code == 0
        witness_path = tmp_path / "w.json"
        witness_path.write_text(out)
        code, out = run_cli(capsys, "verify-witness", str(witness_path))
        obj = first_json(out)
        assert code == 0
        assert obj["verified"] is True

    def test_det_witness_round_trip(self, capsys, tmp_path):
        from fqsim import PointSet, all_vectors, make_field

        f = make_field(5)
        punctured = PointSet(f, 2, [v for v in all_vectors(f, 2) if not v.is_zero()])
        set_path = tmp_path / "p.txt"
        set_path.write_text(format_pointset(punctured))
        code, out = run_cli(capsys, "find-det-similar", "--q", "5", "--d", "2",
                            "--r", "4", "--k", "2", "--set", str(set_path))
        witness_path = tmp_path / "dw.json"
        witness_path.write_text(out)
        code, out = run_cli(capsys, "verify-witness", str(witness_path))
        assert code == 0
        assert first_json(out)["verified"] is True

    def test_tampered_witness_fails(self, capsys, tmp_path):
        code, out = run_cli(capsys, "find-similar", "--q", "5", "--d", "2",
                            "--r", "4", "--k", "2", "--random", "9", "--seed", "3")
        obj = first_json(out)
        obj["ys"][0][0] = (obj["ys"][0][0] + 1) % 5
        witness_path = tmp_path / "bad.json"
        witness_path.write_text(json.dumps(obj))
        code, out = run_cli(capsys, "verify-witness", str(witness_path))
        assert code == 2
        assert first_json(out)["verified"] is False

    def test_det_witness_with_non_unimodular_g_fails(self, capsys, tmp_path):
        from fqsim import PointSet, all_vectors, make_field

        f = make_field(5)
        punctured = PointSet(f, 2, [v for v in all_vectors(f, 2) if not v.is_zero()])
        set_path = tmp_path / "p.txt"
        set_path.write_text(format_pointset(punctured))
        code, out = run_cli(capsys, "find-det-similar", "--q", "5", "--d", "2",
                            "--r", "4", "--k", "2", "--set", str(set_path))
        assert code == 0
        obj = first_json(out)
        obj["g"] = [[2, 0], [0, 2]]  # determinant 4 mod 5
        witness_path = tmp_path / "dw.json"
        witness_path.write_text(json.dumps(obj))
        code, out = run_cli(capsys, "verify-witness", str(witness_path))
        assert code == 2
        result = first_json(out)
        assert result["verified"] is False
        assert "transform determinant is not 1" in result["reasons"]

    def test_bad_file_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "nope.json"
        code, out = run_cli(capsys, "verify-witness", str(path))
        assert code == 3


class TestInputErrors:
    @pytest.mark.parametrize("argv", [
        ["enumerate-group", "--kind", "translations", "--q", "3", "--d", "2", "--bogus"],
        ["enumerate-group", "--kind", "translations", "--q", "three", "--d", "2"],
        ["verify-bound", "--group", "translations", "--q", "3", "--d", "1",
         "--exhaustive-subsets", "--jobs", "2"],
        ["find-det-similar", "--q", "5", "--d", "2", "--r", "4", "--k", "2",
         "--random", "9", "--jobs", "2"],
        ["sphere-experiment", "--q", "7", "--d", "2", "--radius", "1", "--k", "1",
         "--jobs", "2"],
        ["enumerate-group", "--kind", "translations", "--q", "3", "--d", "2",
         "--cap", "100"],
        ["verify-bound", "--group", "translations", "--q", "3", "--d", "1",
         "--exhaustive-subsets", "--cap", "100"],
    ])
    def test_usage_error_is_input_error(self, capsys, argv):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 3
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["find-similar", "--q", "65537", "--d", "4", "--r", "1", "--k", "1", "--random", "5"],
        ["sweep", "--qs", "65537", "--d", "4", "--ks", "1", "--r", "1", "--size", "5"],
    ])
    def test_sampling_past_two_to_the_64_points_is_input_error(self, capsys, argv):
        code, out = run_cli(capsys, *argv)
        assert code == 3
        assert first_json(out)["error"] == "SpaceTooLarge"

    @pytest.mark.parametrize("argv", [["--help"], ["--version"], ["sweep", "--help"]])
    def test_help_and_version_exit_zero(self, capsys, argv):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 0
        assert capsys.readouterr().out

    @pytest.mark.parametrize("corrupt", [
        lambda w: {"kind": "similarity"},
        lambda w: [w],
        lambda w: {**w, "xs": [[str(c) for c in w["xs"][0]]] + w["xs"][1:]},
    ], ids=["missing-keys", "top-level-list", "string-coordinate"])
    def test_malformed_witness_is_input_error(self, capsys, tmp_path, corrupt):
        _, out = run_cli(capsys, "find-similar", "--q", "5", "--d", "2",
                         "--r", "4", "--k", "2", "--random", "9", "--seed", "3")
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(corrupt(first_json(out))))
        code = main(["verify-witness", str(path)])
        captured = capsys.readouterr()
        assert code == 3
        assert first_json(captured.out)["error"] == "MalformedWitness"
        assert "Traceback" not in captured.err


class TestOneParserPerProcess:
    def test_successive_calls_answer_as_fresh_processes(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")  # usage lines wrap at the same width
        monkeypatch.setenv("PYTHONPATH", os.path.dirname(os.path.dirname(fqsim.__file__)))
        build_parser.cache_clear()
        calls = [
            ["enumerate-group", "--kind", "translations", "--q", "3", "--d", "2"],
            ["find-similar", "--q", "5", "--d", "2"],  # usage error: no --r, --k
            ["find-similar", "--q", "5", "--d", "2", "--r", "4", "--k", "2", "--random", "9"],
            ["sweep", "--qs", "3", "--d", "2", "--ks", "1", "--kind", "nonsense"],
            ["verify-bound", "--group", "translations", "--q", "3", "--d", "2"],
        ]
        for argv in calls:
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            out, err = capsys.readouterr()
            fresh = subprocess.run([sys.executable, "-m", "fqsim.cli", *argv],
                                   capture_output=True, text=True)
            assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr), argv
        assert build_parser.cache_info().misses == 1


# Runs CLI commands in a child process whose address space is capped at
# 1.5 GB, and prints each one's exit code and stdout, or what escaped.
UNDER_A_MEMORY_LIMIT = """
import contextlib, io, json, resource, sys
hard = resource.getrlimit(resource.RLIMIT_AS)[1]
limit = 1536 << 20 if hard == resource.RLIM_INFINITY else min(1536 << 20, hard)
resource.setrlimit(resource.RLIMIT_AS, (limit, hard))
from fqsim.cli import main
results = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = main(argv)
        results.append({"code": code, "lines": out.getvalue().splitlines()})
    except Exception as exc:
        results.append({"escaped": repr(exc)})
print(json.dumps(results))
"""


class TestUnderAMemoryLimit:
    def test_no_command_crashes(self):
        """Each command answers with its documented code in 1.5 GB: the
        samples, edge sets and grids past the budget are refused before
        they are built, and a det cell on a line of 10^8 points lists none."""
        resource = pytest.importorskip("resource")
        if not hasattr(resource, "RLIMIT_AS"):
            pytest.skip("no address-space limit on this platform")
        commands = [
            (["sweep", "--qs", "2", "--d", "60", "--ks", "1"], 0),
            (["find-similar", "--q", "3", "--d", "38", "--r", "1", "--k", "1",
              "--random", "2000000000"], 4),
            (["find-similar", "--q", "5", "--d", "2", "--r", "4", "--k", "1000000",
              "--random", "9"], 4),
            (["sweep", "--qs", "3", "--d", "2", "--ks", "1", "--trials", "1000000000"], 4),
            (["sweep", "--qs", "4294967291", "--d", "1", "--ks", "1"], 4),
            (["sweep", "--kind", "det-similarity", "--qs", "99999989", "--d", "1", "--ks", "1",
              "--r", "1"], 0),
        ]
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(fqsim.__file__)))
        child = subprocess.run(
            [sys.executable, "-c", UNDER_A_MEMORY_LIMIT, json.dumps([argv for argv, _ in commands])],
            capture_output=True, text=True, env=env, timeout=120)
        assert child.returncode == 0, child.stderr
        results = json.loads(child.stdout)
        assert [r.get("escaped") for r in results] == [None] * len(commands)
        assert [r["code"] for r in results] == [code for _, code in commands]
        refused, witness = (json.loads(results[i]["lines"][0])["outcome"] for i in (0, 5))
        assert refused["error"] == "EnumerationCapExceeded"
        assert refused["message"].startswith("random sample (points) needs at most")
        assert witness["status"] == "witness"
        messages = [json.loads("\n".join(r["lines"]))["message"] for r in results[1:5]]
        assert [m.split(" needs")[0] for m in messages] == [
            "random sample (points)", "edge set (pairs)", "sweep grid (cells)", "sweep grid (cells)"]

