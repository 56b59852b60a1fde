"""End-to-end runs of the command-line interface."""

import functools
import hashlib
import json
import os
import subprocess
import sys
import time
import types
import warnings
from fractions import Fraction

import pytest

import fqsim
from fqsim import (
    FiniteGroup,
    PointSet,
    Space,
    Vector,
    file_digest,
    load_pointset,
    make_field,
    max_intersection,
    orthogonal_group,
    random_pointset,
    random_subset,
    special_linear_group,
    sphere,
    translations,
)
from fqsim.cli import build_parser, main

from helpers import format_pointset, from_coords


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

    @pytest.mark.parametrize("argv, code, message", [
        (["special-linear", "--q", "5", "--d", "3"], 4,
         "subset-pair audit needs a space of at most 10 points, got 124"),
        (["translations", "--q", "11", "--d", "1"], 4,
         "subset-pair audit needs a space of at most 10 points, got 11"),
        (["translations", "--q", "101", "--d", "10"], 4,
         "full space (q^d) needs at most 100000000 candidates, got 110462212541120451001"),
        (["special-linear", "--q", "101", "--d", "4"], 4,
         "matrix scan (q^(d^2)) needs at most 100000000 candidates, "
         "got 117257864492369852051862561201601"),
        (["special-linear", "--q", "9", "--d", "3"], 3,
         "9 is not prime (extension fields are unsupported)"),
        (["special-linear", "--q", "5", "--d", "0"], 3, "dimension must be positive, got 0"),
        (["special-linear", "--q", "5", "--d", "3", "--radius", "1"], 3,
         "--radius applies to orthogonal groups only, not special-linear"),
        (["special-linear", "--q", "13", "--d", "1"], 3,
         "special-linear group is not transitive on its punctured space; the intersection bound does not apply"),
        (["orthogonal", "--q", "9", "--d", "2"], 3, "9 is not prime (extension fields are unsupported)"),
        (["orthogonal", "--q", "101", "--d", "3"], 4,
         "matrix enumeration (q^(d^2)) needs at most 100000000 candidates, got 1093685272684360901"),
        (["orthogonal", "--q", "3", "--d", "-5"], 4,
         "matrix enumeration (q^(d^2)) needs at most 100000000 candidates, got 847288609443"),
        (["orthogonal", "--q", "5", "--d", "0"], 3, "dimension must be positive, got 0"),
        (["orthogonal", "--q", "5", "--d", "2"], 3,
         "orthogonal group is not transitive on its full space; the intersection bound does not apply"),
    ], ids=["SL(3,5)", "T(11,1)", "budget", "SL-budget", "q-9", "d-0", "radius", "SL(1,13)",
            "O-q-9", "O-budget", "O-d-minus-5", "O-d-0", "O-on-F_q^d"])
    def test_audit_is_refused_before_the_group_is_built(self, capsys, monkeypatch, argv, code, message):
        """The build's own refusals come first, in its order; then an action
        that is not transitive, and a space past the audit's limit, are
        refused by their closed forms, for every kind."""
        def build(*args, **kwargs):
            raise AssertionError("group built")

        monkeypatch.setattr(fqsim.cli, "translations", build)
        monkeypatch.setattr(fqsim.cli, "special_linear_group", build)
        monkeypatch.setattr(fqsim.cli, "orthogonal_group", build)
        got, out = run_cli(capsys, "verify-bound", "--group", *argv, "--exhaustive-subsets")
        assert (got, first_json(out)["message"]) == (code, message)

    def test_audit_of_special_linear_on_a_line_is_not_transitive(self, capsys):
        code, out = run_cli(capsys, "verify-bound", "--group", "special-linear",
                            "--q", "13", "--d", "1", "--exhaustive-subsets")
        assert (code, first_json(out)["error"]) == (3, "NotTransitive")

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


def special_linear_set_pairs(q, d):
    """(name, E, H) pairs on the punctured F_q^d, drawn as
    `translation_set_pairs` draws them on F_q^d."""
    space = Space.punctured(q, d)
    n = len(space)
    e = random_subset(space, max(1, n // 3), seed=q * d)
    h = random_subset(space, (n + 1) // 2, seed=q + d)
    return [
        ("empty", PointSet(space.field, d), h),
        ("one-point", e, random_subset(space, 1, seed=q)),
        ("random", e, h),
        ("disjoint", e, PointSet(space.field, d, [p for p in space if p not in e])),
        ("whole", space, space),
    ]


def write_set(path, points):
    path.write_text(format_pointset(points))
    return str(path)


class TableBuilt(Exception):
    pass


@pytest.mark.filterwarnings("default::UserWarning")
class TestKernelBackedVerifyBound:
    """Explicit-set translation and SL(d, q) bounds come from the finders'
    scans, with no group and no image table; every other scan still reads
    the table, and the refusals keep the group build's order and messages."""

    def expected(self, group, e, h, pe, ph, histogram):
        """stdout, stderr and exit code that `max_intersection` over the
        enumerated group gives."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            report = max_intersection(group, e, h, want_histogram=histogram)
        out = report.to_json()
        out["double_count_ok"] = report.double_count_ok if report.transitive else None
        out["input_digests"] = {"set_e": file_digest(pe), "set_h": file_digest(ph)}
        code = 2 if report.transitive and not (report.satisfies_bound and report.double_count_ok) else 0
        err = "".join(f"warning: {w.message}\n" for w in caught)
        return json.dumps(out, sort_keys=True, indent=2) + "\n", err, code

    @pytest.mark.parametrize("q, d", [(q, d) for q in (2, 3, 5, 7) for d in (1, 2, 3)
                                      if q ** d <= 343])
    def test_matches_the_enumerated_scan(self, capsys, tmp_path, q, d):
        for name, e, h in translation_set_pairs(q, d):
            pe, ph = write_set(tmp_path / "e.txt", e), write_set(tmp_path / "h.txt", h)
            for histogram in (False, True):
                expected = self.expected(translations(q, d), e, h, pe, ph, histogram)
                argv = ["verify-bound", "--group", "translations", "--q", str(q), "--d", str(d),
                        "--set-e", pe, "--set-h", ph] + ["--histogram"] * histogram
                code = main(argv)
                captured = capsys.readouterr()
                assert (captured.out, captured.err, code) == expected, (name, histogram)

    @pytest.mark.parametrize("q, d", [(2, 1), (7, 1), (2, 2), (3, 2), (5, 2), (13, 2), (17, 2),
                                      (3, 3), (2, 4)])
    def test_special_linear_matches_the_enumerated_scan(self, capsys, tmp_path, q, d):
        # SL(1, 7) moves nothing; SL(2, 17) acts on 288 points, past the byte bound
        group = special_linear_group(q, d)
        for name, e, h in special_linear_set_pairs(q, d):
            pe, ph = write_set(tmp_path / "e.txt", e), write_set(tmp_path / "h.txt", h)
            for histogram in (False, True):
                expected = self.expected(group, e, h, pe, ph, histogram)
                argv = ["verify-bound", "--group", "special-linear", "--q", str(q), "--d", str(d),
                        "--set-e", pe, "--set-h", ph] + ["--histogram"] * histogram
                code = main(argv)
                captured = capsys.readouterr()
                assert (captured.out, captured.err, code) == expected, (name, histogram)

    def test_translations_build_no_image_table(self, capsys, tmp_path, monkeypatch):
        """Explicit translation and SL(d, q) sets read no image table; every
        other scan still does."""
        e, h = translation_set_pairs(5, 2)[2][1:]
        pe, ph = write_set(tmp_path / "e.txt", e), write_set(tmp_path / "h.txt", h)
        pu = write_set(tmp_path / "punctured.txt",
                       PointSet(make_field(5), 2, [p for p in e if any(p.coords)]))
        punctured = load_pointset(pu)
        expected = [self.expected(translations(5, 2), e, h, pe, ph, True),
                    self.expected(special_linear_group(5, 2), punctured, punctured, pu, pu, True)]

        def columns(self):
            raise TableBuilt

        monkeypatch.setattr(FiniteGroup, "columns", columns)
        for argv, want in zip((["translations", "--set-e", pe, "--set-h", ph],
                               ["special-linear", "--set-e", pu, "--set-h", pu]), expected):
            code = main(["verify-bound", "--group", argv[0], "--q", "5", "--d", "2", *argv[1:], "--histogram"])
            captured = capsys.readouterr()
            assert (captured.out, captured.err, code) == want, argv[0]
        po = write_set(tmp_path / "sphere.txt", sphere(5, 2, 1))
        for argv in (["orthogonal", "--q", "5", "--d", "2", "--set-e", pe, "--set-h", ph],
                     ["orthogonal", "--q", "5", "--d", "2", "--radius", "1",
                      "--set-e", po, "--set-h", po],
                     ["translations", "--q", "3", "--d", "1", "--exhaustive-subsets"],
                     ["special-linear", "--q", "2", "--d", "2", "--exhaustive-subsets"]):
            with pytest.raises(TableBuilt):
                main(["verify-bound", "--group", *argv])

    def test_explicit_sets_build_the_space_and_no_group(self, capsys, tmp_path, monkeypatch):
        """Explicit sets build no group and list no space: translation sets
        are checked by their header alone, and SL(d, q) sets by their header
        and their first point, which is the origin if they hold it.  On a
        small grid and on the refusals, in their order (--radius, the prime
        and the dimension, the q^d or q^(d^2) budget before any set file is
        read, then the sets), stdout, stderr and exit code stay the group's."""
        calls, listed, full, punctured = [], [], Space.full, Space.punctured
        monkeypatch.setattr(fqsim.cli, "translations", lambda *args: calls.append(args))
        monkeypatch.setattr(fqsim.cli, "special_linear_group", lambda *args: calls.append(args))
        monkeypatch.setattr(Space, "full", lambda *args: listed.append(args) or full(*args))
        monkeypatch.setattr(Space, "punctured", lambda *args: listed.append(args) or punctured(*args))
        for kind, group, set_pairs, shapes in (
                ("translations", translations, translation_set_pairs, ((2, 3), (3, 2), (5, 1), (7, 2))),
                ("special-linear", special_linear_group, special_linear_set_pairs,
                 ((2, 2), (3, 2), (5, 1), (3, 3)))):
            for q, d in shapes:
                for name, e, h in set_pairs(q, d):
                    pe, ph = write_set(tmp_path / "e.txt", e), write_set(tmp_path / "h.txt", h)
                    expected = self.expected(group(q, d), e, h, pe, ph, True)
                    listed.clear()  # the enumerated group lists its space
                    code = main(["verify-bound", "--group", kind, "--q", str(q), "--d", str(d),
                                 "--set-e", pe, "--set-h", ph, "--histogram"])
                    captured = capsys.readouterr()
                    assert (captured.out, captured.err, code, listed) == (*expected, []), (kind, q, d, name)
        (tmp_path / "F5").write_text("q=5 d=2\n1,2\n")
        (tmp_path / "O5").write_text("q=5 d=2\n0,0\n")
        sets = ["--set-e", str(tmp_path / "F5"), "--set-h", str(tmp_path / "F5")]
        missing = ["--set-e", str(tmp_path / "missing"), "--set-h", str(tmp_path / "missing")]
        for kind, argv, code, error, message in [
            ("translations", ["--q", "4", "--d", "0", "--radius", "1", *sets], 3, "ValueError",
             "--radius applies to orthogonal groups only, not translations"),
            ("translations", ["--q", "4", "--d", "0", *sets], 3, "NotPrime",
             "4 is not prime (extension fields are unsupported)"),
            ("translations", ["--q", "5", "--d", "0", *sets], 3, "ValueError", "dimension must be positive, got 0"),
            ("translations", ["--q", "101", "--d", "10", *missing], 4, "EnumerationCapExceeded",
             "full space (q^d) needs at most 100000000 candidates, got 110462212541120451001"),
            ("translations", ["--q", "7", "--d", "2", *sets], 3, "SpaceMismatch",
             "moving set lives in F_5^2, the group acts on F_7^2"),
            ("special-linear", ["--q", "4", "--d", "0", "--radius", "1", *sets], 3, "ValueError",
             "--radius applies to orthogonal groups only, not special-linear"),
            ("special-linear", ["--q", "4", "--d", "0", *sets], 3, "NotPrime",
             "4 is not prime (extension fields are unsupported)"),
            ("special-linear", ["--q", "5", "--d", "0", *sets], 3, "ValueError", "dimension must be positive, got 0"),
            ("special-linear", ["--q", "101", "--d", "4", *missing], 4, "EnumerationCapExceeded",
             "matrix scan (q^(d^2)) needs at most 100000000 candidates, "
             "got 117257864492369852051862561201601"),
            ("special-linear", ["--q", "7", "--d", "2", *sets], 3, "SpaceMismatch",
             "moving set lives in F_5^2, the group acts on F_7^2"),
            ("special-linear", ["--q", "5", "--d", "2", "--set-e", str(tmp_path / "O5"), "--set-h",
                                str(tmp_path / "F5")], 3, "SpaceMismatch",
             "moving set: Vector([0, 0] mod 5) is not a point of Space(punctured, q=5, d=2, size=24)"),
        ]:
            got = main(["verify-bound", "--group", kind, *argv])
            captured = capsys.readouterr()
            out = json.dumps({"error": error, "message": message}, sort_keys=True, indent=2) + "\n"
            assert (captured.out, captured.err, got) == (out, "", code), (kind, argv)
        assert calls == listed == []

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

    def test_edge_file_layout_does_not_change_the_edges(self, capsys, tmp_path):
        # CRLF line ends, a comment-only line, blank lines and spaces around cells
        clean, messy = tmp_path / "clean.txt", tmp_path / "messy.txt"
        clean.write_bytes(b"1,2\n2,3\n")
        messy.write_bytes(b"\r\n# edges\r\n 1 , 2 \r\n\r\n   # none here\r\n2,\t3  # last\r\n\r\n")
        outputs = [run_cli(capsys, "find-similar", "--q", "5", "--d", "2", "--r", "4", "--k", "2",
                           "--random", "9", "--edges", f"pairs:{path}") for path in (clean, messy)]
        assert outputs[0] == outputs[1] and outputs[0][0] == 0
        assert first_json(outputs[1][1])["edges"] == [[1, 2], [2, 3]]

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
        punctured = Space.punctured(5, 2)
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
        monkeypatch.setattr(fqsim.cli, "orthogonal_group", None)
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


@pytest.mark.filterwarnings("ignore::UserWarning")
class TestSphereExperimentReport:
    """The verdicts of `sphere-experiment`, read off its JSON."""

    def run(self, capsys, tmp_path, q, d, radius, k, e=None, h=None):
        sets = []
        for flag, points in (("--set-e", e), ("--set-h", h)):
            if points is not None:
                sets += [flag, write_set(tmp_path / f"{flag[-1]}.txt", points)]
        code, out = run_cli(capsys, "sphere-experiment", "--q", str(q), "--d", str(d),
                            "--radius", str(radius), "--k", str(k), *sets)
        return code, first_json(out)

    def test_full_sphere_mod_three(self, capsys, tmp_path):
        code, obj = self.run(capsys, tmp_path, 3, 2, 1, 3)
        assert code == 0
        assert obj["transitive"] is True
        assert (obj["sphere_size"], obj["best_count"]) == (4, 4)
        assert Fraction(obj["bound_num"], obj["bound_den"]) == 4
        assert obj["meets_exact_threshold"] is True
        assert obj["guarantee_holds"] is True

    def test_full_sphere_mod_five(self, capsys, tmp_path):
        code, obj = self.run(capsys, tmp_path, 5, 2, 1, 1)
        assert code == 0
        assert obj["best_count"] == obj["sphere_size"]

    def test_empty_set(self, capsys, tmp_path):
        code, obj = self.run(capsys, tmp_path, 5, 2, 1, 1, e=PointSet(make_field(5), 2))
        assert code == 0
        assert (obj["best_count"], obj["bound_num"]) == (0, 0)
        assert obj["guarantee_holds"] is True

    def test_empty_sphere_applies_no_guarantee(self, capsys, tmp_path):
        # x² = 2 has no root mod 3: |E||H|/|X| bounds nothing on an empty sphere
        code, obj = self.run(capsys, tmp_path, 3, 1, 2, 1)
        assert code == 0
        assert obj["sphere_size"] == 0
        assert (obj["best_count"], obj["bound_num"]) == (0, 0)
        assert obj["meets_exact_threshold"] is True and obj["reaches_target"] is False
        assert obj["guarantee_holds"] is True

    def test_radius_zero_not_transitive(self, capsys, tmp_path):
        # the radius-0 sphere mod 5 contains the origin and 8 isotropic points
        code, obj = self.run(capsys, tmp_path, 5, 2, 0, 1)
        assert code == 0
        assert obj["transitive"] is False
        assert obj["guarantee_holds"] is True  # guarantee does not apply

    def test_not_on_sphere(self, capsys, tmp_path):
        bad = from_coords(make_field(3), 2, [[1, 1]])  # norm 2, not 1
        code, obj = self.run(capsys, tmp_path, 3, 2, 1, 1, e=bad)
        assert (code, obj["error"]) == (3, "NotOnSphere")

    def test_negative_k_is_refused_before_the_points_and_the_group(self, capsys, tmp_path):
        # building O(3, 101) is refused by the budget (exit 4): exit 3 shows it is never reached
        bad = from_coords(make_field(3), 2, [[1, 1]])
        refused = {"error": "ValueError", "message": "k must be nonnegative, got -1"}
        assert self.run(capsys, tmp_path, 7, 2, 1, -1) == (3, refused)
        assert self.run(capsys, tmp_path, 101, 3, 1, -1) == (3, refused)
        assert self.run(capsys, tmp_path, 3, 2, 1, -1, e=bad) == (3, refused)

    def test_coarse_threshold_reported(self, capsys, tmp_path):
        code, obj = self.run(capsys, tmp_path, 3, 2, 1, 3)
        assert obj["coarse_space_size"] == 3
        assert obj["meets_coarse_threshold"] is True
        # |E||H| = 15 on the 8-point circle mod 7: 2·7 <= 15 < 2·8
        surface = sphere(7, 2, 1)
        e_set, h_set = (PointSet(make_field(7), 2, list(surface.points[:n])) for n in (3, 5))
        code, obj = self.run(capsys, tmp_path, 7, 2, 1, 1, e=e_set, h=h_set)
        assert (obj["coarse_space_size"], obj["sphere_size"]) == (7, 8)
        assert obj["meets_coarse_threshold"] is True and obj["meets_exact_threshold"] is False

    def test_subset_run(self, capsys, tmp_path):
        surface = sphere(7, 2, 1)
        half = PointSet(make_field(7), 2, list(surface.points[:4]))
        code, obj = self.run(capsys, tmp_path, 7, 2, 1, 1, e=half, h=half)
        assert code == 0
        assert obj["best_count"] >= Fraction(16, len(surface))
        assert obj["guarantee_holds"] is True


# (d, q) of the orthogonal groups the pins run on.
O_PIN_SHAPES = [(2, 3), (2, 5), (2, 7), (2, 13), (3, 3), (3, 5), (3, 7)]


@pytest.fixture(scope="module")
def o_space():
    """The space of O(d, q) on the radius sphere, or on F_q^d for radius
    None, each group enumerated once for the module."""
    return functools.cache(lambda q, d, radius: orthogonal_group(q, d, radius=radius).space)


def o_pin_argvs(tmp_path, space, radius):
    """(label, argv) of both orthogonal-bound commands on O(d, q) acting
    on `space`: default, whole, half, disjoint and empty sets, a point off
    the space, a set over another q, k = -1 and k = 0, and `--histogram`."""
    field, d, q = space.field, space.dim, space.field.q
    pts = list(space)
    cut = (len(pts) + 1) // 2
    other = make_field(5 if q == 3 else 3)
    files = {"whole": space, "half": PointSet(field, d, pts[:cut]), "rest": PointSet(field, d, pts[cut:]),
             "empty": PointSet(field, d),
             "other": PointSet(other, d, [Vector(other, [1] + [0] * (d - 1))])}
    if radius is not None:  # the origin lies on the radius-0 sphere only
        off = Vector(field, [0] * d if radius % q else [1] + [0] * (d - 1))
        files["off"] = PointSet(field, d, pts + [off])
    paths = {name: write_set(tmp_path / f"{name}.txt", points) for name, points in files.items()}
    pairs = [("whole", "whole"), ("half", "half"), ("half", "rest"), ("empty", "whole"),
             ("whole", "off"), ("other", "whole")]
    sets = [(e, h, ["--set-e", paths[e], "--set-h", paths[h]]) for e, h in pairs if h in paths]
    shape = ["--q", str(q), "--d", str(d)] + ([] if radius is None else ["--radius", str(radius)])
    runs = [(f"verify-bound {e} {h}", ["verify-bound", "--group", "orthogonal", *shape, *argv])
            for e, h, argv in sets]
    runs += [(f"verify-bound {e} {h} histogram", ["verify-bound", "--group", "orthogonal", *shape, *argv,
                                                  "--histogram"]) for e, h, argv in sets[1:3]]
    if radius is None:
        return runs
    sphere_k = ["sphere-experiment", *shape, "--k"]
    runs += [(f"sphere-experiment default k={k}", sphere_k + [k]) for k in ("1", "-1", "0", str(len(pts)))]
    runs += [("sphere-experiment half default", sphere_k + ["1", "--set-e", paths["half"]])]
    runs += [(f"sphere-experiment {e} {h}", sphere_k + ["1", *argv]) for e, h, argv in sets]
    return runs


def o_pin_refusal_argvs(tmp_path):
    """(label, argv) of each command's refusals, in their order, and of the
    empty sphere x² = 2 mod 3."""
    paths = {name: str(tmp_path / name) for name in ("bad", "empty3", "e101", "off101", "o7")}
    for name, text in (("bad", "q=5 d=2\n1,x\n"), ("empty3", "q=3 d=1\n"), ("e101", "q=101 d=3\n1,0,0\n"),
                       ("off101", "q=101 d=3\n0,0,0\n"), ("o7", "q=7 d=2\n0,0\n")):
        (tmp_path / name).write_text(text)
    sphere_101 = ["sphere-experiment", "--q", "101", "--d", "3", "--radius", "1", "--k"]
    bound = ["verify-bound", "--group", "orthogonal"]
    return [
        ("sphere: set file before prime", ["sphere-experiment", "--q", "4", "--d", "2", "--radius", "1",
                                           "--k", "-1", "--set-e", paths["bad"]]),
        ("sphere: prime before k", ["sphere-experiment", "--q", "4", "--d", "2", "--radius", "1", "--k", "-1"]),
        ("sphere: k before points", ["sphere-experiment", "--q", "7", "--d", "2", "--radius", "1", "--k", "-1",
                                     "--set-e", paths["o7"]]),
        ("sphere: points before budget", sphere_101 + ["1", "--set-h", paths["off101"]]),
        ("sphere: k before budget", sphere_101 + ["-1"]),
        ("sphere: budget", sphere_101 + ["1"]),
        ("sphere: budget with sets", sphere_101 + ["1", "--set-e", paths["e101"], "--set-h", paths["e101"]]),
        ("sphere: dimension", ["sphere-experiment", "--q", "5", "--d", "0", "--radius", "1", "--k", "1"]),
        ("sphere: radius reduced", ["sphere-experiment", "--q", "7", "--d", "2", "--radius", "8", "--k", "1",
                                    "--set-e", paths["o7"]]),
        ("sphere: empty sphere", ["sphere-experiment", "--q", "3", "--d", "1", "--radius", "2", "--k", "1"]),
        ("sphere: empty sphere, empty sets", ["sphere-experiment", "--q", "3", "--d", "1", "--radius", "2",
                                              "--k", "0", "--set-e", paths["empty3"], "--set-h", paths["empty3"]]),
        ("bound: prime before sets", bound + ["--q", "4", "--d", "2", "--set-e", paths["bad"],
                                              "--set-h", paths["bad"]]),
        ("bound: budget before sets", bound + ["--q", "101", "--d", "3", "--set-e", paths["bad"],
                                               "--set-h", paths["bad"]]),
        ("bound: budget on a sphere", bound + ["--q", "101", "--d", "3", "--radius", "1"]),
        ("bound: dimension", bound + ["--q", "5", "--d", "0", "--set-e", paths["bad"]]),
        ("bound: both sets", bound + ["--q", "7", "--d", "2", "--set-e", paths["o7"]]),
        ("bound: set file", bound + ["--q", "7", "--d", "2", "--set-e", paths["bad"], "--set-h", paths["o7"]]),
        ("bound: empty sphere", bound + ["--q", "3", "--d", "1", "--radius", "2", "--set-e", paths["empty3"],
                                         "--set-h", paths["empty3"], "--histogram"]),
    ]


def o_pin_digest(capsys, runs):
    """sha256 over [label, exit code, stdout, stderr] of each run, one JSON
    line each."""
    digest = hashlib.sha256()
    for label, argv in runs:
        code = main(argv)
        captured = capsys.readouterr()
        digest.update(json.dumps([label, code, captured.out, captured.err]).encode() + b"\n")
    return digest.hexdigest()


@pytest.mark.filterwarnings("default::UserWarning")
class TestOrthogonalBoundPins:
    """stdout, stderr and exit code of `verify-bound --group orthogonal`
    and `sphere-experiment`, recorded while each ran its own code: every
    output, refusals included, stays byte for byte."""

    @pytest.mark.parametrize("d, q, digest", [
        (2, 3,
         "04ce1156640d96466a89a99cd7b35d14094b508d99683f074ec942eec9f549da"),
        (2, 5,
         "3c046c6408fe4a5a0fec362767d9c1c233b123cecc2d5735c06d2d99de588373"),
        (2, 7,
         "e9d3d670887c1146e843679b2c37791315205b91653a152b44301b3537871509"),
        (2, 13,
         "951f3e51edad76d79907e2f0c65fcfaccda195b2a7216a6177a940a51e0c0f6f"),
        (3, 3,
         "5ae07b1d5ac03aee5b4beb7c06621029be3b30d0956b3c242bcb92650add9779"),
        (3, 5,
         "8716d8f20e6f54f18a0ef08a60c86a9704d936d80df8e5abda1f1c6a87bdc741"),
        (3, 7,
         "af7ba8243dc97644df2f4ffb2e56c532ac0c3833c50c1b1b54301ac9b4795d24"),
    ], ids=[f"O({d},{q})" for d, q in O_PIN_SHAPES])
    def test_outputs_are_golden(self, capsys, tmp_path, o_space, d, q, digest):
        runs = []
        for radius in (None, 0, 1):
            runs += o_pin_argvs(tmp_path, o_space(q, d, radius), radius)
        assert o_pin_digest(capsys, runs) == digest

    def test_refusals_and_the_empty_sphere_are_golden(self, capsys, tmp_path):
        assert o_pin_digest(capsys, o_pin_refusal_argvs(tmp_path)) == (
            "13da6c67758c76819d56288f72fd0f95613d9ae2e5af6ac0c65fa96e18bb8ba4")

    def test_subset_audits_are_golden(self, capsys):
        """`--exhaustive-subsets` over O(d, q) on F_q^d, each refusal in
        its order (prime, matrix budget, dimension, transitivity), and on
        a sphere, where the audit runs."""
        runs = [(flags, ["verify-bound", "--group", "orthogonal", *flags.split(), "--exhaustive-subsets"])
                for flags in ("--q 7 --d 1", "--q 97 --d 2", "--q 2 --d 3", "--q 3 --d 0", "--q 3 --d -5",
                              "--q 11 --d 3", "--q 4 --d 2", "--q 5 --d 2 --radius 1")]
        assert o_pin_digest(capsys, runs) == (
            "37ef305e77a71f2caed5cf2f8086040e18a3c81ee17671df815a798d32888ab6")


# argv tail of each `verify-bound --group orthogonal --q 5 --d 2` set input,
# the files named relative to the run's directory: a missing --set-h, an
# unreadable --set-e, a malformed header, and (1, 1), of norm 2, off the
# radius-1 sphere
O_SET_READ_INPUTS = {
    "no set-h": ["--set-e", "e.txt"],
    "unreadable set-e": ["--set-e", "absent.txt", "--set-h", "e.txt"],
    "malformed header": ["--set-e", "header.txt", "--set-h", "e.txt"],
    "off the sphere": ["--set-e", "e.txt", "--set-h", "off.txt"],
}
O_SET_READ_FILES = {"e.txt": "q=5 d=2\n1,0\n0,4\n", "header.txt": "q=5 x=2\n1,0\n", "off.txt": "q=5 d=2\n1,1\n"}


@pytest.mark.filterwarnings("default::UserWarning")
class TestOrthogonalSetReadPins:
    """stdout, stderr and exit code of `verify-bound --group orthogonal`
    over set files that fail to read or hold a point off the sphere."""

    def run(self, capsys, tmp_path, monkeypatch, name, radius):
        for file, text in O_SET_READ_FILES.items():
            (tmp_path / file).write_text(text)
        monkeypatch.chdir(tmp_path)
        code = main(["verify-bound", "--group", "orthogonal", "--q", "5", "--d", "2",
                     *([] if radius is None else ["--radius", str(radius)]), *O_SET_READ_INPUTS[name]])
        captured = capsys.readouterr()
        return hashlib.sha256(json.dumps([code, captured.out, captured.err]).encode()).hexdigest()

    @pytest.mark.parametrize("name, radius, digest", [
        ("no set-h", None,
         "61106827c6de5fbbeb1ce3356c36eb23017126bfd66b2a5ca4e95f620d7a1cff"),
        ("no set-h", 1,
         "61106827c6de5fbbeb1ce3356c36eb23017126bfd66b2a5ca4e95f620d7a1cff"),
        ("unreadable set-e", None,
         "caf97c1a7bac186044d61453cf5bf54de1ebbf158c3ccd295cb7e9a973571b13"),
        ("unreadable set-e", 1,
         "caf97c1a7bac186044d61453cf5bf54de1ebbf158c3ccd295cb7e9a973571b13"),
        ("malformed header", None,
         "86028bd38e7d5cc5a1a5e6d17d62117f2b406bb71afffa8b2d5b8ce3399ef569"),
        ("malformed header", 1,
         "86028bd38e7d5cc5a1a5e6d17d62117f2b406bb71afffa8b2d5b8ce3399ef569"),
        ("off the sphere", None,
         "f29d7a37535509528b70fcd8ae5150be5ea4ee92c2c1335e5287309dca3ea8e2"),
        ("off the sphere", 1,
         "c2e5ea34f0fbc67fdc3949c7e5948ef5a7f6ec5ad84a5af56721c4842d548e60"),
    ])
    def test_outputs_are_golden(self, capsys, tmp_path, monkeypatch, name, radius, digest):
        assert self.run(capsys, tmp_path, monkeypatch, name, radius) == digest

    @pytest.mark.parametrize("radius", [None, 1])
    def test_no_group_is_built_before_the_sets_are_read(self, capsys, tmp_path, monkeypatch, radius):
        built = []
        monkeypatch.setattr(fqsim.cli, "orthogonal_group",
                            lambda *args, **kw: built.append(args) or orthogonal_group(*args, **kw))
        for name in O_SET_READ_INPUTS:
            built.clear()
            self.run(capsys, tmp_path, monkeypatch, name, radius)
            assert built == ([(5, 2)] if name == "off the sphere" else []), name


# (flags, set file) of the translation and SL(d, q) pins: a composite q, d
# = 0 and d = -5, --radius, T(10007, 2) just past q^d, SL(101, 2) just past
# q^(d^2), SL(1, 2), SL(1, 13), T(11, 1) and SL(3, 5) past the subset-pair
# audit's 10 points, and small spaces; each set file is over that space.
KIND_PIN_SHAPES = [
    ("--q 4 --d 2", "q3d2"), ("--q 3 --d 0", "q3d2"), ("--q 3 --d -5", "q3d2"),
    ("--q 3 --d 2 --radius 1", "q3d2"), ("--q 10007 --d 2", "q3d2"), ("--q 101 --d 2", "q101d2"),
    ("--q 2 --d 1", "q2d1"), ("--q 13 --d 1", "q13d1"), ("--q 11 --d 1", "q11d1"),
    ("--q 5 --d 3", "q5d3"), ("--q 3 --d 2", "q3d2"), ("--q 2 --d 2", "q2d2"),
]
KIND_PIN_SETS = {"q3d2": "q=3 d=2\n1,2\n2,0\n1,1\n", "origin": "q=3 d=2\n0,0\n1,2\n",
                 "q101d2": "q=101 d=2\n1,2\n100,7\n5,5\n", "q2d1": "q=2 d=1\n1\n",
                 "q13d1": "q=13 d=1\n1\n5\n12\n", "q11d1": "q=11 d=1\n3\n4\n",
                 "q5d3": "q=5 d=3\n1,2,3\n0,0,1\n4,4,4\n", "q2d2": "q=2 d=2\n0,1\n1,1\n"}


@pytest.mark.filterwarnings("default::UserWarning")
class TestKindPins:
    """stdout, stderr and exit code of every command that takes its group
    kind's refusals, budgets and closed forms, over translations and
    SL(d, q): refusals in their order, closed-form audit refusals, and
    the origin in an SL set.  Sweep lines are read with a zero clock."""

    def runs(self, tmp_path, command):
        paths = {}
        for name, text in KIND_PIN_SETS.items():
            (tmp_path / name).write_text(text)
            paths[name] = str(tmp_path / name)
        runs = []
        for kind in ("translations", "special-linear"):
            for flags, name in KIND_PIN_SHAPES:
                group = ["--kind" if command == "enumerate-group" else "--group", kind, *flags.split()]
                if command == "enumerate-group" and not (kind == "special-linear" and flags == "--q 5 --d 3"):
                    runs.append((f"{kind} {flags}", ["enumerate-group", *group]))
                elif command == "verify-bound":
                    runs.append((f"{kind} {flags}", ["verify-bound", *group, "--set-e", paths[name],
                                                     "--set-h", paths[name], "--histogram"]))
                elif command == "audit":
                    runs.append((f"{kind} {flags}", ["verify-bound", *group, "--exhaustive-subsets"]))
            if command == "enumerate-group":
                runs.append((f"{kind} dump", ["enumerate-group", "--kind", kind, "--q", "2", "--d", "2", "--dump"]))
            if command == "verify-bound":
                for e, h in (("origin", "q3d2"), ("q3d2", "origin"), ("origin", "q5d3"), ("q5d3", "origin")):
                    runs.append((f"{kind} {e} {h}", ["verify-bound", "--group", kind, "--q", "3", "--d", "2",
                                                     "--set-e", paths[e], "--set-h", paths[h]]))
        for flags, name in KIND_PIN_SHAPES:
            if "--radius" in flags:
                continue
            d = int(flags.split()[-1])
            k = str(max(d, 1))
            if command == "find-det-similar":
                for source in (["--set", paths[name]], ["--random", "3"]):
                    runs.append((f"{flags} {source[0]}", ["find-det-similar", *flags.split(), "--r", "1",
                                                          "--k", k, *source]))
            elif command == "sweep":
                runs.append((flags, ["sweep", "--kind", "det-similarity", "--qs", flags.split()[1],
                                     "--d", str(d), "--ks", f"1,{k}", "--r", "1", "--trials", "2"]))
        if command == "find-det-similar":
            runs.append(("origin", ["find-det-similar", "--q", "3", "--d", "2", "--r", "1", "--k", "2",
                                    "--set", paths["origin"]]))
        return runs

    @pytest.mark.parametrize("command, digest", [
        ("enumerate-group",
         "7ff54972e32bc866e4324114d919e8529953fd318280c99619240251ecc95368"),
        ("verify-bound",
         "e531d0a8f7820ec66a2d45d78a2206e38af041fbd715c31c1c7c758c56e34c67"),
        ("audit",
         "d9a7bdd9a7042dfda350a4952d6f03eb69d6d24d234c1240354765c99676ad9e"),
        ("find-det-similar",
         "2fd64b8df51c1a9daee03d736b8b1b944b0f1fa7d1d13e807f43bfe50b75b8b5"),
        ("sweep",
         "8ccc37c5a61b89a957fcfbbd4e1ff3faa0d460c1e795077f763a5bd5725e231e"),
    ])
    def test_outputs_are_golden(self, capsys, tmp_path, monkeypatch, command, digest):
        monkeypatch.setattr(fqsim.harness, "time", types.SimpleNamespace(perf_counter=lambda: 0.0))
        assert o_pin_digest(capsys, self.runs(tmp_path, command)) == digest


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
        assert not path.exists()
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
            assert not path.exists()

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

    @pytest.mark.parametrize("flags, code", [
        (["--jobs", "0"], 3),
        (["--qs", "4"], 3),
        (["--qs", "4294967311"], 3),
        (["--ks", "-1"], 3),
        (["--d", "50"], 3),  # more than 2^64 points
        (["--trials", "200000000"], 4),  # past the grid budget
        (["--trials", "0"], 3),
        (["--size", "-3"], 3),
        (["--kind", "det-similarity", "--qs", "3", "--ks", "2", "--r", "1", "--d", "18024"], 4),
    ], ids=["jobs", "not-prime", "too-large", "negative-k", "space", "grid", "trials", "size",
            "threshold-digits"])
    def test_a_refused_sweep_leaves_out_as_it_was(self, capsys, tmp_path, flags, code):
        """Every refusal is made before --out is opened: the file keeps its
        bytes, and stdout, stderr and the exit code are those of the same
        sweep written to stdout."""
        sweep = ["sweep", "--qs", "3,5", "--d", "2", "--ks", "1", *flags]
        path = tmp_path / "sweep.jsonl"
        path.write_bytes(b"12345678")
        assert main([*sweep, "--out", str(path)]) == code
        into_file = capsys.readouterr()
        assert path.read_bytes() == b"12345678"
        assert main(sweep) == code
        assert capsys.readouterr() == into_file
        assert "error" in first_json(into_file.out)

    def test_sweep_negative_size_is_input_error(self, capsys, tmp_path):
        sweep = ["sweep", "--qs", "5", "--d", "2", "--ks", "1", "--size", "-3"]
        path = tmp_path / "sweep.jsonl"
        code, out = run_cli(capsys, *sweep, "--out", str(path))
        assert code == 3
        assert first_json(out) == {"error": "ValueError",
                                   "message": "set size must be nonnegative, got -3"}
        assert not path.exists()

    def test_over_budget_det_witness_is_refused(self, capsys, tmp_path, monkeypatch):
        # d = k = 11 over F_3: 3*C(12, 11) + 1 determinants of 11x11
        # matrices, 12!/1 cofactor terms counted, far past the budget
        import fqsim.configurations

        def no_determinant(points, d, q):
            raise AssertionError("a determinant was computed")

        # every determinant of the verifier, det g's too, goes through it
        monkeypatch.setattr(fqsim.configurations, "_subset_dets", no_determinant)
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
        punctured = Space.punctured(5, 2)
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
        punctured = Space.punctured(5, 2)
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


class TestInputDigests:
    """A digest is the SHA-256 of the bytes that were parsed: each input
    file is rewritten after it is parsed, from a call the command makes
    later, and the digests still name its first bytes."""

    @pytest.mark.parametrize("later, argv, key, names", [
        ("_recount", ["verify-bound", "--group", "translations", "--q", "5", "--d", "2",
                      "--set-e", "a", "--set-h", "b"], "input_digests", {"set_e": "a", "set_h": "b"}),
        ("parse_pointset", ["find-similar", "--q", "5", "--d", "2", "--r", "4", "--k", "2",
                             "--set", "a"], "input_digests", {"set": "a"}),
        ("verify_similarity", ["verify-witness", "w"], "input_digest", "w"),
    ])
    def test_a_file_rewritten_after_it_is_parsed(self, capsys, tmp_path, monkeypatch, later, argv, key, names):
        paths = {"a": tmp_path / "a", "b": tmp_path / "b", "w": tmp_path / "w"}
        paths["a"].write_text(format_pointset(random_pointset(5, 2, 9, seed=1)))
        paths["b"].write_text(format_pointset(random_pointset(5, 2, 11, seed=2)))
        paths["w"].write_text(run_cli(capsys, "find-similar", "--q", "5", "--d", "2", "--r", "4",
                                      "--k", "2", "--random", "9", "--seed", "3")[1])
        first = {name: hashlib.sha256(path.read_bytes()).hexdigest() for name, path in paths.items()}
        call = getattr(fqsim.cli, later)

        def rewrite_then_call(*args):
            for path in paths.values():
                path.write_bytes(path.read_bytes() + b"# rewritten\n")
            return call(*args)

        monkeypatch.setattr(fqsim.cli, later, rewrite_then_call)
        code, out = run_cli(capsys, *(str(paths[arg]) if arg in paths else arg for arg in argv))
        expected = first[names] if key == "input_digest" else {k: first[v] for k, v in names.items()}
        assert code == 0 and first_json(out)[key] == expected
        assert all(first[name] != file_digest(path) for name, path in paths.items())


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

    @pytest.mark.parametrize("text, error, message", [
        (None, "ValueError", "provide --set FILE or --random N"),
        ("", "ParseError", "line 0: missing header line 'q=<int> d=<int>'"),
        ("# only a comment\n\n  # and another\n", "ParseError", "line 0: missing header line 'q=<int> d=<int>'"),
        ("q=5 d=0\n", "ParseError", "line 1: dimension must be positive, got 0"),
    ], ids=["no-points", "empty-file", "comments-only", "dimension-zero"])
    def test_a_search_without_points_is_input_error(self, capsys, tmp_path, text, error, message):
        argv = ["find-similar", "--q", "5", "--d", "2", "--r", "1", "--k", "1"]
        if text is not None:
            (tmp_path / "points.txt").write_text(text)
            argv += ["--set", str(tmp_path / "points.txt")]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 3
        assert first_json(captured.out) == {"error": error, "message": message}
        assert "Traceback" not in captured.err

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

    def test_witness_nested_past_the_recursion_limit_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 200_000)
        code = main(["verify-witness", str(path)])
        captured = capsys.readouterr()
        assert code == 3
        assert first_json(captured.out)["error"] == "MalformedWitness"  # one object, all of stdout
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
    def test_no_command_crashes(self, tmp_path):
        """Each command answers with its documented code in 1.5 GB: the
        samples, edge sets and grids past the budget are refused before
        they are built, a det cell on a line of 10^8 points lists none,
        explicit SL(2, 97) and SL(3, 7) sets are scanned with no group,
        explicit sets over F_9973^2, and SL(1, 99999989) sets, are checked
        without listing the space, SL(1, q), q > 2, and O(d, q) on F_q^d are refused as
        not transitive before their space is listed, and a sphere on a line
        of 10^8 points is listed from the square roots of its radius."""
        resource = pytest.importorskip("resource")
        if not hasattr(resource, "RLIMIT_AS"):
            pytest.skip("no address-space limit on this platform")
        sets = {97: write_set(tmp_path / "sl97.txt", random_pointset(97, 2, 3, seed=1)),
                7: write_set(tmp_path / "sl7.txt", random_pointset(7, 3, 3, seed=1)),
                9973: write_set(tmp_path / "t9973.txt", random_pointset(9973, 2, 3, seed=1)),
                99999989: write_set(tmp_path / "sl99999989.txt", random_pointset(99999989, 1, 3, seed=1))}
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
            (["verify-bound", "--group", "special-linear", "--q", "7", "--d", "3",
              "--exhaustive-subsets"], 4),
            (["verify-bound", "--group", "special-linear", "--q", "97", "--d", "2",
              "--set-e", sets[97], "--set-h", sets[97]], 0),
            (["verify-bound", "--group", "special-linear", "--q", "7", "--d", "3",
              "--set-e", sets[7], "--set-h", sets[7]], 0),
            (["verify-bound", "--group", "special-linear", "--q", "99999989", "--d", "1",
              "--exhaustive-subsets"], 3),
            (["verify-bound", "--group", "translations", "--q", "9973", "--d", "2",
              "--set-e", sets[9973], "--set-h", sets[9973]], 0),
            (["verify-bound", "--group", "orthogonal", "--q", "99999989", "--d", "1",
              "--exhaustive-subsets"], 3),
            (["enumerate-group", "--kind", "orthogonal", "--q", "99999989", "--d", "1",
              "--radius", "1"], 0),
            (["verify-bound", "--group", "special-linear", "--q", "99999989", "--d", "1",
              "--set-e", sets[99999989], "--set-h", sets[99999989]], 0),
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



def one_shift_off(report):
    """The translation report with best_g moved to the next shift in
    canonical order, every other field kept."""
    group = translations(report.best_g.field.q, len(report.best_g.shift))
    report.best_g = group.elements[(group.elements.index(report.best_g) + 1) % group.order]
    return report


def miscounting(group, report, moving, fixed):
    """The group report with best_g moved to the canonically first element
    that counts other than best_count."""
    report.best_g = next(g for g in group if fqsim.intersect_count(g, moving, fixed) != report.best_count)
    return report


class TestReportRecount:
    """`verify-bound` and `sphere-experiment` count the reported maximizer
    again with `intersect_count` before they write their JSON, and exit 2
    naming the reason when it does not reach best_count."""

    @pytest.mark.parametrize("q, d", [(5, 2), (17, 2), (2, 8), (31, 1)])
    def test_translation_report_one_shift_off_exits_2(self, capsys, tmp_path, monkeypatch, q, d):
        # rows of the shift table (F_5^2), bit planes past the byte bound and on a line
        e = random_pointset(q, d, 12, seed=q + d)
        pe = write_set(tmp_path / "e.txt", e)
        argv = ["verify-bound", "--group", "translations", "--q", str(q), "--d", str(d),
                "--set-e", pe, "--set-h", pe]
        assert main(argv) == 0
        capsys.readouterr()
        scan = fqsim.cli._shift_overlap

        def mutant(*args):
            report, pairs = scan(*args)
            return one_shift_off(report), pairs

        monkeypatch.setattr(fqsim.cli, "_shift_overlap", mutant)
        code, out = run_cli(capsys, *argv)
        count = fqsim.intersect_count(translations(q, d).elements[1], e, e)  # E = H: shift 0 is best
        reason = (f"best_g sends {count} points of the moving set into the fixed set, "
                  "the report's best_count is 12")
        assert code == 2 and count < 12
        assert first_json(out) == {"error": "VerificationFailed", "reasons": [reason],
                                   "message": f"witness verification failed: {reason}"}

    def test_group_report_one_element_off_exits_2(self, capsys, tmp_path, monkeypatch):
        # SL(d, q) through the finders' coset scan, orthogonal groups through the image table
        points = PointSet(make_field(5), 2, [p for p in random_pointset(5, 2, 9, seed=4) if any(p.coords)])
        pe = write_set(tmp_path / "e.txt", points)
        scan = fqsim.cli._coset_overlap

        def coset_mutant(e, s, h, histogram):
            report, pairs = scan(e, s, h, histogram)
            return miscounting(special_linear_group(5, 2), report, e, h), pairs

        for kind, name, mutant in [
            ("special-linear", "_coset_overlap", coset_mutant),
            ("orthogonal", "max_intersection",
             lambda g, e, h, **kw: miscounting(g, max_intersection(g, e, h, **kw), e, h)),
        ]:
            argv = ["verify-bound", "--group", kind, "--q", "5", "--d", "2",
                    "--set-e", pe, "--set-h", pe, "--histogram"]
            assert main(argv) == 0
            capsys.readouterr()
            with monkeypatch.context() as patch:
                patch.setattr(fqsim.cli, name, mutant)
                code, out = run_cli(capsys, *argv)
            assert code == 2 and first_json(out)["error"] == "VerificationFailed", kind

    def test_sphere_report_one_element_off_exits_2(self, capsys, tmp_path, monkeypatch):
        # On the whole sphere every element counts |sphere|: only given sets can show it.
        surface = sphere(7, 2, 1)
        pe = write_set(tmp_path / "e.txt", PointSet(make_field(7), 2, surface.points[:5]))
        ph = write_set(tmp_path / "h.txt", PointSet(make_field(7), 2, surface.points[2:]))
        argv = ["sphere-experiment", "--q", "7", "--d", "2", "--radius", "1", "--k", "1"]
        for sets in ([], ["--set-e", pe, "--set-h", ph]):
            assert main(argv + sets) == 0
        capsys.readouterr()
        monkeypatch.setattr(fqsim.cli, "max_intersection",
                            lambda g, e, h, **kw: miscounting(g, max_intersection(g, e, h, **kw), e, h))
        code, out = run_cli(capsys, *argv, "--set-e", pe, "--set-h", ph)
        assert code == 2 and first_json(out)["error"] == "VerificationFailed"

    @pytest.mark.parametrize("kind, q, d", [
        ("translations", 5, 2), ("translations", 17, 2), ("translations", 31, 1),
        ("special-linear", 5, 2), ("special-linear", 17, 2), ("orthogonal", 7, 2),
    ])
    def test_recount_runs_no_kernel_frame(self, kind, q, d):
        """As `TestVerifierIndependence` for the witness verifiers: of
        `intersection.py` only `intersect_count` runs, and no scan, image
        table or count kernel, whichever kernel made the report."""
        from test_configurations import frames_run

        points = PointSet(make_field(q), d, [p for p in random_pointset(q, d, 20, seed=q) if any(p.coords)])
        other = PointSet(make_field(q), d, [p for p in random_pointset(q, d, 20, seed=d) if any(p.coords)])
        if kind == "translations":
            report = fqsim.max_translation_intersection_fast(points, other)
        elif kind == "special-linear":
            report = fqsim.intersection._coset_overlap(points, 1, other)[0]
        else:
            report = max_intersection(fqsim.orthogonal_group(q, d), points, other)
        _, codes = frames_run(lambda: fqsim.cli._recount(report, points, other))
        names = {(c.co_filename.rsplit(os.sep, 1)[-1], c.co_qualname) for c in codes}
        assert ("intersection.py", "intersect_count") in names
        kernels = {"_group_counts", "FiniteGroup.columns", "_translation_counts", "_row_counts",
                   "_coset_counts", "_transporter_counts"}
        assert [n for f, n in names if n.split(".<locals>")[0] in kernels] == []
        assert {n for f, n in names if f == "intersection.py"} <= {
            "intersect_count", "intersect_count.<locals>.<genexpr>", "_check_compatible"}
