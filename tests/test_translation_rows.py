"""Translation scans below the byte bound: the shift table against the
image table and the pair oracle, and golden pins of the finder's
witnesses and of the translation reports, on both sides of q^d = 256."""

import hashlib
import warnings
from math import isqrt

import pytest

import fqsim.intersection
from fqsim import (
    FqsimError,
    PointSet,
    Space,
    Vector,
    canonical_json,
    find_det_similar,
    find_similar_config,
    make_field,
    max_intersection,
    max_translation_intersection_fast,
    random_pointset,
    random_subset,
    similarity_threshold,
    translations,
)
from fqsim.intersection import _space_table

from helpers import (
    assert_same_report,
    flat_index,
    naive_translation_counts,
    oracle_translation_report,
    scaled_by_vectors,
)

# (q, d) below the byte bound, then just past it.
BELOW = [(2, d) for d in range(2, 8)] + [(3, d) for d in range(2, 6)] + [
    (5, 2), (5, 3), (7, 2), (11, 2), (13, 2)]
PAST = [(2, 8), (17, 2)]


def pinned_sets(q, d, k):
    """Named point sets of F_q^d for k: two threshold-size draws, k + 1
    points, the whole space (every shift ties), one point and no point."""
    full = Space.full(q, d)
    seed = 1000 * q + 10 * d + k
    n = min(similarity_threshold(q, d, k), len(full))
    return [("threshold", random_subset(full, n, seed)),
            ("threshold-2", random_subset(full, n, seed + 4)),
            ("k+1", random_subset(full, k + 1, seed + 1)),
            ("whole", full),
            ("one", random_subset(full, 1, seed + 2)),
            ("empty", random_subset(full, 0, seed + 3))]


def squares(q):
    """Up to three nonzero squares of F_q, the smallest first."""
    return sorted({v * v % q for v in range(1, q)})[:3]


def shape_lines(q, d):
    """The canonical JSON lines of every pinned call on F_q^d: the
    finder's witness and its report, or its refusal, for each square
    ratio, k in (1, 2, 3) and set; then the translation reports, histogram
    off and on, of pairs of those sets, H = (q // 2)·E among them."""
    field = make_field(q)
    finder, reports = [], []
    for k in (1, 2, 3):
        sets = dict(pinned_sets(q, d, k))
        for name, points in sets.items():
            for r in squares(q):
                try:
                    w = find_similar_config(points, field(r), k)
                    out = {"witness": w.to_json(), "report": w.report.to_json()}
                except FqsimError as exc:
                    out = {"error": type(exc).__name__, "message": str(exc)}
                finder.append(canonical_json({"set": name, "r": r, "k": k, **out}))
        other = random_subset(Space.full(q, d), len(sets["threshold"]), 7 * q + d + k)
        pairs = [("threshold", sets["threshold"], other),
                 ("scaled", sets["threshold"], scaled_by_vectors(sets["threshold"], field(q // 2 or 1))),
                 ("k+1", sets["k+1"], sets["threshold"]),
                 ("whole", sets["whole"], sets["whole"]),
                 ("one-one", sets["one"], random_subset(Space.full(q, d), 1, q + d + k)),
                 ("one-whole", sets["one"], sets["whole"]),
                 ("threshold-one", sets["threshold"], sets["one"]),
                 ("empty-threshold", sets["empty"], sets["threshold"]),
                 ("threshold-empty", sets["threshold"], sets["empty"])]
        for name, e, h in pairs:
            for hist in (False, True):
                rep = max_translation_intersection_fast(e, h, want_histogram=hist)
                reports.append(canonical_json({"pair": name, "k": k, "report": rep.to_json()}))
    return finder, reports


@pytest.fixture(scope="module")
def translation_pins():
    """sha256 of the pinned lines, per side of the byte bound and kind."""
    digests = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # empty sets warn
        for side, shapes in (("below", BELOW), ("past", PAST)):
            finder, reports = hashlib.sha256(), hashlib.sha256()
            for q, d in shapes:
                lines = shape_lines(q, d)
                for digest, part in zip((finder, reports), lines):
                    digest.update("".join(line + "\n" for line in part).encode())
            digests[side, "finder"] = finder.hexdigest()
            digests[side, "reports"] = reports.hexdigest()
    return digests


class TestTranslationPins:
    """Recorded before the translation scans below q^d = 256 read byte
    rows of the shift table instead of bit planes."""

    @pytest.mark.parametrize("side, kind, expected", [
        ("below", "finder",
         "391d33c1119f4342d1fa07a5de859bff7d0cf7749e12948f7ca2bf18084c8d58"),
        ("below", "reports",
         "9a398c3624b1d1b9412129aa30bba19a4296bef9518c4b918f44027126b2f5d9"),
        ("past", "finder",
         "cf23fb6137c259237cf9045fde7cfa9443d1a1398aae950c2d455f97ea8b0305"),
        ("past", "reports",
         "0a63e5bc724846e5202d664f83df967c0257dd067640a890eac875e99901c696"),
    ])
    def test_pinned(self, translation_pins, side, kind, expected):
        assert translation_pins[side, kind] == expected


def kernels_run(monkeypatch, call, names=("_row_counts", "_translation_counts")):
    """`call()` and the names of the kernels it ran, of those named: by
    default the translation kernels, the rows of the shift table
    (`_row_counts`) or `_translation_counts`."""
    ran = []
    for name in names:
        def spy(*args, kernel=getattr(fqsim.intersection, name), name=name):
            ran.append(name)
            return kernel(*args)
        monkeypatch.setattr(fqsim.intersection, name, spy)
    return call(), ran


class TestShiftTable:
    """`_space_table(q, d)`: its rows are the translations' image table and
    its scale tables the dilations x -> s·x; reports off the rows match the pair
    oracle on both sides of the byte bound."""

    @pytest.mark.parametrize("q, d", BELOW + [(2, 8)])
    def test_rows_are_the_image_table(self, q, d):
        vectors, digits, scales, rows = _space_table(q, d)
        assert list(rows) == list(translations(q, d).columns())
        assert vectors == Space.full(q, d)._coords
        assert digits == tuple(bytes(x[j] for x in vectors) for j in range(d))

    @pytest.mark.parametrize("q, d", BELOW)
    def test_scales_are_the_dilations(self, q, d):
        field = make_field(q)
        vectors, _, scales, _ = _space_table(q, d)
        assert len(scales) == q and all(len(scale) == 256 for scale in scales)
        points = random_subset(Space.full(q, d), q ** d // 3 + 1, q + d)
        codes = bytes(flat_index(x, q) for x in points._coords)
        for e, scale in enumerate(scales):
            assert scale[:q ** d] == bytes(flat_index((field(e) * Vector(field, x)).coords, q) for x in vectors)
            assert sorted(vectors[i] for i in set(codes.translate(scale))) == list(
                scaled_by_vectors(points, field(e))._coords)

    @pytest.mark.parametrize("rows_shape, planes_shape", [((2, 7), (2, 8)), ((3, 5), (17, 2))])
    def test_both_sides_of_the_bound_match_the_pair_oracle(self, monkeypatch, rows_shape, planes_shape):
        for (q, d), kernel in ((rows_shape, "_row_counts"), (planes_shape, "_translation_counts")):
            n = q ** d
            full = Space.full(q, d)
            pairs = [(random_pointset(q, d, n_e, seed=n_e), random_pointset(q, d, n_h, seed=n_h + 1))
                     for n_e, n_h in ((1, n // 2), (n // 3, n // 2), (n // 2, 1))]
            for e, h in pairs + [(full, full)]:
                for hist in (False, True):
                    rep, ran = kernels_run(monkeypatch, lambda: max_translation_intersection_fast(
                        e, h, want_histogram=hist))
                    monkeypatch.undo()
                    assert ran == [kernel], (q, d)
                    assert_same_report(rep, oracle_translation_report(e, h, hist))

    @pytest.mark.parametrize("q, kernel", [(2, "_row_counts"), (3, "_row_counts"), (13, "_row_counts"),
                                           (251, "_row_counts"), (257, "_translation_counts")])
    def test_a_line_counts_on_the_rows_below_the_bound(self, monkeypatch, q, kernel):
        e, h = random_pointset(q, 1, q // 2 or 1, seed=1), random_pointset(q, 1, q // 2 or 1, seed=2)
        rep, ran = kernels_run(monkeypatch, lambda: max_translation_intersection_fast(e, h, want_histogram=True))
        assert ran == [kernel]
        monkeypatch.undo()
        assert_same_report(rep, oracle_translation_report(e, h, True))

    @pytest.mark.parametrize("q", [2, 3, 13, 251])
    def test_line_counts_match_the_pair_oracle(self, monkeypatch, q):
        """On a line, every per-shift byte that the rows count is the pair
        oracle's count, and every report `max_intersection`'s over the
        translations, for E and H each empty, one point, the first half,
        the whole line or one of three seeded draws."""
        full, group = Space.full(q, 1), translations(q, 1)
        half = PointSet._canonical(full.field, 1, full._coords[:q // 2 or 1])
        sets = [random_subset(full, 0, q), random_subset(full, 1, q), half, full] + [
            random_subset(full, n, q + n) for n in (q // 4 + 1, q // 2, 3 * q // 4)]
        counted, kernel = [], fqsim.intersection._row_counts
        monkeypatch.setattr(fqsim.intersection, "_row_counts",
                            lambda *args: counted.append(kernel(*args)) or counted[-1])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # empty sets warn
            for e in sets:
                for h in sets:
                    expected = naive_translation_counts(e, h)
                    for hist in (False, True):
                        counted.clear()
                        rep = max_translation_intersection_fast(e, h, want_histogram=hist)
                        assert [list(c) for c in counted] == [[expected[a,] for a in range(q)]]
                        assert_same_report(rep, max_intersection(group, e, h, want_histogram=hist))

    @pytest.mark.parametrize("finder, q, d, kernel", [
        (find_similar_config, 13, 2, "_row_counts"), (find_similar_config, 3, 5, "_row_counts"),
        (find_similar_config, 17, 2, "_translation_counts"), (find_similar_config, 31, 1, "_row_counts"),
        (find_det_similar, 7, 2, "_coset_counts"), (find_det_similar, 17, 2, "_transporter_counts"),
        (find_det_similar, 7, 1, "_transporter_counts"),
        (find_similar_config, 3, 1, "_row_counts"), (find_similar_config, 13, 1, "_row_counts"),
        (find_similar_config, 251, 1, "_row_counts"), (find_similar_config, 257, 1, "_translation_counts"),
    ], ids=["T(13,2)", "T(3,5)", "T(17,2)", "T(31,1)", "SL(2,7)", "SL(2,17)", "SL(1,7)",
            "T(3,1)", "T(13,1)", "T(251,1)", "T(257,1)"])
    def test_no_finder_dilates_a_point_set(self, monkeypatch, finder, q, d, kernel):
        """On both sides of the byte bound, lines included, either finder
        scans H = 4·E as codes or tuples of E's and builds no point set;
        translations count on the rows up to 255 points, on a line as in
        higher dimensions."""
        field = make_field(q)
        if finder is find_similar_config:
            points, names = random_subset(Space.full(q, d), similarity_threshold(q, d, 2), q * d), None
        else:
            space = Space.punctured(q, d)
            points = random_subset(space, min(len(space), isqrt(3 * len(space) - 1) + 1), q * d)
            names = ("_coset_counts", "_transporter_counts")
        expected = finder(points, field(4), 2).to_json()
        calls, init, canonical = [], PointSet.__init__, PointSet._canonical.__func__
        monkeypatch.setattr(PointSet, "__init__", lambda *args: calls.append(args) or init(*args))
        monkeypatch.setattr(PointSet, "_canonical",
                            classmethod(lambda *args: calls.append(args) or canonical(*args)))
        witness, ran = kernels_run(monkeypatch, lambda: finder(points, field(4), 2), *[names] * bool(names))
        assert witness.to_json() == expected and witness.verified
        assert (len(calls), ran) == (0, [kernel])
