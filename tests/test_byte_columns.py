"""The scans' coordinate columns on both sides of q = 256, and the scans
that read them just past q^d = 256, against per-point arithmetic and the
enumerated groups."""

import functools

import pytest

from fqsim import (
    Matrix,
    Space,
    SpecialLinear,
    Translation,
    Vector,
    find_det_similar,
    find_similar_config,
    make_field,
    max_intersection,
    random_pointset,
    random_subset,
    special_linear_group,
    translations,
)
from fqsim.groups import GroupElement
from fqsim.intersection import _codes, _columns, _coset_overlap, _shift_overlap

from helpers import assert_same_report, scaled_by_vectors


def naive_images(points, s=1, g=None):
    """s·x, or g·x = Mx + a, for every point x, one coordinate at a time."""
    q = points.field.q
    if g is None:
        return [[s * c % q for c in x] for x in points._coords]
    return [[(sum(m * c for m, c in zip(row, x)) + a) % q for row, a in zip(g.linear, g.shift)]
            for x in points._coords]


def elements(field, d):
    """Translations, and SL(d, q) maps, with and without a shift, whose
    rows hold one nonzero entry or several, for d = 1 to 3."""
    q = field.q
    out = [Translation(Vector(field, [(3 * i + 1) % q for i in range(d)])),
           Translation(Vector(field, [q - 1] * d))]
    if d == 1:
        return out
    m = q - 1  # -1
    if d == 2:
        rows = [[[0, 1], [m, 0]],                  # one entry per row
                [[2 % q or 1, 0], [0, pow(2, -1, q) if q > 2 else 1]],
                [[1, 1], [0, 1]],                  # row 0 has two
                [[1, 1], [1, 2 % q]]]              # every row has two
    else:
        rows = [[[0, 1, 0], [0, 0, 1], [1, 0, 0]],
                [[1, 1, 0], [0, 1, 0], [0, 0, 1]],
                [[1, 1, 1], [0, 1, 1], [1 % q, 1, 2 % q]]]
    for r in rows:
        g = SpecialLinear(Matrix(field, r))
        out.append(g)
        out.append(GroupElement._of(field, g.linear, tuple((5 * i + 2) % q for i in range(d))))
    return out


@pytest.mark.parametrize("q", [2, 3, 101, 251, 257])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_columns_and_codes_are_the_per_point_arithmetic(q, d):
    field = make_field(q)
    points = random_pointset(field, d, min(40, q ** d), seed=q + d)
    base = 2 * q
    cases = [(s, None) for s in sorted({0, 1, 2 % q, q - 1})] + [(1, g) for g in elements(field, d)]
    for s, g in cases:
        images = naive_images(points, s, g)
        columns = [list(c) for c in _columns(points, s, g)]
        assert columns == [list(c) for c in zip(*images)], (s, g)
        for offset in (0, q * sum(base ** i for i in range(d))):
            assert _codes(points, base, offset, s, g) == [
                functools.reduce(lambda n, c: n * base + c, x, 0) + offset for x in images], (s, g, offset)
    empty = random_pointset(field, d, 0, seed=1)
    assert _codes(empty, base, 0, 2 % q) == [] and _codes(empty, base, 0, 1, elements(field, d)[-1]) == []


def translation_oracle_pairs(points, fixed, s, shift):
    """H ∩ (E + a) as (z, x) pairs, H = s·fixed, in z order."""
    q = points.field.q
    held = {tuple(s * c % q for c in y) for y in fixed._coords}
    return sorted((z, x) for x in points._coords
                  if (z := tuple((c + a) % q for c, a in zip(x, shift))) in held)


@functools.lru_cache(maxsize=None)
def group(kind, q, d):
    return translations(q, d) if kind == "T" else special_linear_group(q, d)


@pytest.mark.parametrize("q, d, sizes", [(17, 2, [(1, 1), (30, 30), (120, 90), (289, 289)]),
                                         (2, 9, [(1, 1), (40, 40), (200, 300), (512, 512)])])
def test_shift_scan_just_past_the_byte_bound(q, d, sizes):
    field = make_field(q)
    for seed, (n_e, n_h) in enumerate(sizes):
        e = random_pointset(field, d, n_e, seed=seed)
        fixed = random_pointset(field, d, n_h, seed=seed + 50)
        for s in sorted({1, 3 % q, q - 1}):
            report, overlap = _shift_overlap(e, s, fixed, True)
            oracle = max_intersection(group("T", q, d), e, scaled_by_vectors(fixed, field(s)), want_histogram=True)
            assert_same_report(report, oracle)
            assert list(overlap()) == translation_oracle_pairs(e, fixed, s, report.best_g.shift)


@pytest.mark.parametrize("q, d, n, k", [(17, 2, 60, 3), (17, 2, 289, 5), (257, 1, 60, 3)])
def test_similarity_finder_just_past_the_byte_bound(q, d, n, k):
    """F_2^9 has no square roots to take; q = 257 holds its columns as lists."""
    field = make_field(q)
    points = random_pointset(field, d, n, seed=n)
    for r in sorted({1, 4 % q or 1, 16 % q or 1}):
        w = find_similar_config(points, field(r), k)
        oracle = max_intersection(group("T", q, d), points, scaled_by_vectors(points, w.root))
        assert w.verified
        assert_same_report(w.report, oracle)


def test_coset_scan_and_det_finder_just_past_the_byte_bound():
    q, d = 17, 2
    field, space = make_field(q), Space.punctured(q, d)
    for seed, (n_e, n_h) in enumerate([(1, 1), (25, 25), (60, 40), (288, 288)]):
        e, fixed = random_subset(space, n_e, seed), random_subset(space, n_h, seed + 50)
        for s in (1, 3, q - 1):
            report, overlap = _coset_overlap(e, s, fixed, True)
            h = scaled_by_vectors(fixed, field(s))
            assert_same_report(report, max_intersection(group("SL", q, d), e, h, want_histogram=True))
            g = report.best_g
            assert list(overlap()) == sorted((g.apply(x).coords, x.coords) for x in e if g.apply(x) in h)
    points = random_subset(space, 70, 7)
    for r in (1, 2, 16):
        w = find_det_similar(points, field(r), 3)
        assert w.verified
        assert_same_report(w.report, max_intersection(group("SL", q, d), points,
                                                      scaled_by_vectors(points, w.root)))


@pytest.mark.parametrize("q", [2, 3, 101, 251, 257])
def test_columns_are_bytes_while_every_coordinate_fits_one(q):
    """Own columns, s·x and single-term rows are bytes up to q = 256;
    past it a mapped column is a list.  Multi-term rows are lists."""
    field = make_field(q)
    points = random_pointset(field, 3, min(30, q ** 3), seed=q)
    single = [Translation(Vector(field, [1, 0, q - 1])), SpecialLinear(Matrix(field, [[0, 1, 0], [0, 0, 1], [1, 0, 0]]))]
    mapped = [c for s in (2 % q, q - 1) for c in _columns(points, s)] + [
        c for g in single for c in _columns(points, 1, g)]
    if q <= 256:
        assert all(type(c) is bytes for c in [*_columns(points), *mapped])
    else:
        assert all(type(c) is list for c in mapped)
    multi = SpecialLinear(Matrix(field, [[1, 1, 0], [0, 1, 0], [0, 0, 1]]))
    assert type(_columns(points, 1, multi)[0]) is list


def test_a_shift_scan_past_the_byte_bound_takes_the_columns_of_e_once(monkeypatch):
    """E's coordinate columns are read off its points once per scan, for
    H = s·E, E's codes and g·E's codes."""
    import fqsim.intersection

    taken, columns = [], fqsim.intersection._columns

    def counted(points, s=1, g=None, given=None):
        taken.append(given is None)
        return columns(points, s, g, given)
    monkeypatch.setattr(fqsim.intersection, "_columns", counted)
    field = make_field(101)
    for n in (450, 40):  # the bit planes, then the difference codes
        taken.clear()
        points = random_pointset(field, 2, n, seed=n)
        list(_shift_overlap(points, 9, points)[1]())
        assert taken.count(True) == 1 and len(taken) == 4
