"""Point sets drawn below the byte bound are held as their flat indices:
each equals its tuple-built twin under every operation, the scans and
the oracle read either form alike, a draw from a whole full or punctured
space is the draw read off its tuples, and a sweep cell decodes none of
its drawn points."""

import itertools
import random
import warnings

import pytest

import fqsim.geometry
from fqsim.geometry import index_to_coords
from fqsim import (FiniteGroup, Matrix, OriginInSet, PointSet, Space, SpaceMismatch, SpecialLinear, SplitMix64,
                   SweepConfig, Vector, find_det_similar, make_field, max_intersection, random_subset, run_cell,
                   special_linear_group, translations)
from fqsim.harness import _det_draw
from fqsim.intersection import _coset_overlap, _shift_overlap

from helpers import flat_index

# The oracle grids' shapes with q^d <= 256: lines up to 251 points, the
# planes T(q, 2) for q <= 13, and the punctured spaces of the det pins,
# SL(1, q) included.
LINES = [(2, 1), (3, 1), (13, 1), (251, 1)]
PLANES = [(q, 2) for q in (2, 3, 5, 7, 11, 13)]
SL_SHAPES = [(2, 2), (3, 2), (5, 2), (7, 2), (13, 2), (2, 3), (3, 3), (5, 3), (2, 4), (5, 1), (31, 1)]
SHAPES = sorted(set(LINES + PLANES + SL_SHAPES))


def twins(q, d, seed, punctured=False):
    """(flat-built, tuple-built) pairs of the same points of F_q^d: none,
    the first, five seeded, a seeded quarter, a seeded half and every
    point, of the punctured space if `punctured`."""
    every = list(range(int(punctured), q ** d))
    rng = random.Random(seed)
    for size in (0, 1, 5, len(every) // 4, len(every) // 2, len(every)):
        yield forms(q, d, every[:1] if size == 1 else sorted(rng.sample(every, min(size, len(every)))))


def forms(q, d, picks):
    """The points at these ascending flat indices of F_q^d, flat-built and
    tuple-built."""
    field = make_field(q)
    return (PointSet._at_flat(field, d, picks),
            PointSet._canonical(field, d, [index_to_coords(i, q, d) for i in picks]))


@pytest.mark.parametrize("q, d", SHAPES)
def test_a_flat_set_is_its_tuple_twin(q, d):
    """`==` both ways, `hash`, `len`, `repr`, `in` and `index` over the
    whole space, iteration and `points` agree; `len` and `repr` read the
    bytes without decoding them."""
    space = Space.full(q, d)
    for flat, tuples in twins(q, d, 10 * q + d):
        assert flat._flat is not None and tuples._flat is None
        assert len(flat) == len(tuples) and repr(flat) == repr(tuples)
        assert flat._tuples is None  # nothing decoded yet
        assert flat == tuples and tuples == flat and hash(flat) == hash(tuples)
        assert flat._coords == tuples._coords
        assert list(flat) == list(tuples) and flat.points == tuples.points
        for v in space:
            assert (v in flat) == (v in tuples)
            if v in tuples:
                assert flat.index(v) == tuples.index(v) == list(tuples).index(v)
        other = PointSet(make_field(3 if q != 3 else 5), d)
        assert flat != other and not flat == 0


def test_past_the_byte_bound_a_flat_draw_is_decoded_at_once():
    field = make_field(17)
    points = PointSet._at_flat(field, 2, [0, 18, 288])
    assert points._flat is None and points._coords == ((0, 0), (1, 1), (16, 16))


def overlaps(scan, e, h, s, k):
    """The report JSON, with and without a histogram, and the first k + 1
    pairs of the scan of E against s·H."""
    out = []
    for hist in (False, True):
        report, pairs = scan(e, s, h, hist)
        out.append((report.to_json(), list(itertools.islice(pairs(), k + 1))))
    return out


@pytest.mark.parametrize("q, d", SHAPES)
def test_the_scans_read_either_form_alike(q, d):
    """`_shift_overlap` on F_q^d (q^d <= 255) and `_coset_overlap` on the
    punctured space give the same reports and the same first k + 1 pairs
    for a flat-built E as for its tuple-built twin, with H given as E and
    as another set in either form.  Where q^(d^2) passes 10^5, for
    SL(3, 5), the sets are those of at most five points."""
    scans = [(_coset_overlap, True)] if (q, d) in SL_SHAPES else []
    if q ** d <= 255:
        scans.append((_shift_overlap, False))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # empty sets warn
        for scan, punctured in scans:
            sets = list(twins(q, d, q + d, punctured))
            if punctured and q ** (d * d) > 10 ** 5:
                sets = sets[:3]
            for (e_flat, e_tuples), (h_flat, h_tuples) in zip(sets, sets[1:] + sets[:1]):
                for s in sorted({1, 2 % q or 1, q - 1}):
                    expected = overlaps(scan, e_tuples, e_tuples, s, 3)
                    for e, h in ((e_flat, e_flat), (e_flat, e_tuples), (e_tuples, e_flat)):
                        assert overlaps(scan, e, h, s, 3) == expected
                    expected = overlaps(scan, e_tuples, h_tuples, s, 3)
                    for e, h in ((e_flat, h_flat), (e_flat, h_tuples), (e_tuples, h_flat)):
                        assert overlaps(scan, e, h, s, 3) == expected


@pytest.mark.parametrize("q, d", [(5, 1), (5, 2), (3, 3)])
def test_the_det_finder_refuses_the_origin_in_either_form(q, d):
    """The origin test reads a flat set's first byte and a tuple set's
    first tuple: the upper half of F_q^d is searched, and refused with the
    origin added."""
    upper = list(range(q ** d // 2, q ** d))
    for points in forms(q, d, [0, *upper]):
        with pytest.raises(OriginInSet):
            find_det_similar(points, make_field(q)(1), d)
    for points in forms(q, d, upper):
        assert find_det_similar(points, make_field(q)(1), d).verified


def test_a_det_draw_is_the_punctured_subset_by_flat_index():
    field = make_field(7)
    drawn = _det_draw(field, 2, 14, 5)
    assert drawn._flat is not None and b"\0" not in drawn._flat
    assert drawn._flat == bytes(sorted(drawn._flat)) and len(set(drawn._flat)) == 14
    assert [flat_index(v.coords, 7) for v in drawn] == list(drawn._flat)


@pytest.mark.parametrize("kind, q, k", [("similarity", 13, 3), ("det-similarity", 7, 3)])
def test_a_cell_decodes_no_drawn_point(monkeypatch, kind, q, k):
    """A threshold-size cell below the byte bound puts none of its n drawn
    points into a coordinate tuple: its draw hands no tuple to the set,
    the set is never decoded in bulk, and the k + 1 witness sources are
    read off the space table one index at a time."""
    canonical, decode = PointSet._canonical.__func__, fqsim.geometry._flat_coords
    built, decoded = [], []

    def canonical_spy(cls, field, dim, coords):
        coords = tuple(coords)
        built.append(len(coords))
        return canonical(cls, field, dim, coords)

    monkeypatch.setattr(PointSet, "_canonical", classmethod(canonical_spy))
    monkeypatch.setattr(fqsim.geometry, "_flat_coords", lambda *args: decoded.append(args) or decode(*args))
    cells = list(SweepConfig(qs=(q,), d=2, ks=(k,), kind=kind).cells())
    for cell in cells:
        outcome = run_cell(cell).outcome
        assert outcome["status"] == "witness", outcome
        witness = outcome["witness"]
        assert len(witness["xs"]) == len(witness["ys"]) == k + 1
    assert built == [0] * len(cells) and decoded == []
    assert cells[0]["n"] > k + 1


def draw_sizes(size):
    """n = 0, 1, a sparse five, the fewest points that mark their picks (a
    quarter, rounded up) and every point of a set of this size."""
    return sorted({0, min(1, size), min(5, size), -(-size // 4), size})


def tuple_draw(space, n, seed):
    """The seeded draw's points read off the space's tuples, pick i being
    the space's i-th point: what every draw from a space held."""
    return tuple(space._coords[i] for i in sorted(SplitMix64(seed).sample_indices(len(space), n)))


def audit_groups(q, d):
    """The translations of F_q^d and SL(d, q) on the punctured space; past
    10^5 candidate matrices, for SL(3, 5), its diagonal subgroup."""
    if q ** (d * d) <= 10 ** 5:
        return [translations(q, d), special_linear_group(q, d)]
    field = make_field(q)
    diagonal = [SpecialLinear(Matrix(field, [[a, 0, 0], [0, b, 0], [0, 0, pow(a * b, -1, q)]]))
                for a in range(1, q) for b in range(1, q)]
    return [translations(q, d), FiniteGroup(diagonal, Space.punctured(q, d), "special-linear")]


@pytest.mark.parametrize("q, d", SHAPES)
def test_a_draw_from_a_whole_space_is_the_tuple_draw(q, d):
    """Drawn by flat index and held as bytes, built by a classmethod or by
    the constructor, with the points read off the space's tuples."""
    field = make_field(q)
    every = [Vector(field, c) for c in itertools.product(range(q), repeat=d)]
    for space in (Space.full(q, d), Space.punctured(q, d),
                  Space(field, d, "full", every), Space(field, d, "punctured", every[1:])):
        for n in draw_sizes(len(space)):
            for seed in (1, 2 ** 63):
                expected = tuple_draw(space, n, seed)
                drawn = random_subset(space, n, seed)
                assert list(drawn._flat) == [flat_index(c, q) for c in expected] and drawn._tuples is None
                assert drawn._coords == expected


@pytest.mark.parametrize("group", [lambda: translations(13, 2), lambda: special_linear_group(11, 2)],
                         ids=["T(13,2)", "SL(2,11)"])
def test_the_oracle_reads_a_whole_space_draw_without_the_position_dict(group):
    group = group()
    e, h = random_subset(group.space, 100, 1), random_subset(group.space, 40, 2)
    report = max_intersection(group, e, h, want_histogram=True)
    assert group.space._positions is None and e._tuples is None and h._tuples is None
    e_tuples, h_tuples = (PointSet._canonical(p.field, p.dim, p._coords) for p in (e, h))
    assert max_intersection(group, e_tuples, h_tuples, want_histogram=True).to_json() == report.to_json()


@pytest.mark.parametrize("q, d", SHAPES)
def test_max_intersection_reads_either_form_alike(q, d):
    """The oracle's reports, JSON and histogram, on the full and the
    punctured space: a flat-built E or H, or both, report as their
    tuple-built twins."""
    rng = random.Random(q * d)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # empty sets warn
        for group in audit_groups(q, d):
            every = range(group.space.kind == "punctured", q ** d)
            sets = [forms(q, d, sorted(rng.sample(every, n))) for n in draw_sizes(len(every))]
            for (e_flat, e_tuples), (h_flat, h_tuples) in zip(sets, sets[1:] + sets[:1]):
                for hist in (False, True):
                    expected = max_intersection(group, e_tuples, h_tuples, want_histogram=hist).to_json()
                    for e, h in ((e_flat, h_flat), (e_flat, h_tuples), (e_tuples, h_flat)):
                        assert max_intersection(group, e, h, want_histogram=hist).to_json() == expected


@pytest.mark.parametrize("q, d", SHAPES)
def test_a_set_holding_the_origin_is_refused_by_the_punctured_space_in_either_form(q, d):
    group = audit_groups(q, d)[1]
    other = forms(q, d, [q ** d - 1])[0]
    message = f"{{}} set: {Vector(make_field(q), (0,) * d)!r} is not a point of {group.space!r}"
    for points in forms(q, d, [0, q ** d - 1]):
        for e, h, name in ((points, other, "moving"), (other, points, "fixed")):
            with pytest.raises(SpaceMismatch) as refused:
                max_intersection(group, e, h)
            assert str(refused.value) == message.format(name)


def other_spaces(field, d):
    """Spaces built by the constructor whose points are not their kind's
    whole set: all but the origin or all but the last point as `full`, and
    all but the last point (the origin among them) or every point as
    `punctured`."""
    every = [Vector(field, c) for c in itertools.product(range(field.q), repeat=d)]
    return [Space(field, d, "full", every[1:]), Space(field, d, "full", every[:-1]),
            Space(field, d, "punctured", every[:-1]), Space(field, d, "punctured", every)]


@pytest.mark.parametrize("q, d", [(2, 1), (5, 2), (3, 3)])
def test_a_space_of_other_points_draws_its_tuples(q, d):
    """Such a space is drawn from its tuples, with the points of today's
    draw, and the oracle maps a flat set into it through its positions."""
    field = make_field(q)
    sl = special_linear_group(q, d)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # empty sets warn
        for space in other_spaces(field, d):
            for n in draw_sizes(len(space)):
                for seed in (1, 2 ** 63):
                    drawn = random_subset(space, n, seed)
                    assert drawn._flat is None and drawn._coords == tuple_draw(space, n, seed)
            if len(space) == q ** d or not space._holds_origin():  # SL maps these onto themselves
                group = FiniteGroup(sl.elements, space, "special-linear")
                e_flat, e_tuples = forms(q, d, list(range(1, q ** d, 2)))
                h_flat, h_tuples = forms(q, d, list(range(1, q ** d, 3)))
                assert (max_intersection(group, e_flat, h_flat, want_histogram=True).to_json()
                        == max_intersection(group, e_tuples, h_tuples, want_histogram=True).to_json())
