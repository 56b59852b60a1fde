"""Helpers shared by the test modules: building, moving and formatting
point sets, column matrices and their cofactor determinants, pair norms,
the translation kernel's counts, the transporter kernel's completion,
the sequential sampler, the lane doubling of the bulk draws, a seed with
a chosen first draw, the seed fold, the per-kind arithmetic of group
elements, flat indices, the pair oracle of translation reports and the
field-by-field comparison of two reports."""

import functools
import itertools
import struct
from collections import Counter
from fractions import Fraction

from fqsim import IntersectionReport, Matrix, PointSet, SplitMix64, Translation, Vector
from fqsim.geometry import _det_rows, index_to_coords
from fqsim.intersection import _codes, _translation_counts
from fqsim.prng import _GAMMA, _MIX1, _MIX2, MASK64


def from_coords(field, dim, coords):
    """The point set of F_q^dim whose points have these coordinates."""
    return PointSet(field, dim, [Vector(field, c) for c in coords])


def coords_list(points):
    """The coordinates of a point set, in its canonical order."""
    return [list(p.coords) for p in points]


def translated(points, shift):
    """The image of a point set under x -> x + shift, coordinate by
    coordinate mod q."""
    return PointSet(points.field, points.dim,
                    [Vector(points.field, [a + b for a, b in zip(p.coords, shift.coords)]) for p in points])


def scaled_by_vectors(points, scalar):
    """The image of a point set under x -> scalar·x, coordinate by
    coordinate mod q, one checked vector per point: the oracle for the
    scans' dilations of coordinate columns and flat indices."""
    return PointSet(points.field, points.dim,
                    [Vector(points.field, [scalar.value * c for c in p.coords]) for p in points])


def format_pointset(points):
    """The point-set file format that `parse_pointset` reads."""
    lines = [f"q={points.field.q} d={points.dim}"]
    lines.extend(",".join(map(str, p.coords)) for p in points)
    return "\n".join(lines) + "\n"


def from_columns(columns):
    """The matrix whose j-th column is columns[j]."""
    return Matrix(columns[0].field, list(zip(*(c.coords for c in columns))))


def _det_cofactor(rows, q):
    """det mod q of a square matrix by cofactor expansion along its first
    row: the determinant oracle that shares no code with the elimination
    determinant or with the det verifier's subset determinants."""
    n = len(rows)
    if n == 1:
        return rows[0][0] % q
    total = 0
    sign = 1
    for j in range(n):
        if rows[0][j]:
            minor = [r[:j] + r[j + 1:] for r in (tuple(row) for row in rows[1:])]
            total += sign * rows[0][j] * _det_cofactor(minor, q)
        sign = -sign
    return total % q


def det_of_columns_cofactor(columns):
    """Cofactor determinant of the matrix whose columns are the vectors."""
    m = from_columns(columns)
    return m.field(_det_cofactor(m.rows, m.field.q))


def pair_norms(points):
    """Norms of all pairwise differences, in dictionary order on (i, j)."""
    return [Vector(x.field, [a - b for a, b in zip(x.coords, y.coords)]).norm()
            for x, y in itertools.combinations(points, 2)]


def translation_count_map(moving, fixed):
    """The translation kernel's nonzero counts, keyed by shift coordinates.

    Both forms key a shift by its base-2q code k: a dict maps k to its
    count, and bit planes count it in bit k, plane i weighing 2^i, where
    every valid slot is read."""
    q, d = moving.field.q, moving.dim
    counts = _translation_counts(moving, _codes(fixed, 2 * q))
    if isinstance(counts, tuple):
        planes, valid = counts
        slots = (k for k in range(valid.bit_length()) if valid >> k & 1)
        counts = {k: sum((plane >> k & 1) << i for i, plane in enumerate(planes)) for k in slots}
    return {index_to_coords(k, 2 * q, d): c for k, c in counts.items() if c}


def completion(x, q):
    """Rows of the h in SL(d, q), d >= 2, with h e1 = x for nonzero x that
    the transporter kernel inverts in closed form.

    The columns x, e_j (j != i) for the first i with x_i != 0 have
    determinant (-1)^i x_i; the second column is scaled by its inverse.
    """
    d = len(x)
    i = next(j for j, c in enumerate(x) if c)
    others = [j for j in range(d) if j != i]
    rows = [[c] + [0] * (d - 1) for c in x]
    for col, j in enumerate(others, start=1):
        rows[j][col] = 1
    rows[others[0]][1] = pow((-1) ** i * x[i], q - 2, q)
    return rows


def sample_indices_sequential(rng, total, count):
    """The partial Fisher-Yates of `SplitMix64.sample_indices`, storing
    only displaced slots, with one `next_below` call per pick instead of
    bulk draws: the oracle for its picks and for the state it leaves
    behind."""
    displaced = {}
    picked = []
    for i in range(count):
        j = i + rng.next_below(total - i)
        picked.append(displaced.get(j, j))
        displaced[j] = displaced.get(i, i)
    return picked


def draws_by_doubling(rng, count):
    """The next `count` outputs of `rng.next_u64`, mixed at once with lanes
    built afresh by doubling: `SplitMix64._draws` before its lane
    constants were built once per process, kept as its oracle.

    Lane k of one integer holds the unreduced state s + (k+1)·γ (below
    2^128); doubling fills lanes m..2m-1 from lanes 0..m-1 plus m·γ.
    Each round masks every lane to 64 bits, so a product by a 64-bit
    constant stays inside its lane.
    """
    mask = int.from_bytes((b"\xff" * 8 + bytes(8)) * count, "little")
    lanes, ones, m = rng.state + _GAMMA, 1, 1
    while m < count:
        shift = 128 * m
        lanes |= (lanes + m * _GAMMA * ones) << shift
        ones |= ones << shift
        m *= 2
    z = lanes & mask
    z = ((z ^ (z >> 30)) & mask) * _MIX1 & mask
    z = ((z ^ (z >> 27)) & mask) * _MIX2 & mask
    z ^= z >> 31
    rng.state = (rng.state + count * _GAMMA) & MASK64
    return struct.unpack("<" + "Q8x" * count, z.to_bytes(16 * count, "little"))


def seed_before(output):
    """The seed whose first `next_u64` is `output`: SplitMix64's mix
    undone step by step (odd multipliers are invertible mod 2^64, and an
    xor-shift by k is undone by repeating it until it settles)."""
    def unshift(y, k):
        x = y
        for _ in range(64 // k + 1):
            x = y ^ (x >> k)
        return x
    z = unshift(output, 31)
    z = unshift(z * pow(_MIX2, -1, 1 << 64) & MASK64, 27)
    z = unshift(z * pow(_MIX1, -1, 1 << 64) & MASK64, 30)
    return (z - _GAMMA) & MASK64


def derive_seed_by_objects(base, *parts):
    """`derive_seed` as one `SplitMix64` object per round, each read once:
    the oracle for the inline fold."""
    acc = SplitMix64(base).next_u64()
    for p in parts:
        acc = SplitMix64(acc ^ (p & MASK64)).next_u64()
    return acc


def oracle_apply(g, x):
    """g·x by the kind's own arithmetic: a coordinate sum mod q for a
    shift, the first column of a Matrix product for a map."""
    if isinstance(g, Translation):
        return Vector(x.field, [a + b for a, b in zip(x.coords, g.vector.coords)])
    column = g.matrix @ Matrix(x.field, [[c] + [0] * (x.dim - 1) for c in x.coords])
    return Vector(x.field, [r[0] for r in column.rows])


def oracle_compose(g, h):
    """The map x -> g(h(x)), built through the kind's checked constructor."""
    if isinstance(g, Translation):
        return Translation(Vector(g.field, [a + b for a, b in zip(g.vector.coords, h.vector.coords)]))
    return type(g)(g.matrix @ h.matrix)


def oracle_inverse(g):
    """-a, coordinate by coordinate mod q, for a shift; the adjugate over
    the determinant, both by `_det_rows`, for a map, through the kind's
    checked constructor."""
    if isinstance(g, Translation):
        return Translation(Vector(g.field, [-a for a in g.vector.coords]))
    rows, q = g.matrix.rows, g.field.q
    d = len(rows)
    scale = pow(_det_rows(rows, q), q - 2, q)
    return type(g)(Matrix(g.field, [
        [(-1) ** (i + j) * scale * _det_rows([r[:i] + r[i + 1:] for k, r in enumerate(rows) if k != j], q)
         for j in range(d)] for i in range(d)]))


def oracle_is_identity(g):
    return not any(g.vector.coords) and g.matrix == Matrix.identity(g.field, len(g.matrix.rows))


def naive_translation_counts(e_set, h_set):
    """Oracle: the nonzero |H ∩ (E + a)| by shift a, as a Counter of the
    coordinate tuples of y - x mod q over every pair (x, y) in E × H."""
    q = e_set.field.q
    return Counter(tuple((b - a) % q for a, b in zip(x.coords, y.coords))
                   for x in e_set for y in h_set)


def oracle_translation_report(e_set, h_set, want_histogram):
    """The report `max_intersection` over the translation group would
    give, built from `naive_translation_counts` without the group."""
    q, d = e_set.field.q, e_set.dim
    counts = naive_translation_counts(e_set, h_set)
    best = max(counts.values(), default=0)
    shift = min((a for a, c in counts.items() if c == best), default=(0,) * d)
    hist = None
    if want_histogram:
        hist = dict(Counter(counts.values()))
        if q ** d > len(counts):
            hist[0] = q ** d - len(counts)
    return IntersectionReport(
        best_g=Translation(Vector(e_set.field, shift)), best_count=best,
        bound=Fraction(len(e_set) * len(h_set), q ** d),
        double_count_total=sum(counts.values()), transitive=True, group_order=q ** d,
        space_size=q ** d, moving_size=len(e_set), fixed_size=len(h_set),
        per_g_histogram=hist,
    )


REPORT_FIELDS =("best_g", "best_count", "bound", "double_count_total", "transitive",
                 "group_order", "space_size", "moving_size", "fixed_size", "per_g_histogram")


def assert_same_report(kernel, oracle):
    for name in REPORT_FIELDS:
        assert getattr(kernel, name) == getattr(oracle, name), name
    assert kernel.to_json() == oracle.to_json()


def flat_index(v, q):
    return functools.reduce(lambda i, c: i * q + c, v, 0)
