"""Helpers shared by the test modules: building, moving and formatting
point sets, column matrices, pair norms, the translation kernel's counts,
the transporter kernel's completion, the sequential sampler and the
per-kind arithmetic of group elements."""

import itertools

from fqsim import Matrix, PointSet, Translation, Vector
from fqsim.geometry import _det_cofactor, _det_rows, index_to_coords
from fqsim.intersection import _translation_counts


def from_coords(field, dim, coords):
    """The point set of F_q^dim whose points have these coordinates."""
    return PointSet(field, dim, [Vector(field, c) for c in coords])


def coords_list(points):
    """The coordinates of a point set, in its canonical order."""
    return [list(p.coords) for p in points]


def translated(points, shift):
    """The image of a point set under x -> x + shift."""
    return PointSet(points.field, points.dim, [p + shift for p in points])


def scaled_by_vectors(points, scalar):
    """`PointSet.scaled` by way of `Vector.__rmul__`, one vector per point:
    the oracle for the coordinate-tuple dilation."""
    if not len(points):
        return PointSet(points.field, points.dim)
    return PointSet(points.field, points.dim, [scalar * p for p in points])


def format_pointset(points):
    """The point-set file format that `parse_pointset` reads."""
    lines = [f"q={points.field.q} d={points.dim}"]
    lines.extend(",".join(map(str, p.coords)) for p in points)
    return "\n".join(lines) + "\n"


def from_columns(columns):
    """The matrix whose j-th column is columns[j]."""
    return Matrix(columns[0].field, list(zip(*(c.coords for c in columns))))


def det_of_columns_cofactor(columns):
    """Cofactor determinant of the matrix whose columns are the vectors."""
    m = from_columns(columns)
    return m.field(_det_cofactor(m.rows, m.field.q))


def pair_norms(points):
    """Norms of all pairwise differences, in dictionary order on (i, j)."""
    return [(points[i] - points[j]).norm()
            for i, j in itertools.combinations(range(len(points)), 2)]


def translation_count_map(moving, fixed):
    """The translation kernel's nonzero counts, keyed by shift coordinates.

    Both forms key a shift by its base-2q code k: a dict maps k to its
    count, and bit planes count it in bit k, plane i weighing 2^i, where
    every valid slot is read."""
    q, d = moving.field.q, moving.dim
    counts = _translation_counts(moving, fixed)
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
    """The sparse partial Fisher-Yates that `SplitMix64.sample_indices`
    runs on bulk draws, with one `next_below` call per pick instead: the
    oracle for its picks and for the state it leaves behind."""
    displaced = {}
    picked = []
    for i in range(count):
        j = i + rng.next_below(total - i)
        picked.append(displaced.get(j, j))
        displaced[j] = displaced.get(i, i)
    return picked


def oracle_apply(g, x):
    """g·x by the kind's own arithmetic: a vector sum for a shift, the
    first column of a Matrix product for a map."""
    if isinstance(g, Translation):
        return x + g.vector
    column = g.matrix @ Matrix(x.field, [[c] + [0] * (x.dim - 1) for c in x.coords])
    return Vector(x.field, [r[0] for r in column.rows])


def oracle_compose(g, h):
    """The map x -> g(h(x)), built through the kind's checked constructor."""
    if isinstance(g, Translation):
        return Translation(g.vector + h.vector)
    return type(g)(g.matrix @ h.matrix)


def oracle_inverse(g):
    """-a for a shift; the adjugate over the determinant, both by
    `_det_rows`, for a map, through the kind's checked constructor."""
    if isinstance(g, Translation):
        return Translation(-g.vector)
    rows, q = g.matrix.rows, g.field.q
    d = len(rows)
    scale = pow(_det_rows(rows, q), q - 2, q)
    return type(g)(Matrix(g.field, [
        [(-1) ** (i + j) * scale * _det_rows([r[:i] + r[i + 1:] for k, r in enumerate(rows) if k != j], q)
         for j in range(d)] for i in range(d)]))


def oracle_is_identity(g):
    return g.vector.is_zero() and g.matrix == Matrix.identity(g.field, len(g.matrix.rows))
