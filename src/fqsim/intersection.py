"""Exact intersection maximization under a finite group action.

For a group G acting on a finite space X and subsets E (the moving set)
and H (the fixed set), the engine computes max over g of |H ∩ gE|
exactly, together with the rational lower bound |H||E|/|X| that holds
whenever the action is transitive, and the exact total
sum over g of |H ∩ gE|, which for transitive actions equals
|G||H||E|/|X| by counting the incidences {(g, y) : y in H ∩ gE} two
ways.

Every quantity is integer or `fractions.Fraction`; nothing is ever
compared through floating point.  Argmax ties are broken toward the
canonically smallest group element: the scan walks the elements in
canonical order and keeps the first strict maximum.

`max_intersection` counts |H ∩ gE| for every enumerated g.  On a space
of at most 255 points each count sits in one byte: the group's image
table is held as one byte column per point, and the columns of E, with
the bytes in H marked, are summed as integers, so the whole scan runs
in C.  When E holds more than half of X the columns of X \\ E are summed
instead and each byte v is mapped to |H| - v, since every g is a
bijection of X.  A larger space ORs one image mask per element instead.

The finders never enumerate a group.  They count the same incidences
from the other side, Σ_g |H ∩ gE| = Σ_{(x,y) ∈ E×H} |{g : gx = y}|,
and key each g by an integer whose order is canonical order, so the
tie-break becomes the smallest maximal key.  Translations count the
pairs (x, y) with y - x = a, with points coded in base 2q.  While the
space is small against |H|, a byte table marking H is shifted by each
point of E and the shifts are summed as integers, one byte per shift,
so C counts all q^d shifts at once; otherwise a Counter counts the
|E||H| difference codes.  Unimodular maps count, for each pair, the
coset of the stabiliser of e1 that sends x to y, |E||H||S| terms in
all.  `max_intersection` over the enumerated
group stays the oracle for both.
"""

from __future__ import annotations

import functools
import warnings
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from operator import add, mul

from .errors import (
    DimensionMismatch,
    EnumerationCapExceeded,
    FieldMismatch,
    NotTransitive,
    SpaceMismatch,
)
from .geometry import Matrix, PointSet, Vector, _check_budget, _inverse_rows, index_to_coords
from .groups import (
    FiniteGroup,
    GroupElement,
    Space,
    SpecialLinear,
    Translation,
    _unimodular_rows,
)
from .prng import SplitMix64

# All-subset-pair audits walk 4^|X| pairs; beyond this the walk is refused.
AUDIT_SPACE_LIMIT = 10


@dataclass
class IntersectionReport:
    """Result of maximizing |fixed ∩ g·moving| over a whole group."""

    best_g: GroupElement
    best_count: int
    bound: Fraction
    double_count_total: int
    transitive: bool
    group_order: int
    space_size: int
    moving_size: int
    fixed_size: int
    per_g_histogram: dict[int, int] | None = None

    @property
    def bound_num(self) -> int:
        return self.bound.numerator

    @property
    def bound_den(self) -> int:
        return self.bound.denominator

    @property
    def satisfies_bound(self) -> bool:
        return self.best_count >= self.bound

    @property
    def double_count_expected(self) -> Fraction:
        if self.space_size == 0:
            return Fraction(0)
        return Fraction(self.group_order * self.moving_size * self.fixed_size,
                        self.space_size)

    @property
    def double_count_ok(self) -> bool:
        return self.double_count_total == self.double_count_expected

    def to_json(self) -> dict:
        out = {
            "best_g": self.best_g.to_json(),
            "best_count": self.best_count,
            "bound_num": self.bound_num,
            "bound_den": self.bound_den,
            "double_count_total": self.double_count_total,
            "transitive": self.transitive,
            "group_order": self.group_order,
            "space_size": self.space_size,
            "moving_size": self.moving_size,
            "fixed_size": self.fixed_size,
        }
        if self.per_g_histogram is not None:
            out["per_g_histogram"] = {str(k): v for k, v in sorted(self.per_g_histogram.items())}
        return out


def _check_compatible(moving: PointSet, fixed: PointSet) -> None:
    if moving.field.q != fixed.field.q:
        raise FieldMismatch(
            f"sets over F_{moving.field.q} and F_{fixed.field.q}"
        )
    if moving.dim != fixed.dim:
        raise DimensionMismatch(f"sets of dimension {moving.dim} and {fixed.dim}")


def intersect_count(g: GroupElement, moving: PointSet, fixed: PointSet) -> int:
    """|fixed ∩ g·moving| for a single group element."""
    try:
        _check_compatible(moving, fixed)
        return sum(1 for v in moving if g.apply(v) in fixed)
    except (FieldMismatch, DimensionMismatch) as exc:
        raise SpaceMismatch(str(exc)) from exc


def _space_indices(space: Space, name: str, points: PointSet) -> list[int]:
    """Positions in the group's space of every point of a moving or fixed set."""
    if points.field.q != space.field.q or points.dim != space.dim:
        raise SpaceMismatch(
            f"{name} set lives in F_{points.field.q}^{points.dim}, "
            f"the group acts on F_{space.field.q}^{space.dim}"
        )
    try:
        return list(map(space._index.__getitem__, points._index))
    except KeyError as exc:
        point = Vector(space.field, exc.args[0])
        raise SpaceMismatch(f"{name} set: {point!r} is not a point of {space!r}") from None


def _image_mask(perm, indices) -> int:
    m = 0
    for i in indices:
        m |= 1 << perm[i]
    return m


def max_intersection(group: FiniteGroup, moving: PointSet, fixed: PointSet, *,
                     want_histogram: bool = False) -> IntersectionReport:
    """Exact maximum of |fixed ∩ g·moving| over every element of the group.

    Every g is counted, with no sampling or pruning: by the group's byte
    columns (`FiniteGroup.columns`) on a space of at most 255 points, by
    per-element image masks on a larger one, where a count may not fit a
    byte.  The byte columns of whichever of E and X \\ E is smaller are
    summed: g is a bijection of X, so |H ∩ gE| = |H| - |H ∩ g(X \\ E)|.
    The maximizer reported is the canonically smallest one.
    """
    space = group.space
    e_indices = _space_indices(space, "moving", moving)
    h_indices = _space_indices(space, "fixed", fixed)
    n_x = space.size
    bound = Fraction(len(moving) * len(fixed), n_x) if n_x else Fraction(0)
    transitive = group.is_transitive()

    if len(moving) == 0 or len(fixed) == 0:
        warnings.warn("empty point set: the intersection bound is vacuous")
        hist = {0: group.order} if want_histogram else None
        return IntersectionReport(
            best_g=group.elements[0], best_count=0, bound=bound,
            double_count_total=0, transitive=transitive,
            group_order=group.order, space_size=n_x,
            moving_size=len(moving), fixed_size=len(fixed),
            per_g_histogram=hist,
        )

    # One count per element, in canonical order; index() finds the first
    # maximum, which is the canonical tie-break.
    if n_x <= 255:
        # Byte g of column x is the index of g·x; translate marks the bytes
        # that land in H, and the little-endian sum over E adds the marks
        # byte by byte.  Byte g ends up at most |X| <= 255, so no byte
        # carries into the next.
        table = bytearray(256)
        for i in h_indices:
            table[i] = 1
        columns = group.columns()
        flip = 2 * len(e_indices) > n_x
        if flip:
            e_indices = set(range(n_x)).difference(e_indices)
        acc = sum(int.from_bytes(columns[i].translate(table), "little") for i in e_indices)
        counts = acc.to_bytes(group.order, "little")
        if flip:  # byte v <= |H| counts H ∩ g(X \ E), so |H ∩ gE| = |H| - v
            counts = counts.translate(bytes(range(len(fixed), -1, -1)).ljust(256, b"\0"))
    else:
        h_mask = 0
        for i in h_indices:
            h_mask |= 1 << i
        counts = [(_image_mask(perm, e_indices) & h_mask).bit_count() for perm in group.perms()]
    if want_histogram:
        hist = dict(Counter(counts))
        best_c = max(hist)
        total = sum(c * n for c, n in hist.items())
    else:
        hist = None
        best_c = max(counts)
        total = sum(counts)
    best_i = counts.index(best_c)

    return IntersectionReport(
        best_g=group.elements[best_i], best_count=best_c, bound=bound,
        double_count_total=total, transitive=transitive,
        group_order=group.order, space_size=n_x,
        moving_size=len(moving), fixed_size=len(fixed),
        per_g_histogram=hist,
    )


@functools.lru_cache(maxsize=8)
def _slot_rows(q: int, d: int) -> list[slice]:
    """The q^(d-1) runs of q bytes whose base-2q digits are all < q, in
    flat order: one per prefix of d-1 digits, the last digit 0..q-1."""
    starts = [0]
    for _ in range(d - 1):
        starts = [(c + r) * 2 * q for c in starts for r in range(q)]
    return [slice(s, s + q) for s in starts]


@functools.lru_cache(maxsize=8)
def _wrap_table(q: int, d: int) -> tuple[int, ...]:
    """Base-2q difference code -> flat index of the difference mod q."""
    # Entries point into one shared list, so the table adds no int objects.
    flat = list(range(q ** d))
    wrap = [0]
    for _ in range(d):
        wrap = [flat[w * q + r % q] for w in wrap for r in range(2 * q)]
    return tuple(wrap)


def _translation_counts(moving: PointSet, fixed: PointSet) -> Sequence[int] | dict[int, int]:
    """flat(a) -> |fixed ∩ (moving + a)|, as a dense sequence or a sparse dict.

    flat(a) = sum of a_i q^(d-1-i), so flat order is lexicographic order.
    Points are coded in base 2q, so adding two points carries no digit.

    Byte slots (dense): T holds one byte per base-2q code and marks
    code(y + q·ε) for y in H and ε in {0,1}^d, so for every shift t with
    digits < q the byte at code(x) + code(t) is 1 exactly when x + t lies
    in H mod q.  Summing T >> 8·code(x) over x in E, cut to the window of
    w = q(2q)^(d-1) bytes that holds every such code(t), counts every
    shift at once in C.  E is taken 255 points at a time, so no byte
    carries; the q^d valid bytes of each chunk, q^(d-1) runs of q, are
    joined in flat order and the chunks added.  Holds O((2q)^d) bytes.

    Difference codes (sparse): with q added to every digit of y, each
    digit of code(y) - code(x) lies in [1, 2q), a Counter counts all
    |E||H| codes in C, and the distinct codes fold to flat((y - x) mod q)
    by divmod: O(|E||H|) time and memory for any q.

    Measured: the slots cost ~0.4 ns per window byte per moving point
    plus ~15 ns per valid byte, the codes ~200 ns per pair while they are
    distinct.  The finder scans |E| = |H| = h, so the slots run when
    w·h + 60·q^d <= 600·h²; at |E| = |H| that pick was within 1.15x of
    the faster branch for every h measured (q up to 10007, d up to 4).
    """
    _check_compatible(moving, fixed)
    q = moving.field.q
    d = moving.dim
    base = 2 * q
    weights = [base ** (d - 1 - i) for i in range(d)]
    width = q * base ** (d - 1)
    h = len(fixed)
    if len(moving) and width * h + 60 * q ** d <= 600 * h * h:
        lifts = [0]
        for w in weights:
            lifts = [s + e for s in lifts for e in (0, q * w)]
        table = bytearray(2 * width)
        for p in fixed.points:
            y = sum(map(mul, p.coords, weights))
            for s in lifts:
                table[y + s] = 1
        table = int.from_bytes(table, "little")
        window = (1 << 8 * width) - 1
        bits = [8 * w for w in weights]
        shifts = [sum(map(mul, p.coords, bits)) for p in moving.points]  # 8·code(x)
        rows = _slot_rows(q, d)
        counts = None
        for start in range(0, len(shifts), 255):
            acc = sum((table >> s) & window for s in shifts[start:start + 255])
            raw = acc.to_bytes(width, "little")
            chunk = b"".join([raw[r] for r in rows])
            counts = chunk if counts is None else list(map(add, counts, chunk))
        return counts
    offset = q * sum(weights)
    xs = [sum(map(mul, p.coords, weights)) for p in moving.points]
    ys = [sum(map(mul, p.coords, weights), offset) for p in fixed.points]
    counts = {}
    for code, c in Counter(y - x for x in xs for y in ys).items():
        i = 0
        for w in weights:  # the digit code // w % base folds to digit % q
            i = i * q + code // w % base % q
        counts[i] = counts.get(i, 0) + c
    return counts


def _report_from_counts(counts: dict[int, int] | Sequence[int],
                        moving: PointSet, fixed: PointSet, *, decode, first: int,
                        group_order: int, space_size: int, transitive: bool,
                        want_histogram: bool) -> IntersectionReport:
    """The report of a kernel that counts |fixed ∩ g·moving| per element code.

    Codes ascend in canonical element order, so the smallest maximal code
    is the canonical tie-break and the only one decoded.  A dict holds the
    nonzero counts: elements absent from it count zero, and `first`, the
    group's smallest code, answers when every count is zero.  A dense
    sequence holds the count of code i at position i for every element.
    """
    if not len(moving) or not len(fixed):
        warnings.warn("empty point set: the intersection bound is vacuous")
    if isinstance(counts, dict):
        values = counts.values()
        best_c = max(values, default=0)
        best = min((code for code, c in counts.items() if c == best_c), default=first)
        zeros = group_order - len(counts)
    else:
        values = counts
        best_c = max(counts)
        best = counts.index(best_c)
        zeros = 0

    hist = None
    if want_histogram:
        hist = dict(Counter(values))
        if zeros:
            hist[0] = zeros

    return IntersectionReport(
        best_g=decode(best),
        best_count=best_c,
        bound=Fraction(len(moving) * len(fixed), space_size),
        double_count_total=sum(values),
        transitive=transitive,
        group_order=group_order,
        space_size=space_size,
        moving_size=len(moving),
        fixed_size=len(fixed),
        per_g_histogram=hist,
    )


def max_translation_intersection_fast(moving: PointSet, fixed: PointSet, *,
                                      want_histogram: bool = False) -> IntersectionReport:
    """Translation-group maximizer, counting every shift without the group.

    Output contract is identical to `max_intersection` over the full
    translation group: the reported shift is the lexicographically
    smallest maximizer, the bound is |E||H|/q^d, and the double-count
    total is |E||H| (each pair contributes to exactly one shift).  Counts
    are keyed by flat index: byte slots count all q^d shifts when the
    space is small against |H|, difference codes count only the shifts
    some pair reaches otherwise (see `_translation_counts`).
    """
    counts = _translation_counts(moving, fixed)
    field = moving.field
    q = field.q
    d = moving.dim
    order = q ** d
    return _report_from_counts(
        counts, moving, fixed,
        decode=lambda i: Translation(Vector(field, index_to_coords(i, q, d))),
        first=0, group_order=order, space_size=order, transitive=True,
        want_histogram=want_histogram,
    )


def _special_linear_order(q: int, d: int) -> int:
    """|SL(d, q)| = q^(d(d-1)/2) · prod over i = 2..d of (q^i - 1)."""
    order = q ** (d * (d - 1) // 2)
    for i in range(2, d + 1):
        order *= q ** i - 1
    return order


def _first_special_linear_code(q: int, d: int) -> int:
    """Code of the canonically smallest element of SL(d, q).

    Its rows are e_d, ..., e_2, each the smallest row independent of those
    above it, then c·e_1, where c = (-1)^(d(d-1)/2) undoes the sign of
    the row reversal.
    """
    flat = [0] * (d * d)
    for i in range(d - 1):
        flat[i * d + d - 1 - i] = 1
    flat[(d - 1) * d] = (-1) ** (d * (d - 1) // 2) % q
    code = 0
    for e in flat:
        code = code * q + e
    return code


def _completion(x: tuple[int, ...], q: int) -> list[list[int]]:
    """Rows of an h in SL(d, q), d >= 2, with h e1 = x for nonzero x.

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


def _transporter_counts(moving: PointSet, fixed: PointSet) -> dict[int, int]:
    """Nonzero values of code(g) -> |fixed ∩ g·moving| over g in SL(d, q).

    code(g) is the base-q integer of g's row-major entries, so code order
    is canonical order.  Each incidence of the paper's double count
    Σ_g |H ∩ gE| = Σ_{(x,y) ∈ E×H} |{g : gx = y}| is counted at its g: the
    g with gx = y are h_y·S·h_x⁻¹, where S = {[[1, b], [0, A]] : A in
    SL(d-1, q)} fixes e1 and h_x e1 = x.  With p = h_y·s, row i of g is
    y_i r_1 + Σ_{k>=2} p_ik r_k over the rows r_k of h_x⁻¹, so one table
    per x maps (y_i, p_i2..p_id) to that row's code and each of the
    |E||H||S| <= |G||X| terms costs d lookups.  For d = 2, S holds
    [[1, t], [0, 1]] and each coset is {h_y h_x⁻¹ + t·y·(-x_2, x_1)}.
    Both sets must avoid the origin.  SL(1, q) is the identity alone and
    counts |E ∩ H|.
    """
    q = moving.field.q
    d = moving.dim
    if d == 1:
        common = sum(1 for p in moving if p in fixed)
        return {1: common} if common else {}
    m = d - 1
    qd = q ** d
    wrap = _wrap_table(q, d)  # base-2q row code -> flat index of the row mod q
    w2q = [(2 * q) ** (d - 1 - j) for j in range(d)]
    blocks = list(_unimodular_rows(q, m))  # SL(d-1, q)
    # Per y: for every p = h_y·s, s = [[1, b], [0, A]] in A-major, b-lex
    # order, the base-q code of row i of p's columns 2..d, h_y[i][1:]·A + y_i·b.
    targets = []
    for y in fixed:
        h = _completion(y.coords, q)
        cols = [[] for _ in range(d)]
        for a in blocks:
            for yi, row, col in zip(y.coords, h, cols):
                codes = [0]
                for k in range(m):
                    base = sum(row[1 + j] * a[j][k] for j in range(m))
                    codes = [c * q + (base + yi * b) % q for c in codes for b in range(q)]
                col.extend(codes)
        targets.append((y.coords, cols))
    leads = sorted({c for y in fixed for c in y.coords})

    counts: Counter = Counter()
    for x in moving:
        r = _inverse_rows(_completion(x.coords, q), q)
        # Base-2q code of Σ_k c_k r_k mod q over c in F_q^(d-1), lex order,
        # and of a·r_1 mod q over the leads a, summed coordinate by coordinate.
        tails = [0] * q ** m
        heads = [0] * len(leads)
        for j, w in enumerate(w2q):
            entries = [0]
            for rk in r[1:]:
                e = rk[j]
                entries = [s + c * e for s in entries for c in range(q)]
            tails = [t + s % q * w for t, s in zip(tails, entries)]
            e = r[0][j]
            heads = [t + a * e % q * w for t, a in zip(heads, leads)]
        rows = {a: [wrap[h + t] for t in tails] for a, h in zip(leads, heads)}
        codes = []
        for ys, cols in targets:
            table = rows[ys[0]]
            row_codes = [table[j] for j in cols[0]]
            for a, col in zip(ys[1:], cols[1:]):
                table = rows[a]
                row_codes = [c * qd + table[j] for c, j in zip(row_codes, col)]
            codes += row_codes
        counts.update(codes)
    return counts


def _max_special_linear_intersection(moving: PointSet, fixed: PointSet, *,
                                     want_histogram: bool = False) -> IntersectionReport:
    """`max_intersection` over SL(d, q) on the punctured space, without the group.

    Same report, field for field: the canonically smallest maximizer,
    the bound |E||H|/(q^d - 1) and the double-count total |E||H||S|.  The
    action is transitive for d >= 2; SL(1, q) moves nothing.  Refuses,
    as the enumeration did, a q^(d^2) matrix scan past ENUMERATION_CAP.
    """
    field = moving.field
    q = field.q
    d = moving.dim
    _check_budget(q ** (d * d), "matrix scan (q^(d^2))")
    counts = _transporter_counts(moving, fixed)

    def decode(code):
        flat = index_to_coords(code, q, d * d)
        return SpecialLinear.unchecked(Matrix(field, [flat[i * d:(i + 1) * d] for i in range(d)]))

    return _report_from_counts(
        counts, moving, fixed, decode=decode, first=_first_special_linear_code(q, d),
        group_order=_special_linear_order(q, d), space_size=q ** d - 1,
        transitive=d >= 2 or q == 2, want_histogram=want_histogram,
    )


@dataclass(frozen=True)
class BoundAudit:
    """Outcome of checking the intersection bound over many subset pairs."""

    pairs: int
    bound_violations: int
    double_count_mismatches: int | None
    # Largest observed value of |E||H| - best*|X|; positive would be a violation.
    worst_gap_num: int
    space_size: int

    @property
    def min_slack(self) -> Fraction:
        """Smallest observed best_count - bound, over all checked pairs."""
        return Fraction(-self.worst_gap_num, self.space_size)

    def to_json(self) -> dict:
        out = {
            "pairs": self.pairs,
            "bound_violations": self.bound_violations,
            "min_slack_num": self.min_slack.numerator,
            "min_slack_den": self.min_slack.denominator,
        }
        if self.double_count_mismatches is not None:
            out["double_count_mismatches"] = self.double_count_mismatches
        return out


def _require_transitive(group: FiniteGroup) -> None:
    if not group.is_transitive():
        raise NotTransitive(
            f"{group.kind} group is not transitive on its {group.space.kind} space; "
            "the intersection bound does not apply"
        )


def _audit(group: FiniteGroup, draws, double_count: bool) -> BoundAudit:
    """Tally the bound (and optionally the double count) over subset pairs.

    `draws` yields (e_mask, h_masks): one moving set E and the fixed sets
    H to pair with it, so the |G| images of E are built once per E.
    Exact integer comparisons throughout: a bound violation is
    best*|X| < |E||H|, a double-count mismatch is total*|X| != |G||E||H|.
    """
    n = group.space.size
    perms = group.perms()
    g_order = group.order
    pairs = 0
    violations = 0
    mismatches = 0
    worst = -(n * max(g_order, 1))  # any valid pair beats this
    for e_mask, h_masks in draws:
        e_indices = [i for i in range(n) if e_mask >> i & 1]
        ce = len(e_indices)
        imgs = [_image_mask(perm, e_indices) for perm in perms]
        pairs += len(h_masks)
        for h_mask in h_masks:
            ch = h_mask.bit_count()
            best = 0
            tot = 0
            for img in imgs:
                c = (img & h_mask).bit_count()
                tot += c
                if c > best:
                    best = c
            gap = ce * ch - best * n
            if gap > 0:
                violations += 1
            if gap > worst:
                worst = gap
            if double_count and tot * n != g_order * ce * ch:
                mismatches += 1
    return BoundAudit(
        pairs=pairs,
        bound_violations=violations,
        double_count_mismatches=mismatches if double_count else None,
        worst_gap_num=worst,
        space_size=n,
    )


def exhaustive_pairs_audit(group: FiniteGroup, *, double_count: bool = True) -> BoundAudit:
    """Check the bound (and optionally the double count) over ALL subset pairs.

    Walks every pair (E, H) of subsets of the space — 4^|X| pairs — so
    the space is capped at AUDIT_SPACE_LIMIT points.
    """
    _require_transitive(group)
    n = group.space.size
    if n > AUDIT_SPACE_LIMIT:
        raise EnumerationCapExceeded(
            f"subset-pair audit needs a space of at most {AUDIT_SPACE_LIMIT} points, got {n}"
        )
    masks = range(1 << n)
    return _audit(group, ((e_mask, masks) for e_mask in masks), double_count)


def random_pairs_audit(group: FiniteGroup, pairs: int, seed: int, *,
                       double_count: bool = True) -> BoundAudit:
    """Check the bound over seeded uniformly random subset pairs.

    Each subset is drawn by independent fair bits per space point, so
    all subsets are equally likely; each pair draws E, then H.
    """
    _require_transitive(group)
    n = group.space.size
    if n > 64:
        raise EnumerationCapExceeded(
            f"random-pair audit draws 64-bit subset masks, needs |X| <= 64, got {n}"
        )
    rng = SplitMix64(seed)
    draws = ((rng.next_bits(n), (rng.next_bits(n),)) for _ in range(pairs))
    return _audit(group, draws, double_count)
