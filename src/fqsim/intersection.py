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

Every maximizer produces counts, one per element code, and one builder,
`_report_from_counts`, reports them: the canonical tie-break, the
histogram, the double-count total and the bound.  Three kernels count.

`max_intersection` counts |H ∩ gE| for every enumerated g from the
group's image table, one column of image indices per point.  Up to 256
points the columns of E, with the images in H marked, are summed as
integers, one byte per element; above, E's columns are joined and each
element's images of E are looked up in H's marks in C.  When E holds
more than half of X the columns of X \\ E are read instead and each
count v is mapped to |H| - v, since every g is a bijection of X.

The finders never enumerate a group.  They count the same incidences
from the other side, Σ_g |H ∩ gE| = Σ_{(x,y) ∈ E×H} |{g : gx = y}|,
and key each g by an integer whose order is canonical order, so the
tie-break becomes the smallest maximal key.  Translations count the
pairs (x, y) with y - x = a, with points coded in base 2q.  While the
space is small against |H|, a bit table marking H is shifted by each
point of E and the shifted windows, one bit per shift, are added by
carry-save full adders into eight bit planes, so C counts all q^d
shifts at once; otherwise a Counter counts the |E||H| difference codes.
Unimodular maps count the |E||H||S| terms of the cosets h_y·S·h_x⁻¹ that
send x to y, through index lists built once per H: no loop runs per pair.
`max_intersection` over the enumerated group stays the oracle for both.
"""

from __future__ import annotations

import functools
import warnings
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress, repeat
from operator import add, itemgetter, mul

from .errors import (
    DimensionMismatch,
    EnumerationCapExceeded,
    FieldMismatch,
    NotTransitive,
    SpaceMismatch,
)
from .geometry import PointSet, Vector, _check_budget, index_to_coords
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
        raise FieldMismatch(f"sets over F_{moving.field.q} and F_{fixed.field.q}")
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
        return list(map(space._index.__getitem__, points._coords))
    except KeyError as exc:
        point = Vector(space.field, exc.args[0])
        raise SpaceMismatch(f"{name} set: {point!r} is not a point of {space!r}") from None


def _group_counts(group: FiniteGroup, e_indices: list[int], h_indices: list[int]) -> Sequence[int]:
    """|H ∩ gE| for every element g of the group, in canonical order.

    From the group's image table (`FiniteGroup.columns`), reading the
    columns of whichever of E and X \\ E is smaller: g is a bijection of
    X, so |H ∩ gE| = |H| - |H ∩ g(X \\ E)|.  When E or H is the whole
    space every count is the other's size.  An empty E or H counts 0 for
    every g without the image table, which a large group pays for.
    """
    if not e_indices or not h_indices:
        return bytes(group.order)
    n_x, nh, order = group.space.size, len(h_indices), group.order
    columns = group.columns()
    if n_x in (nh, len(e_indices)):
        return [min(nh, len(e_indices))] * order
    if flip := 2 * len(e_indices) > n_x:
        outside = bytearray(b"\1") * n_x
        for i in e_indices:
            outside[i] = 0
        e_indices = compress(range(n_x), outside)
    marks = bytearray(256 if n_x <= 256 else n_x + 1)
    for i in h_indices:
        marks[i] = 1
    if n_x <= 256:
        # Byte g of a column is the index of g·x; translate marks the bytes
        # that land in H, and the little-endian sum over E adds the marks
        # byte by byte.  A count stays below |X| <= 256, so no byte carries.
        counts = sum(int.from_bytes(columns[i].translate(marks), "little")
                     for i in e_indices).to_bytes(order, "little")
        return counts.translate(bytes(range(nh, -1, -1)).ljust(256, b"\0")) if flip else counts
    # Wider: E's columns joined are one index array, column after column,
    # so every |G|-th entry from g holds g's images of E, and itemgetter
    # looks their marks up in C.  It returns a bare item for one index, so
    # index |X|, never marked, is looked up too.
    flat = memoryview(b"".join(map(columns.__getitem__, e_indices))).cast(columns[0].typecode)
    counts = [sum(itemgetter(n_x, *flat[g::order].tolist())(marks)) for g in range(order)]
    return [nh - c for c in counts] if flip else counts


def max_intersection(group: FiniteGroup, moving: PointSet, fixed: PointSet, *,
                     want_histogram: bool = False) -> IntersectionReport:
    """Exact maximum of |fixed ∩ g·moving| over every element of the group.

    Every g is counted, with no sampling or pruning (`_group_counts`),
    and the counts are reported like every other kernel's, by
    `_report_from_counts`: the maximizer reported is the canonically
    smallest one.
    """
    space = group.space
    counts = _group_counts(group, _space_indices(space, "moving", moving),
                           _space_indices(space, "fixed", fixed))
    return _report_from_counts(
        counts, moving, fixed, decode=group.elements.__getitem__, first=0,
        group_order=group.order, space_size=space.size,
        transitive=group.is_transitive(), want_histogram=want_histogram,
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


def _codes(points: PointSet, weights: list[int], offset: int = 0) -> list[int]:
    """offset + Σ_i c_i·weights[i] for every point, a coordinate column at a time."""
    codes = [offset] * len(points)
    for w, column in zip(weights, zip(*points._coords)):
        codes = map(add, codes, map(mul, column, repeat(w)))
    return list(codes)


def _translation_counts(moving: PointSet, fixed: PointSet) -> Sequence[int] | dict[int, int]:
    """flat(a) -> |fixed ∩ (moving + a)|, as a dense sequence or a sparse dict.

    flat(a) = sum of a_i q^(d-1-i), so flat order is lexicographic order.
    Points are coded in base 2q, so adding two points carries no digit.

    Bit slots (dense): T holds one bit per base-2q code.  Each y in H is
    marked once and d shift-ORs lift the marks to code(y + q·ε) for every
    ε in {0,1}^d, so for every shift t with digits < q the bit at
    code(x) + code(t) is set exactly when x + t lies in H mod q.
    T >> code(x), cut to the window of w = q(2q)^(d-1) bits that holds
    every such code(t), is x's mask.  Carry-save full adders add the
    masks of 255 points of E at a time into at most 8 bit planes, plane i
    holding bit i of every count.  Each plane is then spread to one byte
    per bit and weighed 2^i, so the planes sum to one byte of count per
    slot; the q^d valid bytes of each chunk, q^(d-1) runs of q, are joined
    in flat order and the chunks added.  Holds O(w) bytes.

    Difference codes (sparse): with q added to every digit of y, each
    digit of code(y) - code(x) lies in [1, 2q), a Counter counts all
    |E||H| codes in C, and the distinct codes fold to flat((y - x) mod q)
    digit by digit: O(|E||H|) time and memory for any q.

    The finder scans |E| = |H| = h, so the slots run when
    w·h + 60·q^d <= 600·h².  That rule was fitted to byte slots, ~4x
    dearer per moving point than bit slots, so near the switch its pick
    can be up to 4.3x slower than the other branch.
    """
    _check_compatible(moving, fixed)
    q = moving.field.q
    d = moving.dim
    base = 2 * q
    weights = [base ** (d - 1 - i) for i in range(d)]
    width = q * base ** (d - 1)
    h = len(fixed)
    if len(moving) and width * h + 60 * q ** d <= 600 * h * h:
        table = bytearray(width // 4 + 1)  # 2w bits: every base-2q code
        for y in _codes(fixed, weights):
            table[y >> 3] |= 1 << (y & 7)
        table = int.from_bytes(table, "little")
        for w in weights:  # lift each digit y_i to y_i + q as well
            table |= table << q * w
        window = (1 << width) - 1
        spec = f"0{width}b"
        zeros = int.from_bytes(b"0" * width, "big")
        shifts = _codes(moving, weights)
        rows = _slot_rows(q, d)
        counts = None
        for start in range(0, len(shifts), 255):
            batch = shifts[start:start + 255]
            # Plane i holds bit i of every slot's count; pending[i], when
            # nonzero, is one more mask of weight 2^i.  Level i receives at
            # most n >> i of the n <= 255 masks, so no mask passes level
            # n.bit_length() - 1 and every count fits n.bit_length() planes.
            levels = len(batch).bit_length()
            planes = [0] * levels
            pending = [0] * levels
            for s in batch:
                m = (table >> s) & window
                i = 0
                while p := pending[i]:  # full adder: plane + p + m
                    pending[i] = 0
                    plane = planes[i]
                    u = p ^ m
                    planes[i] = plane ^ u
                    m = (p & m) | (plane & u)
                    i += 1
                pending[i] = m
            # Flush the pending masks by ripple, and spread each finished
            # plane to one byte per slot: format writes bit k of it as byte
            # k, b'0' or b'1', of a big-endian string.  Plane i weighs 2^i.
            carry = acc = 0
            for i in range(levels):
                plane = planes[i]
                p = pending[i]
                u = p ^ carry
                carry = (p & carry) | (plane & u)
                if plane := plane ^ u:
                    acc += (int.from_bytes(format(plane, spec).encode(), "big") - zeros) << i
            raw = acc.to_bytes(width, "little")
            chunk = b"".join([raw[r] for r in rows])
            counts = chunk if counts is None else list(map(add, counts, chunk))
        return counts
    xs = _codes(moving, weights)
    ys = _codes(fixed, weights, q * sum(weights))
    diffs = Counter(y - x for x in xs for y in ys)
    # Digit by digit over the distinct codes: the digits above the one at
    # weight w are multiples of 2q, so code // w ≡ that digit (mod q).
    flat = [0] * len(diffs)
    for w in weights:
        flat = [i * q + code // w % q for i, code in zip(flat, diffs)]
    counts = {}
    for i, c in zip(flat, diffs.values()):
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
    With a histogram, the maximum and the total are read off it rather
    than off the counts again.  On an empty space the bound is 0.
    """
    if not len(moving) or not len(fixed):
        warnings.warn("empty point set: the intersection bound is vacuous")
    dense = not isinstance(counts, dict)
    values = counts if dense else counts.values()
    hist = None
    if want_histogram:
        hist = dict(Counter(values))
        if not dense and group_order > len(counts):
            hist[0] = group_order - len(counts)
        best_c = max(hist)
        total = sum(c * n for c, n in hist.items())
    else:
        best_c = max(values, default=0)
        total = sum(values)
    if dense:
        best = counts.index(best_c)
    else:
        best = min((code for code, c in counts.items() if c == best_c), default=first)

    return IntersectionReport(
        best_g=decode(best), best_count=best_c,
        bound=Fraction(len(moving) * len(fixed), space_size) if space_size else Fraction(0),
        double_count_total=total, transitive=transitive,
        group_order=group_order, space_size=space_size,
        moving_size=len(moving), fixed_size=len(fixed), per_g_histogram=hist,
    )


def max_translation_intersection_fast(moving: PointSet, fixed: PointSet, *,
                                      want_histogram: bool = False) -> IntersectionReport:
    """Translation-group maximizer, counting every shift without the group.

    Output contract is identical to `max_intersection` over the full
    translation group: the reported shift is the lexicographically
    smallest maximizer, the bound is |E||H|/q^d, and the double-count
    total is |E||H| (each pair contributes to exactly one shift).  Counts
    are keyed by flat index: bit slots count all q^d shifts when the
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
    the row reversal.  Row r's entry sits at flat r·d + d-1-r, of weight
    q^((d-1)(d-r)).
    """
    c = (-1) ** (d * (d - 1) // 2) % q
    return sum(q ** ((d - 1) * (d - r)) for r in range(d - 1)) + c * q ** (d - 1)


def _inverse_completion(x: tuple[int, ...], q: int) -> tuple[int, list[list[int]]]:
    """The first i with x_i != 0, and the rows of h⁻¹ in closed form for the
    h in SL(d, q) with columns x, λ⁻¹·e_j1, e_j2, ... (d >= 2, x nonzero),
    where j1 < j2 < ... skip i and λ = (-1)^i x_i: r_0 = e_i/x_i and
    r_k = s_k·(e_jk - (x_jk/x_i)·e_i), with s_1 = λ and s_k = 1 after it.
    """
    d = len(x)
    i = next(j for j, c in enumerate(x) if c)
    inv, s = pow(x[i], q - 2, q), (-1) ** i * x[i] % q  # 1/x_i and λ
    rows = [[0] * d for _ in range(d)]
    rows[0][i] = inv
    for row, j in zip(rows[1:], (j for j in range(d) if j != i)):
        row[j], row[i], s = s, -s * x[j] * inv % q, 1
    return i, rows


def _transporter_counts(moving: PointSet, fixed: PointSet) -> dict[int, int]:
    """Nonzero values of code(g) -> |fixed ∩ g·moving| over g in SL(d, q).

    code(g) is the base-q integer of g's row-major entries, so code order
    is canonical order.  Each incidence of the paper's double count
    Σ_g |H ∩ gE| = Σ_{(x,y) ∈ E×H} |{g : gx = y}| is counted at its g: the
    g with gx = y are h_y·S·h_x⁻¹ (`_inverse_completion`), with S the maps
    [[1, b], [0, A]], A in SL(d-1, q), and row i of g is y_i r_0 +
    Σ_{k>=1} p_ik r_k over the rows r_k of h_x⁻¹ and p = h_y·s.  No loop
    runs per pair.  Per call, d flat index lists hold, at every (y, s), the
    lead offset of y_i among H's coordinates plus the code of the tail of
    p_i, h_y[i][1:]·A + y_i·b: h_y's pivot row has tail 0 and its others
    are unit rows, the first scaled by λ⁻¹.  Per x, one heads × tails table
    maps them to rows of g, comprehensions zip the d lists into |H||S| codes
    and one Counter update counts them.  Both sets avoid the origin.
    SL(1, q) is the identity alone: it counts |E ∩ H|.
    """
    q = moving.field.q
    d = moving.dim
    if d == 1:
        common = sum(1 for p in moving._coords if p in fixed._index)
        return {1: common} if common else {}
    qd = q ** d
    wrap = _wrap_table(q, d)  # base-2q row code -> flat index of the row mod q
    w2q = [(2 * q) ** (d - 1 - j) for j in range(d)]
    # scaled[j][e]: c·e mod q over c in F_q, as base-2q digit j (weight 1 at j = d - 1)
    scaled = [[[c * e % q * w for c in range(q)] for e in range(q)] for w in w2q]
    others = [[j for j in range(d) if j != i] for i in range(d)]
    leads = sorted({c for y in fixed._coords for c in y})
    # Per lead a: its offset as digit 0 plus a·b as the tail, over b in lex order.
    lead_b = {a: [n * w2q[0]] for n, a in enumerate(leads)}
    for digit in scaled[1:]:
        lead_b = {a: [t + u for t in codes for u in digit[a]] for a, codes in lead_b.items()}
    # starts[t][mu]: mu·(row t of A) as a tail, over A in SL(d-1, q), then b.
    blocks = list(_unimodular_rows(q, d - 1))
    starts = [[[sum(scaled[k][mu][e] for k, e in enumerate(a[t], start=1)) for a in blocks]
               for mu in range(q)] for t in range(d - 1)]
    index = [[] for _ in range(d)]
    for ys in fixed._coords:
        i = next(j for j, c in enumerate(ys) if c)
        mu = pow((-1) ** i * ys[i], q - 2, q)
        for j, (col, yj) in enumerate(zip(index, ys)):
            t = j - (j > i)  # the pivot row's tail is 0, as mu = 0 makes it
            vs = starts[0][0] if j == i else starts[t][mu if t == 0 else 1]
            col.extend([wrap[v + u] for v in vs for u in lead_b[yj]])

    counts: Counter = Counter()
    for x in moving._coords:
        i, r = _inverse_completion(x, q)  # r_0 on e_i; r_k on e_jk and e_i
        w = w2q[i]
        heads = [a * r[0][i] % q * w for a in leads]  # base 2q, as the table's rows
        tails = sums = [0]  # Σ_k c_k r_k over c in F_q^(d-1), lex order
        for j, rk in zip(others[i], r[1:]):
            tails = [t + u for t in tails for u in scaled[j][rk[j]]]
            sums = [v + u for v in sums for u in scaled[-1][rk[i]]]
        tails = [t + v % q * w for t, v in zip(tails, sums)]
        table = [wrap[h + t] for h in heads for t in tails]
        codes = [table[a] * qd + table[b] for a, b in zip(index[0], index[1])]
        for col in index[2:]:
            codes = [c * qd + table[j] for c, j in zip(codes, col)]
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
    _check_budget(q, d * d, "matrix scan (q^(d^2))")
    counts = _transporter_counts(moving, fixed)

    def decode(code):
        flat = index_to_coords(code, q, d * d) + (0,)
        return SpecialLinear._from_rows(field, tuple(flat[i * d:(i + 1) * d] + flat[-1:] for i in range(d)))

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
    double_count_mismatches: int
    # Largest observed value of |E||H| - best*|X|; positive would be a violation.
    worst_gap_num: int
    space_size: int

    @property
    def min_slack(self) -> Fraction:
        """Smallest observed best_count - bound, over all checked pairs."""
        return Fraction(-self.worst_gap_num, self.space_size)

    def to_json(self) -> dict:
        return {
            "pairs": self.pairs,
            "bound_violations": self.bound_violations,
            "min_slack_num": self.min_slack.numerator,
            "min_slack_den": self.min_slack.denominator,
            "double_count_mismatches": self.double_count_mismatches,
        }


def _require_transitive(group: FiniteGroup) -> None:
    if not group.is_transitive():
        raise NotTransitive(
            f"{group.kind} group is not transitive on its {group.space.kind} space; "
            "the intersection bound does not apply"
        )


def _audit(group: FiniteGroup, draws) -> BoundAudit:
    """Tally the bound and the double count over subset pairs.

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
        imgs = [sum([1 << perm[i] for i in e_indices]) for perm in perms]  # distinct bits: their OR
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
            if tot * n != g_order * ce * ch:
                mismatches += 1
    return BoundAudit(
        pairs=pairs,
        bound_violations=violations,
        double_count_mismatches=mismatches,
        worst_gap_num=worst,
        space_size=n,
    )


def exhaustive_pairs_audit(group: FiniteGroup) -> BoundAudit:
    """Check the bound and the double count over ALL subset pairs.

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
    return _audit(group, ((e_mask, masks) for e_mask in masks))


def random_pairs_audit(group: FiniteGroup, pairs: int, seed: int) -> BoundAudit:
    """Check the bound and the double count over seeded random subset pairs.

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
    return _audit(group, draws)
