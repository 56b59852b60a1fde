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
tie-break becomes the smallest maximal key.  Translations, for the CLI
bound too, count the pairs (x, y) with y - x = a, points and shifts
coded in base 2q.  While q^d is small against |H|, a bit table marking
H is cut into about √|E| pieces, each point of E shifts its piece, and
the shifted windows, one bit per shift, are added by carry-save full
adders into bit planes, so C counts all q^d shifts at once; otherwise
a Counter counts the |E||H| difference codes.
Unimodular maps count the |E||H||S| terms of the cosets h_y·S·h_x⁻¹ that
send x to y, through index lists built once per H from tables built once
per (q, d) and process: no loop runs per pair.
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
from math import isqrt
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
def _valid_slots(q: int, d: int) -> int:
    """The bits of the base-2q codes whose d digits are all < q: one
    repunit Σ_{r<q} 2^(r·w) per digit weight w, multiplied without a carry."""
    return functools.reduce(mul, [((1 << q * w) - 1) // ((1 << w) - 1)
                                  for w in ((2 * q) ** i for i in range(d))])


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
    columns = zip(*points._coords)
    codes = map(mul, next(columns, ()), repeat(weights[0]))
    for w, column in zip(weights[1:], columns):
        codes = map(add, codes, map(mul, column, repeat(w)))
    return list(map(add, codes, repeat(offset)) if offset else codes)


def _translation_counts(moving: PointSet, fixed: PointSet) -> tuple[list[int], int] | dict[int, int]:
    """|fixed ∩ (moving + a)| for every shift a: as bit planes, or a sparse dict.

    Points and shifts are coded in base 2q, so adding two carries no digit.

    Bit planes: T holds one bit per base-2q code.  Each y in H is marked
    once and d shift-ORs lift the marks to code(y + q·ε) for every ε in
    {0,1}^d, so for every shift t with digits < q the bit at code(x) +
    code(t) is set exactly when x + t lies in H mod q.  T is cut into
    pieces of w + stride bits, w = q(2q)^(d-1), at the multiples of
    stride = ⌈w / isqrt(|E|)⌉ that E reaches, and x's piece shifted right
    to code(x), uncut, is x's mask: its low w bits hold every such
    code(t), and the adders work bit by bit, so the bits above reach only
    plane bits above w, where no valid slot lies.  Carry-save full adders
    add the masks of all of E into |E|.bit_length() planes of O(w) bits,
    plane i holding bit i of the count of shift t at bit code(t),
    returned with the mask of the q^d slots whose digits are all < q
    (`_valid_slots`), through which every plane is read.

    Difference codes (sparse): with q added to every digit of y, each
    digit of code(y) - code(x) lies in [1, 2q), a Counter counts all
    |E||H| codes in C, and the distinct codes fold to the base-2q code
    Σ a_i (2q)^(d-1-i) of a = y - x mod q: O(|E||H|) time and memory.

    The finder scans |E| = |H| = h, so the planes run when
    w·h + 40·q^d <= 7000·h², fitted to both branches timed at |E| = |H|
    = h for q = 3 to 10007, d = 1 to 4: the branch it picks there is at
    most 1.17x slower than the other.
    """
    _check_compatible(moving, fixed)
    q, d = moving.field.q, moving.dim
    weights = [(2 * q) ** (d - 1 - i) for i in range(d)]
    width = q * weights[0]
    h = len(fixed)
    if len(moving) and width * h + 40 * q ** d <= 7000 * h * h:
        table = bytearray(width // 4 + 1)  # 2w bits: every base-2q code
        for y in _codes(fixed, weights):
            table[y >> 3] |= 1 << (y & 7)
        table = int.from_bytes(table, "little")
        for w in weights:  # lift each digit y_i to y_i + q as well
            table |= table << q * w
        shifts = _codes(moving, weights)
        stride = -(-width // isqrt(len(shifts)))
        cut, start, end = (1 << width + stride) - 1, 0, 0
        # pending[i], when nonzero, is one more mask of weight 2^i.  Level
        # i receives n >> i of the n masks, so none passes the last level.
        levels = len(shifts).bit_length()
        planes, pending = [0] * levels, [0] * levels
        for s in shifts:
            if not start <= s < end:
                start = s - s % stride
                end, piece = start + stride, table >> start & cut
            m = piece >> s - start
            i = 0
            while p := pending[i]:  # full adder: plane + p + m
                pending[i] = 0
                plane = planes[i]
                u = p ^ m
                planes[i] = plane ^ u
                m = (p & m) | (plane & u)
                i += 1
            pending[i] = m
        carry = 0  # flush the pending masks by ripple
        for i, (plane, p) in enumerate(zip(planes, pending)):
            u = p ^ carry
            carry = (p & carry) | (plane & u)
            planes[i] = plane ^ u
        return planes, _valid_slots(q, d)
    xs = _codes(moving, weights)
    ys = _codes(fixed, weights, q * sum(weights))
    diffs = Counter(y - x for x in xs for y in ys)
    # Digit by digit over the distinct codes: the digits above the one at
    # weight w are multiples of 2q, so code // w ≡ that digit (mod q).
    keys = [0] * len(diffs)
    for w in weights:
        keys = [k + code // w % q * w for k, code in zip(keys, diffs)]
    counts = {}
    for k, c in zip(keys, diffs.values()):
        counts[k] = counts.get(k, 0) + c
    return counts


def _read_planes(planes: list[int], valid: int,
                 want_histogram: bool) -> tuple[int, int, int, dict[int, int] | None]:
    """(best code, best count, total, histogram) of bit-plane counts: from
    the top plane down, each group of slots (mask m, count prefix v) splits
    into m & ~plane_i and m & plane_i, of prefixes v and v + 2^i.  Without
    a histogram only the highest nonempty group is kept.  Code order is
    canonical order, so the lowest bit of the last group is the tie-break."""
    total = sum((plane & valid).bit_count() << i for i, plane in enumerate(planes))
    groups = [(valid, 0)]
    for i in reversed(range(len(planes))):
        split = []
        for m, v in groups:
            hi = m & planes[i]
            split += [g for g in ((m ^ hi, v), (hi, v + (1 << i))) if g[0]]
        groups = split if want_histogram else split[-1:]
    m, best_c = groups[-1]
    hist = {v: g.bit_count() for g, v in groups} if want_histogram else None
    return (m & -m).bit_length() - 1, best_c, total, hist


def _report_from_counts(counts: dict[int, int] | Sequence[int] | tuple[list[int], int],
                        moving: PointSet, fixed: PointSet, *, decode, first: int,
                        group_order: int, space_size: int, transitive: bool,
                        want_histogram: bool) -> IntersectionReport:
    """The report of a kernel that counts |fixed ∩ g·moving| per element code.

    Codes ascend in canonical element order, so the smallest maximal code
    is the canonical tie-break and the only one decoded.  A dict holds the
    nonzero counts: elements absent from it count zero, and `first`, the
    group's smallest code, answers when every count is zero.  A dense
    sequence holds the count of code i at position i for every element,
    and a tuple bit planes with the mask of their valid slots (`_read_planes`).
    With a histogram, a dict's or a sequence's maximum and total are read
    off it rather than off the counts again.  On an empty space the bound is 0.
    """
    if not len(moving) or not len(fixed):
        warnings.warn("empty point set: the intersection bound is vacuous")
    hist = None
    if isinstance(counts, tuple):
        best, best_c, total, hist = _read_planes(*counts, want_histogram)
    else:
        dense = not isinstance(counts, dict)
        values = counts if dense else counts.values()
        if want_histogram:
            hist = dict(Counter(values))
            if not dense and group_order > len(counts):
                hist[0] = group_order - len(counts)
            best_c = max(hist)
            total = sum(c * n for c, n in hist.items())
        else:
            best_c = max(values, default=0)
            total = sum(values)
        best = (counts.index(best_c) if dense else
                min((code for code, c in counts.items() if c == best_c), default=first))

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
    total, summed from the counts, is |E||H| (each pair contributes to
    exactly one shift).  Both forms of `_translation_counts` key a shift
    by its base-2q code, whose digits are the shift's coordinates.
    """
    field, d = moving.field, moving.dim
    return _report_from_counts(
        _translation_counts(moving, fixed), moving, fixed,
        decode=lambda i: Translation(Vector(field, index_to_coords(i, 2 * field.q, d))),
        first=0, group_order=field.q ** d, space_size=field.q ** d, transitive=True,
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


@functools.lru_cache(maxsize=8)
def _transporter_plan(q: int, d: int) -> tuple[tuple, ...]:
    """The tables of `_transporter_counts` that depend only on (q, d >= 2):
    w2q[j] = (2q)^(d-1-j), the base-2q weight of digit j; scaled[j][e], c·e
    mod q as digit j over c in F_q; others[i], the j != i; starts[t][mu],
    mu·(row t of A) as a tail over A in SL(d-1, q); wrap, `_wrap_table`
    (base-2q row code -> flat index mod q); inverse[c] = 1/c in F_q."""
    w2q = tuple((2 * q) ** (d - 1 - j) for j in range(d))
    scaled = tuple(tuple(tuple(c * e % q * w for c in range(q)) for e in range(q)) for w in w2q)
    others = tuple(tuple(j for j in range(d) if j != i) for i in range(d))
    blocks = list(_unimodular_rows(q, d - 1))
    starts = tuple(tuple(tuple(sum(scaled[k][mu][e] for k, e in enumerate(a[t], start=1))
                               for a in blocks) for mu in range(q)) for t in range(d - 1))
    inverse = (0, *(pow(c, q - 2, q) for c in range(1, q)))
    return w2q, scaled, others, starts, _wrap_table(q, d), inverse


def _transporter_counts(moving: PointSet, fixed: PointSet) -> dict[int, int]:
    """Nonzero values of code(g) -> |fixed ∩ g·moving| over g in SL(d, q).

    code(g) is the base-q integer of g's row-major entries, so code order
    is canonical order.  Each incidence of the paper's double count
    Σ_g |H ∩ gE| = Σ_{(x,y) ∈ E×H} |{g : gx = y}| is counted at its g: the
    g with gx = y are h_y·S·h_x⁻¹, with S the maps [[1, b], [0, A]], A in
    SL(d-1, q), and h_x the map with columns x, λ⁻¹·e_j1, e_j2, ..., where
    i is x's pivot (its first nonzero entry), j1 < j2 < ... skip i and
    λ = (-1)^i x_i.  h_x⁻¹ has rows r_0 = e_i/x_i and r_k = s_k·(e_jk -
    (x_jk/x_i)·e_i), s_1 = λ and s_k = 1 after it, and row i of g is
    y_i r_0 + Σ_{k>=1} p_ik r_k with p = h_y·s.  No loop runs per pair.
    Per call, d flat index lists hold, at every (y, s), the lead offset of
    y_i among H's coordinates plus the code of the tail of p_i,
    h_y[i][1:]·A + y_i·b: h_y's pivot row has tail 0 and its others are
    unit rows, the first scaled by λ⁻¹.  Per x, the pivot, 1/x_i and λ
    read a heads × tails table of |leads|·q^(d-1) rows of g off the tables
    of `_transporter_plan`, comprehensions zip the d lists into |H||S|
    codes and one Counter update counts them.  Both sets avoid the
    origin.  SL(1, q) is the identity alone: it counts |E ∩ H|.
    """
    q = moving.field.q
    d = moving.dim
    if d == 1:
        common = sum(1 for p in moving._coords if p in fixed._index)
        return {1: common} if common else {}
    qd = q ** d
    w2q, scaled, others, starts, wrap, inverse = _transporter_plan(q, d)
    leads = sorted({c for y in fixed._coords for c in y})
    # Per lead a: its offset as digit 0 plus a·b as the tail, over b in lex order.
    lead_b = {a: [n * w2q[0]] for n, a in enumerate(leads)}
    for digit in scaled[1:]:
        lead_b = {a: [t + u for t in codes for u in digit[a]] for a, codes in lead_b.items()}
    index = [[] for _ in range(d)]
    for ys in fixed._coords:
        i = next(j for j, c in enumerate(ys) if c)
        mu = inverse[(-1) ** i * ys[i] % q]
        for j, (col, yj) in enumerate(zip(index, ys)):
            t = j - (j > i)  # the pivot row's tail is 0, as mu = 0 makes it
            vs = starts[0][0] if j == i else starts[t][mu if t == 0 else 1]
            col.extend([wrap[v + u] for v in vs for u in lead_b[yj]])

    counts: Counter = Counter()
    for x in moving._coords:
        i = next(j for j, c in enumerate(x) if c)
        inv, s, w = inverse[x[i]], (-1) ** i * x[i] % q, w2q[i]  # 1/x_i, λ
        heads = [scaled[i][inv][a] for a in leads]  # y_i r_0, base 2q as the table's rows
        tails = sums = [0]  # Σ_k c_k r_k over c in F_q^(d-1), lex order
        for j in others[i]:  # r_k: s_k at j_k, -s_k·x_jk/x_i at i
            tails = [t + u for t in tails for u in scaled[j][s]]
            sums = [v + u for v in sums for u in scaled[-1][-s * x[j] * inv % q]]
            s = 1
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
        flat = index_to_coords(code, q, d * d)
        return SpecialLinear._of(field, tuple(flat[i * d:(i + 1) * d] for i in range(d)), (0,) * d)

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
