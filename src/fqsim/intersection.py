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

Every maximizer produces counts, one per element, and one builder,
`_report_from_counts`, reports them: the canonical tie-break, the
histogram, the double-count total and the bound.  Up to 256 points one
byte kernel counts for every scan (`_row_counts`): E's rows of image
indices, with the indices in H marked, are summed as integers, one byte
per element, in one pipeline of maps.

`max_intersection` counts |H ∩ gE| for every enumerated g from the
group's image table, one column of image indices per point, E and H
given by their positions in the space: in a whole full or punctured
space a flat set's bytes, less one in the punctured space
(`_space_indices`), else looked up in its position dict.  Up to 256
points E's columns are the byte kernel's rows; above, they are joined
and each element's images of E are looked up in H's marks in C.  When E
holds more than half of X the columns of X \\ E are read instead and
each count v is mapped to |H| - v, since every g is a bijection of X.

The finders never enumerate a group, nor does the CLI's bound over
explicit sets of translations or SL(d, q).  They count the same
incidences from the other side, Σ_g |H ∩ gE| = Σ_{(x,y) ∈ E×H} |{g : gx = y}|,
and key each g by an integer whose order is canonical order, so the
tie-break becomes the smallest maximal key.  Translations count per
shift a the x in E with x + a in H.  For q^d <= 255 every index and
count fits in a byte: row x of a table built once per (q, d),
`_space_table`, holds the flat index of x + a over a in lex order, and
the byte kernel sums E's rows.  Past it, points and shifts are coded in
base 2q.  While q^d is small against |H|, a bit table
marking H is cut into about √|E| pieces, and each point of E shifts its
piece into a mask, one bit per shift.  A shift's lowest digit is below
q, so half of every mask is idle: E's points are taken in pairs, the
second's mask moved q bits up onto that half, each pair's window is
added by carry-save full adders into bit planes, and one ripple adds
each plane's two halves, so C counts all q^d shifts at once; otherwise
a Counter counts the |E||H| difference codes.
Unimodular maps are counted over the cosets h_c·S that make up SL(d, q),
carriers and stabiliser as `_special_linear_plan` defines and tabulates
them once per (q, d).  While q^d <= 256, h_c·s sends x into H exactly
when h_c·(s·x) does, so per x the byte columns of the points s·x, one
byte per c, are joined over S (for d = 2 once per x, in the plan) and
the byte kernel sums them; past it the |E||H||S| terms of the cosets
h_y·S·h_x⁻¹ that send x to y are counted through index lists built
once per H.  No loop runs per pair.

Each kind has one scan, which tests the byte bound once and serves both
its finder and its maximizer: `_shift_overlap` for translations,
`_coset_overlap` for SL(d, q).  It scans E against H = s·fixed with no
point set built, H being fixed's flat indices translated through
`_space_table`'s dilation by s below the bound, and coded from fixed's
coordinate columns times s past it (base-2q codes for translations,
coordinate tuples for the transporters).  While q <= 256 those columns
are bytes, and s·x and each one-term row of g·x are translated in C
through `_space_table(q, 1)` (`_columns`); the translation scan takes
E's columns once.  Each scan writes its kind's closed forms (order,
space size, transitivity, first code) once and reports through
`_report_from_counts` once, which hands back with the report the
position in byte counts of the element g it reports: the first maximal
byte, or the coset tie-break's position (A, b, c).  After the report
the scan builds a call that pairs H ∩ gE (`_pairs`), g·x being read off
the rows at that position below the bound and coded from E's columns
through g past it, or when every coset count ties, and hands back both.
`max_intersection` over the enumerated group stays the oracle for all.
"""

from __future__ import annotations

import functools
import warnings
import zlib
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, compress, product, repeat
from math import isqrt
from operator import add, itemgetter, mod, mul

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
    _ACTIONS,
    _identity,
    _special_linear_order,
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


def _check_set_space(q: int, d: int, name: str, points: PointSet) -> None:
    """Refuse a moving or fixed set that is not over F_q^d."""
    if points.field.q != q or points.dim != d:
        raise SpaceMismatch(f"{name} set lives in F_{points.field.q}^{points.dim}, the group acts on F_{q}^{d}")


_DOWN_ONE = bytes(1) + bytes(range(255))  # byte i to i - 1
_BITS = b"\x01\x02\x04\x08\x10\x20\x40\x80"  # byte i is 1 << i


def _space_indices(space: Space, name: str, points: PointSet) -> Sequence[int]:
    """Positions in the group's space of every point of a moving or fixed
    set: a flat set's bytes in all of F_q^d, and those bytes less one in
    all of it but the origin (`Space._flat_start`), unless the set holds
    the origin; otherwise looked up in the space's position dict."""
    _check_set_space(space.field.q, space.dim, name, points)
    first = None if points._flat is None else space._flat_start
    if first == 0 or (first and not points._holds_origin()):
        return points._flat.translate(_DOWN_ONE) if first else points._flat
    try:
        return list(map(space._index.__getitem__, points._coords))
    except KeyError as exc:
        raise SpaceMismatch(f"{name} set: {Vector(space.field, exc.args[0])!r} is not a point of {space!r}") from None


def _row_counts(row, e_codes: Sequence[int], h_codes: Sequence[int], size: int) -> bytes:
    """|H ∩ gE| for each of `size` elements g, one byte each, for E and H
    given by their flat indices, all below 256: `row(x)` holds the flat
    index of g·x for every g, so E's rows, each translated by H's marks,
    sum to the counts.  Every marked row, one row included, is read as a
    little-endian integer and the integers are added, all mapped in C.
    The caller keeps every count below 256, so no carry crosses a byte."""
    marks = bytearray(256)
    for y in h_codes:
        marks[y] = 1
    marked = map(bytes.translate, map(row, e_codes), repeat(marks))
    return sum(map(int.from_bytes, marked, repeat("little"))).to_bytes(size, "little")


def _pairs(images: Sequence[int], sources: Sequence, fixed, decode, decode_source):
    """H ∩ gE as (z, x) pairs with gx = z, in canonical z order, from the
    code images[i] of g·x for the point x of E coded sources[i] and the
    codes `fixed` of H, codes whose order is canonical: only the pairs
    read are decoded, z by `decode` and x by `decode_source`."""
    held = set(fixed)
    for z, x in sorted(compress(zip(images, sources), map(held.__contains__, images))):
        yield decode(z), decode_source(x)


def _flat_codes(points: PointSet) -> bytes:
    """The flat indices of the points, q^d <= 256, one byte each: the
    bytes a set drawn from flat indices holds, or coded from its tuples."""
    return bytes(_codes(points, points.field.q)) if points._flat is None else points._flat


def _group_counts(group: FiniteGroup, e_indices: Sequence[int], h_indices: Sequence[int]) -> Sequence[int]:
    """|H ∩ gE| for every element g of the group, in canonical order.

    From the group's image table (`FiniteGroup.columns`), reading the
    columns of whichever of E and X \\ E is smaller: g is a bijection of
    X, so |H ∩ gE| = |H| - |H ∩ g(X \\ E)|.  Up to 256 points the
    columns are byte rows, summed by the scans' kernel (`_row_counts`).
    When E or H is the whole space every count is the other's size.  An
    empty E or H counts 0 for every g without the image table, which a
    large group pays for.
    """
    if not e_indices or not h_indices:
        return bytes(group.order)
    n_x, nh, order = group.space.size, len(h_indices), group.order
    columns = group.columns()
    if n_x in (nh, len(e_indices)):
        return [min(nh, len(e_indices))] * order
    if flip := 2 * len(e_indices) > n_x:  # X \ E
        e_indices = (bytes(range(n_x)).translate(None, bytes(e_indices)) if n_x <= 256
                     else set(range(n_x)).difference(e_indices))
    if n_x <= 256:
        # Byte g of a column is the index of g·x.  A count stays below
        # |X| <= 256: no carry.
        counts = _row_counts(columns.__getitem__, e_indices, h_indices, order)
        return counts.translate(bytes(range(nh, -1, -1)).ljust(256, b"\0")) if flip else counts
    marks = bytearray(n_x + 1)
    for i in h_indices:
        marks[i] = 1
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
    )[0]


@functools.lru_cache(maxsize=8)
def _valid_slots(q: int, d: int) -> int:
    """The bits of the base-2q codes whose d digits are all < q: one
    repunit Σ_{r<q} 2^(r·w) per digit weight w, multiplied without a carry."""
    return functools.reduce(mul, [((1 << q * w) - 1) // ((1 << w) - 1)
                                  for w in ((2 * q) ** i for i in range(d))])


def _columns(points: PointSet, s: int = 1, g: GroupElement | None = None, columns: list | None = None) -> list:
    """The coordinate columns of the points x, of s·x, or of g·x = Mx + a
    for a group element g, mod q, from `columns`, the points' own columns
    as this returns them for s = 1, when a scan that maps them more than
    once has taken them.  Column i of g·x is m·x_j + a_i where row i of M
    has one nonzero entry m, at j (as a translation's rows do); otherwise
    the columns times the row's nonzero entries, summed in C.  While q <=
    256 every coordinate fits in a byte: each column is `bytes`, and
    m·x_j + a_i is one `bytes.translate`, through the dilation by m of
    `_space_table(q, 1)` translated by its shift by a; past it m·x_j +
    a_i is one comprehension."""
    q = points.field.q
    columns = columns or list(map(bytes if q <= 256 else tuple, zip(*points._coords)))

    def affine(column, m, a):
        if q > 256:
            return [(m * c + a) % q for c in column]
        _, _, scales, rows = _space_table(q, 1)
        return column.translate(scales[m].translate(rows[a].ljust(256, b"\0")))
    if g is None:
        return columns if s == 1 else [affine(column, s, 0) for column in columns]
    images = []
    for row, a in zip(g.linear, g.shift):
        terms = [(column, m) for m, column in zip(row, columns) if m]
        if len(terms) == 1:
            images.append(affine(*terms[0], a))
            continue
        image = repeat(a, len(points))
        for column, m in terms:
            image = map(add, image, map(mul, column, repeat(m)))
        images.append(list(map(mod, image, repeat(q))))
    return images


def _codes(points: PointSet, base: int, offset: int = 0, s: int = 1,
           g: GroupElement | None = None, columns: list | None = None) -> list[int]:
    """offset + Σ_i c_i·base^(d-1-i) for every point c of E, of s·E or of
    gE (`_columns`, which reads E's `columns` when given), E the points,
    by Horner's rule a coordinate column at a time."""
    columns = iter(_columns(points, s, g, columns))
    codes = next(columns, ())
    for column in columns:
        codes = map(add, map(mul, codes, repeat(base)), column)
    return list(map(add, codes, repeat(offset)) if offset else codes)


def _translation_counts(moving: PointSet, fixed: list[int],
                        columns: list | None = None) -> tuple[list[int], int] | dict[int, int]:
    """|H ∩ (moving + a)| for every shift a: as bit planes, or a sparse dict.

    Points and shifts are coded in base 2q, so adding two carries no digit;
    H is given by the codes `fixed` of its points, in any order, and E by
    its coordinate `columns` when the caller has taken them (`_codes`).

    Bit planes: T holds one bit per base-2q code.  Each y in H is marked
    once and d shift-ORs lift the marks to code(y + q·ε) for every ε in
    {0,1}^d, so for every shift t with digits < q the bit at code(x) +
    code(t) is set exactly when x + t lies in H mod q.  T is cut into
    pieces of w + stride bits, w = q(2q)^(d-1), at the multiples of
    stride = ⌈w / isqrt(|E|)⌉ that E reaches, and x's piece shifted right
    to code(x) and cut to the q^d slots whose digits are all < q
    (`_valid_slots`) is x's mask: it holds every such code(t).  The
    lowest digit of code(t) is below q, so bits [q, 2q) of each 2q-bit
    row of a mask are idle.  E's points are taken in pairs in code order:
    the second's piece is shifted right by q bits less (left when that is
    negative) and cut to the valid slots moved q bits up, and ORed with
    the first's mask it makes one window.  Carry-save full adders add the
    ⌊|E|/2⌋ windows into ⌈|E|/2⌉.bit_length() planes of O(w) bits, plane
    i holding bit i of the count of the pairs' first points at bit code(t)
    and of their second points at bit code(t) + q; the flush ripples in
    an odd last mask as its first carry, and a second ripple adds each
    plane's upper half, shifted down q bits, to its lower, so plane i
    holds bit i of the count of shift t at bit code(t).  The planes are
    returned with the valid slots, through which every plane is read:
    the bits outside them are not counts.

    Difference codes (sparse): with q added to every digit of y - x, each
    digit of code(y) - code(x) lies in [1, 2q), a Counter counts all
    |E||H| codes in C, and the distinct codes fold to the base-2q code
    Σ a_i (2q)^(d-1-i) of a = y - x mod q: O(|E||H|) time and memory.

    The finder scans |E| = |H| = h, so the planes run when
    w·h + 40·q^d <= 7000·h², fitted to both branches timed at |E| = |H|
    = h for q = 3 to 10007, d = 1 to 4: the branch it picks there is at
    most 1.17x slower than the other.
    """
    q, d = moving.field.q, moving.dim
    weights = [(2 * q) ** (d - 1 - i) for i in range(d)]
    width = q * weights[0]
    h = len(fixed)
    if len(moving) and width * h + 40 * q ** d <= 7000 * h * h:
        table = bytearray(width // 4 + 1)  # 2w bits: every base-2q code
        for y in fixed:
            table[y >> 3] |= _BITS[y & 7]
        table = int.from_bytes(table, "little")
        for w in weights:  # lift each digit y_i to y_i + q as well
            table |= table << q * w
        shifts = _codes(moving, 2 * q, columns=columns)
        stride = -(-width // isqrt(len(shifts)))
        valid = _valid_slots(q, d)
        upper = valid << q
        cut, start, end, first = (1 << width + stride) - 1, 0, 0, 0
        # pending[i], when nonzero, is one more window of weight 2^i.  Level
        # i receives n >> i of the n windows, and the flush an odd last mask,
        # so no carry passes the last level.
        levels = (len(shifts) + 1 >> 1).bit_length()
        planes, pending = [0] * levels, [0] * levels
        for s in shifts:
            if not start <= s < end:
                start = s - s % stride
                end, piece = start + stride, table >> start & cut
            if not first:  # a pair's first mask; H is not empty, so it is not 0
                first = piece >> s - start & valid
                continue
            k = s - start - q  # the second's, q bits up, on the idle half of the lowest digit
            m = first | (piece >> k if k >= 0 else piece << -k) & upper
            first = i = 0
            while p := pending[i]:  # full adder: plane + p + m
                pending[i] = 0
                plane = planes[i]
                u = p ^ m
                planes[i] = plane ^ u
                m = (p & m) | (plane & u)
                i += 1
            pending[i] = m
        # flush the pending windows, an odd last mask as the first carry, by
        # ripple, and add each plane's two halves by a second ripple
        carry, split = first, 0
        for i, (plane, p) in enumerate(zip(planes, pending)):
            u = p ^ carry
            carry = (p & carry) | (plane & u)
            plane ^= u
            high = plane >> q  # on the valid slots, the second masks' bits
            u = plane ^ high
            planes[i] = u ^ split
            split = (plane & high) | (split & u)
        return planes + [split], valid
    xs = _codes(moving, 2 * q, -q * sum(weights), columns=columns)
    diffs = Counter(y - x for x in xs for y in fixed)
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
    total, groups = 0, [(valid, 0)]
    for i in reversed(range(len(planes))):
        plane, split = planes[i], []
        total += (plane & valid).bit_count() << i
        for m, v in groups:
            hi = m & plane
            if hi != m:
                split.append((m ^ hi, v))
            if hi:
                split.append((hi, v + (1 << i)))
        groups = split if want_histogram else split[-1:]
    m, best_c = groups[-1]
    hist = {v: g.bit_count() for g, v in groups} if want_histogram else None
    return (m & -m).bit_length() - 1, best_c, total, hist


def _report_from_counts(counts: dict[int, int] | Sequence[int] | tuple[list[int], int],
                        moving: PointSet, fixed: PointSet, *, decode, first: int,
                        group_order: int, space_size: int, transitive: bool,
                        want_histogram: bool, smallest=None) -> tuple[IntersectionReport, int | None]:
    """The report of a kernel that counts |fixed ∩ g·moving| per element
    code, and the position in byte counts of the element it reports.

    Codes ascend in canonical element order, so the smallest maximal code
    is the canonical tie-break and the only one decoded.  A dict holds the
    nonzero counts: elements absent from it count zero, and `first`, the
    group's smallest code, answers when every count is zero.  A dense
    sequence holds the count of code i at position i for every element,
    and a tuple bit planes with the mask of their valid slots (`_read_planes`).
    No byte count exceeds min(|E|, |H|).  Without a histogram the best
    count is the first value from there down that `v in counts` finds,
    and the total, while best·|G| < 65,520, is the low half of the bytes'
    Adler-32 checksum, 1 + their sum mod 65,521, less 1, and past it is
    summed over the nonzero bytes alone; with one, each
    present value is counted by `counts.count(v)` and both are read off
    the tally.  Bytes whose positions are not in canonical order come
    with the tie-break `smallest(counts, v)`, which hands back the code of
    the smallest element counting v and its position, asked only when
    the counts do not all tie, that is when the total is not best·|G|.
    With a histogram, a dict's or a list's maximum and total are read
    off it rather than off the counts again.  On an empty space the
    bound is 0.

    The position handed back with the report is that of the first
    maximal byte, or the tie-break's; it is None for dict, list and
    bit-plane counts, and when every count ties under a tie-break.
    """
    n_e, n_h = len(moving), len(fixed)
    if not n_e or not n_h:
        warnings.warn("empty point set: the intersection bound is vacuous")
    hist = at = None
    if isinstance(counts, tuple):
        best, best_c, total, hist = _read_planes(*counts, want_histogram)
    elif isinstance(counts, bytes):
        if want_histogram:
            hist = {v: counts.count(v) for v in range(min(n_e, n_h) + 1) if v in counts}
            best_c = max(hist)
            total = sum(c * n for c, n in hist.items())
        else:
            best_c = min(n_e, n_h)
            while best_c and best_c not in counts:
                best_c -= 1
            # Adler-32's low half is 1 + the byte sum mod 65521, read in C
            total = ((zlib.adler32(counts) & 0xFFFF) - 1 if best_c * len(counts) < 65520
                     else sum(counts.translate(None, b"\0")))
        if smallest is None:
            best = at = counts.index(best_c)
        else:  # every count is at most best_c: they all tie when they sum to best_c·|G|
            best, at = (first, None) if total == best_c * len(counts) else smallest(counts, best_c)
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
        bound=Fraction(n_e * n_h, space_size) if space_size else Fraction(0),
        double_count_total=total, transitive=transitive,
        group_order=group_order, space_size=space_size,
        moving_size=n_e, fixed_size=n_h, per_g_histogram=hist,
    ), at


@functools.lru_cache(maxsize=8)
def _space_table(q: int, d: int) -> tuple:
    """The tables of F_q^d, q^d <= 256, that both finders read, by flat
    index x in lex order: vectors[x] is x's coordinate tuple, byte x of
    digits[j] its coordinate j, byte x of scales[e] the flat index of e·x,
    and byte t of rows[x] that of x + t, so rows[x] is column x of the
    translations' image table.  scales[e] is each digit column translated
    to e times its digit at its weight, the d added as integers with no
    carry.  The rows are listed a coordinate j at a time, the row of x +
    a·e_j being that of x translated a times through the step v ↦ v +
    e_j: one `bytes.translate` per row."""
    n = q ** d
    vectors = tuple(product(range(q), repeat=d))
    digits = tuple(map(bytes, zip(*vectors)))
    weights = [q ** (d - 1 - j) for j in range(d)]
    scales = tuple(sum(int.from_bytes(c.translate(bytes(e * a % q * w for a in range(q)).ljust(256, b"\0")), "little")
                       for c, w in zip(digits, weights)).to_bytes(n, "little").ljust(256, b"\0") for e in range(q))
    rows = [bytes(range(n))]
    for w in weights:
        step = bytes(v - (q - 1) * w if v // w % q == q - 1 else v + w for v in range(n)).ljust(256, b"\0")
        rows = [row for r in rows for row in accumulate(repeat(step, q - 1), bytes.translate, initial=r)]
    return vectors, digits, scales, tuple(rows)


def max_translation_intersection_fast(moving: PointSet, fixed: PointSet, *,
                                      want_histogram: bool = False) -> IntersectionReport:
    """Translation-group maximizer, counting every shift without the group.

    Output contract is identical to `max_intersection` over the full
    translation group: the reported shift is the lexicographically
    smallest maximizer, the bound is |E||H|/q^d, and the double-count
    total, summed from the counts, is |E||H| (each pair contributes to
    exactly one shift).  The similarity finder's scan counts (`_shift_overlap`).
    """
    _check_compatible(moving, fixed)
    return _shift_overlap(moving, 1, fixed, want_histogram)[0]


def _shift_overlap(points: PointSet, s: int, fixed: PointSet, want_histogram: bool = False):
    """The scan of E = points against H = s·fixed over the q^d shifts:
    its report, and a call that hands back H ∩ (E + a) for its shift a as
    (z, x) pairs with x + a = z, in canonical z order (`_pairs`).  No
    point set is built.

    For q^d < 256 the counts are bytes in lex shift order, E's rows of
    `_space_table` summed by the byte kernel (`_row_counts`), E given by
    its flat indices (`_flat_codes`): H is fixed's flat indices
    translated through the table's dilation by s.  The report builder
    hands back a's position p, its first maximal byte; x + a = a + x is
    byte x of a's row, so E's flat indices translated through row p are
    every x + a, and the pairs are decoded off the table's vectors.
    Otherwise both forms of `_translation_counts` key a shift by its
    base-2q code, whose digits are the shift's coordinates: E's
    coordinate columns are taken once (`_columns`), H is coded from
    fixed's columns times s (E's when fixed is E), the builder hands back
    no position, and x + a is coded from E's columns plus a.  Both branches
    report through one `_report_from_counts` call.
    """
    field, d = points.field, points.dim
    q, n = field.q, field.q ** d
    if n > 255:
        coords = functools.partial(index_to_coords, q=2 * q, d=d)
        columns = _columns(points)  # E's, taken once for E, g·E and, when fixed is E, H
        held = _codes(fixed, 2 * q, 0, s, columns=columns if fixed is points else None)
        counts = _translation_counts(points, held, columns)
        sources, source = points._coords, tuple  # a tuple is its own source
    else:
        vectors, _, scales, rows = _space_table(q, d)
        coords = source = vectors.__getitem__
        sources = codes = _flat_codes(points)
        held = (codes if fixed is points else _flat_codes(fixed)).translate(scales[s])
        counts = _row_counts(rows.__getitem__, codes, held, n)
    report, p = _report_from_counts(
        counts, points, fixed, decode=lambda i: Translation._of(field, _identity(d), coords(i)),
        first=0, group_order=n, space_size=n, transitive=True, want_histogram=want_histogram,
    )
    images = ((lambda: _codes(points, 2 * q, 0, 1, report.best_g, columns)) if p is None
              else lambda: codes.translate(rows[p].ljust(256, b"\0")))
    return report, lambda: _pairs(images(), sources, held, coords, source)


@functools.lru_cache(maxsize=8)
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
def _special_linear_plan(q: int, d: int) -> tuple:
    """The tables of SL(d, q), d >= 2, that depend only on (q, d): the
    coset scan, its tie-break and the transporter counts all read them.

    SL(d, q) is the disjoint union of the cosets h_c·S over the points c
    of X = F_q^d \\ 0, in lex order.  S, the stabiliser of e_1, holds the
    maps s = [[1, b], [0, A]], A in SL(d-1, q) in canonical order, then b
    in F_q^(d-1) in lex order.  The carrier h_c has the columns c,
    λ⁻¹·e_j1, e_j2, ..., with i c's pivot (its first nonzero entry),
    j1 < j2 < ... the other indices and λ = (-1)^i c_i, so det h_c = 1.
    Row r of h_c is (c_r, u_r), u_i = 0, u_j1 = λ⁻¹·e_1 and u_jk = e_k, so
    row r of h_c·s is (c_r, c_r·b + u_r·A).

    Vectors are coded in base 2q, digit j weighing w2q[j] = (2q)^(d-1-j),
    so two codes add with no carry and wrap, a table over every base-2q
    code built here, takes a sum to its flat index mod q.  eb[e] codes
    e·b over b; carriers[c - 1], for the point of flat index c, holds d
    tables coding u_r·A over A, which all carriers share; inverse[e] = 1/e.

    While q^d <= 256 every flat index and count fits in a byte, and the
    coset scan's tables follow: columns[r][c - 1] = c_r, off the digit
    columns of `_space_table`; omega[tail][lead]
    is ω_w, w = lead·q^(d-1) + tail, whose byte c - 1 is the flat index of
    h_c·w (no digit adds more than two terms below q); leads[x] holds the
    lead x_0 + b·x' of s·x over b, and images[x'] the flat index of A·x'
    over A: each row of A is translated to its dot with x' times its digit
    weight, and the d - 1 rows are added as integers, with no carry.
    For d = 2, A = 1 and s·x's row over (b, c) is one block: joined[x]
    holds it, ω over the leads of x joined, for every flat index x; past
    d = 2 the rows are too many to keep (46 MB for SL(3, 5)) and joined
    is empty.
    """
    w2q = tuple((2 * q) ** (d - 1 - j) for j in range(d))
    indices, wrap = list(range(q ** d)), [0]
    for _ in range(d):  # wrap's entries point into one list, so it adds no int objects
        wrap = [indices[w * q + r % q] for w in wrap for r in range(2 * q)]
    inverse = (0, *(pow(e, q - 2, q) for e in range(1, q)))
    vecs = list(product(range(q), repeat=d - 1))
    eb = tuple(tuple(map(sum, product(*[[e * v % q * w for v in range(q)] for w in w2q[1:]]))) for e in range(q))
    flat = {v: n for n, v in enumerate(vecs)}
    blocks = list(_unimodular_rows(q, d - 1))
    a_rows = [[flat[a[k]] for a in blocks] for k in range(d - 1)]
    # u·A over A for u = e·e_1, e in F_q, then for u = e_2, ..., e_(d-1)
    units = [tuple(map(codes.__getitem__, a_rows[0])) for codes in eb]
    units += [tuple(map(eb[1].__getitem__, r)) for r in a_rows[1:]]
    small = q ** d <= 256
    carriers, rows = [], []
    for i in reversed(range(d)):  # in lex order, the points (0, ..., 0, c_i, ...) of pivot i
        others = [j for j in range(d) if j != i]
        for ci in range(1, q):
            scale = [inverse[(-1) ** i * ci % q]] + [1] * (d - 2)  # λ⁻¹ at j1, then 1
            carrier = [units[0]] * d  # u_i = 0
            for j, k in zip(others, [scale[0], *range(q, q + d - 2)]):  # λ⁻¹·e_1 at j1, e_k at jk
                carrier[j] = units[k]
            carriers += [tuple(carrier)] * q ** (d - 1 - i)
            if small:  # h_c·w over w, one digit of w at a time
                tails = [0]
                for j, s in zip(others, scale):
                    tails = [t + s * e % q * w2q[j] for t in tails for e in range(q)]
                for rest in product(range(q), repeat=d - 1 - i):
                    heads = [sum(a * v % q * w for v, w in zip((ci, *rest), w2q[i:])) for a in range(q)]
                    rows.append(bytes([wrap[h + t] for h in heads for t in tails]))
    plan = (w2q, tuple(wrap), inverse, eb, tuple(carriers))
    if not small:
        return plan
    n, m = q ** d, q ** (d - 1)
    table = b"".join(rows)
    omega = tuple(tuple(table[lead * m + tail::n] for lead in range(q)) for tail in range(m))
    dots = [bytes([sum(map(mul, b, v)) % q for b in vecs]) for v in vecs]
    leads = tuple(bytes([(x // m + v) % q for v in dots[x % m]]) for x in range(n))
    a_rows = list(map(bytes, a_rows))
    images = tuple(sum(int.from_bytes(r.translate(bytes(v * q ** (d - 2 - k) for v in dot).ljust(256, b"\0")),
                       "little") for k, r in enumerate(a_rows)).to_bytes(len(blocks), "little") for dot in dots)
    columns = tuple(c[1:] for c in _space_table(q, d)[1])
    joined = tuple(b"".join(map(omega[x % m].__getitem__, leads[x])) for x in range(n)) if d == 2 else ()
    return (*plan, columns, omega, leads, images, joined)


def _transporter_counts(moving: PointSet, fixed: Sequence[tuple]) -> dict[int, int]:
    """Nonzero values of code(g) -> |H ∩ g·moving| over g in SL(d, q), H
    given by the coordinate tuples `fixed` of its points, in any order.

    code(g) is the base-q integer of g's row-major entries, so code order
    is canonical order.  Each incidence of the paper's double count
    Σ_g |H ∩ gE| = Σ_{(x,y) ∈ E×H} |{g : gx = y}| is counted at its g: the
    g with gx = y are h_y·S·h_x⁻¹ (`_special_linear_plan`).  With i, j_k
    and λ those of x, h_x⁻¹ has rows r_0 = e_i/x_i and r_k = s_k·(e_jk -
    (x_jk/x_i)·e_i), s_1 = λ and s_k = 1 after it, and row r of g is
    y_r r_0 + Σ_{k>=1} p_rk r_k with p = h_y·s.  Per call, d flat index
    lists hold, at every (y, s), the lead offset of y_r among H's
    coordinates plus the code of p_r's tail y_r·b + u_r·A, off the plan's
    e·b codes and y's carrier tables.  Per x, a heads × tails table holds
    |leads|·q^(d-1) rows of g, comprehensions zip the d lists into |H||S|
    codes and one Counter update counts them: no loop runs per pair.
    Both sets avoid the origin.  SL(1, q) is the identity alone: it
    counts |E ∩ H|.
    """
    q, d = moving.field.q, moving.dim
    if d == 1:
        common = len(set(fixed).intersection(moving._coords))
        return {1: common} if common else {}
    qd, weights = q ** d, [q ** (d - 1 - j) for j in range(d)]
    w2q, wrap, inverse, eb, carriers = _special_linear_plan(q, d)[:5]
    leads = sorted({c for y in fixed for c in y})
    # Per lead a: its offset as digit 0 plus the code of a·b, over b in lex order.
    lead_b = {a: [n * w2q[0] + t for t in eb[a]] for n, a in enumerate(leads)}
    index = [[] for _ in range(d)]
    for ys in fixed:
        for col, units, a in zip(index, carriers[sum(map(mul, ys, weights)) - 1], ys):
            col.extend([wrap[v + u] for v in units for u in lead_b[a]])

    counts: Counter = Counter()
    for x in moving._coords:
        i = next(j for j, c in enumerate(x) if c)
        inv, s, w = inverse[x[i]], (-1) ** i * x[i] % q, w2q[i]  # 1/x_i, λ
        heads = [a * inv % q * w for a in leads]  # y_r r_0, base 2q as the table's rows
        tails = sums = [0]  # Σ_k c_k r_k over c in F_q^(d-1), lex order
        for j in (*range(i), *range(i + 1, d)):  # r_k: s_k at j_k, -s_k·x_jk/x_i at i
            digit = [e * s % q * w2q[j] for e in range(q)]
            step = [e * (-s * x[j] * inv % q) for e in range(q)]
            tails = [t + u for t in tails for u in digit]
            sums = [v + u for v in sums for u in step]
            s = 1
        tails = [t + v % q * w for t, v in zip(tails, sums)]
        table = [wrap[h + t] for h in heads for t in tails]
        codes = [table[a] * qd + table[b] for a, b in zip(index[0], index[1])]
        for col in index[2:]:
            codes = [c * qd + table[j] for c, j in zip(codes, col)]
        counts.update(codes)
    return counts


def _coset_counts(e_codes: Sequence[int], h_codes: Sequence[int], plan: tuple, q: int, d: int) -> bytes:
    """|H ∩ g·E| over g in SL(d, q), d >= 2 and q^d <= 256, one byte per
    element in (A, b, c) order, g = h_c·s, off the `plan` tables, for E
    and H given by their flat indices, `e_codes` and `h_codes`.

    SL(d, q) is the disjoint union of the cosets h_c·S over c in X, and
    h_c·s sends x into H exactly when h_c·(s·x) does.  So per x the
    columns ω_(s·x), over s, joined, marked by H, show which of the |G|
    elements send x into H, and their sum over E (`_row_counts`) is the
    counts.  s·x = (x_0 + b·x', A·x'): per A·x' one block joins ω over
    the leads of x, and the blocks are joined in the order of the images
    A·x'.  For d = 2 the one block is x's row, read off the plan's
    `joined` table.
    """
    omega, leads, images, joined = plan[-4:]
    m = q ** (d - 1)

    def row(x):
        tail = x % m
        # SL(d-1, q) moves a nonzero tail to every nonzero tail
        block = {a: b"".join(map(omega[a].__getitem__, leads[x])) for a in (range(1, m) if tail else (0,))}
        return b"".join(map(block.__getitem__, images[tail]))

    return _row_counts(joined.__getitem__ if d == 2 else row, e_codes, h_codes, _special_linear_order(q, d))


def _coset_images(plan: tuple, q: int, d: int, codes: Sequence[int], p: int) -> list[int]:
    """The flat index of g·x for every flat index x in `codes`, where g =
    h_c·s is the element at position p = (A·q^(d-1) + b)·(q^d - 1) + c - 1
    of `_coset_counts`' counts: s·x has lead leads[x][b] and tail
    images[x'][A], and byte c - 1 of ω over it is h_c·(s·x).  For d = 2
    that is byte p of x's row, joined[x]."""
    omega, leads, images, joined = plan[-4:]
    if d == 2:
        return [joined[x][p] for x in codes]
    m, size = q ** (d - 1), q ** d - 1
    a, b, c = p // size // m, p // size % m, p % size
    return [omega[images[x % m][a]][leads[x][b]][c] for x in codes]


def _smallest_coset_code(plan: tuple, q: int, d: int, counts: bytes, best: int) -> tuple[int, int]:
    """The code of the canonically smallest element of SL(d, q) whose
    count in `_coset_counts`' `counts` is `best`, and its position there:
    the pair that `_report_from_counts` takes from its tie-break, as it is.

    Row r of h_c·s is (c_r, c_r·b + u_r·A), so row 0 leads with c_0.  Up
    to max(q^d - 1, |G|/(128q)) positions holding `best` are found by
    `bytes.find`; past that, c's columns `counts[c::q^d - 1]` are read
    in lex order, which is c_0 order, up to the first lead that holds
    it.  The positions, as (c, b, A), are filtered row by row, keeping
    those whose row codes c_r·q^(d-1) + tail are least, off the plan's
    e·b codes and c's carrier tables, while more than one is left.  The
    one left, or the only one found, is decoded off the same tables: its
    code is the rows' codes in base q^d.
    """
    _, wrap, _, eb, carriers, columns = plan[:6]
    n, m = q ** d, q ** (d - 1)
    p = counts.find(best)
    c, b, a = p % (n - 1), p // (n - 1) % m, p // (n - 1) // m
    found = []  # listed only when more than one position holds `best`
    if counts.find(best, p + 1) >= 0:
        # listing and filtering cost about 0.5 µs a position, reading the
        # columns of one lead about 4 ns a byte of their |G|/q
        cap = max(n - 1, len(counts) // (128 * q))
        while p >= 0 and len(found) < cap:
            found.append((p % (n - 1), p // (n - 1) % m, p // (n - 1) // m))
            p = counts.find(best, p + 1)
        if p >= 0:  # many ties: the positions of the smallest lead alone
            found = []
            for c, lead in enumerate(columns[0]):
                if found and lead > columns[0][found[0][0]]:
                    break
                column = counts[c::n - 1]
                j = column.find(best)
                while j >= 0:
                    found.append((c, j % m, j // m))
                    j = column.find(best, j + 1)
    code = 0
    for r, lead in enumerate(columns):
        if len(found) > 1:  # keep the positions whose row r codes least
            rows = [lead[c] * m + wrap[eb[lead[c]][b] + carriers[c][r][a]] for c, b, a in found]
            low = min(rows)
            found = [t for t, v in zip(found, rows) if v == low]
        if found:
            c, b, a = found[0]
        code = code * n + lead[c] * m + wrap[eb[lead[c]][b] + carriers[c][r][a]]
    return code, (a * m + b) * (n - 1) + c


def _coset_overlap(points: PointSet, s: int, fixed: PointSet, want_histogram: bool = False):
    """The scan of E = points against H = s·fixed over SL(d, q): its
    report, `max_intersection`'s over the group on the punctured space,
    and a call that hands back H ∩ gE for its element g as (z, x) pairs
    with gx = z, in canonical z order (`_pairs`).  No point set is built.
    The group build's budget is checked first, as on every det scan.

    For d >= 2 and q^d <= 256, H is fixed's flat indices translated
    through the table of s·x (`_space_table`), E's flat indices
    (`_flat_codes`) serve both the scan (`_coset_counts`) and the
    overlap, whose pairs are decoded off the table's vectors, and the
    tie-break is `_smallest_coset_code`.  The report builder hands back
    the position p of g that the tie-break found, and g·x is read off the
    plan there (`_coset_images`); when every count ties, g is the first
    element, p is None and g·x is coded from E's columns through g.
    Otherwise the transporters are counted (`_transporter_counts`)
    against H's coordinate tuples, fixed's columns times s, and g·x is
    E's columns through g.  Both branches report through one
    `_report_from_counts` call.
    """
    field, d = points.field, points.dim
    q = field.q
    action = _ACTIONS["special-linear"]
    _check_budget(q, d ** action.power, action.label)
    if d < 2 or q ** d > 256:
        held = list(zip(*_columns(fixed, s)))
        counts = _transporter_counts(points, held)
        # coordinate tuples are their own canonical codes: `tuple` decodes them as they are
        coords, sources, smallest = tuple, points._coords, None
        images = lambda g: list(zip(*_columns(points, 1, g)))
    else:
        plan, codes = _special_linear_plan(q, d), _flat_codes(points)
        vectors, _, scales = _space_table(q, d)[:3]
        coords, sources = vectors.__getitem__, codes
        held = (codes if fixed is points else _flat_codes(fixed)).translate(scales[s])
        counts = _coset_counts(codes, held, plan, q, d)
        smallest = functools.partial(_smallest_coset_code, plan, q, d)
        images = lambda g: _codes(points, q, 0, 1, g)

    def decode(code):  # the base-q integer of the row-major entries
        flat = index_to_coords(code, q, d * d)
        return SpecialLinear._of(field, tuple(flat[i * d:(i + 1) * d] for i in range(d)), (0,) * d)

    report, p = _report_from_counts(
        counts, points, fixed, decode=decode, first=_first_special_linear_code(q, d),
        group_order=_special_linear_order(q, d), space_size=q ** d - 1,
        transitive=action.transitive(q, d, None), want_histogram=want_histogram, smallest=smallest,
    )
    if p is not None:  # g·x read off the plan at g's position
        images = lambda g: _coset_images(plan, q, d, codes, p)
    return report, lambda: _pairs(images(report.best_g), sources, held, coords, coords)


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


def _not_transitive(kind: str, space: str) -> NotTransitive:
    return NotTransitive(f"{kind} group is not transitive on its {space} space; "
                         "the intersection bound does not apply")


def _require_transitive(group: FiniteGroup) -> None:
    if not group.is_transitive():
        raise _not_transitive(group.kind, group.space.kind)


def _audit(group: FiniteGroup, draws) -> BoundAudit:
    """Tally the bound and the double count over subset pairs.

    `draws` yields (e_mask, h_masks): one moving set E and the fixed sets
    H to pair with it, so the |G| images of E are built once per E: the
    image table (`FiniteGroup.columns`) is read once, as the bit 1 << y
    of every image y of every point, and E's lists of bits are summed
    element by element.  Exact integer comparisons throughout: a bound
    violation is best*|X| < |E||H|, a double-count mismatch is
    total*|X| != |G||E||H|.
    """
    n = group.space.size
    bits = [[1 << y for y in column] for column in group.columns()]
    g_order = group.order
    pairs = 0
    violations = 0
    mismatches = 0
    worst = -(n * max(g_order, 1))  # any valid pair beats this
    for e_mask, h_masks in draws:
        e_indices = [i for i in range(n) if e_mask >> i & 1]
        ce = len(e_indices)
        imgs = list(map(sum, zip(*map(bits.__getitem__, e_indices))))  # distinct bits: their OR
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


def _check_audit_space(n: int) -> None:
    """Refuse an all-subset-pair audit of a space of n points past AUDIT_SPACE_LIMIT."""
    if n > AUDIT_SPACE_LIMIT:
        raise EnumerationCapExceeded(
            f"subset-pair audit needs a space of at most {AUDIT_SPACE_LIMIT} points, got {n}"
        )


def exhaustive_pairs_audit(group: FiniteGroup) -> BoundAudit:
    """Check the bound and the double count over ALL subset pairs.

    Walks every pair (E, H) of subsets of the space — 4^|X| pairs — so
    the space is capped at AUDIT_SPACE_LIMIT points.
    """
    _require_transitive(group)
    n = group.space.size
    _check_audit_space(n)
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
