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

Translations count the pairs (x, y) in E × H with y - x = a instead:
points coded in base 2q let C count all |E||H| differences in O(|E||H|)
time and memory for any q, and shifts keyed by lexicographic flat index
make the same tie-break a minimum over integers.
"""

from __future__ import annotations

import functools
import warnings
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .errors import (
    DimensionMismatch,
    EnumerationCapExceeded,
    FieldMismatch,
    NotInSpace,
    NotTransitive,
    SpaceMismatch,
)
from .geometry import PointSet, Vector, index_to_coords
from .groups import FiniteGroup, GroupElement, Space, Translation
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
        return [space.index(p) for p in points]
    except NotInSpace as exc:
        raise SpaceMismatch(f"{name} set: {exc}") from None


def _image_mask(perm, indices) -> int:
    m = 0
    for i in indices:
        m |= 1 << perm[i]
    return m


def max_intersection(group: FiniteGroup, moving: PointSet, fixed: PointSet, *,
                     want_histogram: bool = False) -> IntersectionReport:
    """Exact maximum of |fixed ∩ g·moving| over every element of the group.

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

    perms = group.perms()
    h_mask = 0
    for i in h_indices:
        h_mask |= 1 << i

    # One count per element, in canonical order; index() finds the first
    # maximum, which is the canonical tie-break.
    counts = [(_image_mask(perm, e_indices) & h_mask).bit_count() for perm in perms]
    best_c = max(counts)
    best_i = counts.index(best_c)

    hist = dict(Counter(counts)) if want_histogram else None
    return IntersectionReport(
        best_g=group.elements[best_i], best_count=best_c, bound=bound,
        double_count_total=sum(counts), transitive=transitive,
        group_order=group.order, space_size=n_x,
        moving_size=len(moving), fixed_size=len(fixed),
        per_g_histogram=hist,
    )


@functools.lru_cache(maxsize=8)
def _wrap_table(q: int, d: int) -> tuple[int, ...]:
    """Base-2q difference code -> flat index of the difference mod q."""
    # Entries point into one shared list, so the table adds no int objects.
    flat = list(range(q ** d))
    wrap = [0]
    for _ in range(d):
        wrap = [flat[w * q + r % q] for w in wrap for r in range(2 * q)]
    return tuple(wrap)


def _translation_counts(moving: PointSet, fixed: PointSet) -> dict[int, int]:
    """Nonzero values of flat(a) -> |fixed ∩ (moving + a)|.

    flat(a) = sum of a_i q^(d-1-i), so flat order is lexicographic order.
    Points are coded in base 2q with q added to every digit of y, so each
    digit of code(y) - code(x) lies in [1, 2q), nothing borrows, and a
    Counter counts all |E||H| difference codes in C.  Codes fold to
    flat((y - x) mod q) through a wrap table when (2q)^d <= |E||H|, else
    by divmod on the distinct codes: O(|E||H|) time and memory for any q.
    """
    _check_compatible(moving, fixed)
    q = moving.field.q
    d = moving.dim
    base = 2 * q
    weights = [base ** (d - 1 - i) for i in range(d)]
    offset = q * sum(weights)
    xs = [sum(map(mul, p.coords, weights)) for p in moving.points]
    ys = [sum(map(mul, p.coords, weights), offset) for p in fixed.points]
    if base ** d <= len(xs) * len(ys):
        wrap = _wrap_table(q, d)
        return Counter(wrap[y - x] for x in xs for y in ys)
    counts: dict[int, int] = {}
    for code, c in Counter(y - x for x in xs for y in ys).items():
        i = 0
        for w in weights:  # the digit code // w % base folds to digit % q
            i = i * q + code // w % base % q
        counts[i] = counts.get(i, 0) + c
    return counts


def translation_count_map(moving: PointSet, fixed: PointSet) -> dict[tuple[int, ...], int]:
    """Nonzero values of a -> |fixed ∩ (moving + a)|, via difference counting.

    A point y of the fixed set lies in moving + a exactly when
    a = y - x for some x in the moving set, so the count of a is the
    number of pairs (x, y) with difference a.  Costs O(|E||H|) time and
    memory instead of O(q^d |E|); only nonzero shifts are decoded.
    """
    counts = _translation_counts(moving, fixed)
    return {index_to_coords(i, moving.field.q, moving.dim): c for i, c in counts.items()}


def max_translation_intersection_fast(moving: PointSet, fixed: PointSet, *,
                                      want_histogram: bool = False) -> IntersectionReport:
    """Translation-group maximizer via the difference histogram.

    Output contract is identical to `max_intersection` over the full
    translation group: the reported shift is the lexicographically
    smallest maximizer, the bound is |E||H|/q^d, and the double-count
    total is |E||H| (each pair contributes to exactly one shift).  Counts
    stay keyed by flat index, so the smallest maximal index is that shift
    and the only one decoded; time and memory are O(|E||H|).
    """
    counts = _translation_counts(moving, fixed)
    field = moving.field
    q = field.q
    d = moving.dim
    order = q ** d

    if not counts:
        warnings.warn("empty point set: the intersection bound is vacuous")
    best_c = max(counts.values(), default=0)
    best_i = min((i for i, c in counts.items() if c == best_c), default=0)

    hist = None
    if want_histogram:
        hist = dict(Counter(counts.values()))
        zeros = order - len(counts)
        if zeros:
            hist[0] = hist.get(0, 0) + zeros

    return IntersectionReport(
        best_g=Translation(Vector(field, index_to_coords(best_i, q, d))),
        best_count=best_c,
        bound=Fraction(len(moving) * len(fixed), order),
        double_count_total=len(moving) * len(fixed),
        transitive=True,
        group_order=order,
        space_size=order,
        moving_size=len(moving),
        fixed_size=len(fixed),
        per_g_histogram=hist,
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
