"""Deterministic 64-bit generator for reproducible sampling.

SplitMix64 (Steele, Lea and Flood, OOPSLA 2014): the state advances by a
fixed odd constant γ and each output is a bijective mix of the new state.
Every draw is a pure function of integers, so a seed produces the same
stream on every platform and Python build; published experiment tables
can therefore be regenerated bit-for-bit by third parties.  Output k is
the mix of state + k·γ alone, so draws are mixed in bulk, up to _BLOCK
at once in the 128-bit lanes of one integer.  The lane constants (all
ones, the steps (k+1)·γ and the 64-bit lane mask) are built once per
process by doubling and cut to each batch's length.  `sample_indices`
takes the picks of a dense batch that rejects no draw in one pass, and
its memory stays O(count) whatever the range.
"""

from __future__ import annotations

import struct
from operator import add, mod

MASK64 = (1 << 64) - 1

_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_SPAN = 1 << 64
_BLOCK = 1024  # lanes mixed at once; each lane constant is 16 KiB
_DENSE = 4  # ranges up to this many times the sample are shuffled as a list


def _lane_block() -> tuple[int, int]:
    """_BLOCK 128-bit lanes of 1, and of (k+1)·γ in lane k, by doubling:
    lanes m..2m-1 are lanes 0..m-1 plus m·γ."""
    ones, steps, m = 1, _GAMMA, 1
    while m < _BLOCK:
        shift = 128 * m
        steps |= (steps + m * _GAMMA * ones) << shift
        ones |= ones << shift
        m *= 2
    return ones, steps


_ONES, _STEPS = _lane_block()
_LOW = _ONES * MASK64  # the low half of every lane


def _mixed(state: int, count: int) -> tuple[int, ...]:
    """Outputs 1..count of a generator at `state`, count <= _BLOCK.

    Lane k of one integer holds state + (k+1)·γ, below 2^76: the block
    constants cut to count lanes.  Each round masks every lane to 64
    bits, so a product by a 64-bit constant stays inside its lane; an
    AND with the whole block's mask is as long as the shorter operand.
    """
    cut = (1 << 128 * count) - 1
    z = (state * (_ONES & cut) + (_STEPS & cut)) & _LOW
    z = ((z ^ (z >> 30)) & _LOW) * _MIX1 & _LOW
    z = ((z ^ (z >> 27)) & _LOW) * _MIX2 & _LOW
    z ^= z >> 31
    # Little-endian by name, not memoryview.cast("Q"), which reads the
    # host's byte order: the stream must not depend on the host.  "8x"
    # skips each lane's high half.
    return struct.unpack("<" + "Q8x" * count, z.to_bytes(16 * count, "little"))


class SplitMix64:
    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & MASK64

    def next_u64(self) -> int:
        """The mix of state + γ (`_fold` with a part of 0); the state advances by γ."""
        z = _fold(self.state, 0)
        self.state = (self.state + _GAMMA) & MASK64
        return z

    def next_below(self, n: int) -> int:
        """Uniform draw from [0, n), unbiased via rejection of the top band;
        n above 2^64 is refused, as no draw would ever be kept."""
        if n <= 0:
            raise ValueError(f"next_below needs a positive bound, got {n}")
        if n > _SPAN:
            raise ValueError(f"next_below covers bounds up to 2^64, got {n}")
        limit = _SPAN - _SPAN % n
        while True:
            u = self.next_u64()
            if u < limit:
                return u % n

    def next_bits(self, n: int) -> int:
        """Uniform n-bit integer, n <= 64."""
        if not 0 <= n <= 64:
            raise ValueError(f"bit count out of range: {n}")
        if n == 0:
            return 0
        return self.next_u64() & ((1 << n) - 1)

    def _draws(self, count: int) -> list[int]:
        """The next `count` outputs of `next_u64`, mixed _BLOCK at a time
        into one list (`_mixed`)."""
        state = self.state
        self.state = (state + count * _GAMMA) & MASK64
        out = []
        for start in range(0, count, _BLOCK):
            out += _mixed((state + start * _GAMMA) & MASK64, min(_BLOCK, count - start))
        return out

    def sample_indices(self, total: int, count: int) -> list[int]:
        """`count` distinct indices from range(total), uniformly without replacement.

        Partial Fisher-Yates on bulk draws (`_draws`), one per pick still
        missing, so no batch runs past the last draw used; pick i rejects
        the top-band draws that `next_below(total - i)` rejects.  Picks and
        final state therefore equal those of one `next_below` call per pick.
        When the range is at most _DENSE times count and the first batch's
        draws all lie below 2^64 - total, none is rejected, so the offsets
        i + u_i mod (total - i) are taken in one pass and swapped in a list
        of the whole range.  Otherwise picks are made one by one, storing
        only displaced slots, so memory is O(count) even for huge ranges.
        More than 2^64 indices are refused before any draw.
        """
        if count < 0 or count > total:
            raise ValueError(f"cannot sample {count} of {total}")
        if total > _SPAN:
            raise ValueError(f"cannot sample from more than 2^64 indices, got {total}")
        if not count:
            return []
        sure = _SPAN - total  # a draw below this is kept for every bound <= total
        draws = self._draws(count)
        if total <= _DENSE * count and max(draws) < sure:  # dense, no draw rejected
            pool = list(range(total))
            for i, j in enumerate(map(add, range(count), map(mod, draws, range(total, total - count, -1)))):
                pool[i], pool[j] = pool[j], pool[i]
            del pool[count:]
            return pool
        displaced: dict[int, int] = {}
        picked: list[int] = []
        i = 0
        while True:  # a second batch only after a rejection
            for u in draws:
                n = total - i
                if u >= sure and u >= _SPAN - _SPAN % n:
                    continue
                j = i + u % n
                picked.append(displaced.get(j, j))
                displaced[j] = displaced.get(i, i)
                i += 1
            if i == count:
                return picked
            draws = self._draws(count - i)


def derive_seed(base: int, *parts: int) -> int:
    """Fold integer parameters into a base seed, one mixing round per part.

    Used to give every cell of a parameter sweep its own stable stream.
    Each round is `SplitMix64(acc ^ part).next_u64()` (`_fold`): the base's
    own round folds a part of 0.
    """
    acc = base & MASK64
    for p in (0, *parts):
        acc = _fold(acc, p)
    return acc


def _fold(acc: int, part: int) -> int:
    """One round of `derive_seed`, the mix of (acc ^ part) + γ, so a sweep
    can fold a shared prefix once and each trial after it; with a part of
    0 it is `SplitMix64.next_u64`'s output."""
    z = ((acc ^ (part & MASK64)) + _GAMMA) & MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & MASK64
    return z ^ (z >> 31)
