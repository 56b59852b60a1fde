"""Deterministic 64-bit generator for reproducible sampling.

SplitMix64 (Steele, Lea and Flood, OOPSLA 2014): the state advances by a
fixed odd constant γ and each output is a bijective mix of the new state.
Every draw is a pure function of integers, so a seed produces the same
stream on every platform and Python build; published experiment tables
can therefore be regenerated bit-for-bit by third parties.  Output k is
the mix of state + k·γ alone, which lets `sample_indices` mix all its
draws at once, in the 128-bit lanes of one integer.
"""

from __future__ import annotations

import struct

MASK64 = (1 << 64) - 1

_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_SPAN = 1 << 64
_LANE_MASK = b"\xff" * 8 + bytes(8)  # low half of a 128-bit lane, little-endian


class SplitMix64:
    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & MASK64

    def next_u64(self) -> int:
        self.state = (self.state + _GAMMA) & MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * _MIX1) & MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & MASK64
        return z ^ (z >> 31)

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

    def _draws(self, count: int) -> tuple[int, ...]:
        """The next `count` outputs of `next_u64`, mixed at once.

        Lane k of one integer holds the unreduced state s + (k+1)·γ (below
        2^128); doubling fills lanes m..2m-1 from lanes 0..m-1 plus m·γ.
        Each round masks every lane to 64 bits, so a product by a 64-bit
        constant stays inside its lane.
        """
        mask = int.from_bytes(_LANE_MASK * count, "little")
        lanes, ones, m = self.state + _GAMMA, 1, 1
        while m < count:
            shift = 128 * m
            lanes |= (lanes + m * _GAMMA * ones) << shift
            ones |= ones << shift
            m *= 2
        z = lanes & mask
        z = ((z ^ (z >> 30)) & mask) * _MIX1 & mask
        z = ((z ^ (z >> 27)) & mask) * _MIX2 & mask
        z ^= z >> 31
        self.state = (self.state + count * _GAMMA) & MASK64
        # Little-endian by name, not memoryview.cast("Q"), which reads the
        # host's byte order: the stream must not depend on the host.  "8x"
        # skips each lane's high half.
        return struct.unpack("<" + "Q8x" * count, z.to_bytes(16 * count, "little"))

    def sample_indices(self, total: int, count: int) -> list[int]:
        """`count` distinct indices from range(total), uniformly without replacement.

        Sparse partial Fisher-Yates: only displaced slots are stored, so
        memory is O(count) even for huge ranges.  The draws are mixed in
        bulk (`_draws`), one per pick still missing, so no batch runs past
        the last draw used; pick i rejects the top-band draws that
        `next_below(total - i)` rejects.  Picks and final state therefore
        equal those of one `next_below` call per pick.  More than 2^64
        indices are refused before any draw.
        """
        if count < 0 or count > total:
            raise ValueError(f"cannot sample {count} of {total}")
        if total > _SPAN:
            raise ValueError(f"cannot sample from more than 2^64 indices, got {total}")
        displaced: dict[int, int] = {}
        picked: list[int] = []
        sure = _SPAN - total  # a draw below this is kept for every bound <= total
        i = 0
        while i < count:  # a second batch only after a rejection
            for u in self._draws(count - i):
                n = total - i
                if u >= sure and u >= _SPAN - _SPAN % n:
                    continue
                j = i + u % n
                picked.append(displaced.get(j, j))
                displaced[j] = displaced.get(i, i)
                i += 1
        return picked


def derive_seed(base: int, *parts: int) -> int:
    """Fold integer parameters into a base seed, one mixing round per part.

    Used to give every cell of a parameter sweep its own stable stream.
    Each round is `SplitMix64(acc ^ part).next_u64()`, the step written
    out: the base's own round folds a part of 0.
    """
    acc = base & MASK64
    for p in (0, *parts):
        z = ((acc ^ (p & MASK64)) + _GAMMA) & MASK64
        z = ((z ^ (z >> 30)) * _MIX1) & MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & MASK64
        acc = z ^ (z >> 31)
    return acc
