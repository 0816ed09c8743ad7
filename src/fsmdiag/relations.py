"""Sets of ordered state pairs backed by a single big-integer bitset.

A pair (i, j) over a fixed state ordering maps to bit index(i) * n + index(j).
All set algebra is integer bit twiddling, so membership is O(1) and the whole
relation occupies O(|X|^2) bits regardless of how full it is.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, islice
from typing import Iterable, Optional, Sequence, Tuple

from .errors import UsageError


_DIGITS = bytes.maketrans(b"\0\1", b"01")
_FLAGS = bytes.maketrans(b"01", b"\0\1")


def bit_flags(bits: int, size: int = 0) -> bytearray:
    """Byte i is bit i of ``bits`` (0 or 1), for at least ``size`` bytes."""
    return bytearray(bin(bits)[:1:-1].ljust(size, "0"), "ascii").translate(_FLAGS)


def flag_bits(flags) -> int:
    """Inverse of :func:`bit_flags`: the integer whose bit i is flags[i]."""
    return int(flags[::-1].translate(_DIGITS), 2)


def bit_indices(bits: int) -> list:
    """Indices of the set bits of a nonnegative integer, ascending.

    One pass over the binary text, so the cost is linear in the bit length
    however many bits are set.
    """
    flags = bit_flags(bits)
    return list(compress(range(len(flags)), flags))


class PairRelation:
    """Immutable set of ordered pairs over a fixed, sorted state universe."""

    __slots__ = ("states", "_index", "bits")

    def __init__(self, states: Sequence[str], bits: int = 0):
        self.states = tuple(states)
        self._index = {s: i for i, s in enumerate(self.states)}
        self.bits = bits

    @classmethod
    def from_pairs(cls, states, pairs):
        rel = cls(states)
        bits = 0
        n = len(rel.states)
        for a, b in pairs:
            try:
                bits |= 1 << (rel._index[a] * n + rel._index[b])
            except KeyError:
                raise UsageError("pair (%s, %s) outside the state universe" % (a, b)) from None
        return cls(rel.states, bits)

    @classmethod
    def diagonal(cls, states):
        rel = cls(states)
        n = len(rel.states)
        bits = 0
        for i in range(n):
            bits |= 1 << (i * n + i)
        return cls(rel.states, bits)

    @classmethod
    def full(cls, states):
        n = len(tuple(states))
        return cls(states, (1 << (n * n)) - 1)

    # -- queries -----------------------------------------------------------

    @property
    def n(self):
        return len(self.states)

    def __contains__(self, pair):
        a, b = pair
        ia = self._index.get(a)
        ib = self._index.get(b)
        if ia is None or ib is None:
            return False
        return bool(self.bits >> (ia * self.n + ib) & 1)

    def __len__(self):
        return self.bits.bit_count()

    def __bool__(self):
        return self.bits != 0

    def __eq__(self, other):
        if not isinstance(other, PairRelation):
            return NotImplemented
        return self.states == other.states and self.bits == other.bits

    def __hash__(self):
        return hash((self.states, self.bits))

    def __iter__(self):
        return iter(self.pairs())

    def pairs(self) -> list:
        """Sorted list of (state, state) pairs."""
        n = self.n
        states = self.states
        return [(states[idx // n], states[idx % n]) for idx in bit_indices(self.bits)]

    def __repr__(self):
        return "PairRelation(%r)" % (self.pairs(),)

    # -- algebra -----------------------------------------------------------

    def _check(self, other):
        if self.states != other.states:
            raise UsageError("relations over different state universes")

    def __and__(self, other):
        self._check(other)
        return PairRelation(self.states, self.bits & other.bits)

    def __or__(self, other):
        self._check(other)
        return PairRelation(self.states, self.bits | other.bits)

    def __sub__(self, other):
        self._check(other)
        return PairRelation(self.states, self.bits & ~other.bits)

    def complement(self):
        n = self.n
        return PairRelation(self.states, ~self.bits & ((1 << (n * n)) - 1))

    def issubset(self, other):
        self._check(other)
        return self.bits & ~other.bits == 0

    def symmetric_closure(self):
        n = self.n
        flags = bit_flags(self.bits, n * n)
        transposed = bytearray().join(flags[j::n] for j in range(n))  # row j: column j
        return PairRelation(self.states, self.bits | flag_bits(transposed))

    def is_symmetric(self):
        return self.bits == self.symmetric_closure().bits


def product_relation(states, left: Iterable[str], right: Iterable[str]) -> PairRelation:
    """The rectangle left x right as a PairRelation."""
    rel = PairRelation(states)
    n = rel.n
    row = 0
    for b in right:
        row |= 1 << rel._index[b]
    bits = 0
    for a in left:
        bits |= row << (rel._index[a] * n)
    return PairRelation(states, bits)


def same_block(states, omega: Iterable[str]) -> PairRelation:
    """(Omega x Omega) union (complement x complement): pairs on the same side."""
    om = set(omega)
    rest = [s for s in states if s not in om]
    inside = product_relation(states, om, om)
    outside = product_relation(states, rest, rest)
    return inside | outside


@dataclass(frozen=True)
class FixpointSeries:
    """Trace of a monotone pair-relation recursion in O(|X|^2) memory.

    The first relation R_1, and per step k >= 2 the layer of pair bit
    indices added to (growing) or removed from (shrinking) R_{k-1}.  A pair
    changes at most once, so R_k is R_1 with its first k - 1 layers flipped
    whichever way the series runs.  Iterating yields R_1..R_K, O(|X|^2) each.
    """

    first: PairRelation             # the k = 1 relation
    fixed_point: PairRelation
    layers: list                    # layers[k - 2]: pair bit-indices changed at step k

    @property
    def convergence_step(self) -> int:
        """The least k with R_k equal to the fixed point."""
        return len(self.layers) + 1

    @property
    def emptied_at(self) -> Optional[int]:
        """The step at which a nonempty series became empty, if it did."""
        return self.convergence_step if self.first and not self.fixed_point else None

    def at(self, k: int) -> PairRelation:
        """The relation at step k (clamped past convergence), read by
        iterating to it: O(k |X|^2)."""
        if k < 1:
            raise UsageError("series steps start at 1")
        return next(islice(self, k - 1, None), self.fixed_point)

    def __iter__(self):
        """R_1, ..., R_K, each built from the one before by its layer."""
        flags = bit_flags(self.first.bits, self.first.n ** 2)
        yield self.first
        for layer in self.layers:
            for p in layer:
                flags[p] ^= 1
            yield PairRelation(self.first.states, flag_bits(flags))
