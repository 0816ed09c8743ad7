"""Sets of ordered state pairs backed by a single big-integer bitset.

A relation is ``(universe, bits)``.  Every relation over a machine holds the
machine's one :class:`Universe` (``Fsm.universe``), so a relation costs O(1)
to build, and a pair (i, j) maps to bit index[i] * n + index[j].  Relations
over universes with the same states combine; others raise UsageError.  All
set algebra is integer bit twiddling, so membership is O(1) and the whole
relation occupies O(|X|^2) bits.  ``bit_indices`` lists a relation's pair
indices in time linear in the set bits when they are fewer than a sixteenth
of the bit length, and in one pass over the binary text otherwise.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from itertools import compress, islice, repeat
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


def transposed(flags, n: int) -> bytearray:
    """The n x n byte matrix ``flags``, row-major, transposed: row j of the
    result is column j, one strided slice."""
    return bytearray().join(flags[j::n] for j in range(n))


#: A sparse integer has fewer set bits than its bit length over this ratio;
#: above it the pass over the binary text is the cheaper decoding.
_SPARSE = 16

#: A relation is closed pair by pair when it has fewer set bits than n^2
#: over this ratio: measured, the per-pair path breaks even with the
#: whole-matrix transpose near n^2 / 80 to n^2 / 90 at n = 100 to 400 and
#: near n^2 / 64 at n = 800.
_SPARSE_CLOSURE = 80


def bit_indices(bits: int) -> list:
    """Indices of the set bits of a nonnegative integer, ascending.

    A sparse integer is read as 64-bit words, skipping the zero ones and
    peeling each set bit off the others, so its cost is linear in the set
    bits (plus one C-level pass over the bytes).  A dense one takes one pass
    over the binary text, linear in the bit length.
    """
    size = bits.bit_length()
    if bits.bit_count() * _SPARSE < size:
        count = (size + 63) // 64
        words = struct.unpack("<%dQ" % count, bits.to_bytes(8 * count, "little"))
        out = []
        for k in compress(range(count), words):
            word, base = words[k], 64 * k
            while word:
                low = word & -word
                out.append(base + low.bit_length() - 1)
                word ^= low
        return out
    flags = bit_flags(bits)
    return list(compress(range(len(flags)), flags))


class Universe:
    """A machine's ``states`` in order, their positions ``index`` and their
    number ``n``; equal to any universe with the same states."""

    __slots__ = ("states", "index", "n")

    def __init__(self, states: Sequence[str]):
        self.states = tuple(states)
        self.index = {s: i for i, s in enumerate(self.states)}
        self.n = len(self.states)

    def __eq__(self, other):
        if not isinstance(other, Universe):
            return NotImplemented
        return self is other or self.states == other.states

    def __hash__(self):
        return hash(self.states)


class PairRelation:
    """Immutable set of ordered pairs over a state universe."""

    __slots__ = ("universe", "bits")

    def __init__(self, universe: Universe, bits: int = 0):
        self.universe = universe
        self.bits = bits

    @classmethod
    def from_pairs(cls, universe, pairs):
        index, n = universe.index, universe.n
        bits = 0
        for a, b in pairs:
            try:
                bits |= 1 << (index[a] * n + index[b])
            except KeyError:
                raise UsageError("pair (%s, %s) outside the state universe" % (a, b)) from None
        return cls(universe, bits)

    @classmethod
    def diagonal(cls, universe):
        return cls.from_pairs(universe, zip(universe.states, universe.states))

    @classmethod
    def full(cls, universe):
        return cls(universe, (1 << universe.n ** 2) - 1)

    # -- queries -----------------------------------------------------------

    def __contains__(self, pair):
        a, b = pair
        ia = self.universe.index.get(a)
        ib = self.universe.index.get(b)
        if ia is None or ib is None:
            return False
        return bool(self.bits >> (ia * self.universe.n + ib) & 1)

    def __len__(self):
        return self.bits.bit_count()

    def __bool__(self):
        return self.bits != 0

    def __eq__(self, other):
        if not isinstance(other, PairRelation):
            return NotImplemented
        return self.universe == other.universe and self.bits == other.bits

    def __hash__(self):
        return hash((self.universe, self.bits))

    def __iter__(self):
        return iter(self.pairs())

    def rows(self):
        """``(i, row)`` for each nonempty row i of the bit matrix, in order:
        ``row`` holds n flag bytes, byte j 1 exactly when the pair of the
        i-th and j-th states is in the relation."""
        n = self.universe.n
        flags = bit_flags(self.bits, n * n)
        for i in range(n):
            row = flags[i * n:i * n + n]
            if 1 in row:
                yield i, row

    def pairs(self) -> list:
        """Sorted list of (state, state) pairs, decoded row by row."""
        states = self.universe.states
        out = []
        for i, row in self.rows():
            out += zip(repeat(states[i]), compress(states, row))
        return out

    def __repr__(self):
        return "PairRelation(%r)" % (self.pairs(),)

    # -- algebra -----------------------------------------------------------

    def _check(self, other):
        if self.universe != other.universe:
            raise UsageError("relations over different state universes")

    def __and__(self, other):
        self._check(other)
        return PairRelation(self.universe, self.bits & other.bits)

    def __or__(self, other):
        self._check(other)
        return PairRelation(self.universe, self.bits | other.bits)

    def __sub__(self, other):
        self._check(other)
        return PairRelation(self.universe, self.bits & ~other.bits)

    def complement(self):
        n = self.universe.n
        return PairRelation(self.universe, ~self.bits & ((1 << (n * n)) - 1))

    def issubset(self, other):
        self._check(other)
        return self.bits & ~other.bits == 0

    def symmetric_closure(self):
        """The relation with every transpose added.  A sparse relation, with
        fewer set bits than n^2 / ``_SPARSE_CLOSURE``, has its pairs
        transposed one at a time into an n^2-bit buffer; a denser one is
        transposed as a whole n^2-byte matrix."""
        n = self.universe.n
        bits = self.bits
        if bits.bit_count() * _SPARSE_CLOSURE < n * n:
            buf = bytearray((n * n + 7) // 8)
            for p in bit_indices(bits):
                t = p % n * n + p // n
                buf[t >> 3] |= 1 << (t & 7)
            return PairRelation(self.universe, bits | int.from_bytes(buf, "little"))
        flags = bit_flags(bits, n * n)
        return PairRelation(self.universe, bits | flag_bits(transposed(flags, n)))

    def is_symmetric(self):
        return self.bits == self.symmetric_closure().bits


def product_relation(universe, left: Iterable[str], right: Iterable[str]) -> PairRelation:
    """The rectangle left x right as a PairRelation.  A state outside the
    universe raises UsageError."""
    index = universe.index
    row = bits = 0
    try:
        for b in right:
            row |= 1 << index[b]
        for a in left:
            bits |= row << (index[a] * universe.n)
    except KeyError as exc:
        raise UsageError("state %s outside the state universe" % (exc.args[0],)) from None
    return PairRelation(universe, bits)


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

    def removal_steps(self, rel: PairRelation) -> dict:
        """The step at which each pair of ``rel`` that a layer changes does
        change, keyed by pair bit index: for a shrinking series, the step at
        which the pair leaves.  Read off the layers, building no step."""
        keep = bit_flags(rel.bits, rel.universe.n ** 2)
        return {p: k for k, layer in enumerate(self.layers, 2) for p in layer if keep[p]}

    def at(self, k: int) -> PairRelation:
        """The relation at step k (clamped past convergence), read by
        iterating to it: O(k |X|^2)."""
        if k < 1:
            raise UsageError("series steps start at 1")
        return next(islice(self, k - 1, None), self.fixed_point)

    def __iter__(self):
        """R_1, ..., R_K, each built from the one before by its layer."""
        flags = bit_flags(self.first.bits, self.first.universe.n ** 2)
        yield self.first
        for layer in self.layers:
            for p in layer:
                flags[p] ^= 1
            yield PairRelation(self.first.universe, flag_bits(flags))
