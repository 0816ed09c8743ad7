import random

import hypothesis.strategies as st
import pytest
from hypothesis import assume, example, given, settings

from fsmdiag import PairRelation, Universe, UsageError, product_relation
from fsmdiag.relations import (
    _SPARSE_CLOSURE, FixpointSeries, bit_flags, bit_indices, flag_bits, transposed,
)

STATES = ("a", "b", "c")
U = Universe(STATES)


def test_from_pairs_and_membership():
    r = PairRelation.from_pairs(U, [("a", "b"), ("c", "c")])
    assert ("a", "b") in r
    assert ("b", "a") not in r
    assert ("z", "a") not in r
    assert len(r) == 2
    assert r.pairs() == [("a", "b"), ("c", "c")]


def test_from_pairs_outside_universe():
    with pytest.raises(UsageError):
        PairRelation.from_pairs(U, [("a", "z")])


def test_diagonal_full_empty():
    assert PairRelation.diagonal(U).pairs() == [("a", "a"), ("b", "b"), ("c", "c")]
    assert len(PairRelation.full(U)) == 9
    assert not PairRelation(U)
    assert PairRelation.diagonal(U)


def test_algebra():
    d = PairRelation.diagonal(U)
    f = PairRelation.full(U)
    r = PairRelation.from_pairs(U, [("a", "b"), ("a", "a")])
    assert (r & d).pairs() == [("a", "a")]
    assert (r | d) == (d | r)
    assert (f - d).complement() == d
    assert d.issubset(f)
    assert not f.issubset(d)
    assert (r - r) == PairRelation(U)


def test_universe_mismatch():
    with pytest.raises(UsageError):
        PairRelation(U) & PairRelation(Universe(("x", "y")))


def test_symmetric_closure():
    r = PairRelation.from_pairs(U, [("a", "b")])
    assert not r.is_symmetric()
    closed = r.symmetric_closure()
    assert closed.is_symmetric()
    assert set(closed.pairs()) == {("a", "b"), ("b", "a")}
    assert PairRelation.diagonal(U).is_symmetric()
    # against the set transpose: empty, full, one row, one column, random
    rng = random.Random(0)
    for n in (1, 2, 5, 17):
        states = ["s%02d" % i for i in range(n)]
        everything = [(a, b) for a in states for b in states]
        relations = [[], everything, [(states[0], b) for b in states],
                     [(a, states[-1]) for a in states]]
        relations += [rng.sample(everything, rng.randint(0, len(everything)))
                      for _ in range(20)]
        for pairs in relations:
            closed = PairRelation.from_pairs(Universe(states), pairs).symmetric_closure()
            assert set(closed.pairs()) == set(pairs) | {(b, a) for a, b in pairs}


@given(st.integers(1, 100), st.sampled_from(["empty", "diagonal", "pairs"]),
       st.booleans(), st.randoms(use_true_random=True))
@example(100, "diagonal", True, random.Random(0))
@example(80, "diagonal", False, random.Random(0))
@example(100, "pairs", True, random.Random(0))
@example(100, "pairs", False, random.Random(0))
@settings(max_examples=200, deadline=None)
def test_symmetric_closure_sparse_and_dense_paths_agree(n, kind, sparse, rng):
    # empty, diagonal-only and other relations with fewer set bits than the
    # cutoff (closed pair by pair) or at least as many (closed by the
    # whole-matrix transpose), against that transpose.  A true Random:
    # Hypothesis' own draws a sample as a list of at most 8 192 items, fewer
    # than the n^2 cells a dense relation at n > 90 may fill.
    cells = range(0, n * n, n + 1) if kind == "diagonal" else range(n * n)
    cutoff = -(-n * n // _SPARSE_CLOSURE)       # the fewest set bits on the dense path
    low, high = (0, min(cutoff - 1, len(cells))) if sparse else (cutoff, len(cells))
    assume(kind == "empty" or low <= high)
    count = 0 if kind == "empty" else rng.randint(low, high)
    bits = sum(1 << p for p in rng.sample(cells, count))
    closed = PairRelation(Universe(["s%d" % i for i in range(n)]), bits).symmetric_closure()
    assert closed.bits == bits | flag_bits(transposed(bit_flags(bits, n * n), n))
    assert closed.is_symmetric()


@pytest.mark.parametrize("n", [1, 2, 5, 17])
def test_pairs_against_enumeration(n):
    # empty, full, one row, one column and random relations, each read back
    # against every (i, j) tested bit by bit in row-major order, as pairs
    # and as nonempty rows
    u = Universe(["s%02d" % i for i in range(n)])
    rng = random.Random(n)
    row, column = n // 2, (n - 1) // 3
    cases = [0, (1 << n * n) - 1, ((1 << n) - 1) << row * n,
             sum(1 << i * n + column for i in range(n))]
    cases += [rng.getrandbits(n * n) & rng.getrandbits(n * n) for _ in range(20)]
    for bits in cases:
        expected = [(a, b) for i, a in enumerate(u.states) for j, b in enumerate(u.states)
                    if bits >> (i * n + j) & 1]
        assert PairRelation(u, bits).pairs() == expected
        rows = [[bits >> (i * n + j) & 1 for j in range(n)] for i in range(n)]
        assert [(i, list(row)) for i, row in PairRelation(u, bits).rows()] == [
            (i, row) for i, row in enumerate(rows) if any(row)]


def test_iteration_and_repr():
    r = PairRelation.from_pairs(U, [("b", "c"), ("a", "a")])
    assert list(r) == [("a", "a"), ("b", "c")]
    assert "b" in repr(r)


@pytest.mark.parametrize("bits", [0, 1, 0b1011000, 2 ** 200 + 2 ** 64 + 5,
                                  (1 << 10_000) - 1, 1 << 9_999,
                                  (1 << 9_998) | (1 << 6_400) | (1 << 4_096) | (1 << 63) | 1,
                                  int("10" * 5_000, 2)])
def test_bit_helpers(bits):
    # sparse integers (few set bits for their length) and dense ones are
    # decoded differently; both must match plain enumeration
    indices = [i for i in range(bits.bit_length()) if bits >> i & 1]
    assert bit_indices(bits) == indices
    flags = bit_flags(bits, 10_001)
    assert len(flags) == 10_001
    assert [i for i, f in enumerate(flags) if f] == indices
    assert flag_bits(flags) == bits


def test_product_relation():
    r = product_relation(U, ["a", "b"], ["c"])
    assert set(r.pairs()) == {("a", "c"), ("b", "c")}
    assert len(product_relation(U, STATES, STATES)) == 9


@pytest.mark.parametrize("left, right", [(["z"], ["a"]), (["a"], ["z"])])
def test_product_relation_outside_universe(left, right):
    with pytest.raises(UsageError, match="state z outside the state universe"):
        product_relation(U, left, right)


def pair_index(p):
    return STATES.index(p[0]) * 3 + STATES.index(p[1])


class TestFixpointSeries:
    def make_grow(self):
        first = PairRelation.from_pairs(U, [("a", "a")])
        fp = PairRelation.from_pairs(U, [("a", "a"), ("a", "b"), ("b", "c")])
        # (a,b) appears at step 2, (b,c) at step 3
        return FixpointSeries(first, fp, [[pair_index(("a", "b"))],
                                          [pair_index(("b", "c"))]])

    def test_grow_reconstruction(self):
        s = self.make_grow()
        assert s.at(1) == s.first
        assert set(s.at(2).pairs()) == {("a", "a"), ("a", "b")}
        assert s.at(3) == s.fixed_point
        assert s.at(99) == s.fixed_point  # clamped past convergence

    def test_shrink_reconstruction(self):
        first = PairRelation.from_pairs(U, [("a", "a"), ("a", "b"), ("b", "c")])
        fp = PairRelation.from_pairs(U, [("a", "a")])
        # (a,b) leaves at step 2, (b,c) at step 3
        s = FixpointSeries(first, fp, [[pair_index(("a", "b"))],
                                       [pair_index(("b", "c"))]])
        assert s.convergence_step == 3
        assert s.at(1) == first
        assert set(s.at(2).pairs()) == {("a", "a"), ("b", "c")}
        assert s.at(3) == fp
        assert list(s) == [s.at(1), s.at(2), fp]

    def test_step_bounds(self):
        s = self.make_grow()
        with pytest.raises(UsageError):
            s.at(0)

    def test_iter_yields_every_step(self):
        s = self.make_grow()
        steps = list(s)
        assert len(steps) == s.convergence_step == 3
        assert steps == [s.at(1), s.at(2), s.at(3)]
        assert steps[0] == s.first and steps[-1] == s.fixed_point

    def test_no_layers(self):
        r = PairRelation.from_pairs(U, [("a", "b")])
        s = FixpointSeries(r, r, [])
        assert s.convergence_step == 1
        assert list(s) == [r]
        assert s.at(1) == s.at(2) == r
