"""Iterated pair-relation recursions and their fixed points.

Five recursions over ordered state pairs drive every analysis in this
package:

* ``s_series``: pairs jointly reachable from the initial set along
  output-identical executions (growing, least fixed point).
* ``f_series``: pairs from which output-identical executions of any length
  exist (shrinking).
* ``b_series``: pairs reachable backward along output-identical executions
  that stay inside a given seed relation (shrinking, may empty out).
* ``lambda_series`` / ``gamma_series``: mixed critical/non-critical pairs
  whose non-critical side can keep avoiding the critical set forward
  (resp. backward) while staying indistinguishable.

All five walk the pair graph, whose nodes are ordered state pairs and whose
edges join (i, j) to (a, b) for a a neighbour of i and b one of j, over the
machine's integer adjacency (``Fsm.adjacency``).  Pi, the equal-output
pairs, is built once per machine (``Fsm.pi``) and seeds or bounds S, F and
B.  The pair graph is walked forward by one breadth-first search,
``_search``: S is the search of Pi from X0 x X0 cap Pi, one level per step,
and the engine's cone (below) the search of R_1 from ``within``.  Pi and
X0 x X0 are closed under transposition, so S searches in the symmetric
mode, expanding one pair of each {(i, j), (j, i)} and listing both in the
same level; the cone's seeds are not, and it searches every pair.  When
every state is initial, X0 x X0 covers Pi, and S returns Pi as its own
fixed point with no layers, building no rectangle and decoding no pair.
The four shrinking recursions share one counter engine, ``_shrink``, in the
manner of AC-4 arc consistency.  Each pair's supports are counted once, as
the integer matrix C = N . R_1 . N^T (N the 0/1 neighbour matrix), formed a
row at a time on big integers with w-byte fields, w the least power of two
that holds deg^2 for the largest neighbour count deg.  Removals then proceed
layer by layer, so every pair leaves at the same step as in the synchronous
recursion while the propagation is O(edges of the pair graph).  Memory is a
flag byte and a w-byte count per pair.

Every property reads its relations on the mixed pairs only (one critical
and one non-critical state, in either order: ``Fsm.mixed``), except
``eventual``, whose parameters are pinned to steps of the whole of F and
B, and ``sets``, which prints whole series.  So a caller may name the
pairs it reads as ``within``: Lambda and Gamma always pass the mixed
pairs, and F and B take them when the checker asks for them on behalf of
a check that reads only those.  When the pair graph is subcritical, with
fewer than one equal-label neighbour pair per pair of Pi on average
(``Fsm.pair_branching``), few pairs are reachable from a few pairs.  The
engine then searches the cone of ``within``, counts supports there as it
visits them and runs the same removal loop on the cone only: a
cone-of-influence reduction (Clarke, Grumberg & Peled, *Model Checking*,
1999).  The cone is closed under supports, so every pair of it leaves at
the same step as in the whole seed.  Otherwise, and without ``within``, the
engine runs on the whole seed: from a branching of about 1.3 up the cone
covers most of the seed, and the search, one Python step per support,
costs more than the product, whose additions run on big integers (measured
in CHANGES.md: up to 1.5 times the product's time with three labels and
up to 12 times with one or two).
"""

from __future__ import annotations

import sys
from typing import Optional

from .errors import PreconditionError, UsageError
from .model import Fsm
from .relations import (
    FixpointSeries, PairRelation, bit_flags, bit_indices, flag_bits, product_relation,
    transposed,
)


def _search(flags: bytearray, start: list, n: int, nbr, count=None,
            mirrored: bool = False) -> list:
    """Breadth-first search of the pair graph, whose edges join (i, j) to
    each pair of N(i) x N(j), from the pairs ``start`` through the pairs
    flagged 1 in ``flags`` (one byte per pair).  Every pair reached,
    ``start`` included, is flagged 2, and the reached pairs are returned
    level by level, ``start`` first, each level in discovery order: for
    each pair of the level before in turn, N(i) then N(j).  Given ``count``,
    one field per pair, each reached pair's supports, the pairs of
    N(i) x N(j) flagged 1 or 2, are counted there.  O(reached x deg^2).

    ``mirrored`` is the symmetric mode, for flags and a ``start`` that are
    closed under transposition: swapping i and j maps the pair graph onto
    itself, so (i, j) and (j, i) are reached at the same step.  Each orbit
    {(i, j), (j, i)} is then expanded once, from (i, j) with i <= j in
    ``start`` and from the member found first later on, and a pair's
    transpose is flagged 2 as the pair is.  Each level holds the same
    pairs as without the mode: the members found, in discovery order, then
    their off-diagonal transposes in the same order.  Supports are not
    counted.  About half the plain search's work."""
    for p in start:
        flags[p] = 2
    levels = [start]
    # the pairs expanded, one per orbit when mirrored; otherwise ``levels``
    # itself, so that a level appended to it is both read and returned
    todo = [[p for p in start if p // n <= p % n]] if mirrored else levels
    for level in todo:          # grows while it is read, one level per step
        nxt = []
        twins = []
        for p in level:
            i, j = divmod(p, n)
            nbr_j = nbr[j]
            c = 0
            for a in nbr[i]:
                row = a * n
                for b in nbr_j:
                    q = row + b
                    f = flags[q]
                    if f:
                        c += 1
                        if f == 1:
                            flags[q] = 2
                            nxt.append(q)
                            if mirrored and a != b:
                                t = b * n + a
                                flags[t] = 2
                                twins.append(t)
            if count is not None:
                count[p] = c
        if nxt:
            todo.append(nxt)
            if mirrored:
                levels.append(nxt + twins)
    return levels


def s_series(m: Fsm) -> FixpointSeries:
    """Joint forward reachability under equal outputs, seeded at X0 x X0.

    S never leaves Pi and grows, at each step, by the equal-output successor
    pairs of the pairs it gained at the step before.  So it is the
    breadth-first search of Pi from X0 x X0 cap Pi (:func:`_search`): each
    level after the first is a layer, and the fixed point is every pair
    reached.  Both are closed under transposition, so the search runs in
    its symmetric mode: it expands one pair of each {(i, j), (j, i)} and
    lists a layer as the pairs found, in the order found, then their
    transposes.  Each layer holds the same pairs as the plain search's, and
    no reader depends on the order inside one.  The cost is linear in the
    transition pairs the search meets rather than steps times relation
    size.  X0 x X0 cap Pi is Pi exactly when every state is initial (Pi
    holds every diagonal pair); then Pi is returned as the fixed point with
    no layers, and no pair is decoded.  Liveness is not required.
    """
    pi = m.pi
    if len(m.initial) == m.universe.n:
        return FixpointSeries(pi, pi, [])
    first = product_relation(m.universe, m.initial, m.initial) & pi
    n = m.universe.n
    flags = bit_flags(pi.bits, n * n)
    levels = _search(flags, bit_indices(first.bits), n, m.adjacency[0], mirrored=True)
    fixed = PairRelation(m.universe, flag_bits(flags.translate(_REACHED)))
    return FixpointSeries(first, fixed, levels[1:])


_IS_ZERO = bytes([1]) + bytes(255)          # translation table: 0 -> 1, else -> 0
_REACHED = bytes(2) + bytes([1]) + bytes(253)  # translation table: 2 -> 1, else -> 0
_FIELD = {1: "B", 2: "H", 4: "I", 8: "Q"}   # memoryview format of a w-byte field


def _row_sums(buf, n: int, w: int, nbr) -> bytearray:
    """N . buf for the n x n matrix ``buf`` of w-byte fields (row-major, the
    machine's byte order): row i is the sum of the rows N(i), each row
    packed into one int."""
    size = n * w
    order = sys.byteorder
    view = memoryview(buf)
    rows = [int.from_bytes(view[k:k + size], order) for k in range(0, n * size, size)]
    out = bytearray()
    for nb in nbr:
        total = 0
        for a in nb:
            total += rows[a]
        out += total.to_bytes(size, order)
    return out


def _field_width(nbr) -> int:
    """w, the least power of two with 256^w > deg^2, deg the largest
    neighbour count: a w-byte field holds any pair's support count."""
    deg = max(map(len, nbr))
    w = 1
    while deg * deg >> 8 * w:
        w *= 2
    return w


def _support_counts(flags: bytearray, n: int, nbr):
    """Every pair's supports inside R_1 as ``(counts, w)``: the matrix
    C = N . R_1 . N^T, N the 0/1 neighbour matrix and R_1 given as one flag
    byte per pair, stored row-major in w-byte fields of the machine's byte
    order (w from :func:`_field_width`).  Each product is n * deg big-int
    additions; the transposes are strided byte slices."""
    w = _field_width(nbr)
    buf = bytearray(n * n * w)                  # R_1^T
    buf[0 if sys.byteorder == "little" else w - 1::w] = transposed(flags, n)
    half = _row_sums(buf, n, w, nbr)            # N . R_1^T = (R_1 . N^T)^T
    for k in range(w):                          # R_1 . N^T, a byte at a time
        buf[k::w] = transposed(half[k::w], n)
    return _row_sums(buf, n, w, nbr), w


def _cone_counts(first: PairRelation, within: PairRelation, n: int, nbr):
    """The cone of ``within`` (pairs of R_1): the pairs reachable from it
    along supports (pairs of N(i) x N(j) inside R_1), as
    ``(flags, counts, w)``: one flag byte per pair, set on the cone, and
    each cone pair's supports in the w-byte fields of
    :func:`_support_counts`, 0 off the cone.  The cone is the breadth-first
    search of R_1 from ``within`` (:func:`_search`), which counts each
    pair's supports as it visits it, in O(cone x deg^2)."""
    w = _field_width(nbr)
    counts = bytearray(n * n * w)
    flags = bit_flags(first.bits, n * n)        # 1 in R_1, 2 in the cone
    _search(flags, bit_indices(within.bits), n, nbr,
            memoryview(counts).cast(_FIELD[w]))
    return flags.translate(_REACHED), counts, w


def _shrink(m: Fsm, first: PairRelation, forward: bool,
            within: Optional[PairRelation] = None) -> FixpointSeries:
    """Run R_{k+1} = {(i,j) in R_k : (N(i) x N(j)) cap R_k nonempty}, N being
    the successor map if ``forward`` and the predecessor map otherwise.

    A counter engine in the manner of AC-4 arc consistency.  Each pair of
    R_1 has as count its supports, the pairs of N(i) x N(j) inside R_1,
    read off the matrix product N . R_1 . N^T (:func:`_support_counts`).
    The pairs of R_1 with count 0 form the removal layer of step 2.  A layer
    is marked dead as a whole; then every dead pair (a, b) takes one support
    from each live pair of B(a) x B(b), B being the reverse of N, and the
    pairs whose count reaches 0 form the next layer.  A pair is thus removed
    at step k + 1 exactly when its last support left R_k, as in the
    synchronous recursion, and the propagation costs O(edges of the pair
    graph inside R_1).  Memory is a flag byte and a w-byte count per pair.

    ``within``, if given, holds the pairs the caller reads: the mixed pairs,
    always for Lambda and Gamma and for F and B when a check reads only
    those.  When the pair graph is subcritical
    (``Fsm.pair_branching`` below 1), so that few pairs are reachable from
    any given ones, the engine runs on the cone of ``within`` cap R_1 only
    (:func:`_cone_counts`) and returns the series seeded at R_1 cap cone.
    The cone holds every support of its pairs, so each cone pair has the
    same count, is removed by the same dead pairs in the same order, and
    leaves at the same step and at the same place in its layer as in the
    full series; pairs off the cone never touch it.  The two series
    therefore agree on every pair of ``within``, and are the same series
    when the cone covers R_1.  Otherwise, and without ``within``, the engine
    runs on all of R_1.  A ``within`` over another universe raises
    UsageError on either path.
    """
    succ, pre = m.adjacency
    nbr, back = (succ, pre) if forward else (pre, succ)
    n = m.universe.n
    if within is not None:
        within &= first
    if within is not None and m.pair_branching < 1:
        alive, counts, w = _cone_counts(first, within, n, nbr)
        first = PairRelation(m.universe, flag_bits(alive))
    else:
        alive = bit_flags(first.bits, n * n)
        counts, w = _support_counts(alive, n, nbr)
    unsupported = first.bits
    for k in range(w):          # a field is 0 when each of its bytes is
        unsupported &= flag_bits(counts[k::w].translate(_IS_ZERO))
    count = memoryview(counts).cast(_FIELD[w])
    layers = [bit_indices(unsupported)] if unsupported else []
    for layer in layers:        # grows while it is read, one layer per step
        for p in layer:
            alive[p] = 0
        nxt = []
        for p in layer:
            a, b = divmod(p, n)
            back_b = back[b]
            for i in back[a]:
                row = i * n
                for j in back_b:
                    q = row + j
                    if alive[q]:
                        c = count[q] - 1
                        count[q] = c
                        if not c:
                            nxt.append(q)
        if nxt:
            layers.append(nxt)
    return FixpointSeries(first, PairRelation(m.universe, flag_bits(alive)), layers)


def f_series(m: Fsm, within: Optional[PairRelation] = None) -> FixpointSeries:
    """Forward indistinguishability, seeded at the equal-output relation.

    Requires liveness: a state without successors would drop even diagonal
    pairs, which the downstream theory does not allow.  With ``within``, the
    series is exact on those pairs and may cover only their cone
    (:func:`_shrink`).
    """
    for s, nb in zip(m.states, m.adjacency[0]):
        if not nb:
            raise PreconditionError("state %s has no successor; forward "
                                    "indistinguishability needs liveness" % s)
    return _shrink(m, m.pi, True, within)


def b_series(m: Fsm, sigma: PairRelation,
             within: Optional[PairRelation] = None) -> FixpointSeries:
    """Backward indistinguishability confined to the seed relation sigma.
    With ``within``, the series is exact on those pairs and may cover only
    their cone (:func:`_shrink`)."""
    if not sigma.issubset(m.pi):
        raise UsageError("seed relation must only relate equal-output states")
    if not sigma.is_symmetric():
        raise UsageError("seed relation must be symmetric")
    return _shrink(m, sigma, False, within)


class ProjectedSeries(FixpointSeries):
    # A separate name for the lookups on Lambda and Gamma, which
    # bench/spans.py times apart from those on the other series.
    at = FixpointSeries.at


def _avoid_seed(m: Fsm, s_star: PairRelation) -> PairRelation:
    non_critical = [s for s in m.states if s not in m.critical]
    return product_relation(m.universe, m.states, non_critical) & s_star


def _masking_series(m: Fsm, s_star: PairRelation, forward: bool) -> ProjectedSeries:
    """The avoiding recursion restricted, step by step, to the mixed pairs
    and closed symmetrically.  The seed's second state is never critical,
    so its mixed pairs are those of the rectangle critical x non-critical,
    on which the closure is one-to-one: a layer is the base layer's mixed
    pairs plus their transposes, and the series ends at the last base layer
    that touches the mixed pairs.  Only those are read, so the base series
    is asked for them as ``within`` and may cover only their cone."""
    base = _shrink(m, _avoid_seed(m, s_star), forward, within=m.mixed)
    n = m.universe.n
    inside = bit_flags(m.mixed.bits, n * n)
    layers = [[q for p in layer if inside[p] for q in (p, p % n * n + p // n)]
              for layer in base.layers]
    while layers and not layers[-1]:
        layers.pop()
    return ProjectedSeries((base.first & m.mixed).symmetric_closure(),
                           (base.fixed_point & m.mixed).symmetric_closure(), layers)


def lambda_series(m: Fsm, s_star: PairRelation) -> ProjectedSeries:
    """Mixed pairs extendable forward indistinguishably with the non-critical
    side avoiding the critical set throughout."""
    return _masking_series(m, s_star, True)


def gamma_series(m: Fsm, s_star: PairRelation) -> ProjectedSeries:
    """Backward counterpart of lambda_series, stepping through predecessors."""
    return _masking_series(m, s_star, False)
