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
machine's integer adjacency (``Fsm.adjacency``).  ``s_series`` is a worklist.
The four shrinking recursions share one counter engine, ``_shrink``, in the
manner of AC-4 arc consistency: each pair counts its supports once, and
removals proceed layer by layer, so every pair leaves at the same step as in
the synchronous recursion while the work is O(edges of the pair graph).
"""

from __future__ import annotations

from .errors import PreconditionError, UsageError
from .model import Fsm
from .relations import (
    FixpointSeries, PairRelation, bit_flags, bit_indices, flag_bits, product_relation,
)


def compute_pi(m: Fsm) -> PairRelation:
    """All ordered pairs of states sharing the same output symbol."""
    by_label = {}
    for s in m.states:
        by_label.setdefault(m.label[s], []).append(s)
    rel = PairRelation(m.universe)
    for group in by_label.values():
        rel = rel | product_relation(m.universe, group, group)
    return rel


def s_series(m: Fsm) -> FixpointSeries:
    """Joint forward reachability under equal outputs, seeded at X0 x X0.

    Grows monotonically; a worklist over the machine's integer adjacency
    propagates only newly added pairs, so the cost is linear in the number
    of transition pairs rather than steps times relation size.  Liveness is
    not required.
    """
    n = m.universe.n
    succ, _ = m.adjacency
    label = [m.label[s] for s in m.states]
    first = product_relation(m.universe, m.initial, m.initial) & compute_pi(m)
    seen = bit_flags(first.bits, n * n)
    layers = [bit_indices(first.bits)]
    for layer in layers:        # grows while it is read, one layer per step
        nxt = []
        for p in layer:
            i, j = divmod(p, n)
            succ_j = succ[j]
            for a in succ[i]:
                la = label[a]
                row = a * n
                for b in succ_j:
                    q = row + b
                    if label[b] == la and not seen[q]:
                        seen[q] = 1
                        nxt.append(q)
        if nxt:
            layers.append(nxt)
    return FixpointSeries(first, PairRelation(m.universe, flag_bits(seen)), layers[1:])


def _shrink(m: Fsm, first: PairRelation, forward: bool) -> FixpointSeries:
    """Run R_{k+1} = {(i,j) in R_k : (N(i) x N(j)) cap R_k nonempty}, N being
    the successor map if ``forward`` and the predecessor map otherwise.

    A counter engine in the manner of AC-4 arc consistency.  Each pair of
    R_1 counts its supports, the pairs of N(i) x N(j) inside R_1, once.  The
    pairs with no support form the removal layer of step 2.  A layer is
    marked dead as a whole; then every dead pair (a, b) takes one support
    from each live pair of B(a) x B(b), B being the reverse of N, and the
    pairs whose count reaches 0 form the next layer.  A pair is thus removed
    at step k + 1 exactly when its last support left R_k, as in the
    synchronous recursion, and the whole run costs O(edges of the pair graph
    inside R_1).  Memory is a count and a flag per pair, O(|X|^2).
    """
    succ, pre = m.adjacency
    nbr, back = (succ, pre) if forward else (pre, succ)
    n = m.universe.n
    alive = bit_flags(first.bits, n * n)
    count = [0] * (n * n)
    layer = []
    for p in bit_indices(first.bits):
        i, j = divmod(p, n)
        nbr_j = nbr[j]
        c = 0
        for a in nbr[i]:
            row = a * n
            for b in nbr_j:
                c += alive[row + b]
        count[p] = c
        if not c:
            layer.append(p)
    layers = [layer] if layer else []
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


def f_series(m: Fsm) -> FixpointSeries:
    """Forward indistinguishability, seeded at the equal-output relation.

    Requires liveness: a state without successors would drop even diagonal
    pairs, which the downstream theory does not allow.
    """
    for s in m.states:
        if not m.succ(s):
            raise PreconditionError("state %s has no successor; forward "
                                    "indistinguishability needs liveness" % s)
    return _shrink(m, compute_pi(m), True)


def b_series(m: Fsm, sigma: PairRelation) -> FixpointSeries:
    """Backward indistinguishability confined to the seed relation sigma."""
    if not sigma.issubset(compute_pi(m)):
        raise UsageError("seed relation must only relate equal-output states")
    if not sigma.is_symmetric():
        raise UsageError("seed relation must be symmetric")
    return _shrink(m, sigma, False)


class ProjectedSeries(FixpointSeries):
    # A separate name for the lookups on Lambda and Gamma, which
    # bench/spans.py times apart from those on the other series.
    at = FixpointSeries.at


def _avoid_seed(m: Fsm, s_star: PairRelation) -> PairRelation:
    non_critical = [s for s in m.states if s not in m.critical]
    return product_relation(m.universe, m.states, non_critical) & s_star


def _masking_series(m: Fsm, s_star: PairRelation, forward: bool) -> ProjectedSeries:
    """The avoiding recursion restricted, step by step, to the mixed
    rectangle (critical x non-critical) and closed symmetrically.  The
    closure is one-to-one there, so a layer is the base layer's mixed pairs
    plus their transposes, and the series ends at the last base layer that
    touches the rectangle."""
    base = _shrink(m, _avoid_seed(m, s_star), forward)
    mixed = product_relation(m.universe, m.critical,
                             [s for s in m.states if s not in m.critical])
    n = m.universe.n
    inside = bit_flags(mixed.bits, n * n)
    layers = [[q for p in layer if inside[p] for q in (p, p % n * n + p // n)]
              for layer in base.layers]
    while layers and not layers[-1]:
        layers.pop()
    return ProjectedSeries((base.first & mixed).symmetric_closure(),
                           (base.fixed_point & mixed).symmetric_closure(), layers)


def lambda_series(m: Fsm, s_star: PairRelation) -> ProjectedSeries:
    """Mixed pairs extendable forward indistinguishably with the non-critical
    side avoiding the critical set throughout."""
    return _masking_series(m, s_star, True)


def gamma_series(m: Fsm, s_star: PairRelation) -> ProjectedSeries:
    """Backward counterpart of lambda_series, stepping through predecessors."""
    return _masking_series(m, s_star, False)
