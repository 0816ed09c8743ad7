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
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import PreconditionError, UsageError
from .model import Fsm
from .relations import FixpointSeries, PairRelation, product_relation


def compute_pi(m: Fsm) -> PairRelation:
    """All ordered pairs of states sharing the same output symbol."""
    by_label = {}
    for s in m.states:
        by_label.setdefault(m.label[s], []).append(s)
    rel = PairRelation(m.states)
    for group in by_label.values():
        rel = rel | product_relation(m.states, group, group)
    return rel


def _decode(states, idx):
    n = len(states)
    return states[idx // n], states[idx % n]


def s_series(m: Fsm) -> FixpointSeries:
    """Joint forward reachability under equal outputs, seeded at X0 x X0.

    Grows monotonically; a worklist propagates only newly added pairs, so the
    cost is linear in the number of transition pairs rather than steps times
    relation size.  Liveness is not required.
    """
    states = m.states
    n = len(states)
    index = {s: i for i, s in enumerate(states)}
    pi = compute_pi(m)
    first = product_relation(states, m.initial, m.initial) & pi
    bits = first.bits
    frontier = [low.bit_length() - 1 for low in _iter_lowbits(first.bits)]
    added = {}
    step = 1
    while frontier:
        nxt = []
        for idx in frontier:
            i, j = _decode(states, idx)
            for a in m.succ(i):
                la = m.label[a]
                ia = index[a] * n
                for b in m.succ(j):
                    if m.label[b] != la:
                        continue
                    pidx = ia + index[b]
                    if not bits >> pidx & 1:
                        bits |= 1 << pidx
                        added[pidx] = step + 1
                        nxt.append(pidx)
        if nxt:
            step += 1
        frontier = nxt
    fp = PairRelation(states, bits)
    return FixpointSeries("grow", first, fp, step, added)


def _iter_lowbits(bits):
    while bits:
        low = bits & -bits
        yield low
        bits ^= low


def _shrink(m: Fsm, first: PairRelation, neighbors) -> FixpointSeries:
    """Run R_{k+1} = {(i,j) in R_k : (N(i) x N(j)) cap R_k nonempty}."""
    states = m.states
    n = len(states)
    index = {s: i for i, s in enumerate(states)}
    cur = first.bits
    removed = {}
    k = 1
    while True:
        nxt = 0
        for low in _iter_lowbits(cur):
            idx = low.bit_length() - 1
            i, j = _decode(states, idx)
            hit = False
            for a in neighbors(i):
                ia = index[a] * n
                for b in neighbors(j):
                    if cur >> (ia + index[b]) & 1:
                        hit = True
                        break
                if hit:
                    break
            if hit:
                nxt |= low
        if nxt == cur:
            fp = PairRelation(states, cur)
            return FixpointSeries("shrink", first, fp, k, removed,
                                  emptied_at=k if cur == 0 and first.bits else None)
        k += 1
        for low in _iter_lowbits(cur & ~nxt):
            removed[low.bit_length() - 1] = k
        cur = nxt
        if cur == 0:
            fp = PairRelation(states, 0)
            return FixpointSeries("shrink", first, fp, k, removed, emptied_at=k)


def f_series(m: Fsm) -> FixpointSeries:
    """Forward indistinguishability, seeded at the equal-output relation.

    Requires liveness: a state without successors would drop even diagonal
    pairs, which the downstream theory does not allow.
    """
    for s in m.states:
        if not m.succ(s):
            raise PreconditionError("state %s has no successor; forward "
                                    "indistinguishability needs liveness" % s)
    return _shrink(m, compute_pi(m), m.succ)


def b_series(m: Fsm, sigma: PairRelation) -> FixpointSeries:
    """Backward indistinguishability confined to the seed relation sigma."""
    pi = compute_pi(m)
    if sigma.states != pi.states:
        raise UsageError("seed relation is over a different state universe")
    if not sigma.issubset(pi):
        raise UsageError("seed relation must only relate equal-output states")
    if not sigma.is_symmetric():
        raise UsageError("seed relation must be symmetric")
    return _shrink(m, sigma, m.pre)


@dataclass(frozen=True)
class ProjectedSeries:
    """A base series together with its mixed-pair projection.

    ``at(k)`` restricts the base relation to pairs with exactly one critical
    member and closes symmetrically; ``convergence_step`` is the first k at
    which the projection equals its final value (it can precede the base
    series' own convergence).
    """

    base: FixpointSeries
    mixed: PairRelation          # critical x non-critical rectangle
    fixed_point: PairRelation
    convergence_step: int

    def at(self, k: int) -> PairRelation:
        return (self.base.at(k) & self.mixed).symmetric_closure()


def _projected(base: FixpointSeries, mixed: PairRelation) -> ProjectedSeries:
    # the symmetric closure is one-to-one on the mixed rectangle, so the
    # projection stops changing once the last mixed pair has left the base
    fp = (base.fixed_point & mixed).symmetric_closure()
    step = max((k for idx, k in base.change_step.items() if mixed.bits >> idx & 1),
               default=1)
    return ProjectedSeries(base, mixed, fp, step)


def _avoid_seed(m: Fsm, s_star: PairRelation) -> PairRelation:
    non_critical = [s for s in m.states if s not in m.critical]
    return product_relation(m.states, m.states, non_critical) & s_star


def lambda_series(m: Fsm, s_star: PairRelation) -> ProjectedSeries:
    """Mixed pairs extendable forward indistinguishably with the non-critical
    side avoiding the critical set throughout."""
    seed = _avoid_seed(m, s_star)
    base = _shrink(m, seed, m.succ)
    mixed = product_relation(m.states, m.critical,
                             [s for s in m.states if s not in m.critical])
    return _projected(base, mixed)


def gamma_series(m: Fsm, s_star: PairRelation) -> ProjectedSeries:
    """Backward counterpart of lambda_series, stepping through predecessors."""
    seed = _avoid_seed(m, s_star)
    base = _shrink(m, seed, m.pre)
    mixed = product_relation(m.states, m.critical,
                             [s for s in m.states if s not in m.critical])
    return _projected(base, mixed)
