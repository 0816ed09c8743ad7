"""Brute-force reference semantics for relations and diagnosability.

Everything here works directly from the definitions: relations are decided by
bounded search over pairs of executions (with memoized existence queries, no
fixed-point algebra), and the diagnosability properties are decided by an
exhaustive breadth-first exploration of executions up to a finite horizon.
Results about infinite behaviour are therefore reported as
"consistent-up-to-horizon", never as proved.

Because analysis-mode machines have no silent states, two equal-length
executions have the same output string exactly when their outputs agree
position by position; the searches below rely on that.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .checker import DiagParams, PropertyKind
from .errors import BudgetExceededError, UsageError
from .model import Fsm, _budget, validate
from .relations import PairRelation


@dataclass(frozen=True)
class Horizon:
    """Bounded truncation of the for-all-steps quantifiers."""
    length: int
    budget: Optional[int] = None

    def __post_init__(self):
        if self.length < 1:
            raise UsageError("horizon length must be >= 1")


class _Budget:
    def __init__(self, cap):
        self.cap = _budget(cap)
        self.used = 0

    def spend(self, n=1):
        self.used += n
        if self.used > self.cap:
            raise BudgetExceededError("oracle budget of %d operations exceeded" % self.cap)


def _joint_exists(m, i, j, k, step, within, avoid, memo, budget):
    """Is there a pair of executions of length k from (i, j), stepping with
    ``step`` (succ or pre), whose pairs of states all lie in ``within``, the
    second one avoiding the critical set throughout if ``avoid``?  With
    ``within`` = Pi this asks for equal outputs at every position.

    Depth first over (pair, steps left) nodes with an explicit stack, so that
    k is not bounded by the recursion limit; each node is expanded at most
    once per ``memo``, and each expansion spends one unit of ``budget``."""

    def known(i, j, k):
        if (i, j) not in within or (avoid and j in m.critical):
            return False
        if k == 1:
            return True
        return memo.get((i, j, k))

    def expand(i, j, k):
        budget.spend()
        return (i, j, k), ((a, b) for a in sorted(step(i)) for b in sorted(step(j)))

    out = known(i, j, k)
    if out is not None:
        return out
    stack = [expand(i, j, k)]
    while stack:
        key, children = stack[-1]
        if out is not True:     # a fresh node, or its last child failed
            for a, b in children:
                out = known(a, b, key[2] - 1)
                if out is not False:    # unknown yet, or found
                    break
            else:
                out = False
            if out is None:
                stack.append(expand(a, b, key[2] - 1))
                continue
        memo[key] = out
        stack.pop()
    return out


def enum_relation(m: Fsm, which: str, k: int,
                  sigma: Optional[PairRelation] = None,
                  budget: Optional[int] = None) -> PairRelation:
    """Compute one of the five pair relations at step k from its definition.

    ``which`` is one of S, F, B, Lambda, Gamma.  B needs the seed relation as
    ``sigma``; Lambda and Gamma need the joint-reachability fixed point there.
    A machine that fails ``validate(m, "analysis")`` raises PreconditionError,
    since the searches need it to have no silent states.
    """
    validate(m, "analysis").require()
    if k < 1:
        raise UsageError("step index must be >= 1")
    if which in ("B", "Lambda", "Gamma") and sigma is None:
        raise UsageError("relation %s needs a seed relation" % which)
    bud = _Budget(budget)
    states = m.states
    omega = m.critical
    pi = PairRelation.from_pairs(m.universe, [(i, j) for i in states for j in states
                                              if m.label[i] == m.label[j]])
    pairs = set()

    if which == "S":
        # pairs jointly reachable from the initial set within k - 1 equal-output steps
        frontier = {(i, j) for i in m.initial for j in m.initial
                    if m.label[i] == m.label[j]}
        pairs |= frontier
        for _ in range(k - 1):
            nxt = set()
            for (i, j) in frontier:
                bud.spend()
                for a in m.succ(i):
                    for b in m.succ(j):
                        if m.label[a] == m.label[b] and (a, b) not in pairs:
                            nxt.add((a, b))
            pairs |= nxt
            frontier = nxt
            if not frontier:
                break
    elif which == "F":
        memo = {}
        for i in states:
            for j in states:
                if _joint_exists(m, i, j, k, m.succ, pi, False, memo, bud):
                    pairs.add((i, j))
    elif which == "B":
        memo = {}
        for (i, j) in sigma.pairs():
            if _joint_exists(m, i, j, k, m.pre, sigma, False, memo, bud):
                pairs.add((i, j))
    elif which in ("Lambda", "Gamma"):
        memo = {}
        step, within = (m.succ, pi) if which == "Lambda" else (m.pre, sigma)
        for i in omega:
            for j in states:
                if (j not in omega and (i, j) in sigma
                        and _joint_exists(m, i, j, k, step, within, True, memo, bud)):
                    pairs |= {(i, j), (j, i)}
    else:
        raise UsageError("unknown relation %r" % (which,))
    return PairRelation.from_pairs(m.universe, pairs)


# -- bounded semantic check of the diagnosability definitions ---------------

@dataclass(frozen=True)
class Counterexample:
    execution: tuple        # the violating execution, length crossing + delta
    crossing_step: int      # the crossing the observer fails to pin down
    partner: tuple          # same-output execution avoiding the whole window


@dataclass(frozen=True)
class OracleOutcome:
    status: str             # violated | consistent-up-to-horizon | not-applicable
    counterexample: Optional[Counterexample] = None

    @property
    def violated(self):
        return self.status == "violated"


def check_definition(m: Fsm, prop, params, h: Horizon) -> OracleOutcome:
    """Decide a diagnosability definition by exhaustive bounded search.

    A crossing of an execution x from the initial set is a step k with x_k
    in the critical set.  It is applicable when k >= tau + 1 and, for a
    first-only property, x has no critical state before step k.  A violation
    is an applicable crossing at step k of an x of length k + delta, together
    with a partner: an execution from the initial set of the same length,
    with the same outputs, that avoids the critical set on the window
    [max(1, k - gamma1), k + gamma2].  Only executions of at most ``h.length``
    states are searched.  The outcome is "violated" at the first violation
    found, with the least such partner; otherwise "consistent-up-to-horizon"
    when some crossing within the horizon is applicable, else
    "not-applicable".  A machine that fails ``validate(m, "analysis")``
    raises PreconditionError, since the search needs it to have no silent
    states.

    The search is one breadth-first step loop over configurations, from a
    virtual configuration before step 1 whose successors are the initial
    states.  Each configuration holds the last state of x, whether x has
    crossed, the partner states compatible with the outputs so far,
    stratified by how many trailing steps they have avoided the critical set,
    and one tracker per applicable crossing whose partner is neither
    confirmed nor refuted yet.
    """
    validate(m, "analysis").require()
    first_only = PropertyKind.parse(prop).first_only
    tau, delta = params.tau, params.delta
    g1, g2 = params.gamma1, params.gamma2
    bud = _Budget(h.budget)
    omega, label = m.critical, m.label
    succ = {v: sorted(m.succ(v)) for v in m.states}
    succ[None] = sorted(m.initial)

    def advance(group, y, avoid):
        out = set()
        for v in group:
            for w in succ[v]:
                if label[w] == y and not (avoid and w in omega):
                    out.add(w)
        return frozenset(out)

    spawned = False
    # config: (u, crossed, chain, trackers); chain[j] = partner states whose
    # last j steps avoided the critical set; trackers = ((set, age), ...), the
    # partner states of a crossing age steps back, which avoid the critical
    # set while age <= gamma2.  levels[k] maps each configuration after k
    # steps to its parent.
    root = (None, False, (frozenset([None]),) * (g1 + 2), ())
    levels = [{root: None}]
    for k in range(1, h.length + 1):
        nxt = {}
        for cfg in levels[-1]:
            u, crossed, chain, trackers = cfg
            if first_only and crossed and not trackers:
                continue
            if k > 1:   # expanding the virtual root is free
                bud.spend()
            for u2 in succ[u]:
                y = label[u2]
                new_chain = [advance(chain[0], y, False)]
                for j in range(1, g1 + 2):
                    new_chain.append(advance(chain[j - 1], y, True))
                pending = [(advance(t, y, age < g2), age + 1) for t, age in trackers]
                if u2 in omega and k >= tau + 1 and not (first_only and crossed):
                    spawned = True
                    pending.append((new_chain[min(g1 + 1, k)], 0))
                live = [(t, age) for t, age in pending if t]
                if live and any(age == delta for _, age in live):
                    x = [u2]
                    for level in reversed(levels[1:]):
                        x.append(cfg[0])
                        cfg = level[cfg]
                    x = tuple(reversed(x))
                    partner = _find_partner(m, x, k - delta, g1, g2)
                    return OracleOutcome("violated", Counterexample(x, k - delta, partner))
                ncfg = (u2, crossed or u2 in omega, tuple(new_chain), tuple(sorted(live)))
                if ncfg not in nxt:
                    nxt[ncfg] = cfg
        levels.append(nxt)
    return OracleOutcome("consistent-up-to-horizon" if spawned else "not-applicable")


def _find_partner(m, x, k, g1, g2):
    """An execution with the same outputs as x avoiding the critical set on
    [k - g1, k + g2].  Exists whenever check_definition reported a violation."""
    lo, hi = max(1, k - g1), min(len(x), k + g2)
    outs = [m.label[s] for s in x]

    def ok(v, pos):
        return m.label[v] == outs[pos - 1] and not (lo <= pos <= hi and v in m.critical)

    # depth-first in sorted order, one successor iterator per position, so
    # the first partner found is the lexicographically least; (position,
    # state) pairs already searched in full lead nowhere and are skipped
    path, stack, dead = [], [iter(sorted(m.initial))], set()
    while stack:
        v = next(stack[-1], None)
        if v is None:
            stack.pop()
            if path:
                dead.add((len(path), path.pop()))
            continue
        pos = len(path) + 1
        if not ok(v, pos) or (pos, v) in dead:
            continue
        path.append(v)
        if pos == len(x):
            return tuple(path)
        stack.append(iter(sorted(m.succ(v))))
    raise AssertionError("violation reported but no partner found")


def minimal_params(m: Fsm, prop, h: Horizon, cap: Optional[int] = None):
    """Smallest parameters, in lexicographic (tau, delta, gamma1, gamma2)
    order, for which check_definition finds no violation within the horizon.
    Returns None if nothing passes up to the cap."""
    kind = PropertyKind.parse(prop)
    cap = cap if cap is not None else len(m.states) ** 2
    tau_range = range(cap + 1) if kind.transient else (0,)
    for tau in tau_range:
        for delta in range(cap + 1):
            for gamma1 in range(cap + 1):
                for gamma2 in range(min(delta, cap) + 1):
                    p = DiagParams(tau, delta, kind.horizon, gamma1, gamma2)
                    if not check_definition(m, prop, p, h).violated:
                        return p
    return None
