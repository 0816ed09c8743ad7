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
from .model import Fsm, _budget
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
    ``within`` = Pi this asks for equal outputs at every position."""
    if (i, j) not in within:
        return False
    if avoid and j in m.critical:
        return False
    if k == 1:
        return True
    key = (i, j, k)
    if key in memo:
        return memo[key]
    budget.spend()
    out = False
    for a in step(i):
        for b in step(j):
            if _joint_exists(m, a, b, k - 1, step, within, avoid, memo, budget):
                out = True
                break
        if out:
            break
    memo[key] = out
    return out


def enum_relation(m: Fsm, which: str, k: int,
                  sigma: Optional[PairRelation] = None,
                  budget: Optional[int] = None) -> PairRelation:
    """Compute one of the five pair relations at step k from its definition.

    ``which`` is one of S, F, B, Lambda, Gamma.  B needs the seed relation as
    ``sigma``; Lambda and Gamma need the joint-reachability fixed point there.
    """
    if k < 1:
        raise UsageError("step index must be >= 1")
    if which in ("B", "Lambda", "Gamma") and sigma is None:
        raise UsageError("relation %s needs a seed relation" % which)
    bud = _Budget(budget)
    states = m.states
    omega = m.critical
    pi = PairRelation.from_pairs(states, [(i, j) for i in states for j in states
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
    elif which == "Lambda":
        memo = {}
        for i in omega:
            for j in states:
                if j in omega or (i, j) not in sigma:
                    continue
                if _joint_exists(m, i, j, k, m.succ, pi, True, memo, bud):
                    pairs.add((i, j))
                    pairs.add((j, i))
    elif which == "Gamma":
        memo = {}
        for i in omega:
            for j in states:
                if j in omega:
                    continue
                if _joint_exists(m, i, j, k, m.pre, sigma, True, memo, bud):
                    pairs.add((i, j))
                    pairs.add((j, i))
    else:
        raise UsageError("unknown relation %r" % (which,))
    return PairRelation.from_pairs(states, pairs)


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

    A violation witness is an execution x from the initial set crossing the
    critical set at an applicable step k, together with an execution with the
    same output string of length k + delta that avoids the critical set on
    the entire window [k - gamma1, k + gamma2].  The search walks all
    executions breadth first; alongside each one it carries the sets of
    partner states compatible with the outputs so far, stratified by how many
    trailing steps they have avoided the critical set, plus one tracker per
    pending crossing that still needs its partner confirmed or refuted.
    """
    first_only = PropertyKind.parse(prop).first_only
    tau, delta = params.tau, params.delta
    g1, g2 = params.gamma1, params.gamma2
    bud = _Budget(h.budget)
    omega = m.critical
    by_label = {}
    for s in m.states:
        by_label.setdefault(m.label[s], frozenset())
    for lab in by_label:
        by_label[lab] = frozenset(s for s in m.states if m.label[s] == lab)

    def advance(group, y, avoid):
        out = set()
        for v in group:
            for w in m.succ(v):
                if m.label[w] == y and not (avoid and w in omega):
                    out.add(w)
        return frozenset(out)

    spawned = False
    violation = None  # (final config step n, x path, crossing step k)

    # config: (u, crossed, chain, trackers); chain[j] = partner states whose
    # last j steps avoided the critical set; trackers = ((set, age), ...)
    level = {}
    parents = [{}]
    for u in sorted(m.initial):
        base = frozenset(v for v in m.initial if m.label[v] == m.label[u])
        chain = (base,) + (frozenset(v for v in base if v not in omega),) * (g1 + 1)
        trackers = ()
        if u in omega and 1 >= tau + 1:
            spawned = True
            t0 = chain[min(g1 + 1, 1)]
            if delta == 0:
                if t0:
                    violation = (1, (u,), 1)
                    break
            elif t0:
                trackers = ((t0, 0),)
        cfg = (u, u in omega, chain, trackers)
        if cfg not in level:
            level[cfg] = None
            parents[0][cfg] = (None, u)

    step = 1
    while violation is None and step < h.length:
        nxt = {}
        parents.append({})
        for cfg in level:
            u, crossed, chain, trackers = cfg
            if first_only and crossed and not trackers:
                continue
            bud.spend()
            for u2 in sorted(m.succ(u)):
                y = m.label[u2]
                new_chain = [advance(chain[0], y, False)]
                for j in range(1, g1 + 2):
                    new_chain.append(advance(chain[j - 1], y, True))
                new_trackers = []
                dead = False
                for (tset, age) in trackers:
                    a2 = age + 1
                    t2 = advance(tset, y, a2 <= g2)
                    if not t2:
                        continue
                    if a2 == delta:
                        violation = (step + 1, None, step + 1 - delta)
                        witness_cfg = (cfg, u2)
                        dead = True
                        break
                    new_trackers.append((t2, a2))
                if dead:
                    break
                k2 = step + 1
                if u2 in omega and k2 >= tau + 1 and (not first_only or not crossed):
                    spawned = True
                    t0 = new_chain[min(g1 + 1, k2)]
                    if delta == 0:
                        if t0:
                            violation = (k2, None, k2)
                            witness_cfg = (cfg, u2)
                            break
                    elif t0:
                        new_trackers.append((t0, 0))
                ncfg = (u2, crossed or u2 in omega, tuple(new_chain),
                        tuple(sorted(new_trackers)))
                if ncfg not in nxt:
                    nxt[ncfg] = None
                    parents[step][ncfg] = (cfg, u2)
            if violation is not None:
                break
        if violation is not None and violation[1] is None:
            # rebuild the execution from parent pointers
            pcfg, last = witness_cfg
            path = [last]
            d = step - 1
            c = pcfg
            while c is not None:
                c, s = parents[d].get(c, (None, c[0])) if d >= 0 else (None, None)
                if s is not None:
                    path.append(s)
                d -= 1
            violation = (violation[0], tuple(reversed(path)), violation[2])
        level = nxt
        step += 1
        if not level:
            break

    if violation is not None:
        n, x, k = violation
        partner = _find_partner(m, x, k, g1, g2)
        return OracleOutcome("violated", Counterexample(x, k, partner))
    if not spawned:
        return OracleOutcome("not-applicable")
    return OracleOutcome("consistent-up-to-horizon")


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
