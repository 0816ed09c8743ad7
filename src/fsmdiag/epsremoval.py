"""Silent-state elimination.

Rewrites a machine with silent (``_``-labelled) states into an equivalent
machine without them, preserving the projected output language and the
location of critical crossings.  A non-silent state w followed by a silent
run that ends in q folds into one fresh state ``q~w`` with w's output.  A run
ends at a silent state with no silent successor or with some non-silent
successor, and the fresh state steps only to q's non-silent successors.  A
run that touches the critical set (w included) folds into a flagged copy
``q~w+`` that joins the new critical set.  The runs are found on the input
machine by one forward search per entering state (``silent_runs``).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .errors import PreconditionError, UsageError
from .model import Fsm, is_execution, validate


def max_silent_length(m: Fsm) -> int:
    """Length (in states) of the longest path through silent states.

    Kahn's algorithm in rounds: each round removes the silent states whose
    silent successors are all gone, so the number of rounds is the length
    of the longest run.  States never removed lead into a silent cycle."""
    eps = m.silent_states
    waiting = {s: len(m.succ(s) & eps) for s in eps}
    layer = [s for s in eps if not waiting[s]]
    rounds = 0
    while layer:
        rounds += 1
        nxt = []
        for t in layer:
            for p in m.pre(t):
                if p in waiting:
                    waiting[p] -= 1
                    if not waiting[p]:
                        nxt.append(p)
        layer = nxt
    stuck = [s for s, count in waiting.items() if count]
    if stuck:
        raise PreconditionError("silent cycle reachable from %s" % min(stuck))
    return rounds


def silent_runs(m: Fsm, w) -> set:
    """Every (q, crossed) such that a silent run w -> ... -> q exists, with
    crossed telling whether the run touches the critical set (w included).

    A forward search over (silent state, crossed) nodes: crossed starts as
    ``w in critical`` and turns true once the run enters a critical state.
    Each node is expanded once, so the search costs O(silent edges) and
    needs no length bound."""
    critical = m.critical
    start = w in critical
    seen = set()
    stack = [(t, start or t in critical) for t in m.succ(w) if m.is_silent(t)]
    while stack:
        node = stack.pop()
        if node in seen:
            continue
        seen.add(node)
        s, crossed = node
        stack.extend((t, crossed or t in critical)
                     for t in m.succ(s) if m.is_silent(t))
    return seen


def silent_reach_avoiding(m: Fsm, q, w) -> bool:
    """Is q reached from w by a silent run none of whose states (w and q
    included) is critical?"""
    eps = m.silent_states
    if q not in eps or q in m.critical:
        raise UsageError("q must be a non-critical silent state")
    if w in eps or w in m.critical:
        raise UsageError("w must be a non-critical non-silent state")
    return (q, False) in silent_runs(m, w)


def silent_reach_crossing(m: Fsm, q, w) -> bool:
    """Does some silent run from w to q touch the critical set (w included)?"""
    eps = m.silent_states
    if q not in eps:
        raise UsageError("q must be a silent state")
    if w in eps:
        raise UsageError("w must be a non-silent state")
    return (q, True) in silent_runs(m, w)


@dataclass(frozen=True)
class SilentRemovalResult:
    m_hat: Fsm
    provenance: dict            # fresh state -> (q, w, crossed); q and w are states of m


def _fresh(base, used):
    name = base
    while name in used:
        name += "'"
    used.add(name)
    return name


def desilent(m: Fsm) -> SilentRemovalResult:
    """Fold every silent run into a fresh non-silent state.

    A run ends at a silent state q with no silent successor or with some
    non-silent successor.  A fresh state exists per (q, entering non-silent
    state w) pair, in a plain variant ``q~w`` when some such run avoids the
    critical set and a flagged variant ``q~w+`` when some run touches it (w
    included); the flagged variants make up the new critical states together
    with the surviving old ones.  A fresh state has w's output and steps to
    q's non-silent successors and to the fresh states they enter.  The
    variants come from one ``silent_runs`` search per entering state and are
    named in (q, w, crossed) order.  Silent states and the states left without
    successors are then dropped; if that drops every state, PreconditionError.
    """
    validate(m, "desilent").require()
    eps = m.silent_states
    if not eps:
        return SilentRemovalResult(m, {})

    ends = {q for q in eps if not m.succ(q) & eps or m.succ(q) - eps}
    entries = [w for w in m.states if w not in eps and m.succ(w) & eps]
    used = set(m.states)
    new = {}  # (q, w, crossed) -> fresh name, q-major, plain before flagged
    for q, w, crossed in sorted((q, w, crossed) for w in entries
                                for q, crossed in silent_runs(m, w)
                                if q in ends):
        new[(q, w, crossed)] = _fresh(
            "%s~%s%s" % (q, w, "+" if crossed else ""), used)

    # each non-silent state w is the node (w, w, w in critical), under its own
    # name; a node (q, w, crossed) speaks w's output and steps from q
    nodes = {(w, w, w in m.critical): w for w in m.states if w not in eps} | new
    entered = {}  # w -> names of the nodes entered through w
    for (q, w, crossed), name in nodes.items():
        entered.setdefault(w, []).append(name)
    trans = {(name, v) for (q, w, crossed), name in nodes.items()
             for t in m.succ(q) - eps for v in entered[t]}
    states = set(nodes.values())
    label = {name: m.label[w] for (q, w, crossed), name in nodes.items()}
    initial = {name for (q, w, crossed), name in nodes.items() if w in m.initial}
    critical = {name for (q, w, crossed), name in nodes.items() if crossed}

    # drop sink states until none remain; dropping one takes a live successor
    # from each predecessor, and those left with none are sinks in turn
    live = Counter(a for a, _ in trans)
    sinks = [s for s in states if not live[s]]
    if sinks:
        pre = {}
        for a, b in trans:
            pre.setdefault(b, []).append(a)
        for s in sinks:         # grows while it is read
            for p in pre.get(s, ()):
                live[p] -= 1
                if not live[p]:
                    sinks.append(p)
        states -= set(sinks)
        trans = {(a, b) for (a, b) in trans if a in states and b in states}
    if not states:
        raise PreconditionError("silent-state removal leaves no state: "
                                "every execution ends in a state without successor")

    m_hat = Fsm(states, initial & states,
                {s: label[s] for s in states}, trans, critical & states)
    provenance = {name: key for key, name in new.items() if name in states}
    return SilentRemovalResult(m_hat, provenance)


def execution_image(result: SilentRemovalResult, m: Fsm, x) -> tuple:
    """Map an execution of the original machine, which must start
    non-silent, to its counterpart in the rewritten one: one state per
    block, a non-silent state u and the silent run after it.

    A block with an empty run maps to u.  A finished run maps to the fresh
    state that folds it, flagged when the block touched the critical set.
    The last block's run may be unfinished.  It is dropped, as it gives no
    output, when it touched no critical state and u survived the rewrite.
    Otherwise the block maps to the least surviving fresh state of a run
    that continues it, flagged whenever the block touched the critical set.
    A sequence that is not an execution of ``m``, and a block with no
    surviving image, raise UsageError.
    """
    x = tuple(x)
    if not is_execution(m, x):
        raise UsageError("not an execution of the original machine")
    if m.is_silent(x[0]):
        raise UsageError("execution starts in a silent state")
    lookup = {key: name for name, key in result.provenance.items()}
    starts = [i for i, s in enumerate(x) if not m.is_silent(s)] + [len(x)]
    out = []
    for i, j in zip(starts, starts[1:]):
        u, run, last = x[i], x[i + 1:j], j == len(x)
        if u in result.m_hat.label and not (run and (not last or m.critical.intersection(run))):
            out.append(u)
            continue
        crossed = any(s in m.critical for s in x[i:j])
        keys = [(x[j - 1], u, crossed)]
        if last:
            keys += [(q, u, crossed or c) for q, c in silent_runs(m, x[j - 1])]
        names = [lookup[k] for k in sorted(keys) if k in lookup]
        if not names:
            raise UsageError("%s has no surviving image" % (" ".join(x[i:j]),))
        out.append(names[0])
    return tuple(out)
