"""Silent-state elimination.

Rewrites a machine with silent (``_``-labelled) states into an equivalent
machine without them, preserving the projected output language and the
location of critical crossings.  Each maximal silent run is folded into a
single fresh state named after the run's last silent state and the non-silent
state that entered it; a run that touches the critical set folds into a
flagged copy that joins the new critical set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .errors import PreconditionError, UsageError
from .model import EPSILON, Fsm, validate


@dataclass(frozen=True)
class SilentContext:
    """Structural facts about the silent part of a machine."""
    x_eps: frozenset      # silent states
    x_f: frozenset        # non-silent states with a silent successor
    x_l: frozenset        # silent states with no silent successor
    lam: int              # longest silent run, in states


def silent_context(m: Fsm) -> SilentContext:
    eps = m.silent_states
    x_f = frozenset(s for s in m.states
                    if s not in eps and m.succ(s) & eps)
    x_l = frozenset(s for s in eps if not m.succ(s) & eps)
    return SilentContext(eps, x_f, x_l, max_silent_length(m))


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


def silent_reach_avoiding(m: Fsm, q, w) -> bool:
    """Is q reached from w by a silent run none of whose states (w and q
    included) is critical?  Backward sweep from q through non-critical
    silent states, at most as deep as the longest silent run."""
    eps = m.silent_states
    if q not in eps or q in m.critical:
        raise UsageError("q must be a non-critical silent state")
    if w in eps or w in m.critical:
        raise UsageError("w must be a non-critical non-silent state")
    lam = max_silent_length(m)
    layer = {q}
    for _ in range(lam):
        layer = {p for z in layer if z in eps and z not in m.critical
                 for p in m.pre(z)}
        if w in layer:
            return True
    return False


def silent_reach_crossing(m: Fsm, q, w) -> bool:
    """Does some silent run from w to q touch the critical set (w included)?

    For each candidate run length a backward sweep from q marks the states
    that can still reach q silently, then a forward sweep from w keeps only
    the positions actually reachable; every state in those layers lies on a
    complete w-to-q run, so touching the critical set anywhere suffices.
    """
    eps = m.silent_states
    if q not in eps:
        raise UsageError("q must be a silent state")
    if w in eps:
        raise UsageError("w must be a non-silent state")
    lam = max_silent_length(m)
    for g in range(2, lam + 2):
        layers = [{q}]
        for _ in range(g - 2):
            layers.append({p for z in layers[-1] for p in m.pre(z) if p in eps})
        layers.reverse()  # layers[k] = position k + 2 of a length-g run
        v = {w} if any(w in m.pre(z) for z in layers[0]) else set()
        if not v:
            continue
        touched = set(v)
        ok = True
        for lay in layers:
            v = {t for s in v for t in m.succ(s)} & lay
            if not v:
                ok = False
                break
            touched |= v
        if ok and touched & m.critical:
            return True
    return False


@dataclass(frozen=True)
class SilentRemovalResult:
    m_hat: Fsm
    omega_hat: frozenset
    provenance: dict            # new state -> (q, w, crossed)
    prepared: Optional[Fsm] = None   # machine after the mixed-successor split
    split: dict = field(default_factory=dict)  # original silent state -> (s-copy, n-copy)


def _fresh(base, used):
    name = base
    while name in used:
        name += "'"
    used.add(name)
    return name


def _split_mixed(m: Fsm):
    """Give each silent state with both silent and non-silent successors two
    copies, one per successor kind, both inheriting every predecessor."""
    eps = m.silent_states
    used = set(m.states)
    split = {}
    for q in m.states:
        if q in eps:
            succs = m.succ(q)
            if succs & eps and succs - eps:
                split[q] = (_fresh(q + ".s", used), _fresh(q + ".n", used))
    if not split:
        return m, split
    states = [s for s in m.states if s not in split]
    label = {s: m.label[s] for s in states}
    critical = set(m.critical - set(split))
    for q, (qs, qn) in split.items():
        states += [qs, qn]
        label[qs] = label[qn] = EPSILON
        if q in m.critical:
            critical.update((qs, qn))
    trans = set()
    for (a, b) in m.trans:
        if a in split:
            sources = [split[a][0] if b in eps else split[a][1]]
        else:
            sources = [a]
        targets = list(split[b]) if b in split else [b]
        for s in sources:
            for t in targets:
                trans.add((s, t))
    return Fsm(states, m.initial, label, trans, critical), split


def desilent(m: Fsm) -> SilentRemovalResult:
    """Fold every maximal silent run into a fresh non-silent state.

    A fresh state exists per (last silent state of a run, entering non-silent
    state) pair, in a plain variant when some such run avoids the critical
    set and a flagged variant when some run touches it; the flagged variants
    make up the new critical states together with the surviving old ones.
    Silent states and the states left without successors are then dropped.
    """
    report = validate(m, "desilent")
    if not report.ok:
        raise PreconditionError(
            "machine fails silent-removal assumptions: "
            + "; ".join(v.message for v in report.entries if v.severity == "error"))
    if not m.silent_states:
        return SilentRemovalResult(m, m.critical, {}, m, {})

    m0, split = _split_mixed(m)
    ctx = silent_context(m0)
    used = set(m0.states)

    new = {}  # (q, w, crossed) -> fresh name
    new_initial = set()
    for q in sorted(ctx.x_l):
        for w in sorted(ctx.x_f):
            if (q not in m0.critical and w not in m0.critical
                    and silent_reach_avoiding(m0, q, w)):
                new[(q, w, False)] = _fresh("%s~%s" % (q, w), used)
            if silent_reach_crossing(m0, q, w):
                new[(q, w, True)] = _fresh("%s~%s+" % (q, w), used)
            for key in ((q, w, False), (q, w, True)):
                if key in new and w in m0.initial:
                    new_initial.add(new[key])

    by_entry = {}  # w -> names of fresh states entered through w
    for (q, w, crossed), name in new.items():
        by_entry.setdefault(w, []).append(name)

    eps = ctx.x_eps
    trans = {(a, b) for (a, b) in m0.trans if a not in eps and b not in eps}
    for (q, w, crossed), name in new.items():
        for t in m0.succ(q):       # q in x_l, so t is never silent
            trans.add((name, t))
            for other in by_entry.get(t, ()):
                trans.add((name, other))
        for p in m0.pre(w):
            if p not in eps:
                trans.add((p, name))

    states = set(m0.states) - eps | set(new.values())
    label = {s: m0.label[s] for s in states & set(m0.states)}
    for (q, w, crossed), name in new.items():
        label[name] = m0.label[w]
    initial = (m0.initial & states) | new_initial
    critical = (m0.critical & states) | {n for (q, w, c), n in new.items() if c}

    # drop sink states until none remain; dropping can create new sinks
    while True:
        succ = {s: set() for s in states}
        for (a, b) in trans:
            if a in states and b in states:
                succ[a].add(b)
        sinks = {s for s in states if not succ[s]}
        if not sinks:
            break
        states -= sinks
    trans = {(a, b) for (a, b) in trans if a in states and b in states}

    m_hat = Fsm(states, initial & states,
                {s: label[s] for s in states}, trans, critical & states)
    provenance = {name: key for key, name in new.items() if name in states}
    return SilentRemovalResult(m_hat, m_hat.critical, provenance, m0, split)


def execution_image(result: SilentRemovalResult, m: Fsm, x) -> tuple:
    """Map an execution of the original machine to its counterpart in the
    rewritten one.  Trailing silent states contribute no output and are
    ignored; the execution must start non-silent and every folded run must
    correspond to a surviving state."""
    x = tuple(x)
    if not x or any(s not in m.label for s in x):
        raise UsageError("not an execution of the original machine")
    while x and m.is_silent(x[-1]):
        x = x[:-1]
    if not x:
        raise UsageError("execution is entirely silent")
    if m.is_silent(x[0]):
        raise UsageError("execution starts in a silent state")
    lookup = {key: name for name, key in result.provenance.items()}
    out = []
    i = 0
    while i < len(x):
        u = x[i]
        j = i + 1
        run = []
        while j < len(x) and m.is_silent(x[j]):
            run.append(x[j])
            j += 1
        if run:
            q = run[-1]
            if q in result.split:
                q = result.split[q][1]  # the copy keeping non-silent successors
            crossed = u in m.critical or any(s in m.critical for s in run)
            name = lookup.get((q, u, crossed))
            if name is None:
                raise UsageError("silent run %s has no surviving image" % (run,))
            out.append(name)
        else:
            if u not in result.m_hat.label:
                raise UsageError("state %s did not survive the rewrite" % u)
            out.append(u)
        i = j
    return tuple(out)
