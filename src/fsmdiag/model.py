"""Finite state machine model, text format, validation and execution semantics.

A machine is a tuple (states, initial, outputs, label, trans) together with a
critical subset of states.  States emit their label when entered; the reserved
label ``_`` stands for the silent output and is only meaningful to the
silent-state removal pass.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

from .errors import BudgetExceededError, ParseError, UsageError

#: Reserved token for the silent (null) output.
EPSILON = "_"

DEFAULT_BUDGET = 5_000_000


def _budget(explicit: Optional[int]) -> int:
    if explicit is not None:
        return explicit
    env = os.environ.get("FSMDIAG_BUDGET")
    return int(env) if env else DEFAULT_BUDGET


class Fsm:
    """Immutable finite state machine with state outputs.

    Attributes
    ----------
    states : tuple of state ids, sorted
    initial : frozenset of initial state ids
    outputs : frozenset of non-silent output symbols in use
    label : dict state id -> output symbol (possibly EPSILON)
    trans : frozenset of (from, to) pairs
    critical : frozenset of critical state ids
    """

    def __init__(self, states, initial, label, trans, critical=()):
        states = tuple(sorted(set(states)))
        if not states:
            raise UsageError("a machine needs at least one state")
        for s in states:
            if not s or any(c.isspace() for c in s):
                raise UsageError("state id %r is not a whitespace-free token" % (s,))
        known = set(states)
        initial = frozenset(initial)
        critical = frozenset(critical)
        label = dict(label)
        trans = frozenset(tuple(t) for t in trans)
        if not initial <= known:
            raise UsageError("initial states %s not declared" % sorted(initial - known))
        if not critical <= known:
            raise UsageError("critical states %s not declared" % sorted(critical - known))
        missing = known - set(label)
        if missing:
            raise UsageError("states without output label: %s" % sorted(missing))
        for (a, b) in trans:
            if a not in known or b not in known:
                raise UsageError("transition (%s, %s) uses undeclared states" % (a, b))
        self.states = states
        self.initial = initial
        self.label = label
        self.trans = trans
        self.critical = critical
        self.outputs = frozenset(v for v in label.values() if v != EPSILON)
        succ = {s: set() for s in states}
        pre = {s: set() for s in states}
        for (a, b) in trans:
            succ[a].add(b)
            pre[b].add(a)
        self._succ = {s: frozenset(v) for s, v in succ.items()}
        self._pre = {s: frozenset(v) for s, v in pre.items()}

    # -- basic queries -----------------------------------------------------

    def succ(self, i):
        """Successor set of state i."""
        try:
            return self._succ[i]
        except KeyError:
            raise UsageError("unknown state %r" % (i,)) from None

    def pre(self, i):
        """Predecessor set of state i."""
        try:
            return self._pre[i]
        except KeyError:
            raise UsageError("unknown state %r" % (i,)) from None

    def is_silent(self, i):
        return self.label[i] == EPSILON

    @property
    def silent_states(self):
        return frozenset(s for s in self.states if self.label[s] == EPSILON)

    def replace(self, **kw):
        """Copy with some fields overridden (initial, critical, trans, label)."""
        args = dict(
            states=self.states,
            initial=self.initial,
            label=self.label,
            trans=self.trans,
            critical=self.critical,
        )
        bad = set(kw) - set(args)
        if bad:
            raise UsageError("cannot override %s" % sorted(bad))
        args.update(kw)
        return Fsm(**args)

    def __eq__(self, other):
        if not isinstance(other, Fsm):
            return NotImplemented
        return (
            self.states == other.states
            and self.initial == other.initial
            and self.label == other.label
            and self.trans == other.trans
            and self.critical == other.critical
        )

    def __hash__(self):
        return hash((self.states, self.initial, self.trans, self.critical,
                     tuple(sorted(self.label.items()))))

    def __repr__(self):
        return "Fsm(%d states, %d transitions, |X0|=%d, |Omega|=%d)" % (
            len(self.states), len(self.trans), len(self.initial), len(self.critical))


# -- text format -----------------------------------------------------------

def parse_fsm(text: str) -> Fsm:
    """Parse the line-oriented ``fsm v1`` format."""
    lines = text.splitlines()
    body = []
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if line:
            body.append((lineno, line))
    if not body or body[0][1] != "fsm v1":
        raise ParseError("missing 'fsm v1' header")
    states, initial, critical, label = [], set(), set(), {}
    trans = set()
    for lineno, line in body[1:]:
        toks = line.split()
        kind = toks[0]
        if kind == "state":
            if len(toks) < 3:
                raise ParseError("line %d: state needs an id and output=" % lineno)
            sid = toks[1]
            if sid in label:
                raise ParseError("line %d: duplicate state %r" % (lineno, sid))
            out = None
            for flag in toks[2:]:
                if flag.startswith("output="):
                    out = flag[len("output="):]
                elif flag == "init":
                    initial.add(sid)
                elif flag == "critical":
                    critical.add(sid)
                else:
                    raise ParseError("line %d: unknown attribute %r" % (lineno, flag))
            if not out:
                raise ParseError("line %d: state %r has no output=" % (lineno, sid))
            states.append(sid)
            label[sid] = out
        elif kind == "trans":
            if len(toks) != 3:
                raise ParseError("line %d: trans needs exactly two states" % lineno)
            a, b = toks[1], toks[2]
            if a not in label or b not in label:
                raise ParseError("line %d: trans references undeclared state" % lineno)
            trans.add((a, b))
        else:
            raise ParseError("line %d: unknown directive %r" % (lineno, kind))
    try:
        return Fsm(states, initial, label, trans, critical)
    except UsageError as exc:
        raise ParseError(str(exc)) from exc


def fsm_to_text(m: Fsm) -> str:
    """Serialize back to the fsm v1 format, deterministically ordered."""
    out = ["fsm v1"]
    for s in m.states:
        parts = ["state", s, "output=" + m.label[s]]
        if s in m.initial:
            parts.append("init")
        if s in m.critical:
            parts.append("critical")
        out.append(" ".join(parts))
    for a, b in sorted(m.trans):
        out.append("trans %s %s" % (a, b))
    return "\n".join(out) + "\n"


def load_fsm(path) -> Fsm:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_fsm(fh.read())


# -- validation ------------------------------------------------------------

@dataclass(frozen=True)
class Violation:
    code: str
    severity: str  # "error" or "warning"
    subject: str
    message: str


@dataclass(frozen=True)
class ValidationReport:
    mode: str
    entries: tuple

    @property
    def ok(self) -> bool:
        return not any(v.severity == "error" for v in self.entries)

    def codes(self):
        return {v.code for v in self.entries}

    def __bool__(self):
        return self.ok


def _silent_cycle_states(m: Fsm):
    """States of the silent-induced subgraph that lie on a cycle: the members
    of its strongly connected components that contain one (Tarjan's
    algorithm, with an explicit stack instead of recursion)."""
    silent = m.silent_states
    index, low = {}, {}
    path, component, on_cycle = [], [], set()

    def enter(s):
        index[s] = low[s] = len(index)
        component.append(s)
        path.append((s, iter(m.succ(s) & silent)))

    for root in silent:
        if root in index:
            continue
        enter(root)
        while path:
            s, successors = path[-1]
            for t in successors:
                if t not in index:
                    enter(t)
                    break
                if t in low:  # still on the component stack
                    low[s] = min(low[s], index[t])
            else:
                path.pop()
                if path:
                    parent = path[-1][0]
                    low[parent] = min(low[parent], low[s])
                if low[s] == index[s]:
                    members = [component.pop()]
                    while members[-1] != s:
                        members.append(component.pop())
                    for t in members:
                        del low[t]
                    if len(members) > 1 or s in m.succ(s):
                        on_cycle.update(members)
    return on_cycle


def validate(m: Fsm, mode: str = "analysis") -> ValidationReport:
    """Check the standing assumptions for the given mode.

    ``analysis`` requires liveness, no silent outputs and a nonempty initial
    set.  ``desilent`` requires no all-silent cycle and no silent initial
    state; the initial-iff-no-predecessors condition is reported as a warning
    only (machines of practical interest routinely violate it).
    """
    if mode not in ("analysis", "desilent"):
        raise UsageError("unknown validation mode %r" % mode)
    entries = []
    if mode == "analysis":
        for s in m.states:
            if not m.succ(s):
                entries.append(Violation("liveness", "error", s,
                                         "state %s has no successor" % s))
        for s in m.states:
            if m.is_silent(s):
                entries.append(Violation("epsilon-output", "error", s,
                                         "state %s is labelled with the silent output" % s))
        if not m.initial:
            entries.append(Violation("empty-initial", "error", "",
                                     "initial state set is empty"))
    else:
        for s in sorted(_silent_cycle_states(m)):
            entries.append(Violation("silent-cycle", "error", s,
                                     "silent state %s lies on an all-silent cycle" % s))
        for s in sorted(m.initial):
            if m.is_silent(s):
                entries.append(Violation("silent-initial", "error", s,
                                         "initial state %s is silent" % s))
        for s in m.states:
            no_pre = not m.pre(s)
            if no_pre != (s in m.initial):
                entries.append(Violation("initial-predecessor-mismatch", "warning", s,
                                         "state %s: initial membership does not match "
                                         "absence of predecessors" % s))
    return ValidationReport(mode, tuple(entries))


# -- execution semantics ---------------------------------------------------

def is_execution(m: Fsm, x: Sequence[str]) -> bool:
    if not x:
        return False
    if any(s not in m.label for s in x):
        return False
    return all((a, b) in m.trans for a, b in zip(x, x[1:]))


def output_of(m: Fsm, x: Sequence[str]):
    """Projected output string of an execution: labels with silences erased."""
    if not is_execution(m, x):
        raise UsageError("%r is not an execution of the machine" % (list(x),))
    return tuple(m.label[s] for s in x if m.label[s] != EPSILON)


def crossing_index(x: Sequence[str], omega: Iterable[str]) -> Optional[int]:
    """1-based index of the first critical state of x, or None for never."""
    om = set(omega)
    for k, s in enumerate(x, 1):
        if s in om:
            return k
    return None


def build_restricted(m: Fsm) -> Fsm:
    """Machine with every transition leaving a critical state removed.

    The result may fail liveness; downstream reachability computations do not
    depend on it.
    """
    keep = frozenset((a, b) for (a, b) in m.trans if a not in m.critical)
    return m.replace(trans=keep)


def enumerate_executions(m: Fsm, sources: Iterable[str], length: int,
                         budget: Optional[int] = None):
    """All executions of exactly ``length`` states starting in ``sources``."""
    if length < 1:
        raise UsageError("execution length must be >= 1")
    cap = _budget(budget)
    for s in sources:
        if s not in m.label:
            raise UsageError("unknown state %r" % (s,))
    frontier = [(s,) for s in sorted(set(sources))]
    for _ in range(length - 1):
        nxt = []
        for path in frontier:
            for t in sorted(m.succ(path[-1])):
                nxt.append(path + (t,))
                if len(nxt) > cap:
                    raise BudgetExceededError(
                        "more than %d executions of length %d" % (cap, length))
        frontier = nxt
    return frontier
