"""Finite state machine model, text format, validation and execution semantics.

A machine is a tuple (states, initial, outputs, label, trans) together with a
critical subset of states.  States emit their label when entered; the reserved
label ``_`` stands for the silent output and is only meaningful to the
silent-state removal pass.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Optional, Sequence

from .errors import ParseError, PreconditionError, UsageError
from .relations import PairRelation, Universe, product_relation

#: Reserved token for the silent (null) output.
EPSILON = "_"


def _is_token(s) -> bool:
    """A nonempty string without whitespace or ``#``: one fsm v1 token."""
    return isinstance(s, str) and "#" not in s and s.split() == [s]


class Fsm:
    """Immutable finite state machine with state outputs.

    Attributes
    ----------
    states : tuple of state ids (tokens), sorted
    universe : Universe of the states, held by every relation over them
    initial : frozenset of initial state ids
    outputs : frozenset of non-silent output symbols in use
    label : dict state id -> output symbol (possibly EPSILON)
    trans : frozenset of (from, to) pairs
    critical : frozenset of critical state ids
    """

    def __init__(self, states, initial, label, trans, critical=()):
        try:
            states = tuple(sorted(set(states)))
            initial, critical = frozenset(initial), frozenset(critical)
        except TypeError:
            raise UsageError("states, initial and critical must be collections "
                             "of string state ids") from None
        if not states:
            raise UsageError("a machine needs at least one state")
        self.states = states
        self.universe = Universe(states)
        self.initial = self._declared("initial", initial)
        self.critical = self._declared("critical", critical)
        label = dict(label)
        if label.keys() != self.universe.index.keys():
            raise UsageError("states without output label or labels without state: %s"
                             % sorted(set(states) ^ set(label), key=str))
        # every id and label is a token iff their join splits back into them
        items = [*states, *map(label.__getitem__, states)]
        try:
            text = " ".join(items)
        except TypeError:
            text = "#"
        if "#" in text or text.split() != items:
            for s in states:
                if not (_is_token(s) and _is_token(label[s])):
                    raise UsageError("state %r and output label %r must be tokens: nonempty, "
                                     "without whitespace or '#'" % (s, label[s]))
        self.label = label
        self.outputs = frozenset(label.values()) - {EPSILON}
        self._set_trans(trans)

    def _declared(self, what, chosen):
        if not chosen <= self.universe.index.keys():
            raise UsageError("%s states %s not declared"
                             % (what, sorted(chosen - set(self.states))))
        return chosen

    def _set_trans(self, trans):
        # a method of its own, as ``build_restricted`` sets only the
        # transitions.  Each state's successors and predecessors as lists,
        # in one pass; ``succ`` and ``pre`` read them as frozensets built on
        # first use
        trans = frozenset(map(tuple, trans))
        succ = {s: [] for s in self.states}
        pre = {s: [] for s in self.states}
        try:
            for a, b in trans:
                succ[a].append(b)
                pre[b].append(a)
        except KeyError:
            raise UsageError("transition (%s, %s) uses undeclared states" % (a, b)) from None
        except ValueError:
            raise UsageError("a transition is a pair of states") from None
        self.trans = trans
        self._succ_lists, self._pre_lists = succ, pre

    # -- basic queries -----------------------------------------------------

    @cached_property
    def _succ(self):
        return {s: frozenset(v) for s, v in self._succ_lists.items()}

    @cached_property
    def _pre(self):
        return {s: frozenset(v) for s, v in self._pre_lists.items()}

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

    @cached_property
    def adjacency(self):
        """``(succ, pre)``: for each state by its position in ``states``, the
        sorted positions of its successors (resp. predecessors).  Built once
        per machine; the fixed-point engines walk the pair graph over it."""
        position = self.universe.index.__getitem__

        def positions(step):
            return tuple(tuple(sorted(map(position, v))) for v in step.values())
        return positions(self._succ_lists), positions(self._pre_lists)

    @cached_property
    def pi(self):
        """Pi, all ordered pairs of states with the same output label, as a
        PairRelation.  Built once per machine; the recursions seeded or
        bounded by Pi and ``Analysis.pi`` read it."""
        by_label = {}
        for s in self.states:
            by_label.setdefault(self.label[s], []).append(s)
        rel = PairRelation(self.universe)
        for group in by_label.values():
            rel = rel | product_relation(self.universe, group, group)
        return rel

    @cached_property
    def mixed(self):
        """The mixed pairs, ordered pairs with exactly one critical state, as
        a PairRelation.  Built once per machine; the checks read their
        relations on these pairs, and the masking recursions project onto
        them."""
        rest = [s for s in self.states if s not in self.critical]
        return (product_relation(self.universe, self.critical, rest)
                | product_relation(self.universe, rest, self.critical))

    @cached_property
    def pair_branching(self):
        """The mean number of equal-label successor pairs per pair of Pi,
        the branching factor of the pair graph inside Pi: sum T(x, y)^2 over
        |Pi|, T(x, y) being the transitions from an x-labelled to a
        y-labelled state, and the same for predecessors.  Read off label
        counts in O(n + transitions) and built once per machine; the shrink
        engine reads it to choose its path."""
        label = self.label
        moves = Counter((label[s], label[t]) for s, t in self.trans)
        return sum(t * t for t in moves.values()) / len(self.pi)

    def is_silent(self, i):
        return self.label[i] == EPSILON

    @property
    def silent_states(self):
        return frozenset(s for s in self.states if self.label[s] == EPSILON)

    def replace(self, **kw):
        """A new machine with some fields (states, initial, label, trans,
        critical) overridden, built and checked by the constructor."""
        bad = kw.keys() - _FIELDS
        if bad:
            raise UsageError("cannot override %s" % sorted(bad))
        return Fsm(**{**{f: getattr(self, f) for f in _FIELDS}, **kw})

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


_FIELDS = frozenset(("states", "initial", "label", "trans", "critical"))


# -- text format -----------------------------------------------------------

def parse_fsm(text: str) -> Fsm:
    """Parse the line-oriented ``fsm v1`` format."""
    lines = enumerate(text.splitlines(), 1)
    header = None
    for lineno, raw in lines:
        header = raw.split("#", 1)[0].strip()
        if header:
            break
    if header != "fsm v1":
        raise ParseError("missing 'fsm v1' header")
    # ids maps each declared state id to itself, so that a transition holds
    # the very strings of its states and every later lookup of them meets
    # the same object
    ids, initial, critical, label, trans = {}, set(), set(), {}, []
    for lineno, raw in lines:
        if "#" in raw:
            raw = raw.split("#", 1)[0]
        toks = raw.split()
        if not toks:
            continue
        kind = toks[0]
        if kind == "trans":
            if len(toks) != 3:
                raise ParseError("line %d: trans needs exactly two states" % lineno)
            try:
                trans.append((ids[toks[1]], ids[toks[2]]))
            except KeyError:
                raise ParseError("line %d: trans references undeclared state" % lineno) from None
        elif kind == "state":
            if len(toks) < 3:
                raise ParseError("line %d: state needs an id and output=" % lineno)
            sid = toks[1]
            if sid in label:
                raise ParseError("line %d: duplicate state %r" % (lineno, sid))
            out = None
            for flag in toks[2:]:
                if flag.startswith("output="):
                    if out is not None:
                        raise ParseError("line %d: state %r repeats output=" % (lineno, sid))
                    out = flag[len("output="):]
                elif flag == "init":
                    initial.add(sid)
                elif flag == "critical":
                    critical.add(sid)
                else:
                    raise ParseError("line %d: unknown attribute %r" % (lineno, flag))
            if not out:
                raise ParseError("line %d: state %r has no output=" % (lineno, sid))
            ids[sid] = sid
            label[sid] = out
        else:
            raise ParseError("line %d: unknown directive %r" % (lineno, kind))
    try:
        return Fsm(ids, initial, label, trans, critical)
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
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError("%s is not UTF-8 text (byte %d)" % (path, exc.start)) from None
    # a leading byte-order mark marks the encoding and is no part of the text
    return parse_fsm(text.removeprefix("\ufeff"))


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

    def require(self):
        """Raise PreconditionError listing every error entry, unless ok."""
        if not self.ok:
            what = "silent-removal" if self.mode == "desilent" else self.mode
            raise PreconditionError(
                "machine fails %s assumptions: " % what
                + "; ".join(v.message for v in self.entries if v.severity == "error"))


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
        for s, after in m._succ_lists.items():
            if not after:
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
        for s, before in m._pre_lists.items():
            if (not before) != (s in m.initial):
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

    It holds ``m``'s very states, universe, initial and critical sets, label
    dict, outputs and Pi, which it builds on ``m`` first, so that one Pi
    serves both machines; every other cached attribute it builds from its
    own fields.  The result may fail liveness; downstream reachability
    computations do not depend on it.
    """
    r = object.__new__(Fsm)
    vars(r).update(states=m.states, universe=m.universe, initial=m.initial,
                   critical=m.critical, label=m.label, outputs=m.outputs, pi=m.pi)
    r._set_trans(t for t in m.trans if t[0] not in m.critical)
    return r
