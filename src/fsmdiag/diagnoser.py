"""Online set-membership diagnoser.

Consumes an output stream symbol by symbol and reports crossings of the
critical set with the delay and uncertainty window guaranteed by a checker
verdict.  The estimate at lag d = max{f, l} - 1 is computed exactly, by
fixed-lag smoothing: a window of the last d + 1 state sets is kept, each
narrowed to the states that some execution consistent with the whole stream
so far passes through at that step.  A new symbol extends the newest set to
its successors with that output, the first symbol the initial states with
it, then narrows the window backward only until a set stops shrinking,
since a set cannot shrink unless the set after it did.  Each step thus
costs the newest set's successors plus the sets that actually lose states,
independently of the lag, and the estimate is the oldest set, read without
a rescan.  Propagating only the (lagged state, current state) endpoint
pairs would over-approximate the lagged estimate, because it forgets
whether a single execution connects the two endpoints through the window.

Both set operations are memoized per session, in the manner of a lazily
built subset automaton: the forward step, (newest set, symbol) -> (states
of the set with a successor of that symbol, their successors of that
symbol), the newest set being ``None`` before the first symbol, whose step
gives the initial states with that output; and the backward narrowing,
(older set, later set) -> the states of the older set with a successor in
the later one.  Each is a pure function of its key, so a hit gives what
recomputing would, and events and windows stay exact; a stream that
revisits a few sets pays for each step once.  Every set the two caches hand
out is interned through a third, so equal sets are stored once and later
lookups match them by identity.

Every symbol, the first included, costs one forward-memo probe and a few
local tests.  The unknown-symbol check runs on the forward memo's miss
path: a hit means the symbol was accepted before, and a cache stores no
exception, so a rejected symbol is checked again each time and leaves the
window as it was.  The forward step gives ``None`` as the kept states when
it drops none, so narrowing is tried only when a set shrinks, and the event
test starts with one integer comparison that covers both the threshold and
a one-shot session that has already reported.

The caches are ``functools.lru_cache`` wrappers of ``MEMO_CAP`` entries
each over module-level functions, so the least recently used entry goes
first, ``cache_info()`` reports a session's hits and misses, and the caches
die with the session.  They hold the machine but not the ``Estimator``, so
a finished session is freed without waiting for the cycle collector.
"""

from __future__ import annotations

import sys
from collections import deque
from dataclasses import dataclass
from functools import lru_cache, partial

from .checker import DiagVerdict, PropertyKind
from .errors import InconsistentObservationError, UsageError
from .model import Fsm


#: Entries each memo cache of a session holds before it evicts one.
MEMO_CAP = 1024


def _advance(m: Fsm, interned, prev, y) -> tuple:
    """The forward step from ``prev`` on ``y``: the states of ``prev`` with
    a ``y``-successor, ``None`` if that is all of them, and those
    successors.  ``prev`` is ``None`` before the first symbol, which keeps
    ``None`` and reaches the initial states with output ``y``.  A ``y``
    that is no output raises UsageError."""
    if y not in m.outputs:
        raise UsageError("symbol %r is not an output of the machine" % (y,))
    label = m.label
    if prev is None:
        return None, interned(frozenset(s for s in m.initial if label[s] == y))
    keep, cur = [], set()
    for s in prev:
        after = [t for t in m.succ(s) if label[t] == y]
        if after:
            keep.append(s)
            cur.update(after)
    keep = None if len(keep) == len(prev) else interned(frozenset(keep))
    return keep, interned(frozenset(cur))


def _narrow(succ, interned, older: frozenset, later: frozenset) -> frozenset:
    """The states of ``older`` with a successor in ``later``."""
    narrowed = frozenset(s for s in older if not succ(s).isdisjoint(later))
    return older if len(narrowed) == len(older) else interned(narrowed)


def _itself(states: frozenset) -> frozenset:
    """``states``; behind a cache, the session's one object for that set."""
    return states


@dataclass(frozen=True, slots=True)
class DiagnosisEvent:
    detected_at: int        # step at which the crossing became certain
    window: tuple           # closed step interval [lo, hi] containing a crossing
    exact: bool             # the window is a single step


class Estimator:
    """One observation session over one machine."""

    def __init__(self, m: Fsm, verdict: DiagVerdict):
        kind = PropertyKind.parse(verdict.property)
        if not kind.observable:
            raise UsageError("no online diagnoser for property %r" % kind.value)
        if not verdict.holds:
            raise UsageError("cannot observe a machine for which the property fails")
        bfgl = verdict.bfgl
        if not (isinstance(bfgl, tuple) and len(bfgl) == 4
                and all(isinstance(i, int) and i >= 1 for i in bfgl)):
            raise UsageError("a holding verdict needs four indices (b, f, g, l) of at "
                             "least 1, not %r" % (bfgl,))
        b, f, g, l = bfgl
        self.m = m
        self.verdict = verdict
        self.lag = max(f, l) - 1
        self.threshold = max(b, g) + max(f, l) - 1
        self.g = g
        self.l = l
        self.one_shot = kind.first_only
        self.k = 0
        self.events = []
        # state sets at steps k - d .. k, each narrowed by the whole stream
        self._window = deque(maxlen=self.lag + 1)
        # no event before this step: the threshold, or never once a
        # one-shot session has reported
        self._quiet = self.threshold
        self._critical = m.critical
        # the caches close over the machine, never over self
        self._interned = lru_cache(MEMO_CAP)(_itself)
        self._advance = lru_cache(MEMO_CAP)(partial(_advance, m, self._interned))
        self._narrow = lru_cache(MEMO_CAP)(partial(_narrow, m.succ, self._interned))

    def step(self, y) -> "DiagnosisEvent | None":
        """Consume one output symbol; return a detection event, if any."""
        window, k = self._window, self.k
        keep, cur = self._advance(window[-1] if k else None, y)
        if not cur:
            raise InconsistentObservationError(
                "no execution of the machine produces this output stream")
        window.append(cur)
        self.k = k = k + 1
        if keep is not None and len(window) > 1:
            # the newest older set loses the states with no y-successor;
            # each older set then loses the states with no successor left
            # in the set after it, until one loses nothing
            later = window[-2] = keep
            for i in range(len(window) - 3, -1, -1):
                older = window[i]
                narrowed = self._narrow(older, later)
                if len(narrowed) == len(older):
                    break
                window[i] = later = narrowed
        if k < self._quiet:
            return None
        est = window[0]
        if est.isdisjoint(self._critical):
            return None
        pin = self.k - self.lag
        if est <= self._critical:
            window = (pin, pin)
        else:
            window = (max(1, pin - (self.g - 1)), pin + self.l - 1)
        # events come in increasing pin order and an event's window ends by
        # its pin + l - 1, so only the last l events can contain this window
        for e in reversed(self.events):
            if e.detected_at - self.lag + self.l - 1 < window[1]:
                break
            if e.window[0] <= window[0] and window[1] <= e.window[1]:
                return None
        event = DiagnosisEvent(self.k, window, window[0] == window[1])
        self.events.append(event)
        if self.one_shot:
            self._quiet = sys.maxsize
        return event

    def current_estimate(self) -> frozenset:
        """States the machine can be in at step k - d, given everything
        observed through step k (exact: the window is kept narrowed)."""
        if self.k == 0:
            raise UsageError("no symbol observed yet")
        return self._window[0]


def observe(m: Fsm, verdict: DiagVerdict, symbols):
    """Run a whole stream; return (estimator, events in order)."""
    est = Estimator(m, verdict)
    out = []
    for y in symbols:
        ev = est.step(y)
        if ev is not None:
            out.append(ev)
    return est, out
