"""Online set-membership diagnoser.

Consumes an output stream symbol by symbol and reports crossings of the
critical set with the delay and uncertainty window guaranteed by a checker
verdict.  The estimate at lag d = max{f, l} - 1 is computed exactly: a short
window of forward-filtered state sets is kept and re-narrowed backward on
every step.  Propagating only the (lagged state, current state) endpoint
pairs would over-approximate the lagged estimate, because it forgets whether
a single execution connects the two endpoints through the window.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .checker import DiagVerdict, PropertyKind
from .errors import InconsistentObservationError, UsageError
from .model import Fsm


@dataclass(frozen=True)
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
        b, f, g, l = verdict.bfgl
        self.m = m
        self.verdict = verdict
        self.lag = max(f, l) - 1
        self.threshold = max(b, g) + max(f, l) - 1
        self.g = g
        self.l = l
        self.one_shot = kind.first_only
        self.k = 0
        self.events = []
        self._window = deque(maxlen=self.lag + 1)  # forward-filtered state sets
        self._done = False

    def step(self, y) -> "DiagnosisEvent | None":
        """Consume one output symbol; return a detection event, if any."""
        if y not in self.m.outputs:
            raise UsageError("symbol %r is not an output of the machine" % (y,))
        if self.k == 0:
            cur = frozenset(s for s in self.m.initial if self.m.label[s] == y)
        else:
            prev = self._window[-1]
            cur = frozenset(t for s in prev for t in self.m.succ(s)
                            if self.m.label[t] == y)
        if not cur:
            raise InconsistentObservationError(
                "no execution of the machine produces this output stream")
        self._window.append(cur)
        self.k += 1
        if self._done or self.k < self.threshold:
            return None
        est = self.current_estimate()
        if not est & self.m.critical:
            return None
        pin = self.k - self.lag
        if est <= self.m.critical:
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
            self._done = True
        return event

    def current_estimate(self) -> frozenset:
        """States the machine can be in at step k - d, given everything
        observed through step k (backward-narrowed, hence exact)."""
        if self.k == 0:
            raise UsageError("no symbol observed yet")
        sets = list(self._window)
        narrowed = sets[-1]
        for c in reversed(sets[:-1]):
            narrowed = frozenset(s for s in c if self.m.succ(s) & narrowed)
        return narrowed


def observe(m: Fsm, verdict: DiagVerdict, symbols):
    """Run a whole stream; return (estimator, events in order)."""
    est = Estimator(m, verdict)
    out = []
    for y in symbols:
        ev = est.step(y)
        if ev is not None:
            out.append(ev)
    return est, out
