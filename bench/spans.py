"""Spans around the public functions of each fsmdiag layer.

``Tracer.install`` replaces module attributes and class methods with
wrappers that record (id, name, start, end, parent id) spans in memory;
``uninstall`` puts the originals back.  Names are patched where the caller
looks them up (``fsmdiag.checker.f_series``, not ``fsmdiag.fixpoint``),
because the modules import one another's functions by name.
"""

from __future__ import annotations

import functools
import json
import time

#: (span name, [(owner, attribute), ...]); an owner is a module or class path
#: under the fsmdiag package.
TARGETS = (
    ("cli.main", [("cli", "main")]),
    ("model.load", [("cli", "load_fsm"), ("", "load_fsm")]),
    ("model.validate", [("cli", "validate"), ("checker", "validate"),
                        ("epsremoval", "validate")]),
    ("model.fsm_to_text", [("cli", "fsm_to_text")]),
    ("checker.check", [("cli", "check")]),
    ("fixpoint.s_series", [("checker", "s_series")]),
    ("fixpoint.f_series", [("checker", "f_series")]),
    ("fixpoint.b_series", [("checker", "b_series")]),
    ("fixpoint.lambda_series", [("checker", "lambda_series")]),
    ("fixpoint.gamma_series", [("checker", "gamma_series")]),
    ("relations.at", [("relations.FixpointSeries", "at")]),
    ("fixpoint.projected_at", [("fixpoint.ProjectedSeries", "at")]),
    ("relations.symmetric_closure", [("relations.PairRelation", "symmetric_closure")]),
    ("diagnoser.step", [("diagnoser.Estimator", "step")]),
    ("diagnoser.current_estimate", [("diagnoser.Estimator", "current_estimate")]),
    ("epsremoval.desilent", [("cli", "desilent")]),
    ("epsremoval.silent_reach", [("epsremoval", "silent_reach_avoiding"),
                                 ("epsremoval", "silent_reach_crossing")]),
    ("epsremoval.max_silent_length", [("epsremoval", "max_silent_length")]),
)

SERIES = ("fixpoint.s_series", "fixpoint.f_series", "fixpoint.b_series",
          "fixpoint.lambda_series", "fixpoint.gamma_series")


def _owner(package, path):
    obj = package
    for part in filter(None, path.split(".")):
        obj = getattr(obj, part)
    return obj


class Tracer:
    def __init__(self):
        self.spans = []        # (id, name, start, end, parent id)
        self._stack = [0]      # ids of the open spans; 0 is the root
        self._next = 1
        self._saved = []

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._next
            self._next = sid + 1
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, name, start, end, parent))
        return wrapper

    def install(self, package):
        for name, places in TARGETS:
            for path, attr in places:
                owner = _owner(package, path)
                original = owner.__dict__[attr]
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def take(self):
        """Return the spans recorded so far and start a fresh list."""
        spans = list(self.spans)
        self.spans.clear()
        return spans


def layer_metrics(spans):
    """Per-layer totals of one pass: inclusive and self time, call counts,
    and per-call latency of the estimator step."""
    total, self_time, calls = {}, {}, {}
    child_time = {}
    for sid, name, start, end, parent in spans:
        d = end - start
        total[name] = total.get(name, 0.0) + d
        calls[name] = calls.get(name, 0) + 1
        child_time[parent] = child_time.get(parent, 0.0) + d
    for sid, name, start, end, parent in spans:
        self_time[name] = self_time.get(name, 0.0) + (end - start) - child_time.get(sid, 0.0)
    steps = sorted(end - start for _, name, start, end, _ in spans
                   if name == "diagnoser.step")

    def pct(q):
        return steps[min(len(steps) - 1, int(q * len(steps)))] * 1e6 if steps else 0.0

    out = {}
    for name in SERIES:
        out[name + ".s"] = total.get(name, 0.0)
    out["fixpoint.series.calls"] = sum(calls.get(n, 0) for n in SERIES)
    for name in ("relations.at", "fixpoint.projected_at", "relations.symmetric_closure",
                 "epsremoval.silent_reach", "epsremoval.max_silent_length"):
        out[name + ".calls"] = calls.get(name, 0)
        out[name + ".s"] = total.get(name, 0.0)
    out["checker.scan.s"] = self_time.get("checker.check", 0.0)
    out["diagnoser.step.calls"] = calls.get("diagnoser.step", 0)
    out["diagnoser.step.us_p50"] = pct(0.50)
    out["diagnoser.step.us_p99"] = pct(0.99)
    out["diagnoser.current_estimate.s"] = total.get("diagnoser.current_estimate", 0.0)
    out["epsremoval.desilent.s"] = self_time.get("epsremoval.desilent", 0.0)
    for name in ("model.load", "model.validate", "model.fsm_to_text"):
        out[name + ".s"] = total.get(name, 0.0)
    out["cli.self.s"] = self_time.get("cli.main", 0.0)
    return out


def write_spans(path, spans):
    """One JSON array per line: [id, name, start, end, parent id]."""
    with open(path, "w", encoding="utf-8") as fh:
        for span in spans:
            fh.write(json.dumps(span) + "\n")
