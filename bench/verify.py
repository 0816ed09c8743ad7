"""Checks of the program's answers against the reference module and against
properties the method must have.  Each function returns a list of problems;
an empty list means the output passed."""

from __future__ import annotations

import json

import reference

#: the relation each failure reason names, on the reference
WITNESS = {
    "backward-reachable and forward-maskable": lambda r: r.b_tilde.fixed_point & r.lam.fixed_point,
    "jointly reachable and forward-maskable": lambda r: r.s_tilde.fixed_point & r.lam.fixed_point,
    "backward-maskable and forward-maskable": lambda r: r.gam.fixed_point & r.lam.fixed_point,
    "backward-indistinguishable mixed pair": lambda r: r.b.fixed_point - r.block,
    "jointly reachable mixed pair": lambda r: r.s.fixed_point - r.block,
    "persistent mixed pair": lambda r: (r.b.fixed_point & r.f.fixed_point) - r.block,
    "forward-indistinguishable initial mixed pair":
        lambda r: (r.init_sq & r.f.fixed_point) - r.block,
}


def holds(ref, prop):
    """The fixed-point decision of each property, on the reference."""
    r = ref
    if prop == "parametric":
        return not r.b_tilde.fixed_point & r.lam.fixed_point
    if prop == "diag":
        return not r.s_tilde.fixed_point & r.lam.fixed_point
    if prop == "eventual":
        return not r.gam.fixed_point & r.lam.fixed_point
    if prop == "critical":
        return holds(r, "diag") and holds(r, "eventual")
    if prop == "eventual-obs":
        return r.b.fixed_point <= r.block
    if prop == "critical-obs":
        return r.s.fixed_point <= r.block
    if prop == "exact-step":
        return r.b.fixed_point & r.f.fixed_point <= r.block
    if prop == "initial-obs":
        return r.init_sq & r.f.fixed_point <= r.block
    raise ValueError(prop)


def inclusion(ref, prop, t):
    """Does the property's inclusion hold at the index tuple t = (b, f, g, l)
    on the reference step relations?"""
    r = ref
    b, f, g, l = t
    if prop == "parametric":
        return not r.b_tilde.at(b) & r.f.at(f) & r.lam.at(l)
    if prop == "diag":
        return not r.s_tilde.fixed_point & r.f.at(f) & r.lam.at(l)
    if prop in ("eventual", "critical"):
        return not r.b.at(b) & r.f.at(f) & r.gam.at(g) & r.lam.at(l)
    if prop == "eventual-obs":
        return not r.b.at(b) & r.pi & r.gam.at(g) & r.lam.at(1)
    if prop == "exact-step":
        return r.b.at(b) & r.f.at(f) <= r.block
    if prop == "initial-obs":
        return r.init_sq & r.f.at(f) <= r.block
    if prop == "critical-obs":
        return r.s.fixed_point <= r.block
    raise ValueError(prop)


def check_sets(ref, text):
    """``sets --json`` against the reference fixed points and steps."""
    got = json.loads(text)
    problems = []
    for name, (fp, conv) in ref.sets().items():
        entry = got.get(name)
        if entry is None:
            problems.append("sets: %s missing" % name)
            continue
        if {tuple(p) for p in entry["fixed_point"]} != set(fp):
            problems.append("sets: %s fixed point differs from the reference" % name)
        if entry["convergence_step"] != conv:
            problems.append("sets: %s converges at %s, reference %s"
                            % (name, entry["convergence_step"], conv))
    return problems


def check_verdicts(ref, outputs):
    """``check --json`` outputs, keyed by property, against the reference
    decision, the witness relations, the frontier inclusions and the
    relations between properties."""
    problems = []
    verdicts = {p: json.loads(t) for p, t in outputs.items()}
    for prop, v in verdicts.items():
        if v["holds"] != holds(ref, prop):
            problems.append("%s: holds=%s, reference %s" % (prop, v["holds"], not v["holds"]))
            continue
        if not v["holds"]:
            pair = tuple(v["witness"]["pair"])
            rel = WITNESS.get(v["witness"]["reason"])
            if rel is None or pair not in rel(ref):
                problems.append("%s: witness %s not in the reference relation %r"
                                % (prop, pair, v["witness"]["reason"]))
            continue
        p = v["params"]
        if p["gamma2"] > p["delta"]:
            problems.append("%s: gamma2 %d > delta %d" % (prop, p["gamma2"], p["delta"]))
        for t in v.get("frontier", []) + [v["bfgl"]]:
            if not inclusion(ref, prop, tuple(t)):
                problems.append("%s: inclusion fails at %s on the reference" % (prop, t))
    if {"critical", "diag", "eventual"} <= set(verdicts):
        both = verdicts["diag"]["holds"] and verdicts["eventual"]["holds"]
        if verdicts["critical"]["holds"] != both:
            problems.append("critical holds=%s but diag and eventual give %s"
                            % (verdicts["critical"]["holds"], both))
    if {"critical-obs", "eventual-obs"} <= set(verdicts):
        if verdicts["critical-obs"]["holds"] and not verdicts["eventual-obs"]["holds"]:
            problems.append("critical-obs holds but eventual-obs fails")
    return problems


def check_events(walk, critical, params, events):
    """Estimator events along a walk whose true states are known."""
    tau, delta = params["tau"], params["delta"]
    width = params["gamma1"] + params["gamma2"]
    crit_steps = [k for k, s in enumerate(walk, 1) if s in critical]
    crit = set(crit_steps)
    problems = []
    if not events:
        problems.append("stream produced no event")
    covering = {}
    for detected, lo, hi in events:
        if hi - lo > width:
            problems.append("window [%d,%d] wider than gamma1+gamma2=%d" % (lo, hi, width))
        if not any(k in crit for k in range(lo, hi + 1)):
            problems.append("window [%d,%d] holds no critical step of the walk" % (lo, hi))
        for k in range(lo, hi + 1):
            covering.setdefault(k, []).append(detected)
    for k in crit_steps:
        if k >= tau + 1 and k + delta <= len(walk):
            if not any(d <= k + delta for d in covering.get(k, ())):
                problems.append("critical step %d not covered by step %d" % (k, k + delta))
    return problems[:20]


def check_desilent(original, text, max_len):
    """A ``desilent`` result: no silent state, every state live, and the
    same output language as the input up to max_len symbols."""
    result = reference.parse(text)
    problems = []
    silent = [s for s in result.states if result.label[s] == reference.SILENT]
    if silent:
        problems.append("desilent left silent states %s" % silent[:5])
    dead = [s for s in result.states if not result.succ[s]]
    if dead:
        problems.append("desilent left states without successor %s" % dead[:5])
    diff = reference.language_difference(original, result, max_len)
    if diff is not None:
        problems.append("output languages differ on %s" % " ".join(diff))
    return problems
