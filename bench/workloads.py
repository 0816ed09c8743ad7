"""Seeded machines, streams and the operations of each workload.

Machines are built here as ``reference.Machine`` objects and written out in
the ``fsm v1`` text format; the program under test only ever sees those files
and the symbol streams.  Every random choice comes from a generator seeded by
(workload, seed, machine index), so a seed fixes the inputs exactly.

Run as a script, it writes one run's inputs to a directory; the benchmark
does so in a separate interpreter, so that the reference computations made
while choosing machines do not count in the measured peak memory.  Its last
line of output is the time spent on the machines, as measured and as scaled
by ``pace``:

    mkdir inputs && python3 bench/workloads.py --workload silent --seed 1 --dir inputs
"""

from __future__ import annotations

import argparse
import json
import os
import random
import time

import reference
import verify
from pace import Pace

#: few-labels: three labels, sparse initial set; every series runs long and
#: every property fails at the fixed points, so the shrinking recursions and
#: the joint-reachability worklist do the work and no frontier scan runs.
FEW = dict(machines=8, states=100, labels="abc", initial=0.10, critical=0.05,
           silent_share=0.20, candidates=3, target_work=150_000)
#: the six properties decided at the fixed points; exact-step and
#: initial-obs are left out (see README).
FEW_PROPERTIES = ("parametric", "diag", "eventual", "critical",
                  "eventual-obs", "critical-obs")

#: many-labels: eight labels, every state initial; machines on which
#: ``eventual`` holds, so the checker's frontier scans and the step
#: reconstruction of the series do the work.  A walk must visit the critical
#: set between 12 and 600 times: the estimator compares each new event with
#: every earlier one, so a walk caught in a critical cycle costs tens of times
#: more per symbol (see CHANGES.md) and would swamp the workload.
MANY = dict(machines=6, states=100, labels="abcdefgh", critical=0.05,
            walk=12_000, candidates=12, target_work=1_500_000,
            critical_visits=(12, 600))
MANY_PROPERTIES = ("parametric", "diag", "eventual", "critical",
                   "eventual-obs", "critical-obs", "initial-obs", "exact-step")

#: silent: four labels, a quarter of the states silent and arranged in a
#: layered acyclic graph whose runs are up to ``depth`` states long; no
#: silent initial state.
SILENT = dict(machines=8, states=320, labels="abcd", silent_share=0.25,
              depth=12, leaf=0.2, critical=0.05, initial=0.10, candidates=8,
              target_work=350_000)


def _rng(workload, seed, index):
    return random.Random("%s:%d:%d" % (workload, seed, index))


def to_text(m):
    out = ["fsm v1"]
    for s in m.states:
        parts = ["state", s, "output=" + m.label[s]]
        if s in m.initial:
            parts.append("init")
        if s in m.critical:
            parts.append("critical")
        out.append(" ".join(parts))
    out.extend("trans %s %s" % t for t in sorted(m.trans))
    return "\n".join(out) + "\n"


def _labels(rng, states, alphabet):
    """Labels spread evenly over the alphabet, in random order."""
    labels = [alphabet[i % len(alphabet)] for i in range(len(states))]
    rng.shuffle(labels)
    return dict(zip(states, labels))


def live_machine(rng, n, alphabet, n_initial, n_critical):
    """n states, each with one to three random successors."""
    states = ["s%03d" % i for i in range(n)]
    label = _labels(rng, states, alphabet)
    trans = {(s, t) for s in states for t in rng.sample(states, rng.randint(1, min(3, n)))}
    return reference.Machine(states, rng.sample(states, n_initial), label, trans,
                             rng.sample(states, n_critical))


def shallow_silent_variant(rng, m, share):
    """m with silent states spliced into its transitions: each silent state
    has non-silent predecessors and successors only, so every silent run is
    one state long.  ``share`` is the silent fraction of the result."""
    k = round(share * len(m.states) / (1 - share))
    states = list(m.states)
    label = dict(m.label)
    trans = set(m.trans)
    critical = set(m.critical)
    for i, (a, b) in enumerate(rng.sample(sorted(m.trans), k)):
        e = "e%03d" % i
        states.append(e)
        label[e] = reference.SILENT
        trans.discard((a, b))
        trans |= {(a, e), (e, b), (rng.choice(m.states), e), (e, rng.choice(m.states))}
        if rng.random() < 0.05:
            critical.add(e)
    return reference.Machine(states, m.initial, label, trans, critical)


def layered_silent_machine(rng, n, alphabet, share, depth, leaf, crit, init):
    """Silent states e000.. in ``depth`` layers: each state of a layer either
    continues to one or two states of the next layer or (with probability
    ``leaf``, and always in the last layer) leaves to non-silent states, so
    the longest silent run has ``depth`` states.  Every silent state is
    entered from a random non-silent state."""
    ns = round(share * n)
    vis = ["v%03d" % i for i in range(n - ns)]
    sil = ["e%03d" % i for i in range(ns)]
    layers = [sil[k * ns // depth:(k + 1) * ns // depth] for k in range(depth)]
    label = _labels(rng, vis, alphabet)
    label.update((e, reference.SILENT) for e in sil)
    trans = set()
    for k, layer in enumerate(layers):
        for e in layer:
            if k + 1 < depth and rng.random() >= leaf:
                trans |= {(e, t) for t in rng.sample(layers[k + 1], rng.randint(1, 2))}
            else:
                trans |= {(e, t) for t in rng.sample(vis, rng.randint(1, 2))}
            trans.add((rng.choice(vis), e))
    for s in vis:
        trans |= {(s, t) for t in rng.sample(vis, rng.randint(1, 2))}
    return reference.Machine(vis + sil, rng.sample(vis, round(init * len(vis))),
                             label, trans, rng.sample(vis + sil, round(crit * n)))


def random_walk(rng, m, length):
    """A uniformly random execution of the given length from an initial state."""
    s = rng.choice(sorted(m.initial))
    walk = [s]
    for _ in range(length - 1):
        s = rng.choice(sorted(m.succ[s]))
        walk.append(s)
    return walk


def check_work(ref):
    """Estimated work of the eight ``check`` calls on a many-labels machine.

    Counts, on the reference relations, the pair annotations the program's
    step reconstruction walks in the eventual, parametric and exact-step
    frontier scans (an index below convergence costs the series' number of
    changed pairs, the projected series also their symmetric closure), with
    the eventual scan counted twice when ``diag`` holds, since ``critical``
    then repeats it.  It only serves to give the machines of a run similar
    cost; it decides nothing that is checked.
    """
    b_, f_, g_, l_, bt = ref.b, ref.f, ref.gam, ref.lam, ref.b_tilde

    def cost(series, k):
        base = getattr(series, "base", series)
        changed = len(base.steps[0]) - len(base.fixed_point)
        work = changed if k < base.convergence_step else 0
        return work + (len(series.at(k)) + 1 if series is not base else 0)

    def first_empty(x, series):
        work = 0
        for l in range(1, series.convergence_step + 1):
            work += cost(series, l)
            if not x & series.at(l):
                break
        return work

    eventual = 0
    for b in range(1, b_.convergence_step + 1):
        eventual += cost(b_, b)
        for f in range(1, f_.convergence_step + 1):
            eventual += cost(f_, f)
            lhs = b_.at(b) & f_.at(f)
            for g in range(1, g_.convergence_step + 1):
                eventual += cost(g_, g) + first_empty(lhs & g_.at(g), l_)
    eventual += sum(cost(g_, g) + cost(l_, l)
                    for g in range(1, g_.convergence_step + 1)
                    for l in range(1, l_.convergence_step + 1))
    work = eventual
    for b in range(1, bt.convergence_step + 1):
        work += cost(bt, b)
        for f in range(1, f_.convergence_step + 1):
            work += cost(f_, f) + first_empty(bt.at(b) & f_.at(f), l_)
    if not ref.s_tilde.fixed_point & ref.lam.fixed_point:
        work += eventual + sum(cost(f_, f) + first_empty(ref.s_tilde.fixed_point & f_.at(f), l_)
                               for f in range(1, f_.convergence_step + 1))
    for b in range(1, b_.convergence_step + 1):
        for f in range(1, f_.convergence_step + 1):
            work += cost(b_, b) + cost(f_, f)
            if b_.at(b) & f_.at(f) <= ref.block:
                return work
    return work


def shrink_work(ref):
    """Estimated work of the few-labels ``check`` and ``sets`` calls: the
    pairs every round of each recursion visits, times the number of those
    calls that compute the recursion (each call builds its own analysis)."""
    uses = ((ref.s, 7), (ref.s_tilde, 4), (ref.b_tilde, 1), (ref.lam.base, 5),
            (ref.gam.base, 2), (ref.b, 2), (ref.f, 1))
    return sum(n * sum(len(r) for r in series.steps) for series, n in uses)


def silent_work(m):
    """Estimated work of ``desilent``: (last silent state, entering state)
    pairs times the size of the silent subgraph each pair's sweeps cover."""
    silent = {s for s in m.states if m.label[s] == reference.SILENT}
    x_l = [s for s in silent if not m.succ[s] & silent]
    x_f = [s for s in m.states if s not in silent and m.succ[s] & silent]
    edges = sum(len(m.succ[s] & silent) for s in m.states)
    return len(x_l) * len(x_f) * (len(silent) + edges)


class Picker:
    """Draws ``cfg["candidates"]`` machines from ``make`` (None for one that
    does not qualify), and more while none has qualified, and keeps the
    qualifying one that brings the pass's estimated ``work`` so far closest
    to ``cfg["target_work"]`` times the number of machines picked.  Aiming
    at the running total lets a later machine make up for an earlier one,
    which keeps the timed work of a pass alike from seed to seed; a fixed
    number of draws keeps the set-up work alike too.  It decides nothing
    that is checked."""

    def __init__(self, cfg, make, work):
        self.cfg, self.make, self.work = cfg, make, work
        self.picked = 0
        self.total = 0

    def pick(self, rng):
        self.picked += 1
        target = self.picked * self.cfg["target_work"] - self.total
        ranked, drawn = [], 0
        while drawn < self.cfg["candidates"] or not ranked:
            drawn += 1
            got = self.make(rng)
            if got is not None:
                w = self.work(got)
                ranked.append((abs(w - target), len(ranked), w, got))
        _, _, w, got = min(ranked)
        self.total += w
        return got


def _few_candidate(rng):
    cfg = FEW
    n = cfg["states"]
    m = live_machine(rng, n, cfg["labels"], round(cfg["initial"] * n),
                     round(cfg["critical"] * n))
    ref = reference.Reference(m)
    if any(verify.holds(ref, prop) for prop in FEW_PROPERTIES):
        return None
    return ref


def _many_candidate(rng):
    cfg = MANY
    n = cfg["states"]
    m = live_machine(rng, n, cfg["labels"], n, round(cfg["critical"] * n))
    ref = reference.Reference(m)
    if ref.gam.fixed_point & ref.lam.fixed_point:
        return None
    walk = random_walk(rng, m, cfg["walk"])
    lo, hi = cfg["critical_visits"]
    if not lo <= sum(s in m.critical for s in walk) <= hi:
        return None
    return ref, walk


def _silent_candidate(rng):
    cfg = SILENT
    return layered_silent_machine(rng, cfg["states"], cfg["labels"],
                                  cfg["silent_share"], cfg["depth"], cfg["leaf"],
                                  cfg["critical"], cfg["initial"])


def generate(workload, seed, directory):
    """Write the inputs of one run to ``directory`` and describe them in
    ``inputs.json``: machine files for check/sets, files for desilent, and
    the true states of each estimator walk.  Returns the wall time spent on
    the machines, and that time scaled by the probe around each machine."""
    def write(name, m):
        path = os.path.join(directory, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(to_text(m))
        return path

    manifest = {"machines": [], "silent": [], "walks": {}}
    if workload == "few-labels":
        count = FEW["machines"]
        picker = Picker(FEW, _few_candidate, shrink_work)

        def make(i):
            rng = _rng(workload, seed, i)
            m = picker.pick(rng).m
            manifest["machines"].append(write("few%d.fsm" % i, m))
            v = shallow_silent_variant(rng, m, FEW["silent_share"])
            manifest["silent"].append(write("few%d-silent.fsm" % i, v))
    elif workload == "many-labels":
        count = MANY["machines"]
        picker = Picker(MANY, _many_candidate, lambda got: check_work(got[0]))

        def make(i):
            ref, walk = picker.pick(_rng(workload, seed, i))
            path = write("many%d.fsm" % i, ref.m)
            manifest["machines"].append(path)
            manifest["walks"][path] = walk
    elif workload == "silent":
        count = SILENT["machines"]
        picker = Picker(SILENT, _silent_candidate, silent_work)

        def make(i):
            m = picker.pick(_rng(workload, seed, i))
            manifest["silent"].append(write("silent%d.fsm" % i, m))
    else:
        raise ValueError("unknown workload %r" % workload)
    pace = Pace()
    wall = scaled = 0.0
    for i in range(count):
        t0 = time.perf_counter()
        make(i)
        dt = time.perf_counter() - t0
        wall += dt
        scaled += pace.scale(dt)
    with open(os.path.join(directory, "inputs.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh)
    return wall, scaled


WORKLOADS = ("few-labels", "many-labels", "silent")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="write one run's inputs")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True)
    args = parser.parse_args()
    wall_s, scaled_s = generate(args.workload, args.seed, args.dir)
    print(json.dumps({"wall_s": wall_s, "scaled_s": scaled_s}))
