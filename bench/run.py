"""fsmdiag benchmark: per-verb times on seeded machines, checked against an
independent reference.

    python3 bench/run.py --workload few-labels --seed 1 --seconds 20 --trace 0

``--workload all`` runs every workload, each in a fresh interpreter, one
after the other.  The last line of a single-workload run is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it name every metric with its unit.  With ``--trace 1`` the first half of the
time is measured untraced and the second half with spans around every layer,
and the per-layer metrics are reported instead of the end-to-end ones.
End-to-end times are scaled to a reference host speed (see pace.py).

The program is driven from outside only: the CLI verbs through
``fsmdiag.cli.main(argv)`` with stdout captured, and the online estimator
through ``fsmdiag.Estimator``.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import reference  # noqa: E402
from pace import Pace  # noqa: E402
import spans  # noqa: E402
import verify  # noqa: E402
import workloads  # noqa: E402

SETUPS = 3          # set-up is repeated and its median reported
MIN_PASSES = 2
LANGUAGE_LENGTH = 8  # output strings compared after desilent, in symbols

def load_program():
    """Import fsmdiag from the checkout's src directory."""
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "fsmdiag")):
        raise SystemExit("error: no fsmdiag package under %s" % src)
    sys.path.insert(0, src)
    import fsmdiag
    import fsmdiag.cli
    return fsmdiag


class Pass:
    """One round of a workload's operations: times, outputs and counts."""

    def __init__(self):
        self.pace = Pace()
        self.times = {"check_s": 0.0, "sets_s": 0.0, "desilent_s": 0.0, "task_s": 0.0,
                      "wall_s": 0.0}
        self.step_s = 0.0
        self.symbols = 0
        self.outputs = {}
        self.attempted = 0
        self.failed = 0
        self.errors = []


def cli(fsmdiag, p, key, verb_time, argv, ok_codes=(0,)):
    """Run one CLI verb, timing it and keeping its stdout under ``key``.
    The time counts in ``task_s`` and, unless it is None, in ``verb_time``."""
    out, err = io.StringIO(), io.StringIO()
    p.attempted += 1
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = fsmdiag.cli.main(argv)
    except Exception as exc:  # a crash is a failed operation, not a stop
        code = "%s: %s" % (type(exc).__name__, exc)
    wall = time.perf_counter() - t0
    dt = p.pace.scale(wall)
    if verb_time:
        p.times[verb_time] += dt
    p.times["task_s"] += dt
    p.times["wall_s"] += wall
    if code not in ok_codes:
        p.failed += 1
        p.errors.append("%s exited %s: %s" % (" ".join(argv[:1] + argv[2:]), code,
                                              err.getvalue().strip()[:200]))
    p.outputs[key] = out.getvalue()


def observe(fsmdiag, p, key, path, symbols, verdict_json):
    """Feed a stream to the estimator under the verdict ``check`` printed."""
    v = json.loads(verdict_json)
    if not v["holds"]:
        p.errors.append("observe %s: eventual does not hold" % (key,))
        p.attempted += len(symbols)
        p.failed += len(symbols)
        p.outputs[key] = []
        return
    t0 = time.perf_counter()
    m = fsmdiag.load_fsm(path)
    prm = v["params"]
    verdict = fsmdiag.DiagVerdict(
        fsmdiag.PropertyKind(v["property"]), v["holds"],
        params=fsmdiag.DiagParams(prm["tau"], prm["delta"], prm["horizon"],
                                  prm["gamma1"], prm["gamma2"]),
        bfgl=tuple(v["bfgl"]))
    est = fsmdiag.Estimator(m, verdict)
    events = []
    t1 = time.perf_counter()
    done = 0
    try:
        for y in symbols:
            ev = est.step(y)
            done += 1
            if ev is not None:
                events.append((ev.detected_at, ev.window[0], ev.window[1]))
    except fsmdiag.FsmDiagError as exc:
        p.errors.append("observe %s: %s at symbol %d" % (key, exc, done + 1))
    t2 = time.perf_counter()
    factor = p.pace.scale(t2 - t0) / (t2 - t0)
    p.attempted += len(symbols)
    p.failed += len(symbols) - done
    p.step_s += (t2 - t1) * factor
    p.symbols += done
    p.times["task_s"] += (t2 - t0) * factor
    p.times["wall_s"] += t2 - t0
    p.outputs[key] = events


def run_pass(fsmdiag, inputs, workdir):
    p = Pass()
    if inputs.workload in ("few-labels", "many-labels"):
        props = (workloads.FEW_PROPERTIES if inputs.workload == "few-labels"
                 else workloads.MANY_PROPERTIES)
        for path, _ in inputs.machines:
            for prop in props:
                cli(fsmdiag, p, ("check", path, prop), "check_s",
                    ["check", path, "--property", prop, "--json"], ok_codes=(0, 1))
            cli(fsmdiag, p, ("sets", path), "sets_s", ["sets", path, "--json"])
    for path, _ in inputs.walks:
        symbols = inputs.symbols[path]
        observe(fsmdiag, p, ("observe", path), path, symbols,
                p.outputs[("check", path, "eventual")])
    for i, (path, _) in enumerate(inputs.silent):
        out = os.path.join(workdir, "desilent%d.fsm" % i)
        if inputs.workload == "silent":
            cli(fsmdiag, p, ("validate-in", path), None,
                ["validate", path, "--mode", "desilent", "--json"])
        cli(fsmdiag, p, ("desilent", path), "desilent_s",
            ["desilent", path, "-o", out, "--json"])
        if inputs.workload == "silent":
            cli(fsmdiag, p, ("validate-out", path), None,
                ["validate", out, "--json"])
        with open(out, encoding="utf-8") as fh:
            p.outputs[("desilent-file", path)] = fh.read()
    return p


def verify_pass(inputs, p):
    """Check one pass's outputs against the reference; a list of problems."""
    problems = list(p.errors)
    if p.failed:
        return problems
    for path, _ in inputs.machines:
        with open(path, encoding="utf-8") as fh:
            ref = reference.Reference(reference.parse(fh.read()))
        props = {k[2]: v for k, v in p.outputs.items() if k[0] == "check" and k[1] == path}
        problems += ["%s %s" % (os.path.basename(path), e)
                     for e in verify.check_verdicts(ref, props)]
        problems += ["%s %s" % (os.path.basename(path), e)
                     for e in verify.check_sets(ref, p.outputs[("sets", path)])]
    for path, walk in inputs.walks:
        m = dict(inputs.machines)[path]
        params = json.loads(p.outputs[("check", path, "eventual")])["params"]
        problems += ["%s observe: %s" % (os.path.basename(path), e)
                     for e in verify.check_events(walk, m.critical, params,
                                                  p.outputs[("observe", path)])]
    for path, m in inputs.silent:
        problems += ["%s %s" % (os.path.basename(path), e)
                     for e in verify.check_desilent(m, p.outputs[("desilent-file", path)],
                                                    LANGUAGE_LENGTH)]
    return problems


class Inputs:
    """One run's inputs as the set-up wrote them, read back with the
    reference's own reader."""

    def __init__(self, workload, directory):
        with open(os.path.join(directory, "inputs.json"), encoding="utf-8") as fh:
            manifest = json.load(fh)
        self.workload = workload
        self.machines = [(path, read_machine(path)) for path in manifest["machines"]]
        self.silent = [(path, read_machine(path)) for path in manifest["silent"]]
        self.walks = list(manifest["walks"].items())
        labels = dict(self.machines)
        self.symbols = {path: [labels[path].label[s] for s in walk]
                        for path, walk in self.walks}


def read_machine(path):
    with open(path, encoding="utf-8") as fh:
        return reference.parse(fh.read())


def setup(workload, seed, base):
    """Generate the run's inputs SETUPS times, each in a fresh interpreter;
    keep the last set and report the median time, scaled by the generator's
    own probes."""
    times = []
    for i in range(SETUPS):
        directory = os.path.join(base, "inputs%d" % i)
        os.mkdir(directory)
        t0 = time.perf_counter()
        out = subprocess.run([sys.executable, os.path.join(BENCH, "workloads.py"),
                              "--workload", workload, "--seed", str(seed),
                              "--dir", directory],
                             check=True, capture_output=True, text=True).stdout
        wall = time.perf_counter() - t0
        # the generator scales its own time, on the processor it runs on
        made = json.loads(out.splitlines()[-1])
        times.append(wall * made["scaled_s"] / made["wall_s"])
    return Inputs(workload, directory), statistics.median(times)


def measure(fsmdiag, inputs, workdir, seconds, tracer=None):
    """Run whole passes until ``seconds`` have gone (at least MIN_PASSES)."""
    passes, layers, kept = [], [], None
    deadline = time.perf_counter() + seconds
    while len(passes) < MIN_PASSES or time.perf_counter() < deadline:
        if tracer:
            tracer.install(fsmdiag)
        try:
            p = run_pass(fsmdiag, inputs, workdir)
        finally:
            if tracer:
                tracer.uninstall()
        if passes:
            # only the first pass's outputs are kept, so that memory does
            # not grow with the number of passes
            if p.outputs != passes[0].outputs:
                p.errors.append("a pass gave other outputs than the first")
            p.outputs = None
        passes.append(p)
        if tracer:
            pass_spans = tracer.take()
            layers.append(spans.layer_metrics(pass_spans))
            if kept is None:
                kept = pass_spans
    return passes, layers, kept


def median_of(passes, key):
    return statistics.median(p.times[key] for p in passes)


def verb_metrics(passes):
    out = {name: median_of(passes, name) for name in ("check_s", "sets_s", "desilent_s")}
    rates = [p.symbols / p.step_s for p in passes if p.step_s > 0]
    out["observe_sym_per_s"] = statistics.median(rates) if rates else 0.0
    return out


PER_LAYER_UNITS = {"calls": "count", "s": "s", "us_p50": "us", "us_p99": "us"}
VERB_UNITS = {"check_s": "s", "sets_s": "s", "desilent_s": "s",
              "observe_sym_per_s": "symbols/s"}


def run_workload(args):
    fsmdiag = load_program()
    results = os.path.join(BENCH, "results")
    os.makedirs(results, exist_ok=True)
    os.makedirs(os.path.join(BENCH, "work"), exist_ok=True)
    base = tempfile.mkdtemp(prefix="%s-%d-" % (args.workload, args.seed),
                            dir=os.path.join(BENCH, "work"))
    try:
        inputs, setup_s = setup(args.workload, args.seed, base)
        if args.trace:
            half = args.seconds / 2
            plain, _, _ = measure(fsmdiag, inputs, base, half)
            tracer = spans.Tracer()
            traced, layers, kept = measure(fsmdiag, inputs, base, half, tracer)
            if traced[0].outputs != plain[0].outputs:
                traced[0].errors.append("a traced pass gave other outputs than untraced")
            passes = plain + traced
        else:
            passes = measure(fsmdiag, inputs, base, args.seconds)[0]
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        problems = verify_pass(inputs, passes[0])
        problems += sorted({e for p in passes[1:] for e in p.errors})
    finally:
        shutil.rmtree(base, ignore_errors=True)

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    if args.trace:
        metrics = {}
        for name in layers[0]:
            unit = PER_LAYER_UNITS[name.rsplit(".", 1)[1]]
            metrics[name] = (statistics.median(l[name] for l in layers), unit)
        metrics["bench.trace_overhead.s"] = (
            median_of(traced, "task_s") - median_of(plain, "task_s"), "s")
        for name, value in verb_metrics(plain).items():
            metrics[name] = (value, VERB_UNITS[name])
        spans.write_spans(os.path.join(results, "trace-%s-%d.jsonl"
                                       % (args.workload, args.seed)), kept)
    else:
        metrics = {"setup_s": (setup_s, "s"),
                   "task_s": (median_of(passes, "task_s"), "s"),
                   "peak_rss_mib": (peak_rss_mib, "MiB")}
        print("%-28s %14.6f %s  (not bounded, unscaled)"
              % ("task_wall_s", median_of(passes, "wall_s"), "s"))
        for name, value in verb_metrics(passes).items():
            print("%-28s %14.6f %s  (not bounded)" % (name, value, VERB_UNITS[name]))
    for problem in problems:
        print("CHECK FAILED: %s" % problem)
    print("passes %d, operations attempted %d, failed %d"
          % (len(passes), attempted, failed))
    for name, (value, unit) in metrics.items():
        print("%-28s %14.6f %s" % (name, value, unit))
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    with open(os.path.join(results, "%s-%d-trace%d.json"
                           % (args.workload, args.seed, args.trace)), "w") as fh:
        json.dump(result, fh, indent=2)
    print(json.dumps(result))
    return 0


def run_all(args):
    """Each workload in a fresh interpreter, one at a time."""
    worst = 0
    for name in workloads.WORKLOADS:
        print("== %s" % name, flush=True)
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        worst = max(worst, subprocess.run(argv, check=False).returncode)
    return worst


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
