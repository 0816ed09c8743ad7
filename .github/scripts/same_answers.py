"""Compare the answers of two source trees of fsmdiag, command by command.

    python3 .github/scripts/same_answers.py BASE_SRC HEAD_SRC

BASE_SRC and HEAD_SRC are the ``src`` directories of the two trees.  The
machines are ``tests/fixtures/*.fsm`` and those ``bench/workloads.py``
writes for every workload at seeds 1 and 4242, into a temporary directory
that is removed afterwards.  On each machine the commands are

* ``check FILE --property P --json`` for the eight properties;
* ``sets FILE --json --steps`` and ``sets FILE --steps``;
* ``validate FILE --json --mode M`` for both modes;
* ``desilent FILE --json -o OUT --provenance PROV``.

Besides, ``observe FILE --property P --json --trace SYMBOLS`` runs for the
four properties the estimator serves on each many-labels walk, and
``oracle FILE --property P --json --horizon 6`` for the eight properties
on each fixture.  On each fixture ``observe`` also runs for those four
properties, with and without ``--json``, on up to five traces: the
outputs of a seeded random walk, the same with a symbol that is no output
in its middle, a prefix of the walk's outputs followed by an output that no
execution produces after it, the walk's outputs after a first symbol that
is no output, and, where the fixture has one, after a first symbol that is
the output of no initial state.  Since no observed property holds on the
fixtures that have such an output, ``observe`` also runs with
``--initial`` set to the first state the fixture declares, on the walk's
outputs after the least output of another state.  So the rejected-symbol,
one-shot and error paths of the estimator are compared too, on the first
symbol as on later ones.  Those commands reach the estimator on no
fixture with such an output, so on ``fork.fsm`` they run again with
``--critical 2``, under which all four properties hold, and on each
fixture with silent states the four properties run on the machine its
``desilent`` command wrote, with and without ``--json``, on the walk's
outputs with the silent output ``_`` erased.  On each fixture
``check FILE --property P --json`` also runs with ``--initial`` and
``--critical`` overrides, some naming a declared state and some not, for P
in eventual, diag and parametric, the last two reading the restriction of
the overridden machine.  Then
``validate FILE --json`` and ``check FILE --property eventual --json`` run
on each file of a malformed corpus written to the temporary directory: one
text per way the loader refuses a file, a file that is not UTF-8 and an
empty file.  Last, ``check FILE --property P --json`` for the eight
properties and ``sets FILE --json --steps`` run on a wide fan written there:
a live machine whose hub has 16 successors and 16 predecessors, so the
shrink engine counts supports in two-byte fields, which no fixture and no
seed-1 workload machine needs.  Each tree runs all of them in one Python
process with that tree on the path and its own working directory, calling
``fsmdiag.cli.main`` per command and capturing its exit code, stdout,
stderr and the text of each file it names after ``-o`` or
``--provenance``.  Prints every command on which the two differ; exits 1
if any does and 0 otherwise.
"""

import argparse
import glob
import json
import os
import random
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
WORKLOADS = ("few-labels", "many-labels", "silent")
SEEDS = (1, 4242)
PROPERTIES = ("parametric", "diag", "eventual", "critical",
              "eventual-obs", "critical-obs", "initial-obs", "exact-step")
OBSERVED = PROPERTIES[:4]
FIELDS = ("exit code", "stdout", "stderr", "output file", "provenance file")

# Run in each tree's process: reads the commands as JSON on stdin and
# writes one [exit code, stdout, stderr, files...] per command as JSON on
# stdout, the files being the text of each path after -o or --provenance
# (None if absent).  An exception the CLI lets through is recorded by type
# and message, without the traceback, whose file paths differ between the
# trees.
RUNNER = r"""
import contextlib, io, json, os, sys
from fsmdiag.cli import main
out = []
for argv in json.load(sys.stdin):
    files = [argv[i + 1] for i, arg in enumerate(argv) if arg in ("-o", "--provenance")]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:
            code = "uncaught %s: %s" % (type(exc).__name__, exc)
    texts = []
    for path in files:
        texts.append(open(path, encoding="utf-8").read() if os.path.exists(path) else None)
    out.append([code, stdout.getvalue(), stderr.getvalue()] + texts)
json.dump(out, sys.__stdout__)
"""


# One malformed model per way the loader refuses a file: each branch of
# the parser, the constructor's one refusal a file can reach, a file that
# is not UTF-8 and an empty one.  A leading byte-order mark is left out:
# trees from before it was accepted refuse it, so its answer differs on
# purpose.
MALFORMED = {
    "no-header": b"state a output=x\n",
    "spaced-header": b"fsm  v1\nstate a output=x\n",
    "comments-only": b"# one\n\n  # two\n",
    "no-state": b"fsm v1\n",
    "state-short": b"fsm v1\nstate a\n",
    "state-cut-by-comment": b"fsm v1\nstate a#c output=x\n",
    "duplicate-state": b"fsm v1\r\nstate a output=x\r\nstate a output=y\r\n",
    "repeated-output": b"fsm v1\nstate a output=x output=y\n",
    "unknown-attribute": b"fsm v1\nstate a output=x frobnicate\n",
    "empty-output": b"fsm v1\nstate a output= init\n",
    "trans-short": b"fsm v1\nstate a output=x\ntrans a\n",
    "trans-undeclared": b"fsm v1\nstate a output=x\ntrans a b\n",
    "trans-before-state": b"fsm v1\ntrans a a\nstate a output=x init\n",
    "unknown-directive": b"fsm v1\nfrobnicate a\n",
    "not-utf8": b"fsm v1\nstate a output=\xff init\ntrans a a\n",
    "empty": b"",
}
# --initial / --critical on each fixture: the first state it declares, a
# state it does not declare, and both at once
OVERRIDES = (["--initial", "{s}"], ["--critical", "{s}"], ["--initial", "{s}", "--critical", ""],
             ["--initial", "zz"], ["--critical", "{s},zz"], ["--initial", "yy", "--critical", "zz"])
# the properties checked under each override: diag and parametric read the
# restriction of the overridden machine
OVERRIDDEN = ("eventual", "diag", "parametric")
# fixtures on which no observed property holds as declared, with a critical
# set under which all four do, so that their traces reach the estimator
RECRITICAL = {"fork.fsm": "2"}


def wide_fan():
    """The text of a live machine whose hub h, the one initial state, has
    16 a-labelled successors and 16 predecessors.  Spoke k returns to h
    through a chain of k % 4 b-states, and the spokes with k % 4 == 1 are
    critical.  (h, h) has 16 x 16 = 256 supports in Pi, a two-byte count
    whose low byte is 0."""
    lines, trans = ["fsm v1", "state h output=h init"], []
    for k in range(16):
        chain = ["s%02d" % k] + ["s%02d_%d" % (k, d) for d in range(k % 4)]
        lines.append("state %s output=a%s" % (chain[0], " critical" if k % 4 == 1 else ""))
        lines += ["state %s output=b" % s for s in chain[1:]]
        trans += [("h", chain[0])] + list(zip(chain, chain[1:])) + [(chain[-1], "h")]
    return "\n".join(lines + ["trans %s %s" % t for t in trans]) + "\n"


def fixtures():
    return sorted(glob.glob(os.path.join(ROOT, "tests", "fixtures", "*.fsm")))


def walks(directory):
    """(machine file, output symbols) of each estimator walk written to
    ``directory``: the walks are state sequences, and the third field of a
    ``state`` line is ``output=SYMBOL``."""
    with open(os.path.join(directory, "inputs.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    for path, walk in manifest["walks"].items():
        with open(path, encoding="utf-8") as fh:
            label = {t[1]: t[2][len("output="):] for t in map(str.split, fh) if t[:1] == ["state"]}
        yield path, " ".join(label[s] for s in walk)


def machine(path):
    """(output of each state, initial states, successors of each state) of a
    fixture, read off its ``state`` and ``trans`` lines."""
    label, initial, succ = {}, [], {}
    with open(path, encoding="utf-8") as fh:
        for t in map(str.split, fh):
            if t[:1] == ["state"]:
                label[t[1]] = t[2][len("output="):]
                succ[t[1]] = []
                if "init" in t[3:]:
                    initial.append(t[1])
            elif t[:1] == ["trans"]:
                succ[t[1]].append(t[2])
    return label, initial, succ


def clean_walk(path):
    """The outputs along a random walk of 24 states of a fixture, seeded by
    the file name."""
    label, initial, succ = machine(path)
    rng = random.Random(os.path.basename(path))
    walk = [rng.choice(initial)]
    while len(walk) < 24 and succ[walk[-1]]:
        walk.append(rng.choice(succ[walk[-1]]))
    return [label[s] for s in walk]


def traces(path):
    """(overrides, trace) of each clean, unknown-symbol and inconsistent
    trace of a fixture: the outputs along its clean walk; the same with a
    symbol that is no output in its middle; the walk's outputs up to the
    last step after which some output of the machine continues no
    execution, followed by that output; the walk's outputs after a first
    symbol that is no output, and after the least output of no initial
    state, if there is one.  The last, with the first declared state as the
    only initial one, is the walk's outputs after the least output of
    another state, if there is one."""
    label, initial, succ = machine(path)
    clean = clean_walk(path)
    outputs = sorted(set(label.values()))
    unknown = "z"
    while unknown in outputs:
        unknown += "z"
    # the states some execution producing clean[:i + 1] ends in
    inconsistent, now = clean, {s for s in initial if label[s] == clean[0]}
    for i in range(1, len(clean) + 1):
        after = {t for s in now for t in succ[s]}
        dead = [y for y in outputs if all(label[t] != y for t in after)]
        if dead:
            inconsistent = clean[:i] + dead[:1]
        if i < len(clean):
            now = {t for t in after if label[t] == clean[i]}
    middle = len(clean) // 2
    # "_" is the silent output, which no trace can carry
    starts = [unknown] + sorted(set(outputs) - {label[s] for s in initial} - {"_"})[:1]
    first = first_state(path)
    plain = [([], trace) for trace in
             [clean, clean[:middle] + [unknown] + clean[middle:], inconsistent]
             + [[y] + clean for y in starts]]
    alone = [(["--initial", first], [y] + clean)
             for y in sorted(set(outputs) - {label[first], "_"})[:1]]
    return [(overrides, " ".join(trace)) for overrides, trace in plain + alone]


def first_state(path):
    with open(path, encoding="utf-8") as fh:
        return next(t[1] for t in map(str.split, fh) if t[:1] == ["state"])


def commands(tmp):
    """Every command to run, on the fixtures and on the workload machines
    and malformed files written under ``tmp``."""
    files, runs = fixtures(), []
    for workload in WORKLOADS:
        for seed in SEEDS:
            directory = os.path.join(tmp, "%s-%d" % (workload, seed))
            os.mkdir(directory)
            subprocess.run([sys.executable, os.path.join(ROOT, "bench", "workloads.py"),
                            "--workload", workload, "--seed", str(seed), "--dir", directory],
                           check=True, stdout=subprocess.DEVNULL)
            files += sorted(glob.glob(os.path.join(directory, "*.fsm")))
            runs += [["observe", path, "--property", p, "--json", "--trace", symbols]
                     for path, symbols in walks(directory) for p in OBSERVED]
    for k, path in enumerate(files):
        runs += [["check", path, "--property", p, "--json"] for p in PROPERTIES]
        runs += [["sets", path, "--json", "--steps"], ["sets", path, "--steps"]]
        runs += [["validate", path, "--json", "--mode", mode] for mode in ("analysis", "desilent")]
        runs.append(["desilent", path, "--json", "-o", "out%d.fsm" % k,
                     "--provenance", "prov%d.json" % k])
    runs += [["oracle", path, "--property", p, "--json", "--horizon", "6"]
             for path in fixtures() for p in PROPERTIES]
    runs += [["observe", path, "--property", p] + overrides + fmt + ["--trace", trace]
             for path in fixtures() for p in OBSERVED for overrides, trace in traces(path)
             for fmt in ([], ["--json"])]
    runs += [["observe", path, "--property", p, "--critical", critical] + overrides + fmt
             + ["--trace", trace]
             for path in fixtures() if (critical := RECRITICAL.get(os.path.basename(path)))
             for p in OBSERVED for overrides, trace in traces(path)
             for fmt in ([], ["--json"])]
    # a fixture with silent states fails analysis, but the machine its
    # desilent command above wrote (out<k>.fsm, the fixtures coming first
    # among the files) does not, and produces the walk's other outputs
    for k, path in enumerate(fixtures()):
        if "_" in machine(path)[0].values():
            trace = " ".join(y for y in clean_walk(path) if y != "_")
            runs += [["observe", "out%d.fsm" % k, "--property", p] + fmt + ["--trace", trace]
                     for p in OBSERVED for fmt in ([], ["--json"])]
    for path in fixtures():
        s = first_state(path)
        runs += [["check", path, "--property", p, "--json"]
                 + [arg.format(s=s) for arg in override]
                 for p in OVERRIDDEN for override in OVERRIDES]
    directory = os.path.join(tmp, "malformed")
    os.mkdir(directory)
    for name, data in sorted(MALFORMED.items()):
        path = os.path.join(directory, name + ".fsm")
        with open(path, "wb") as fh:
            fh.write(data)
        runs += [["validate", path, "--json"], ["check", path, "--property", "eventual", "--json"]]
    path = os.path.join(tmp, "wide-fan.fsm")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(wide_fan())
    runs += [["check", path, "--property", p, "--json"] for p in PROPERTIES]
    runs.append(["sets", path, "--json", "--steps"])
    return runs


def answers(src, commands, cwd):
    """[exit code, stdout, stderr, files...] of each command under the tree
    ``src``, run in the new directory ``cwd``."""
    os.mkdir(cwd)
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    done = subprocess.run([sys.executable, "-c", RUNNER], input=json.dumps(commands),
                          capture_output=True, text=True, env=env, cwd=cwd, check=True)
    return json.loads(done.stdout)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base_src")
    parser.add_argument("head_src")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        runs = commands(tmp)
        base = answers(args.base_src, runs, os.path.join(tmp, "base"))
        head = answers(args.head_src, runs, os.path.join(tmp, "head"))
        differ = 0
        for argv, old, new in zip(runs, base, head):
            if old != new:
                differ += 1
                fields = [name for name, a, b in zip(FIELDS, old, new) if a != b]
                if argv[0] == "observe":
                    argv = argv[:-1] + ["(%d symbols)" % len(argv[-1].split())]
                print("differs (%s): %s" % (", ".join(fields),
                                            " ".join(argv).replace(tmp + os.sep, "")))
    print("%d of %d commands differ" % (differ, len(runs)))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
