"""Compare the answers of two source trees of fsmdiag, command by command.

    python3 .github/scripts/same_answers.py BASE_SRC HEAD_SRC

BASE_SRC and HEAD_SRC are the ``src`` directories of the two trees.  The
machines are ``tests/fixtures/*.fsm`` and those ``bench/workloads.py``
writes for every workload at seeds 1 and 4242, into a temporary directory
that is removed afterwards.  On each machine the commands are
``check FILE --property P --json`` for the eight properties and
``sets FILE --json --steps``.  Each tree runs all of them in one Python
process with that tree on the path, calling ``fsmdiag.cli.main`` per
command and capturing its exit code, stdout and stderr.  Prints every
command on which the two differ; exits 1 if any does and 0 otherwise.
"""

import argparse
import glob
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
WORKLOADS = ("few-labels", "many-labels", "silent")
SEEDS = (1, 4242)
PROPERTIES = ("parametric", "diag", "eventual", "critical",
              "eventual-obs", "critical-obs", "initial-obs", "exact-step")

# Run in each tree's process: reads the commands as JSON on stdin and
# writes one [exit code, stdout, stderr] per command as JSON on stdout.  An
# exception the CLI lets through is recorded by type and message, without
# the traceback, whose file paths differ between the trees.
RUNNER = r"""
import contextlib, io, json, sys
from fsmdiag.cli import main
out = []
for argv in json.load(sys.stdin):
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:
            code = "uncaught %s: %s" % (type(exc).__name__, exc)
    out.append([code, stdout.getvalue(), stderr.getvalue()])
json.dump(out, sys.__stdout__)
"""


def machines(tmp):
    """The fixture files and the workload machines written under ``tmp``."""
    files = sorted(glob.glob(os.path.join(ROOT, "tests", "fixtures", "*.fsm")))
    for workload in WORKLOADS:
        for seed in SEEDS:
            directory = os.path.join(tmp, "%s-%d" % (workload, seed))
            os.mkdir(directory)
            subprocess.run([sys.executable, os.path.join(ROOT, "bench", "workloads.py"),
                            "--workload", workload, "--seed", str(seed), "--dir", directory],
                           check=True, stdout=subprocess.DEVNULL)
            files += sorted(glob.glob(os.path.join(directory, "*.fsm")))
    return files


def answers(src, commands, cwd):
    """[exit code, stdout, stderr] of each command under the tree ``src``."""
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
        commands = []
        for path in machines(tmp):
            commands += [["check", path, "--property", p, "--json"] for p in PROPERTIES]
            commands.append(["sets", path, "--json", "--steps"])
        base = answers(args.base_src, commands, tmp)
        head = answers(args.head_src, commands, tmp)
        differ = 0
        for argv, old, new in zip(commands, base, head):
            if old != new:
                differ += 1
                fields = [name for name, a, b in zip(("exit code", "stdout", "stderr"), old, new)
                          if a != b]
                print("differs (%s): %s" % (", ".join(fields),
                                            " ".join(argv).replace(tmp + os.sep, "")))
    print("%d of %d commands differ" % (differ, len(commands)))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
