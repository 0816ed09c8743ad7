"""Recorded CLI outputs for the fixtures, compared byte for byte.

Each ``tests/fixtures/golden/<name>.json`` maps a command line to the exit
code and the exact stdout that ``fsmdiag`` gave on ``tests/fixtures/<name>.fsm``.
Every command runs in an empty working directory, and the files a command
leaves there (``desilent``'s ``-o`` and ``--provenance``) are recorded under
``files``.  Besides ``validate``, ``desilent``, ``check`` and ``sets``, it
records ``observe`` for every observable property that holds on a machine
that passes analysis validation, fed a seeded random walk of WALK_LENGTH
symbols; the key names that stream ``WALK``.  Run ``python tests/test_golden.py``
(with ``src`` on ``PYTHONPATH``) to record them again after a deliberate
change of output.
"""

import contextlib
import glob
import io
import json
import os
import random
import sys
import tempfile

import pytest

from fsmdiag import check, load_fsm, validate
from fsmdiag.checker import PropertyKind
from fsmdiag.cli import main

FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures")
GOLDEN = os.path.join(FIXTURES, "golden")
COMMANDS = ([["validate", "--json", "--mode", "analysis"],
             ["validate", "--json", "--mode", "desilent"],
             ["desilent", "--json", "-o", "out.fsm", "--provenance", "provenance.json"]]
            + [["check", "--json", "--property", kind.value] for kind in PropertyKind]
            + [["sets", "--json", "--steps"], ["sets", "--steps"]])
MACHINES = sorted(os.path.basename(p)[:-4] for p in glob.glob(os.path.join(FIXTURES, "*.fsm")))
WALK_LENGTH = 2000


def walk(m, seed):
    """Outputs of a random execution of WALK_LENGTH states, drawn with
    ``random.Random(seed)`` over sorted initial states and successors."""
    rng = random.Random(seed)
    s = rng.choice(sorted(m.initial))
    out = [m.label[s]]
    while len(out) < WALK_LENGTH:
        s = rng.choice(sorted(m.succ(s)))
        out.append(m.label[s])
    return " ".join(out)


def commands(name):
    """(key, argv after the file) for every recorded command on ``name``."""
    out = [(" ".join(command), command) for command in COMMANDS]
    m = load_fsm(os.path.join(FIXTURES, name + ".fsm"))
    if not validate(m, "analysis").ok:
        return out
    trace = walk(m, "golden walk " + name)
    for kind in PropertyKind:
        if kind.observable and check(m, kind.value).holds:
            command = ["observe", "--json", "--property", kind.value, "--trace"]
            out.append((" ".join(command + ["WALK"]), command + [trace]))
    return out


def run(name, command):
    out = io.StringIO()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = main([command[0], os.path.join(FIXTURES, name + ".fsm"), *command[1:]])
        finally:
            os.chdir(cwd)
        files = {}
        for written in sorted(os.listdir(tmp)):
            with open(os.path.join(tmp, written), encoding="utf-8") as fh:
                files[written] = fh.read()
    result = {"exit": code, "stdout": out.getvalue()}
    if files:
        result["files"] = files
    return result


def record(name):
    return {key: run(name, command) for key, command in commands(name)}


@pytest.mark.parametrize("name", MACHINES)
def test_outputs_match_recording(name):
    with open(os.path.join(GOLDEN, name + ".json"), encoding="utf-8") as fh:
        expected = json.load(fh)
    assert set(expected) == {key for key, _ in commands(name)}
    for key, got in record(name).items():
        assert got == expected[key], key


if __name__ == "__main__":
    os.makedirs(GOLDEN, exist_ok=True)
    for name in MACHINES:
        with open(os.path.join(GOLDEN, name + ".json"), "w", encoding="utf-8") as fh:
            json.dump(record(name), fh, indent=1, sort_keys=True)
            fh.write("\n")
    sys.exit(0)
