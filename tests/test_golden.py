"""Recorded CLI outputs for the fixtures, compared byte for byte.

Each ``tests/fixtures/golden/<name>.json`` maps a command line to the exit
code and the exact stdout that ``fsmdiag`` gave on ``tests/fixtures/<name>.fsm``.
Run ``python tests/test_golden.py`` (with ``src`` on ``PYTHONPATH``) to record
them again after a deliberate change of output.
"""

import contextlib
import glob
import io
import json
import os
import sys

import pytest

from fsmdiag.checker import PropertyKind
from fsmdiag.cli import main

FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures")
GOLDEN = os.path.join(FIXTURES, "golden")
COMMANDS = ([["check", "--json", "--property", kind.value] for kind in PropertyKind]
            + [["sets", "--json", "--steps"], ["sets", "--steps"]])
MACHINES = sorted(os.path.basename(p)[:-4] for p in glob.glob(os.path.join(FIXTURES, "*.fsm")))


def run(name, command):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main([command[0], os.path.join(FIXTURES, name + ".fsm"), *command[1:]])
    return {"exit": code, "stdout": out.getvalue()}


def record(name):
    return {" ".join(command): run(name, command) for command in COMMANDS}


@pytest.mark.parametrize("name", MACHINES)
def test_outputs_match_recording(name):
    with open(os.path.join(GOLDEN, name + ".json"), encoding="utf-8") as fh:
        expected = json.load(fh)
    assert set(expected) == {" ".join(command) for command in COMMANDS}
    for line, got in record(name).items():
        assert got == expected[line], line


if __name__ == "__main__":
    os.makedirs(GOLDEN, exist_ok=True)
    for name in MACHINES:
        with open(os.path.join(GOLDEN, name + ".json"), "w", encoding="utf-8") as fh:
            json.dump(record(name), fh, indent=1, sort_keys=True)
            fh.write("\n")
    sys.exit(0)
