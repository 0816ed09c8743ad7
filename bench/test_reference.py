"""Tests of the benchmark's reference module.

    PYTHONPATH=src python -m pytest -q bench/test_reference.py

The reference must reproduce the golden fixed points of tests/fixtures/m1.fsm
and agree with fsmdiag, step by step, on small random machines.
"""

import os
import random
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import fsmdiag  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402


def sym(pairs):
    return {(a, b) for a, b in pairs} | {(b, a) for a, b in pairs}


def load(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def test_golden_m1():
    text = load(os.path.join(ROOT, "tests", "fixtures", "m1.fsm"))
    ref = reference.Reference(reference.parse(text))
    theta = {(s, s) for s in "123456"}
    assert ref.pi == sym([("1", "3"), ("1", "5"), ("3", "5"), ("2", "4")]) | theta
    assert ref.s.fixed_point == ref.pi
    assert ref.b.fixed_point == sym([("1", "3")]) | theta
    assert ref.f.fixed_point == sym([("3", "5")]) | theta
    assert ref.gam.fixed_point == sym([("1", "3")])
    assert ref.lam.fixed_point == sym([("3", "5")])
    for series in (ref.b, ref.f, ref.gam, ref.lam):
        assert series.convergence_step == 2


def small_machine(rng):
    n = rng.randint(2, 7)
    m = workloads.live_machine(rng, n, "abc"[:rng.randint(1, 3)],
                               rng.randint(1, n), rng.randint(0, n - 1))
    return m


def as_fsm(m):
    return fsmdiag.parse_fsm(workloads.to_text(m))


def pairs(rel):
    return set(rel.pairs())


@pytest.mark.parametrize("seed", range(40))
def test_agrees_with_fsmdiag(seed):
    m = small_machine(random.Random(seed))
    ref = reference.Reference(m)
    a = fsmdiag.Analysis(as_fsm(m))
    assert pairs(a.pi) == ref.pi
    for mine, theirs in ((ref.s, a.s), (ref.s_tilde, a.s_tilde), (ref.f, a.f),
                         (ref.b, a.b), (ref.b_tilde, a.b_tilde),
                         (ref.lam, a.lam), (ref.gam, a.gam)):
        assert mine.convergence_step == theirs.convergence_step
        assert mine.fixed_point == pairs(theirs.fixed_point)
        for k in range(1, mine.convergence_step + 2):
            assert mine.at(k) == pairs(theirs.at(k)), k


def silent_machine(rng):
    m = small_machine(rng)
    m = workloads.shallow_silent_variant(rng, m, 0.3)
    return m


@pytest.mark.parametrize("seed", range(20))
def test_language_preserved_by_desilent(seed):
    m = silent_machine(random.Random(seed))
    result = fsmdiag.desilent(as_fsm(m)).m_hat
    out = reference.parse(fsmdiag.fsm_to_text(result))
    assert reference.language_difference(m, out, 6) is None


def test_language_difference_found():
    m = reference.parse(load(os.path.join(ROOT, "tests", "fixtures", "silent.fsm")))
    # relabelling the c-state changes every string through it
    other = reference.Machine(m.states, m.initial, dict(m.label, **{"5": "d"}),
                              m.trans, m.critical)
    diff = reference.language_difference(m, other, 6)
    assert diff is not None and diff[-1] in ("c", "d")
    assert reference.language_difference(m, m, 6) is None


def test_language_passes_through_silent_runs():
    # a -> _ -> _ -> b is the language {a, ab, abb, ...} of a -> b
    chain = reference.Machine("xyzw", "x", {"x": "a", "y": "_", "z": "_", "w": "b"},
                              [("x", "y"), ("y", "z"), ("z", "w"), ("w", "w")], ())
    direct = reference.Machine("xw", "x", {"x": "a", "w": "b"},
                               [("x", "w"), ("w", "w")], ())
    assert reference.language_difference(chain, direct, 5) is None
