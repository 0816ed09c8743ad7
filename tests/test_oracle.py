import os
import random
import subprocess
import sys
from dataclasses import replace

import pytest

from fsmdiag import (
    Analysis, BudgetExceededError, DiagParams, Fsm, Horizon, PreconditionError,
    PropertyKind, UsageError, check, check_definition, crossing_index, enum_relation,
    enumerate_executions, is_execution, minimal_params, validate,
)
from conftest import fixture_path, random_live_fsm, sym, theta

RELATIONS = ("S", "F", "B", "Lambda", "Gamma")


def relation_args(analysis, which, k):
    rec = {"S": analysis.s, "F": analysis.f, "B": analysis.b,
           "Lambda": analysis.lam, "Gamma": analysis.gam}[which].at(k)
    sigma = None if which in ("S", "F") else analysis.s.fixed_point
    return rec, sigma


class TestEnumRelation:
    def test_m1_forward_step_two(self, m1):
        rel = enum_relation(m1, "F", 2)
        assert set(rel.pairs()) == sym([("3", "5")]) | theta(m1.states)

    def test_s_step_one_is_initial_square(self, m1, m2_single):
        for m in (m1, m2_single):
            a = Analysis(m)
            got = enum_relation(m, "S", 1)
            expected = {(i, j) for i in m.initial for j in m.initial
                        if m.label[i] == m.label[j]}
            assert set(got.pairs()) == expected

    @pytest.mark.parametrize("which", RELATIONS)
    @pytest.mark.parametrize("k", [1, 2, 4, 8])
    def test_matches_recursion_on_goldens(self, m1, m2, m2_single, fork, which, k):
        for m in (m1, m2, m2_single, fork):
            a = Analysis(m)
            rec, sigma = relation_args(a, which, k)
            assert enum_relation(m, which, k, sigma) == rec

    def test_seed_required(self, m1):
        with pytest.raises(UsageError):
            enum_relation(m1, "B", 2)

    def test_unknown_relation(self, m1):
        with pytest.raises(UsageError):
            enum_relation(m1, "Q", 1, None)

    def test_refuses_machine_outside_analysis_assumptions(self, silent_machine):
        # the searches read equal outputs position by position, which would
        # take the silent output for an observed one
        message = ("machine fails analysis assumptions: "
                   "state 3 is labelled with the silent output")
        for which, k in (("S", 3), ("F", 2)):
            with pytest.raises(PreconditionError) as exc:
                enum_relation(silent_machine, which, k)
            assert str(exc.value) == message

    def test_budget(self, m2):
        a = Analysis(m2)
        with pytest.raises(BudgetExceededError):
            enum_relation(m2, "F", 8, budget=3)

    def test_budget_independent_of_hash_seed(self):
        # the search stops at the first joint successor it finds, so which
        # nodes it expands depends on the order it walks successors in
        script = (
            "import sys\n"
            "import fsmdiag.oracle as oracle\n"
            "from fsmdiag import Analysis, load_fsm\n"
            "budgets = []\n"
            "class Recorded(oracle._Budget):\n"
            "    def __init__(self, cap):\n"
            "        super().__init__(cap)\n"
            "        budgets.append(self)\n"
            "oracle._Budget = Recorded\n"
            "m = load_fsm(sys.argv[1])\n"
            "s_star = Analysis(m).s.fixed_point\n"
            "for which in ('F', 'B', 'Lambda', 'Gamma'):\n"
            "    oracle.enum_relation(m, which, 8, None if which == 'F' else s_star)\n"
            "print([b.used for b in budgets])\n")
        spent = set()
        for seed in range(8):
            env = dict(os.environ, PYTHONHASHSEED=str(seed),
                       PYTHONPATH=os.pathsep.join(sys.path))
            done = subprocess.run([sys.executable, "-c", script, fixture_path("m2.fsm")],
                                  env=env, capture_output=True, text=True)
            assert done.returncode == 0, done.stderr
            spent.add(done.stdout)
        assert len(spent) == 1, spent

    def test_steps_beyond_recursion_limit(self):
        # a two-state a-labelled cycle keeps every pair at every step; the
        # search must not recurse once per step
        m = Fsm("pq", "pq", {"p": "a", "q": "a"}, [("p", "q"), ("q", "p")])
        a = Analysis(m)
        for which in ("F", "B"):
            rec, sigma = relation_args(a, which, 1200)
            got = enum_relation(m, which, 1200, sigma)
            assert got == rec and len(got.pairs()) == 4
        # with p critical and a loop on q, q, q, ... avoids the critical set
        # alongside p, q, p, ... in both directions
        m = m.replace(trans=m.trans | {("q", "q")}, critical={"p"})
        a = Analysis(m)
        for which in ("Lambda", "Gamma"):
            rec, sigma = relation_args(a, which, 1200)
            got = enum_relation(m, which, 1200, sigma)
            assert got == rec and set(got.pairs()) == sym([("p", "q")])


class TestCheckDefinition:
    def test_m1_eventual_consistent(self, m1):
        p = DiagParams(1, 1, None, 0, 0)
        out = check_definition(m1, "eventual", p, Horizon(12))
        assert out.status == "consistent-up-to-horizon"
        assert not out.violated

    def test_m1_eventual_no_transient_violated(self, m1):
        out = check_definition(m1, "eventual", DiagParams(0, 5, None, 0, 0),
                               Horizon(12))
        assert out.violated
        ce = out.counterexample
        assert ce.execution[ce.crossing_step - 1] == "3"
        assert ce.partner[ce.crossing_step - 1] not in m1.critical
        assert [m1.label[s] for s in ce.execution] == \
            [m1.label[s] for s in ce.partner]

    def test_m1_eventual_no_delay_violated(self, m1):
        out = check_definition(m1, "eventual", DiagParams(1, 0, None, 0, 0),
                               Horizon(12))
        assert out.violated

    def test_counterexample_is_valid_execution(self, m1):
        from fsmdiag import is_execution
        out = check_definition(m1, "diag", DiagParams(0, 0, 0, 0, 0), Horizon(12))
        assert out.violated
        ce = out.counterexample
        assert is_execution(m1, ce.execution)
        assert is_execution(m1, ce.partner)
        assert ce.execution[0] in m1.initial and ce.partner[0] in m1.initial

    def test_not_applicable_when_no_crossing_reachable(self, m1):
        m = m1.replace(critical=frozenset())
        out = check_definition(m, "eventual", DiagParams(0, 0, None, 0, 0),
                               Horizon(8))
        assert out.status == "not-applicable"

    def test_large_transient_empties_fork(self, fork):
        # with tau past the horizon no crossing is applicable any more
        out = check_definition(fork, "parametric", DiagParams(10, 1, 0, 0, 0),
                               Horizon(8))
        assert out.status == "not-applicable"

    def test_budget(self, m2):
        with pytest.raises(BudgetExceededError):
            check_definition(m2, "eventual", DiagParams(0, 2, None, 1, 1),
                             Horizon(14, budget=5))

    def test_refuses_machine_outside_analysis_assumptions(self, silent_machine):
        # the search reads equal-length executions with equal outputs as
        # output-identical, which silent states would break
        p = DiagParams(0, 0, None, 0, 0)
        message = ("machine fails analysis assumptions: "
                   "state 3 is labelled with the silent output")
        with pytest.raises(PreconditionError) as exc:
            check_definition(silent_machine, "eventual", p, Horizon(6))
        assert str(exc.value) == message
        with pytest.raises(PreconditionError):
            minimal_params(silent_machine, "eventual", Horizon(6), cap=1)


def applicable(m, kind, p, x, k):
    """Is step k of x a crossing the property asks to diagnose?"""
    return (x[k - 1] in m.critical and k >= p.tau + 1
            and (not kind.first_only or crossing_index(x, m.critical) == k))


def is_violation(m, kind, p, x, k, y):
    """Do x, crossing at step k, and the partner y violate the definition?"""
    window = range(max(1, k - p.gamma1), k + p.gamma2 + 1)
    return (len(x) == len(y) == k + p.delta
            and x[0] in m.initial and y[0] in m.initial
            and is_execution(m, x) and is_execution(m, y)
            and applicable(m, kind, p, x, k)
            and [m.label[s] for s in x] == [m.label[s] for s in y]
            and not any(y[j - 1] in m.critical for j in window))


class TestAgainstDefinition:
    """check_definition against the definition read off every execution of
    at most the horizon's length, sharing no code with its search."""

    def expected_status(self, m, kind, p, length):
        runs = {n: enumerate_executions(m, m.initial, n) for n in range(1, length + 1)}
        by_output = {}
        for n, xs in runs.items():
            for y in xs:
                by_output.setdefault(tuple(m.label[s] for s in y), []).append(y)
        crossings = [(x, k) for x in runs[length] for k in range(1, length + 1)
                     if applicable(m, kind, p, x, k)]
        for x, k in crossings:
            n = k + p.delta
            if n <= length and any(is_violation(m, kind, p, x[:n], k, y)
                                   for y in by_output[tuple(m.label[s] for s in x[:n])]):
                return "violated"
        return "consistent-up-to-horizon" if crossings else "not-applicable"

    def test_seeded_machines(self):
        rng = random.Random(20261018)
        statuses = set()
        for _ in range(1000):
            m = random_live_fsm(rng, 5, 3)
            length = rng.randint(1, 6)
            for kind in PropertyKind:
                delta = rng.randint(0, 3)
                p = DiagParams(rng.randint(0, 3), delta, kind.horizon,
                               rng.randint(0, 3), rng.randint(0, delta))
                out = check_definition(m, kind.value, p, Horizon(length))
                assert out.status == self.expected_status(m, kind, p, length), \
                    (m, kind, p, length)
                if out.violated:
                    ce = out.counterexample
                    assert is_violation(m, kind, p, ce.execution, ce.crossing_step,
                                        ce.partner)
                statuses.add(out.status)
        assert len(statuses) == 3

    def test_first_only_ignores_a_second_crossing(self):
        # x = 1 2 4 4 4 crosses at steps 1 and 2.  The only partner avoiding
        # step 1, from 5, dies at step 3; 1 3 4 4 4 avoids step 2 and lives,
        # which a first-only property must not count
        m = Fsm("1234567", "15",
                {"1": "A", "2": "B", "3": "B", "4": "C", "5": "A", "6": "B", "7": "D"},
                [("1", "2"), ("1", "3"), ("2", "4"), ("3", "4"), ("4", "4"),
                 ("5", "6"), ("6", "7"), ("7", "7")], {"1", "2"})
        for kind in PropertyKind:
            p = DiagParams(0, 3, kind.horizon, 0, 0)
            out = check_definition(m, kind.value, p, Horizon(5))
            assert out.status == self.expected_status(m, kind, p, 5)
            assert out.violated == (not kind.first_only)


class TestMinimalParams:
    def test_m1_eventual(self, m1):
        p = minimal_params(m1, "eventual", Horizon(12), cap=4)
        assert (p.tau, p.delta, p.gamma1, p.gamma2) == (1, 1, 0, 0)

    def test_empty_critical(self, m1):
        m = m1.replace(critical=frozenset())
        p = minimal_params(m, "eventual", Horizon(8), cap=2)
        assert (p.tau, p.delta, p.gamma1, p.gamma2) == (0, 0, 0, 0)

    def test_m2_single_critical(self, m2_single):
        p = minimal_params(m2_single, "critical", Horizon(14), cap=4)
        assert p.tau == 0
        assert p.delta >= 1

    def test_fork_parametric_unattainable(self, fork):
        assert minimal_params(fork, "parametric", Horizon(12), cap=2) is None

    def test_transient_searched_for_exact_step(self, m1):
        # exact-step holds on m1 only after a transient (the checker's tau is 1)
        assert check(m1, "exact-step").params.tau == 1
        p = minimal_params(m1, "exact-step", Horizon(8), cap=2)
        assert (p.tau, p.delta, p.gamma1, p.gamma2) == (1, 1, 0, 0)


class TestAgreement:
    def corpus(self, rng, count=25):
        machines = []
        while len(machines) < count:
            m = random_live_fsm(rng)
            if validate(m, "analysis").ok:
                machines.append(m)
        return machines

    def test_relations_on_random_machines(self, rng):
        for m in self.corpus(rng):
            a = Analysis(m)
            for which in RELATIONS:
                for k in (1, 3, 6):
                    rec, sigma = relation_args(a, which, k)
                    assert enum_relation(m, which, k, sigma) == rec, (which, k)

    def test_checker_verdicts_on_random_machines(self, rng):
        for m in self.corpus(rng):
            n2 = len(m.states) ** 2
            for prop in ("parametric", "diag", "eventual", "critical"):
                v = check(m, prop)
                if v.holds:
                    h = Horizon(v.params.tau + v.params.delta + n2)
                    assert not check_definition(m, prop, v.params, h).violated
                else:
                    horizon_t = 0 if prop in ("parametric", "diag") else None
                    out = check_definition(m, prop,
                                           DiagParams(0, 0, horizon_t, 0, 0),
                                           Horizon(2 * n2))
                    assert out.violated

    def test_exact_step_and_critical_obs_are_tight(self):
        # every holding exact-step verdict passes at its own parameters, and
        # each positive tau or delta one lower is violated (a violation
        # found within a finite horizon is genuine); critical-obs holds only
        # at all zeros
        exact = lowered = obs = 0
        for seed in range(3000, 4000):
            m = random_live_fsm(random.Random(seed), 6, 3)
            v = check(m, "exact-step")
            if v.holds:
                exact += 1
                p = v.params
                h = Horizon(p.tau + p.delta + 2 * len(m.states) + 2)
                assert not check_definition(m, "exact-step", p, h).violated, (seed, p)
                lower = [replace(p, tau=p.tau - 1)] if p.tau else []
                if p.delta:
                    lower.append(replace(p, delta=p.delta - 1,
                                         gamma2=min(p.gamma2, p.delta - 1)))
                for q in lower:
                    assert check_definition(m, "exact-step", q, h).violated, (seed, p, q)
                lowered += len(lower)
            v = check(m, "critical-obs")
            if v.holds:
                obs += 1
                p = v.params
                assert (p.tau, p.delta, p.gamma1, p.gamma2) == (0, 0, 0, 0), (seed, p)
        assert exact and lowered and obs

    def test_detect_only_crossing_matches_first_crossing_verdict(
            self, m1, m2_single, fork):
        # with the uncertainty window stretched over the whole execution the
        # bounded check reduces to "was some crossing detectable at all",
        # which must agree with the zero-transient first-crossing verdict
        for m in (m1, m2_single, fork):
            holds = check(m, "diag").holds
            n2 = len(m.states) ** 2
            weak = DiagParams(0, 2, 0, 2 * n2, 2)
            out = check_definition(m, "diag", weak, Horizon(2 * n2))
            assert out.violated == (not holds)
