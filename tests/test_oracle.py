import pytest

from fsmdiag import (
    Analysis, BudgetExceededError, DiagParams, Horizon, UsageError, check,
    check_definition, enum_relation, minimal_params, validate,
)
from conftest import random_live_fsm, sym, theta

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

    def test_budget(self, m2):
        a = Analysis(m2)
        with pytest.raises(BudgetExceededError):
            enum_relation(m2, "F", 8, budget=3)


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
