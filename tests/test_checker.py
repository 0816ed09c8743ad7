import pytest

from fsmdiag import (
    Analysis, DiagParams, FixpointSeries, Fsm, PreconditionError, UsageError,
    check,
)
from fsmdiag.checker import PropertyKind
from conftest import sym, theta

ALL_PROPERTIES = ("parametric", "diag", "eventual", "critical",
                  "eventual-obs", "critical-obs", "exact-step")


def test_analysis_rejects_invalid_machines():
    dead = Fsm("ab", "a", {"a": "x", "b": "x"}, [("a", "b")])
    with pytest.raises(PreconditionError):
        Analysis(dead)


def test_analysis_memoizes(m1):
    a = Analysis(m1)
    assert a.s is a.s
    assert a.lam is a.lam


def test_diag_params_validation():
    with pytest.raises(UsageError):
        DiagParams(-1, 0, None, 0, 0)
    with pytest.raises(UsageError):
        DiagParams(0, 1, None, 0, 2)  # gamma2 > delta
    p = DiagParams(0, 2, None, 3, 1)
    assert p.gamma == 3


def test_unknown_property(m1):
    with pytest.raises(UsageError):
        check(m1, "frobnicate")


class TestParametric:
    def test_fork_fails_with_witness(self, fork):
        v = check(fork, "parametric")
        assert not v.holds
        assert v.witness[0] == ("3", "4")

    def test_fork_violating_sets(self, fork):
        a = Analysis(fork)
        bad = a.b_tilde.fixed_point & a.lam.fixed_point
        assert set(bad.pairs()) == sym([("3", "4")])
        assert set(a.lam.fixed_point.pairs()) == sym([("3", "4")])

    def test_empty_critical(self, m1):
        v = check(m1.replace(critical=frozenset()), "parametric")
        assert v.holds
        assert (v.params.tau, v.params.delta, v.params.gamma1, v.params.gamma2) \
            == (0, 0, 0, 0)

    def test_m1(self, m1):
        v = check(m1, "parametric")
        assert v.holds
        assert v.params.tau <= 1 and v.params.delta <= 1
        assert v.params.horizon == 0  # first crossing only


class TestDiag:
    def test_m1_fails(self, m1):
        v = check(m1, "diag")
        assert not v.holds
        assert v.witness[0] == ("3", "5")

    def test_m2_single_holds(self, m2_single):
        v = check(m2_single, "diag")
        assert v.holds
        assert v.params.tau == 0

    def test_empty_critical(self, m1):
        v = check(m1.replace(critical=frozenset()), "diag")
        assert v.holds
        assert v.params.delta == 0 and v.params.gamma == 0


class TestEventual:
    def test_m1(self, m1):
        v = check(m1, "eventual")
        assert v.holds
        p = v.params
        assert (p.tau, p.delta, p.gamma1, p.gamma2) == (1, 1, 0, 0)
        assert v.bfgl == (2, 2, 1, 1)
        assert p.horizon is None  # every crossing

    def test_m2(self, m2):
        v = check(m2, "eventual")
        assert v.holds
        p = v.params
        assert (p.tau, p.delta, p.gamma1, p.gamma2) == (2, 2, 1, 1)

    def test_fork_fails(self, fork):
        v = check(fork, "eventual")
        assert not v.holds
        assert v.witness[0] == ("3", "4")


class TestCritical:
    def test_m2_single_holds(self, m2_single):
        v = check(m2_single, "critical")
        assert v.holds
        assert v.params.tau == 0

    def test_m2_all_initial_fails(self, m2):
        assert not check(m2, "critical").holds

    def test_empty_critical(self, m2):
        assert check(m2.replace(critical=frozenset()), "critical").holds

    def test_conjunction(self, m1, m2, m2_single, fork):
        for m in (m1, m2, m2_single, fork):
            both = check(m, "diag").holds and check(m, "eventual").holds
            assert check(m, "critical").holds == both


class TestEventualObs:
    def test_m1_fails(self, m1):
        v = check(m1, "eventual-obs")
        assert not v.holds
        assert v.witness[0] == ("1", "3")

    def test_trivial_blocks(self, m1):
        assert check(m1.replace(critical=frozenset()), "eventual-obs").holds
        everything = frozenset(m1.states)
        assert check(m1.replace(critical=everything), "eventual-obs").holds


class TestExactStep:
    def test_m1_holds(self, m1):
        v = check(m1, "exact-step")
        assert v.holds
        assert v.bfgl[:2] == (2, 2)
        assert v.params.gamma1 == 0 and v.params.gamma2 == 0

    def test_m2_fails(self, m2):
        assert not check(m2, "exact-step").holds

    def test_failure_decided_at_the_fixed_points(self, m2, monkeypatch):
        calls = []
        at = FixpointSeries.at
        monkeypatch.setattr(FixpointSeries, "at",
                            lambda self, k: calls.append(k) or at(self, k))
        v = check(m2, "exact-step")
        assert not v.holds
        assert v.witness[1] == "persistent mixed pair"
        assert calls == []

    def test_empty_critical(self, m2):
        assert check(m2.replace(critical=frozenset()), "exact-step").holds


class TestInitialObs:
    def test_distinct_initial_outputs(self):
        m = Fsm("ab", "ab", {"a": "x", "b": "y"},
                [("a", "b"), ("b", "a")], {"a"})
        assert check(m, "initial-obs").holds

    def test_twin_initial_states(self):
        # i and j look identical forever, only i is critical
        m = Fsm("ijk", "ij", {"i": "x", "j": "x", "k": "y"},
                [("i", "k"), ("j", "k"), ("k", "k")], {"i"})
        v = check(m, "initial-obs")
        assert not v.holds
        assert v.witness[0] == ("i", "j")

    def test_critical_must_be_initial(self, m1):
        with pytest.raises(UsageError):
            check(m1.replace(initial=frozenset("1")), "initial-obs")

    def test_m2_variant_fails(self, m2):
        m = m2.replace(initial=frozenset({"1", "2", "4"}),
                       critical=frozenset({"4"}))
        v = check(m, "initial-obs")
        assert not v.holds
        assert v.witness[0] == ("2", "4")


class TestCriticalObs:
    def test_m1_fails(self, m1):
        v = check(m1, "critical-obs")
        assert not v.holds
        assert v.witness[0] == ("1", "3")

    def test_private_output(self):
        m = Fsm("abc", "a", {"a": "x", "b": "x", "c": "omega"},
                [("a", "b"), ("b", "c"), ("c", "a")], {"c"})
        assert check(m, "critical-obs").holds

    def test_implies_eventual_obs(self, m1, m2, m2_single, fork, rng):
        from conftest import random_live_fsm
        from fsmdiag import validate
        machines = [m1, m2, m2_single, fork]
        while len(machines) < 30:
            m = random_live_fsm(rng)
            if validate(m, "analysis").ok:
                machines.append(m)
        for m in machines:
            if check(m, "critical-obs").holds:
                assert check(m, "eventual-obs").holds


class TestFrontier:
    def test_m1_eventual(self, m1):
        frontier = check(m1, "eventual").frontier
        assert (2, 2, 1, 1) in frontier

    def test_m2_single_no_small_backward_indices(self, m2_single):
        frontier = check(m2_single, "eventual").frontier
        assert frontier  # nonempty since the property holds
        assert not any(b == 1 and g == 1 for (b, f, g, l) in frontier)

    def test_empty_critical(self, m1):
        m = m1.replace(critical=frozenset())
        assert check(m, "eventual").frontier == ((1, 1, 1, 1),)
        assert check(m, "diag").frontier == ((1, 1, 1, 1),)

    def test_pareto_minimality(self, m1):
        frontier = check(m1, "eventual").frontier
        for t in frontier:
            for o in frontier:
                if o != t:
                    assert not all(o[i] <= t[i] for i in range(4))

    def test_monotone_inclusion(self, m1):
        # if the condition holds at a frontier tuple, it holds at anything larger
        a = Analysis(m1)
        for (b, f, g, l) in check(m1, "eventual").frontier:
            for db in (0, 1):
                for dl in (0, 1):
                    lhs = a.b.at(b + db) & a.f.at(f)
                    assert not (lhs & a.gam.at(g) & a.lam.at(l + dl))


def test_property_kind_round_trip():
    for name in ALL_PROPERTIES + ("initial-obs",):
        assert PropertyKind(name).value == name


def test_witness_is_lexicographically_smallest(m1):
    a = Analysis(m1)
    bad = a.s_tilde.fixed_point & a.lam.fixed_point
    assert check(m1, "diag").witness[0] == min(bad.pairs())
