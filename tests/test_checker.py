import random
from functools import cached_property

import pytest

from fsmdiag import (
    Analysis, DiagParams, FixpointSeries, Fsm, Horizon, PairRelation, PreconditionError,
    UsageError, check, check_definition, lambda_series, observe, product_relation, validate,
)
from fsmdiag import checker
from fsmdiag.checker import PropertyKind
from fsmdiag.fixpoint import ProjectedSeries
from conftest import random_live_fsm, sym, theta

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


@pytest.mark.parametrize("name", ["m1", "m2", "fork"])
def test_every_relation_holds_the_machine_universe(name, request):
    a = Analysis(request.getfixturevalue(name))
    # the restricted machine keeps the states, and shares their universe
    assert a.restricted.universe is a.m.universe
    for universe, relations, series in (
            (a.m.universe, [a.pi, a.m.mixed], [a.s, a.f, a.b, a.lam, a.gam]),
            (a.restricted.universe, [], [a.s_tilde, a.b_tilde])):
        for s in series:
            relations += [*s, s.first, s.fixed_point]
        assert all(rel.universe is universe for rel in relations)
    # relations of the machine and of its restriction still combine
    assert (a.s_tilde.fixed_point & a.lam.fixed_point).universe is a.restricted.universe


def test_check_answers_for_the_machine_of_its_analysis(m1, fork):
    # an analysis of another machine is refused, not read for m
    with pytest.raises(UsageError, match="another machine"):
        check(fork, "diag", Analysis(m1))
    assert check(fork, "diag").witness[0] == ("3", "4")
    # an analysis of an equal machine serves it
    a = Analysis(m1)
    assert check(m1.replace(), "diag", a) is check(m1, "diag", a)


@pytest.mark.parametrize("prop", ["parametric", "diag", "critical"])
def test_check_builds_pi_once(m1, monkeypatch, prop):
    # these properties read the restriction too, which holds m's very Pi
    builds = []
    pi = Fsm.__dict__["pi"]
    counted = cached_property(lambda m: builds.append(m) or pi.func(m))
    counted.__set_name__(Fsm, "pi")
    monkeypatch.setattr(Fsm, "pi", counted)
    check(m1, prop)
    assert builds == [m1]


def test_on_mixed_takes_only_f_b_and_b_tilde(fork, monkeypatch):
    # any other name is refused before a build, so no view can take the
    # slot of another series
    builds = []
    for name in ("f_series", "b_series"):
        monkeypatch.setattr(checker, name, lambda *args, name=name: builds.append(name))
    a = Analysis(fork)
    for name in ("lam", "gam", "s", "s_tilde", "F", ""):
        with pytest.raises(UsageError, match="no view"):
            a.on_mixed(name)
    assert builds == []
    assert a.__dict__.keys().isdisjoint(["lam", "gam", "s", "s_tilde"])
    monkeypatch.undo()
    assert a.lam == lambda_series(fork, a.s.fixed_point)
    # with a view of B~ in Lambda's slot, diag read delta = gamma1 = gamma2 = 1
    m = Fsm("123", "3", {"1": "c", "2": "a", "3": "b"},
            [("1", "1"), ("1", "3"), ("2", "2"), ("3", "1"), ("3", "3")], critical={"3"})
    a = Analysis(m)
    with pytest.raises(UsageError):
        a.on_mixed("lam")
    assert check(m, "diag", a) == check(m, "diag")
    assert check(m, "diag", a).params.delta == 0


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

    def test_delay_ignores_a_state_no_execution_reaches(self):
        # state 9 only adds pairs outside S*, which F removes at step 2
        m = Fsm("12", "1", {"1": "a", "2": "b"}, [("1", "1"), ("2", "1")], "1")
        m9 = Fsm("129", "1", {"1": "a", "2": "b", "9": "b"},
                 [("1", "1"), ("2", "1"), ("9", "2")], "1")
        assert Analysis(m9).f.convergence_step == 2
        runs = []
        for x in (m, m9):
            v = check(x, "eventual")
            assert v.bfgl == (1, 1, 1, 1) and v.params.delta == 0
            _, events = observe(x, v, "aaa")
            runs.append([(e.detected_at, e.window) for e in events])
        assert runs[0] == runs[1] == [(1, (1, 1)), (2, (2, 2)), (3, (3, 3))]


class TestCritical:
    def test_m2_single_holds(self, m2_single):
        v = check(m2_single, "critical")
        assert v.holds
        assert v.params.tau == 0

    def test_m2_all_initial_fails(self, m2):
        assert not check(m2, "critical").holds

    def test_empty_critical(self, m2):
        assert check(m2.replace(critical=frozenset()), "critical").holds

    @pytest.mark.parametrize("order", [("diag", "eventual", "critical"),
                                       ("critical", "diag", "eventual")])
    def test_composes_the_kept_verdicts(self, monkeypatch, order):
        # each verdict is decided once per Analysis, so critical composes
        # diag's and eventual's instead of scanning their frontiers again:
        # one scan each for diag and eventual, none of its own
        m = random_live_fsm(random.Random(5), 6, 3)
        a = Analysis(m)
        calls = []
        monkeypatch.setattr(checker, "_frontier", lambda *args, scan=checker._frontier, **kw:
                            calls.append(args) or scan(*args, **kw))
        verdicts = {p: check(m, p, a) for p in order}
        assert all(v.holds for v in verdicts.values())
        assert len(calls) == 2
        assert all(check(m, p, a) is v for p, v in verdicts.items())
        assert len(calls) == 2

    def test_eventual_transient_enters_delay_and_gamma1(self):
        # eventual's transient, 3, exceeds its delay and gamma1 and diag's
        # delay, so it sets both composed values: delta = gamma2 =
        # max(tau_e, delta_e, delta_diag) and gamma1 = max(tau_e, gamma1_e)
        m = random_live_fsm(random.Random(0), 6, 3)
        a = Analysis(m)
        ev, dg = check(m, "eventual", a).params, check(m, "diag", a).params
        assert (ev.tau, ev.delta, ev.gamma1, dg.delta) == (3, 1, 0, 1)
        p = check(m, "critical", a).params
        assert (p.tau, p.delta, p.gamma1, p.gamma2) == (0, 3, 3, 3)
        out = check_definition(m, "critical", p, Horizon(2 * len(m.states) + 8))
        assert out.status == "consistent-up-to-horizon"

    def test_conjunction(self, m1, m2, m2_single, fork):
        for m in (m1, m2, m2_single, fork):
            both = check(m, "diag").holds and check(m, "eventual").holds
            assert check(m, "critical").holds == both


class TestEventualObs:
    def test_reads_no_forward_masking_series(self, monkeypatch):
        # Lambda_1 = Gamma_1, so the scan takes its domain from Gamma and
        # never builds Lambda; the verdict is the one read off Lambda_1
        calls = []
        monkeypatch.setattr(checker, "lambda_series", lambda *args, f=checker.lambda_series:
                            calls.append(args) or f(*args))
        rng = random.Random(3)
        holding = 0
        while holding < 10:
            m = random_live_fsm(rng, 8, 3)
            if not validate(m, "analysis").ok:
                continue
            v = check(m, "eventual-obs")
            if not v.holds:
                continue
            holding += 1
            assert calls == []
            a = Analysis(m)
            assert v == checker._verdict(PropertyKind.EVENTUAL_OBS, a.b.fixed_point & a.m.mixed,
                                         "backward-indistinguishable mixed pair",
                                         lambda: checker._frontier(a.lam.first, b=a.b, g=a.gam))
            calls.clear()

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

    @staticmethod
    def machine(request, name):
        """m1, or a 60-state machine with every state initial."""
        if name == "m1":
            return request.getfixturevalue("m1")
        rng = random.Random(2)
        states = ["s%02d" % i for i in range(60)]
        label = {s: rng.choice("abcdefgh") for s in states}
        trans = [(s, t) for s in states for t in rng.sample(states, rng.randint(1, 3))]
        return Fsm(states, states, label, trans, states[:rng.randint(1, 6)])

    @pytest.mark.parametrize("machine", ["m1", "random60"])
    def test_series_read_without_step_lookups(self, request, monkeypatch, machine):
        # the frontier search never asks a series for one step at a time
        m = self.machine(request, machine)
        calls = []
        for cls in (FixpointSeries, ProjectedSeries):
            monkeypatch.setattr(cls, "at", lambda self, k, at=cls.at:
                                calls.append((type(self), k)) or at(self, k))
        holds = [check(m, p).holds for p in ("eventual", "parametric", "diag", "eventual-obs")]
        assert holds == ([True, True, False, False] if machine == "m1" else [True] * 4)
        assert calls == []

    @pytest.mark.parametrize("machine", ["m1", "random60"])
    def test_frontier_builds_no_step(self, request, monkeypatch, machine):
        # every frontier is read off the steps at which pairs leave each
        # series, so no check iterates a series
        m = self.machine(request, machine)
        reads = []
        monkeypatch.setattr(FixpointSeries, "__iter__", lambda self, it=FixpointSeries.__iter__:
                            reads.append(self) or it(self))
        a = Analysis(m)
        verdicts = [check(m, p, a) for p in ALL_PROPERTIES + ("initial-obs",)]
        assert any(v.holds and v.frontier for v in verdicts)
        assert reads == []

    def test_monotone_inclusion(self, m1):
        # if the condition holds at a frontier tuple, it holds at anything larger
        a = Analysis(m1)
        for (b, f, g, l) in check(m1, "eventual").frontier:
            for db in (0, 1):
                for dl in (0, 1):
                    lhs = a.b.at(b + db) & a.f.at(f)
                    assert not (lhs & a.gam.at(g) & a.lam.at(l + dl))

    def test_pair_no_series_removes_leaves_no_frontier(self, m1):
        # the diagonal stays in F*, so no step of F empties it
        a = Analysis(m1)
        diagonal = PairRelation.diagonal(a.m.universe)
        assert diagonal.issubset(a.f.fixed_point)
        assert checker._frontier(diagonal, f=a.f) == ()


def test_property_kind_round_trip():
    for name in ALL_PROPERTIES + ("initial-obs",):
        assert PropertyKind(name).value == name


#: property -> (failure relation, reason) as each check states them
FAILURES = {
    "parametric": (lambda a: a.b_tilde.fixed_point & a.lam.fixed_point,
                   "backward-reachable and forward-maskable"),
    "diag": (lambda a: a.s_tilde.fixed_point & a.lam.fixed_point,
             "jointly reachable and forward-maskable"),
    "eventual": (lambda a: a.gam.fixed_point & a.lam.fixed_point,
                 "backward-maskable and forward-maskable"),
    "eventual-obs": (lambda a: a.b.fixed_point & a.m.mixed,
                     "backward-indistinguishable mixed pair"),
    "critical-obs": (lambda a: a.s.fixed_point & a.m.mixed, "jointly reachable mixed pair"),
    "exact-step": (lambda a: a.b.fixed_point & a.f.fixed_point & a.m.mixed,
                   "persistent mixed pair"),
    "initial-obs": (lambda a: product_relation(a.m.universe, a.m.initial, a.m.initial)
                    & a.m.mixed & a.f.fixed_point,
                    "forward-indistinguishable initial mixed pair"),
}


def test_witness_is_lexicographically_smallest(m1):
    a = Analysis(m1)
    bad = a.s_tilde.fixed_point & a.lam.fixed_point
    assert check(m1, "diag").witness[0] == min(bad.pairs())
    seen = set()
    rng = random.Random(31)
    while len(seen) < len(FAILURES):
        m = random_live_fsm(rng, 8, 3)
        if not validate(m, "analysis").ok:
            continue
        m = m.replace(initial=m.initial | m.critical)   # as initial-obs needs
        a = Analysis(m)
        for prop, (failure, reason) in FAILURES.items():
            v = check(m, prop, a)
            if not v.holds:
                assert v.witness == (min(failure(a).pairs()), reason), (m, prop)
                seen.add(prop)
        v = check(m, "critical", a)
        if not v.holds:
            first = "diag" if not check(m, "diag", a).holds else "eventual"
            assert v.witness == check(m, first, a).witness


def test_eventual_obs_headline_ranks_least():
    # the frontier is {(1, 1, 3, 1), (3, 1, 1, 1)}: the lexicographically first
    # tuple claims gamma1 = 2, the rank-least one gamma1 = 0 at the same tau
    m = Fsm("123", "2", {"1": "a", "2": "a", "3": "a"},
            [("1", "1"), ("2", "1"), ("2", "3"), ("3", "1")], {"1"})
    v = check(m, "eventual-obs")
    assert v.holds and v.frontier is None
    assert v.bfgl == (3, 1, 1, 1)
    assert v.params == DiagParams(2, 0, None, 0, 0)
    assert check_definition(m, "eventual-obs", v.params, Horizon(12)).status \
        == "consistent-up-to-horizon"
