import random

import pytest

from fsmdiag import (
    Analysis, Fsm, PairRelation, PreconditionError, Universe, UsageError, b_series,
    build_restricted, check, enum_relation, f_series, gamma_series, lambda_series, s_series,
)
from fsmdiag import checker, cli, fixpoint
from conftest import sym, theta


@pytest.fixture
def one_output():
    return Fsm("ab", "ab", {"a": "x", "b": "x"}, [("a", "b"), ("b", "a")])


class TestPi:
    def test_m1(self, m1):
        expected = sym([("1", "3"), ("1", "5"), ("3", "5"), ("2", "4")])
        assert set(m1.pi.pairs()) == expected | theta(m1.states)

    def test_single_output(self, one_output):
        assert one_output.pi == PairRelation.full(one_output.universe)

    def test_all_distinct(self):
        m = Fsm("ab", "a", {"a": "x", "b": "y"}, [("a", "b"), ("b", "a")])
        assert m.pi == PairRelation.diagonal(m.universe)


def reference_grow(m):
    """Every step of S: the equal-output part of the initial square, grown
    by the equal-output successor pairs of each step's pairs until it
    repeats, computed plainly."""
    steps = [{(i, j) for i in m.initial for j in m.initial if m.label[i] == m.label[j]}]
    while True:
        cur = steps[-1]
        nxt = cur | {(a, b) for (i, j) in cur for a in m.succ(i) for b in m.succ(j)
                     if m.label[a] == m.label[b]}
        if nxt == cur:
            return steps
        steps.append(nxt)


def assert_s_matches_reference(m):
    """s_series(m) against reference_grow: every step and every layer."""
    series = s_series(m)
    steps = reference_grow(m)
    assert [set(rel.pairs()) for rel in series] == steps
    states, n = m.states, len(m.states)
    for k, layer in enumerate(series.layers, 2):
        assert sorted(layer) == sorted(states.index(i) * n + states.index(j)
                                       for (i, j) in steps[k - 1] - steps[k - 2])
    return series


class TestS:
    def test_m1_all_initial(self, m1):
        assert s_series(m1).fixed_point == m1.pi

    def test_m2_single_initial(self, m2_single):
        fp = set(s_series(m2_single).fixed_point.pairs())
        assert fp == sym([("2", "4"), ("3", "5"), ("6", "7")]) | theta(m2_single.states)

    def test_monotone(self, m2_single):
        s = s_series(m2_single)
        prev = None
        for rel in s:
            if prev is not None:
                assert prev.issubset(rel)
            prev = rel

    def test_single_initial_distinct_outputs_diagonal(self):
        m = Fsm("ab", "a", {"a": "x", "b": "y"}, [("a", "b"), ("b", "a")])
        assert s_series(m).fixed_point.issubset(PairRelation.diagonal(m.universe))

    def test_tolerates_missing_liveness(self, m2):
        # the critical-restricted machine has sink states by construction
        s_series(build_restricted(m2))  # must not raise

    def test_initial_square_covering_pi_ends_at_step_one(self, m1):
        # every state of m1 is initial, so S_1 is already Pi, which S cannot
        # outgrow; the restricted machine has the same states and labels
        for m in (m1, build_restricted(m1)):
            s = s_series(m)
            assert s.first == s.fixed_point == m.pi
            assert s.convergence_step == 1 and s.layers == []

    def test_growing_to_pi_keeps_every_layer(self):
        # one output and one initial state: S_1 is a single pair and S grows
        # to Pi, every pair, at step 9
        m = Fsm("1234", "1", {s: "a" for s in "1234"},
                [("1", "2"), ("2", "3"), ("3", "4"), ("4", "1"), ("4", "2")])
        s = assert_s_matches_reference(m)
        assert s.convergence_step == 9
        assert s.fixed_point == m.pi == PairRelation.full(m.universe)

    def test_reaching_pi_at_step_two_keeps_its_layer(self):
        # one output and one initial state, each state stepping to both: S_1
        # is a single pair and S_2 is already Pi, in one layer
        m = Fsm("12", "1", {"1": "a", "2": "a"},
                [("1", "1"), ("1", "2"), ("2", "1"), ("2", "2")])
        s = assert_s_matches_reference(m)
        assert s.fixed_point == m.pi
        assert s.convergence_step == 2
        for k in range(1, 4):
            assert s.at(k) == enum_relation(m, "S", k)

    def test_layers_closed_under_transposition(self):
        # 100 states, 3 labels, 10 initial: S and S~ level by level against
        # the plain recursion, each layer holding each pair's transpose and
        # no pair twice
        rng = random.Random(24)
        states = ["s%03d" % i for i in range(100)]
        label = {s: rng.choice("abc") for s in states}
        trans = {(s, t) for s in states for t in rng.sample(states, rng.randint(1, 3))}
        m = Fsm(states, rng.sample(states, 10), label, trans, rng.sample(states, 5))
        n = len(states)
        for machine in (m, build_restricted(m)):
            s = assert_s_matches_reference(machine)
            assert s.convergence_step > 5
            for layer in s.layers:
                assert len(set(layer)) == len(layer)
                assert {p % n * n + p // n for p in layer} == set(layer)


class TestF:
    def test_m1(self, m1):
        f = f_series(m1)
        assert set(f.fixed_point.pairs()) == sym([("3", "5")]) | theta(m1.states)
        assert f.convergence_step == 2

    def test_m2(self, m2):
        f = f_series(m2)
        assert set(f.fixed_point.pairs()) == (
            sym([("2", "4"), ("3", "5")]) | theta(m2.states))
        assert f.convergence_step == 3

    def test_monotone_and_contains_diagonal(self, m2):
        f = f_series(m2)
        prev = None
        for rel in f:
            assert PairRelation.diagonal(m2.universe).issubset(rel)
            if prev is not None:
                assert rel.issubset(prev)
            prev = rel

    def test_distinct_outputs(self):
        m = Fsm("ab", "a", {"a": "x", "b": "y"}, [("a", "b"), ("b", "a")])
        assert f_series(m).fixed_point == PairRelation.diagonal(m.universe)

    def test_requires_liveness(self):
        m = Fsm("ab", "a", {"a": "x", "b": "x"}, [("a", "b")])
        with pytest.raises(PreconditionError, match="^state b has no successor; forward "
                           "indistinguishability needs liveness$"):
            f_series(m)

    def test_liveness_check_builds_no_successor_sets(self, m2):
        # the check reads the integer adjacency the engine walks next
        f_series(m2)
        assert "_succ" not in m2.__dict__


class TestB:
    def test_m1(self, m1):
        b = b_series(m1, s_series(m1).fixed_point)
        assert set(b.fixed_point.pairs()) == sym([("1", "3")]) | theta(m1.states)
        assert b.convergence_step == 2

    def test_diagonal_seed_on_strongly_connected(self, m1):
        d = PairRelation.diagonal(m1.universe)
        assert b_series(m1, d).fixed_point == d

    def test_can_empty_out(self):
        # a has no predecessor, so neither seed pair survives one step back
        m = Fsm("ab", "a", {"a": "x", "b": "x"}, [("a", "b"), ("b", "b")])
        seed = PairRelation.from_pairs(m.universe, [("a", "b"), ("b", "a")])
        series = b_series(m, seed)
        assert series.emptied_at == 2
        assert not series.fixed_point

    def test_seed_must_be_label_equal(self, m1):
        bad = PairRelation.from_pairs(m1.universe, [("1", "2"), ("2", "1")])
        with pytest.raises(UsageError):
            b_series(m1, bad)

    def test_seed_must_be_symmetric(self, m1):
        bad = PairRelation.from_pairs(m1.universe, [("1", "3")])
        with pytest.raises(UsageError):
            b_series(m1, bad)

    def test_seed_universe_mismatch(self, m1):
        with pytest.raises(UsageError):
            b_series(m1, PairRelation.diagonal(Universe(("x", "y"))))


class TestLambdaGamma:
    def test_m1(self, m1):
        s_star = s_series(m1).fixed_point
        lam = lambda_series(m1, s_star)
        gam = gamma_series(m1, s_star)
        assert set(lam.fixed_point.pairs()) == sym([("3", "5")])
        assert lam.convergence_step == 2
        assert set(gam.fixed_point.pairs()) == sym([("1", "3")])
        assert gam.convergence_step == 2

    def test_m2(self, m2):
        s_star = s_series(m2).fixed_point
        assert set(lambda_series(m2, s_star).fixed_point.pairs()) == sym([("3", "5")])
        assert set(gamma_series(m2, s_star).fixed_point.pairs()) == sym([("2", "4")])

    def test_empty_critical_set(self, m1):
        m = m1.replace(critical=frozenset())
        s_star = s_series(m).fixed_point
        lam = lambda_series(m, s_star)
        gam = gamma_series(m, s_star)
        for k in range(1, 5):
            assert not lam.at(k)
            assert not gam.at(k)

    def test_first_step_equal_and_symmetric(self, m1, m2):
        for m in (m1, m2):
            s_star = s_series(m).fixed_point
            lam1 = lambda_series(m, s_star).at(1)
            gam1 = gamma_series(m, s_star).at(1)
            assert lam1 == gam1
            assert lam1.is_symmetric()

    def test_containments(self, m1, m2, m2_single):
        for m in (m1, m2, m2_single):
            s_star = s_series(m).fixed_point
            f = f_series(m)
            b = b_series(m, s_star)
            lam = lambda_series(m, s_star)
            gam = gamma_series(m, s_star)
            for k in range(1, 6):
                assert lam.at(k + 1).issubset(lam.at(k))
                assert lam.at(k).issubset(f.at(k) & s_star)
                assert gam.at(k + 1).issubset(gam.at(k))
                assert gam.at(k).issubset(b.at(k))
            assert lam.fixed_point.issubset(f.fixed_point & s_star)
            assert gam.fixed_point.issubset(b.fixed_point)
            assert b.fixed_point.issubset(s_star)


def ring_machine(labels, steps):
    """Two states per label, state i labelled labels[i // 2]; state i steps
    to i + d (mod the state count) for each d in steps[i % 2].  Every state
    is initial and state 0 is critical."""
    states = ["s%02d" % i for i in range(2 * len(labels))]
    n = len(states)
    label = {s: labels[i // 2] for i, s in enumerate(states)}
    trans = [(s, states[(i + d) % n]) for i, s in enumerate(states) for d in steps[i % 2]]
    return Fsm(states, states, label, trans, states[:1])


class TestEnginePath:
    """Lambda and Gamma ask the shrink engine for the mixed pairs only,
    and F and B, called without ``within``, for all of their seed; the
    engine searches the cone of the pairs asked for when the pair graph is
    subcritical.  The checks that read F, B and B~ on mixed pairs only ask
    for those pairs, and eventual and sets for the whole series."""

    @staticmethod
    def paths(monkeypatch, m):
        """Which support counter each series ran: "cone" or "product"."""
        used = []
        for name in ("_cone_counts", "_support_counts"):
            monkeypatch.setattr(fixpoint, name, lambda *args, f=getattr(fixpoint, name), name=name:
                                used.append(name) or f(*args))
        s_star = s_series(m).fixed_point
        runs = {"lambda": lambda: lambda_series(m, s_star),
                "gamma": lambda: gamma_series(m, s_star),
                "f": lambda: f_series(m), "b": lambda: b_series(m, s_star)}
        out = {}
        for key, run in runs.items():
            used.clear()
            run()
            out[key] = {"_cone_counts": "cone", "_support_counts": "product"}[used.pop()]
            assert not used
        return out

    def test_eight_labels_below_one_take_the_cone(self, monkeypatch):
        # each label has 2 states, each state one successor: sum c^2 = 8 * 4,
        # and the 16 transitions join 16 distinct label pairs once each
        m = ring_machine("abcdefgh", [(2,), (5,)])
        assert m.pair_branching == 16 / 32
        assert self.paths(monkeypatch, m) == {"lambda": "cone", "gamma": "cone",
                                              "f": "product", "b": "product"}

    def test_three_labels_from_one_take_the_product(self, monkeypatch):
        # the two states of each label make 3 transitions to the next label
        # and 1 to the one after: 3^2 + 1^2 per label over 3 * 2^2
        m = ring_machine("abc", [(2, 3), (2, 3)])
        assert m.pair_branching == 30 / 12
        assert self.paths(monkeypatch, m) == {"lambda": "product", "gamma": "product",
                                              "f": "product", "b": "product"}

    @staticmethod
    def builds(monkeypatch, m, run):
        """``run()``'s builds of F, B and B~ on machine ``m``, in order, each
        with the support counter it ran: ("f", "cone") for F on the cone."""
        out, building = [], []
        for name, path in (("_cone_counts", "cone"), ("_support_counts", "product")):
            monkeypatch.setattr(fixpoint, name, lambda *args, f=getattr(fixpoint, name), path=path:
                                building and out.append((building[-1], path)) or f(*args))
        for name in ("f_series", "b_series"):
            def build(mb, *args, f=getattr(checker, name), name=name):
                building.append(name[0] if mb is m else name[0] + "_tilde")
                try:
                    return f(mb, *args)
                finally:
                    building.pop()
            monkeypatch.setattr(checker, name, build)
        run()
        return out

    @pytest.mark.parametrize("prop, expected", [
        ("parametric", [("b_tilde", "cone"), ("f", "cone")]),
        ("diag", [("f", "cone")]),
        ("eventual-obs", [("b", "cone")]),
        ("exact-step", [("b", "cone"), ("f", "cone")]),
        ("initial-obs", [("f", "cone")]),
        ("eventual", [("b", "product"), ("f", "product")]),
    ])
    def test_checks_of_mixed_pairs_take_the_cone(self, monkeypatch, prop, expected):
        # eventual pins its parameters to steps of the whole of B and F
        m = ring_machine("abcdefgh", [(2,), (5,)])
        assert self.builds(monkeypatch, m, lambda: check(m, prop)) == expected

    def test_sets_takes_the_whole_series(self, monkeypatch, capsys):
        m = ring_machine("abcdefgh", [(2,), (5,)])
        monkeypatch.setattr(cli, "load_fsm", lambda path: m)
        assert self.builds(monkeypatch, m, lambda: cli.main(["sets", "ring.fsm"])) == [
            ("f", "product"), ("b", "product")]
        assert "F (converges at" in capsys.readouterr().out

    def test_critical_builds_f_once_when_diag_holds(self, monkeypatch):
        # eventual builds the whole of F, and diag's scan reads it there
        # rather than building F again on the cone of the mixed pairs
        m = ring_machine("abcdefgh", [(2,), (5,)])
        a = Analysis(m)
        assert self.builds(monkeypatch, m, lambda: check(m, "critical", a)) == [
            ("b", "product"), ("f", "product")]
        assert check(m, "diag", a).holds and check(m, "critical", a).holds

    def test_one_analysis_builds_each_view_once(self, monkeypatch):
        m = ring_machine("abcdefgh", [(2,), (5,)])
        a = Analysis(m)
        props = ("exact-step", "initial-obs", "eventual-obs", "parametric", "diag")
        assert self.builds(monkeypatch, m, lambda: [check(m, p, a) for p in props]) == [
            ("b", "cone"), ("f", "cone"), ("b_tilde", "cone")]

    def test_a_view_that_covers_its_seed_is_the_whole_series(self, monkeypatch):
        # on the product path the view of exact-step is all of F and B, and
        # eventual reads it again
        m = ring_machine("abc", [(2, 3), (2, 3)])
        a = Analysis(m)
        props = ("exact-step", "eventual")
        assert self.builds(monkeypatch, m, lambda: [check(m, p, a) for p in props]) == [
            ("b", "product"), ("f", "product")]
        assert a.on_mixed("f") is a.f and a.on_mixed("b") is a.b


def test_views_agree_with_the_whole_series_on_their_pairs(m1, m2, fork):
    # F and B asked for the mixed pairs are exact there, on either path
    for m in (m1, m2, fork, ring_machine("abcdefgh", [(2,), (5,)])):
        mixed = m.mixed
        s_star = s_series(m).fixed_point
        for view, whole in ((f_series(m, mixed), f_series(m)),
                            (b_series(m, s_star, mixed), b_series(m, s_star))):
            assert view.first.issubset(whole.first)
            assert view.first & mixed == whole.first & mixed
            assert view.fixed_point & mixed == whole.fixed_point & mixed
            assert view.removal_steps(mixed & view.first) == whole.removal_steps(mixed & whole.first)


def test_within_over_another_universe_is_refused(m1, fork):
    # m1 takes the cone path (pair branching 6/7) and fork the product (2)
    foreign = PairRelation(Universe(["x"]))
    assert m1.pair_branching < 1 <= fork.pair_branching
    for m in (m1, fork):
        s_star = s_series(m).fixed_point
        with pytest.raises(UsageError, match="different state universes"):
            f_series(m, within=foreign)
        with pytest.raises(UsageError, match="different state universes"):
            b_series(m, s_star, within=foreign)


def test_convergence_bound(m1, m2, m2_single, fork):
    for m in (m1, m2, m2_single, fork):
        n2 = len(m.states) ** 2
        s_star = s_series(m).fixed_point
        for series in (s_series(m), f_series(m), b_series(m, s_star),
                       lambda_series(m, s_star), gamma_series(m, s_star)):
            assert series.convergence_step < n2


class CountingFsm(Fsm):
    """Counts every successor and predecessor lookup."""

    lookups = 0

    def succ(self, i):
        self.lookups += 1
        return super().succ(i)

    def pre(self, i):
        self.lookups += 1
        return super().pre(i)


def test_neighbour_lookups_per_state():
    # the series walk the machine's integer adjacency, built once from a
    # single lookup per state and direction, instead of asking for the
    # neighbours of both members of every pair on every round
    rng = random.Random(3)
    states = ["s%02d" % i for i in range(60)]
    label = {s: rng.choice("abc") for s in states}
    trans = [(s, t) for s in states for t in rng.sample(states, 2)]
    m = CountingFsm(states, states[:20], label, trans, states[:6])
    s_star = s_series(m).fixed_point
    for run in (lambda: f_series(m), lambda: lambda_series(m, s_star),
                lambda: b_series(m, s_star), lambda: gamma_series(m, s_star)):
        m.lookups = 0
        run()
        assert m.lookups <= 3 * len(states)
