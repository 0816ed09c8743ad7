"""End-to-end acceptance checks.

Each test covers one acceptance criterion, enforces its runtime budget, and
prints a single CRITERION line on success.
"""

import random
import time

from fsmdiag import (
    Analysis, DiagParams, Estimator, FixpointSeries, Fsm, Horizon, check,
    check_definition, crossing_index, desilent, enum_relation,
    enumerate_executions, execution_image, is_execution, output_of, s_series,
    validate,
)
from fsmdiag.fixpoint import ProjectedSeries
from conftest import (
    make_m1, make_m2, make_silent, random_live_fsm, sym, theta,
)


class Stopwatch:
    def __init__(self, limit):
        self.limit = limit
        self.t0 = time.monotonic()

    def check(self):
        elapsed = time.monotonic() - self.t0
        assert elapsed < self.limit, "over budget: %.1fs >= %ds" % (elapsed, self.limit)


def corpus(seed=99, count=100):
    rng = random.Random(seed)
    machines = []
    while len(machines) < count:
        m = random_live_fsm(rng)
        if validate(m, "analysis").ok:
            machines.append(m)
    return machines


def test_criterion_1_first_golden_machine():
    watch = Stopwatch(1)
    m = make_m1()
    th = theta(m.states)
    a = Analysis(m)
    assert set(a.pi.pairs()) == sym([("1", "3"), ("1", "5"), ("3", "5"),
                                     ("2", "4")]) | th
    assert a.s.fixed_point == a.pi
    assert set(a.b.fixed_point.pairs()) == sym([("1", "3")]) | th
    assert set(a.f.fixed_point.pairs()) == sym([("3", "5")]) | th
    assert set(a.gam.fixed_point.pairs()) == sym([("1", "3")])
    assert set(a.lam.fixed_point.pairs()) == sym([("3", "5")])
    assert a.b.convergence_step == 2
    assert a.f.convergence_step == 2
    assert a.gam.convergence_step == 2
    assert a.lam.convergence_step == 2
    v = check(m, "eventual", a)
    assert v.holds
    assert (v.params.tau, v.params.delta, v.params.gamma1, v.params.gamma2) \
        == (1, 1, 0, 0)
    assert not check(m, "diag", a).holds
    watch.check()
    print("CRITERION 1: PASS")


def test_criterion_2_second_golden_machine():
    watch = Stopwatch(1)
    m = make_m2()
    v = check(m, "eventual")
    assert v.holds
    assert (v.params.tau, v.params.delta, v.params.gamma1, v.params.gamma2) \
        == (2, 2, 1, 1)
    assert not check(m, "diag").holds
    assert not check(m, "critical").holds

    single = m.replace(initial=frozenset("1"))
    assert check(single, "critical").holds
    frontier = check(single, "eventual").frontier
    assert not any(b == 1 and g == 1 for (b, f, g, l) in frontier)
    # compared modulo diagonal pairs and symmetric closure
    st = set(Analysis(single).s_tilde.fixed_point.pairs()) - theta(m.states)
    assert st == sym([("2", "4")])
    watch.check()
    print("CRITERION 2: PASS")


def test_criterion_3_relation_enumeration_agreement():
    watch = Stopwatch(60)
    for m in corpus():
        a = Analysis(m)
        n2 = len(m.states) ** 2
        s_star = a.s.fixed_point
        series = {"S": (a.s, None), "F": (a.f, None), "B": (a.b, s_star),
                  "Lambda": (a.lam, s_star), "Gamma": (a.gam, s_star)}
        for which, (ser, sigma) in series.items():
            assert ser.convergence_step < n2
            for k in range(1, 9):
                assert enum_relation(m, which, k, sigma) == ser.at(k), (m, which, k)
    watch.check()
    print("CRITERION 3: PASS")


def test_criterion_4_checker_oracle_agreement():
    watch = Stopwatch(120)
    machines = corpus() + [make_m1(), make_m2(),
                           make_m2().replace(initial=frozenset("1"))]
    for m in machines:
        n2 = len(m.states) ** 2
        for prop in ("parametric", "diag", "eventual", "critical"):
            v = check(m, prop)
            if v.holds:
                h = Horizon(v.params.tau + v.params.delta + n2)
                out = check_definition(m, prop, v.params, h)
                assert not out.violated, (m, prop, v.params)
            else:
                horizon_t = 0 if prop in ("parametric", "diag") else None
                out = check_definition(m, prop, DiagParams(0, 0, horizon_t, 0, 0),
                                       Horizon(2 * n2))
                assert out.violated, (m, prop)
                assert out.counterexample is not None
    watch.check()
    print("CRITERION 4: PASS")


def test_criterion_5_silent_state_removal():
    watch = Stopwatch(5)
    m = make_silent()
    result = desilent(m)
    mh = result.m_hat

    rows = [["0", "1", "3", "5", "5"],
            ["0", "1", "3", "4", "2", "3", "5"],
            ["0", "1", "3", "4", "5", "5"],
            ["4", "2", "3", "4", "2", "3", "5"],
            ["4", "2", "3", "5", "5"],
            ["4", "5", "5"]]
    for x in rows:
        img = execution_image(result, m, x)
        assert is_execution(mh, img)
        assert output_of(mh, img) == output_of(m, x)

    from test_epsremoval import output_language
    assert output_language(m, 8) == output_language(mh, 8)

    v = check(mh, "eventual")
    assert v.holds
    # one transient step and one delay step suffice, per bounded enumeration
    out = check_definition(mh, "eventual", DiagParams(1, 1, None, 0, 0),
                           Horizon(len(mh.states) ** 2 + 2))
    assert out.status == "consistent-up-to-horizon"
    tau_hat, delta_hat = 1, 1
    assert tau_hat <= 2 and delta_hat <= 1
    watch.check()
    print("CRITERION 5: PASS")


def test_criterion_6_diagnoser_guarantee():
    watch = Stopwatch(30)
    m = make_m1()
    v = check(m, "eventual")
    tau, delta = v.params.tau, v.params.delta
    width = v.params.gamma1 + v.params.gamma2
    detections = 0
    for length in range(1, 13):
        for x in enumerate_executions(m, m.initial, length):
            est = Estimator(m, v)
            events = []
            for k, s in enumerate(x, 1):
                ev = est.step(m.label[s])
                if ev:
                    events.append(ev)
                lag = min(est.lag, k - 1)
                assert x[k - lag - 1] in est.current_estimate()  # soundness
            for ev in events:
                assert ev.window[1] - ev.window[0] <= width
            kx = crossing_index(x, m.critical)
            if kx is not None and kx >= tau + 1 and kx + delta <= length:
                assert any(ev.detected_at <= kx + delta
                           and ev.window[0] <= kx <= ev.window[1]
                           for ev in events), (x, kx, events)
                detections += 1
    assert detections > 0
    watch.check()
    print("CRITERION 6: PASS")


def test_criterion_7_complexity_smoke():
    rng = random.Random(7)
    n = 200
    states = [str(i) for i in range(n)]
    label = {s: rng.choice("abc") for s in states}
    trans = []
    for s in states:
        for t in rng.sample(states, rng.randint(1, 3)):
            trans.append((s, t))
    m = Fsm(states, states, label, trans)
    watch = Stopwatch(10)
    series = s_series(m)
    watch.check()
    # relation storage is one bit per state pair plus one layer entry per
    # changed pair, and no pair changes twice
    assert series.fixed_point.bits.bit_length() <= n * n
    assert sum(map(len, series.layers)) <= n * n
    changed = [p for layer in series.layers for p in layer]
    assert len(set(changed)) == len(changed)
    print("CRITERION 7: PASS")


def test_criterion_7_scale_smoke(monkeypatch):
    # the four frontier-scanning checks on one 800-state analysis read each
    # series by iteration; step lookups at O(|X|^2) each made this n^4
    rng = random.Random(7)
    n = 800
    states = [str(i) for i in range(n)]
    label = {s: rng.choice("abcdefgh") for s in states}
    trans = []
    for s in states:
        for t in rng.sample(states, rng.randint(1, 3)):
            trans.append((s, t))
    m = Fsm(states, states, label, trans, rng.sample(states, n // 20))
    calls = []
    for cls in (FixpointSeries, ProjectedSeries):
        monkeypatch.setattr(cls, "at", lambda self, k, at=cls.at:
                            calls.append(k) or at(self, k))
    watch = Stopwatch(30)
    a = Analysis(m)
    holds = [check(m, p, a).holds for p in ("eventual", "diag", "parametric", "critical")]
    watch.check()
    assert holds == [True, False, True, False]
    assert calls == []
    print("CRITERION 7 (n = 800): PASS")
