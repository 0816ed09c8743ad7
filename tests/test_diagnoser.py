import pytest

from fsmdiag import (
    Estimator, Fsm, InconsistentObservationError, UsageError, check,
    crossing_index, enumerate_executions, observe,
)


@pytest.fixture
def m1_verdict(m1):
    return check(m1, "eventual")


class TestSetup:
    def test_lag_and_threshold(self, m1, m1_verdict):
        est = Estimator(m1, m1_verdict)
        assert est.lag == 1
        assert est.threshold == 3

    def test_degenerate_lag(self):
        from fsmdiag import Fsm
        m = Fsm("ab", "ab", {"a": "x", "b": "y"},
                [("a", "b"), ("b", "a")], {"b"})
        est = Estimator(m, check(m, "eventual"))
        assert est.lag == 0  # plain current-state filter

    def test_rejects_failing_verdict(self, m1):
        with pytest.raises(UsageError):
            Estimator(m1, check(m1, "diag"))

    def test_rejects_unobservable_property(self, m1):
        with pytest.raises(UsageError):
            Estimator(m1, check(m1, "exact-step"))


class TestStep:
    def test_detection_stream(self, m1, m1_verdict):
        # only the execution 6 2 3 4 produces this output string
        est, events = observe(m1, m1_verdict, ["c", "b", "a", "b"])
        assert len(events) == 1
        ev = events[0]
        assert ev.detected_at == 4
        assert ev.window == (3, 3)
        assert ev.exact

    def test_stream_avoiding_critical(self, m1, m1_verdict):
        # 6 -> 5 -> 4 -> 6 -> ... never enters state 3
        _, events = observe(m1, m1_verdict, ["c", "a", "b", "c", "a", "b"])
        assert events == []

    def test_unknown_symbol(self, m1, m1_verdict):
        est = Estimator(m1, m1_verdict)
        with pytest.raises(UsageError):
            est.step("z")

    def test_inconsistent_stream(self, m1, m1_verdict):
        est = Estimator(m1, m1_verdict)
        est.step("c")
        with pytest.raises(InconsistentObservationError):
            est.step("c")  # state 6 has no c-labelled successor

    def test_one_shot_for_first_crossing_properties(self, m2_single):
        v = check(m2_single, "diag")
        est = Estimator(m2_single, v)
        assert est.one_shot
        # a a a c c a a a c: two traversals of a critical branch
        events = []
        for y in "a a a c c a a a c".split():
            ev = est.step(y)
            if ev:
                events.append(ev)
        assert len(events) == 1  # repeated crossings are out of scope here

    def test_repeated_crossings_reported(self, m2_single):
        v = check(m2_single, "critical")
        est = Estimator(m2_single, v)
        events = []
        for y in "a a a c c a a a c".split():
            ev = est.step(y)
            if ev:
                events.append(ev)
        assert len(events) >= 2
        for ev in events:
            assert ev.window[1] - ev.window[0] <= v.params.gamma1 + v.params.gamma2


class TestCurrentEstimate:
    def test_m2_after_one_symbol(self, m2):
        est = Estimator(m2, check(m2, "eventual"))
        est.step("a")
        assert est.current_estimate() == {"1", "2", "3", "4", "5"}

    def test_m1_after_c(self, m1, m1_verdict):
        est = Estimator(m1, m1_verdict)
        est.step("c")
        assert est.current_estimate() == {"6"}

    def test_unique_execution_gives_singleton(self, m1, m1_verdict):
        est = Estimator(m1, m1_verdict)
        for y in ["c", "b", "a", "b"]:
            est.step(y)
        # estimate is at lag 1: step 3 of the unique execution 6 2 3 4
        assert est.current_estimate() == {"3"}

    def test_requires_observation(self, m1, m1_verdict):
        with pytest.raises(UsageError):
            Estimator(m1, m1_verdict).current_estimate()


def test_long_critical_stream_events():
    # the walk 2 3 2 3 ... never leaves the critical cycle; every other
    # step's exact window ends where the wide window one step earlier ends,
    # so the containment test must reach back exactly l - 1 steps
    m = Fsm("123", "123", {"1": "b", "2": "a", "3": "b"},
            [("1", "2"), ("2", "1"), ("2", "3"), ("3", "1"), ("3", "2")],
            {"2", "3"})
    verdict = check(m, "eventual")
    symbols = [m.label[s] for s in "23" * 10500]
    _, events = observe(m, verdict, symbols)

    est = Estimator(m, verdict)
    width = est.g + est.l  # every window spans fewer steps than this
    seen, expected = set(), []
    for y in symbols:
        est.step(y)
        now = est.current_estimate() if est.k >= est.threshold else set()
        if not now & m.critical:
            continue
        pin = est.k - est.lag
        if now <= m.critical:
            lo, hi = pin, pin
        else:
            lo, hi = max(1, pin - (est.g - 1)), pin + est.l - 1
        assert hi - lo < width
        # contained in any earlier event's window, however old
        if any((a, b) in seen for a in range(lo - width, lo + 1)
               for b in range(hi, hi + width)):
            continue
        seen.add((lo, hi))
        expected.append((est.k, (lo, hi)))
    assert len(expected) < est.k - est.threshold  # some windows were dropped
    assert [(e.detected_at, e.window) for e in events] == expected


def detection_sweep(m, verdict, max_len):
    """Exhaustively check soundness, window width, and detection guarantee."""
    tau, delta = verdict.params.tau, verdict.params.delta
    width = verdict.params.gamma1 + verdict.params.gamma2
    checked = 0
    for length in range(1, max_len + 1):
        for x in enumerate_executions(m, m.initial, length):
            ys = [m.label[s] for s in x]
            est = Estimator(m, verdict)
            events = []
            for k, y in enumerate(ys, 1):
                ev = est.step(y)
                if ev:
                    events.append(ev)
                lag = min(est.lag, k - 1)
                assert x[k - lag - 1] in est.current_estimate()
            for ev in events:
                assert ev.window[1] - ev.window[0] <= width
            kx = crossing_index(x, m.critical)
            if kx is not None and kx >= tau + 1 and kx + delta <= length:
                assert any(ev.detected_at <= kx + delta
                           and ev.window[0] <= kx <= ev.window[1]
                           for ev in events), (x, kx, events)
                checked += 1
    return checked


def test_guarantees_m1(m1, m1_verdict):
    assert detection_sweep(m1, m1_verdict, 10) > 0


def test_guarantees_m2_single(m2_single):
    assert detection_sweep(m2_single, check(m2_single, "critical"), 10) > 0
