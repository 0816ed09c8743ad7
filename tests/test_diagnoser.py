import gc
import weakref
from dataclasses import replace

import pytest

from fsmdiag import (
    Estimator, Fsm, InconsistentObservationError, UsageError, check,
    crossing_index, diagnoser, enumerate_executions, observe,
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

    @pytest.mark.parametrize("bfgl", [None, (1, 2), (1, 2, "x", 4), (1, 1, 0, 0)])
    def test_rejects_holding_verdict_without_four_indices(self, m1, m1_verdict, bfgl):
        with pytest.raises(UsageError, match="four indices"):
            Estimator(m1, replace(m1_verdict, bfgl=bfgl))


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

    def test_unknown_first_symbol(self, m1, m1_verdict):
        # the rejected symbol leaves the session as fresh as it was
        symbols = "c b a b".split() * 3
        est = Estimator(m1, m1_verdict)
        with pytest.raises(UsageError, match="symbol 'z' is not an output"):
            est.step("z")
        assert est.k == 0
        events = [ev for ev in map(est.step, symbols) if ev is not None]
        assert events == observe(m1, m1_verdict, symbols)[1]

    def test_first_symbol_of_no_initial_state(self, m2_single):
        # only state 1, labelled a, is initial: no execution starts with c
        est = Estimator(m2_single, check(m2_single, "diag"))
        with pytest.raises(InconsistentObservationError):
            est.step("c")
        assert est.k == 0
        est.step("a")
        assert est.k == 1
        assert est.current_estimate() == {"1"}

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


def test_memo_cap_keeps_events(m1, m1_verdict, monkeypatch):
    # b a b c is the walk 2 3 4 6 repeated, which enters state 3 each
    # period; evicting from the memo caches at every new entry changes no event
    symbols = "b a b c".split() * 2500

    def run(cap):
        monkeypatch.setattr(diagnoser, "MEMO_CAP", cap)
        est = Estimator(m1, m1_verdict)
        events = []
        for y in symbols:
            ev = est.step(y)
            if ev:
                events.append(ev)
            assert max(c.cache_info().currsize for c in
                       (est._advance, est._narrow, est._interned)) <= cap
        return events

    events = run(diagnoser.MEMO_CAP)
    assert len(events) == 2500
    assert run(1) == events


def test_one_forward_probe_per_symbol(m1, m1_verdict):
    # every symbol, the first included, is one lookup in the forward memo,
    # hit or miss; the other two memos stay bounded meanwhile
    est = Estimator(m1, m1_verdict)
    for y in "b a b c".split() * 2500:
        est.step(y)
    info = est._advance.cache_info()
    assert info.hits + info.misses == est.k
    for memo in (est._narrow, est._interned):
        assert memo.cache_info().currsize <= diagnoser.MEMO_CAP


def test_rejected_symbol_on_a_warm_memo(m1, m1_verdict):
    # the unknown-symbol check runs on the forward memo's miss path, and a
    # cache stores no exception: a rejected symbol is rejected every time and
    # leaves the session as it would be without it
    symbols = "b a b c".split() * 25
    _, expected = observe(m1, m1_verdict, symbols * 2)
    est = Estimator(m1, m1_verdict)
    events = [est.step(y) for y in symbols]
    k, now = est.k, est.current_estimate()
    for _ in range(2):
        with pytest.raises(UsageError, match="symbol 'z' is not an output"):
            est.step("z")
        assert est.k == k
        assert est.current_estimate() == now
    events += [est.step(y) for y in symbols]
    assert [ev for ev in events if ev is not None] == expected


def test_finished_session_is_freed_without_the_cycle_collector(m1, m1_verdict):
    # the memo caches must not refer back to the session: a cycle would keep
    # every finished session alive until the cycle collector runs
    est = Estimator(m1, m1_verdict)
    for y in "b a b c".split() * 3:
        est.step(y)
    session = weakref.ref(est)
    gc.disable()
    try:
        del est
        assert session() is None
    finally:
        gc.enable()


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
