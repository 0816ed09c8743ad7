import pytest

from fsmdiag import epsremoval
from fsmdiag import (
    Fsm, PreconditionError, UsageError, desilent, execution_image,
    is_execution, output_of, validate,
)
from fsmdiag.epsremoval import (max_silent_length, silent_reach_avoiding,
                                silent_reach_crossing)

N1 = "3~1+"  # silent run ending in 3, entered through 1, crossing the critical set
N2 = "3~2+"


def output_language(m, max_len):
    """All nonempty projected output strings of length <= max_len."""
    lam = max_silent_length(m)
    steps = max_len * (lam + 1) + lam
    seen = set()
    frontier = {(s, output_of_state(m, s)) for s in m.initial}
    for _ in range(steps):
        nxt = set()
        for s, y in frontier:
            if 0 < len(y) <= max_len:
                seen.add(y)
            if len(y) >= max_len:
                continue
            for t in m.succ(s):
                nxt.add((t, y + output_of_state(m, t)))
        frontier = nxt
    for s, y in frontier:
        if 0 < len(y) <= max_len:
            seen.add(y)
    return seen


def output_of_state(m, s):
    return () if m.is_silent(s) else (m.label[s],)


@pytest.fixture
def dead_branch():
    """Five states, two silent runs joining at c; the cross pairings
    (s1 entered via b, s2 entered via a) have no connecting silent path."""
    return Fsm("ab12c", "a",
               {"a": "x", "b": "y", "1": "_", "2": "_", "c": "z"},
               [("a", "1"), ("1", "c"), ("b", "2"), ("2", "c"),
                ("c", "a"), ("c", "b")])


class TestSilentContext:
    def test_max_silent_length(self, m1, silent_machine):
        assert max_silent_length(m1) == 0
        assert max_silent_length(silent_machine) == 1
        chain = Fsm("abcde", "a", {"a": "x", "e": "y",
                                   "b": "_", "c": "_", "d": "_"},
                    [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("e", "a")])
        assert max_silent_length(chain) == 3

    def test_silent_cycle_detected(self):
        m = Fsm("ab", "a", {"a": "x", "b": "_"}, [("a", "b"), ("b", "b")])
        with pytest.raises(PreconditionError):
            max_silent_length(m)


class TestReachability:
    def test_avoiding_rejects_critical_target(self, silent_machine):
        # 3 is critical, so the no-crossing gate does not even apply
        with pytest.raises(UsageError):
            silent_reach_avoiding(silent_machine, "3", "1")

    def test_avoiding_direct_successor(self, dead_branch):
        assert silent_reach_avoiding(dead_branch, "1", "a")

    def test_avoiding_unreachable(self, dead_branch):
        assert not silent_reach_avoiding(dead_branch, "1", "b")

    def test_crossing_critical_silent_state(self, silent_machine):
        assert silent_reach_crossing(silent_machine, "3", "1")
        assert silent_reach_crossing(silent_machine, "3", "2")

    def test_crossing_empty_critical(self, dead_branch):
        assert not silent_reach_crossing(dead_branch, "1", "a")

    def test_crossing_no_path(self, dead_branch):
        m = dead_branch.replace(critical=frozenset("1"))
        assert not silent_reach_crossing(m, "1", "b")

    def test_precondition_errors(self, silent_machine):
        with pytest.raises(UsageError):
            silent_reach_crossing(silent_machine, "1", "2")  # q not silent
        with pytest.raises(UsageError):
            silent_reach_crossing(silent_machine, "3", "3")  # w silent


class TestDesilent:
    def test_no_silent_states_identity(self, m1):
        result = desilent(m1)
        assert result.m_hat == m1
        assert result.m_hat.critical == m1.critical
        assert result.provenance == {}

    def test_silent_machine_structure(self, silent_machine):
        result = desilent(silent_machine)
        mh = result.m_hat
        assert set(mh.states) == {"0", "4", "5", N1, N2}
        assert mh.initial == {"0", "4"}
        assert mh.critical == {N1, N2}
        assert mh.label == {"0": "a", "4": "a", "5": "c", N1: "a", N2: "b"}
        assert set(mh.trans) == {("0", N1), ("4", N2), ("4", "5"), ("5", "5"),
                                 (N1, "4"), (N1, "5"), (N2, "4"), (N2, "5")}

    def test_provenance(self, silent_machine):
        result = desilent(silent_machine)
        assert result.provenance == {N1: ("3", "1", True), N2: ("3", "2", True)}

    def test_no_silent_or_sink_states_remain(self, silent_machine, dead_branch):
        for m in (silent_machine, dead_branch):
            mh = desilent(m).m_hat
            assert not mh.silent_states
            assert all(mh.succ(s) for s in mh.states)

    def test_dead_pairing_absent(self, dead_branch):
        result = desilent(dead_branch)
        names = set(result.m_hat.states)
        assert "1~a" in names and "2~b" in names
        assert "1~b" not in names and "2~a" not in names

    def test_language_equality(self, silent_machine, dead_branch):
        for m in (silent_machine, dead_branch):
            mh = desilent(m).m_hat
            assert output_language(m, 8) == output_language(mh, 8)

    def test_one_max_silent_length_call(self, silent_machine, dead_branch,
                                        monkeypatch):
        # validation already rejects silent cycles, so no run length is needed
        calls = []

        def counted(m):
            calls.append(m)
            return max_silent_length(m)

        monkeypatch.setattr(epsremoval, "max_silent_length", counted)
        for m in (silent_machine, dead_branch):
            calls.clear()
            desilent(m)
            assert not calls

    def test_validation_enforced(self):
        m = Fsm("ab", "a", {"a": "x", "b": "_"}, [("a", "b"), ("b", "b")])
        with pytest.raises(PreconditionError):
            desilent(m)

    def test_nothing_left_after_sink_pruning(self):
        # valid for removal, but no execution goes on forever
        m = Fsm("as", "a", {"a": "x", "s": "_"}, [("a", "s")])
        assert validate(m, "desilent").ok
        with pytest.raises(PreconditionError, match="leaves no state"):
            desilent(m)


@pytest.fixture
def mixed():
    """s is silent with a silent successor t and a non-silent one b; t is
    critical."""
    return Fsm("abst", "a", {"a": "x", "b": "y", "s": "_", "t": "_"},
               [("a", "s"), ("a", "b"), ("b", "a"),
                ("s", "t"), ("s", "b"), ("t", "b")], critical="t")


class TestMixedSilentState:
    def test_runs_end_at_the_mixed_state_and_after_it(self, mixed):
        result = desilent(mixed)
        mh = result.m_hat
        assert set(mh.states) == {"a", "b", "s~a", "t~a+"}
        assert mh.initial == {"a", "s~a", "t~a+"}
        assert mh.critical == {"t~a+"}
        assert mh.label == {"a": "x", "b": "y", "s~a": "x", "t~a+": "x"}
        assert set(mh.trans) == {("a", "b"), ("b", "a"), ("b", "s~a"), ("b", "t~a+"),
                                 ("s~a", "b"), ("t~a+", "b")}
        assert result.provenance == {"s~a": ("s", "a", False), "t~a+": ("t", "a", True)}

    def test_images(self, mixed):
        result = desilent(mixed)
        assert execution_image(result, mixed, "asb") == ("s~a", "b")
        assert execution_image(result, mixed, "astb") == ("t~a+", "b")
        # the run a, s, t has crossed, although it goes on to b
        assert execution_image(result, mixed, "ast") == ("t~a+",)


class TestExecutionImage:
    def test_images_preserve_outputs(self, silent_machine):
        result = desilent(silent_machine)
        for x in ["0", "1", "3", "5", "5"], ["0", "1", "3", "4", "2", "3", "5"], \
                 ["0", "1", "3", "4", "5", "5"], ["4", "2", "3", "4", "2", "3", "5"], \
                 ["4", "2", "3", "5", "5"], ["4", "5", "5"]:
            img = execution_image(result, silent_machine, x)
            assert is_execution(result.m_hat, img)
            assert output_of(result.m_hat, img) == output_of(silent_machine, x)

    def test_crossing_maps_to_new_critical(self, silent_machine):
        result = desilent(silent_machine)
        img = execution_image(result, silent_machine, ["0", "1", "3", "5"])
        assert img == ("0", N1, "5")
        assert N1 in result.m_hat.critical

    def test_trailing_silent_states_dropped(self):
        m = Fsm("abs", "a", {"a": "x", "b": "y", "s": "_"},
                [("a", "s"), ("s", "b"), ("b", "a"), ("a", "b")])
        result = desilent(m)
        assert execution_image(result, m, ["a", "s"]) == ("a",)
        assert execution_image(result, m, ["a", "s", "b"]) == ("s~a", "b")

    def test_sequence_that_is_not_an_execution(self):
        # every state exists, but b has no transition to b
        m = Fsm("abs", "a", {"a": "x", "b": "y", "s": "_"},
                [("a", "s"), ("s", "b"), ("b", "a"), ("a", "b")])
        assert not is_execution(m, ["b", "b", "a"])
        with pytest.raises(UsageError):
            execution_image(desilent(m), m, ["b", "b", "a"])

    def test_unfinished_runs(self):
        # 4 has only a silent successor, so it does not survive the rewrite
        m = Fsm("134", "4", {"4": "a", "3": "_", "1": "b"},
                [("4", "3"), ("3", "1"), ("1", "1")], "3")
        result = desilent(m)
        assert set(result.m_hat.states) == {"1", "3~4+"}
        assert execution_image(result, m, "431") == ("3~4+", "1")
        assert execution_image(result, m, "43") == ("3~4+",)
        assert execution_image(result, m, "4") == ("3~4+",)

    def test_unfinished_run_maps_to_the_least_flagged_continuation(self):
        # the block a, s touched the critical state a; its run goes on to
        # p or to q, and a itself does not survive
        m = Fsm("abpqs", "a", {"a": "x", "b": "y", "p": "_", "q": "_", "s": "_"},
                [("a", "s"), ("s", "p"), ("s", "q"), ("p", "b"), ("q", "b"), ("b", "a")],
                "a")
        result = desilent(m)
        assert set(result.m_hat.states) == {"b", "p~a+", "q~a+"}
        assert execution_image(result, m, "a") == ("p~a+",)
        assert execution_image(result, m, "as") == ("p~a+",)
        assert execution_image(result, m, "asq") == ("q~a+",)
        assert execution_image(result, m, "asqb") == ("q~a+", "b")

    def test_block_without_surviving_image(self):
        # a's run ends in d, which has no successor, so only e survives
        m = Fsm("asde", "ae", {"a": "x", "s": "_", "d": "y", "e": "x"},
                [("a", "s"), ("s", "d"), ("e", "e")])
        result = desilent(m)
        assert result.m_hat.states == ("e",)
        with pytest.raises(UsageError, match="^a s has no surviving image$"):
            execution_image(result, m, ["a", "s", "d"])

    def test_errors(self, silent_machine):
        result = desilent(silent_machine)
        with pytest.raises(UsageError):
            execution_image(result, silent_machine, ["3", "4"])  # silent start
        with pytest.raises(UsageError):
            execution_image(result, silent_machine, [])
