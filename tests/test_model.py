import re

import pytest

from fsmdiag import (
    EPSILON, BudgetExceededError, Fsm, ParseError, PreconditionError, UsageError,
    build_restricted, crossing_index, enumerate_executions, fsm_to_text,
    is_execution, load_fsm, output_of, parse_fsm, validate,
)
from conftest import fixture_path


# keyword arguments the constructor refuses, with its message
REJECTED = [
    (dict(states=[], initial=[], label={}, trans=[]),
     "a machine needs at least one state"),
    (dict(states=["a b"], initial=[], label={"a b": "x"}, trans=[]),
     "state 'a b' and output label 'x' must be tokens"),
    (dict(states=["a#"], initial=[], label={"a#": "x"}, trans=[]),
     "state 'a#' and output label 'x' must be tokens"),
    (dict(states=["a"], initial=[], label={"a": ""}, trans=[]),
     "state 'a' and output label '' must be tokens"),
    (dict(states=["a"], initial=[], label={"a": "x y"}, trans=[]),
     "state 'a' and output label 'x y' must be tokens"),
    (dict(states=["a"], initial=[], label={"a": "x#"}, trans=[]),
     "state 'a' and output label 'x#' must be tokens"),
    (dict(states=["a"], initial=[], label={"a": 1}, trans=[]),
     "state 'a' and output label 1 must be tokens"),
    (dict(states=["a"], initial=[], label={"a": "x", "b": "y"}, trans=[]),
     "states without output label or labels without state: ['b']"),
    (dict(states=["a"], initial=["z"], label={"a": "x"}, trans=[]),
     "initial states ['z'] not declared"),
    (dict(states=["a"], initial=[], label={}, trans=[]),
     "states without output label or labels without state: ['a']"),
    (dict(states=["a"], initial=[], label={"a": "x"}, trans=[("a", "z")]),
     "transition (a, z) uses undeclared states"),
    (dict(states=["a"], initial=[], label={"a": "x"}, trans=[], critical=["z"]),
     "critical states ['z'] not declared"),
]


# texts the parser refuses, with its message
PARSE_ERRORS = {
    "": "missing 'fsm v1' header",
    "state a output=x\n": "missing 'fsm v1' header",
    "fsm  v1\nstate a output=x\n": "missing 'fsm v1' header",
    "# only\n\n   # comments\n": "missing 'fsm v1' header",
    "fsm v1\n": "a machine needs at least one state",
    "fsm v1\nstate a\n": "line 2: state needs an id and output=",
    "fsm v1\nstate a#c output=x init\n": "line 2: state needs an id and output=",
    "fsm v1\nstate a output= init\n": "line 2: state 'a' has no output=",
    "fsm v1\nstate a output=x\nstate a output=y\n": "line 3: duplicate state 'a'",
    "fsm v1\r\n\r\nstate a output=x\r\nstate a output=y\r\n":
        "line 4: duplicate state 'a'",
    "fsm v1\nstate a output=x frobnicate\n": "line 2: unknown attribute 'frobnicate'",
    "fsm v1\nstate a output=x\ntrans a b\n": "line 3: trans references undeclared state",
    "fsm v1\ntrans a a\nstate a output=x\n":
        "line 2: trans references undeclared state",
    "fsm v1\ntrans a\n": "line 2: trans needs exactly two states",
    "fsm v1\nfrobnicate a\n": "line 2: unknown directive 'frobnicate'",
    "fsm v1\nstate a output=x output=y\n": "line 2: state 'a' repeats output=",
}


class TestFsm:
    def test_states_sorted_and_deduplicated(self):
        m = Fsm(["b", "a", "a"], ["a"], {"a": "x", "b": "x"}, [("a", "b")])
        assert m.states == ("a", "b")

    def test_succ_pre(self, m1):
        assert m1.succ("6") == {"2", "5"}
        assert m1.pre("4") == {"3", "5"}
        with pytest.raises(UsageError):
            m1.succ("99")

    def test_outputs_exclude_silent(self, silent_machine):
        assert silent_machine.outputs == {"a", "b", "c"}
        assert silent_machine.silent_states == {"3"}
        assert silent_machine.is_silent("3")
        assert not silent_machine.is_silent("0")

    def test_replace(self, m2):
        m = m2.replace(initial=frozenset("1"))
        assert m.initial == {"1"}
        assert m.trans == m2.trans
        with pytest.raises(UsageError):
            m2.replace(bogus=1)

    def test_mixed(self):
        m = Fsm("abc", "a", {s: "x" for s in "abc"}, [], critical="a")
        assert set(m.mixed.pairs()) == {("a", "b"), ("a", "c"), ("b", "a"), ("c", "a")}
        assert m.mixed is m.mixed
        # with no critical state, or every state critical, no pair is mixed
        assert not m.replace(critical=frozenset()).mixed
        assert not m.replace(critical=frozenset("abc")).mixed

    def test_equality_and_hash(self, m1):
        assert m1 == make_copy(m1)
        assert hash(m1) == hash(make_copy(m1))
        assert m1 != m1.replace(critical=frozenset())

    @pytest.mark.parametrize("kwargs, message", REJECTED,
                             ids=["kwargs%d" % i for i in range(len(REJECTED))])
    def test_constructor_rejects(self, kwargs, message):
        with pytest.raises(UsageError, match=re.escape(message)):
            Fsm(**kwargs)



def make_copy(m):
    return Fsm(m.states, m.initial, m.label, m.trans, m.critical)


class TestTextFormat:
    def test_round_trip(self, m1, m2, fork, silent_machine):
        for m in (m1, m2, fork, silent_machine):
            assert parse_fsm(fsm_to_text(m)) == m

    def test_load_fixture_files(self, m1, m2, fork, silent_machine):
        assert load_fsm(fixture_path("m1.fsm")) == m1
        assert load_fsm(fixture_path("m2.fsm")) == m2
        assert load_fsm(fixture_path("fork.fsm")) == fork
        assert load_fsm(fixture_path("silent.fsm")) == silent_machine

    def test_comments_and_blank_lines(self):
        m = parse_fsm("# hi\nfsm v1\n\nstate a output=x init  # trailing\n"
                      "trans a a\n")
        assert m.states == ("a",)
        assert m.initial == {"a"}
        # a '#' glued to a token starts a comment all the same
        m = parse_fsm("fsm v1\nstate a output=x#c init\ntrans a a\n")
        assert m.label == {"a": "x"}
        assert m.initial == set()

    @pytest.mark.parametrize("text", list(PARSE_ERRORS))
    def test_parse_errors(self, text):
        with pytest.raises(ParseError) as exc:
            parse_fsm(text)
        assert str(exc.value) == PARSE_ERRORS[text]

    def test_load_skips_a_byte_order_mark(self, tmp_path, m1):
        path = tmp_path / "bom.fsm"
        path.write_bytes(b"\xef\xbb\xbf" + fsm_to_text(m1).encode())
        assert load_fsm(path) == m1
        # the offset of a bad byte still counts the mark's three bytes
        path.write_bytes(b"\xef\xbb\xbffsm v1\n\xff\n")
        with pytest.raises(ParseError) as exc:
            load_fsm(path)
        assert str(exc.value) == "%s is not UTF-8 text (byte 10)" % path

    def test_silent_output_round_trips(self, silent_machine):
        text = fsm_to_text(silent_machine)
        assert "state 3 output=_ critical" in text
        assert parse_fsm(text).label["3"] == EPSILON


class TestValidate:
    def test_analysis_ok(self, m1, m2, fork):
        for m in (m1, m2, fork):
            assert validate(m, "analysis").ok

    def test_analysis_liveness(self):
        m = Fsm("ab", "a", {"a": "x", "b": "x"}, [("a", "b")])
        report = validate(m, "analysis")
        assert not report.ok
        assert "liveness" in report.codes()

    def test_analysis_rejects_silent_and_empty_initial(self, silent_machine):
        report = validate(silent_machine, "analysis")
        assert "epsilon-output" in report.codes()
        m = silent_machine.replace(initial=frozenset())
        assert "empty-initial" in validate(m, "analysis").codes()

    def test_desilent_ok(self, silent_machine):
        report = validate(silent_machine, "desilent")
        assert report.ok

    def test_desilent_silent_cycle(self):
        m = Fsm("abc", "a", {"a": "x", "b": "_", "c": "_"},
                [("a", "b"), ("b", "c"), ("c", "b")])
        report = validate(m, "desilent")
        assert not report.ok
        assert "silent-cycle" in report.codes()

    def test_desilent_silent_initial(self):
        m = Fsm("ab", "b", {"a": "x", "b": "_"}, [("b", "a"), ("a", "a")])
        assert "silent-initial" in validate(m, "desilent").codes()

    def test_initial_predecessor_mismatch_is_warning_only(self, silent_machine):
        report = validate(silent_machine, "desilent")
        assert report.ok
        assert "initial-predecessor-mismatch" in report.codes()

    def test_unknown_mode(self, m1):
        with pytest.raises(UsageError):
            validate(m1, "nope")

    def test_require_names_every_error_and_no_warning(self, silent_machine):
        validate(silent_machine, "desilent").require()   # warnings only
        m = silent_machine.replace(initial=frozenset(), trans=silent_machine.trans
                                   - {("5", "5")})
        with pytest.raises(PreconditionError) as exc:
            validate(m, "analysis").require()
        assert str(exc.value) == (
            "machine fails analysis assumptions: state 5 has no successor; "
            "state 3 is labelled with the silent output; initial state set is empty")
        m = Fsm("abc", "ab", {"a": "x", "b": "_", "c": "_"},
                [("a", "b"), ("b", "c"), ("c", "b")])
        with pytest.raises(PreconditionError) as exc:
            validate(m, "desilent").require()
        assert str(exc.value) == (
            "machine fails silent-removal assumptions: silent state b lies on an "
            "all-silent cycle; silent state c lies on an all-silent cycle; "
            "initial state b is silent")


class TestExecutions:
    def test_is_execution(self, m1):
        assert is_execution(m1, ("6", "2", "3", "4"))
        assert not is_execution(m1, ("6", "3"))
        assert not is_execution(m1, ())
        assert not is_execution(m1, ("6", "99"))

    def test_output_of(self, m1, silent_machine):
        assert output_of(m1, ("6", "2", "3", "4")) == ("c", "b", "a", "b")
        # silent states drop out of the projection
        assert output_of(silent_machine, ("0", "1", "3", "4")) == ("a", "a", "a")
        with pytest.raises(UsageError):
            output_of(m1, ("6", "3"))

    def test_crossing_index(self, m1):
        assert crossing_index(("6", "2", "3", "4"), m1.critical) == 3
        assert crossing_index(("6", "2", "1"), m1.critical) is None
        assert crossing_index(("3", "4", "3"), m1.critical) == 1

    def test_enumerate_executions(self, m1):
        runs = enumerate_executions(m1, m1.initial, 3)
        assert all(is_execution(m1, x) and len(x) == 3 for x in runs)
        assert len(runs) == len(set(runs))
        # deterministic successor fan-out: 1 start, one step each
        assert enumerate_executions(m1, ["1"], 2) == [("1", "6")]
        with pytest.raises(UsageError):
            enumerate_executions(m1, m1.initial, 0)

    def test_enumerate_budget(self, m1):
        with pytest.raises(BudgetExceededError):
            enumerate_executions(m1, m1.initial, 10, budget=5)

    def test_budget_env_override(self, m1, monkeypatch):
        monkeypatch.setenv("FSMDIAG_BUDGET", "5")
        with pytest.raises(BudgetExceededError):
            enumerate_executions(m1, m1.initial, 10)


def test_build_restricted(m2):
    r = build_restricted(m2)
    assert all(a not in m2.critical for (a, b) in r.trans)
    assert r.states == m2.states
    # everything else untouched
    kept = {(a, b) for (a, b) in m2.trans if a not in m2.critical}
    assert r.trans == kept
