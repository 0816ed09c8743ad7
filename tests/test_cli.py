import json
import os
import subprocess
import sys
import time

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from fsmdiag import FixpointSeries, load_fsm, max_silent_length, parse_fsm
from fsmdiag.cli import main
from fsmdiag.fixpoint import ProjectedSeries
from conftest import FIXTURES, fixture_path


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


FIXTURE_FILES = sorted(os.path.join(FIXTURES, f)
                       for f in os.listdir(FIXTURES) if f.endswith(".fsm"))
M1 = fixture_path("m1.fsm")
M2 = fixture_path("m2.fsm")
FORK = fixture_path("fork.fsm")
SILENT = fixture_path("silent.fsm")


class TestValidate:
    def test_ok(self, capsys):
        code, out, _ = run(capsys, "validate", M1)
        assert code == 0
        assert "ok" in out

    def test_silent_machine_fails_analysis(self, capsys):
        code, out, _ = run(capsys, "validate", SILENT)
        assert code == 1
        assert "epsilon-output" in out

    def test_silent_machine_passes_desilent(self, capsys):
        code, out, _ = run(capsys, "validate", SILENT, "--mode", "desilent")
        assert code == 0

    def test_json(self, capsys):
        code, out, _ = run(capsys, "validate", M1, "--json")
        assert json.loads(out)["ok"] is True

    def test_silent_cycle_states_independent_of_hash_seed(self, tmp_path):
        # state 4 lies only on the cycle 4 -> 3 -> 1 -> 2 -> 4, which a
        # depth-first search can close before it ever enters 4
        path = tmp_path / "cycle.fsm"
        path.write_text("fsm v1\nstate v output=a init\n"
                        + "".join("state %d output=_\n" % i for i in range(1, 5))
                        + "trans v 1\ntrans 1 2\ntrans 2 3\ntrans 3 1\n"
                          "trans 2 4\ntrans 4 3\ntrans 3 v\n")
        argv = [sys.executable, "-m", "fsmdiag.cli", "validate", str(path),
                "--mode", "desilent", "--json"]
        for seed in range(8):
            env = dict(os.environ, PYTHONHASHSEED=str(seed),
                       PYTHONPATH=os.pathsep.join(sys.path))
            done = subprocess.run(argv, env=env, capture_output=True, text=True)
            assert done.returncode == 1, done.stderr
            flagged = [v["subject"] for v in json.loads(done.stdout)["violations"]
                       if v["code"] == "silent-cycle"]
            assert flagged == ["1", "2", "3", "4"], seed


class TestCheck:
    def test_eventual_holds(self, capsys):
        code, out, _ = run(capsys, "check", M1, "--property", "eventual")
        assert code == 0
        assert "tau=1 delta=1 gamma1=0 gamma2=0" in out

    def test_diag_fails_with_witness(self, capsys):
        code, out, _ = run(capsys, "check", M1, "--property", "diag")
        assert code == 1
        assert "witness: (3, 5)" in out

    def test_json_payload(self, capsys):
        code, out, _ = run(capsys, "check", M1, "--property", "eventual", "--json")
        payload = json.loads(out)
        assert payload["holds"] is True
        assert payload["params"]["tau"] == 1
        assert payload["bfgl"] == [2, 2, 1, 1]

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "check", "no-such-file.fsm",
                           "--property", "diag")
        assert code == 2
        assert "error" in err

    def test_initial_override(self, capsys):
        # all-initial fails critically, restricted to state 1 it holds
        code, _, _ = run(capsys, "check", M2, "--property", "critical")
        assert code == 1
        code, _, _ = run(capsys, "check", M2, "--property", "critical",
                         "--initial", "1")
        assert code == 0

    def test_critical_override(self, capsys):
        code, _, _ = run(capsys, "check", M1, "--property", "diag",
                         "--critical", "")
        assert code == 0


class TestSets:
    def test_single_set(self, capsys):
        code, out, _ = run(capsys, "sets", M1, "--set", "Lambda")
        assert code == 0
        assert "Lambda (converges at 2): (3,5) (5,3)" in out

    def test_all_sets_json(self, capsys):
        code, out, _ = run(capsys, "sets", M1, "--json")
        payload = json.loads(out)
        assert set(payload) == {"Pi", "S", "Stilde", "F", "B", "Lambda", "Gamma"}
        assert payload["F"]["convergence_step"] == 2

    def test_steps(self, capsys):
        code, out, _ = run(capsys, "sets", M1, "--set", "F", "--steps")
        assert "step 1:" in out and "step 2:" in out

    def test_steps_read_each_series_once(self, capsys, monkeypatch):
        reads, calls = [], []
        # ProjectedSeries inherits __iter__ but binds its own name for at
        monkeypatch.setattr(FixpointSeries, "__iter__", lambda self, it=FixpointSeries.__iter__:
                            reads.append(self) or it(self))
        for cls in (FixpointSeries, ProjectedSeries):
            monkeypatch.setattr(cls, "at", lambda self, k, at=cls.at:
                                calls.append(k) or at(self, k))
        code, out, _ = run(capsys, "sets", M1, "--steps", "--json")
        assert code == 0
        payload = json.loads(out)
        # S, Stilde, F, B, Lambda and Gamma, each read once from its own layers
        assert len(reads) == 6 and len({id(s) for s in reads}) == 6
        assert sum(isinstance(s, ProjectedSeries) for s in reads) == 2
        assert calls == []
        for name in ("S", "Stilde", "F", "B", "Lambda", "Gamma"):
            assert len(payload[name]["steps"]) == payload[name]["convergence_step"]


def silent_chain(tmp_path, length):
    """v0 -> e0 -> ... -> e<length - 1> -> v1 -> v0, every e silent."""
    lines = ["fsm v1", "state v0 output=a init", "state v1 output=b"]
    lines += ["state e%d output=_" % i for i in range(length)]
    chain = ["v0"] + ["e%d" % i for i in range(length)] + ["v1", "v0"]
    lines += ["trans %s %s" % pair for pair in zip(chain, chain[1:])]
    path = tmp_path / ("chain%d.fsm" % length)
    path.write_text("\n".join(lines) + "\n")
    return str(path)


class TestDesilent:
    def test_deep_silent_chain(self, capsys, tmp_path):
        # far deeper than the interpreter's recursion limit, whichever state
        # a search starts from
        deep = silent_chain(tmp_path, 20000)
        code, out, _ = run(capsys, "validate", deep, "--mode", "desilent")
        assert code == 0
        assert max_silent_length(load_fsm(deep)) == 20000
        code, out, _ = run(capsys, "desilent", deep, "-o", str(tmp_path / "out.fsm"))
        assert code == 0
        assert parse_fsm((tmp_path / "out.fsm").read_text()).states == ("e19999~v0", "v1")

    def test_long_dead_chain(self, capsys, tmp_path):
        # a non-silent chain that ends in a sink, entered through a silent
        # state: every chain state is dropped, one sink after another
        length = 20000
        lines = ["fsm v1", "state v0 output=a init", "state e output=_"]
        lines += ["state d%d output=b" % i for i in range(length)]
        chain = ["v0", "e"] + ["d%d" % i for i in range(length)]
        lines += ["trans v0 v0"] + ["trans %s %s" % pair for pair in zip(chain, chain[1:])]
        path = tmp_path / "dead.fsm"
        path.write_text("\n".join(lines) + "\n")
        start = time.perf_counter()
        code, out, _ = run(capsys, "desilent", str(path), "-o", str(tmp_path / "out.fsm"))
        assert time.perf_counter() - start < 2
        assert code == 0
        assert parse_fsm((tmp_path / "out.fsm").read_text()).states == ("v0",)

    def test_writes_output(self, capsys, tmp_path):
        out_file = tmp_path / "out.fsm"
        prov_file = tmp_path / "prov.json"
        code, out, _ = run(capsys, "desilent", SILENT,
                           "-o", str(out_file), "--provenance", str(prov_file))
        assert code == 0
        mh = load_fsm(out_file)
        assert not mh.silent_states
        prov = json.loads(prov_file.read_text())
        assert prov["3~1+"] == {"q": "3", "w": "1", "crossed": True}


class TestObserve:
    def test_trace_event(self, capsys):
        code, out, _ = run(capsys, "observe", M1, "--property", "eventual",
                           "--trace", "c b a b")
        assert code == 0
        assert "EVENT step=4 window=[3,3] exact=true" in out

    def test_no_events(self, capsys):
        code, out, _ = run(capsys, "observe", M1, "--property", "eventual",
                           "--trace", "c a b")
        assert code == 0
        assert "no events" in out

    def test_failing_property_refused(self, capsys):
        code, _, err = run(capsys, "observe", M1, "--property", "diag",
                           "--trace", "c")
        assert code == 1

    def test_inconsistent_stream(self, capsys):
        code, _, err = run(capsys, "observe", M1, "--property", "eventual",
                           "--trace", "c c")
        assert code == 1
        assert "error" in err

    def test_stdin(self, capsys, monkeypatch):
        import io
        monkeypatch.setattr("sys.stdin", io.StringIO("c\nb\na\nb\n"))
        code, out, _ = run(capsys, "observe", M1, "--property", "eventual")
        assert code == 0
        assert "EVENT step=4" in out

    def test_json(self, capsys):
        code, out, _ = run(capsys, "observe", M1, "--property", "eventual",
                           "--trace", "c b a b", "--json")
        payload = json.loads(out)
        assert payload["events"] == [{"step": 4, "window": [3, 3], "exact": True}]


class TestOracle:
    def test_consistent_at_checker_params(self, capsys):
        code, out, _ = run(capsys, "oracle", M1, "--property", "eventual",
                           "--horizon", "12")
        assert code == 0
        assert "consistent-up-to-horizon" in out

    def test_violated_with_explicit_params(self, capsys):
        code, out, _ = run(capsys, "oracle", M1, "--property", "eventual",
                           "--horizon", "12", "--params", "0,5,0,0")
        assert code == 1
        assert "violated" in out
        assert "execution:" in out and "partner:" in out

    @pytest.mark.parametrize("params, budget", [
        ("1,2", None), ("a,b,c,d", None), ("1,2,3,4,5", None), (None, "abc"),
    ], ids=["too-few", "not-integers", "too-many", "bad-budget"])
    def test_bad_params(self, capsys, monkeypatch, params, budget):
        if budget is not None:
            monkeypatch.setenv("FSMDIAG_BUDGET", budget)
        argv = ["oracle", M1, "--property", "eventual", "--horizon", "5"]
        code, _, err = run(capsys, *argv + (["--params", params] if params else []))
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_long_counterexample(self, capsys, tmp_path):
        # two 1100-state chains of equal outputs, only the a-chain critical at
        # its end: the partner is the whole b-chain, longer than the
        # interpreter's recursion limit
        n = 1100
        lines = ["fsm v1"]
        for c in "ab":
            lines += ["state %s%d output=a%s%s" % (c, i, " init" * (i == 0),
                                                   " critical" * (c == "a" and i == n - 1))
                      for i in range(n)]
            lines += ["trans %s%d %s%d" % (c, i, c, min(i + 1, n - 1)) for i in range(n)]
        path = tmp_path / "chains.fsm"
        path.write_text("\n".join(lines) + "\n")
        code, out, _ = run(capsys, "oracle", str(path), "--property", "diag",
                           "--horizon", "1200", "--params", "0,0,0,0", "--json")
        assert code == 1
        payload = json.loads(out)
        assert payload["status"] == "violated"
        ce = payload["counterexample"]
        assert ce["crossing_step"] == n
        assert ce["execution"] == ["a%d" % i for i in range(n)]
        assert ce["partner"] == ["b%d" % i for i in range(n)]

    def test_partner_search_skips_dead_ends(self, capsys, tmp_path):
        # from a0, 2^(n-1) paths through a lattice of two states per step all
        # end in the critical w; the partner is the chain z0..z(n-1), tried
        # after them, and each lattice state is searched once
        n = 24
        lines = ["fsm v1", "state a0 output=a init", "state z0 output=a init",
                 "state w output=a critical", "trans w w"]
        prev = ["a0"]
        for i in range(1, n):
            cur = ["u%d" % i, "v%d" % i]
            lines += ["state %s output=a" % s for s in cur]
            lines += ["trans %s %s" % (p, c) for p in prev for c in cur]
            prev = cur
        lines += ["trans %s w" % p for p in prev]
        lines += ["state z%d output=a" % i for i in range(1, n + 1)]
        lines += ["trans z%d z%d" % (i, min(i + 1, n)) for i in range(n + 1)]
        path = tmp_path / "lattice.fsm"
        path.write_text("\n".join(lines) + "\n")
        t0 = time.monotonic()
        code, out, _ = run(capsys, "oracle", str(path), "--property", "diag",
                           "--horizon", str(n + 5), "--params", "0,0,0,0", "--json")
        assert time.monotonic() - t0 < 5
        assert code == 1
        ce = json.loads(out)["counterexample"]
        assert ce["crossing_step"] == n + 1
        assert ce["partner"] == ["z%d" % i for i in range(n + 1)]

    def test_failing_property_needs_params(self, capsys):
        code, _, err = run(capsys, "oracle", FORK, "--property", "parametric",
                           "--horizon", "10")
        assert code == 1
        assert "--params" in err


def test_round_trip_via_serializer(tmp_path):
    m = load_fsm(M2)
    from fsmdiag import fsm_to_text
    p = tmp_path / "copy.fsm"
    p.write_text(fsm_to_text(m))
    assert load_fsm(p) == m


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "fsmdiag" in capsys.readouterr().out


def test_parse_error_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.fsm"
    bad.write_text("not a machine\n")
    code = main(["check", str(bad), "--property", "diag"])
    assert code == 2


@pytest.mark.parametrize("content", [
    b"fsm v1\nstate 1 output=a\xff init\ntrans 1 1\n",
    b"fsm v1\nstate 1 output=a output=b init\ntrans 1 1\n",
], ids=["not-utf8", "repeated-output"])
def test_malformed_file_exit_code(capsys, tmp_path, content):
    bad = tmp_path / "bad.fsm"
    bad.write_bytes(content)
    for argv in (["validate", str(bad)], ["check", str(bad), "--property", "diag"]):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1


@st.composite
def corrupted_fixtures(draw):
    """A fixture file with a few bytes flipped, inserted or deleted."""
    with open(draw(st.sampled_from(FIXTURE_FILES)), "rb") as fh:
        data = bytearray(fh.read())
    for _ in range(draw(st.integers(1, 4))):
        op = draw(st.sampled_from(("flip", "insert", "delete")))
        i = draw(st.integers(0, len(data) - (op != "insert")))
        if op == "flip":
            data[i] ^= 1 << draw(st.integers(0, 7))
        elif op == "insert":
            data.insert(i, draw(st.integers(0, 255)))
        else:
            del data[i]
    return bytes(data)


@given(corrupted_fixtures())
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_corrupted_files_exit_cleanly(capsys, tmp_path, data):
    path = tmp_path / "corrupt.fsm"
    path.write_bytes(data)
    for argv in (["validate", str(path)], ["check", str(path), "--property", "diag"]):
        code, _, _ = run(capsys, *argv)
        assert code in (0, 1, 2)
