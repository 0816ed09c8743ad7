import functools
import io
import json
import os
import subprocess
import sys
import time

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, example, given, settings

from fsmdiag import (FixpointSeries, PairRelation, Universe, checker, cli, load_fsm,
                     parse_fsm)
from fsmdiag.cli import main
from fsmdiag.epsremoval import max_silent_length
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

    @pytest.mark.parametrize("name, built", [("Pi", []), ("S", ["s_series"]),
                                             ("B", ["s_series", "b_series"])])
    def test_single_set_builds_only_its_series(self, capsys, monkeypatch, name, built):
        calls = []
        for fn in ("s_series", "f_series", "b_series", "lambda_series", "gamma_series"):
            monkeypatch.setattr(checker, fn, lambda *args, fn=fn, real=getattr(checker, fn):
                                calls.append(fn) or real(*args))
        code, out, _ = run(capsys, "sets", M1, "--set", name)
        assert code == 0 and out.startswith(name)
        assert calls == built

    def test_all_sets_json(self, capsys):
        code, out, _ = run(capsys, "sets", M1, "--json")
        payload = json.loads(out)
        assert set(payload) == {"Pi", "S", "Stilde", "F", "B", "Lambda", "Gamma"}
        assert payload["F"]["convergence_step"] == 2

    @pytest.mark.parametrize("steps", [[], ["--steps"]])
    def test_json_is_written_as_rendered(self, monkeypatch, steps):
        # no single write holds the report, nor even Pi's pairs alone
        writes = []

        class Recorder(io.StringIO):
            def write(self, text):
                writes.append(len(text))
                return super().write(text)

        out = Recorder()
        monkeypatch.setattr(sys, "stdout", out)
        assert main(["sets", M2, "--json", *steps]) == 0
        pi = json.loads(out.getvalue())["Pi"]["fixed_point"]
        assert max(writes) < len(json.dumps(pi, indent=2))

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

    @pytest.mark.parametrize("before", [None, "kept\n"])
    def test_unopenable_destination_writes_nothing(self, capsys, tmp_path, monkeypatch, before):
        monkeypatch.chdir(tmp_path)
        if before is not None:
            (tmp_path / "out.fsm").write_text(before)
        code, out, err = run(capsys, "desilent", SILENT,
                             "-o", "out.fsm", "--provenance", "nodir/p.json")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        if before is None:
            assert not (tmp_path / "out.fsm").exists()
        else:
            assert (tmp_path / "out.fsm").read_text() == before

    def test_output_to_a_device(self, capsys):
        code, out, _ = run(capsys, "desilent", SILENT, "-o", os.devnull, "--json")
        assert code == 0
        assert json.loads(out)["output"] == os.devnull

    @pytest.mark.parametrize("prov, before", [
        ("out.fsm", None), ("out.fsm", "kept\n"), ("sub/../out.fsm", "kept\n"),
        ("symlink", None), ("hard-link", "kept\n"),
    ])
    def test_one_destination_twice(self, capsys, tmp_path, monkeypatch, prov, before):
        monkeypatch.chdir(tmp_path)
        os.mkdir("sub")
        if before is not None:
            (tmp_path / "out.fsm").write_text(before)
        if prov == "symlink":
            os.symlink("out.fsm", prov)
        elif prov == "hard-link":
            os.link("out.fsm", prov)
        code, out, err = run(capsys, "desilent", SILENT, "-o", "out.fsm", "--provenance", prov)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        if before is None:
            assert not (tmp_path / "out.fsm").exists()
        else:
            assert (tmp_path / "out.fsm").read_text() == before

    def test_fresh_name_taken_by_a_state(self, capsys, tmp_path):
        # the run a, s folds into s~a, a name the machine already uses
        path = tmp_path / "clash.fsm"
        path.write_text("fsm v1\nstate a output=x init\nstate s output=_\n"
                        "state b output=y\nstate s~a output=z\n"
                        "trans a s\ntrans s b\ntrans b a\ntrans s~a s~a\ntrans b s~a\n")
        out_file, prov_file = tmp_path / "out.fsm", tmp_path / "prov.json"
        code, out, _ = run(capsys, "desilent", str(path), "--json",
                           "-o", str(out_file), "--provenance", str(prov_file))
        assert code == 0
        mh = load_fsm(out_file)
        assert mh.states == ("b", "s~a", "s~a'")
        assert mh.initial == {"s~a'"}
        assert json.loads(prov_file.read_text()) == {
            "s~a'": {"q": "s", "w": "a", "crossed": False}}

    def test_nothing_left_is_a_precondition_failure(self, capsys, tmp_path):
        path = tmp_path / "dies.fsm"
        path.write_text("fsm v1\nstate a output=x init\nstate s output=_\ntrans a s\n")
        code, out, _ = run(capsys, "validate", str(path), "--mode", "desilent")
        assert code == 0 and "ok" in out
        code, out, err = run(capsys, "desilent", str(path), "-o", str(tmp_path / "out.fsm"))
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "leaves no state" in err
        assert not (tmp_path / "out.fsm").exists()


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

    @pytest.mark.parametrize("trace", ["c b z", "z c"], ids=["mid-stream", "first"])
    @pytest.mark.parametrize("fmt", [[], ["--json"]], ids=["text", "json"])
    def test_unknown_symbol(self, capsys, trace, fmt):
        code, out, err = run(capsys, "observe", M1, "--property", "eventual",
                             "--trace", trace, *fmt)
        assert code == 2
        assert err == "error: symbol 'z' is not an output of the machine\n"
        assert out == ""

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

    def test_refuses_machine_outside_analysis_assumptions(self, capsys):
        code, out, err = run(capsys, "oracle", SILENT, "--property", "eventual",
                             "--horizon", "6", "--params", "0,0,0,0")
        assert (code, out) == (1, "")
        assert err == ("error: machine fails analysis assumptions: "
                       "state 3 is labelled with the silent output\n")
        assert run(capsys, "check", SILENT, "--property", "eventual") == (1, "", err)

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


# a usage error, --version, then one call of each kind of verb; the sets
# call comes first so that its --set and --steps would show on later verbs
PARSER_SEQUENCE = [
    ["check", M1],
    ["--version"],
    ["sets", M1, "--set", "Pi"],
    ["check", M1, "--property", "eventual", "--json"],
    ["observe", M1, "--property", "eventual", "--trace", "c b a b"],
    ["validate", M1, "--json"],
]


def test_reused_parser_matches_a_fresh_one(capsys, monkeypatch):
    def outcome(argv):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = "SystemExit(%s)" % exc.code
        out, err = capsys.readouterr()
        return code, out, err

    fresh = []
    for argv in PARSER_SEQUENCE:
        cli._parser.cache_clear()
        fresh.append(outcome(argv))

    build, built, namespaces = cli.build_parser, [], []

    def build_recording():
        parser = build()
        parse = parser.parse_args

        def parse_recording(args=None, namespace=None):
            ns = parse(args, namespace)
            namespaces.append((args, set(vars(ns))))
            return ns

        parser.parse_args = parse_recording
        built.append(parser)
        return parser

    monkeypatch.setattr(cli, "build_parser", build_recording)
    cli._parser.cache_clear()
    try:
        reused = [outcome(argv) for argv in PARSER_SEQUENCE]
    finally:
        cli._parser.cache_clear()
    assert reused == fresh
    assert fresh[0][0] == "SystemExit(2)" and fresh[1][0] == "SystemExit(0)"
    assert len(built) == 1
    assert [args for args, _ in namespaces] == PARSER_SEQUENCE[2:]
    for args, names in namespaces:
        assert names == set(vars(build().parse_args(args))), args
    assert not {"set", "steps"} & namespaces[1][1]


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


@pytest.mark.parametrize("text, argv, budget, code, message", [
    (None, ["oracle", "--property", "eventual", "--horizon", "12"], "5", 3,
     "resource limit: oracle budget of 5 operations exceeded"),
    ("fsm v1\n", ["check", "--property", "diag"], None, 2,
     "error: a machine needs at least one state"),
    (None, ["oracle", "--property", "eventual", "--horizon", "0"], None, 2,
     "error: horizon length must be >= 1"),
], ids=["oracle-budget", "header-only", "zero-horizon"])
def test_exit_paths(capsys, monkeypatch, tmp_path, text, argv, budget, code, message):
    # the machine is m1 unless a file text is given
    path = M1
    if text is not None:
        path = tmp_path / "m.fsm"
        path.write_text(text)
    if budget is not None:
        monkeypatch.setenv("FSMDIAG_BUDGET", budget)
    verb, *rest = argv
    assert run(capsys, verb, str(path), *rest) == (code, "", message + "\n")


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
    for argv in (["validate", str(path)], ["check", str(path), "--property", "diag"],
                 ["validate", str(path), "--mode", "desilent"],
                 ["desilent", str(path), "-o", str(tmp_path / "out.fsm")]):
        code, _, _ = run(capsys, *argv)
        assert code in (0, 1, 2)


# ASCII letters, JSON escapes, control characters and non-ASCII text
json_text = st.text(st.sampled_from('ab"\\/\n\t\x00\x1f\x7f\u2028é€😀'), max_size=6)


@st.composite
def sets_payloads(draw):
    """Payloads of the shape ``sets`` prints, over one drawn universe of
    state names: relations as any bit integer, empty, one pair or full.
    ``sets`` never prints an empty payload, but the JSON renderer lays it
    out as ``{}``, so empty ones are drawn too."""
    universe = Universe(draw(st.lists(json_text, unique=True, max_size=5)))
    full = (1 << universe.n ** 2) - 1
    bits = (st.integers(0, full) | st.sampled_from((0, full))
            | st.integers(0, full.bit_length()).map(lambda i: 1 << i & full))
    relations = bits.map(functools.partial(PairRelation, universe))
    return draw(st.dictionaries(json_text, st.fixed_dictionaries(
        {"convergence_step": st.none() | st.integers(), "fixed_point": relations},
        optional={"steps": st.lists(relations)})))


AB = Universe(("a", "b"))
#: an empty fixed point, whose text line ends in ": ", after a full step,
#: a one-pair step and an empty one
EMPTIED = {"E": {"convergence_step": 3, "fixed_point": PairRelation(AB),
                 "steps": [PairRelation.full(AB), PairRelation(AB, 0b0010), PairRelation(AB)]}}


@given(sets_payloads())
@example(EMPTIED)
@settings(max_examples=200, deadline=None)
def test_sets_json_matches_json_dumps(payload):
    decoded = {}
    for name, entry in payload.items():
        decoded[name] = dict(entry, fixed_point=entry["fixed_point"].pairs())
        if "steps" in entry:
            decoded[name]["steps"] = [rel.pairs() for rel in entry["steps"]]
    assert "".join(cli._sets_json(payload)) == json.dumps(decoded, indent=2, sort_keys=True) + "\n"


@given(sets_payloads())
@example(EMPTIED)
@settings(max_examples=200, deadline=None)
def test_sets_lines_match_pair_by_pair(payload):
    def text(rel):
        return " ".join("(%s,%s)" % p for p in rel.pairs())

    expected = []
    for name, entry in payload.items():
        conv = entry["convergence_step"]
        head = name if conv is None else "%s (converges at %d)" % (name, conv)
        expected.append("%s: %s" % (head, text(entry["fixed_point"])))
        expected += ["  step %d: %s" % (k, text(rel))
                     for k, rel in enumerate(entry.get("steps", ()), 1)]
    assert list(cli._sets_lines(payload)) == [line + "\n" for line in expected]
