"""What the benchmark uses of fsmdiag must exist and work as it uses it.

The benchmark's tracer (``bench/run.py --trace 1``) wraps fsmdiag functions
and methods by name, and ``bench/run.py`` builds the online estimator from
the verdict ``check --json`` prints.  A rename or signature change inside the
package would otherwise show only as a failed or crashed benchmark run.
"""

import importlib.util
import os

import fsmdiag
import fsmdiag.cli
from conftest import fixture_path

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


def load_bench(name):
    spec = importlib.util.spec_from_file_location("bench_" + name,
                                                  os.path.join(BENCH, name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def targets(spans):
    for name, places in spans.TARGETS:
        for path, attr in places:
            yield name, spans._owner(fsmdiag, path), attr


def test_every_target_is_defined_on_its_owner():
    spans = load_bench("spans")
    for name, owner, attr in targets(spans):
        assert attr in owner.__dict__, (name, owner, attr)


def test_tracer_records_spans_and_restores_originals(capsys):
    spans = load_bench("spans")
    originals = [(owner, attr, owner.__dict__[attr]) for _, owner, attr in targets(spans)]
    tracer = spans.Tracer()
    tracer.install(fsmdiag)
    try:
        assert all(owner.__dict__[attr] is not original
                   for owner, attr, original in originals)
        assert fsmdiag.cli.main(["check", fixture_path("m1.fsm"),
                                 "--property", "eventual"]) == 0
    finally:
        tracer.uninstall()
    assert "eventual: holds" in capsys.readouterr().out
    recorded = {span[1] for span in tracer.take()}
    assert {"cli.main", "model.load", "checker.check", "model.validate",
            *spans.SERIES} <= recorded
    for owner, attr, original in originals:
        assert owner.__dict__[attr] is original, (owner, attr)


def test_estimator_built_as_the_benchmark_builds_it(capsys):
    # bench/run.py's observe rebuilds DiagParams, DiagVerdict and Estimator
    # from the JSON verdict and steps the estimator through a stream
    run = load_bench("run")
    path = fixture_path("m1.fsm")
    assert fsmdiag.cli.main(["check", path, "--property", "eventual", "--json"]) == 0
    verdict_json = capsys.readouterr().out
    m = fsmdiag.load_fsm(path)
    walk = "1 6 2 3 4 6 5 4 6 2 3 4 6 2 1 6".split()
    assert fsmdiag.is_execution(m, walk)
    symbols = [m.label[s] for s in walk]
    p = run.Pass()
    run.observe(fsmdiag, p, "m1", path, symbols, verdict_json)
    assert p.errors == [] and p.failed == 0
    assert p.symbols == p.attempted == len(symbols)
    assert p.outputs["m1"], "the crossings into state 3 are detected"
