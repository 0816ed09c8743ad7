"""The names bench/spans.py patches must exist where it looks for them.

The benchmark's tracer (``bench/run.py --trace 1``) wraps fsmdiag functions
and methods by name.  A rename inside the package would otherwise show only
as a crash of a traced benchmark run.
"""

import importlib.util
import os

import fsmdiag
import fsmdiag.cli
from conftest import fixture_path

SPANS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "bench", "spans.py")


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def targets(spans):
    for name, places in spans.TARGETS:
        for path, attr in places:
            yield name, spans._owner(fsmdiag, path), attr


def test_every_target_is_defined_on_its_owner():
    spans = load_spans()
    for name, owner, attr in targets(spans):
        assert attr in owner.__dict__, (name, owner, attr)


def test_tracer_records_spans_and_restores_originals(capsys):
    spans = load_spans()
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
