"""Command-line front end.

Exit codes: 0 success / property holds, 1 property fails or validation
violations, 2 usage or parse error, 3 resource (budget) exhaustion.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from itertools import compress
from json.encoder import encode_basestring_ascii

from . import __version__
from .checker import Analysis, DiagParams, PropertyKind, check
from .diagnoser import Estimator
from .epsremoval import desilent
from .errors import BudgetExceededError, FsmDiagError, ParseError, UsageError
from .model import fsm_to_text, load_fsm, validate
from .oracle import Horizon, check_definition

def _state_list(text):
    return [t for t in text.replace(",", " ").split() if t]


def _load(args):
    m = load_fsm(args.file)
    overrides = {}
    if args.initial is not None:
        overrides["initial"] = frozenset(_state_list(args.initial))
    if args.critical is not None:
        overrides["critical"] = frozenset(_state_list(args.critical))
    return m.replace(**overrides) if overrides else m


def _sets_json(payload):
    """The text of ``json.dumps(decoded, indent=2, sort_keys=True) + "\n"``
    for ``cmd_sets``' payload, in pieces, ``decoded`` being the payload with
    each relation replaced by its ``pairs()``.  The payload maps a relation
    name to ``convergence_step``, ``fixed_point`` (a ``PairRelation``) and,
    with --steps, ``steps`` (an iterable of them, read once).

    An indent sends ``json.dumps`` through its pure-Python encoder, one call
    per pair and per state.  Here each nonempty bit row of a relation
    (``PairRelation.rows``) is one piece, a join over tables built once per
    universe and indent depth, in which each state's JSON string is encoded
    once per universe.  A piece is yielded as it is rendered, so no relation
    and no report is held as one string.
    """
    encoded = functools.cache(lambda universe: [encode_basestring_ascii(s)
                                                for s in universe.states])

    @functools.cache
    def tables(universe, newline):
        inner, item = newline + "  ", newline + "    "
        prefix = ["[" + item + e + "," + item for e in encoded(universe)]
        return (prefix, ["," + inner + p for p in prefix],
                [e + inner + "]" for e in encoded(universe)])

    def relation(rel, newline):
        prefix, sep, suffix = tables(rel.universe, newline)
        inner = newline + "  "
        head = "[" + inner
        for i, row in rel.rows():
            yield head + prefix[i] + sep[i].join(compress(suffix, row))
            head = "," + inner
        yield newline + "]" if rel else "[]"

    for i, name in enumerate(sorted(payload)):
        entry = payload[name]
        yield ('%s%s: {\n    "convergence_step": %s,\n    "fixed_point": '
               % (",\n  " if i else "{\n  ", encode_basestring_ascii(name),
                  json.dumps(entry["convergence_step"])))
        yield from relation(entry["fixed_point"], "\n    ")
        if "steps" in entry:
            yield ',\n    "steps": ['
            k = -1
            for k, step in enumerate(entry["steps"]):
                yield ",\n      " if k else "\n      "
                yield from relation(step, "\n      ")
            yield "\n    ]" if k >= 0 else "]"
        yield "\n  }"
    yield "\n}\n" if payload else "{}\n"


def _emit(args, report, lines):
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)


def _params_json(p):
    return {"tau": p.tau, "delta": p.delta, "gamma1": p.gamma1,
            "gamma2": p.gamma2, "horizon": p.horizon}


def cmd_validate(args):
    m = _load(args)
    report = validate(m, args.mode)
    lines = ["%s %s: %s" % (v.severity, v.code, v.message) for v in report.entries]
    lines.append("ok" if report.ok else "invalid")
    _emit(args, {"ok": report.ok,
                 "violations": [{"code": v.code, "severity": v.severity,
                                 "subject": v.subject, "message": v.message}
                                for v in report.entries]}, lines)
    return 0 if report.ok else 1


#: the relations ``sets`` prints, each with the ``Analysis`` attribute holding it
_SETS = {"Pi": "pi", "S": "s", "Stilde": "s_tilde", "F": "f", "B": "b",
         "Lambda": "lam", "Gamma": "gam"}


def _sets_lines(payload):
    """The text form of ``cmd_sets``' payload, one line per relation and per
    step, each ending in a newline and rendered from the relation's bit rows
    (``PairRelation.rows``) when it is yielded."""
    @functools.cache
    def tables(universe):
        prefix = ["(" + a + "," for a in universe.states]
        return prefix, [" " + p for p in prefix], [b + ")" for b in universe.states]

    def text(rel):
        prefix, sep, suffix = tables(rel.universe)
        return " ".join(prefix[i] + sep[i].join(compress(suffix, row))
                        for i, row in rel.rows())

    for name, entry in payload.items():
        conv = entry["convergence_step"]
        head = name if conv is None else "%s (converges at %d)" % (name, conv)
        yield "%s: %s\n" % (head, text(entry["fixed_point"]))
        for k, step in enumerate(entry.get("steps", ()), 1):
            yield "  step %d: %s\n" % (k, text(step))


def cmd_sets(args):
    m = _load(args)
    a = Analysis(m)
    payload = {}
    for name in [args.set] if args.set else _SETS:
        if name == "Pi":
            entry = {"fixed_point": a.pi, "convergence_step": None}
        else:
            series = getattr(a, _SETS[name])
            entry = {"fixed_point": series.fixed_point,
                     "convergence_step": series.convergence_step}
            if args.steps:
                entry["steps"] = series
        payload[name] = entry
    sys.stdout.writelines(_sets_json(payload) if args.json else _sets_lines(payload))
    return 0


def cmd_check(args):
    m = _load(args)
    v = check(m, args.property)
    payload = {"property": args.property, "holds": v.holds}
    lines = ["%s: %s" % (args.property, "holds" if v.holds else "fails")]
    if v.holds:
        payload["params"] = _params_json(v.params)
        payload["bfgl"] = list(v.bfgl) if v.bfgl else None
        if v.frontier:
            payload["frontier"] = [list(t) for t in v.frontier]
        p = v.params
        lines.append("tau=%d delta=%d gamma1=%d gamma2=%d horizon=%s"
                     % (p.tau, p.delta, p.gamma1, p.gamma2,
                        "inf" if p.horizon is None else p.horizon))
    else:
        (i, j), why = v.witness
        payload["witness"] = {"pair": [i, j], "reason": why}
        lines.append("witness: (%s, %s) %s" % (i, j, why))
    _emit(args, payload, lines)
    return 0 if v.holds else 1


def _write_files(texts):
    """Write each path's text, opening every path before writing any.

    A path is opened for appending, which truncates nothing, and a regular
    file is emptied only once every path is open.  So a destination that
    cannot be opened leaves each file as it was, and the files this call
    created are removed again.
    """
    opened = []
    try:
        for path in texts:
            created = not os.path.exists(path)
            opened.append((path, open(path, "a", encoding="utf-8"), created))
    except OSError:
        for path, fh, created in opened:
            fh.close()
            if created:
                os.remove(path)
        raise
    for path, fh, _ in opened:
        with fh:
            if os.path.isfile(path):
                fh.truncate(0)
            fh.write(texts[path])


def _same_file(a, b):
    """Do two paths name one file: the same resolved path, or, when both
    exist, the same file reached another way (a hard link, say)?"""
    if os.path.realpath(a) == os.path.realpath(b):
        return True
    try:
        return os.path.samefile(a, b)
    except OSError:
        return False


def cmd_desilent(args):
    if args.provenance and _same_file(args.output, args.provenance):
        raise UsageError("--provenance must name a different file than -o")
    m = _load(args)
    result = desilent(m)
    texts = {args.output: fsm_to_text(result.m_hat)}
    if args.provenance:
        prov = {name: {"q": q, "w": w, "crossed": crossed}
                for name, (q, w, crossed) in result.provenance.items()}
        texts[args.provenance] = json.dumps(prov, indent=2, sort_keys=True)
    _write_files(texts)
    _emit(args, {"states": len(result.m_hat.states),
                 "critical": sorted(result.m_hat.critical),
                 "output": args.output},
          ["wrote %s (%d states, critical: %s)"
           % (args.output, len(result.m_hat.states),
              " ".join(sorted(result.m_hat.critical)) or "-")])
    return 0


def cmd_observe(args):
    m = _load(args)
    v = check(m, args.property)
    if not v.holds:
        print("property %s does not hold; nothing to observe" % args.property,
              file=sys.stderr)
        return 1
    est = Estimator(m, v)
    if args.trace is not None:
        symbols = args.trace.split()
    else:
        symbols = (line.strip() for line in sys.stdin if line.strip())
    events = []
    for y in symbols:
        ev = est.step(y)
        if ev is not None:
            events.append(ev)
            if not args.json:
                print("EVENT step=%d window=[%d,%d] exact=%s"
                      % (ev.detected_at, ev.window[0], ev.window[1],
                         str(ev.exact).lower()))
    if args.json:
        _emit(args, {"property": args.property, "steps": est.k,
                     "events": [{"step": e.detected_at,
                                 "window": list(e.window), "exact": e.exact}
                                for e in events]}, [])
    elif not events:
        print("no events after %d steps" % est.k)
    return 0


def cmd_oracle(args):
    m = _load(args)
    if args.params:
        try:
            tau, delta, gamma1, gamma2 = map(int, _state_list(args.params))
        except ValueError:
            raise UsageError("--params needs four integers tau,delta,gamma1,gamma2") from None
        params = DiagParams(tau, delta, PropertyKind(args.property).horizon, gamma1, gamma2)
    else:
        v = check(m, args.property)
        if not v.holds:
            print("property %s fails per the checker; pass --params to probe"
                  % args.property, file=sys.stderr)
            return 1
        params = v.params
    outcome = check_definition(m, args.property, params, Horizon(args.horizon))
    payload = {"property": args.property, "status": outcome.status,
               "params": _params_json(params), "horizon": args.horizon}
    lines = ["%s at tau=%d delta=%d gamma1=%d gamma2=%d (horizon %d): %s"
             % (args.property, params.tau, params.delta, params.gamma1,
                params.gamma2, args.horizon, outcome.status)]
    if outcome.counterexample:
        ce = outcome.counterexample
        payload["counterexample"] = {"execution": list(ce.execution),
                                     "crossing_step": ce.crossing_step,
                                     "partner": list(ce.partner)}
        lines.append("execution: %s (crossing at step %d)"
                     % (" ".join(ce.execution), ce.crossing_step))
        lines.append("partner:   %s" % " ".join(ce.partner))
    _emit(args, payload, lines)
    return 1 if outcome.violated else 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fsmdiag",
        description="Critical-state diagnosability analysis for finite state machines")
    parser.add_argument("--version", action="version", version="fsmdiag " + __version__)
    sub = parser.add_subparsers(dest="command", required=True)
    properties = [kind.value for kind in PropertyKind]

    def common(p):
        p.add_argument("file", help="machine in fsm v1 format")
        p.add_argument("--initial", help="override initial states (comma separated)")
        p.add_argument("--critical", help="override critical states (comma separated)")
        p.add_argument("--json", action="store_true", help="machine-readable output")

    p = sub.add_parser("validate", help="check the structural assumptions")
    common(p)
    p.add_argument("--mode", choices=("analysis", "desilent"), default="analysis")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("sets", help="print the pair-relation fixed points")
    common(p)
    p.add_argument("--set", choices=_SETS, help="just this relation")
    p.add_argument("--steps", action="store_true", help="include every step")
    p.set_defaults(fn=cmd_sets)

    p = sub.add_parser("check", help="decide a diagnosability property")
    common(p)
    p.add_argument("--property", choices=properties, required=True)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("desilent", help="eliminate silent states")
    common(p)
    p.add_argument("-o", "--output", required=True, help="destination file")
    p.add_argument("--provenance", help="write the new-state origin map as JSON")
    p.set_defaults(fn=cmd_desilent)

    p = sub.add_parser("observe", help="run the online diagnoser on a stream")
    common(p)
    p.add_argument("--property", choices=properties, required=True)
    p.add_argument("--trace", help="space-separated symbols (default: stdin, one per line)")
    p.set_defaults(fn=cmd_observe)

    p = sub.add_parser("oracle", help="probe a definition by bounded enumeration")
    common(p)
    p.add_argument("--property", choices=properties, required=True)
    p.add_argument("--horizon", type=int, required=True, help="max execution length")
    p.add_argument("--params", help="tau,delta,gamma1,gamma2 (default: checker's)")
    p.set_defaults(fn=cmd_oracle)
    return parser


@functools.cache
def _parser():
    """The one parser of this process.  Building it costs some twenty times
    what a parse does, and parsing leaves it unchanged."""
    return build_parser()


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ParseError, UsageError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except BudgetExceededError as exc:
        print("resource limit: %s" % exc, file=sys.stderr)
        return 3
    except FsmDiagError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
