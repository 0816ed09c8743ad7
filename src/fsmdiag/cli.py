"""Command-line front end.

Exit codes: 0 success / property holds, 1 property fails or validation
violations, 2 usage or parse error, 3 resource (budget) exhaustion.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .checker import Analysis, DiagParams, PropertyKind, check
from .diagnoser import Estimator
from .epsremoval import desilent
from .errors import (BudgetExceededError, FsmDiagError,
                     InconsistentObservationError, ParseError, UsageError)
from .model import fsm_to_text, load_fsm, validate
from .oracle import Horizon, check_definition

def _state_list(text):
    return [t for t in text.replace(",", " ").split() if t]


def _load(args):
    m = load_fsm(args.file)
    if args.initial is not None:
        m = m.replace(initial=frozenset(_state_list(args.initial)))
    if args.critical is not None:
        m = m.replace(critical=frozenset(_state_list(args.critical)))
    return m


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


_SETS = ("Pi", "S", "Stilde", "F", "B", "Lambda", "Gamma")


def cmd_sets(args):
    m = _load(args)
    a = Analysis(m)
    wanted = [args.set] if args.set else list(_SETS)
    payload = {}
    lines = []
    for name in wanted:
        if name == "Pi":
            series = None
            fp, conv = a.pi, None
        else:
            series = {"S": a.s, "Stilde": a.s_tilde, "F": a.f, "B": a.b,
                      "Lambda": a.lam, "Gamma": a.gam}[name]
            fp, conv = series.fixed_point, series.convergence_step
        entry = {"fixed_point": [list(p) for p in fp.pairs()],
                 "convergence_step": conv}
        if args.steps and series is not None:
            entry["steps"] = [[list(p) for p in series.at(k).pairs()]
                              for k in range(1, conv + 1)]
        payload[name] = entry
        head = name if conv is None else "%s (converges at %d)" % (name, conv)
        lines.append("%s: %s" % (head, " ".join("(%s,%s)" % p for p in fp.pairs())))
        if args.steps and series is not None:
            for k in range(1, conv + 1):
                lines.append("  step %d: %s" % (
                    k, " ".join("(%s,%s)" % p for p in series.at(k).pairs())))
    _emit(args, payload, lines)
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


def cmd_desilent(args):
    m = _load(args)
    result = desilent(m)
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write(fsm_to_text(result.m_hat))
    if args.provenance:
        prov = {name: {"q": q, "w": w, "crossed": crossed}
                for name, (q, w, crossed) in sorted(result.provenance.items())}
        with open(args.provenance, "w", encoding="utf-8") as fh:
            json.dump(prov, fh, indent=2, sort_keys=True)
    _emit(args, {"states": len(result.m_hat.states),
                 "critical": sorted(result.omega_hat),
                 "output": args.output},
          ["wrote %s (%d states, critical: %s)"
           % (args.output, len(result.m_hat.states),
              " ".join(sorted(result.omega_hat)) or "-")])
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
        vals = [int(t) for t in _state_list(args.params)]
        if len(vals) != 4:
            raise UsageError("--params needs tau,delta,gamma1,gamma2")
        params = DiagParams(vals[0], vals[1], PropertyKind(args.property).horizon,
                            vals[2], vals[3])
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


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ParseError, UsageError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except OSError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except BudgetExceededError as exc:
        print("resource limit: %s" % exc, file=sys.stderr)
        return 3
    except (InconsistentObservationError, FsmDiagError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
