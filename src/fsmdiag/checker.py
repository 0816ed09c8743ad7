"""Property checks for critical-set diagnosability and observability.

Every property reduces to an emptiness or inclusion test between the fixed
points computed in :mod:`fsmdiag.fixpoint`.  When a property holds, a scan
over the step indices (b, f, g, l) of the underlying recursions yields
parameter tuples (transient tau, delay delta, horizon T, uncertainties
gamma1/gamma2) for which it provably holds; these are upper bounds, not
minima.  When it fails, the smallest violating state pair is reported.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from .errors import PreconditionError, UsageError
from .fixpoint import b_series, compute_pi, f_series, gamma_series, lambda_series, s_series
from .model import Fsm, build_restricted, validate
from .relations import PairRelation, product_relation, same_block


class PropertyKind(str, enum.Enum):
    """The property table: one row (value, first_only, transient, observable)
    per property, read by every module.

    ``first_only``: only the first crossing must be detected (horizon 0).
    ``transient``: the property allows a transient tau > 0.
    ``observable``: the online estimator serves the property.

    Each member is checked by the function ``check_<member name>`` below.
    """

    PARAMETRIC = ("parametric", True, True, True)
    DIAG = ("diag", True, False, True)
    EVENTUAL = ("eventual", False, True, True)
    CRITICAL = ("critical", False, False, True)
    EVENTUAL_OBS = ("eventual-obs", False, True, False)
    CRITICAL_OBS = ("critical-obs", False, False, False)
    INITIAL_OBS = ("initial-obs", True, False, False)
    EXACT_STEP = ("exact-step", False, True, False)

    def __new__(cls, value, first_only, transient, observable):
        member = str.__new__(cls, value)
        member._value_ = value
        member.first_only = first_only
        member.transient = transient
        member.observable = observable
        return member

    @property
    def horizon(self) -> Optional[int]:
        """``DiagParams.horizon`` for this property."""
        return 0 if self.first_only else None

    @classmethod
    def parse(cls, prop) -> "PropertyKind":
        """The member named by ``prop``; UsageError if there is none."""
        try:
            return cls(prop)
        except ValueError:
            raise UsageError("unknown property %r" % (prop,)) from None


@dataclass(frozen=True)
class DiagParams:
    """Transient, delay, detection horizon and uncertainty bounds.

    ``horizon`` is 0 when only the first crossing must be detected and None
    when every crossing must be (unbounded horizon).
    """

    tau: int
    delta: int
    horizon: Optional[int]
    gamma1: int
    gamma2: int

    def __post_init__(self):
        if min(self.tau, self.delta, self.gamma1, self.gamma2) < 0:
            raise UsageError("parameters must be nonnegative")
        if self.gamma2 > self.delta:
            raise UsageError("gamma2 must not exceed delta")

    @property
    def gamma(self):
        return max(self.gamma1, self.gamma2)


@dataclass(frozen=True)
class DiagVerdict:
    property: PropertyKind
    holds: bool
    params: Optional[DiagParams] = None
    witness: Optional[tuple] = None        # ((i, j), relation description)
    frontier: Optional[tuple] = None       # minimal (b, f, g, l) tuples
    bfgl: Optional[tuple] = None           # headline (b, f, g, l)


class Analysis:
    """Memoized fixed-point computations for one machine.

    All heavy series are computed lazily and at most once; the object is
    immutable from the caller's perspective and safe to share.
    """

    def __init__(self, m: Fsm):
        report = validate(m, "analysis")
        if not report.ok:
            raise PreconditionError(
                "machine fails analysis assumptions: "
                + "; ".join(v.message for v in report.entries if v.severity == "error"))
        self.m = m

    @cached_property
    def pi(self):
        return compute_pi(self.m)

    @cached_property
    def restricted(self):
        return build_restricted(self.m)

    @cached_property
    def s(self):
        return s_series(self.m)

    @cached_property
    def s_tilde(self):
        return s_series(self.restricted)

    @cached_property
    def f(self):
        return f_series(self.m)

    @cached_property
    def b(self):
        """Backward series seeded with the joint-reachability fixed point."""
        return b_series(self.m, self.s.fixed_point)

    @cached_property
    def b_tilde(self):
        """Backward series of the restricted machine, seeded with its own
        joint-reachability fixed point."""
        return b_series(self.restricted, self.s_tilde.fixed_point)

    @cached_property
    def lam(self):
        return lambda_series(self.m, self.s.fixed_point)

    @cached_property
    def gam(self):
        return gamma_series(self.m, self.s.fixed_point)

    @cached_property
    def block(self):
        """Pairs on the same side of the critical set."""
        return same_block(self.m.states, self.m.critical)


def _witness(rel: PairRelation, name: str):
    return (rel.pairs()[0], name)


def _pareto_min(tuples):
    out = []
    for t in tuples:
        if any(all(o[i] <= t[i] for i in range(len(t))) for o in out):
            continue
        out = [o for o in out if not all(t[i] <= o[i] for i in range(len(t)))]
        out.append(t)
    return tuple(sorted(out))


def _frontier(fixed: PairRelation, *series) -> tuple:
    """Sorted Pareto-minimal index tuples (k1, ..., kd), each ki in
    1..series[i].convergence_step, at which ``fixed`` intersected with step
    ki of every ``series[i]`` is empty.

    Every scanned series shrinks, so emptiness is upward closed in each
    index: per prefix of the first d - 1 indices only the least last index
    is kept.  Each series is iterated once, every step rebuilt from the one
    before by its layer and kept as a bitset while the scan runs.
    """
    steps = [[rel.bits for rel in s] for s in series]
    found = []

    def scan(bits, prefix):
        level = steps[len(prefix)]
        if len(prefix) + 1 < len(steps):
            for k, rel in enumerate(level, 1):
                scan(bits & rel, prefix + (k,))
            return
        for k, rel in enumerate(level, 1):
            if not bits & rel:
                found.append(prefix + (k,))
                return

    scan(fixed.bits, ())
    return _pareto_min(found)


def _headline(frontier, make_params):
    best = min(frontier, key=lambda t: _rank(make_params(t)))
    return best, make_params(best)


def _rank(p: DiagParams):
    return (p.tau, p.delta, p.gamma1 + p.gamma2)


def check_parametric(m: Fsm, analysis: Optional[Analysis] = None) -> DiagVerdict:
    """Detection of the first crossing after a transient, with any delay."""
    a = analysis or Analysis(m)
    kind = PropertyKind.PARAMETRIC
    bad = a.b_tilde.fixed_point & a.lam.fixed_point
    if bad:
        return DiagVerdict(kind, False,
                           witness=_witness(bad, "backward-reachable and forward-maskable"))
    frontier = tuple((b, f, 1, l) for b, f, l in
                     _frontier(PairRelation.full(a.m.states), a.b_tilde, a.f, a.lam))

    def mk(t):
        b, f, _, l = t
        return DiagParams(b - 1, max(f, l) - 1, kind.horizon, l - 1, l - 1)

    best, params = _headline(frontier, mk)
    return DiagVerdict(kind, True, params=params, frontier=frontier, bfgl=best)


def check_diag(m: Fsm, analysis: Optional[Analysis] = None) -> DiagVerdict:
    """Detection of the first crossing, with no transient allowance."""
    a = analysis or Analysis(m)
    kind = PropertyKind.DIAG
    bad = a.s_tilde.fixed_point & a.lam.fixed_point
    if bad:
        return DiagVerdict(kind, False,
                           witness=_witness(bad, "jointly reachable and forward-maskable"))
    frontier = tuple((1, f, 1, l) for f, l in _frontier(a.s_tilde.fixed_point, a.f, a.lam))

    def mk(t):
        _, f, _, l = t
        return DiagParams(0, max(f, l) - 1, kind.horizon, l - 1, l - 1)

    best, params = _headline(frontier, mk)
    return DiagVerdict(kind, True, params=params, frontier=frontier, bfgl=best)


def check_eventual(m: Fsm, analysis: Optional[Analysis] = None) -> DiagVerdict:
    """Detection of every crossing occurring after a finite transient."""
    a = analysis or Analysis(m)
    kind = PropertyKind.EVENTUAL
    bad = a.gam.fixed_point & a.lam.fixed_point
    if bad:
        return DiagVerdict(kind, False,
                           witness=_witness(bad, "backward-maskable and forward-maskable"))
    frontier = _frontier(PairRelation.full(a.m.states), a.b, a.f, a.gam, a.lam)

    def mk(t):
        b, f, g, l = t
        return DiagParams(max(b, g) - 1, max(f, l) - 1, kind.horizon, g - 1, l - 1)

    # headline parameters are taken at the converged backward/forward indices,
    # minimizing only the uncertainty indices; smaller b or f would shrink the
    # claimed transient below what the detection argument supports.  Every
    # frontier tuple has b <= b* and f <= f*, so the (g, l) that work at
    # (b*, f*) are exactly those above some frontier tuple's (g, l).
    b_star, f_star = a.b.convergence_step, a.f.convergence_step
    best, params = _headline(sorted({(b_star, f_star, g, l) for _, _, g, l in frontier}), mk)
    return DiagVerdict(kind, True, params=params, frontier=frontier, bfgl=best)


def check_critical(m: Fsm, analysis: Optional[Analysis] = None) -> DiagVerdict:
    """Detection of every crossing with no transient allowance: the
    conjunction of the first-crossing and eventual properties."""
    a = analysis or Analysis(m)
    kind = PropertyKind.CRITICAL
    dg = check_diag(m, a)
    if not dg.holds:
        return DiagVerdict(kind, False, witness=dg.witness)
    ev = check_eventual(m, a)
    if not ev.holds:
        return DiagVerdict(kind, False, witness=ev.witness)
    tau_e, d_e, g1_e = ev.params.tau, ev.params.delta, ev.params.gamma1
    delta = max(tau_e, d_e, dg.params.delta)
    params = DiagParams(0, delta, kind.horizon, max(tau_e, g1_e), delta)
    return DiagVerdict(kind, True, params=params, frontier=ev.frontier, bfgl=ev.bfgl)


def check_eventual_obs(m: Fsm, analysis: Optional[Analysis] = None) -> DiagVerdict:
    """Zero-delay detection of crossings after a transient."""
    a = analysis or Analysis(m)
    kind = PropertyKind.EVENTUAL_OBS
    bad = a.b.fixed_point - a.block
    if bad:
        return DiagVerdict(kind, False,
                           witness=_witness(bad, "backward-indistinguishable mixed pair"))
    b, g = _frontier(a.pi & a.lam.first, a.b, a.gam)[0]
    params = DiagParams(max(b, g) - 1, 0, kind.horizon, g - 1, 0)
    return DiagVerdict(kind, True, params=params, bfgl=(b, 1, g, 1))


def check_exact_step(m: Fsm, analysis: Optional[Analysis] = None) -> DiagVerdict:
    """Eventual detection that pins down the exact crossing step."""
    a = analysis or Analysis(m)
    kind = PropertyKind.EXACT_STEP
    bad = (a.b.fixed_point & a.f.fixed_point) - a.block
    if bad:
        return DiagVerdict(kind, False, witness=_witness(bad, "persistent mixed pair"))
    b, f = _frontier(a.block.complement(), a.b, a.f)[0]
    params = DiagParams(b - 1, f - 1, kind.horizon, 0, 0)
    return DiagVerdict(kind, True, params=params, bfgl=(b, f, 1, 1))


def check_initial_obs(m: Fsm, analysis: Optional[Analysis] = None) -> DiagVerdict:
    """Exact decision about the critical set from the first observation."""
    a = analysis or Analysis(m)
    kind = PropertyKind.INITIAL_OBS
    if not a.m.critical <= a.m.initial:
        raise UsageError("initial-state observability requires the critical "
                         "set to consist of initial states")
    mixed_init = product_relation(a.m.states, a.m.initial, a.m.initial) - a.block
    bad = mixed_init & a.f.fixed_point
    if bad:
        return DiagVerdict(kind, False,
                           witness=_witness(bad, "forward-indistinguishable initial mixed pair"))
    (f,) = _frontier(mixed_init, a.f)[0]
    params = DiagParams(0, f - 1, kind.horizon, 0, 0)
    return DiagVerdict(kind, True, params=params, bfgl=(1, f, 1, 1))


def check_critical_obs(m: Fsm, analysis: Optional[Analysis] = None) -> DiagVerdict:
    """Zero-delay, zero-transient decision at every step."""
    a = analysis or Analysis(m)
    kind = PropertyKind.CRITICAL_OBS
    bad = a.s.fixed_point - a.block
    if bad:
        return DiagVerdict(kind, False,
                           witness=_witness(bad, "jointly reachable mixed pair"))
    params = DiagParams(0, 0, kind.horizon, 0, 0)
    return DiagVerdict(kind, True, params=params, bfgl=(1, 1, 1, 1))


def check(m: Fsm, prop: PropertyKind, analysis: Optional[Analysis] = None) -> DiagVerdict:
    kind = PropertyKind.parse(prop)
    return globals()["check_" + kind.name.lower()](m, analysis)
