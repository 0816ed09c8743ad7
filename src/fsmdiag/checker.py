"""Property checks for critical-set diagnosability and observability.

Every property reduces to an emptiness or inclusion test between the fixed
points computed in :mod:`fsmdiag.fixpoint`.  When it fails, the smallest
violating state pair is reported.  When it holds, the Pareto-minimal step
indices (b, f, g, l) of the backward (B or B~), forward (F), backward-masking
(Gamma) and forward-masking (Lambda) recursions at which the property's
fixed relation meets no step are read off the step at which each of its
pairs leaves each series, with no step built; a series the property does
not use stands at index 1.  One formula reads the parameters
(transient tau, delay delta, uncertainties gamma1/gamma2) off a tuple:

    tau = max(b, g) - 1            delta = max(f, l) - 1
    gamma1 = (l if first_only else g) - 1            gamma2 = l - 1

and the headline tuple is the candidate whose parameters rank least by
(tau, delta, gamma1 + gamma2).  The parameters are upper bounds, not minima.
The critical property is the conjunction of diag and eventual and composes
their parameters.
"""

from __future__ import annotations

import enum
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from .errors import UsageError
from .fixpoint import b_series, f_series, gamma_series, lambda_series, s_series
from .model import Fsm, build_restricted, validate
from .relations import FixpointSeries, PairRelation, product_relation


class PropertyKind(str, enum.Enum):
    """The property table: one row (value, first_only, transient, observable)
    per property, read by every module.

    ``first_only``: only the first crossing must be detected (horizon 0).
    ``transient``: the property allows a transient tau > 0.
    ``observable``: the online estimator serves the property.

    Each member is checked by the function ``check_<member name>`` below,
    which reads the machine's :class:`Analysis`.
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

    Every series is computed lazily, and each of its forms at most once: the
    whole series (the attributes below) and, for F, B and B~, the view on
    the cone of the mixed pairs that :meth:`on_mixed` gives the checks that
    read only those.  Each property's verdict is decided once too
    (``verdicts``, filled by :func:`check`); the object is immutable from
    the caller's perspective and safe to share.
    """

    def __init__(self, m: Fsm):
        validate(m, "analysis").require()
        self.m = m
        self.verdicts = {}
        self._views = {}

    @property
    def pi(self):
        return self.m.pi

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

    def on_mixed(self, name: str) -> FixpointSeries:
        """The series ``name`` ("f", "b" or "b_tilde") as far as a check that
        reads it on mixed pairs only needs it: the whole series if that is
        built, and otherwise the series asked for the mixed pairs
        (``Fsm.mixed``) as ``within``, exact there and possibly only on
        their cone.  A view whose first relation is the whole seed, as on
        the engine's product path, is the whole series and is kept as such,
        so neither form is ever built twice.  Any other name raises
        UsageError."""
        if name not in ("f", "b", "b_tilde"):
            raise UsageError("no view on the mixed pairs of series %r" % (name,))
        if name in self.__dict__:       # where cached_property keeps the whole series
            return self.__dict__[name]
        view = self._views.get(name)
        if view is None:
            within = self.m.mixed
            if name == "f":
                seed, view = self.pi, f_series(self.m, within)
            elif name == "b":
                seed = self.s.fixed_point
                view = b_series(self.m, seed, within)
            else:
                seed = self.s_tilde.fixed_point
                view = b_series(self.restricted, seed, within)
            if view.first == seed:
                self.__dict__[name] = view
            else:
                self._views[name] = view
        return view


def _witness(rel: PairRelation, name: str):
    """The least pair of ``rel``, read off its lowest set bit."""
    i, j = divmod((rel.bits & -rel.bits).bit_length() - 1, rel.universe.n)
    return ((rel.universe.states[i], rel.universe.states[j]), name)


def _pareto_min(tuples: set) -> set:
    """The tuples that no other one of ``tuples`` is below in every index."""
    return {t for t in tuples if not any(o != t and all(map(operator.le, o, t)) for o in tuples)}


def _frontier(fixed: PairRelation, b=None, f=None, g=None, l=None) -> tuple:
    """Sorted Pareto-minimal tuples (b, f, g, l) at which ``fixed``
    intersected with that step of every given series is empty.  An absent
    series stands at index 1.

    A pair of ``fixed`` outside the first step of a given series meets no
    tuple.  Any other pair meets a tuple unless the tuple reaches, on some
    coordinate, the step at which the pair leaves that series
    (``FixpointSeries.removal_steps``), so a pair no series removes meets
    every tuple and leaves no frontier.  The frontier is thus the minimal
    tuples reaching a coordinate of every pair's removal vector: starting
    from (1, 1, 1, 1), each distinct vector in turn replaces every tuple
    that misses it by that tuple raised to each of its coordinates, and the
    minimal tuples are kept.  No step of any series is built.
    """
    given = [(c, s) for c, s in enumerate((b, f, g, l)) if s is not None]
    rel = fixed
    for _, s in given:
        rel &= s.first
    vectors = {}
    for c, s in given:
        for p, k in s.removal_steps(rel).items():
            vectors.setdefault(p, []).append((c, k))
    if len(vectors) < len(rel):
        return ()
    found = {(1, 1, 1, 1)}
    for v in set(map(tuple, vectors.values())):
        missed = {t for t in found if all(t[c] < k for c, k in v)}
        if missed:
            found = _pareto_min(found - missed | {t[:c] + (k,) + t[c + 1:]
                                                  for t in missed for c, k in v})
    return tuple(sorted(found))


def _params(kind: PropertyKind, t) -> DiagParams:
    """The parameters every property reads off the index tuple t."""
    b, f, g, l = t
    return DiagParams(max(b, g) - 1, max(f, l) - 1, kind.horizon,
                      (l if kind.first_only else g) - 1, l - 1)


def _rank(p: DiagParams):
    return (p.tau, p.delta, p.gamma1 + p.gamma2)


def _verdict(kind: PropertyKind, bad: PairRelation, why: str, scan, pin=None) -> DiagVerdict:
    """The verdict of ``kind``.  A nonempty failure relation ``bad`` fails
    it, with its least pair as witness.  Otherwise it holds on the frontier
    ``scan()``, and the headline is the candidate tuple whose parameters rank
    least, the lexicographically least on ties.  The candidates are the
    frontier's tuples; with ``pin``, which gives (b*, f*), they are the
    frontier's (g, l) taken at b* and f*.  The frontier is reported for the
    properties the online estimator serves.
    """
    if bad:
        return DiagVerdict(kind, False, witness=_witness(bad, why))
    frontier = candidates = scan()
    if pin:
        b_star, f_star = pin()
        candidates = {(b_star, f_star, g, l) for _, _, g, l in frontier}
    best = min(candidates, key=lambda t: (_rank(_params(kind, t)), t))
    return DiagVerdict(kind, True, params=_params(kind, best),
                       frontier=frontier if kind.observable else None, bfgl=best)


# Every check but eventual's (and critical's, through it) reads F, B and B~
# only on pairs of Lambda's or Gamma's first relation or of ``Fsm.mixed``,
# all of them mixed, so it asks for them through ``Analysis.on_mixed``.


def check_parametric(a: Analysis) -> DiagVerdict:
    """Detection of the first crossing after a transient, with any delay."""
    return _verdict(PropertyKind.PARAMETRIC,
                    a.on_mixed("b_tilde").fixed_point & a.lam.fixed_point,
                    "backward-reachable and forward-maskable",
                    lambda: _frontier(PairRelation.full(a.m.universe), b=a.on_mixed("b_tilde"),
                                      f=a.on_mixed("f"), l=a.lam))


def _diag_failures(a: Analysis) -> PairRelation:
    """The pairs that fail diag, read off S~ and Lambda alone."""
    return a.s_tilde.fixed_point & a.lam.fixed_point


def check_diag(a: Analysis) -> DiagVerdict:
    """Detection of the first crossing, with no transient allowance."""
    return _verdict(PropertyKind.DIAG, _diag_failures(a),
                    "jointly reachable and forward-maskable",
                    lambda: _frontier(a.s_tilde.fixed_point, f=a.on_mixed("f"), l=a.lam))


def check_eventual(a: Analysis) -> DiagVerdict:
    """Detection of every crossing occurring after a finite transient."""
    # headline parameters are taken at b* and f*, the last steps at which B
    # and F remove a pair of S*, minimizing only the uncertainty indices;
    # smaller b or f would shrink the claimed transient below what the
    # detection argument supports.  B is seeded with S*, so b* is its
    # convergence step; F runs over all of Pi, and pairs outside S*, which no
    # two executions reach together, must not move f*.  Every frontier tuple
    # has b <= b* and f <= f*, so the (g, l) that work at (b*, f*) are
    # exactly those above some frontier tuple's (g, l).
    return _verdict(PropertyKind.EVENTUAL, a.gam.fixed_point & a.lam.fixed_point,
                    "backward-maskable and forward-maskable",
                    lambda: _frontier(PairRelation.full(a.m.universe),
                                      b=a.b, f=a.f, g=a.gam, l=a.lam),
                    pin=lambda: (a.b.convergence_step,
                                 max(a.f.removal_steps(a.s.fixed_point).values(), default=1)))


def check_critical(a: Analysis) -> DiagVerdict:
    """Detection of every crossing with no transient allowance: the
    conjunction of the first-crossing and eventual properties."""
    kind = PropertyKind.CRITICAL
    if not _diag_failures(a):
        # diag holds, so eventual goes first: diag's scan then reads the
        # whole F that eventual builds, rather than F on the mixed pairs too
        check(a.m, "eventual", a)
    dg = check(a.m, "diag", a)
    if not dg.holds:
        return DiagVerdict(kind, False, witness=dg.witness)
    ev = check(a.m, "eventual", a)
    if not ev.holds:
        return DiagVerdict(kind, False, witness=ev.witness)
    tau_e, d_e, g1_e = ev.params.tau, ev.params.delta, ev.params.gamma1
    delta = max(tau_e, d_e, dg.params.delta)
    params = DiagParams(0, delta, kind.horizon, max(tau_e, g1_e), delta)
    return DiagVerdict(kind, True, params=params, frontier=ev.frontier, bfgl=ev.bfgl)


def check_eventual_obs(a: Analysis) -> DiagVerdict:
    """Zero-delay detection of crossings after a transient."""
    return _verdict(PropertyKind.EVENTUAL_OBS, a.on_mixed("b").fixed_point & a.m.mixed,
                    "backward-indistinguishable mixed pair",
                    lambda: _frontier(a.gam.first, b=a.on_mixed("b"), g=a.gam))


def check_exact_step(a: Analysis) -> DiagVerdict:
    """Eventual detection that pins down the exact crossing step."""
    b, f = a.on_mixed("b"), a.on_mixed("f")
    return _verdict(PropertyKind.EXACT_STEP, b.fixed_point & f.fixed_point & a.m.mixed,
                    "persistent mixed pair", lambda: _frontier(a.m.mixed, b=b, f=f))


def check_initial_obs(a: Analysis) -> DiagVerdict:
    """Exact decision about the critical set from the first observation."""
    if not a.m.critical <= a.m.initial:
        raise UsageError("initial-state observability requires the critical "
                         "set to consist of initial states")
    mixed_init = product_relation(a.m.universe, a.m.initial, a.m.initial) & a.m.mixed
    return _verdict(PropertyKind.INITIAL_OBS, mixed_init & a.on_mixed("f").fixed_point,
                    "forward-indistinguishable initial mixed pair",
                    lambda: _frontier(mixed_init, f=a.on_mixed("f")))


def check_critical_obs(a: Analysis) -> DiagVerdict:
    """Zero-delay, zero-transient decision at every step."""
    # no series: the property holds at indices (1, 1, 1, 1)
    return _verdict(PropertyKind.CRITICAL_OBS, a.s.fixed_point & a.m.mixed,
                    "jointly reachable mixed pair", lambda: ((1, 1, 1, 1),))


def check(m: Fsm, prop: PropertyKind, analysis: Optional[Analysis] = None) -> DiagVerdict:
    """The verdict of ``prop`` on ``m``, read from ``analysis`` if given and
    from a fresh ``Analysis(m)`` otherwise.  A given ``analysis`` must be of
    ``m`` or of a machine equal to it; UsageError otherwise.  Each verdict
    is decided once per Analysis and kept there, whoever asks for it."""
    kind = PropertyKind.parse(prop)
    if analysis is not None and analysis.m is not m and analysis.m != m:
        raise UsageError("the analysis given is of another machine")
    a = analysis or Analysis(m)
    v = a.verdicts.get(kind)
    if v is None:
        v = a.verdicts[kind] = globals()["check_" + kind.name.lower()](a)
    return v
