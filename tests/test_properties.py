"""Property-based tests over randomly generated machines."""

import hypothesis.strategies as st
from hypothesis import HealthCheck, assume, given, settings

from fsmdiag import (
    Analysis, Fsm, PairRelation, check, desilent, enum_relation, fsm_to_text,
    parse_fsm, validate,
)
from test_epsremoval import output_language

COMMON = settings(max_examples=60, deadline=None,
                  suppress_health_check=[HealthCheck.filter_too_much])


@st.composite
def machines(draw, max_states=5, outputs="ab", allow_silent=False):
    n = draw(st.integers(2, max_states))
    states = [str(i) for i in range(n)]
    syms = outputs + ("_" if allow_silent else "")
    label = {s: draw(st.sampled_from(syms)) for s in states}
    trans = set()
    for s in states:
        succs = draw(st.sets(st.sampled_from(states), min_size=1, max_size=2))
        trans |= {(s, t) for t in succs}
    extra = draw(st.sets(st.tuples(st.sampled_from(states),
                                   st.sampled_from(states)), max_size=3))
    initial = draw(st.sets(st.sampled_from(states), min_size=1))
    critical = draw(st.sets(st.sampled_from(states), max_size=n - 1))
    return Fsm(states, initial, label, trans | extra, critical)


def analysis_machines(**kw):
    return machines(**kw).filter(lambda m: validate(m, "analysis").ok)


@given(machines(allow_silent=True))
@COMMON
def test_text_round_trip(m):
    assert parse_fsm(fsm_to_text(m)) == m


@given(analysis_machines())
@COMMON
def test_relation_containments(m):
    a = Analysis(m)
    s_star = a.s.fixed_point
    assert a.s_tilde.fixed_point.issubset(s_star)
    assert s_star.issubset(a.pi)
    assert a.lam.fixed_point.issubset(a.f.fixed_point & s_star)
    assert a.gam.fixed_point.issubset(a.b.fixed_point)
    assert a.b.fixed_point.issubset(s_star)
    assert PairRelation.diagonal(m.states).issubset(a.pi)


@given(analysis_machines())
@COMMON
def test_series_shape(m):
    a = Analysis(m)
    n2 = len(m.states) ** 2
    for series in (a.s, a.f, a.b, a.b_tilde):
        assert series.convergence_step < n2
        prev = None
        for rel in series:
            assert rel.is_symmetric()
            if prev is not None:
                if series.direction == "grow":
                    assert prev.issubset(rel)
                else:
                    assert rel.issubset(prev)
            prev = rel
    for series in (a.lam, a.gam):
        assert series.convergence_step < n2
        for k in range(1, 6):
            assert series.at(k).is_symmetric()
            assert series.at(k + 1).issubset(series.at(k))
    assert a.lam.at(1) == a.gam.at(1)
    for series in (a.s, a.s_tilde, a.f, a.b, a.b_tilde, a.lam, a.gam):
        k = series.convergence_step
        assert series.at(k) == series.fixed_point
        assert k == 1 or series.at(k - 1) != series.fixed_point


@given(analysis_machines(max_states=4), st.integers(1, 5))
@COMMON
def test_enumeration_matches_recursion(m, k):
    a = Analysis(m)
    s_star = a.s.fixed_point
    assert enum_relation(m, "S", k) == a.s.at(k)
    assert enum_relation(m, "F", k) == a.f.at(k)
    assert enum_relation(m, "B", k, s_star) == a.b.at(k)
    assert enum_relation(m, "Lambda", k, s_star) == a.lam.at(k)
    assert enum_relation(m, "Gamma", k, s_star) == a.gam.at(k)


@given(analysis_machines())
@COMMON
def test_property_implications(m):
    critical = check(m, "critical").holds
    assert critical == (check(m, "diag").holds and check(m, "eventual").holds)
    if check(m, "critical-obs").holds:
        assert check(m, "eventual-obs").holds
    # an everywhere-detectable machine is in particular eventually detectable
    if critical:
        assert check(m, "eventual").holds


@given(analysis_machines())
@COMMON
def test_verdict_shape(m):
    for prop in ("parametric", "diag", "eventual", "critical"):
        v = check(m, prop)
        if v.holds:
            assert v.params is not None
            assert v.params.gamma2 <= v.params.delta
        else:
            assert v.witness is not None
            (i, j), _ = v.witness
            assert i in m.states and j in m.states


@given(machines(allow_silent=True))
@COMMON
def test_desilent_language_preserved(m):
    assume(validate(m, "desilent").ok)
    assume(m.silent_states)
    result = desilent(m)
    assert not result.m_hat.silent_states
    assert output_language(m, 5) == output_language(result.m_hat, 5)
