"""Property-based tests over randomly generated machines."""

import hypothesis.strategies as st
from hypothesis import HealthCheck, assume, given, settings

from fsmdiag import (
    Analysis, Fsm, PairRelation, check, desilent, enum_relation,
    enumerate_executions, fsm_to_text, max_silent_length, parse_fsm, validate,
)
from fsmdiag.epsremoval import silent_runs
from fsmdiag.fixpoint import _avoid_seed, _shrink, compute_pi, s_series
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
                if series is a.s:       # S grows, the others shrink
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
        steps = list(series)
        assert len(steps) == k
        for j in range(1, k + 1):
            assert steps[j - 1] == series.at(j)
        assert series.at(k + 1) == series.fixed_point


def reference_shrink(m, seed, step):
    """Every step of R_{k+1} = {(i,j) in R_k : (N(i) x N(j)) cap R_k nonempty},
    N = ``step``, computed plainly until it repeats."""
    steps = [set(seed.pairs())]
    while True:
        cur = steps[-1]
        nxt = {(i, j) for (i, j) in cur
               if any((a, b) in cur for a in step(i) for b in step(j))}
        if nxt == cur:
            return steps
        steps.append(nxt)


@given(machines(max_states=6, outputs="abc"), st.booleans(),
       st.sampled_from(["pi", "s_star", "avoid", "empty", "random"]), st.data())
@COMMON
def test_shrink_matches_synchronous_recursion(m, forward, which, data):
    states = m.states
    if which == "pi":
        seed = compute_pi(m)
    elif which == "s_star":
        seed = s_series(m).fixed_point
    elif which == "avoid":
        seed = _avoid_seed(m, s_series(m).fixed_point)
    elif which == "empty":
        seed = PairRelation(states)
    else:  # any relation, symmetric or not
        pair = st.tuples(st.sampled_from(states), st.sampled_from(states))
        seed = PairRelation.from_pairs(states, data.draw(st.sets(pair)))
    series = _shrink(m, seed, forward)
    steps = reference_shrink(m, seed, m.succ if forward else m.pre)
    assert series.convergence_step == len(steps)
    for k in range(1, len(steps) + 2):
        assert set(series.at(k).pairs()) == steps[min(k, len(steps)) - 1]
    assert [set(rel.pairs()) for rel in series] == steps
    assert series.emptied_at == (len(steps) if steps[0] and not steps[-1] else None)
    n = len(states)
    assert len(series.layers) == len(steps) - 1
    for k, layer in enumerate(series.layers, 2):
        assert set(layer) == {states.index(i) * n + states.index(j)
                              for (i, j) in steps[k - 2] - steps[k - 1]}
    changed = [p for layer in series.layers for p in layer]
    assert len(set(changed)) == len(changed)


@given(analysis_machines(max_states=7, outputs="abc"))
@COMMON
def test_masking_series_project_the_avoiding_recursion(m):
    # Lambda and Gamma are the avoiding recursion restricted to critical x
    # non-critical pairs and closed symmetrically, step by step
    a = Analysis(m)
    seed = _avoid_seed(m, a.s.fixed_point)
    for series, step in ((a.lam, m.succ), (a.gam, m.pre)):
        proj = [{p for (i, j) in base if i in m.critical and j not in m.critical
                 for p in ((i, j), (j, i))}
                for base in reference_shrink(m, seed, step)]
        k_star = next(k for k in range(1, len(proj) + 1)
                      if all(rel == proj[-1] for rel in proj[k - 1:]))
        assert series.convergence_step == k_star
        assert [set(rel.pairs()) for rel in series] == proj[:k_star]
        for k in range(1, len(proj) + 2):
            assert set(series.at(k).pairs()) == proj[min(k, len(proj)) - 1]
        assert set(series.fixed_point.pairs()) == proj[-1]
        assert series.emptied_at == (k_star if proj[0] and not proj[-1] else None)


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


@given(machines(allow_silent=True))
@COMMON
def test_silent_runs_match_enumeration(m):
    assume(validate(m, "desilent").ok)
    lam = max_silent_length(m)
    for w in m.states:
        if m.is_silent(w):
            continue
        runs = set()
        for length in range(2, lam + 2):
            for x in enumerate_executions(m, [w], length):
                if all(m.is_silent(s) for s in x[1:]):
                    runs.add((x[-1], any(s in m.critical for s in x)))
        assert silent_runs(m, w) == runs
