"""Property-based tests over randomly generated machines."""

import itertools
import random
from functools import cached_property
from unittest import mock

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, assume, given, settings

from fsmdiag import (
    Analysis, BudgetExceededError, DiagParams, DiagVerdict, Estimator, Fsm, Horizon,
    InconsistentObservationError, PairRelation, PreconditionError, PropertyKind, UsageError,
    build_restricted, check, check_definition, desilent, diagnoser, enum_relation,
    enumerate_executions, execution_image, fsm_to_text, is_execution, observe, output_of,
    parse_fsm, product_relation, validate,
)
from fsmdiag.epsremoval import max_silent_length, silent_runs
from fsmdiag.fixpoint import _avoid_seed, _shrink, gamma_series, lambda_series, s_series
from fsmdiag.relations import bit_flags
from test_epsremoval import output_language
from test_fixpoint import assert_s_matches_reference

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


# short strings that are often tokens, often differ from one by a single
# character the text format gives a meaning, and sometimes are anything
TEXT = st.one_of(
    st.text("ab#=", max_size=3),
    st.text(st.one_of(st.sampled_from("ab \t\n\r\x0b\x1c\x85\u2028"),
                      st.characters(blacklist_categories=("Cs",))), max_size=3))


@given(st.lists(TEXT, min_size=1, max_size=4, unique=True), st.data())
@settings(COMMON, max_examples=300)
def test_machine_is_rejected_or_survives_text(ids, data):
    # sometimes a label for a state that is not declared
    label = {**data.draw(st.dictionaries(TEXT, TEXT, max_size=1)),
             **{s: data.draw(TEXT) for s in ids}}
    trans = data.draw(st.sets(st.tuples(st.sampled_from(ids), st.sampled_from(ids))))
    initial = data.draw(st.sets(st.sampled_from(ids)))
    critical = data.draw(st.sets(st.sampled_from(ids)))
    try:
        m = Fsm(ids, initial, label, trans, critical)
    except UsageError:
        return
    assert parse_fsm(fsm_to_text(m)) == m


# every cached property of a machine, those added later included
CACHED = sorted(k for k, v in vars(Fsm).items() if isinstance(v, cached_property))


def cached_values(m):
    return {name: getattr(m, name) for name in CACHED}


@given(machines(allow_silent=True), st.data())
@COMMON
def test_replace_matches_the_constructor(m, data):
    cached_values(m)    # a copy must match the constructor even when m has every value built
    fields = dict(states=m.states, initial=m.initial, label=m.label, trans=m.trans,
                  critical=m.critical)
    state = st.sampled_from(m.states)
    draw = {"initial": st.sets(state), "critical": st.sets(state),
            "trans": st.sets(st.tuples(state, state)),
            "label": st.fixed_dictionaries({s: st.sampled_from("ab_") for s in m.states})}
    overridden = sorted(data.draw(st.sets(st.sampled_from(sorted(draw)))))
    kw = {f: data.draw(draw[f]) for f in overridden}
    copy, built = m.replace(**kw), Fsm(**{**fields, **kw})
    assert copy == built
    assert cached_values(copy) == cached_values(built)
    # an override naming an undeclared state is refused with the same message
    field = data.draw(st.sampled_from(sorted(draw)))
    bad = {"initial": {*kw.get("initial", ()), "zz"},
           "critical": {*kw.get("critical", ()), "zz"},
           "trans": {*kw.get("trans", ()), ("zz", m.states[0])},
           "label": {**kw.get("label", m.label), "zz": "a"}}[field]
    kw[field] = bad
    with pytest.raises(UsageError) as refused:
        m.replace(**kw)
    with pytest.raises(UsageError) as expected:
        Fsm(**{**fields, **kw})
    assert str(refused.value) == str(expected.value)


@given(machines(allow_silent=True))
@COMMON
def test_restriction_matches_the_constructor(m):
    assert "pi" not in vars(m)      # so the restriction is the first to ask for m's Pi
    r = build_restricted(m)
    built = Fsm(m.states, m.initial, m.label,
                [t for t in m.trans if t[0] not in m.critical], m.critical)
    assert r == built
    # it holds m's very universe, label and Pi, built on m
    assert r.universe is m.universe and r.label is m.label and r.pi is m.pi
    assert cached_values(r) == cached_values(built)


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
    assert PairRelation.diagonal(m.universe).issubset(a.pi)


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


@given(st.one_of(machines(max_states=7, outputs="ab"), machines(max_states=7, outputs="abc")))
@COMMON
def test_s_matches_plain_growth(m):
    # on two outputs S often reaches all of Pi, which it cannot outgrow;
    # on three it more often stops short of it
    assert_s_matches_reference(m)
    assert_s_matches_reference(build_restricted(m))


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
        seed = m.pi
    elif which == "s_star":
        seed = s_series(m).fixed_point
    elif which == "avoid":
        seed = _avoid_seed(m, s_series(m).fixed_point)
    elif which == "empty":
        seed = PairRelation(m.universe)
    else:  # any relation, symmetric or not
        pair = st.tuples(st.sampled_from(states), st.sampled_from(states))
        seed = PairRelation.from_pairs(m.universe, data.draw(st.sets(pair)))
    assert_shrink_matches_reference(m, seed, forward)


def assert_shrink_matches_reference(m, seed, forward):
    series = _shrink(m, seed, forward)
    steps = reference_shrink(m, seed, m.succ if forward else m.pre)
    assert series.convergence_step == len(steps)
    for k in range(1, len(steps) + 2):
        assert set(series.at(k).pairs()) == steps[min(k, len(steps)) - 1]
    assert [set(rel.pairs()) for rel in series] == steps
    assert series.emptied_at == (len(steps) if steps[0] and not steps[-1] else None)
    states = m.states
    n = len(states)
    assert len(series.layers) == len(steps) - 1
    for k, layer in enumerate(series.layers, 2):
        assert set(layer) == {states.index(i) * n + states.index(j)
                              for (i, j) in steps[k - 2] - steps[k - 1]}
    changed = [p for layer in series.layers for p in layer]
    assert len(set(changed)) == len(changed)


def hub_machine():
    """A hub h with 20 a-labelled successors and 20 b-labelled predecessors.
    Successor k leads into a chain of k % 4 more a-states that dead-ends,
    and predecessor k is reached through a chain of k % 4 more b-states from
    a source; the last chain of each side ends (resp. starts) in a loop, so
    one support of (h, h) lasts in each direction.  Every b-state is
    initial and the first successor is critical."""
    label, trans = {"h": "h"}, []
    for k in range(20):
        succ = ["s%02d" % k] + ["s%02d_%d" % (k, d) for d in range(k % 4)]
        pred = ["p%02d" % k] + ["p%02d_%d" % (k, d) for d in range(k % 4)]
        label.update({s: "a" for s in succ})
        label.update({p: "b" for p in pred})
        trans += [("h", succ[0]), (pred[0], "h")]
        trans += list(zip(succ, succ[1:])) + [(b, a) for a, b in zip(pred, pred[1:])]
        if k == 19:
            trans += [(succ[-1], succ[-1]), (pred[-1], pred[-1])]
    initial = [s for s, y in label.items() if y == "b"]
    return Fsm(label, initial, label, trans, ["s00"])


@pytest.mark.parametrize("forward", [True, False])
@pytest.mark.parametrize("which", ["pi", "s_star", "avoid", "random"])
def test_shrink_counts_wider_than_a_byte(forward, which):
    # (h, h) has up to 20 x 20 supports, more than a byte holds, and most of
    # them leave over the first steps
    m = hub_machine()
    pi, s_star = m.pi, s_series(m).fixed_point
    if which == "pi":
        seed = pi
    elif which == "s_star":
        seed = s_star
    elif which == "avoid":
        seed = _avoid_seed(m, s_star)
    else:   # most of Pi and a few other pairs, not symmetric
        rng = random.Random(5)
        pairs = [(i, j) for i in m.states for j in m.states
                 if rng.random() < (0.9 if (i, j) in pi else 0.02)]
        seed = PairRelation.from_pairs(m.universe, pairs + [("h", "h")])
        assert not seed.is_symmetric()
    step = m.succ if forward else m.pre
    assert sum((a, b) in seed for a in step("h") for b in step("h")) > 255
    assert_shrink_matches_reference(m, seed, forward)


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


def both_ways(run):
    """``run()`` with the shrink engine on its cone path and on its product
    path, whatever the branching factor of any machine would select."""
    out = []
    for branching in (0.0, 1.0):
        with mock.patch.object(Fsm, "pair_branching", property(lambda m, b=branching: b)):
            out.append(run())
    return out


def assert_cone_is_the_full_series_there(m, seed, forward, within):
    cone, full = both_ways(lambda: _shrink(m, seed, forward, within))
    step = m.succ if forward else m.pre
    assert cone.first.issubset(seed) and cone.first & within == seed & within
    # the cone holds every support of its pairs
    for i, j in cone.first:
        assert all((a, b) in cone.first for a in step(i) for b in step(j) if (a, b) in seed)
    n = len(m.states)
    keep = bit_flags(cone.first.bits, n * n)
    layers = [[p for p in layer if keep[p]] for layer in full.layers]
    while layers and not layers[-1]:
        layers.pop()
    assert cone.layers == layers
    assert cone.fixed_point == full.fixed_point & cone.first


@given(st.one_of([analysis_machines(max_states=7, outputs=o) for o in ("ab", "abcd", "abcdefgh")]),
       st.data())
@COMMON
def test_cone_and_product_paths_agree(m, data):
    # Lambda and Gamma are the same on either path of the shrink engine
    s_star = s_series(m).fixed_point
    cone, product = both_ways(lambda: [(s.first, s.fixed_point, s.layers) for s in
                                       (lambda_series(m, s_star), gamma_series(m, s_star))])
    assert cone == product
    # on any seed, the cone series is the full series restricted to the cone
    seed = data.draw(st.sampled_from([m.pi, _avoid_seed(m, s_star)]))
    pair = st.tuples(st.sampled_from(m.states), st.sampled_from(m.states))
    within = PairRelation.from_pairs(m.universe, data.draw(st.sets(pair)))
    assert_cone_is_the_full_series_there(m, seed, data.draw(st.booleans()), within)
    # the branching factor is the mean number of equal-label neighbour pairs
    # per pair of Pi, forward and backward
    pi = m.pi.pairs()
    for step in (m.succ, m.pre):
        total = sum(m.label[a] == m.label[b] for i, j in pi for a in step(i) for b in step(j))
        assert m.pair_branching == pytest.approx(total / len(pi))


def verdict_outcome(m, kind, a=None):
    """Everything ``check`` says about ``kind`` on m, or the error it raises."""
    try:
        v = check(m, kind, a)
    except UsageError as exc:
        return str(exc)
    return (v.holds, v.params, v.witness, v.frontier, v.bfgl)


@given(st.one_of([analysis_machines(max_states=7, outputs=o) for o in ("ab", "abcd", "abcdefgh")]),
       st.booleans(), st.permutations(list(PropertyKind)))
@COMMON
def test_cone_and_product_paths_give_the_same_verdicts(m, critical_initial, order):
    # the checks that read F, B and B~ on mixed pairs only read views of
    # them, which cover only a cone on the cone path; initial-obs needs
    # every critical state initial
    if critical_initial:
        m = m.replace(initial=m.initial | m.critical)
    fresh = both_ways(lambda: {kind: verdict_outcome(m, kind) for kind in PropertyKind})
    assert fresh[0] == fresh[1]

    def shared():
        a = Analysis(m)
        return {kind: verdict_outcome(m, kind, a) for kind in order}
    assert both_ways(shared) == fresh


@pytest.mark.parametrize("forward", [True, False])
def test_cone_counts_wider_than_a_byte(forward):
    # (h, h) has more supports than a byte holds
    m = hub_machine()
    within = PairRelation.from_pairs(m.universe, [("h", "h"), ("s00", "s01")])
    assert_cone_is_the_full_series_there(m, m.pi, forward, within)


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


def _scan(a, prop):
    """(fixed relation, (B, F, Gamma, Lambda) series or None) of a property's
    frontier search."""
    full = PairRelation.full(a.m.universe)
    mixed_init = product_relation(a.m.universe, a.m.initial, a.m.initial) & a.m.mixed
    return {"parametric": (full, (a.b_tilde, a.f, None, a.lam)),
            "diag": (a.s_tilde.fixed_point, (None, a.f, None, a.lam)),
            "eventual": (full, (a.b, a.f, a.gam, a.lam)),
            "eventual-obs": (a.pi & a.lam.at(1), (a.b, None, a.gam, None)),
            "exact-step": (a.m.mixed, (a.b, a.f, None, None)),
            "initial-obs": (mixed_init, (None, a.f, None, None))}[prop]


#: each property's parameters at the index tuple (b, f, g, l), written out
FORMULAS = {
    "parametric": lambda b, f, g, l: DiagParams(b - 1, max(f, l) - 1, 0, l - 1, l - 1),
    "diag": lambda b, f, g, l: DiagParams(0, max(f, l) - 1, 0, l - 1, l - 1),
    "eventual": lambda b, f, g, l: DiagParams(max(b, g) - 1, max(f, l) - 1, None, g - 1, l - 1),
    "eventual-obs": lambda b, f, g, l: DiagParams(max(b, g) - 1, 0, None, g - 1, 0),
    "exact-step": lambda b, f, g, l: DiagParams(b - 1, f - 1, None, 0, 0),
    "initial-obs": lambda b, f, g, l: DiagParams(0, f - 1, 0, 0, 0),
}


def _brute_frontier(fixed, series):
    """Pareto-minimal (b, f, g, l) over every index tuple, each step read
    with ``at``; an absent series has the one index 1."""
    steps = [[None] if s is None else [s.at(k) for k in range(1, s.convergence_step + 1)]
             for s in series]
    empty = []
    for picked in itertools.product(*(enumerate(level, 1) for level in steps)):
        rel = fixed
        for _, step in picked:
            rel = rel if step is None else rel & step
        if not rel:
            empty.append(tuple(k for k, _ in picked))
    return sorted(t for t in empty
                  if not any(o != t and all(x <= y for x, y in zip(o, t)) for o in empty))


@given(analysis_machines(max_states=7))
@settings(COMMON, max_examples=200)
def test_frontier_and_headline_against_brute_force(m):
    for prop, formula in FORMULAS.items():
        mp = m.replace(initial=m.initial | m.critical) if prop == "initial-obs" else m
        a = Analysis(mp)
        v = check(mp, prop, a)
        if not v.holds:
            continue
        frontier = _brute_frontier(*_scan(a, prop))
        assert v.frontier is None or list(v.frontier) == frontier, prop
        candidates = frontier
        if prop == "eventual":
            # b* and f*: the steps after which B and F remove no pair of S*
            s_star = a.s.fixed_point
            f_star = next(k for k in itertools.count(1)
                          if a.f.at(k) & s_star == a.f.fixed_point & s_star)
            candidates = sorted({(a.b.convergence_step, f_star, g, l)
                                 for _, _, g, l in frontier})
        if prop == "eventual-obs":
            assert v.bfgl in frontier
        else:
            def rank(t):
                p = formula(*t)
                return (p.tau, p.delta, p.gamma1 + p.gamma2)
            assert v.bfgl == min(candidates, key=rank), prop
        assert v.params == formula(*v.bfgl), prop


def verdict_facts(m):
    """(holds, params, frontier, bfgl) of every property on m.  initial-obs,
    which needs every critical state initial, is checked with the critical
    states made initial."""
    facts = {}
    for kind in PropertyKind:
        mk = m.replace(initial=m.initial | m.critical) if kind is PropertyKind.INITIAL_OBS else m
        v = check(mk, kind)
        facts[kind] = (v.holds, v.params, v.frontier, v.bfgl)
    return facts


def with_unreached_state(m, data):
    """m plus a state x that sorts after every state, is not initial and has
    no in-edge."""
    succs = data.draw(st.sets(st.sampled_from(m.states), min_size=1))
    return Fsm(m.states + ("x",), m.initial, {**m.label, "x": data.draw(st.sampled_from("ab"))},
               m.trans | {("x", t) for t in succs}, m.critical)


@given(analysis_machines(max_states=7), st.data())
@COMMON
def test_a_state_no_execution_reaches_changes_no_verdict(m, data):
    mx = with_unreached_state(m, data)
    for kind in PropertyKind:
        pair = (m, mx)
        if kind is PropertyKind.INITIAL_OBS:    # which needs every critical state initial
            pair = [y.replace(initial=y.initial | y.critical) for y in pair]
        assert check(pair[0], kind) == check(pair[1], kind), kind


def walk_output(m, picks):
    """The output of a walk of m: ``picks[0]`` chooses the initial state and
    each later pick a successor of the last state, among the sorted ones."""
    walk = [sorted(m.initial)[picks[0] % len(m.initial)]]
    for pick in picks[1:]:
        after = sorted(m.succ(walk[-1]))
        walk.append(after[pick % len(after)])
    return [m.label[s] for s in walk]


@given(analysis_machines(max_states=7), st.data(),
       st.lists(st.integers(0, 5), min_size=1, max_size=30))
@COMMON
def test_a_state_no_execution_reaches_changes_no_event(m, data, picks):
    # the stream is the output of a walk of m, which never enters x
    mx = with_unreached_state(m, data)
    symbols = walk_output(m, picks)
    for prop in ("parametric", "diag", "eventual", "critical"):
        v = check(m, prop)
        if v.holds:
            assert observe(m, v, symbols)[1] == observe(mx, check(mx, prop), symbols)[1], prop


@given(analysis_machines(max_states=7), st.permutations(range(7)))
@COMMON
def test_renaming_states_changes_no_verdict(m, perm):
    # the new names sort in another order, so the pairs get other indices
    name = {s: "s%d" % p for s, p in zip(m.states, perm)}
    renamed = Fsm([name[s] for s in m.states], {name[s] for s in m.initial},
                  {name[s]: y for s, y in m.label.items()},
                  {(name[a], name[b]) for a, b in m.trans}, {name[s] for s in m.critical})
    assert verdict_facts(renamed) == verdict_facts(m)


def with_bisimilar_copy(m, data):
    """m plus a state x that copies a drawn state s: its label, successors,
    predecessors and initial and critical flags; merging x back into s
    gives m."""
    s = data.draw(st.sampled_from(m.states))

    def twins(t):
        return (t, "x") if t == s else (t,)

    return Fsm(m.states + ("x",), m.initial | ({"x"} if s in m.initial else set()),
               {**m.label, "x": m.label[s]},
               {(a2, b2) for a, b in m.trans for a2 in twins(a) for b2 in twins(b)},
               m.critical | ({"x"} if s in m.critical else set()))


@given(analysis_machines(max_states=7), st.data())
@COMMON
def test_a_bisimilar_copy_of_a_state_changes_no_verdict(m, data):
    assert verdict_facts(with_bisimilar_copy(m, data)) == verdict_facts(m)


@given(analysis_machines(max_states=7), st.data(),
       st.lists(st.integers(0, 5), min_size=1, max_size=30))
@COMMON
def test_a_bisimilar_copy_of_a_state_changes_no_event(m, data, picks):
    # the copy has the same executions up to renaming x to s, so the same
    # outputs; the stream is the output of a walk of m
    copied = with_bisimilar_copy(m, data)
    symbols = walk_output(m, picks)
    for prop in ("parametric", "diag", "eventual", "critical"):
        v = check(m, prop)
        if v.holds:
            events = observe(copied, check(copied, prop), symbols)[1]
            assert observe(m, v, symbols)[1] == events, prop


def avoids_window(m, symbols, lo, hi):
    """Whether some execution from X0 that produces ``symbols`` is outside
    the critical set at every step of [lo, hi]: a forward sweep of the
    states such executions can be in, step by step."""
    cur = {s for s in m.initial if m.label[s] == symbols[0]}
    for k, y in enumerate(symbols, 1):
        if k > 1:
            cur = {t for s in cur for t in m.succ(s) if m.label[t] == y}
        if lo <= k <= hi:
            cur -= m.critical
    return bool(cur)


@given(st.one_of([analysis_machines(max_states=6, outputs=o) for o in ("ab", "abc")]),
       st.lists(st.integers(0, 5), min_size=1, max_size=12))
@COMMON
def test_event_windows_hold_a_crossing_on_every_execution(m, picks):
    """An event found at step k with window [lo, hi] is sound: every
    execution of length k from X0 with the stream's outputs is critical at
    some step of [lo, hi].  parametric is left out: its estimate also holds
    states that only executions which crossed inside the transient reach,
    so its windows can miss every crossing of an execution."""
    symbols = walk_output(m, picks)
    for prop in ("diag", "eventual", "critical"):
        v = check(m, prop)
        if v.holds:
            for ev in observe(m, v, symbols)[1]:
                assert not avoids_window(m, symbols[:ev.detected_at], *ev.window), (prop, ev)


@given(analysis_machines(max_states=6, outputs="abc"))
@COMMON
def test_eventual_obs_params_pass_the_definition(m):
    v = check(m, "eventual-obs")
    assume(v.holds)
    try:
        out = check_definition(m, "eventual-obs", v.params,
                               Horizon(v.params.tau + 2 * len(m.states) + 2, budget=200_000))
    except BudgetExceededError:
        assume(False)
    assert not out.violated, (m, v.params, out.counterexample)


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


@given(machines(max_states=7), st.integers(0, 5),
       st.lists(st.integers(0, 3), min_size=1, max_size=12),
       st.one_of(st.none(), st.integers(1, 4)), st.data())
@settings(COMMON, max_examples=200)
def test_estimate_is_exact(m, lag, picks, cap, data):
    # at step k the estimate is {x[k - lag] : x an execution from the initial
    # set whose outputs are the stream so far}, clamped to step 1 while
    # k <= lag; the last lag + 1 states of those executions decide it.  A
    # rejected symbol leaves the session as if it had never been sent.  Most
    # symbols are the output of a possible next state, the rest (pick 0) any
    # of a, b and the unknown z.  A small memo cap makes the estimator's
    # caches evict mid-stream; None keeps the default cap.
    verdict = DiagVerdict(PropertyKind.EVENTUAL, True,
                          params=DiagParams(0, lag, None, 0, 0),
                          bfgl=(1, lag + 1, 1, 1))
    with mock.patch.object(diagnoser, "MEMO_CAP", cap or diagnoser.MEMO_CAP):
        est = Estimator(m, verdict)
        tails, k = {()}, 0
        for pick in picks:
            moves = [(t, u) for t in tails for u in (m.succ(t[-1]) if t else m.initial)]
            y = data.draw(st.sampled_from(sorted({m.label[u] for _, u in moves})
                                          if pick else "abz"))
            nxt = {(t + (u,))[-(lag + 1):] for t, u in moves if m.label[u] == y}
            if nxt:
                est.step(y)
                tails, k = nxt, k + 1
            else:
                error = UsageError if y not in m.outputs else InconsistentObservationError
                with pytest.raises(error):
                    est.step(y)
            assert est.k == k
            if k:
                assert est.current_estimate() == {t[0] for t in tails}


@st.composite
def removable_machines(draw, max_states=6, min_succ=2, live=False):
    """Machines valid for desilent by construction, with at least one silent
    state: state 0 and every initial state speak, some other state is
    silent, every state draws min_succ to three successors, and
    silent-to-silent transitions only go up in state order, so no silent run
    is a cycle.  With two or more successors drawn, many silent states are
    mixed (a silent and a non-silent successor).  If ``live``, a silent
    state whose drawn successors were all dropped steps to state 0, so every
    state has a successor."""
    n = draw(st.integers(3, max_states))
    states = [str(i) for i in range(n)]
    label = {s: draw(st.sampled_from("ab__")) for s in states}
    label["0"] = "a"
    label[draw(st.sampled_from(states[1:]))] = "_"
    initial = {"0"} | {s for s in draw(st.sets(st.sampled_from(states))) if label[s] != "_"}
    trans = {(s, t) for s in states
             for t in draw(st.sets(st.sampled_from(states), min_size=min_succ, max_size=3))
             if not (label[s] == label[t] == "_" and int(t) <= int(s))}
    if live:
        trans |= {(s, "0") for s in set(states) - {a for a, _ in trans}}
    critical = draw(st.sets(st.sampled_from(states), max_size=n - 1))
    return Fsm(states, initial, label, trans, critical)


@given(machines(max_states=7))
@COMMON
def test_desilent_keeps_a_machine_without_silent_states(m):
    result = desilent(m)
    assert result.m_hat == m
    assert result.provenance == {}


@given(removable_machines(max_states=5, min_succ=1, live=True))
@COMMON
def test_desilent_language_preserved(m):
    assert validate(m, "desilent").ok
    assert m.silent_states
    result = desilent(m)
    assert not result.m_hat.silent_states
    assert output_language(m, 5) == output_language(result.m_hat, 5)


def assert_images_of_executions(m):
    """Every execution of m from an initial state, up to 6 states long,
    that some infinite execution extends, maps to an execution of
    desilent(m) from an initial state with the same outputs.  Each image state stands for one block, a
    non-silent state and the silent run after it: the image of a finished
    block is critical exactly when the block touched the critical set, and
    the image of the last block is critical when it did."""
    # states from which an execution goes on for |X| more states, so forever
    goes_on = set(m.states)
    for _ in m.states:
        goes_on = {s for s in goes_on if m.succ(s) & goes_on}
    try:
        result = desilent(m)
    except PreconditionError:
        assert not goes_on
        return
    mh = result.m_hat
    for name, (q, w, crossed) in result.provenance.items():
        assert m.is_silent(q) and not m.is_silent(w)
    for length in range(1, 7):
        for x in enumerate_executions(m, m.initial, length):
            if x[-1] not in goes_on:    # a prefix of no infinite execution
                continue
            img = execution_image(result, m, x)
            assert is_execution(mh, img) and img[0] in mh.initial
            assert output_of(mh, img) == output_of(m, x)
            starts = [i for i, s in enumerate(x) if not m.is_silent(s)]
            touched = [any(s in m.critical for s in x[i:j])
                       for i, j in zip(starts, starts[1:] + [len(x)])]
            critical = [s in mh.critical for s in img]
            assert critical[:-1] == touched[:-1]
            assert critical[-1] or not touched[-1]


@given(removable_machines(max_states=5, min_succ=1))
@COMMON
def test_desilent_maps_every_execution(m):
    assert validate(m, "desilent").ok
    assert m.silent_states
    assert_images_of_executions(m)


@given(removable_machines())
@COMMON
def test_desilent_maps_every_execution_through_mixed_states(m):
    assert validate(m, "desilent").ok
    assert_images_of_executions(m)


@given(removable_machines(max_states=5, min_succ=1))
@COMMON
def test_silent_runs_match_enumeration(m):
    assert validate(m, "desilent").ok
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
