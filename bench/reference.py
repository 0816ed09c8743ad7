"""Reference relations and languages, written from the definitions.

Everything here uses plain Python sets of state pairs and its own reader of
the ``fsm v1`` text format; nothing is imported from ``fsmdiag``.  The
benchmark checks the program's answers against these computations, so a
fault shared by the two would have to be made twice, independently.

Definitions (X states, X0 initial, Omega critical, h the output map):

* Pi = {(i, j) : h(i) = h(j)}.
* S_1 = (X0 x X0) & Pi; S_{k+1} = S_k | {(a, b) : (i, j) in S_k,
  a in succ(i), b in succ(j), h(a) = h(b)}.  S~ is S on the machine with
  every transition leaving a critical state removed.
* A shrinking recursion with seed R_1 and neighbour map N keeps
  R_{k+1} = {(i, j) in R_k : (N(i) x N(j)) & R_k nonempty}.
  F: seed Pi, N = succ.  B: seed S*, N = pred.  B~: seed S~*, N = pred of
  the restricted machine.
* Lambda (Gamma) shrinks the seed (X x (X - Omega)) & S* with N = succ
  (pred); the reported relation at step k is the symmetric closure of its
  restriction to Omega x (X - Omega).

The convergence step of a series is the least k whose relation equals the
fixed point.
"""

from __future__ import annotations

SILENT = "_"


class Machine:
    """A machine as plain dicts and sets."""

    def __init__(self, states, initial, label, trans, critical):
        self.states = sorted(states)
        self.initial = set(initial)
        self.label = dict(label)
        self.trans = set(trans)
        self.critical = set(critical)
        self.succ = {s: set() for s in self.states}
        self.pred = {s: set() for s in self.states}
        for a, b in self.trans:
            self.succ[a].add(b)
            self.pred[b].add(a)

    def restricted(self):
        """The same machine without transitions out of critical states."""
        keep = {(a, b) for (a, b) in self.trans if a not in self.critical}
        return Machine(self.states, self.initial, self.label, keep, self.critical)


def parse(text):
    """Read the ``fsm v1`` text format into a Machine."""
    lines = [raw.split("#", 1)[0].split() for raw in text.splitlines()]
    lines = [toks for toks in lines if toks]
    if not lines or lines[0] != ["fsm", "v1"]:
        raise ValueError("missing fsm v1 header")
    states, initial, critical, label, trans = [], set(), set(), {}, set()
    for toks in lines[1:]:
        if toks[0] == "state":
            sid = toks[1]
            states.append(sid)
            for flag in toks[2:]:
                if flag.startswith("output="):
                    label[sid] = flag[len("output="):]
                elif flag == "init":
                    initial.add(sid)
                elif flag == "critical":
                    critical.add(sid)
                else:
                    raise ValueError("unknown attribute %r" % flag)
        elif toks[0] == "trans":
            trans.add((toks[1], toks[2]))
        else:
            raise ValueError("unknown directive %r" % toks[0])
    return Machine(states, initial, label, trans, critical)


class Series:
    """The relations R_1, R_2, ... of one recursion, up to convergence."""

    def __init__(self, steps):
        self.steps = steps             # list of frozensets, steps[k - 1] = R_k
        self.fixed_point = steps[-1]
        self.convergence_step = len(steps)

    def at(self, k):
        return self.steps[min(k, len(self.steps)) - 1]


def _run(first, step):
    """Iterate step from first until it returns its argument unchanged."""
    steps = [frozenset(first)]
    while True:
        nxt = frozenset(step(steps[-1]))
        if nxt == steps[-1]:
            return Series(steps)
        steps.append(nxt)


def pi(m):
    return {(i, j) for i in m.states for j in m.states if m.label[i] == m.label[j]}


def s_series(m):
    first = {(i, j) for i in m.initial for j in m.initial
             if m.label[i] == m.label[j]}

    def grow(cur):
        out = set(cur)
        for i, j in cur:
            for a in m.succ[i]:
                for b in m.succ[j]:
                    if m.label[a] == m.label[b]:
                        out.add((a, b))
        return out

    return _run(first, grow)


def shrink_series(first, neighbours):
    def shrink(cur):
        return {(i, j) for (i, j) in cur
                if any((a, b) in cur for a in neighbours[i] for b in neighbours[j])}

    return _run(first, shrink)


def symmetric(rel):
    return set(rel) | {(j, i) for (i, j) in rel}


class Projected:
    """Lambda or Gamma: the mixed, symmetrically closed view of a base series."""

    def __init__(self, base, m):
        self.base = base
        self.critical = m.critical
        self.steps = [self._project(r) for r in base.steps]
        self.fixed_point = self.steps[-1]
        self.convergence_step = self.steps.index(self.fixed_point) + 1

    def _project(self, rel):
        return frozenset(symmetric({(i, j) for (i, j) in rel
                                    if i in self.critical and j not in self.critical}))

    def at(self, k):
        return self.steps[min(k, len(self.steps)) - 1]


class Reference:
    """Every relation of one machine, computed from the definitions."""

    def __init__(self, m):
        self.m = m
        self.pi = frozenset(pi(m))
        self.s = s_series(m)
        restricted = m.restricted()
        self.s_tilde = s_series(restricted)
        self.f = shrink_series(self.pi, m.succ)
        self.b = shrink_series(self.s.fixed_point, m.pred)
        self.b_tilde = shrink_series(self.s_tilde.fixed_point, restricted.pred)
        avoid = {(i, j) for (i, j) in self.s.fixed_point if j not in m.critical}
        self.lam = Projected(shrink_series(avoid, m.succ), m)
        self.gam = Projected(shrink_series(avoid, m.pred), m)
        self.block = frozenset((i, j) for i in m.states for j in m.states
                               if (i in m.critical) == (j in m.critical))
        self.init_sq = frozenset((i, j) for i in m.initial for j in m.initial)

    def sets(self):
        """Fixed point and convergence step of each relation ``sets`` prints."""
        out = {"Pi": (self.pi, None)}
        for name, ser in (("S", self.s), ("Stilde", self.s_tilde), ("F", self.f),
                          ("B", self.b), ("Lambda", self.lam), ("Gamma", self.gam)):
            out[name] = (ser.fixed_point, ser.convergence_step)
        return out


# -- output languages --------------------------------------------------------

def _visible_successors(m):
    """For each state, the non-silent states reachable in one or more steps
    whose intermediate states are all silent."""
    out = {}
    for s in m.states:
        seen, stack, found = set(), list(m.succ[s]), set()
        while stack:
            t = stack.pop()
            if t in seen:
                continue
            seen.add(t)
            if m.label[t] == SILENT:
                stack.extend(m.succ[t])
            else:
                found.add(t)
        out[s] = found
    return out


def _entry_states(m, vis):
    """Non-silent states an execution can first emit from."""
    out = {s for s in m.initial if m.label[s] != SILENT}
    for s in m.initial:
        if m.label[s] == SILENT:
            out |= vis[s]
    return out


def language_difference(m1, m2, max_len):
    """A nonempty output string of length at most max_len produced by one
    machine and not the other, or None if their languages agree up to that
    length.  Subset construction on both machines in lockstep; silent
    states are passed through."""
    v1, v2 = _visible_successors(m1), _visible_successors(m2)

    def split(m, states):
        by = {}
        for s in states:
            by.setdefault(m.label[s], set()).add(s)
        return by

    level = {(): (frozenset(_entry_states(m1, v1)), frozenset(_entry_states(m2, v2)))}
    seen = set()
    for _ in range(max_len):
        nxt = {}
        for word, (a, b) in level.items():
            ya, yb = split(m1, a), split(m2, b)
            if set(ya) != set(yb):
                extra = (set(ya) ^ set(yb)).pop()
                return word + (extra,)
            for y in sorted(ya):
                pair = (frozenset(t for s in ya[y] for t in v1[s]),
                        frozenset(t for s in yb[y] for t in v2[s]))
                if pair not in seen:
                    seen.add(pair)
                    nxt[word + (y,)] = pair
        level = nxt
    return None
