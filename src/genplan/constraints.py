"""Trajectory constraints: sets of infinite observation- or state-action
sequences, as first-class objects.

Constraints restrict infinite behavior only; every finite trajectory
satisfies every constraint.  LTL constraints interleave observations and
actions strictly; the qualitative-numerical constraint for a variable is
phrased over effect tags, so "a decrement happens" means "an action with
a decrement effect on that variable occurs".
"""

from __future__ import annotations

from dataclasses import dataclass

from . import ltl as L
from .errors import (
    AlphabetMismatchError,
    NotLtlExpressibleError,
    UnknownVariableError,
)
from .ltl import _sccs
from .model import FiniteTrajectory, is_fair
from .projection import lift_trajectory


@dataclass(frozen=True)
class TrajectoryConstraint:
    """A named constraint: an LTL formula template over the ambient
    alphabet, the structural fairness constraint, or an explicit lasso
    predicate (test oracle only)."""

    kind: str  # "ltl" | "fairness" | "explicit"
    name: str
    level: str = "observation"  # "observation" | "state"
    formula: object = None  # concrete LTL formula, for kind == "ltl"
    template: tuple = None  # ("qnp", var, strong) for bound-at-use formulas
    predicate: object = None  # lasso -> bool, for kind == "explicit"

    def __post_init__(self):
        if self.kind not in ("ltl", "fairness", "explicit"):
            raise ValueError(f"unknown constraint kind {self.kind!r}")


def ltl_constraint(formula, name=None, level="observation"):
    return TrajectoryConstraint(
        kind="ltl", name=name or L.pretty(formula), level=level, formula=formula
    )


ALL_TRAJECTORIES = ltl_constraint(L.TRUE, name="all")


def explicit_constraint(predicate, name):
    return TrajectoryConstraint(kind="explicit", name=name, predicate=predicate)


def fairness_constraint(p=None):
    """The structural fairness constraint: infinitely recurring transitions
    see all their sibling outcomes infinitely often."""
    return TrajectoryConstraint(kind="fairness", name="fairness", level="state")


def qnp_constraint(var, strong=False):
    """The per-variable constraint: infinitely many decrements with finitely
    many increments force the variable to be zero infinitely often.  The
    ``strong`` variant instead requires eventually reaching zero and staying
    there; it is exposed for experimentation and carries no transfer
    guarantees."""
    name = f"qnp_strong({var})" if strong else f"qnp({var})"
    return TrajectoryConstraint(
        kind="ltl", name=name, level="observation", template=("qnp", var, strong)
    )


def qnp_constraints(variables, strong=False):
    return tuple(qnp_constraint(v, strong=strong) for v in sorted(variables, key=str))


def conjoin(constraints, name=None):
    """Conjunction of LTL constraints, bound at use against the problem."""
    constraints = tuple(constraints)
    if not constraints:
        return ALL_TRAJECTORIES
    if len(constraints) == 1:
        return constraints[0]
    return TrajectoryConstraint(
        kind="ltl",
        name=name or " & ".join(c.name for c in constraints),
        level="observation",
        template=("and",) + constraints,
    )


# ---------------------------------------------------------------------------
# Binding templates to a problem's alphabet
# ---------------------------------------------------------------------------


def _effect_letters(p, var, effect):
    effects = p.annotations.get("action_effects", {})
    out = [a for a in sorted(p.actions, key=str) if effects.get(a, {}).get(var) == effect]
    return out


def _zero_letters(p, var):
    zero = p.annotations.get("obs_zero", {})
    return [o for o in sorted(p.observations, key=str) if var in zero.get(o, ())]


def _nonzero_letters(p, var):
    zero = p.annotations.get("obs_zero", {})
    return [o for o in sorted(p.observations, key=str) if var not in zero.get(o, ())]


def _known_variables(p):
    out = set(p.annotations.get("variables", ()))
    for eff in p.annotations.get("action_effects", {}).values():
        out.update(eff)
    for vs in p.annotations.get("obs_zero", {}).values():
        out.update(vs)
    return out


def constraint_formula(c, p):
    """The concrete LTL formula of an LTL constraint over the alphabet of
    ``p`` (observations and actions)."""
    if c.kind != "ltl":
        raise NotLtlExpressibleError(f"constraint {c.name!r} is not an LTL constraint")
    if c.formula is not None:
        return c.formula
    tag = c.template[0]
    if tag == "and":
        return L.land(*[constraint_formula(ci, p) for ci in c.template[1:]])
    _, var, strong = c.template
    if var not in _known_variables(p):
        raise UnknownVariableError(
            f"variable {var!r} has no effect tags or zero atoms in the problem"
        )
    inc = L.lor(*[L.Letter(a) for a in _effect_letters(p, var, "inc")])
    dec = L.lor(*[L.Letter(a) for a in _effect_letters(p, var, "dec")])
    zero = L.lor(*[L.Letter(o) for o in _zero_letters(p, var)])
    antecedent = L.And(L.eventually(L.always(L.lnot(inc))), L.always(L.eventually(dec)))
    if strong:
        nonzero = L.lor(*[L.Letter(o) for o in _nonzero_letters(p, var)])
        consequent = L.eventually(L.always(L.lnot(nonzero)))
    else:
        consequent = L.always(L.eventually(zero))
    return L.implies(antecedent, consequent)


def constraint_alphabet(c, p):
    if c.level == "state":
        return frozenset(set(p.states) | set(p.actions))
    return frozenset(set(p.observations) | set(p.actions))


def fairness_to_ltl(p, budget=2000):
    """State-level LTL encoding of fairness: one implication per
    nondeterministic transition pair.  Only viable for small problems."""
    conjuncts = []
    for (a, s), targets in sorted(p.succ.items(), key=lambda kv: (str(kv[0][0]), str(kv[0][1]))):
        if len(targets) < 2:
            continue
        trigger = L.always(L.eventually(L.And(L.Letter(s), L.Next(L.Letter(a)))))
        for t in sorted(targets, key=str):
            occ = L.always(
                L.eventually(
                    L.And(L.Letter(s), L.Next(L.And(L.Letter(a), L.Next(L.Letter(t)))))
                )
            )
            conjuncts.append(L.implies(trigger, occ))
    formula = L.land(*conjuncts)
    if formula.size > budget:
        raise NotLtlExpressibleError(
            f"fairness encoding has size {formula.size}, over budget {budget}"
        )
    return formula


# ---------------------------------------------------------------------------
# Satisfaction
# ---------------------------------------------------------------------------


def satisfies(c, t, p):
    """Whether a trajectory satisfies the constraint; finite trajectories
    satisfy every constraint.  Observation-level constraints auto-lift
    state-level lassos through the problem's observation function."""
    if isinstance(t, FiniteTrajectory):
        return True
    if c.kind == "explicit":
        return bool(c.predicate(t))
    if c.kind == "fairness":
        return is_fair(p, t)
    if c.level == "observation" and t.level == "state":
        t = lift_trajectory(p, t)
    word = t.word()
    sigma = constraint_alphabet(c, p)
    extra = word.symbol_set() - set(sigma)
    if extra:
        raise AlphabetMismatchError(f"lasso symbols outside alphabet: {sorted(extra)}")
    return L.eval_lasso(constraint_formula(c, p), word, sigma)


# ---------------------------------------------------------------------------
# Products with the transition structure of a problem
# ---------------------------------------------------------------------------


def _letter(c_level, p, s):
    return s if c_level == "state" else p.obs_fn[s]


def _conjunct_formulas(f):
    """Split top-level conjunctions; each conjunct gets its own automaton."""
    if isinstance(f, L.And):
        return _conjunct_formulas(f.left) + _conjunct_formulas(f.right)
    return [f]


def _dpw_for(c, p, negate, budget):
    from . import omega

    f = constraint_formula(c, p)
    if negate:
        f = L.lnot(f)
    sigma = constraint_alphabet(c, p)
    return omega.nba_to_dpw(L.ltl_to_nba(f, sigma, budget=budget), budget=budget), sigma


def _conjunct_nbas(c, p, budget):
    """One NBA per top-level conjunct of the bound formula; a word satisfies
    the constraint iff every conjunct automaton accepts it.  Keeps
    determinization tractable for conjunctions of per-variable constraints."""
    sigma = constraint_alphabet(c, p)
    return [
        L.ltl_to_nba(f, sigma, budget=budget)
        for f in _conjunct_formulas(constraint_formula(c, p))
    ]


def _trajectory_product(p, automata):
    """Layered product of p's trajectory structure with DPWs.

    ``automata`` is a list of (dpw, level) pairs.  Nodes are
    ("n", s, qs) before consuming the state/observation letter and
    ("m", s, a, qs) after it, pending the action letter; edges carry no
    labels beyond the structure.  Returns (inits, nodes, edges, prios)
    where prios gives the tuple of automaton priorities at each node.
    """
    def obs_step(s, qs):
        return tuple(
            d.delta[(q, _letter(level, p, s))] for (d, level), q in zip(automata, qs)
        )

    def act_step(a, qs):
        return tuple(d.delta[(q, a)] for (d, _), q in zip(automata, qs))

    inits = [("n", s, tuple(d.initial for d, _ in automata)) for s in sorted(p.init, key=str)]
    nodes = set(inits)
    edges = {}
    queue = list(inits)
    while queue:
        v = queue.pop()
        kind = v[0]
        outs = []
        if kind == "n":
            _, s, qs = v
            qs1 = obs_step(s, qs)
            for a in sorted(p.avail.get(s, ()), key=str):
                m = ("m", s, a, qs1)
                outs.append(m)
                if m not in nodes:
                    nodes.add(m)
                    queue.append(m)
        else:
            _, s, a, qs1 = v
            qs2 = act_step(a, qs1)
            for s2 in sorted(p.succ[(a, s)], key=str):
                n2 = ("n", s2, qs2)
                outs.append(n2)
                if n2 not in nodes:
                    nodes.add(n2)
                    queue.append(n2)
        edges[v] = outs

    def prios(v):
        qs = v[2] if v[0] == "n" else v[3]
        return tuple(d.priority[q] for (d, _), q in zip(automata, qs))

    return inits, nodes, edges, {v: prios(v) for v in nodes}


def _product_lasso(inits, edges, cycle):
    """Turn a bilayer product cycle into a state-level Lasso with a prefix
    from an initial node."""
    while cycle[0][0] != "n":
        cycle = cycle[1:] + cycle[:1]
    head = cycle[0]
    parent = {v: None for v in inits}
    queue = list(inits)
    while queue:
        v = queue.pop(0)
        if v == head:
            break
        for w in edges[v]:
            if w not in parent:
                parent[w] = v
                queue.append(w)
    chain = [head]
    while parent[chain[-1]] is not None:
        chain.append(parent[chain[-1]])
    chain.reverse()

    def unpack(seq):
        states, actions = [], []
        for v in seq:
            if v[0] == "n":
                states.append(v[1])
            else:
                actions.append(v[2])
        return states, actions

    pre_states, pre_actions = unpack(chain[:-1])
    cyc_states, cyc_actions = unpack(cycle)
    from .model import Lasso

    return Lasso(
        prefix_states=tuple(pre_states),
        prefix_actions=tuple(pre_actions),
        cycle_states=tuple(cyc_states),
        cycle_actions=tuple(cyc_actions),
    )


def _cycle_covering(comp, succ, tup, prio_of):
    """A concrete cycle within a strongly connected set visiting, for each
    automaton index, a node realizing the target priority."""
    want = []
    for i, pt in enumerate(tup):
        want.append(next(v for v in sorted(comp, key=str) if prio_of[v][i] == pt))
    start = want[0]
    cycle = []
    cur = start
    for goal in want[1:] + [start]:
        seg = _bfs_segment(cur, goal, comp, succ)
        if seg is None:
            return None
        cycle.extend(seg)
        cur = goal
    if not cycle:
        seg = _bfs_segment(start, start, comp, succ, nonempty=True)
        if seg is None:
            return None
        cycle = seg
    return [start] + cycle[:-1]


def _bfs_segment(src, goal, comp, succ, nonempty=False):
    """Nodes after ``src`` on a shortest path src -> goal inside comp
    (including goal); [] when src == goal and empty paths are allowed."""
    if src == goal and not nonempty:
        return []
    parent = {}
    queue = [src]
    seen = {src}
    while queue:
        u = queue.pop(0)
        for w in succ(u):
            if w == goal:
                seg = [w]
                while u != src:
                    seg.append(u)
                    u = parent[u]
                seg.reverse()
                return seg
            if w in comp and w not in seen:
                seen.add(w)
                parent[w] = u
                queue.append(w)
    return None


def _even_targets(prio_dicts):
    """Descending tuples of even priorities, one per automaton."""
    import itertools

    evens = [sorted({p for p in pd if p % 2 == 0}, reverse=True) for pd in prio_dicts]
    if any(not e for e in evens):
        return []
    return list(itertools.product(*evens))


# ---------------------------------------------------------------------------
# Implication
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ImplicationResult:
    holds: bool
    witness: object = None  # a Lasso of p satisfying c but not c_prime

    def __bool__(self):
        return self.holds


def implies(c, c_prime, p, budget=L.DEFAULT_BUDGET):
    """Whether every infinite trajectory of ``p`` satisfying ``c`` satisfies
    ``c_prime``; decided on the product of the problem's transition
    structure with the constraint automata.  A False result carries a
    witnessing lasso."""
    if c == c_prime:
        return ImplicationResult(holds=True)
    if c_prime.kind == "explicit" or c.kind == "explicit":
        raise NotLtlExpressibleError("explicit constraints support satisfaction only")

    if c_prime.kind == "fairness":
        c_prime = ltl_constraint(fairness_to_ltl(p), name="fairness", level="state")

    d_neg, _ = _dpw_for(c_prime, p, negate=True, budget=budget)

    if c.kind == "fairness":
        lasso = _fair_accepting_lasso(p, d_neg, c_prime.level)
        if lasso is not None:
            return ImplicationResult(holds=False, witness=lasso)
        return ImplicationResult(holds=True)

    from . import omega

    d_pos = [omega.nba_to_dpw(a, budget=budget) for a in _conjunct_nbas(c, p, budget)]
    automata = [(d, c.level) for d in d_pos] + [(d_neg, c_prime.level)]
    inits, nodes, edges, prio_of = _trajectory_product(p, automata)
    targets = _even_targets([set(d.priority.values()) for d, _ in automata])
    cycle = _find_even_cycle(nodes, lambda v: edges[v], prio_of, targets)
    if cycle is None:
        return ImplicationResult(holds=True)
    return ImplicationResult(holds=False, witness=_product_lasso(inits, edges, cycle))


def _find_even_cycle(nodes, succ_fn, prio_of, targets):
    for tup in targets:
        sub = {v for v in nodes if all(pv <= pt for pv, pt in zip(prio_of[v], tup))}

        def succ(v):
            return [w for w in succ_fn(v) if w in sub]

        for comp in _sccs(sorted(sub, key=str), succ):
            comp_set = set(comp)
            if len(comp) == 1 and comp[0] not in succ(comp[0]):
                continue
            if not all(
                any(prio_of[v][i] == pt for v in comp_set) for i, pt in enumerate(tup)
            ):
                continue
            cycle = _cycle_covering(comp_set, succ, tup, prio_of)
            if cycle is not None:
                return cycle
    return None


def _fair_accepting_lasso(p, dpw, level):
    """A fair lasso of ``p`` accepted by ``dpw``.

    Per even priority p_e, restrict the bilayer product to priorities
    <= p_e and refine to maximal move-closed strongly connected
    substructures (every move kept has all its outcomes inside); any such
    structure containing a p_e node yields the witness by covering all its
    edges in one closed walk, which makes the projected lasso fair.
    """
    inits, nodes, edges, prio_of = _trajectory_product(p, [(dpw, level)])

    def closed_components(node_set):
        """Maximal move-closed strongly connected substructures."""
        out = []
        stack = [frozenset(node_set)]
        while stack:
            cur = set(stack.pop())
            while True:
                keep = set()
                for v in cur:
                    if v[0] == "m":
                        continue
                    if any(
                        m in cur and all(w in cur for w in edges[m])
                        for m in edges[v]
                    ):
                        keep.add(v)
                pruned = {
                    v
                    for v in cur
                    if (v[0] == "n" and v in keep)
                    or (
                        v[0] == "m"
                        and all(w in cur and w in keep for w in edges[v])
                    )
                }
                if pruned == cur:
                    break
                cur = pruned
            if not cur:
                continue

            def succ(v, _cur=cur):
                if v[0] == "n":
                    return [
                        m
                        for m in edges[v]
                        if m in _cur and all(w in _cur for w in edges[m])
                    ]
                return [w for w in edges[v] if w in _cur]

            comps = _sccs(sorted(cur, key=str), succ)
            if len(comps) == 1 and set(comps[0]) == cur:
                comp = comps[0]
                if len(comp) > 1 or comp[0] in succ(comp[0]):
                    out.append((frozenset(cur), succ))
                continue
            for comp in comps:
                if len(comp) > 1 or comp[0] in succ(comp[0], frozenset(comp)):
                    stack.append(frozenset(comp))
        return out

    reach = set(inits)
    queue = list(inits)
    while queue:
        v = queue.pop()
        for w in edges[v]:
            if w not in reach:
                reach.add(w)
                queue.append(w)

    evens = sorted({q for q in dpw.priority.values() if q % 2 == 0}, reverse=True)
    for pe in evens:
        sub = {v for v in reach if prio_of[v][0] <= pe}
        for comp, succ in closed_components(sub):
            if not any(prio_of[v][0] == pe for v in comp):
                continue
            walk = _edge_covering_walk(comp, succ)
            if walk is not None:
                return _product_lasso(inits, edges, walk)
    return None


def _edge_covering_walk(comp, succ):
    """A closed walk covering every edge of the component (so every sibling
    outcome of every used move occurs on the cycle)."""
    nodes_sorted = sorted(comp, key=str)
    start = nodes_sorted[0]
    to_cover = [(u, w) for u in nodes_sorted for w in succ(u) if w in comp]
    if not to_cover:
        return None
    walk = [start]
    for u, w in to_cover:
        seg = _bfs_segment(walk[-1], u, comp, succ)
        if seg is None:
            return None
        walk.extend(seg)
        walk.append(w)
    seg = _bfs_segment(walk[-1], start, comp, succ)
    if seg is None:
        return None
    walk.extend(seg)
    return walk[:-1]


# ---------------------------------------------------------------------------
# Counterexample search for solving-under-a-constraint
# ---------------------------------------------------------------------------


def counterexample_search(p, c, start, edges, reach, budget=L.DEFAULT_BUDGET):
    """Find a goal-avoiding lasso of the policy product that satisfies the
    constraint, or None.  ``edges`` maps product nodes to (action, node)
    pairs and ``reach`` is the goal-free reachable region.

    The constraint is decomposed into conjuncts, each determinized on its
    own and on the fly, so only the automaton states the product reaches
    are built.
    """
    from . import omega

    if c.kind == "explicit":
        raise NotLtlExpressibleError(
            f"constraint {c.name!r} is an explicit predicate; it cannot back a "
            "solution check"
        )
    if c.kind == "fairness":
        return _fair_policy_lasso(p, start, edges, reach)

    dpws = [
        omega.LazyDpw(a, budget, stage="constraint-check determinization")
        for a in _conjunct_nbas(c, p, budget)
    ]
    return accepted_policy_lasso(p, c.level, dpws, start, edges, reach)


def accepted_policy_lasso(p, level, dpws, start, edges, reach):
    """A lasso of the policy product (arguments as for
    `counterexample_search`) accepted by every automaton in ``dpws``, or
    None: a cycle whose dominant priority is even in each of them at once.
    The automata are read only from their initial states on."""

    def letter(node):
        s = node[0]
        return s if level == "state" else p.obs_fn[s]

    inits = [("n", v, tuple(d.initial for d in dpws)) for v in start if v in reach]
    nodes = set(inits)
    bedges = {}
    queue = list(inits)
    while queue:
        x = queue.pop()
        outs = []
        if x[0] == "n":
            _, v, qs = x
            qs1 = tuple(d.delta[(q, letter(v))] for d, q in zip(dpws, qs))
            if edges[v]:
                a = edges[v][0][0]
                m = ("m", v, a, qs1)
                outs.append(m)
                if m not in nodes:
                    nodes.add(m)
                    queue.append(m)
        else:
            _, v, a, qs1 = x
            qs2 = tuple(d.delta[(q, a)] for d, q in zip(dpws, qs1))
            for act, v2 in edges[v]:
                if v2 not in reach:
                    continue
                n2 = ("n", v2, qs2)
                outs.append(n2)
                if n2 not in nodes:
                    nodes.add(n2)
                    queue.append(n2)
        bedges[x] = outs

    prio_of = {
        x: tuple(
            d.priority[q] for d, q in zip(dpws, x[2] if x[0] == "n" else x[3])
        )
        for x in nodes
    }
    # a cycle can only use priorities that occur on explored nodes
    targets = _even_targets(
        [{pr[i] for pr in prio_of.values()} for i in range(len(dpws))]
    )
    cycle = _find_even_cycle(nodes, lambda v: bedges[v], prio_of, targets)
    if cycle is None:
        return None
    return _policy_product_lasso(inits, bedges, cycle)


def _policy_product_lasso(inits, bedges, cycle):
    from .model import Lasso

    while cycle[0][0] != "n":
        cycle = cycle[1:] + cycle[:1]
    head = cycle[0]
    parent = {v: None for v in inits}
    queue = list(inits)
    while queue:
        v = queue.pop(0)
        if v == head:
            break
        for w in bedges[v]:
            if w not in parent:
                parent[w] = v
                queue.append(w)
    chain = [head]
    while parent[chain[-1]] is not None:
        chain.append(parent[chain[-1]])
    chain.reverse()

    def unpack(seq):
        states, actions = [], []
        for x in seq:
            if x[0] == "n":
                states.append(x[1][0])
            else:
                actions.append(x[2])
        return states, actions

    pre_states, pre_actions = unpack(chain[:-1])
    cyc_states, cyc_actions = unpack(cycle)
    return Lasso(
        prefix_states=tuple(pre_states),
        prefix_actions=tuple(pre_actions),
        cycle_states=tuple(cyc_states),
        cycle_actions=tuple(cyc_actions),
    )


def _fair_policy_lasso(p, start, edges, reach):
    """Fair goal-avoiding lasso under a policy: a bottom, outcome-closed
    strongly connected chunk of the goal-free region, covered edge by edge."""
    from .model import _fair_trap_lasso

    # nodes from which the goal region is unreachable
    can_exit = set()
    changed = True
    while changed:
        changed = False
        for v in reach:
            if v in can_exit:
                continue
            for _, w in edges[v]:
                if w not in reach or w in can_exit:
                    can_exit.add(v)
                    changed = True
                    break
    trapped = reach - can_exit
    if not trapped:
        return None
    return _fair_trap_lasso(start, edges, trapped)
