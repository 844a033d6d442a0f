"""Trajectory constraints: sets of infinite observation- or state-action
sequences, as first-class objects.

Constraints restrict infinite behavior only; every finite trajectory
satisfies every constraint.  LTL constraints interleave observations and
actions strictly; the qualitative-numerical constraint for a variable is
phrased over effect tags, so "a decrement happens" means "an action with
a decrement effect on that variable occurs".
"""

from __future__ import annotations

import itertools
from functools import partial
from dataclasses import dataclass

from . import graph
from . import ltl as L
from .errors import (
    AlphabetMismatchError,
    NotLtlExpressibleError,
    SizeBudgetExceededError,
    UnknownLetterError,
    UnknownVariableError,
)
from .model import (
    FiniteTrajectory, _fair_counterexample, _fair_pairs, _lasso, _pair_fair_lasso,
    _policy_streett_lasso, is_fair,
)
from .projection import lift_trajectory


@dataclass(frozen=True)
class TrajectoryConstraint:
    """A named constraint: an LTL formula template over the ambient
    alphabet, or the structural fairness constraint."""

    kind: str  # "ltl" | "fairness"
    name: str
    level: str = "observation"  # "observation" | "state"
    formula: object = None  # concrete LTL formula, for kind == "ltl"
    template: tuple = None  # ("qnp", var, strong) for bound-at-use formulas

    def __post_init__(self):
        if self.kind not in ("ltl", "fairness"):
            raise ValueError(f"unknown constraint kind {self.kind!r}")


def ltl_constraint(formula, name=None, level="observation"):
    return TrajectoryConstraint(
        kind="ltl", name=name or L.pretty(formula), level=level, formula=formula
    )


ALL_TRAJECTORIES = ltl_constraint(L.TRUE, name="all")


def fairness_constraint():
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


def constraint_formula(c, p, counter=None):
    """The concrete LTL formula of an LTL constraint over the alphabet of
    ``p`` (observations and actions).  The counter constraints of a
    template are bound by one ``counter`` function (`_counter_formula`)."""
    if c.kind != "ltl":
        raise NotLtlExpressibleError(
            f"constraint {c.name!r} is not an LTL constraint: synthesis takes "
            "LTL-expressible constraints, and `genplan plan` solves under fairness"
        )
    if c.formula is not None:
        return c.formula
    counter = counter or _counter_formula(p)
    if c.template[0] == "and":
        return L.land(*[constraint_formula(ci, p, counter) for ci in c.template[1:]])
    return counter(*c.template[1:])


def _counter_formula(p):
    """The function from (variable, strong) to the formula of its counter
    constraint over ``p``.  The known variables and the sorted actions and
    observations of ``p`` are read once, for all the variables it binds."""
    effects = p.annotations.get("action_effects", {})
    zero_obs = p.annotations.get("obs_zero", {})
    known = set(p.annotations.get("variables", ())).union(*effects.values(), *zero_obs.values())
    actions, observations = sorted(p.actions, key=str), sorted(p.observations, key=str)

    def formula(var, strong):
        if var not in known:
            raise UnknownVariableError(
                f"variable {var!r} has no effect tags or zero atoms in the problem"
            )
        inc = L.lor(*[L.Letter(a) for a in actions if effects.get(a, {}).get(var) == "inc"])
        dec = L.lor(*[L.Letter(a) for a in actions if effects.get(a, {}).get(var) == "dec"])
        zeros = [o for o in observations if var in zero_obs.get(o, ())]
        zero = L.lor(*[L.Letter(o) for o in zeros])
        antecedent = L.And(L.eventually(L.always(L.lnot(inc))), L.always(L.eventually(dec)))
        if strong:
            nonzero = L.lor(*[L.Letter(o) for o in observations if o not in zeros])
            consequent = L.eventually(L.always(L.lnot(nonzero)))
        else:
            consequent = L.always(L.eventually(zero))
        return L.implies(antecedent, consequent)

    return formula


def constraint_alphabet(c, p):
    if c.level == "state":
        return frozenset(set(p.states) | set(p.actions))
    return frozenset(set(p.observations) | set(p.actions))


# ---------------------------------------------------------------------------
# Satisfaction
# ---------------------------------------------------------------------------


def satisfies(c, t, p):
    """Whether a trajectory satisfies the constraint; finite trajectories
    satisfy every constraint.  Observation-level constraints auto-lift
    state-level lassos through the problem's observation function."""
    if isinstance(t, FiniteTrajectory):
        return True
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


def _letter(level, p):
    """The letter function of a constraint level: a state reads as itself
    or as its observation."""
    return (lambda s: s) if level == "state" else p.obs_fn.__getitem__


def _conjunct_formulas(f):
    """Split top-level conjunctions; each conjunct gets its own automaton."""
    if isinstance(f, L.And):
        return _conjunct_formulas(f.left) + _conjunct_formulas(f.right)
    return [f]


def _conjuncts(c, p, budget):
    """The top-level conjuncts of ``c`` bound to ``p``, in order, as
    (formula, letter classes, NBA) triples: the one place a conjunct's
    route is decided.  A conjunct with letter classes (`_letter_classes`)
    gets no automaton; any other gets None for classes and its NBA
    (`ltl.ltl_to_nba`, whose tableau ``budget`` caps).  A conjunct repeats
    an earlier one when both have the same letter classes (or, outside the
    fragment, are the same formula), and is left out."""
    sigma = constraint_alphabet(c, p)
    out = {}
    for f in _conjunct_formulas(constraint_formula(c, p)):
        cls = _letter_classes(f, sigma)
        out.setdefault(cls or f, (f, cls))
    return [(f, cls, None if cls else L.ltl_to_nba(f, sigma, budget=budget))
            for f, cls in out.values()]


def _letter_classes(f, sigma):
    """The pair (S, Ts) when the conjunct ``f``, read as a disjunction
    (`ltl._disjuncts`), is ``G F S | F G T_1 | ... | F G T_b`` over
    letter sets (`_letter_set`), else None.  The ``G F`` sets are joined
    into S, and a disjunct that folds to false is left out.  A conjunct
    with a disjunct of any other shape is ``G F sigma`` when it folds to
    true (`ltl.constant`), wherever that disjunct stands, else None."""
    s, ts = frozenset(), []
    for g in L._disjuncts(f):
        match g:
            case L.Not(L.Until(L.TrueF(), L.Not(L.Until(L.TrueF(), x)))):  # G F x
                gf, letters = True, _letter_set(x, sigma)
            case L.Until(L.TrueF(), L.Not(L.Until(L.TrueF(), x))):  # F G !x
                gf, letters = False, _letter_set(L.lnot(x), sigma)
            case _:
                letters = None
        if letters is None:
            if L.constant(g) is not False:
                return (sigma, ()) if L.constant(f) else None
        elif gf:
            s |= letters
        else:
            ts.append(letters)
    return s, tuple(ts)


def _letter_set(f, sigma):
    """The letters of ``sigma`` at which ``f`` holds (exactly one letter
    holds at each position), or None when ``f`` has a temporal operator."""
    if isinstance(f, L.Letter) and f.name not in sigma:
        raise UnknownLetterError(f"formula letters outside alphabet: {[f.name]}")
    match f:
        case L.TrueF():
            return sigma
        case L.Letter(name):
            return frozenset((name,))
        case L.Not(x):
            x = _letter_set(x, sigma)
            return None if x is None else sigma - x
        case L.And(x, y):
            x, y = _letter_set(x, sigma), _letter_set(y, sigma)
            return None if x is None or y is None else x & y
    return None


def _bilayer_product(inits, automata, moves, budget=None, stage="constraint-check product",
                     counted="nodes"):
    """Product of a move structure with automata, in two layers.

    ``automata`` lists one (initial states, successors, letter) triple per
    automaton: ``successors(q, x)`` lists the states it moves to from q on
    the symbol x, and ``letter(v)`` is the symbol it reads at base node v.
    ``moves(v)`` lists the (action, successor base nodes) pairs of ``v``;
    it is called once per base node.  Nodes are ("n", v, qs) before the
    automata read v's letter and ("m", v, a, qs) after it, pending the
    action letter ``a``; ``qs`` holds one state per automaton, and each
    choice of successor states gives its own node.  A node without moves
    reads no letter and has no edges.
    Only nodes reachable from ``inits`` are built, depth first, and
    ``nodes`` keeps them in the order found.  Raises
    SizeBudgetExceededError, naming ``stage`` and what it ``counted``, once
    more than ``budget`` "n" nodes are built (checked before each node is
    expanded; None sets no cap).  Returns (initial nodes, nodes, edges).
    """
    reads = [(succ, letter) for _, succ, letter in automata]
    initial = list(itertools.product(*(init for init, _, _ in automata)))
    start = [("n", v, qs) for v in inits for qs in initial]
    nodes = dict.fromkeys(start)
    edges = {}
    outcomes = {}  # base node -> {action: successor base nodes}
    stack = list(start)
    built = len(start)
    while stack:
        if budget is not None and built > budget:
            raise SizeBudgetExceededError(
                f"{stage} exceeded budget: {built} {counted} built, budget {budget}"
            )
        x = stack.pop()
        if x[0] == "n":
            _, v, qs = x
            acts = outcomes.get(v)
            if acts is None:
                acts = outcomes[v] = dict(moves(v))
            outs = []
            if acts:
                steps = [f(q, letter(v)) for (f, letter), q in zip(reads, qs)]
                qs1s = list(itertools.product(*steps))
                outs = [("m", v, a, qs1) for a in acts for qs1 in qs1s]
        else:
            _, v, a, qs1 = x
            qs2s = list(itertools.product(*[f(q, a) for (f, _), q in zip(reads, qs1)]))
            outs = [("n", w, qs2) for w in outcomes[v][a] for qs2 in qs2s]
        edges[x] = outs
        for y in outs:
            if y not in nodes:
                nodes[y] = None
                stack.append(y)
                built += y[0] == "n"
    return start, nodes, edges


def _trajectory_product(p, automata, budget, stop=(), *stage):
    """Bilayer product of p's transition structure, with no moves at the
    states of ``stop``, with ``automata`` (triples as `_bilayer_product`
    takes them) whose letters read p's states; ``budget`` caps its "n"
    nodes, and ``stage`` names the product and what it counts there."""

    def moves(s):
        if s in stop:
            return []
        return [(a, sorted(p.succ[(a, s)], key=str)) for a in sorted(p.avail.get(s, ()), key=str)]

    return _bilayer_product(sorted(p.init, key=str), automata, moves, budget, *stage)


def _policy_bilayer_product(prod, reach, automata, budget=None):
    """Bilayer product of the policy product ``prod`` (a
    `model.PolicyProduct`), inside its region ``reach``, with ``automata``
    (triples as `_bilayer_product` takes them).  Its base nodes are the
    policy product's ids; ``budget`` caps its "n" nodes."""
    succ, act = prod.succ, prod.act

    def moves(i):
        return [(act[i], [j for j in succ[i] if j in reach])] if succ[i] else []

    return _bilayer_product([i for i in prod.start if i in reach], automata, moves, budget)


def _product_lasso(inits, edges, cycle, state_of):
    """The lasso (`model._lasso`) of a bilayer product cycle, with a
    shortest prefix from an initial node: each "m" node ("m", v, a, qs)
    is the step (v, a), and ``state_of`` maps a base node v to its problem
    state."""
    if cycle[0][0] != "n":
        cycle = cycle[1:] + cycle[:1]
    prefix = graph.shortest_path(inits, edges.__getitem__, {cycle[0]})[:-1]
    return _lasso(*([x[1:3] for x in seq if x[0] == "m"] for seq in (prefix, cycle)), state_of)


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
    ``c_prime``; decided as emptiness of the product of the problem's
    transition structure with the NBA of the negation of ``c_prime`` and
    those of the conjuncts of ``c`` (`_conjuncts`), without determinizing
    any of them.  A conjunct of ``c`` with letter classes has no NBA: it
    is a Streett condition on that product (`_class_lasso`).  Fairness, on
    either side, is judged per (state, action) pair of ``p``, as
    `satisfies` judges it, by a Streett search of that product: a fair
    antecedent asks for a component in which each move is followed by each
    of its outcomes (`_fair_pairs`), and a fair consequent for one that
    takes a move but never one of its outcomes (`_unfair_lasso`).  A False
    result carries a witnessing lasso, whose cycle walks through one edge
    answering each request of the component found
    (`_streett_product_lasso`)."""
    if c == c_prime:
        return ImplicationResult(holds=True)
    conjuncts = [] if c.kind == "fairness" else _conjuncts(c, p, budget)
    automata = [(a, c.level) for _, _, a in conjuncts if a]
    if c_prime.kind != "fairness":
        f_neg = L.lnot(constraint_formula(c_prime, p))
        nba = L.ltl_to_nba(f_neg, constraint_alphabet(c_prime, p), budget=budget)
        automata.append((nba, c_prime.level))
    triples = [(sorted(a.initial), a.successors, _letter(level, p)) for a, level in automata]
    product = _trajectory_product(p, triples, budget)
    nbas = [a for a, _ in automata]
    if c.kind == "fairness":  # then c_prime is LTL, and no conjunct has letter classes
        lasso = _streett_product_lasso(product, nbas, *_fair_pairs(product[2].__getitem__, _move))
    else:
        search = partial(_unfair_lasso, p) if c_prime.kind == "fairness" else _streett_product_lasso
        reads = _bilayer_reads(product, _letter(c.level, p))
        lasso = _class_lasso(conjuncts, reads, partial(search, product, nbas))
    return ImplicationResult(holds=lasso is None, witness=lasso)


def _move(x, y):
    """The transition (s, a, t) of p that a bilayer product edge from an "m"
    node takes, or None for an edge from an "n" node."""
    return (x[1], x[2], y[1]) if x[0] == "m" else None


def _streett_product_lasso(product, nbas, requests, answers, succ=None, state_of=lambda s: s):
    """The lasso of the bilayer ``product`` with ``nbas`` whose cycle is
    the `graph.streett_walk` of the first component that
    `graph.streett_component` finds under ``succ`` (the product's edges
    when None), or None; ``state_of`` maps a base node to its problem
    state (`_product_lasso`).  Beyond ``requests`` and ``answers``, each
    node requests, for each automaton, a node that holds an accepting
    state of it: with no other requests, generalized Büchi emptiness
    (Couvreur, FM 1999).  Ties go to the node the product found first,
    and the walk starts at the first member that holds an accepting
    state."""
    inits, nodes, edges = product
    succ = succ or edges.__getitem__
    every = set(range(len(nbas)))

    def accepting(x):
        return {i for i, (a, q) in enumerate(zip(nbas, x[-1])) if q in a.accepting}

    def wants(x):
        return every | requests(x)

    def gives(x, y):
        return accepting(x) | answers(x, y)

    comp = graph.streett_component(nodes, succ, wants, gives)
    if comp is None:
        return None
    # from an accepting member, one Büchi condition gets the shortest cycle
    # through it, not a detour from an earlier node
    walk = graph.streett_walk(sorted(comp, key=lambda x: not accepting(x)), succ, wants, gives)
    return _product_lasso(inits, edges, walk, state_of)


def _unfair_lasso(p, product, nbas, requests, answers):
    """An unfair lasso of ``p`` accepted by ``nbas`` that answers
    ``requests`` (`_streett_product_lasso`), or None: for some
    nondeterministic (s, a, t), a component of their ``product`` that
    takes a move (s, a) once the edges from it to t are removed."""
    edges = product[2]
    for (a, s), targets in sorted(p.succ.items(), key=lambda kv: (str(kv[0][1]), str(kv[0][0]))):
        for t in sorted(targets, key=str) if len(targets) > 1 else ():

            def succ(x, cut=(s, a, t)):
                return [y for y in edges[x] if _move(x, y) != cut]

            def gives(x, y, pair=(s, a)):
                return answers(x, y) | ({pair} if x[0] == "m" and x[1:3] == pair else set())

            lasso = _streett_product_lasso(
                product, nbas, lambda x, pair=(s, a): requests(x) | {pair}, gives, succ
            )
            if lasso is not None:
                return lasso
    return None


# ---------------------------------------------------------------------------
# Counterexample search for solving-under-a-constraint
# ---------------------------------------------------------------------------


def counterexample_search(p, c, prod, reach, budget=L.DEFAULT_BUDGET, conjuncts=None):
    """Find a goal-avoiding lasso of the policy product ``prod`` (a
    `model.PolicyProduct`) that satisfies the constraint, or None.
    ``reach`` is the set of ids of its goal-free reachable region.

    Fairness is judged per (state, action) pair of ``p``, as `satisfies`
    judges it: the FAIR check's trapped component first, then a Streett
    search for a fair cycle that nodes of different memory make together.
    An LTL constraint takes each conjunct by the route `_conjuncts` binds
    it to (``conjuncts``, when the caller has bound them already, as a
    synthesis result has).  A conjunct with letter classes (every builtin
    counter constraint, and LTL text of the same shape) is a Streett
    condition (`_class_lasso`).  When every conjunct has them, the search
    runs on the policy product itself; otherwise on its bilayer product
    with the NBAs of the others (`_policy_bilayer_product`, whose "n"
    nodes ``budget`` caps), where a cycle must also pass an accepting
    state of each (`_streett_product_lasso`).  Nothing is determinized.
    """
    if c.kind == "fairness":
        return _fair_counterexample(prod, reach) or _pair_fair_lasso(prod, reach)
    conjuncts = _conjuncts(c, p, budget) if conjuncts is None else conjuncts
    nbas = [a for _, _, a in conjuncts if a]
    letter, nodes = _letter(c.level, p), prod.nodes
    if not nbas:
        reads = {i: {letter(nodes[i][0]), prod.act[i]} for i in reach}
        return _class_lasso(conjuncts, reads, partial(_policy_streett_lasso, prod, reach))
    read = {i: letter(nodes[i][0]) for i in reach}.__getitem__
    automata = [(sorted(a.initial), a.successors, read) for a in nbas]
    product = _policy_bilayer_product(prod, reach, automata, budget)
    search = partial(_streett_product_lasso, product, nbas, state_of=lambda i: nodes[i][0])
    return _class_lasso(conjuncts, _bilayer_reads(product, read), search)


def _bilayer_reads(product, letter):
    """The letters each node of a bilayer ``product`` reads: an "n" node
    ("n", v, qs) the letter ``letter(v)`` of its base node, an "m" node
    ("m", v, a, qs) its action a."""
    return {x: {letter(x[1]) if x[0] == "n" else x[2]} for x in product[1]}


def _class_lasso(conjuncts, reads, search):
    """The first lasso that ``search(requests, answers)`` finds under the
    Streett requests of the conjuncts with letter classes, or None; node
    x reads the letters ``reads[x]``.  A conjunct ``G F S | F G T_1 | ...
    | F G T_b`` (classes (S, Ts)) holds on a cycle that reads a letter of S
    or only letters of some T_k: SIEVE (Srivastava et al., AAAI 2011) as
    Streett emptiness.  So there is one search per choice of k in each
    conjunct (T is empty when b = 0), in which a node requests the
    conjuncts whose T misses one of its letters, and answers those whose S
    holds one: for weak `qnp` a decrement requests, and an increment or a
    zero observation answers.  The k-th such conjunct is the request
    ``(k,)``, apart from NBA indices and fairness's moves and transitions."""
    classes = [cls for _, cls, _ in conjuncts if cls]
    good = {x: {(k,) for k, (s, _) in enumerate(classes) if s & r} for x, r in reads.items()}
    for pick in itertools.product(*[ts or (frozenset(),) for _, ts in classes]):
        bad = {x: {(k,) for k, t in enumerate(pick) if not r <= t} for x, r in reads.items()}
        lasso = search(bad.__getitem__, lambda x, y: good[x])
        if lasso is not None:
            return lasso
    return None
