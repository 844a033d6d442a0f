"""Shared fixtures and independent oracles for the test suite.

The oracles here are deliberately separate from the library's algorithms:
NBA membership and DPW acceptance of a lasso, exact language comparison,
brute-force strategy enumeration and strategy verification for parity
games, an exact class-grouped agreement check between parity automata and
the LTL semantics over a bounded lasso universe, the constraint check
through determinized conjuncts, kept as the reference for its Büchi
reading, the LTL encoding of fairness, the reference for `implies`, the
earlier tuple-keyed policy product, its STRONG and FAIR checks and its
planner, and the dict-walking problem validation, kept as references for
the numbered ones.  The index-appearance-record DPW for
counter constraints is the reference for synthesis on letter classes.
The QNP printer and the two-valued variant of a QNP serve the QNP tests,
and `refute_policy` replays a policy inside a synthesis game.
"""

import itertools
from dataclasses import replace
from fractions import Fraction

from hypothesis import strategies as st

from genplan import graph
from genplan import ltl as L
from genplan.ltl import Word
from genplan.model import (
    FAIR,
    STRONG,
    FiniteTrajectory,
    Lasso,
    Policy,
    Pondp,
    Under,
    Verdict,
    _finite_trace,
    _goal_free_region,
    _policy_product,
    check_solution,
    infer_class,
)
from genplan.errors import AlphabetMismatchError, GenplanError, decoding
from genplan.constraints import (
    _conjunct_nbas, _policy_bilayer_product, _product_lasso, constraint_formula, ltl_constraint,
)
from genplan.omega import (
    CONTROLLER, Dpw, LazyDpw, _priority, _reading, _synthesize_on, cycle_with_max_parity,
    normalize_priorities,
)
from genplan.projection import as_fondp
from genplan.qnp import ConcreteSemantics, InitDescriptor, Qnp, _literal_text

ZERO, POS = "X=0", "X>0"

COUNTER_ANNOTATIONS = {
    "action_effects": {"Inc": {"X": "inc"}, "Dec": {"X": "dec"}},
    "obs_zero": {ZERO: ["X"], POS: []},
}


def counter_projection():
    """The two-state abstraction of the counter family: Dec branches from
    X>0 into both observations, Inc always yields X>0."""
    return as_fondp(
        Pondp(
            states={POS, ZERO},
            init={POS},
            observations={POS, ZERO},
            actions={"Inc", "Dec"},
            goal_states={ZERO},
            avail={POS: {"Inc", "Dec"}, ZERO: {"Inc", "Dec"}},
            obs_fn={POS: POS, ZERO: ZERO},
            succ={
                ("Inc", POS): {POS},
                ("Inc", ZERO): {POS},
                ("Dec", POS): {POS, ZERO},
                ("Dec", ZERO): {ZERO},
            },
            annotations=COUNTER_ANNOTATIONS,
        )
    )


def concrete_counter(x0, bound=None, dec_steps=(1,)):
    """A concrete counter instance with unit increments and decrements drawn
    from ``dec_steps`` (floored at zero)."""
    bound = bound if bound is not None else x0 + 10
    states = {f"X={i}" for i in range(bound + 1)}
    succ = {}
    avail = {}
    for i in range(bound + 1):
        s = f"X={i}"
        avail[s] = {"Inc", "Dec"}
        succ[("Dec", s)] = {f"X={max(0, i - d)}" for d in dec_steps}
        succ[("Inc", s)] = {f"X={min(bound, i + 1)}"}
    return Pondp(
        states=states,
        init={f"X={x0}"},
        observations={POS, ZERO},
        actions={"Inc", "Dec"},
        goal_states={"X=0"},
        avail=avail,
        obs_fn={f"X={i}": (ZERO if i == 0 else POS) for i in range(bound + 1)},
        succ=succ,
        annotations=COUNTER_ANNOTATIONS,
    )


def counter_class(x0s=range(1, 11), bound=12):
    return infer_class([concrete_counter(x0, bound) for x0 in x0s])


def reference_counter_dpw():
    """Hand-coded transcription of the five-state, three-priority DPW for
    the counter acceptance formula: a zero observation is an accepting
    sink, otherwise the last letter decides the recurring priority (Inc 3,
    Dec 2, the positive observation 1)."""
    letters = (ZERO, POS, "Inc", "Dec")
    states = ("init", "sI", "sD", "sN", "acc")
    pri = {"init": 1, "sI": 3, "sD": 2, "sN": 1, "acc": 2}
    delta = {}
    for q in states:
        if q == "acc":
            for a in letters:
                delta[(q, a)] = "acc"
        else:
            delta[(q, ZERO)] = "acc"
            delta[(q, "Inc")] = "sI"
            delta[(q, "Dec")] = "sD"
            delta[(q, POS)] = "sN"
    return Dpw(
        states=states,
        alphabet=frozenset(letters),
        delta=delta,
        initial="init",
        priority=pri,
    )


def counter_acceptance_formula():
    psi = L.parse_ltl('F G ! Inc & G F Dec -> G F "X=0"', {ZERO, POS, "Inc", "Dec"})
    return L.implies(psi, L.eventually(L.Letter(ZERO)))


def qnp_dpw_direct(variables, goal_letters, obs_zero, inc_letters, dec_letters, alphabet):
    """Hand-built DPW for ``(AND_X Psi_X) -> eventually goal``.

    ``obs_zero`` maps each observation letter to the set of variables that
    are zero under it; ``inc_letters``/``dec_letters`` map each variable
    to the action letters carrying the corresponding effect.

    Goal letters collapse into an accepting sink.  Otherwise the state is
    an index appearance record: variables ordered by how recently an
    increment or a zero observation reset them.  A reset at depth k
    emits 2k+1, a decrement at depth k emits 2k; a variable that is
    eventually never reset and keeps decrementing dominates with an even
    priority.  For one variable this is the classic 5-state, 3-priority
    automaton; in general it uses 2|V|+1 priorities (a 3-priority DPW
    does not exist for two or more independently controlled variables).
    """
    variables = tuple(variables)
    n = len(variables)
    goal_letters = frozenset(goal_letters)
    alphabet = frozenset(alphabet)

    resets = {a: set() for a in alphabet}
    goods = {a: set() for a in alphabet}
    for x in variables:
        for a in inc_letters.get(x, ()):
            resets[a].add(x)
        for a in dec_letters.get(x, ()):
            goods[a].add(x)
    for a, zeros in obs_zero.items():
        for x in zeros:
            if x in variables:
                resets[a].add(x)

    sink = ("goal",)
    initial = ("rec", tuple(variables), 0)
    states = [initial]
    index = {initial: 0}
    delta = {}
    priority = {initial: 1, sink: 2}
    queue = [initial]

    def intern(st):
        if st not in index:
            index[st] = len(states)
            states.append(st)
            queue.append(st)
        return st

    while queue:
        st = queue.pop()
        if st == sink:
            for a in sorted(alphabet):
                delta[(st, a)] = sink
            continue
        _, record, _ = st
        for a in sorted(alphabet):
            if a in goal_letters:
                delta[(st, a)] = intern(sink)
                continue
            rs = resets[a]
            gs = goods[a]
            # depth = 1-based position from the front (most recently reset);
            # deeper positions are more senior and dominate.
            e = max((i + 1 for i, x in enumerate(record) if x in rs), default=0)
            g = max((i + 1 for i, x in enumerate(record) if x in gs), default=0)
            if e or g:
                pri = max(2 * e + 1 if e else 0, 2 * g if g else 0)
            else:
                pri = 1
            new_record = tuple(x for x in record if x in rs) + tuple(
                x for x in record if x not in rs
            )
            nxt = intern(("rec", new_record, pri))
            priority[nxt] = pri
            delta[(st, a)] = nxt

    d = Dpw(
        states=tuple(states),
        alphabet=alphabet,
        delta=delta,
        initial=initial,
        priority=priority,
    )
    return normalize_priorities(d)


def ltl_text_constraint(c, p):
    """The LTL constraint ``c`` bound to ``p`` and passed as its formula;
    synthesis and the check choose their route by its shape, as for the
    builtin name."""
    return ltl_constraint(constraint_formula(c, p), name=c.name)


def safra_synthesize(p, c, budget=L.DEFAULT_BUDGET):
    """`omega.synthesize` on the route of conjuncts outside the
    letter-class fragment, whatever their shape: the game of ``p`` with
    the complemented compact-Safra `LazyDpw` of each conjunct NBA; the
    result keeps the NBAs for the check.  The reference for the class
    route."""
    nbas = tuple(_conjunct_nbas(c, p, budget).values())
    dpws = tuple(
        LazyDpw(a, budget, stage="synthesis-game determinization", complement=True)
        for a in nbas
    )
    return _synthesize_on(p, dpws, budget, nbas)


def nba_check(p, mu, c, budget=L.DEFAULT_BUDGET):
    """`model.check_solution` under ``c`` on the route of conjuncts outside
    the letter-class fragment: Büchi emptiness of the policy product with
    the conjunct NBAs.  The policy product is built first, so the budget
    stops the stages in the check's order: policy product, tableaux,
    product with the NBAs."""
    _policy_product(p, mu, budget)
    return check_solution(p, mu, Under(c), budget, _conjunct_nbas(c, p, budget).values())


def qnp_dpw_for_problem(p, variables):
    """`qnp_dpw_direct` for the weak counter constraints of ``variables``
    over the observations and actions of the fully observable ``p``."""
    effects = p.annotations.get("action_effects", {})
    zero = p.annotations.get("obs_zero", {})
    return qnp_dpw_direct(
        variables,
        p.goal_states,
        {o: set(zero.get(o, ())) for o in p.observations},
        {v: {a for a in p.actions if effects.get(a, {}).get(v) == "inc"} for v in variables},
        {v: {a for a in p.actions if effects.get(a, {}).get(v) == "dec"} for v in variables},
        set(p.observations) | set(p.actions),
    )


# ---------------------------------------------------------------------------
# Random generators
# ---------------------------------------------------------------------------


def rand_formula(rng, depth, letters):
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.85:
            return L.Letter(rng.choice(letters))
        return L.TRUE
    op = rng.choice(["not", "and", "or", "impl", "next", "until", "ev", "alw"])
    if op == "not":
        return L.lnot(rand_formula(rng, depth - 1, letters))
    if op == "next":
        return L.Next(rand_formula(rng, depth - 1, letters))
    if op == "ev":
        return L.eventually(rand_formula(rng, depth - 1, letters))
    if op == "alw":
        return L.always(rand_formula(rng, depth - 1, letters))
    a = rand_formula(rng, depth - 1, letters)
    b = rand_formula(rng, depth - 1, letters)
    if op == "and":
        return L.And(a, b)
    if op == "or":
        return L.lor(a, b)
    if op == "impl":
        return L.implies(a, b)
    return L.Until(a, b)


def rand_letter_set(rng, depth, letters):
    """A random formula without temporal operators: a letter set."""
    if depth == 0 or rng.random() < 0.4:
        return L.Letter(rng.choice(letters)) if rng.random() < 0.9 else L.TRUE
    op = rng.choice(["not", "and", "or"])
    if op == "not":
        return L.lnot(rand_letter_set(rng, depth - 1, letters))
    parts = [rand_letter_set(rng, depth - 1, letters) for _ in range(2)]
    return L.And(*parts) if op == "and" else L.lor(*parts)


def rand_fragment_formula(rng, letters):
    """A random conjunction of one or two conjuncts in the letter-class
    fragment: each a disjunction of one to three ``G F S`` and ``F G T``
    terms over random letter sets, written as a disjunction or, one time
    in three, as an implication whose antecedent is the negated terms."""
    conjuncts = []
    for _ in range(rng.randint(1, 2)):
        terms = [
            (L.always(L.eventually(x)) if rng.random() < 0.5 else L.eventually(L.always(x)))
            for x in (rand_letter_set(rng, 2, letters) for _ in range(rng.randint(1, 3)))
        ]
        if len(terms) > 1 and rng.random() < 1 / 3:
            conjuncts.append(L.implies(L.land(*map(L.lnot, terms[:-1])), terms[-1]))
        else:
            conjuncts.append(L.lor(*terms))
    return L.land(*conjuncts)


def rand_word(rng, letters, maxp=6, maxc=6):
    p = tuple(rng.choice(letters) for _ in range(rng.randrange(maxp + 1)))
    c = tuple(rng.choice(letters) for _ in range(rng.randrange(1, maxc + 1)))
    return Word(p, c)


# ---------------------------------------------------------------------------
# Reference NBA construction
# ---------------------------------------------------------------------------


def reference_trim(nba):
    """The round-based NBA trim: prune, forward quotient and backward
    quotient, repeated until a round removes no state."""
    while True:
        before = len(nba.states)
        nba = L._prune_nba(nba)
        nba = L._bisim_quotient(nba, backward=False)
        nba = L._bisim_quotient(nba, backward=True)
        if len(nba.states) >= before:
            return nba


def reference_nba(f, alphabet, budget=L.DEFAULT_BUDGET):
    """``ltl.ltl_to_nba`` without constant folding, trimmed by
    ``reference_trim``: every disjunct gets its own tableau."""
    alphabet = frozenset(alphabet)

    def build(g):
        branches = list(L._disjuncts(g))
        if len(branches) > 1:
            return L._union_nba([build(h) for h in branches], alphabet)
        if isinstance(g, L.And):
            left, right = reference_trim(build(g.left)), reference_trim(build(g.right))
            return L._product_nba(left, right, alphabet, budget)
        return L._tableau_nba(g, alphabet, budget)

    return reference_trim(build(f))


# ---------------------------------------------------------------------------
# NBA membership and QNP text
# ---------------------------------------------------------------------------


def nba_accepts_lasso(nba, w):
    """Membership of an ultimately periodic word, decided by searching an
    accepting cycle in the product of the word's one-loop structure with
    the automaton.  Independent of eval_lasso."""
    extra = w.symbol_set() - set(nba.alphabet)
    if extra:
        raise AlphabetMismatchError(f"word symbols outside alphabet: {sorted(extra)}")
    np, nc = len(w.prefix), len(w.cycle)
    total = np + nc

    def pos_next(i):
        return i + 1 if i + 1 < total else np

    def succ(nd):
        i, q = nd
        return [(pos_next(i), r) for r in nba.successors(q, w.at(i))]

    reach = graph.reachable([(0, q) for q in nba.initial], succ)
    loop_nodes = [nd for nd in reach if nd[0] >= np]
    for comp in graph.sccs(sorted(loop_nodes), succ):
        if graph.has_cycle(comp, succ) and any(q in nba.accepting for _, q in comp):
            return True
    return False


def qnp_to_text(q):
    """The QNP in the text format `qnp.parse_qnp` reads."""
    lines = []
    if q.fluents:
        lines.append("fluents " + " ".join(sorted(q.fluents)))
    if q.variables:
        lines.append("vars " + " ".join(q.variables))
    if q.init_fluents:
        lines.append("init " + " ".join(sorted(q.init_fluents)))
    for v in q.variables:
        d = q.init_values[v]
        if d.kind == "set":
            lines.append(f"init_values {v} in {{{','.join(str(x) for x in d.values)}}}")
        else:
            lines.append(f"init_values {v} in [{d.values[0]},{d.values[1]}]")
    for v in q.variables:
        s = q.semantics_for(v)
        if s.mode == "bounded":
            lines.append(f"semantics {v} bounded {s.lo} {s.hi} grid {s.grid}")
        elif s.mode != "unit":
            lines.append(f"semantics {v} {s.mode}")
    for a in q.actions:
        lines.append(f"action {a.name}")
        if a.pre:
            lines.append("  pre " + " ".join(_literal_text(l) for l in a.pre))
        if a.add:
            lines.append("  add " + " ".join(sorted(a.add)))
        if a.delete:
            lines.append("  del " + " ".join(sorted(a.delete)))
        incs = sorted(v for v, e in a.numeric.items() if e == "inc")
        decs = sorted(v for v, e in a.numeric.items() if e == "dec")
        if incs:
            lines.append("  inc " + " ".join(incs))
        if decs:
            lines.append("  dec " + " ".join(decs))
    lines.append("goal " + " ".join(_literal_text(l) for l in q.goal))
    return "\n".join(lines) + "\n"


def two_valued_variant(q):
    """The similar QNP whose variables range over {0, 1} with DEC = {0, x}
    and INC = {1}; its instances mirror the syntactic projection."""
    init_values = {}
    for v in q.variables:
        d = q.init_values[v]
        vals = []
        if d.zero_possible:
            vals.append(Fraction(0))
        if d.positive_possible:
            vals.append(Fraction(1))
        init_values[v] = InitDescriptor(kind="set", values=tuple(vals))
    return Qnp(
        fluents=q.fluents,
        init_fluents=q.init_fluents,
        actions=q.actions,
        goal=q.goal,
        variables=q.variables,
        init_values=init_values,
        semantics={v: ConcreteSemantics(mode="two_valued") for v in q.variables},
    )


# ---------------------------------------------------------------------------
# The constraint check on deterministic automata
# ---------------------------------------------------------------------------


def dpw_policy_lasso(p, level, dpws, prod, reach):
    """A lasso of the policy product ``prod`` inside ``reach`` accepted by
    every DPW of ``dpws``, or None: the constraint check's reading through
    determinized conjuncts, kept as the reference for its Büchi reading.
    The automata run deterministically along the bilayer product (nodes
    ("n", i, qs) before the letter of the state of policy product node i
    is read and ("m", i, action, qs) after it), which is searched for a
    cycle whose maximum priority is even in every automaton."""
    nodes, succ, act = prod.nodes, prod.succ, prod.act
    letter = (lambda s: s) if level == "state" else p.obs_fn.__getitem__
    start = [("n", i, tuple(d.initial for d in dpws)) for i in prod.start if i in reach]
    seen = set(start)
    edges = {}
    stack = list(start)
    while stack:
        x = stack.pop()
        if x[0] == "n":
            _, i, qs = x
            qs1 = tuple(d.delta[(q, letter(nodes[i][0]))] for d, q in zip(dpws, qs))
            edges[x] = [("m", i, act[i], qs1)] if succ[i] else []
        else:
            _, i, a, qs1 = x
            qs2 = tuple(d.delta[(q, a)] for d, q in zip(dpws, qs1))
            edges[x] = [("n", j, qs2) for j in succ[i] if j in reach]
        for y in edges[x]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    priority = {x: tuple(d.priority[q] for d, q in zip(dpws, x[-1])) for x in edges}
    cycle = cycle_with_max_parity(edges, edges.__getitem__, priority, 0)
    return None if cycle is None else _product_lasso(start, edges, cycle, lambda i: nodes[i][0])


def dpw_counterexample_search(p, c, prod, reach):
    """`constraints.counterexample_search` for an LTL constraint, through
    one on-the-fly determinized automaton per conjunct."""
    dpws = [LazyDpw(a) for a in _conjunct_nbas(c, p, L.DEFAULT_BUDGET).values()]
    return dpw_policy_lasso(p, c.level, dpws, prod, reach)


def refute_policy(result, p, policy):
    """A trajectory of ``policy`` on ``p`` that loses the game of a
    synthesis ``result``: a finite goal-free trajectory on which the
    policy stops, or else a lasso whose cycle has an odd maximum in every
    entry; None when the policy wins the game.

    The policy is fixed inside the game: the bilayer product of its
    product with ``p`` (goal-free part) with the game's automata, in which
    every environment choice is searched, so any finite-memory policy that
    does not win is refuted.  (With more than one automaton the
    environment may need memory, so ``counterstrategy`` is not
    replayed.)"""
    prod = _policy_product(p, policy)
    reach = _goal_free_region(p, prod)
    stop = min((i for i in reach if not prod.succ[i]), default=None)
    if stop is not None:
        return _finite_trace(prod, stop, reach)
    dpws, state_of = result.dpws, lambda i: prod.nodes[i][0]
    automata = [_reading(d, state_of) for d in dpws]
    inits, nodes, edges = _policy_bilayer_product(prod, reach, automata)
    priority = {x: _priority(dpws, x[-1]) for x in nodes}
    cycle = cycle_with_max_parity(nodes, edges.__getitem__, priority, 1)
    return None if cycle is None else _product_lasso(inits, edges, cycle, state_of)


def fairness_to_ltl(p):
    """State-level LTL encoding of fairness: one implication per
    nondeterministic transition (s, a, t), "if s is followed by a
    infinitely often, so is s a t".  The reference for `implies`, which
    decides fairness without it; only viable for small problems."""
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
    return L.land(*conjuncts)


def small_lassos(p, max_prefix=2, max_cycle=4):
    """The words of the lassos of ``p`` from an initial state with at most
    ``max_prefix`` prefix steps and 1 to ``max_cycle`` cycle steps, each
    once, as lassos whose cycle has no shorter period and whose prefix
    does not end with the cycle's last step; for brute-force refutation."""

    def walks(s, n):
        layer = out = [((s,), ())]
        for _ in range(n):
            layer = [
                (states + (t,), actions + (a,))
                for states, actions in layer
                for a in sorted(p.avail.get(states[-1], ()), key=str)
                for t in sorted(p.succ[(a, states[-1])], key=str)
            ]
            out = out + layer
        return out

    found = set()
    for s0 in sorted(p.init, key=str):
        for pre_s, pre_a in walks(s0, max_prefix):
            for cyc_s, cyc_a in walks(pre_s[-1], max_cycle):
                if not cyc_a or cyc_s[-1] != pre_s[-1]:
                    continue
                pre, cyc = list(zip(pre_s, pre_a)), list(zip(cyc_s, cyc_a))
                n = len(cyc)
                cyc = cyc[: next(d for d in range(1, n + 1) if cyc == cyc[d:] + cyc[:d])]
                while pre and pre[-1] == cyc[-1]:
                    cyc.insert(0, cyc.pop())
                    pre.pop()
                found.add((tuple(pre), tuple(cyc)))
    return [
        Lasso(
            tuple(s for s, _ in pre), tuple(a for _, a in pre),
            tuple(s for s, _ in cyc), tuple(a for _, a in cyc),
        )
        for pre, cyc in sorted(found, key=str)
    ]


# ---------------------------------------------------------------------------
# Parity automata: acceptance and exact language comparison
# ---------------------------------------------------------------------------


def dpw_accepts(d, w):
    """Run the unique run over prefix then cycle until the state at the
    cycle boundary repeats; accept iff the max priority on the run's
    recurring part is even."""
    extra = w.symbol_set() - set(d.alphabet)
    if extra:
        raise AlphabetMismatchError(f"word symbols outside alphabet: {sorted(extra)}")
    q = d.initial
    for a in w.prefix:
        q = d.delta[(q, a)]
    seen = {}
    maxes = []
    while q not in seen:
        seen[q] = len(maxes)
        best = 0
        for a in w.cycle:
            q = d.delta[(q, a)]
            best = max(best, d.priority[q])
        maxes.append(best)
    start = seen[q]
    return max(maxes[start:]) % 2 == 0


def _product_witness(init, succ, letters, cycle):
    """The word spelled by a shortest path from ``init`` to the cycle,
    then around it, in a letter-synchronous product."""
    prefix = graph.shortest_path([init], succ, {cycle[0]})

    def spell(path):
        return tuple(letters[succ(u).index(w)] for u, w in zip(path, path[1:]))

    return Word(spell(prefix), spell(cycle + cycle[:1]))


def dpw_language_difference(d1, d2):
    """Exact language comparison of two DPWs over the same alphabet.

    Returns None when L(d1) = L(d2); otherwise an ultimately periodic
    witness word accepted by exactly one of them.  Works on the synchronous
    product: a difference exists iff some reachable cycle has an even
    dominant priority on one side and an odd one on the other, that is,
    with one added to d2's priorities, a maximum of one parity in both.
    """
    if set(d1.alphabet) != set(d2.alphabet):
        raise AlphabetMismatchError("DPW alphabets differ")
    letters = sorted(d1.alphabet)
    init = (d1.initial, d2.initial)

    def succ(v):
        return [(d1.delta[(v[0], a)], d2.delta[(v[1], a)]) for a in letters]

    nodes = graph.reachable([init], succ)
    prio = {v: (d1.priority[v[0]], d2.priority[v[1]] + 1) for v in nodes}
    cycle = cycle_with_max_parity(nodes, succ, prio, 0)
    cycle = cycle or cycle_with_max_parity(nodes, succ, prio, 1)
    if cycle is None:
        return None
    return _product_witness(init, succ, letters, cycle)


def synthesis_language_difference(dpws, goal_letters, d):
    """Exact comparison of what a synthesis game over ``dpws`` lets the
    controller win -- a word with a goal letter, or one that some DPW of
    ``dpws`` accepts -- with the language of the DPW ``d``.

    Returns None when they are equal, otherwise a witness word in exactly
    one of them.  The synchronous product carries a flag for "a goal
    letter was read"; a cycle keeps its flag, so a difference is a
    reachable cycle that (a) has read the goal and that ``d`` rejects,
    (b) has not, is accepted by some DPW of ``dpws`` and rejected by ``d``,
    or (c) has not, is rejected by all of them and accepted by ``d``.
    Adding one to ``d``'s priority turns (b) and (c) into cycles of one
    parity in every entry."""
    if any(set(e.alphabet) != set(d.alphabet) for e in dpws):
        raise AlphabetMismatchError("DPW alphabets differ")
    letters = sorted(d.alphabet)
    init = (False, tuple(e.initial for e in dpws), d.initial)

    def succ(v):
        seen, qs, q = v
        return [
            (seen or a in goal_letters, tuple(e.delta[(x, a)] for e, x in zip(dpws, qs)),
             d.delta[(q, a)])
            for a in letters
        ]

    nodes = graph.reachable([init], succ)

    def own(v):
        return [e.priority[x] for e, x in zip(dpws, v[1])]

    def flipped(v):
        return d.priority[v[2]] + 1

    queries = [(True, lambda v: (d.priority[v[2]],), 1)]
    queries += [(False, lambda v, i=i: (own(v)[i], flipped(v)), 0) for i in range(len(dpws))]
    queries.append((False, lambda v: (*own(v), flipped(v)), 1))
    for seen, prio, parity in queries:
        sub = {v for v in nodes if v[0] == seen}
        cycle = cycle_with_max_parity(sub, succ, {v: prio(v) for v in sub}, parity)
        if cycle is not None:
            return _product_witness(init, succ, letters, cycle)
    return None


# ---------------------------------------------------------------------------
# Brute-force parity-game oracle
# ---------------------------------------------------------------------------


def _entries(priority):
    return priority if isinstance(priority, tuple) else (priority,)


def _dominant_cycle_nodes(nodes, succ, priority, parity):
    """Nodes lying on some cycle whose max priority has the given parity in
    every entry (an int priority is a single entry)."""
    prio = {v: _entries(priority[v]) for v in nodes}
    k = len(next(iter(prio.values()), ()))
    tops = [
        sorted({pr[i] for pr in prio.values() if pr[i] % 2 == parity}, reverse=True)
        for i in range(k)
    ]
    out = set()
    for top in itertools.product(*tops):
        sub = {v for v in nodes if all(p <= t for p, t in zip(prio[v], top))}

        def s(v):
            return [w for w in succ(v) if w in sub]

        for comp in graph.sccs(sorted(sub, key=repr), s):
            comp_set = set(comp)
            if not all(any(prio[v][i] == t for v in comp_set) for i, t in enumerate(top)):
                continue
            if len(comp) > 1 or comp[0] in s(comp[0]):
                out |= comp_set
    return out


def _can_reach(nodes, succ, targets):
    out = set(targets)
    changed = True
    while changed:
        changed = False
        for v in nodes:
            if v in out:
                continue
            if any(w in out for w in succ(v)):
                out.add(v)
                changed = True
    return out


def brute_force_winning(game, player):
    """Exact winning region of ``player`` by enumerating all of that
    player's positional strategies and evaluating the opponent's best
    response with a cycle analysis.

    The controller fears a cycle whose maximum is odd in every entry of
    its priorities, so this is exact for the controller in generalized
    games too: as the disjunctive player it wins positionally, and against
    a fixed controller strategy such a cycle is all the environment needs.
    For the environment it is exact only with one entry."""
    own = [v for v in game.nodes if game.owner[v] == player]
    choices = [game.edges[v] for v in own]
    win = set()
    # controller (player 0) fears odd-dominant cycles; environment fears even
    bad_parity = 1 if player == CONTROLLER else 0
    for strat in itertools.product(*choices):
        moves = dict(zip(own, strat))

        def succ(v):
            if v in moves:
                return [moves[v]]
            return list(game.edges[v])

        bad_nodes = _dominant_cycle_nodes(set(game.nodes), succ, game.priority, bad_parity)
        losing = _can_reach(set(game.nodes), succ, bad_nodes)
        win |= set(game.nodes) - losing
        if len(win) == len(game.nodes):
            break
    return win


def verify_strategy(g, solution, player):
    """Cycle analysis: within the player's region, with the player's moves
    fixed and the opponent free, no cycle may have a maximum of the
    opponent's parity in every entry.  Returns True when the strategy is
    winning.  Exact for the controller in generalized games, and for the
    environment with one entry (with more it may need memory)."""
    region = {v for v, p in solution.region.items() if p == player}

    def succ(v):
        if g.owner[v] == player:
            w = solution.strategy.get(v)
            return [w] if w is not None and w in region else []
        return [w for w in g.edges[v] if w in region]

    for v in region:
        if g.owner[v] == player:
            w = solution.strategy.get(v)
            if w is None or solution.region.get(w) != player:
                return False
        else:
            # the opponent must not be able to leave the region
            if any(solution.region[w] != player for w in g.edges[v]):
                return False
    bad = cycle_with_max_parity(region, succ, g.priority, 1 - player)
    return bad is None


def rand_game(rng, max_nodes=8, max_priority=3, entries=None):
    """A random game; priorities are ints, or tuples of ``entries`` ints."""
    from genplan.omega import ParityGame

    n = rng.randrange(2, max_nodes + 1)
    nodes = tuple(range(n))
    owner = {v: rng.randrange(2) for v in nodes}
    if entries is None:
        priority = {v: rng.randrange(max_priority + 1) for v in nodes}
    else:
        priority = {
            v: tuple(rng.randrange(max_priority + 1) for _ in range(entries)) for v in nodes
        }
    edges = {}
    for v in nodes:
        k = rng.randrange(1, min(3, n) + 1)
        edges[v] = tuple(sorted(rng.sample(nodes, k)))
    return ParityGame(
        nodes=nodes, owner=owner, priority=priority, edges=edges, initial=(0,)
    )


# ---------------------------------------------------------------------------
# Exact grouped agreement: automata versus LTL semantics on all lassos
# ---------------------------------------------------------------------------


class LassoUniverseCheck:
    """Checks that parity automata agree with the LTL lasso semantics on
    every ultimately periodic word with bounded prefix and cycle lengths.

    The check is exhaustive over the whole universe: lassos are grouped by
    the cycle's subformula truth vector and the automata states reached by
    the prefix, every occurring group is verified, and any mismatch is
    reported with a concrete witness lasso.  A random sample of groups is
    additionally re-verified literally against eval_lasso / dpw_accepts to
    guard the grouping machinery itself.
    """

    def __init__(self, formula, alphabet, automata, max_prefix=6, max_cycle=6):
        self.formula = formula
        self.letters = sorted(alphabet)
        self.automata = list(automata)
        self.max_prefix = max_prefix
        self.max_cycle = max_cycle
        self.subs = L.subformulas(formula)
        self.sub_index = {g: i for i, g in enumerate(self.subs)}
        self.root_bit = 1 << self.sub_index[formula]
        self._arrays = [self._as_arrays(d) for d in self.automata]
        self._step_memo = {}

    def _as_arrays(self, d):
        idx = {q: i for i, q in enumerate(d.states)}
        delta = {
            l: [idx[d.delta[(q, l)]] for q in d.states] for l in self.letters
        }
        pri = [d.priority[q] for q in d.states]
        return idx[d.initial], delta, pri

    def _step(self, letter, vnext):
        """Truth vector at a position from its letter and the next position's
        vector (one-step expansion of X and U)."""
        key = (letter, vnext)
        out = self._step_memo.get(key)
        if out is not None:
            return out
        v = 0
        for i, g in enumerate(self.subs):
            if isinstance(g, L.TrueF):
                bit = 1
            elif isinstance(g, L.Letter):
                bit = 1 if g.name == letter else 0
            elif isinstance(g, L.Not):
                bit = 0 if v & (1 << self.sub_index[g.operand]) else 1
            elif isinstance(g, L.And):
                bit = (
                    1
                    if v & (1 << self.sub_index[g.left])
                    and v & (1 << self.sub_index[g.right])
                    else 0
                )
            elif isinstance(g, L.Next):
                bit = 1 if vnext & (1 << self.sub_index[g.operand]) else 0
            else:  # Until
                here_r = v & (1 << self.sub_index[g.right])
                here_l = v & (1 << self.sub_index[g.left])
                nxt = vnext & (1 << self.sub_index[g])
                bit = 1 if here_r or (here_l and nxt) else 0
            if bit:
                v |= 1 << i
        self._step_memo[key] = v
        return v

    def _cycle_vector(self, cycle):
        """Subformula truth vector at position 0 of the pure loop."""
        m = len(cycle)
        vals = {}
        for g in self.subs:
            if isinstance(g, L.TrueF):
                vals[g] = [True] * m
            elif isinstance(g, L.Letter):
                vals[g] = [cycle[i] == g.name for i in range(m)]
            elif isinstance(g, L.Not):
                vals[g] = [not b for b in vals[g.operand]]
            elif isinstance(g, L.And):
                vals[g] = [a and b for a, b in zip(vals[g.left], vals[g.right])]
            elif isinstance(g, L.Next):
                sub = vals[g.operand]
                vals[g] = [sub[(i + 1) % m] for i in range(m)]
            else:
                lv, rv = vals[g.left], vals[g.right]
                out = [False] * m
                acc = False
                for k in range(2 * m - 1, -1, -1):
                    i = k % m
                    acc = rv[i] or (lv[i] and acc)
                    if k < m:
                        out[i] = acc
                vals[g] = out
        v = 0
        for i, g in enumerate(self.subs):
            if vals[g][0]:
                v |= 1 << i
        return v

    def _cycle_accept(self, arrays, q0, cycle_idx):
        init, delta, pri = arrays
        seen = {}
        maxes = []
        q = q0
        while q not in seen:
            seen[q] = len(maxes)
            best = 0
            for l in cycle_idx:
                q = delta[l][q]
                best = max(best, pri[q])
            maxes.append(best)
        return max(maxes[seen[q]:]) % 2 == 0

    def run(self, rng=None, literal_samples=500):
        """Returns None if every lasso in the universe agrees, else a
        (word, oracle, verdicts) witness."""
        # enumerate prefixes with per-automaton states
        prefixes = [((), tuple(a[0] for a in self._arrays))]
        frontier = list(prefixes)
        for _ in range(self.max_prefix):
            nxt = []
            for pfx, qs in frontier:
                for l in self.letters:
                    qs2 = tuple(
                        arr[1][l][q] for arr, q in zip(self._arrays, qs)
                    )
                    nxt.append((pfx + (l,), qs2))
            prefixes.extend(nxt)
            frontier = nxt

        fold_memo = {}

        def fold(u, pfx):
            key = (u, pfx)
            out = fold_memo.get(key)
            if out is None:
                if not pfx:
                    out = u
                else:
                    out = self._step(pfx[0], fold(u, pfx[1:]))
                fold_memo[key] = out
            return out

        # group prefixes lazily per cycle-entry vector
        occ_cache = {}

        def occ(u):
            got = occ_cache.get(u)
            if got is None:
                got = {}
                for pfx, qs in prefixes:
                    bit = 1 if fold(u, pfx) & self.root_bit else 0
                    got.setdefault((qs, bit), pfx)
                occ_cache[u] = got
            return got

        for clen in range(1, self.max_cycle + 1):
            for cycle in itertools.product(self.letters, repeat=clen):
                u = self._cycle_vector(cycle)
                accept_memo = [dict() for _ in self.automata]
                for (qs, bit), pfx in occ(u).items():
                    for k, arrays in enumerate(self._arrays):
                        got = accept_memo[k].get(qs[k])
                        if got is None:
                            got = self._cycle_accept(arrays, qs[k], cycle)
                            accept_memo[k][qs[k]] = got
                        if got != bool(bit):
                            return (Word(pfx, cycle), bool(bit), k)

        # literal re-validation of the machinery on random samples
        if rng is not None:
            sigma = set(self.letters)
            for _ in range(literal_samples):
                w = rand_word(rng, self.letters, self.max_prefix, self.max_cycle)
                ev = L.eval_lasso(self.formula, w, sigma)
                for d in self.automata:
                    assert dpw_accepts(d, w) == ev, f"literal check failed on {w}"
        return None


# ---------------------------------------------------------------------------
# Commitment bookkeeping between open and closed projections
# ---------------------------------------------------------------------------


def _atoms(obs):
    return frozenset(str(obs).split(","))


def erase_commitments(policy, closed_proj, open_proj):
    """Project a memoryless policy on a closed projection down to the open
    projection by dropping commitment bookkeeping: an open observation maps
    to the closed policy's action wherever the consistent closed
    observations agree on a non-bookkeeping action.

    Used by cross-engine tests; returns None when no open observation gets
    an action.
    """
    mapping = policy.as_memoryless_mapping()
    out = {}
    for obs in sorted(open_proj.observations, key=str):
        atoms = _atoms(obs)
        candidates = set()
        for cobs, a in mapping.items():
            if atoms <= _atoms(cobs) and not a.startswith(("set(", "unset(")):
                candidates.add(a)
        if len(candidates) == 1:
            out[obs] = candidates.pop()
    return Policy.memoryless(out) if out else None


def lift_policy_to_closed(policy, closed_proj):
    """Drive a policy that ignores commitment fluents on the closed
    projection by inserting set/unset steps when its chosen action is
    blocked by a commitment precondition.

    Returns a memoryless policy on the closed projection, or None when no
    consistent completion exists (composability failure).
    """
    by_atoms = {_atoms(s): s for s in closed_proj.states}
    commitments = sorted(
        {a for atoms in by_atoms for a in atoms if a.startswith("q_")}
    )
    policy_by_atoms = {
        _atoms(o): a for (m, o), a in policy.output.items() if m == policy.initial
    }
    out = {}
    ok = True
    for obs in sorted(closed_proj.observations, key=str):
        atoms = _atoms(obs)
        open_atoms = frozenset(a for a in atoms if not a.startswith("q_"))
        want = policy_by_atoms.get(open_atoms)
        if want is None:
            continue
        if want in closed_proj.avail.get(obs, frozenset()):
            out[obs] = want
            continue
        fixed = None
        for flag in commitments:
            v = flag[2:]
            setter, unsetter = f"set({v})", f"unset({v})"
            if setter in closed_proj.avail.get(obs, frozenset()) and flag not in atoms:
                trial = by_atoms.get(atoms | {flag})
                if trial and want in closed_proj.avail.get(trial, frozenset()):
                    fixed = setter
                    break
            if unsetter in closed_proj.avail.get(obs, frozenset()) and flag in atoms:
                trial = by_atoms.get(atoms - {flag})
                if trial and want in closed_proj.avail.get(trial, frozenset()):
                    fixed = unsetter
                    break
        if fixed is None:
            ok = False
            continue
        out[obs] = fixed
    return Policy.memoryless(out) if ok else None


# ---------------------------------------------------------------------------
# Replay of trajectories against policies
# ---------------------------------------------------------------------------


class ResolverExhaustedError(GenplanError):
    """A scripted nondeterminism resolver ran out of choices."""


class ScriptedResolver:
    """Resolves choices from a fixed list of indices."""

    def __init__(self, script):
        self.script = list(script)
        self.pos = 0

    def choose(self, options):
        if self.pos >= len(self.script):
            raise ResolverExhaustedError("scripted resolver ran out of choices")
        idx = self.script[self.pos]
        self.pos += 1
        return options[idx % len(options)]


def is_generated_by(p, mu, t):
    """True iff the trajectory's actions match the policy's outputs along
    its own observation history (replay check for counterexamples)."""
    if isinstance(t, FiniteTrajectory):
        states, actions = list(t.states), list(t.actions)
    else:
        states = list(t.prefix_states + t.cycle_states)
        actions = list(t.prefix_actions + t.cycle_actions)
    m = mu.initial
    for i, a in enumerate(actions):
        obs = p.obs_fn[states[i]]
        if mu.output.get((m, obs)) != a:
            return False
        m = mu.next_memory(m, obs)
    if isinstance(t, FiniteTrajectory) and not t.truncated:
        obs = p.obs_fn[states[-1]]
        if mu.output.get((m, obs)) is not None:
            if mu.output[(m, obs)] in p.avail.get(states[-1], frozenset()):
                return False  # not maximal
    return True


# ---------------------------------------------------------------------------
# Reference problem decoding and validation (name-keyed)
# ---------------------------------------------------------------------------


def reference_pondp(doc):
    """A problem document decoded into name-keyed fields, as a `Pondp` built
    from them; it gets no numbered form until something asks for one."""
    with decoding("problem JSON"):
        succ = {}
        for key, targets in doc["succ"].items():
            a, _, s = key.partition("|")
            succ[(a, s)] = targets
        obs_fn = dict(doc["obs"])
        frozenset(obs_fn.values())
        return Pondp(
            states=doc["states"],
            init=doc["init"],
            observations=doc["observations"],
            actions=doc["actions"],
            goal_states=doc["goal_states"],
            avail=doc["avail"],
            obs_fn=obs_fn,
            succ=succ,
        )


def _by_names(found):
    return [d for _, d in sorted(found, key=lambda nd: [str(x) for x in nd[0]])]


def reference_validate(p, cls=None):
    """`model.validate` by walking the name-keyed fields: by section (init,
    goals, undeclared states, states, successors, class fit), and within one
    in ``str`` order of the names.  The class fit is checked only on a
    problem with no diagnostics of its own."""
    out = []
    states, avail, succ, obs_fn = p.states, p.avail, p.succ, p.obs_fn
    if not p.init:
        out.append(("empty init", "no initial state", None))
    out += _by_names(
        ((s,), ("init not a state", f"initial state {s!r} not in states", s))
        for s in p.init - states
    )
    out += _by_names(
        ((s,), ("goal not a state", f"goal state {s!r} not in states", s))
        for s in p.goal_states - states
    )
    ghosts = (set(obs_fn) | set(avail) | {s for _, s in succ}) - states
    out += _by_names(
        ((s,), ("undeclared state", f"entries for state {s!r}, which is not in states", s))
        for s in ghosts
    )
    found = []
    for s in states:
        if s not in obs_fn:
            found.append(((s,), ("missing observation", f"state {s!r} has no observation", s)))
        elif obs_fn[s] not in p.observations:
            found.append(
                ((s,), ("unknown observation", f"obs({s!r}) not in observations", s))
            )
        for a in avail.get(s, ()):
            if a not in p.actions:
                found.append(
                    ((s, a), ("unknown action", f"avail({s!r}) lists {a!r}", (s, a)))
                )
            if not succ.get((a, s)):
                found.append(((s, a), (
                    "empty successor set", f"succ({a!r}, {s!r}) empty or missing", (s, a)
                )))
    out += _by_names(found)
    found = []
    for (a, s), targets in succ.items():
        if a not in avail.get(s, ()):
            found.append(((a, s), (
                "successor for unavailable action", f"succ({a!r}, {s!r}) defined", (s, a)
            )))
        for t in targets - states:
            found.append(
                ((a, s, t), ("unknown successor", f"succ({a!r}, {s!r}) contains {t!r}", t))
            )
    out += _by_names(found)
    if cls is not None and not out:
        if not p.actions <= cls.actions:
            out.append(("foreign actions", "member actions outside the class pool", None))
        if not p.observations <= cls.observations:
            out.append(
                ("foreign observations", "member observations outside the class pool", None)
            )
        found = []
        for s in p.states:
            obs = p.obs_fn[s]
            if (s in p.goal_states) != (obs in cls.goal_observations):
                found.append(((s,), (
                    "goal not observable",
                    f"state {s!r}: goal membership disagrees with T_Omega",
                    s,
                )))
            if p.avail.get(s, frozenset()) != cls.avail_by_obs.get(obs, frozenset()):
                found.append(((s,), (
                    "precondition not observable",
                    f"state {s!r}: avail differs from A_omega({obs!r})",
                    s,
                )))
        out += _by_names(found)
    return out


# ---------------------------------------------------------------------------
# Reference policy product, solution checks and planner (tuple-keyed)
# ---------------------------------------------------------------------------


def reference_policy_product(p, mu):
    """The policy product keyed by (state, memory) pairs: (start, nodes,
    edges, stops, invalid), where nodes map each node to its rank in the
    order found, edges map a node to (action, node) pairs and invalid is
    the first (node, action) found with an unavailable action.  Explored
    last found first."""
    start = [(s, mu.initial) for s in sorted(p.init, key=str)]
    nodes = {node: k for k, node in enumerate(start)}
    edges = {}
    stops = set()
    invalid = None
    queue = list(start)
    while queue:
        node = queue.pop()
        s, m = node
        obs = p.obs_fn[s]
        a = mu.output.get((m, obs))
        if a is None:
            stops.add(node)
            edges[node] = []
            continue
        if a not in p.avail.get(s, frozenset()):
            if invalid is None:
                invalid = (node, a)
            edges[node] = []
            continue
        m2 = mu.next_memory(m, obs)
        outs = []
        for s2 in sorted(p.succ[(a, s)], key=str):
            node2 = (s2, m2)
            outs.append((a, node2))
            if node2 not in nodes:
                nodes[node2] = len(nodes)
                queue.append(node2)
        edges[node] = outs
    return start, nodes, edges, stops, invalid


def _reference_successors(edges):
    return lambda node: [m for _, m in edges[node]]


def _reference_actions_along(edges, path):
    return tuple(next(a for a, m in edges[u] if m == w) for u, w in zip(path, path[1:]))


def _reference_trace(start, edges, target, within=None):
    if within is not None:
        start = [n for n in start if n in within]
    path = graph.shortest_path(start, _reference_successors(edges), {target}, within)
    return FiniteTrajectory(
        states=tuple(n[0] for n in path), actions=_reference_actions_along(edges, path)
    )


def _reference_lasso(start, edges, cycle, within):
    """The lasso of the node ``cycle``, cut to its shortest repeating
    part, then turned back along its prefix: while the prefix's last
    (node, action) step is the cycle's last, the cycle starts there."""
    n = len(cycle)
    cycle = next(cycle[:d] for d in range(1, n + 1) if cycle == cycle[:d] * (n // d))
    path = graph.shortest_path(
        [v for v in start if v in within], _reference_successors(edges), {cycle[0]}, within
    )[:-1]
    prefix = list(zip(path, _reference_actions_along(edges, path + cycle[:1])))
    steps = list(zip(cycle, _reference_actions_along(edges, cycle + cycle[:1])))
    while prefix and prefix[-1] == steps[-1]:
        prefix.pop()
        steps = steps[-1:] + steps[:-1]
    return Lasso(
        prefix_states=tuple(v[0] for v, _ in prefix),
        prefix_actions=tuple(a for _, a in prefix),
        cycle_states=tuple(v[0] for v, _ in steps),
        cycle_actions=tuple(a for _, a in steps),
    )


def _reference_fair_walk(comp, succ, edges, rank):
    """`graph.streett_walk` of ``comp``, from its first node by ``rank``,
    under fairness per (state, action) pair: a node requests the
    transition (state, action, successor state) of each of its edges, and
    an edge answers the one it takes."""
    return graph.streett_walk(
        sorted(comp, key=rank),
        succ,
        lambda n: {(n[0], a, m[0]) for a, m in edges[n]},
        lambda n, m: {(n[0], a, m[0]) for a, m2 in edges[n] if m2 == m},
    )


def _reference_fair_lasso(start, edges, reach, rank):
    trapped = reach.difference(
        graph.backward_reachable(reach, _reference_successors(edges), edges.keys() - reach)
    )

    def succ(n):
        return [m for _, m in edges[n] if m in trapped]

    for comp in graph.sccs(sorted(trapped, key=rank), succ):
        if all(m in comp for n in comp for m in succ(n)):
            cycle = _reference_fair_walk(comp, succ, edges, rank)
            return _reference_lasso(start, edges, cycle, reach)
    return None


def _reference_pair_fair_lasso(start, edges, reach, rank):
    """A goal-free lasso of the tuple-keyed product that is fair per
    (state, action) pair, or None.  Each cyclic strongly connected part of
    ``reach``, in turn (in Tarjan's order over ``rank``), drops the nodes
    whose (state, action) pair misses one of its outcomes on the edges
    inside it and is split again; the lasso's cycle walks the first part
    that drops nothing."""

    def search(region):
        def succ(n):
            return [m for _, m in edges[n] if m in region]

        for comp in graph.sccs(sorted(region, key=rank), succ):
            if not graph.has_cycle(comp, succ):
                continue
            seen = {(n[0], a, m[0]) for n in comp for a, m in edges[n] if m in comp}
            unfair = {
                (n[0], a) for n in comp for a, m in edges[n] if (n[0], a, m[0]) not in seen
            }
            if not unfair:
                cycle = _reference_fair_walk(comp, succ, edges, rank)
                return _reference_lasso(start, edges, cycle, reach)
            kept = {n for n in comp if not any((n[0], a) in unfair for a, _ in edges[n])}
            lasso = search(kept)
            if lasso is not None:
                return lasso
        return None

    return search(reach)


def reference_check(p, mu, mode):
    """`model.check_solution` over the tuple-keyed product, for STRONG,
    FAIR and Under(fairness); the last falls back to a search that is fair
    per (state, action) pair when no trapped component is found.  Ties go
    to the node found first."""
    start, nodes, edges, stops, invalid = reference_policy_product(p, mu)
    rank = nodes.__getitem__
    if invalid is not None:
        return Verdict(kind="INVALID_POLICY", witness=_reference_trace(start, edges, invalid[0]))
    reach = graph.reachable(
        [n for n in start if n[0] not in p.goal_states],
        lambda n: [m for _, m in edges[n] if m[0] not in p.goal_states],
    )
    for node in sorted(stops & reach, key=rank):
        return Verdict(
            kind="NOT_A_SOLUTION", counterexample=_reference_trace(start, edges, node, reach)
        )

    def succ_gf(n):
        return [m for _, m in edges[n] if m in reach]

    if mode == STRONG:
        for comp in graph.sccs(sorted(reach, key=rank), succ_gf):
            if graph.has_cycle(comp, succ_gf):
                v0 = min(comp, key=rank)
                cycle = graph.shortest_path([v0], succ_gf, {v0}, set(comp), nonempty=True)
                return Verdict(
                    kind="NOT_A_SOLUTION",
                    counterexample=_reference_lasso(start, edges, cycle[:-1], reach),
                )
        return Verdict(kind="STRONG_SOLUTION")
    lasso = _reference_fair_lasso(start, edges, reach, rank)
    if mode == FAIR:
        if lasso is not None:
            return Verdict(kind="NOT_A_SOLUTION", counterexample=lasso)
        return Verdict(kind="FAIR_SOLUTION")
    assert isinstance(mode, Under) and mode.constraint.kind == "fairness"
    lasso = lasso or _reference_pair_fair_lasso(start, edges, reach, rank)
    if lasso is not None:
        return Verdict(kind="NOT_A_SOLUTION", constraint="fairness", counterexample=lasso)
    return Verdict(kind="SOLVES_UNDER_CONSTRAINT", constraint="fairness")


def reference_plan(p):
    """`fond.strong_cyclic_plan` with a separate usable-action table and
    choice pass in each round."""
    safe = set(p.states)
    while True:
        usable = {
            s: [a for a in p.avail.get(s, ()) if p.succ[(a, s)] <= safe] for s in safe
        }
        dist = graph.backward_reachable(
            safe,
            lambda s: [t for a in usable[s] for t in p.succ[(a, s)]],
            safe & p.goal_states,
        )
        if dist.keys() == safe:
            break
        safe = set(dist)
    if not (p.init <= safe):
        return "UNSOLVABLE"
    choice = {
        s: min(
            (a for a in usable[s] if any(dist[t] == dist[s] - 1 for t in p.succ[(a, s)])),
            key=str,
        )
        for s in safe - p.goal_states
    }
    reachable = set()
    queue = [s for s in p.init if s not in p.goal_states]
    reachable.update(queue)
    order = []
    while queue:
        s = queue.pop()
        order.append(s)
        for t in p.succ[(choice[s], s)]:
            if t not in reachable and t not in p.goal_states:
                reachable.add(t)
                queue.append(t)
    # the observations the walk meets, in str order, each with the least
    # action (by str) its states choose
    observations = sorted({p.obs_fn[s] for s in order}, key=str)
    return Policy.memoryless({
        o: min((choice[s] for s in order if p.obs_fn[s] == o), key=str) for o in observations
    })


@st.composite
def coarse_problems(draw):
    """Random problems: 2-8 states, 1-3 actions, each state's observation
    drawn from fewer names than states, mostly the available actions of
    its observation (one state in ten gets its own), one to three
    outcomes per action, one or two initial states, up to two goals."""
    n = draw(st.integers(2, 8))
    states = [f"s{i}" for i in range(n)]
    actions = ["a", "b", "c"][: draw(st.integers(1, 3))]
    names = [f"o{i}" for i in range(draw(st.integers(1, max(1, n - 1))))]
    obs_fn = {s: draw(st.sampled_from(names)) for s in states}

    def action_set():
        return set(draw(st.lists(st.sampled_from(actions), min_size=1, max_size=3)))

    by_obs = {o: action_set() for o in names}
    avail, succ = {}, {}
    for s in states:
        avail[s] = action_set() if draw(st.integers(0, 9)) == 0 else by_obs[obs_fn[s]]
        for a in sorted(avail[s]):
            succ[(a, s)] = draw(st.sets(st.sampled_from(states), min_size=1, max_size=3))
    return Pondp(
        states=states,
        init=draw(st.sets(st.sampled_from(states), min_size=1, max_size=2)),
        observations=set(obs_fn.values()),
        actions=actions,
        goal_states=draw(st.sets(st.sampled_from(states), max_size=2)),
        avail=avail,
        obs_fn=obs_fn,
        succ=succ,
    )


@st.composite
def annotated_problems(draw):
    """`coarse_problems` whose actions increment or decrement X and Y at
    random.  Observations say X = 0 at random, so a decrement of X may
    happen where X is zero; Y is never observed zero, so only an
    increment answers a decrement of Y."""
    p = draw(coarse_problems())
    effect = st.sampled_from([None, "inc", "dec"])
    effects = {a: {v: e for v in "XY" if (e := draw(effect))} for a in sorted(p.actions)}
    zero = {o: ["X"] if draw(st.booleans()) else [] for o in sorted(p.observations)}
    annotations = {"variables": ["X", "Y"], "action_effects": effects, "obs_zero": zero}
    return replace(p, annotations=annotations)


@st.composite
def finite_memory_policies(draw, p, max_memory=3):
    """Random policies for ``p`` with 1 to ``max_memory`` memory states and
    a partial memory update.  Each output is undefined one time in ten,
    any of p's actions (maybe unavailable where it is used) one time in
    ten, and otherwise an action available in every state with that
    observation."""
    memory = tuple(f"m{i}" for i in range(draw(st.integers(1, max_memory))))
    output, update = {}, {}
    for o in sorted(p.observations):
        common = sorted(
            frozenset.intersection(*(p.avail[s] for s in p.states if p.obs_fn[s] == o))
        )
        for key in ((m, o) for m in memory):
            pick = draw(st.integers(0, 9))
            if pick == 1 or (pick > 1 and not common):
                output[key] = draw(st.sampled_from(sorted(p.actions)))
            elif pick > 1:
                output[key] = draw(st.sampled_from(common))
            if draw(st.booleans()):
                update[key] = draw(st.sampled_from(memory))
    return Policy(memory_states=memory, initial=memory[0], update=update, output=output)


def greatest_bisimulation(nodes, label, succ):
    """The pairs of bisimilar nodes, by brute force: the greatest fixpoint
    of the pair relation, starting from equal labels, in which each
    labelled edge ``(a, x)`` of one node is matched by an edge ``(a, y)``
    of the other with (x, y) in the relation."""
    rel = {(u, v) for u in nodes for v in nodes if label(u) == label(v)}

    def matched(u, v):
        return all(any(b == a and (x, y) in rel for b, y in succ(v)) for a, x in succ(u))

    while True:
        kept = {(u, v) for u, v in rel if matched(u, v) and matched(v, u)}
        if kept == rel:
            return rel
        rel = kept


def moore_equivalent_pairs(mu, observations):
    """The pairs of distinct memory states of ``mu`` that output the same on
    every observation sequence, a missing update keeping the memory."""
    rel = greatest_bisimulation(
        mu.memory_states,
        lambda m: tuple(mu.output.get((m, o)) for o in observations),
        lambda m: [(o, mu.next_memory(m, o)) for o in observations],
    )
    return {(m, n) for m, n in rel if m != n}


def fewest_memory_classes(mu, care):
    """The fewest classes of a partition of ``mu``'s memory states that can
    be merged over the (memory, observation) pairs of ``care``: in each
    class, the members that care about an observation output the same
    there and update into one class.  Brute force over every partition."""
    memory = list(mu.memory_states)
    assert len(memory) <= 8, "brute force over at most 8 memory states"

    def partitions(items):
        if not items:
            yield []
            return
        first, rest = items[0], items[1:]
        for part in partitions(rest):
            yield [[first]] + part
            for i in range(len(part)):
                yield part[:i] + [[first] + part[i]] + part[i + 1:]

    def consistent(block_of):
        seen = {}
        for m, o in care:
            here = (block_of[m], o)
            there = (mu.output.get((m, o)), block_of[mu.next_memory(m, o)])
            if seen.setdefault(here, there) != there:
                return False
        return True

    return min(
        len(part)
        for part in partitions(memory)
        if consistent({m: i for i, block in enumerate(part) for m in block})
    )
