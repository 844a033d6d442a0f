"""Deterministic parity automata, parity games, and policy synthesis.

Implements the back half of the synthesis pipeline: determinization of
Buchi automata into parity word automata via compact Safra trees, the
product of an observation projection with a DPW as a two-player parity
game, Zielonka's recursive solver, strategy extraction into a policy
transducer, and the direct small DPW for qualitative-numerical
constraints.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from . import graph, ltl
from .errors import AlphabetMismatchError, SizeBudgetExceededError, decoding
from .ltl import Word

DEFAULT_BUDGET = ltl.DEFAULT_BUDGET


# ---------------------------------------------------------------------------
# Deterministic parity word automata
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Dpw:
    """Deterministic parity word automaton with max-even acceptance.

    ``delta`` is total on states x alphabet.  A word is accepted iff the
    largest priority among the states visited infinitely often is even.
    """

    states: tuple
    alphabet: frozenset
    delta: dict
    initial: object
    priority: dict

    def to_json_dict(self):
        states = [str(q) for q in self.states]
        return {
            "states": states,
            "alphabet": sorted(self.alphabet),
            "delta": {
                f"{q}|{a}": str(self.delta[(q, a)])
                for q in self.states
                for a in sorted(self.alphabet)
            },
            "initial": str(self.initial),
            "priority": {str(q): self.priority[q] for q in self.states},
        }


def dpw_from_json_dict(doc):
    with decoding("DPW JSON"):
        delta = {}
        for key, tgt in doc["delta"].items():
            q, _, a = key.rpartition("|")
            delta[(q, a)] = tgt
        return Dpw(
            states=tuple(doc["states"]),
            alphabet=frozenset(doc["alphabet"]),
            delta=delta,
            initial=doc["initial"],
            priority={q: int(p) for q, p in doc["priority"].items()},
        )


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


def normalize_priorities(d):
    """Compact priorities into a contiguous range preserving order and parity."""
    used = sorted(set(d.priority.values()))
    remap = {}
    cur = None
    prev = None
    for p in used:
        if cur is None:
            cur = p % 2
        elif (p - prev) % 2 == 1:
            cur += 1
        remap[p] = cur
        prev = p
    return Dpw(
        states=d.states,
        alphabet=d.alphabet,
        delta=d.delta,
        initial=d.initial,
        priority={q: remap[p] for q, p in d.priority.items()},
    )


# ---------------------------------------------------------------------------
# Determinization: compact Safra trees with parity output
# ---------------------------------------------------------------------------
#
# A tree is a nested tuple (name, label, children).  Node names encode
# seniority: ancestors are older than descendants and siblings are ordered
# oldest first.  Each transition records e = the least name that died and
# f = the least name whose label collapsed onto its children (a green
# flash).  With min-even parity, 2f if f < e, else 2e - 1, else neutral;
# a name that is eventually stable and flashes infinitely often yields an
# even dominant priority exactly when the underlying Buchi automaton has
# an accepting run.  State-based priorities are recovered by pairing each
# tree with the priority of its incoming transition.


def _tree_step(tree, sigma, nba):
    """One Safra-tree transition; returns (tree', min-parity priority)."""
    died = []
    greened = []
    counter = itertools.count(_max_name(tree) + 1)

    def move_and_spawn(node):
        name, label, kids = node
        new_label = frozenset(
            r for q in label for r in nba.successors(q, sigma)
        )
        new_kids = [move_and_spawn(k) for k in kids]
        burst = new_label & nba.accepting
        if burst:
            new_kids.append((next(counter), burst, ()))
        return (name, new_label, tuple(new_kids))

    def dedup(node, stolen):
        name, label, kids = node
        label = label - stolen
        claimed = set()
        new_kids = []
        for k in kids:
            k2 = dedup(k, stolen | claimed)
            claimed |= k2[1]
            new_kids.append(k2)
        return (name, label, tuple(new_kids))

    def drop_empty(node):
        name, label, kids = node
        kids = tuple(k2 for k in kids for k2 in [drop_empty(k)] if k2 is not None)
        if not label:
            died.append(name)
            return None
        return (name, label, kids)

    def breakpoint_pass(node):
        name, label, kids = node
        if kids and label == frozenset().union(*(k[1] for k in kids)):
            greened.append(name)
            return (name, label, ())
        return (name, label, tuple(breakpoint_pass(k) for k in kids))

    if tree is None:
        out = None
    else:
        t = move_and_spawn(tree)
        t = dedup(t, frozenset())
        t = drop_empty(t)
        if t is not None:
            t = breakpoint_pass(t)
        out = t

    e = min(died) if died else None
    f = min(greened) if greened else None
    n = len(nba.states)
    neutral = 4 * n + 1
    if f is not None and (e is None or f < e):
        pri = 2 * f
    elif e is not None:
        pri = 2 * e - 1
    else:
        pri = neutral
    return _compact_names(out), pri


def _max_name(tree):
    if tree is None:
        return 0
    best = tree[0]
    for k in tree[2]:
        best = max(best, _max_name(k))
    return best


def _all_names(tree, out):
    if tree is None:
        return
    out.append(tree[0])
    for k in tree[2]:
        _all_names(k, out)


def _compact_names(tree):
    names = []
    _all_names(tree, names)
    remap = {nm: i + 1 for i, nm in enumerate(sorted(names))}

    def rename(node):
        name, label, kids = node
        return (remap[name], label, tuple(rename(k) for k in kids))

    return rename(tree) if tree is not None else None


class _LazyDelta(dict):
    """Transition table that computes an entry the first time it is read."""

    def __init__(self, fill):
        super().__init__()
        self._fill = fill

    def __missing__(self, key):
        value = self[key] = self._fill(*key)
        return value


class LazyDpw:
    """The compact-tree determinization of an NBA, built on demand.

    Reads like a `Dpw` (``alphabet``, ``initial``, ``delta``, ``priority``)
    over integer states numbered in discovery order; state i stands for the
    pair (tree, min-parity priority of the incoming transition).  A
    ``delta`` entry is computed the first time it is read, numbering its
    target if that is new, and ``priority`` (max-even) is filled as states
    are numbered.  A consumer that explores from ``initial`` therefore
    builds only the states it reaches; ``states`` lists those built so far.
    Numbering a state beyond ``budget`` raises, naming ``stage``.
    """

    def __init__(self, nba, budget=DEFAULT_BUDGET, stage="full determinization"):
        n = len(nba.states)
        self.alphabet = nba.alphabet
        self.delta = _LazyDelta(self._successor)
        self.priority = {}
        self._nba = nba
        self._budget = budget
        self._stage = stage
        self._pairs = []  # state -> (tree, min-parity priority)
        self._index = {}
        self._steps = {}  # (tree, letter) -> _tree_step result
        self._top = 4 * n + 2  # converts min-parity to the max-even convention
        init_tree = (1, frozenset(nba.initial), ()) if nba.initial else None
        self.initial = self._number((init_tree, 4 * n + 1))

    @property
    def states(self):
        return range(len(self._pairs))

    def _number(self, pair):
        q = self._index.get(pair)
        if q is None:
            if len(self._pairs) >= self._budget:
                raise SizeBudgetExceededError(
                    f"{self._stage} exceeded budget: {len(self._pairs)} states "
                    f"built, budget {self._budget}"
                )
            q = self._index[pair] = len(self._pairs)
            self._pairs.append(pair)
            self.priority[q] = self._top - pair[1]
        return q

    def _successor(self, q, sigma):
        key = (self._pairs[q][0], sigma)
        nxt = self._steps.get(key)
        if nxt is None:
            nxt = self._steps[key] = _tree_step(key[0], sigma, self._nba)
        return self._number(nxt)

    def explore(self):
        """Build every reachable state (depth first, letters in sorted
        order) and return the complete automaton as a `Dpw`."""
        letters = sorted(self.alphabet)
        stack = [self.initial]
        while stack:
            q = stack.pop()
            for sigma in letters:
                built = len(self._pairs)
                self.delta[(q, sigma)]  # numbers the successor if it is new
                stack.extend(range(built, len(self._pairs)))
        return Dpw(
            states=tuple(self.states),
            alphabet=self.alphabet,
            delta=dict(self.delta),
            initial=self.initial,
            priority=dict(self.priority),
        )


def nba_to_dpw(a, budget=DEFAULT_BUDGET):
    """Determinize via the compact-tree construction.  ``L(Dpw) = L(Nba)``;
    the number of priorities is linear in the number of Buchi states.

    Builds every reachable state of `LazyDpw`, then reduces the result by a
    priority-respecting bisimulation quotient (safe, not canonical
    minimization) with integer states.
    """
    return normalize_priorities(quotient_dpw(LazyDpw(a, budget).explore()))


def quotient_dpw(d):
    """Quotient by the coarsest partition refining priorities and respecting
    the transition function; preserves the language and relabels states with
    integers."""
    letters = sorted(d.alphabet)
    block = graph.refine(
        d.states, d.priority.__getitem__, lambda q: [(a, d.delta[(q, a)]) for a in letters]
    )
    rep = {}
    for q in d.states:
        rep.setdefault(block[q], q)
    n_classes = len(rep)
    delta = {
        (b, a): block[d.delta[(rep[b], a)]] for b in range(n_classes) for a in letters
    }
    return Dpw(
        states=tuple(range(n_classes)),
        alphabet=d.alphabet,
        delta=delta,
        initial=block[d.initial],
        priority={b: d.priority[rep[b]] for b in range(n_classes)},
    )


# ---------------------------------------------------------------------------
# Parity games
# ---------------------------------------------------------------------------

CONTROLLER = 0
ENVIRONMENT = 1


@dataclass(frozen=True, eq=False)
class ParityGame:
    """Two-player max-parity game.  ``owner`` maps node -> 0 (controller,
    wins on even) or 1 (environment); every node has at least one edge."""

    nodes: tuple
    owner: dict
    priority: dict
    edges: dict  # node -> tuple of successor nodes
    initial: tuple
    payload: dict = field(default_factory=dict)

    def __post_init__(self):
        for v in self.nodes:
            if not self.edges.get(v):
                raise ValueError(f"dead-end node {v!r} in parity game")


@dataclass(frozen=True, eq=False)
class GameSolution:
    region: dict  # node -> winning player
    strategy: dict  # node -> chosen successor, for the node owner's winning region


def _attractor(nodes, edges, owner, player, target):
    """Player-``player`` attractor to ``target``; returns (set, strategy)."""
    preds = {v: [] for v in nodes}
    for v in nodes:
        for w in edges[v]:
            preds[w].append(v)
    out_deg = {v: len(edges[v]) for v in nodes}
    attr = set(target)
    strategy = {}
    queue = list(target)
    while queue:
        w = queue.pop()
        for v in preds[w]:
            if v in attr:
                continue
            if owner[v] == player:
                attr.add(v)
                strategy[v] = w
                queue.append(v)
            else:
                out_deg[v] -= 1
                if out_deg[v] == 0:
                    attr.add(v)
                    queue.append(v)
    return attr, strategy


def solve_parity(g):
    """Zielonka's recursive algorithm; returns winning regions and positional
    strategies for both players."""
    region = {}
    strategy = {}

    def rec(nodes):
        if not nodes:
            return set(), set(), {}, {}
        edges = {v: tuple(w for w in g.edges[v] if w in nodes) for v in nodes}
        d = max(g.priority[v] for v in nodes)
        player = d % 2
        z = {v for v in nodes if g.priority[v] == d}
        attr, attr_strat = _attractor(nodes, edges, g.owner, player, z)
        w0, w1, s0, s1 = rec(nodes - attr)
        win = (w0, w1)[player]
        lose = (w0, w1)[1 - player]
        strat_win = (s0, s1)[player]
        strat_lose = (s0, s1)[1 - player]
        if not lose:
            # player takes everything: attractor strategy, plus any move
            # that stays inside for the priority-d nodes the player owns
            strat = dict(strat_win)
            strat.update(attr_strat)
            for v in z:
                if g.owner[v] == player and v not in strat:
                    strat[v] = edges[v][0]
            if player == 0:
                return set(nodes), set(), strat, {}
            return set(), set(nodes), {}, strat
        b, b_strat = _attractor(nodes, edges, g.owner, 1 - player, lose)
        w0b, w1b, s0b, s1b = rec(nodes - b)
        if 1 - player == 0:
            win0 = w0b | b
            strat0 = dict(s0b)
            strat0.update(b_strat)
            strat0.update(strat_lose)
            return win0, w1b, strat0, s1b
        win1 = w1b | b
        strat1 = dict(s1b)
        strat1.update(b_strat)
        strat1.update(strat_lose)
        return w0b, win1, s0b, strat1

    w0, w1, s0, s1 = rec(set(g.nodes))
    for v in w0:
        region[v] = 0
    for v in w1:
        region[v] = 1
    strategy.update(s0)
    strategy.update(s1)
    # ensure every winning node of its owner has a move recorded
    for v in g.nodes:
        if g.owner[v] == region[v] and v not in strategy:
            same = [w for w in g.edges[v] if region[w] == region[v]]
            strategy[v] = same[0] if same else g.edges[v][0]
    return GameSolution(region=region, strategy=strategy)


def cycle_with_max_parity(nodes, succ, priority, parity):
    """Find a cycle whose maximum priority has the given parity, restricted
    to ``nodes``; returns the cycle as a node list or None."""
    prios = sorted({priority[v] for v in nodes if priority[v] % 2 == parity}, reverse=True)
    return graph.dominant_cycle(
        nodes, succ, {v: (priority[v],) for v in nodes}, [(p,) for p in prios]
    )


def verify_strategy(g, solution, player):
    """Cycle analysis: within the player's region, with the player's moves
    fixed and the opponent free, every cycle's max priority must favor the
    player.  Returns True when the strategy is winning."""
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


# ---------------------------------------------------------------------------
# The synthesis game: projection x DPW
# ---------------------------------------------------------------------------

WIN = ("sink", "win")
LOSE = ("sink", "lose")


def build_parity_game(p, d, budget=DEFAULT_BUDGET):
    """Product of a fully observable projection with a DPW over its
    observation-action alphabet.

    Controller nodes (s, q) pick an available action after the DPW reads
    the observation letter; environment nodes (s, q', a) pick a successor
    state.  Goal observations collapse into an even sink: any play that
    visits the goal satisfies the reachability disjunct, and a policy may
    stop there, so continuations are irrelevant.  Non-goal nodes with no
    available action are losing sinks.  Raises SizeBudgetExceededError
    once more than ``budget`` controller nodes, sinks included, are built;
    each environment node hangs off one of them, one per available action.
    """
    sigma = set(p.observations) | set(p.actions)
    if not sigma <= set(d.alphabet):
        raise AlphabetMismatchError(
            "DPW alphabet does not cover the projection's observations and actions"
        )
    nodes = []
    owner = {}
    priority = {}
    edges = {}
    payload = {}

    built = 0

    def add(v, own, pri, pl):
        nonlocal built
        if v not in owner:
            nodes.append(v)
            owner[v] = own
            priority[v] = pri
            payload[v] = pl
            built += own == CONTROLLER
            if built > budget:
                raise SizeBudgetExceededError(
                    f"parity game exceeded budget: {built} controller nodes built, "
                    f"budget {budget}"
                )
        return v

    def win():
        add(WIN, CONTROLLER, 0, ("win",))
        edges[WIN] = (WIN,)
        return WIN

    def lose():
        add(LOSE, CONTROLLER, 1, ("lose",))
        edges[LOSE] = (LOSE,)
        return LOSE

    initial = []
    queue = []

    def ctrl_node(s, q):
        if s in p.goal_states:
            return win()
        v = ("c", s, q)
        if v not in owner:
            add(v, CONTROLLER, d.priority[q], (s, q, None))
            queue.append(v)
        return v

    for s in sorted(p.init, key=str):
        initial.append(ctrl_node(s, d.initial))

    while queue:
        v = queue.pop()
        _, s, q = v
        q1 = d.delta[(q, s)]
        outs = []
        for a in sorted(p.avail.get(s, ()), key=str):
            e = ("e", s, q1, a)
            if e not in owner:
                add(e, ENVIRONMENT, d.priority[q1], (s, q1, a))
                q2 = d.delta[(q1, a)]
                succs = tuple(
                    ctrl_node(s2, q2) for s2 in sorted(p.succ[(a, s)], key=str)
                )
                edges[e] = succs
            outs.append(e)
        edges[v] = tuple(outs) if outs else (lose(),)

    return ParityGame(
        nodes=tuple(nodes),
        owner=owner,
        priority=priority,
        edges=edges,
        initial=tuple(initial),
        payload=payload,
    )


@dataclass(frozen=True, eq=False)
class SynthesisResult:
    realizable: bool
    policy: object = None
    counterstrategy: dict = None
    game: ParityGame = None
    solution: GameSolution = None
    dpw: object = None  # a Dpw, or the LazyDpw the game explored
    formula: object = None


def synthesize(p, psi, budget=DEFAULT_BUDGET, direct=None):
    """Solve the projection under an observation-level LTL constraint.

    Builds ``constraint -> eventually goal`` over the projection's
    observation-action alphabet, determinizes it, and solves the resulting
    parity game, extracting a transducer policy whose memory is the
    played automaton states plus a ``halt`` state, minimized over the
    (memory, observation) pairs its product with the projection reaches
    (`model.Policy.minimized`).

    The automaton comes from the generic pipeline (tableau NBA, then
    compact-tree determinization as a `LazyDpw`, so only the automaton
    states the game reaches are built).  When the constraint is a conjunction
    of per-variable counter constraints, the hand-built record automaton
    (`qnp_dpw_direct`) recognizes the same language with exponentially
    fewer states, and is used instead; ``direct`` forces the choice.
    """
    from .constraints import _qnp_template_vars, constraint_formula
    from .model import Policy, _policy_product

    sigma = frozenset(set(p.observations) | set(p.actions))
    psi_f = constraint_formula(psi, p) if not isinstance(psi, ltl.Formula) else psi
    goal_f = ltl.lor(*[ltl.Letter(g) for g in sorted(p.goal_states, key=str)])
    phi = ltl.implies(psi_f, ltl.eventually(goal_f))
    if direct is None:
        direct = _qnp_template_vars(psi) is not None
    if direct:
        variables = _qnp_template_vars(psi)
        if variables is None:
            raise ValueError("constraint is not a conjunction of counter constraints")
        dpw = _qnp_direct_for_problem(p, variables)
    else:
        nba = ltl.ltl_to_nba(phi, sigma, budget=budget)
        dpw = LazyDpw(nba, budget, stage="synthesis-game determinization")
    game = build_parity_game(p, dpw, budget)
    sol = solve_parity(game)

    if all(sol.region[v] == CONTROLLER for v in game.initial):
        strategy = _improve_strategy(game, sol)
        played = _played_region(game, strategy)
        memory = sorted(
            {v[2] for v in played if v[0] == "c"} | {dpw.initial}, key=str
        )
        observations = sorted(p.observations, key=str)
        halt = "halt"
        update = {(halt, obs): halt for obs in observations}
        output = {}
        for q in memory:
            for obs in observations:
                v = ("c", obs, q)
                move = strategy.get(v) if v in played else None
                if obs not in p.goal_states and move is not None and move != LOSE:
                    _, _, q1, a = move
                    output[(q, obs)] = a
                    # a move whose outcomes are all goal states leads to no
                    # played automaton state
                    done = all(w == WIN for w in game.edges[move])
                    update[(q, obs)] = halt if done else dpw.delta[(q1, a)]
                else:
                    update[(q, obs)] = halt
        policy = Policy(
            memory_states=tuple(memory) + (halt,),
            initial=dpw.initial,
            update=update,
            output=output,
        )
        prod = _policy_product(p, policy, budget)
        care = {(m, p.obs_fn[s]) for s, m in prod.nodes}
        policy = policy.minimized(observations, care)
        return SynthesisResult(
            realizable=True, policy=policy, game=game, solution=sol, dpw=dpw, formula=phi
        )
    counter = {
        v: sol.strategy[v]
        for v in game.nodes
        if game.owner[v] == ENVIRONMENT and sol.region[v] == ENVIRONMENT and v in sol.strategy
    }
    return SynthesisResult(
        realizable=False,
        counterstrategy=counter,
        game=game,
        solution=sol,
        dpw=dpw,
        formula=phi,
    )


def _qnp_direct_for_problem(p, variables):
    sigma = frozenset(set(p.observations) | set(p.actions))
    effects = p.annotations.get("action_effects", {})
    obs_zero = {
        o: set(p.annotations.get("obs_zero", {}).get(o, ()))
        for o in p.observations
    }
    inc_letters = {
        v: {a for a in p.actions if effects.get(a, {}).get(v) == "inc"}
        for v in variables
    }
    dec_letters = {
        v: {a for a in p.actions if effects.get(a, {}).get(v) == "dec"}
        for v in variables
    }
    return qnp_dpw_direct(
        variables, frozenset(p.goal_states), obs_zero, inc_letters, dec_letters, sigma
    )


def _played_region(game, strategy):
    """Nodes reachable from the initial nodes when the controller follows
    ``strategy`` and the environment moves freely."""

    def succ(v):
        if game.owner[v] == CONTROLLER and v in strategy:
            return [strategy[v]]
        return game.edges[v]

    return graph.reachable(game.initial, succ)


def _play_is_winning(game, strategy):
    reach = _played_region(game, strategy)

    def succ(v):
        if game.owner[v] == CONTROLLER and v in strategy:
            return [strategy[v]] if strategy[v] in reach else []
        return [w for w in game.edges[v] if w in reach]

    return cycle_with_max_parity(reach, succ, game.priority, 1) is None


def _improve_strategy(game, sol):
    """Deterministic tie-breaking: greedily lower each reachable controller
    node's move to the least-indexed alternative that keeps the played game
    winning.  Edge order encodes action order, so this prefers the
    lowest-indexed winning action."""
    strategy = {
        v: w for v, w in sol.strategy.items()
        if game.owner[v] == CONTROLLER and sol.region[v] == CONTROLLER
    }
    rank = {v: {w: i for i, w in enumerate(game.edges[v])} for v in game.nodes}
    while True:
        changed = False
        for v in sorted(_played_region(game, strategy), key=str):
            if game.owner[v] != CONTROLLER or v not in strategy:
                continue
            current = rank[v][strategy[v]]
            for w in game.edges[v]:
                if rank[v][w] >= current:
                    break
                if sol.region.get(w) != CONTROLLER:
                    continue
                trial = dict(strategy)
                trial[v] = w
                if _play_is_winning(game, trial):
                    strategy = trial
                    changed = True
                    break
            if changed:
                break
        if not changed:
            return strategy


def refute_policy(result, p, policy, max_steps=100000):
    """Play a candidate policy against the environment counterstrategy of an
    unrealizable instance; returns a violating trajectory (finite or lasso)
    or None when the policy cannot be refuted from any initial state."""
    from .model import FiniteTrajectory, Lasso

    game = result.game
    sol = result.solution
    start = None
    for v in game.initial:
        if v != WIN and sol.region[v] == ENVIRONMENT:
            start = v
            break
    if start is None:
        return None
    s = start[1]
    q = result.dpw.initial
    mem = policy.initial
    states = [s]
    actions = []
    seen = {}
    for _ in range(max_steps):
        if s in p.goal_states:
            return None
        key = (s, q, mem)
        if key in seen:
            k = seen[key]
            return Lasso(
                prefix_states=tuple(states[:k]),
                prefix_actions=tuple(actions[:k]),
                cycle_states=tuple(states[k:-1]),
                cycle_actions=tuple(actions[k:]),
                level="state",
            )
        seen[key] = len(actions)
        obs = p.obs_fn[s]
        a = policy.output.get((mem, obs))
        if a is None:
            # maximal finite non-goal trajectory: already a counterexample
            return FiniteTrajectory(states=tuple(states), actions=tuple(actions), level="state")
        mem = policy.update.get((mem, obs), mem)
        q1 = result.dpw.delta[(q, s)]
        move = result.counterstrategy.get(("e", s, q1, a))
        q = result.dpw.delta[(q1, a)]
        if move is not None and move not in (WIN, LOSE):
            s = move[1]
        else:
            s = sorted(p.succ[(a, s)], key=str)[0]
        actions.append(a)
        states.append(s)
    return FiniteTrajectory(
        states=tuple(states), actions=tuple(actions), level="state", truncated=True
    )


def dpw_language_difference(d1, d2):
    """Exact language comparison of two DPWs over the same alphabet.

    Returns None when L(d1) = L(d2); otherwise an ultimately periodic
    witness word accepted by exactly one of them.  Works on the synchronous
    product: a difference exists iff some reachable cycle has an even
    dominant priority on one side and an odd one on the other.
    """
    if set(d1.alphabet) != set(d2.alphabet):
        raise AlphabetMismatchError("DPW alphabets differ")
    letters = sorted(d1.alphabet)
    init = (d1.initial, d2.initial)

    def succ(v):
        return [(d1.delta[(v[0], a)], d2.delta[(v[1], a)]) for a in letters]

    nodes = graph.reachable([init], succ)
    prio = {v: (d1.priority[v[0]], d2.priority[v[1]]) for v in nodes}
    p1s = sorted({pr[0] for pr in prio.values()})
    p2s = sorted({pr[1] for pr in prio.values()})
    targets = [(pa, pb) for pa in p1s for pb in p2s if pa % 2 != pb % 2]
    cycle = graph.dominant_cycle(nodes, succ, prio, targets)
    if cycle is None:
        return None
    prefix = graph.shortest_path([init], succ, {cycle[0]})

    def spell(path):
        return tuple(letters[succ(u).index(w)] for u, w in zip(path, path[1:]))

    return Word(spell(prefix), spell(cycle + cycle[:1]))


# ---------------------------------------------------------------------------
# Direct DPW for qualitative numerical constraints
# ---------------------------------------------------------------------------


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


# ---------------------------------------------------------------------------
# DOT export
# ---------------------------------------------------------------------------


def dpw_to_dot(d, name="dpw"):
    lines = [f"digraph {name} {{", "  rankdir=LR;"]
    ids = {q: i for i, q in enumerate(d.states)}
    for q in d.states:
        lines.append(f'  n{ids[q]} [shape=circle,label="{ids[q]}:{d.priority[q]}"];')
    lines.append(f"  init [shape=point]; init -> n{ids[d.initial]};")
    for (q, sym), r in sorted(d.delta.items(), key=repr):
        lines.append(f'  n{ids[q]} -> n{ids[r]} [label="{sym}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
