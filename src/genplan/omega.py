"""Deterministic parity automata, parity games, and policy synthesis.

Implements the back half of the synthesis pipeline: determinization of
Buchi automata into parity word automata via compact Safra trees, the
letter-class DPW of a violated G F / F G conjunct (counter constraints), the
product of an observation projection with one DPW per constraint
conjunct as a generalized parity game (the bilayer product that the
constraint check builds, `constraints._bilayer_product`), the
generalized Zielonka solver, and strategy extraction into a minimal
policy transducer.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from . import graph, ltl
from .errors import AlphabetMismatchError, SizeBudgetExceededError, decoding

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
    Numbering a state beyond ``budget`` raises, naming ``stage``.  With
    ``complement`` every priority is one higher, so the automaton accepts
    exactly the words the NBA rejects.
    """

    def __init__(self, nba, budget=DEFAULT_BUDGET, stage="full determinization",
                 complement=False):
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
        self._top = 4 * n + 2 + complement  # min-parity to the max-even convention
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
    """Two-player generalized max-parity game.  ``owner`` maps node -> 0
    (controller) or 1 (environment); every node has at least one edge.  A
    priority is a tuple with one entry per parity condition, or an int for
    a single one.  The controller wins a play iff the largest priority seen
    infinitely often is even in some entry; the environment needs it odd in
    every entry (Chatterjee, Henzinger & Piterman, "Generalized Parity
    Games", FoSSaCS 2007)."""

    nodes: tuple
    owner: dict
    priority: dict
    edges: dict  # node -> tuple of successor nodes
    initial: tuple

    def __post_init__(self):
        for v in self.nodes:
            if not self.edges.get(v):
                raise ValueError(f"dead-end node {v!r} in parity game")


@dataclass(frozen=True, eq=False)
class GameSolution:
    region: dict  # node -> winning player
    strategy: dict  # node -> chosen successor, for the node owner's winning region


def _entries(priority):
    """A priority as a tuple of entries; an int is a single entry."""
    return priority if isinstance(priority, tuple) else (priority,)


def _attractor(g, nodes, player, target):
    """Player-``player`` attractor to ``target`` (a subset of ``nodes``) in
    the subgame of ``g`` on ``nodes``, the other player's nodes universal
    (`graph.backward_reachable`); returns (set, strategy).  A player node
    outside ``target`` moves to its first successor in edge order whose
    rank is one lower, so the strategy does not depend on string hashing."""

    def inside(v):
        return [w for w in g.edges[v] if w in nodes]

    rank = graph.backward_reachable(nodes, inside, target, lambda v: g.owner[v] != player)
    strategy = {
        v: next(w for w in g.edges[v] if rank.get(w) == r - 1)
        for v, r in rank.items() if r and g.owner[v] == player
    }
    return set(rank), strategy


def solve_parity(g):
    """Zielonka's recursive algorithm, generalized to tuple priorities;
    returns both winning regions, a positional winning strategy for the
    controller, and environment moves on the environment's region.

    When some entry's top priority is even, the controller wins every play
    that visits it infinitely often, and Zielonka's step takes the
    controller's attractor of that top.  When every top is odd, the
    environment must visit all of them: for each entry in turn, the subgame
    without the environment's attractor of its top is solved, and whatever
    the controller wins there is removed together with the controller's
    attractor.  If no entry leaves the controller anything, the environment
    wins the whole subgame.  The controller, the disjunctive player, wins
    positionally.  With one entry this is Zielonka's algorithm, and the
    environment's moves are a positional winning strategy too; with more,
    the environment may need memory, and its moves are those of the first
    entry's round.  Every node a player wins and owns gets a move: an
    attractor move, a top-node move or one from a recursive call, whose
    subgame is the complement of an attractor, so each of its nodes keeps
    an edge inside."""
    prio = {v: _entries(g.priority[v]) for v in g.nodes}
    k = len(next(iter(prio.values()), ()))

    def rec(nodes):
        if not nodes:
            return [set(), set()], [{}, {}]
        tops = [max(prio[v][i] for v in nodes) for i in range(k)]
        even = [i for i, d in enumerate(tops) if d % 2 == 0]
        player = CONTROLLER if even else ENVIRONMENT
        other = 1 - player
        taken = None
        for i in even[:1] or range(k):
            z = {v for v in nodes if prio[v][i] == tops[i]}
            attr, attr_strat = _attractor(g, nodes, player, z)
            win, strat = rec(nodes - attr)
            if win[other]:
                # the opponent wins that region and its attractor in this subgame
                b, b_strat = _attractor(g, nodes, other, win[other])
                win_b, strat_b = rec(nodes - b)
                win_b[other] |= b
                strat_b[other].update(b_strat)
                strat_b[other].update(strat[other])
                return win_b, strat_b
            if taken is None:
                # attractor strategy, plus any move that stays inside for
                # the top nodes the player owns
                taken = dict(strat[player])
                taken.update(attr_strat)
                for v in z:
                    if g.owner[v] == player and v not in taken:
                        taken[v] = next(w for w in g.edges[v] if w in nodes)
        win, strat = [set(), set()], [{}, {}]
        win[player], strat[player] = set(nodes), taken
        return win, strat

    win, strat = rec(set(g.nodes))
    region = {v: player for player in (CONTROLLER, ENVIRONMENT) for v in win[player]}
    return GameSolution(region=region, strategy={**strat[CONTROLLER], **strat[ENVIRONMENT]})


def cycle_with_max_parity(nodes, succ, priority, parity):
    """Find a cycle, restricted to ``nodes``, whose maximum priority has the
    given parity in every entry (an int priority is a single entry);
    returns the cycle as a node list or None.

    Parity as a Streett condition: a node requests each of its entry
    values ``(i, p)`` of the wrong parity, and an edge out of v answers
    every wrong-parity value below v's own entry.  The cycle is the
    `graph.streett_walk` of the first component `graph.streett_component`
    finds, under the same requests, with ties broken by the order of
    ``nodes``."""
    prio = {v: _entries(priority[v]) for v in nodes}
    wrong = {(i, p) for pr in prio.values() for i, p in enumerate(pr) if p % 2 != parity}

    def requests(v):
        return wrong.intersection(enumerate(prio[v]))

    def answers(v, w):
        return {(i, q) for i, q in wrong if q < prio[v][i]}

    comp = graph.streett_component(prio, succ, requests, answers)
    return None if comp is None else graph.streett_walk(comp, succ, requests, answers)


# ---------------------------------------------------------------------------
# The synthesis game: projection x DPWs
# ---------------------------------------------------------------------------

WIN = ("sink", "win")
LOSE = ("sink", "lose")


def _reading(d, letter):
    """A DPW as the (initial states, successors, letter) triple that
    `constraints._bilayer_product` reads, reading ``letter(v)`` at base
    node v."""
    return (d.initial,), lambda q, x: (d.delta[q, x],), letter


def _priority(dpws, qs):
    """The priority of a tuple of automaton states: one entry per DPW."""
    return tuple(d.priority[q] for d, q in zip(dpws, qs))


def build_parity_game(p, dpws, budget=DEFAULT_BUDGET):
    """The bilayer product (`constraints._trajectory_product`) of a fully
    observable projection with DPWs over its observation-action alphabet,
    as a game in which the controller wins the plays that reach the goal
    or that some DPW accepts.

    Controller nodes ("n", s, qs) pick an available action; environment
    nodes ("m", s, a, qs'), reached once the DPWs have read the
    observation s, pick a successor state.  A node's priority has one
    entry per DPW.  Goal states have no moves, and a controller node
    without moves becomes a sink: `WIN`, even in every entry, at a goal
    (any play that visits the goal satisfies the reachability disjunct,
    and a policy may stop there, so continuations are irrelevant), and
    `LOSE`, odd in every entry, anywhere else.  A sink is in the game only
    when some node reaches it.  Raises SizeBudgetExceededError once more
    than ``budget`` controller nodes of the product are built, those that
    become sinks included; each environment node hangs off one of them,
    one per available action.
    """
    from .constraints import _trajectory_product

    sigma = set(p.observations) | set(p.actions)
    if not all(sigma <= set(d.alphabet) for d in dpws):
        raise AlphabetMismatchError(
            "DPW alphabet does not cover the projection's observations and actions"
        )
    goal = p.goal_states
    automata = [_reading(d, lambda s: s) for d in dpws]
    inits, nodes, edges = _trajectory_product(
        p, automata, budget, goal, "parity game", "controller nodes"
    )
    sinks = {WIN: (0,) * len(dpws), LOSE: (1,) * len(dpws)}

    def fold(x):
        return (WIN if x[1] in goal else LOSE) if x[0] == "n" and not edges[x] else x

    owner, priority, out = {}, {}, {}
    for x in nodes:
        v = fold(x)
        if v in sinks:
            owner[v], priority[v], out[v] = CONTROLLER, sinks[v], (v,)
        else:
            owner[v] = CONTROLLER if x[0] == "n" else ENVIRONMENT
            priority[v] = _priority(dpws, x[-1])
            out[v] = tuple(map(fold, edges[x]))
    initial = tuple(map(fold, inits))
    return ParityGame(tuple(owner), owner, priority, out, initial)


@dataclass(frozen=True, eq=False)
class SynthesisResult:
    realizable: bool
    policy: object = None
    counterstrategy: dict = None  # the environment's moves on its winning region
    game: ParityGame = None
    solution: GameSolution = None
    dpws: tuple = None  # the game's automata: one class Dpw or LazyDpw per conjunct
    nbas: tuple = None  # every conjunct's NBA, when some conjunct needs a LazyDpw
    conjuncts: list = None  # the constraint's bound conjuncts (`constraints._conjuncts`)


def synthesize(p, psi, budget=DEFAULT_BUDGET):
    """Solve the projection under an observation-level LTL constraint psi.

    The controller plays a generalized parity game (`build_parity_game`,
    `solve_parity`) with one DPW per distinct top-level conjunct of psi,
    each accepting the words that violate its conjunct, and wins by
    reaching the goal or by a play that some DPW accepts.  The conjunct's
    shape, not its name, picks its DPW: one with letter classes
    (`constraints._letter_classes`, such as every counter constraint) gets
    its `_class_dpw` and no tableau.  When some conjunct has none, every
    conjunct gets an NBA (`constraints._conjunct_nbas`), which the result
    keeps as ``nbas`` for the constraint check of its policy, and each
    conjunct without letter classes plays the complement of its NBA,
    determinized on the fly as a `LazyDpw`.  The result also keeps the
    bound conjuncts as ``conjuncts``, so the check of its policy binds the
    constraint no second time.  The policy comes from `_synthesize_on`.
    """
    from .constraints import _conjunct_nbas, _conjuncts, constraint_alphabet

    sigma = constraint_alphabet(psi, p)
    conjuncts = _conjuncts(psi, p)
    nbas = {} if all(cls for _, cls in conjuncts) else _conjunct_nbas(psi, p, budget)
    dpws = tuple(
        _class_dpw(sigma, *cls) if cls else
        LazyDpw(nbas[f], budget, stage="synthesis-game determinization", complement=True)
        for f, cls in conjuncts
    )
    return _synthesize_on(p, dpws, budget, tuple(nbas.values()) or None, conjuncts)


def _synthesize_on(p, dpws, budget, nbas=None, conjuncts=None):
    """Play the game of ``p`` with ``dpws`` and keep ``nbas`` and
    ``conjuncts`` in the result.
    A winning strategy becomes a transducer policy whose memory is the
    played tuples of automaton states (the states themselves when there is
    one automaton) plus a ``halt`` state, minimized over the (memory,
    observation) pairs its product with the projection reaches
    (`model.Policy.minimized`).  An unrealizable result carries the
    environment's moves on its winning region as ``counterstrategy``.
    """
    from .model import Policy, _policy_product

    game = build_parity_game(p, dpws, budget)
    sol = solve_parity(game)

    if not all(sol.region[v] == CONTROLLER for v in game.initial):
        counter = {
            v: sol.strategy[v]
            for v in game.nodes
            if game.owner[v] == ENVIRONMENT and sol.region[v] == ENVIRONMENT
        }
        return SynthesisResult(
            realizable=False, counterstrategy=counter, game=game, solution=sol, dpws=dpws,
            nbas=nbas, conjuncts=conjuncts,
        )
    strategy = _uniform_actions(game, sol.strategy)  # the play reads only controller moves
    played, _ = _played_region(game, strategy)
    name = (lambda qs: qs[0]) if len(dpws) == 1 else (lambda qs: qs)
    initial = tuple(d.initial for d in dpws)
    memory = sorted(
        {v[2] for v in played if v[0] == "n"} | {initial}, key=lambda qs: str(name(qs))
    )
    observations = sorted(p.observations, key=str)
    halt = "halt"
    update = {(halt, obs): halt for obs in observations}
    output = {}
    for qs in memory:
        m = name(qs)
        for obs in observations:
            v = ("n", obs, qs)
            move = strategy.get(v) if v in played else None
            if move is not None:
                output[(m, obs)] = move[2]
                # the next memory is the automaton states the move leads to;
                # a move whose outcomes are all goal states leads to none
                nxt = [w for w in game.edges[move] if w[0] == "n"]
                update[(m, obs)] = name(nxt[0][2]) if nxt else halt
            else:
                update[(m, obs)] = halt
    policy = Policy(
        memory_states=tuple(map(name, memory)) + (halt,),
        initial=name(initial),
        update=update,
        output=output,
    )
    prod = _policy_product(p, policy, budget)
    care = {(m, p.obs_fn[s]) for s, m in prod.nodes}
    policy = policy.minimized(observations, care)
    return SynthesisResult(
        realizable=True, policy=policy, game=game, solution=sol, dpws=dpws, nbas=nbas,
        conjuncts=conjuncts,
    )


def _class_dpw(sigma, s, ts):
    """The DPW over ``sigma`` of the words that violate the conjunct
    ``G F s | F G t_1 | ... | F G t_b`` (letter sets): finitely many
    letters of s, and infinitely many of each ``sigma - t_k`` (of sigma
    when b = 0), degeneralized with a counter.  State ``3 j + c`` awaits
    set j and read a letter of class c, its priority: 3 in s, 2 in the
    last awaited set (j restarts at 0), else 1; a letter of an earlier
    awaited set moves to j + 1.  It has 2 b + 1 states (3 when b <= 1,
    where the state is the class of the last letter) and 3 priorities."""
    awaited = [sigma - t for t in ts] or [sigma]
    b = len(awaited)

    def step(j, x):
        if x in s:
            return 3 * j + 3
        if x in awaited[j]:
            return 2 if j + 1 == b else 3 * j + 4
        return 3 * j + 1

    states = sorted({2} | {3 * j + c for j in range(b) for c in (1, 3)})
    return Dpw(
        states=tuple(states),
        alphabet=frozenset(sigma),
        delta={(q, x): step((q - 1) // 3, x) for q in states for x in sigma},
        initial=1,
        priority={q: (q - 1) % 3 + 1 for q in states},
    )


def _played_region(game, strategy):
    """Nodes reachable from the initial nodes when the controller follows
    ``strategy`` and the environment moves freely, and the successor
    function of that play; the region is closed under it."""

    def succ(v):
        if game.owner[v] == CONTROLLER and v in strategy:
            return [strategy[v]]
        return game.edges[v]

    return graph.reachable(game.initial, succ), succ


def _play_is_winning(game, strategy):
    """Whether no played cycle has an odd maximum in every entry."""
    reach, succ = _played_region(game, strategy)
    return cycle_with_max_parity(reach, succ, game.priority, 1) is None


def _uniform_actions(game, strategy):
    """One action per observation where the play allows it.  For each
    observation (in ``str`` order) whose played controller nodes take more
    than one action, try each of those actions (in ``str`` order) at all of
    them, and keep the first under which the play still wins.  Nodes that
    agree on their action need no memory to tell them apart."""
    for obs in sorted({v[1] for v in game.nodes if v[0] == "n"}, key=str):
        played, _ = _played_region(game, strategy)
        nodes = [v for v in played if v[0] == "n" and v[1] == obs]
        actions = sorted({strategy[v][2] for v in nodes}, key=str)
        if len(actions) < 2:
            continue
        for a in actions:
            trial = dict(strategy)
            trial.update((v, next(e for e in game.edges[v] if e[2] == a)) for v in nodes)
            if _play_is_winning(game, trial):
                strategy = trial
                break
    return strategy


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
