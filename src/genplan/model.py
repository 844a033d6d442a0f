"""Finite partially observable nondeterministic problems and their policies.

The model follows a set-valued successor semantics: applying an available
action yields a nonempty set of possible successor states, observations
are a total function of the state, and goals are a state subset.  Policies
are finite-memory observation-to-action transducers; all infinite-behavior
checks are witnessed by lassos over the finite product of a problem with a
policy.
"""

from __future__ import annotations

import functools
import json
import random
from collections import namedtuple
from dataclasses import dataclass, field

from . import graph
from .errors import (
    InvalidPolicyError,
    MalformedInputError,
    NotATrajectoryError,
    SizeBudgetExceededError,
    UnavailableActionError,
    decoding,
)
from .ltl import DEFAULT_BUDGET


# ---------------------------------------------------------------------------
# Problems
# ---------------------------------------------------------------------------

_MISSING = object()
_PARTS = ("states", "init", "observations", "actions", "goal_states", "avail", "obs_fn")


@dataclass(frozen=True, eq=False)
class Pondp:
    """A finite PONDP: states, initial subset, observations, actions, goal
    states, per-state available actions, observation function, and the
    set-valued successor function defined exactly on available pairs.

    ``annotations`` carries optional free-form metadata (numeric-effect
    tags per action, zero atoms per observation, truncation markers) used
    by constraint binding and diagnostics.  Instances are immutable after
    construction and safe to share.  A problem built from these fields gets
    its `Numbered` form on first use; a problem decoded from JSON holds only
    that form and builds each field above on first access (an invalid one
    raises MalformedInputError there, see `numbered`).
    """

    states: frozenset
    init: frozenset
    observations: frozenset
    actions: frozenset
    goal_states: frozenset
    avail: dict  # state -> frozenset of actions
    obs_fn: dict  # state -> observation
    succ: dict  # (action, state) -> frozenset of states
    annotations: dict = field(default_factory=dict)

    def __post_init__(self):
        for name in _PARTS[:5]:
            object.__setattr__(self, name, frozenset(getattr(self, name)))
        object.__setattr__(self, "avail", {s: frozenset(a) for s, a in self.avail.items()})
        object.__setattr__(self, "succ", {k: frozenset(v) for k, v in self.succ.items()})

    def __getattr__(self, name):
        # reached only for a field that a decoded problem has not built yet
        if name not in _NAMED or "_form" not in self.__dict__:
            raise AttributeError(name)
        value = self.__dict__[name] = _NAMED[name](numbered(self))
        return value

    @functools.cached_property
    def _form(self):
        """(`Numbered` form or None, diagnostics), from the fields."""
        return _number(**{f: getattr(self, f) for f in _PARTS}, succ=self.succ.items())


Numbered = namedtuple("Numbered", "states actions observations obs avail succ goal init")
Numbered.__doc__ = """A valid problem numbered in the ``str`` order of its names
(``states[i]`` names state i): ``obs[i]`` is the observation id of state i,
``avail[i]`` its available action ids and ``succ[i]`` one tuple of successor
ids per available action, all increasing, and ``goal[i]`` whether it is a
goal; ``init`` lists the initial ids in increasing order."""

# the name-keyed fields of a Pondp, from its numbered form
_NAMED = {
    "states": lambda n: frozenset(n.states),
    "init": lambda n: frozenset(n.states[i] for i in n.init),
    "observations": lambda n: frozenset(n.observations),
    "actions": lambda n: frozenset(n.actions),
    "goal_states": lambda n: frozenset(s for s, g in zip(n.states, n.goal) if g),
    "avail": lambda n: {s: frozenset(n.actions[k] for k in ks) for s, ks in zip(n.states, n.avail)},
    "obs_fn": lambda n: {s: n.observations[o] for s, o in zip(n.states, n.obs)},
    "succ": lambda n: {
        (n.actions[k], s): frozenset(n.states[t] for t in ts)
        for s, ks, outs in zip(n.states, n.avail, n.succ) for k, ts in zip(ks, outs)
    },
}


def numbered(p):
    """The `Numbered` form of ``p``; a problem that fails `validate` raises
    MalformedInputError naming the first diagnostic."""
    n, issues = p._form
    if n is None:
        raise MalformedInputError(f"problem fails validation: {issues[0][1]}")
    return n


@dataclass(frozen=True, eq=False)
class PondpClass:
    """An explicit finite class of PONDPs sharing actions, observations,
    goal observations, and per-observation available actions."""

    actions: frozenset
    observations: frozenset
    goal_observations: frozenset
    avail_by_obs: dict  # observation -> frozenset of actions
    members: tuple  # of Pondp


def _by_names(found):
    """Diagnostics from (names, diagnostic) pairs, in ``str`` order of the names."""
    return [d for _, d in sorted(found, key=lambda nd: [str(x) for x in nd[0]])]


def _number(states, init, observations, actions, goal_states, avail, obs_fn, succ):
    """Number a problem given by its name-keyed parts (``succ`` as (key,
    targets) pairs, a key being an (action, state) pair or the text
    "action|state", split at its first bar) and validate it on the way: the
    `Numbered` form (None unless valid) and the diagnostics, (code, message,
    witness) triples by section (init, goals, undeclared states, states,
    successors), each in ``str`` order of the names they give.  A list or an
    object where a name belongs raises TypeError."""
    sid, aid, oid = ({x: i for i, x in enumerate(sorted(dict.fromkeys(xs), key=str))}
                     for xs in (states, actions, observations))
    names, acts = tuple(sid), tuple(aid)
    init, goals = set(init), set(goal_states)
    out = [] if init else [("empty init", "no initial state", None)]
    out += [("init not a state", f"initial state {s!r} not in states", s)
            for s in sorted(init - sid.keys(), key=str)]
    out += [("goal not a state", f"goal state {s!r} not in states", s)
            for s in sorted(goals - sid.keys(), key=str)]
    # successor ids by (action id, state id), or by names when one is unknown
    rows, odd, late, number = {}, {}, [], sid.__getitem__
    for key, targets in succ:
        a, s = key.partition("|")[::2] if isinstance(key, str) else key
        try:
            ids = tuple(sorted(set(map(number, targets))))
        except KeyError:
            ids = tuple(targets)  # as empty as the entry
            late += [((a, s, t), ("unknown successor", f"succ({a!r}, {s!r}) contains {t!r}", t))
                     for t in set(targets) - sid.keys()]
        k, i = aid.get(a), sid.get(s)
        if k is None or i is None:
            odd[(a, s)] = ids
        else:
            rows[k, i] = ids
    for s in sorted({s for _, s in odd}.union(obs_fn, avail) - sid.keys(), key=str):
        hash(obs_fn.get(s)), set(avail.get(s, ()))  # a list in them is malformed too
        out.append(("undeclared state", f"entries for state {s!r}, which is not in states", s))
    found, obs, avail_ids, succ_ids, shared = [], [], [], [], {}
    for i, s in enumerate(names):
        obs.append(oid.get(obs_fn.get(s, _MISSING)))
        if obs[i] is None:
            found.append(((s,), ("missing observation", f"state {s!r} has no observation", s)
                          if s not in obs_fn else
                          ("unknown observation", f"obs({s!r}) not in observations", s)))
        # states with the same available actions share their action ids
        av = tuple(avail.get(s, ()))
        if av not in shared:
            shared[av] = tuple(sorted({aid[a] for a in av if a in aid})), set(av) - aid.keys()
        ks, unknown = shared[av]
        avail_ids.append(ks)
        succ_ids.append(tuple([rows.pop((k, i), None) for k in ks]))
        if unknown or not all(succ_ids[i]):
            found += [((s, a), ("unknown action", f"avail({s!r}) lists {a!r}", (s, a)))
                      for a in unknown]
            pairs = [(a, odd.get((a, s))) for a in unknown] + [
                (acts[k], ids) for k, ids in zip(ks, succ_ids[i])]
            found += [((s, a), ("empty successor set", f"succ({a!r}, {s!r}) empty or missing",
                                (s, a))) for a, ids in pairs if not ids]
    # the entries left in rows are for actions that their states lack
    unavailable = [(a, s) for a, s in odd if a not in set(avail.get(s, ()))]
    unavailable += [(acts[k], names[i]) for k, i in rows]
    late += [((a, s), ("successor for unavailable action", f"succ({a!r}, {s!r}) defined", (s, a)))
             for a, s in unavailable]
    out += _by_names(found) + _by_names(late)
    if out:
        return None, out
    init = tuple(sorted(map(number, init)))
    goal = [s in goals for s in names]
    return Numbered(names, acts, tuple(oid), obs, avail_ids, succ_ids, goal, init), out


def validate(p, cls=None):
    """Check the structural invariants; returns a list of diagnostics,
    empty iff the problem (and its class fit, when given) is valid: its own
    (`_number`, run when a decoded problem was numbered), then, for a valid
    problem, its class fit in the ``str`` order of the states."""
    n, out = p._form[0], list(p._form[1])
    if cls is None or n is None:
        return out
    if not cls.actions.issuperset(n.actions):
        out.append(("foreign actions", "member actions outside the class pool", None))
    if not cls.observations.issuperset(n.observations):
        out.append(("foreign observations", "member observations outside the class pool", None))
    aid = {a: k for k, a in enumerate(n.actions)}  # -1 below: an action p lacks
    want = [tuple(sorted(aid.get(a, -1) for a in cls.avail_by_obs.get(w, ())))
            for w in n.observations]
    for s, o, g, ks in zip(n.states, n.obs, n.goal, n.avail):
        w = n.observations[o]
        if g != (w in cls.goal_observations):
            out.append(("goal not observable",
                        f"state {s!r}: goal membership disagrees with T_Omega", s))
        if ks != want[o]:
            out.append(("precondition not observable",
                        f"state {s!r}: avail differs from A_omega({w!r})", s))
    return out


def validate_class(cls):
    out = []
    for i, p in enumerate(cls.members):
        for code, msg, wit in validate(p, cls):
            out.append((code, f"member {i}: {msg}", wit))
    return out


def infer_class(members):
    """Assemble a PondpClass from valid members (MalformedInputError
    otherwise), inferring the shared goal observations and per-observation
    action sets (each observation's first state by name); validation then
    reports any member that breaks observability of goals or preconditions."""
    members = tuple(members)
    forms = [numbered(p) for p in members]
    goal_obs = set()
    avail_by_obs = {}
    for n in forms:
        for o, g, ks in zip(n.obs, n.goal, n.avail):
            w = n.observations[o]
            if g:
                goal_obs.add(w)
            if w not in avail_by_obs:
                avail_by_obs[w] = frozenset(n.actions[k] for k in ks)
    return PondpClass(
        actions=frozenset().union(*(n.actions for n in forms)),
        observations=frozenset().union(*(n.observations for n in forms)),
        goal_observations=frozenset(goal_obs),
        avail_by_obs=avail_by_obs,
        members=members,
    )


def step(p, s, a):
    """Successor set of applying ``a`` in ``s``; the action must be available."""
    if a not in p.avail.get(s, frozenset()):
        raise UnavailableActionError(f"action {a!r} not available in state {s!r}")
    return p.succ[(a, s)]


# ---------------------------------------------------------------------------
# Trajectories and lassos
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FiniteTrajectory:
    """An alternating state-action sequence s0 a0 s1 ... s_n."""

    states: tuple
    actions: tuple
    level: str = "state"  # "state" or "observation"
    truncated: bool = False

    def __post_init__(self):
        if len(self.states) != len(self.actions) + 1:
            raise ValueError("need exactly one more state than actions")

    def visited_states(self):
        return self.states


@dataclass(frozen=True)
class Lasso:
    """An ultimately periodic trajectory: finite prefix plus a nonempty cycle
    that closes back to its first state.  The canonical witness object for
    all infinite-behavior checks."""

    prefix_states: tuple
    prefix_actions: tuple
    cycle_states: tuple
    cycle_actions: tuple
    level: str = "state"

    def __post_init__(self):
        if len(self.prefix_states) != len(self.prefix_actions):
            raise ValueError("prefix must alternate state action ... state action")
        if not self.cycle_states or len(self.cycle_states) != len(self.cycle_actions):
            raise ValueError("cycle must be a nonempty alternating sequence")

    def visited_states(self):
        return self.prefix_states + self.cycle_states

    def cycle_transitions(self):
        """Transitions (s, a, s') occurring in the cycle, with wraparound."""
        n = len(self.cycle_states)
        out = []
        for i in range(n):
            s = self.cycle_states[i]
            a = self.cycle_actions[i]
            t = self.cycle_states[(i + 1) % n]
            out.append((s, a, t))
        return out

    def word(self):
        """The induced infinite word over states/observations and actions."""
        from .ltl import Word

        pre = []
        for s, a in zip(self.prefix_states, self.prefix_actions):
            pre.extend((s, a))
        cyc = []
        for s, a in zip(self.cycle_states, self.cycle_actions):
            cyc.extend((s, a))
        return Word(tuple(pre), tuple(cyc))


def check_trajectory(p, t):
    """Raise NotATrajectoryError unless t's adjacent triples are transitions
    of ``p`` and t starts in an initial state."""
    if isinstance(t, FiniteTrajectory):
        states, actions = t.states, t.actions
        pairs = list(zip(states, actions, states[1:]))
    else:
        flat_states = t.prefix_states + t.cycle_states
        flat_actions = t.prefix_actions + t.cycle_actions
        pairs = list(zip(flat_states, flat_actions, flat_states[1:]))
        pairs.append((t.cycle_states[-1], t.cycle_actions[-1], t.cycle_states[0]))
    first = (t.states if isinstance(t, FiniteTrajectory) else t.prefix_states + t.cycle_states)[0]
    if first not in p.init:
        raise NotATrajectoryError(f"trajectory starts outside init: {first!r}")
    for s, a, s2 in pairs:
        if a not in p.avail.get(s, frozenset()) or s2 not in p.succ.get((a, s), frozenset()):
            raise NotATrajectoryError(f"({s!r}, {a!r}, {s2!r}) is not a transition")


def is_goal_reaching(p, t):
    """A trajectory is goal reaching iff it visits a goal state anywhere."""
    check_trajectory(p, t)
    return any(s in p.goal_states for s in t.visited_states())


def is_fair(p, t):
    """Finite trajectories are fair.  A lasso is fair iff for every
    transition in its cycle, every sibling outcome of the same state-action
    pair also occurs in the cycle."""
    if isinstance(t, FiniteTrajectory):
        return True
    check_trajectory(p, t)
    occurring = set(t.cycle_transitions())
    for s, a, _ in occurring:
        for sibling in p.succ[(a, s)]:
            if (s, a, sibling) not in occurring:
                return False
    return True


# ---------------------------------------------------------------------------
# Policies
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Policy:
    """Finite-memory observation-to-action transducer.

    ``update`` and ``output`` are partial on memory x observations: a
    missing update keeps the memory state (`next_memory`), and a missing
    output means the policy stops.  A memoryless policy has a single
    memory state."""

    memory_states: tuple
    initial: object
    update: dict  # (memory, observation) -> memory
    output: dict  # (memory, observation) -> action

    @staticmethod
    def memoryless(mapping):
        m = "m0"
        return Policy(
            memory_states=(m,),
            initial=m,
            update={},
            output={(m, o): a for o, a in mapping.items()},
        )

    @property
    def is_memoryless(self):
        return len(self.memory_states) <= 1

    def next_memory(self, m, obs):
        return self.update.get((m, obs), m)

    def action(self, obs_sequence):
        """The denoted partial function on nonempty observation sequences."""
        m = self.initial
        for obs in obs_sequence[:-1]:
            m = self.next_memory(m, obs)
        return self.output.get((m, obs_sequence[-1]))

    def minimized(self, observations, care=None):
        """A policy with merged memory states and the same actions as this
        one on every observation sequence over ``observations`` along which
        this policy's (memory, observation) pairs lie in ``care`` (by
        default every pair; then the result is Moore-minimal).  Every memory state the policy
        names must be declared.

        First the Moore step: memory states are merged when they have the
        same outputs and their updates lead to merged states (`graph.refine`,
        starting from the outputs, with an undefined output as a label of
        its own).  Then every pair outside ``care`` is a don't-care (Paull &
        Unger's incompletely specified machines), and the classes are
        merged greedily in ``memory_states`` order: two classes merge when
        every observation both of them care about gets the same output, and
        the updates there lead to classes that merge too (a union-find
        closure; a conflict drops the tentative merge).  Caring about every
        pair merges nothing more.  Each class keeps the name of its first
        member, and the result writes ``output`` and ``update`` only at
        cared pairs."""
        obs = sorted(observations, key=str)
        block = graph.refine(
            self.memory_states,
            lambda m: tuple(self.output.get((m, o)) for o in obs),
            lambda m: [(o, self.next_memory(m, o)) for o in obs],
        )
        rep = {}
        for m in self.memory_states:
            rep.setdefault(block[m], m)
        kept = tuple(rep.values())
        if care is None:
            care = {(m, o) for m in kept for o in obs}
        # per class root: observation -> (output, class its update leads to)
        table = {m: {} for m in kept}
        for m, o in care:
            c = rep[block[m]]
            table[c][o] = (self.output.get((c, o)), rep[block[self.next_memory(c, o)]])
        order = {m: i for i, m in enumerate(kept)}
        parent = {m: m for m in kept}

        def find(parent, c):
            while parent[c] != c:
                c = parent[c]
            return c

        def closure(parent, table, a, b):
            pending = [(a, b)]
            while pending:
                a, b = sorted((find(parent, c) for c in pending.pop()), key=order.get)
                if a == b:
                    continue
                parent[b] = a
                for o, (act, nxt) in table.pop(b).items():
                    if o not in table[a]:
                        table[a][o] = (act, nxt)
                    elif table[a][o][0] != act:
                        return False
                    else:
                        pending.append((table[a][o][1], nxt))
            return True

        for c in kept:
            for d in table:
                if d == c or find(parent, c) != c:
                    break
                trial = dict(parent), {r: dict(t) for r, t in table.items()}
                if closure(*trial, d, c):
                    parent, table = trial
        return Policy(
            memory_states=tuple(table),
            initial=find(parent, rep[block[self.initial]]),
            update={(r, o): find(parent, n) for r, t in table.items() for o, (_, n) in t.items()},
            output={(r, o): a for r, t in table.items() for o, (a, _) in t.items() if a is not None},
        )

    def as_memoryless_mapping(self):
        if not self.is_memoryless:
            raise ValueError("policy is not memoryless")
        return {obs: a for (_, obs), a in self.output.items()}


# ---------------------------------------------------------------------------
# Simulation
# ---------------------------------------------------------------------------


class SeededResolver:
    """Resolves nondeterministic choices with a seeded RNG; reproducible."""

    def __init__(self, seed=0):
        self.rng = random.Random(seed)

    def choose(self, options):
        return options[self.rng.randrange(len(options))]


class FirstResolver:
    """Always picks the first option in the canonical order."""

    def choose(self, options):
        return options[0]


def run_policy(p, mu, resolver=None, max_steps=10000, stop_at_goal=False):
    """Generate a maximal trajectory of ``mu`` from a resolved initial state.

    Returns a FiniteTrajectory when the policy stops (output undefined, or
    a goal state with ``stop_at_goal``), a Lasso as soon as a state-memory
    pair repeats, or a truncated FiniteTrajectory after ``max_steps``.
    """
    resolver = resolver or FirstResolver()
    start = resolver.choose(sorted(p.init, key=str))
    s = start
    m = mu.initial
    states = [s]
    actions = []
    seen = {}
    while len(actions) < max_steps:
        if stop_at_goal and s in p.goal_states:
            return FiniteTrajectory(states=tuple(states), actions=tuple(actions))
        key = (s, m)
        if key in seen:
            k = seen[key]
            return Lasso(
                prefix_states=tuple(states[:k]),
                prefix_actions=tuple(actions[:k]),
                cycle_states=tuple(states[k:-1]),
                cycle_actions=tuple(actions[k:]),
            )
        seen[key] = len(actions)
        obs = p.obs_fn[s]
        a = mu.output.get((m, obs))
        if a is None:
            return FiniteTrajectory(states=tuple(states), actions=tuple(actions))
        if a not in p.avail.get(s, frozenset()):
            raise InvalidPolicyError(
                f"policy picked unavailable action {a!r} at state {s!r}",
                witness=FiniteTrajectory(states=tuple(states), actions=tuple(actions)),
            )
        m = mu.next_memory(m, obs)
        s = resolver.choose(sorted(p.succ[(a, s)], key=str))
        actions.append(a)
        states.append(s)
    return FiniteTrajectory(
        states=tuple(states), actions=tuple(actions), truncated=True
    )


# ---------------------------------------------------------------------------
# Verdicts and solution checking
# ---------------------------------------------------------------------------

STRONG = "STRONG"
FAIR = "FAIR"


@dataclass(frozen=True)
class Under:
    """Mode marker: solve relative to a trajectory constraint."""

    constraint: object


@dataclass(frozen=True, eq=False)
class Verdict:
    kind: str  # STRONG_SOLUTION | FAIR_SOLUTION | SOLVES_UNDER_CONSTRAINT |
    #            NOT_A_SOLUTION | INVALID_POLICY
    constraint: str = None
    counterexample: object = None
    witness: object = None

    @property
    def is_solution(self):
        return self.kind in ("STRONG_SOLUTION", "FAIR_SOLUTION", "SOLVES_UNDER_CONSTRAINT")

    def to_json_dict(self):
        doc = {"verdict": self.kind}
        if self.constraint is not None:
            doc["constraint"] = self.constraint
        if self.counterexample is not None:
            doc["counterexample"] = trajectory_to_json_dict(self.counterexample)
        if self.witness is not None:
            doc["witness"] = trajectory_to_json_dict(self.witness)
        return doc


@dataclass(frozen=True, eq=False)
class PolicyProduct:
    """The product of a problem with a policy, reachable from the initial
    states, with nodes numbered in the order they are found.

    ``nodes[i]`` is the (state, memory) pair of node i and ``index`` its
    inverse; ``succ[i]`` lists the successor ids in the ``str`` order of
    their states and ``act[i]`` is the action the policy takes at node i
    (None where it stops or picks an unavailable action).  ``start`` holds
    the initial ids, ``stops`` the ids whose output is undefined, and
    ``invalid`` the first id found whose action is unavailable, or None.
    ``state[i]`` is the problem's `Numbered` id of node i's state.
    """

    nodes: list
    index: dict
    succ: list
    act: list
    start: list
    stops: list
    invalid: object
    state: list


def _policy_product(p, mu, budget=DEFAULT_BUDGET):
    """Explore the product of ``p`` (its `Numbered` form) and ``mu`` from
    the initial states, last found first, numbering nodes as they are
    found.  Raises SizeBudgetExceededError once more than ``budget`` nodes
    are numbered (checked before each node is expanded)."""
    n = numbered(p)
    names, obs_of, avail, p_succ = n.states, n.obs, n.avail, n.succ
    aid = {a: k for k, a in enumerate(n.actions)}
    nodes = [(names[s], mu.initial) for s in n.init]
    state = list(n.init)
    index = {node: i for i, node in enumerate(nodes)}
    succ = [()] * len(nodes)
    act = [None] * len(nodes)
    start = list(range(len(nodes)))
    stops = []
    invalid = None
    queue = list(start)
    while queue:
        if len(nodes) > budget:
            raise SizeBudgetExceededError(
                f"policy product exceeded budget: {len(nodes)} nodes built, budget {budget}"
            )
        i = queue.pop()
        s, m = state[i], nodes[i][1]
        obs = n.observations[obs_of[s]]
        a = mu.output.get((m, obs))
        if a is None:
            stops.append(i)
            continue
        k = aid.get(a, -1)
        if k not in avail[s]:
            if invalid is None:
                invalid = i
            continue
        act[i] = a
        m2 = mu.update.get((m, obs), m)
        out = succ[i] = []
        for s2 in p_succ[s][avail[s].index(k)]:
            node = (names[s2], m2)
            j = index.get(node)
            if j is None:
                j = index[node] = len(nodes)
                nodes.append(node)
                state.append(s2)
                succ.append(())
                act.append(None)
                queue.append(j)
            out.append(j)
    return PolicyProduct(nodes, index, succ, act, start, stops, invalid, state)


def _by_str(prod):
    """Sort key ordering node ids by the ``str`` of their (state, memory)
    pairs."""
    return lambda i: str(prod.nodes[i])


def _finite_trace(prod, target, within=None):
    """The finite trajectory of a shortest product path from an initial node
    to ``target`` through nodes of ``within`` (any node when None)."""
    start = prod.start if within is None else [i for i in prod.start if i in within]
    path = graph.shortest_path(start, prod.succ.__getitem__, {target}, within)
    return FiniteTrajectory(
        states=tuple(prod.nodes[i][0] for i in path),
        actions=tuple(prod.act[i] for i in path[:-1]),
    )


def _lasso_from_product(prod, cycle, reach):
    """Build a Lasso from a product cycle (list of ids, closing implicitly)
    with a prefix inside the goal-free region ``reach``."""
    prefix = _finite_trace(prod, cycle[0], reach)
    return Lasso(
        prefix_states=prefix.states[:-1],
        prefix_actions=prefix.actions,
        cycle_states=tuple(prod.nodes[i][0] for i in cycle),
        cycle_actions=tuple(prod.act[i] for i in cycle),
    )


def _goal_free_region(p, prod):
    """The ids reachable from the initial nodes without passing a goal."""
    goal = numbered(p).goal
    free = [not goal[s] for s in prod.state]
    succ = prod.succ
    return graph.reachable(
        [i for i in prod.start if free[i]], lambda i: [j for j in succ[i] if free[j]]
    )


def check_solution(p, mu, mode, budget=DEFAULT_BUDGET):
    """Decide whether ``mu`` solves ``p`` in the requested mode.

    STRONG: no reachable goal-free cycle and no goal-free stop.
    FAIR: the strong-cyclic condition (goal reachable from every reachable
    goal-free node, no goal-free stops).
    Under(c): every goal-avoiding infinite behavior of the product violates
    the constraint, decided through the automaton product (module omega);
    goal-free stops are counterexamples since finite trajectories satisfy
    every constraint.  ``budget`` caps the policy product nodes and the
    automaton states that check builds.
    """
    prod = _policy_product(p, mu, budget)
    if prod.invalid is not None:
        return Verdict(kind="INVALID_POLICY", witness=_finite_trace(prod, prod.invalid))

    reach = _goal_free_region(p, prod)
    stop = min((i for i in prod.stops if i in reach), key=_by_str(prod), default=None)
    if stop is not None:
        return Verdict(kind="NOT_A_SOLUTION", counterexample=_finite_trace(prod, stop, reach))

    def succ_gf(i):
        return [j for j in prod.succ[i] if j in reach]

    if mode == STRONG:
        for comp in graph.sccs(sorted(reach, key=_by_str(prod)), succ_gf):
            if graph.has_cycle(comp, succ_gf):
                v0 = min(comp, key=_by_str(prod))
                cycle = graph.shortest_path([v0], succ_gf, {v0}, set(comp), nonempty=True)
                return Verdict(
                    kind="NOT_A_SOLUTION",
                    counterexample=_lasso_from_product(prod, cycle[:-1], reach),
                )
        return Verdict(kind="STRONG_SOLUTION")

    if mode == FAIR:
        lasso = _fair_counterexample(prod, reach)
        if lasso is not None:
            return Verdict(kind="NOT_A_SOLUTION", counterexample=lasso)
        return Verdict(kind="FAIR_SOLUTION")

    if isinstance(mode, Under):
        from .constraints import counterexample_search

        lasso = counterexample_search(p, mode.constraint, prod, reach, budget=budget)
        if lasso is not None:
            return Verdict(
                kind="NOT_A_SOLUTION",
                constraint=getattr(mode.constraint, "name", None),
                counterexample=lasso,
            )
        return Verdict(
            kind="SOLVES_UNDER_CONSTRAINT",
            constraint=getattr(mode.constraint, "name", None),
        )

    raise ValueError(f"unknown mode {mode!r}")


def _fair_counterexample(prod, reach):
    """A fair lasso of the policy product that stays in the goal-free
    region ``reach`` forever, or None.  It exists iff some node of
    ``reach`` cannot leave it; then it reaches a bottom strongly connected
    component of those nodes and covers all its policy transitions in one
    closed walk."""
    succ = prod.succ
    exits = {j for i in reach for j in succ[i] if j not in reach}
    trapped = reach.difference(graph.backward_reachable(reach, succ.__getitem__, exits))
    if not trapped:
        return None

    def inner(i):
        return [j for j in succ[i] if j in trapped]

    for comp in graph.sccs(sorted(trapped, key=_by_str(prod)), inner):
        comp = set(comp)
        if all(j in comp for i in comp for j in inner(i)):
            return _covering_lasso(prod, comp, inner, reach)
    return None


def _covering_lasso(prod, comp, inner, reach):
    """The lasso of the policy product whose cycle is the covering walk of
    the strongly connected id set ``comp`` under ``inner``, with a prefix
    inside ``reach``."""
    # the walk sorts its nodes by str: give it (state, memory) pairs
    nodes, index = prod.nodes, prod.index
    walk = graph.covering_walk(
        {nodes[i] for i in comp}, lambda n: [nodes[j] for j in inner(index[n])]
    )
    return _lasso_from_product(prod, [index[n] for n in walk], reach)


# ---------------------------------------------------------------------------
# JSON and DOT serialization
# ---------------------------------------------------------------------------


def pondp_to_json_dict(p, cls=None):
    """JSON document for a problem; state, observation and action ids are
    stringified, so round-trips are exact for string-identified problems."""
    doc = {
        "states": [str(s) for s in sorted(p.states, key=str)],
        "init": [str(s) for s in sorted(p.init, key=str)],
        "observations": [str(o) for o in sorted(p.observations, key=str)],
        "actions": [str(a) for a in sorted(p.actions, key=str)],
        "goal_states": [str(s) for s in sorted(p.goal_states, key=str)],
        "obs": {str(s): str(p.obs_fn[s]) for s in sorted(p.states, key=str)},
        "avail": {
            str(s): [str(a) for a in sorted(p.avail.get(s, ()), key=str)]
            for s in sorted(p.states, key=str)
        },
        "succ": {
            f"{a}|{s}": [str(t) for t in sorted(v, key=str)]
            for (a, s), v in sorted(p.succ.items(), key=lambda kv: (str(kv[0][0]), str(kv[0][1])))
        },
    }
    if p.annotations:
        doc["annotations"] = p.annotations
    if cls is not None:
        doc["class"] = {
            "goal_observations": sorted(cls.goal_observations, key=str),
            "avail_by_obs": {
                str(o): sorted(a, key=str) for o, a in sorted(cls.avail_by_obs.items(), key=str)
            },
        }
    return doc


def pondp_from_json_dict(doc):
    """Decode a problem document, numbering and validating it on the way
    (`_number`); the problem keeps only its numbered form and diagnostics,
    so the document can go."""
    with decoding("problem JSON"):
        annotations = doc.get("annotations", {})
        _check_annotations(annotations)
        parts = {f: doc[f] for f in _PARTS[:6]}
        p = object.__new__(Pondp)
        p.__dict__.update(annotations=annotations,
                          _form=_number(**parts, obs_fn=dict(doc["obs"]), succ=doc["succ"].items()))
        return p


def _check_annotations(doc):
    """Raise TypeError unless the annotations that constraints read are an
    object of effect objects, of zero-variable lists and a variable list."""
    if not isinstance(doc, dict):
        raise TypeError("annotations must be an object")
    effects, zero = doc.get("action_effects", {}), doc.get("obs_zero", {})
    lists = [doc.get("variables", []), *zero.values()] if isinstance(zero, dict) else [None]
    if not (
        isinstance(effects, dict) and all(isinstance(e, dict) for e in effects.values())
        and all(isinstance(v, list) and all(isinstance(x, str) for x in v) for v in lists)
    ):
        raise TypeError("annotations must hold objects of effects and lists of names")


def policy_to_json_dict(mu):
    return {
        "memory_states": [str(m) for m in mu.memory_states],
        "initial": str(mu.initial),
        "update": [
            [str(m), str(o), str(m2)]
            for (m, o), m2 in sorted(mu.update.items(), key=str)
        ],
        "output": [
            [str(m), str(o), str(a)]
            for (m, o), a in sorted(mu.output.items(), key=str)
        ],
    }


def policy_from_json_dict(doc):
    """Decode a policy document.  Raises MalformedInputError when it is
    malformed or names a memory state (its initial state, an update target,
    or the memory of an update or output entry) outside ``memory_states``."""
    with decoding("policy JSON"):
        mu = Policy(
            memory_states=tuple(doc["memory_states"]),
            initial=doc["initial"],
            update={(m, o): m2 for m, o, m2 in doc.get("update", [])},
            output={(m, o): a for m, o, a in doc.get("output", [])},
        )
        # Hashing rejects a list or object (TypeError) where a memory state
        # or action is named; the keys of update and output are hashed above.
        frozenset(mu.output.values())
        named = {mu.initial, *mu.update.values(), *(m for m, _ in (*mu.update, *mu.output))}
        undeclared = named - frozenset(mu.memory_states)
        if undeclared:
            raise ValueError(f"memory states not in memory_states: {sorted(undeclared, key=str)}")
        return mu


def valid_pondp(doc):
    """Decode a problem document; one that fails `validate` raises
    MalformedInputError naming the first diagnostic."""
    p = pondp_from_json_dict(doc)
    numbered(p)
    return p


def load_pondp(path):
    """Read a problem file with `valid_pondp`."""
    with open(path) as fh:
        return valid_pondp(json.load(fh))


def save_json(doc, path):
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def trajectory_to_json_dict(t):
    if isinstance(t, FiniteTrajectory):
        return {
            "kind": "finite",
            "level": t.level,
            "states": [str(s) for s in t.states],
            "actions": [str(a) for a in t.actions],
            "truncated": t.truncated,
        }
    return {
        "kind": "lasso",
        "level": t.level,
        "prefix_states": [str(s) for s in t.prefix_states],
        "prefix_actions": [str(a) for a in t.prefix_actions],
        "cycle_states": [str(s) for s in t.cycle_states],
        "cycle_actions": [str(a) for a in t.cycle_actions],
    }


def product_to_dot(p, mu, name="product", highlight=(), budget=DEFAULT_BUDGET):
    """DOT export of the policy product graph; ``highlight`` marks the
    states of a counterexample."""
    hi = set(highlight)
    prod = _policy_product(p, mu, budget)
    lines = [f"digraph {name} {{", "  rankdir=LR;"]
    order = sorted(range(len(prod.nodes)), key=_by_str(prod))
    ids = {i: k for k, i in enumerate(order)}
    for i in order:
        s, m = prod.nodes[i]
        shape = "doublecircle" if s in p.goal_states else "circle"
        color = ',style=filled,fillcolor="#ffdddd"' if s in hi else ""
        lines.append(f'  n{ids[i]} [shape={shape},label="{s}\\n{m}"{color}];')
    for i in prod.start:
        lines.append(f"  init_{ids[i]} [shape=point]; init_{ids[i]} -> n{ids[i]};")
    for i in order:
        for j in prod.succ[i]:
            lines.append(f'  n{ids[i]} -> n{ids[j]} [label="{prod.act[i]}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def pondp_to_dot(p, name="pondp", highlight=()):
    """DOT export; ``highlight`` may carry states of a counterexample."""
    hi = set(highlight)
    lines = [f"digraph {name} {{", "  rankdir=LR;"]
    for s in sorted(p.states, key=str):
        shape = "doublecircle" if s in p.goal_states else "circle"
        color = ',style=filled,fillcolor="#ffdddd"' if s in hi else ""
        lines.append(f'  "{s}" [shape={shape},label="{s}\\n{p.obs_fn[s]}"{color}];')
    for s in sorted(p.init, key=str):
        lines.append(f'  "init_{s}" [shape=point]; "init_{s}" -> "{s}";')
    for (a, s), targets in sorted(p.succ.items(), key=lambda kv: (str(kv[0][0]), str(kv[0][1]))):
        for t in sorted(targets, key=str):
            lines.append(f'  "{s}" -> "{t}" [label="{a}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
