"""Shared fixtures and independent oracles for the test suite.

The oracles here are deliberately separate from the library's algorithms:
brute-force strategy enumeration for parity games, and an exact
class-grouped agreement check between parity automata and the LTL
semantics over a bounded lasso universe.
"""

import itertools

from genplan import graph
from genplan import ltl as L
from genplan.ltl import Word
from genplan.model import Policy, Pondp, infer_class
from genplan.omega import CONTROLLER, Dpw
from genplan.projection import as_fondp

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


def rand_word(rng, letters, maxp=6, maxc=6):
    p = tuple(rng.choice(letters) for _ in range(rng.randrange(maxp + 1)))
    c = tuple(rng.choice(letters) for _ in range(rng.randrange(1, maxc + 1)))
    return Word(p, c)


# ---------------------------------------------------------------------------
# Brute-force parity-game oracle
# ---------------------------------------------------------------------------


def _dominant_cycle_nodes(nodes, succ, priority, parity):
    """Nodes lying on some cycle whose max priority has the given parity."""
    out = set()
    prios = sorted({priority[v] for v in nodes if priority[v] % 2 == parity}, reverse=True)
    for p in prios:
        sub = {v for v in nodes if priority[v] <= p}

        def s(v):
            return [w for w in succ(v) if w in sub]

        for comp in graph.sccs(sorted(sub, key=repr), s):
            comp_set = set(comp)
            if not any(priority[v] == p for v in comp_set):
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
    response with a cycle analysis."""
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


def rand_game(rng, max_nodes=8, max_priority=3):
    from genplan.omega import ParityGame

    n = rng.randrange(2, max_nodes + 1)
    nodes = tuple(range(n))
    owner = {v: rng.randrange(2) for v in nodes}
    priority = {v: rng.randrange(max_priority + 1) for v in nodes}
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
            from genplan.omega import dpw_accepts

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
