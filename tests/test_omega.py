"""Tests for determinization, parity games, and synthesis."""

import itertools
import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genplan import ltl as L
from genplan.ltl import Letter, Word, eval_lasso, eventually, ltl_to_nba, parse_ltl
from genplan.model import Policy, Under, check_solution, is_goal_reaching, run_policy
from genplan.omega import (
    CONTROLLER,
    ENVIRONMENT,
    LOSE,
    WIN,
    ParityGame,
    build_parity_game,
    cycle_with_max_parity,
    dpw_from_json_dict,
    nba_to_dpw,
    solve_parity,
    synthesize,
)
from genplan.constraints import (
    ALL_TRAJECTORIES, conjoin, constraint_formula, qnp_constraint, qnp_constraints,
)
from genplan.model import Pondp
from genplan.projection import as_fondp

from .helpers import (
    annotated_problems,
    brute_force_winning,
    counter_projection,
    reference_counter_dpw,
    counter_acceptance_formula,
    dpw_accepts,
    dpw_language_difference,
    ltl_text_constraint,
    nba_check,
    qnp_dpw_direct,
    qnp_dpw_for_problem,
    rand_formula,
    rand_game,
    rand_word,
    refute_policy,
    safra_synthesize,
    synthesis_language_difference,
    verify_strategy,
)

SIGMA = frozenset({"Inc", "Dec", "X=0", "X>0"})


# ---------------------------------------------------------------------------
# Determinization
# ---------------------------------------------------------------------------


def test_dpw_eventually_goal():
    """Determinizing F goal gives a small DPW agreeing with the semantics on
    every lasso up to 3+3."""
    f = eventually(Letter("goal"))
    alphabet = {"goal", "other"}
    dpw = nba_to_dpw(ltl_to_nba(f, alphabet))
    assert len(dpw.states) <= 8
    for pl in range(4):
        for prefix in itertools.product(sorted(alphabet), repeat=pl):
            for cl in range(1, 4):
                for cycle in itertools.product(sorted(alphabet), repeat=cl):
                    w = Word(prefix, cycle)
                    assert dpw_accepts(dpw, w) == eval_lasso(f, w, alphabet)


def test_dpw_empty_language():
    dpw = nba_to_dpw(ltl_to_nba(L.FALSE, {"a"}))
    assert not dpw_accepts(dpw, Word((), ("a",)))


def test_dpw_totality():
    dpw = nba_to_dpw(ltl_to_nba(eventually(Letter("a")), {"a", "b"}))
    for q in dpw.states:
        for a in ("a", "b"):
            assert (q, a) in dpw.delta


def test_reference_counter_dpw_spot_checks():
    """The hand-coded DPW classifies the three canonical words the way the
    acceptance formula does."""
    d = reference_counter_dpw()
    phi = counter_acceptance_formula()
    # unfair decrement loop: constraint violated, so the implication holds
    w1 = Word((), ("X>0", "Dec"))
    assert dpw_accepts(d, w1) and eval_lasso(phi, w1, SIGMA)
    # reaching zero then anything: the reachability disjunct holds
    w2 = Word(("X>0", "Dec", "X=0"), ("Inc", "X>0", "Dec"))
    assert dpw_accepts(d, w2) and eval_lasso(phi, w2, SIGMA)
    # infinitely many increments and decrements, never zero: rejected
    w3 = Word((), ("X>0", "Inc", "X>0", "Dec"))
    assert not dpw_accepts(d, w3) and not eval_lasso(phi, w3, SIGMA)


def test_pipeline_matches_reference_exactly():
    """Full language equivalence between the pipeline DPW for the acceptance
    formula and the hand-coded five-state automaton."""
    phi = counter_acceptance_formula()
    dpw = nba_to_dpw(ltl_to_nba(phi, SIGMA))
    assert dpw_language_difference(dpw, reference_counter_dpw()) is None


def test_language_difference_finds_witness():
    """A corrupted priority is caught with a genuine distinguishing word."""
    d = reference_counter_dpw()
    broken = type(d)(
        states=d.states,
        alphabet=d.alphabet,
        delta=d.delta,
        initial=d.initial,
        priority={**d.priority, "sI": 2},
    )
    phi = counter_acceptance_formula()
    good = nba_to_dpw(ltl_to_nba(phi, SIGMA))
    w = dpw_language_difference(good, broken)
    assert w is not None
    assert dpw_accepts(good, w) != dpw_accepts(broken, w)
    assert dpw_accepts(good, w) == eval_lasso(phi, w, SIGMA)


def test_dpw_sampling_agreement():
    rng = random.Random(23)
    letters = ["a", "b", "c"]
    for _ in range(40):
        f = rand_formula(rng, 4, letters)
        dpw = nba_to_dpw(ltl_to_nba(f, set(letters)))
        for _ in range(25):
            w = rand_word(rng, letters)
            assert dpw_accepts(dpw, w) == eval_lasso(f, w, set(letters))


def test_dpw_json_roundtrip():
    dpw = nba_to_dpw(ltl_to_nba(eventually(Letter("a")), {"a", "b"}))
    doc = dpw.to_json_dict()
    back = dpw_from_json_dict(doc)
    for pl in range(3):
        for prefix in itertools.product("ab", repeat=pl):
            for cycle in itertools.product("ab", repeat=2):
                w = Word(prefix, cycle)
                assert dpw_accepts(dpw, w) == dpw_accepts(back, w)


# ---------------------------------------------------------------------------
# Parity games
# ---------------------------------------------------------------------------


def _loop_game(priority):
    return ParityGame(
        nodes=("v",),
        owner={"v": CONTROLLER},
        priority={"v": priority},
        edges={"v": ("v",)},
        initial=("v",),
    )


def test_single_node_even_loop():
    sol = solve_parity(_loop_game(0))
    assert sol.region["v"] == CONTROLLER


def test_single_node_odd_loop():
    sol = solve_parity(_loop_game(1))
    assert sol.region["v"] == ENVIRONMENT


def test_zielonka_against_brute_force():
    """Winning regions match exhaustive strategy enumeration on seeded random
    games (the full 200-game run is in the acceptance suite)."""
    rng = random.Random(99)
    for _ in range(40):
        g = rand_game(rng)
        sol = solve_parity(g)
        w0 = brute_force_winning(g, CONTROLLER)
        assert {v for v in g.nodes if sol.region[v] == CONTROLLER} == w0
        w1 = brute_force_winning(g, ENVIRONMENT)
        assert {v for v in g.nodes if sol.region[v] == ENVIRONMENT} == w1
        assert verify_strategy(g, sol, CONTROLLER)
        assert verify_strategy(g, sol, ENVIRONMENT)


def test_dead_end_rejected():
    with pytest.raises(ValueError):
        ParityGame(
            nodes=("v", "w"),
            owner={"v": 0, "w": 1},
            priority={"v": 0, "w": 0},
            edges={"v": ("w",), "w": ()},
            initial=("v",),
        )


# ---------------------------------------------------------------------------
# The synthesis game
# ---------------------------------------------------------------------------


def test_game_shape_and_win():
    """Controller wins the counter game under the constraint DPW; the game
    has at most two controller nodes per DPW state."""
    p = counter_projection()
    phi = counter_acceptance_formula()
    dpw = nba_to_dpw(ltl_to_nba(phi, SIGMA))
    game = build_parity_game(p, [dpw])
    ctrl = [v for v in game.nodes if game.owner[v] == CONTROLLER]
    assert ctrl and len(ctrl) <= 2 * len(dpw.states)
    sol = solve_parity(game)
    assert all(sol.region[v] == CONTROLLER for v in game.initial)


def test_game_sinks():
    """A goal state is in the game only as the `WIN` sink, an initial one
    too; a reachable dead end that is not a goal folds into the `LOSE`
    sink, and `LOSE` is in the game exactly when such a dead end is
    reachable.  Every node has an edge."""

    def projection(to_dead_end):
        states = {"g", "s", "t", "d"}
        return as_fondp(
            Pondp(
                states=states,
                init={"g", "s"},
                observations=states,
                actions={"go", "stay"},
                goal_states={"g"},
                avail={"g": {"stay"}, "s": {"go", "stay"}, "t": {"go"}, "d": set()},
                obs_fn={v: v for v in states},
                succ={
                    ("stay", "g"): {"g"},
                    ("stay", "s"): {"s"},
                    ("go", "s"): {"g", "t"},
                    ("go", "t"): {"d"} if to_dead_end else {"s"},
                },
            )
        )

    for to_dead_end in (True, False):
        p = projection(to_dead_end)
        dpw = nba_to_dpw(ltl_to_nba(L.TRUE, set(p.observations) | set(p.actions)))
        game = build_parity_game(p, [dpw])
        assert all(game.edges[v] for v in game.nodes)
        assert WIN in game.initial and game.edges[WIN] == (WIN,)
        assert all(v in (WIN, LOSE) or v[1] != "g" for v in game.nodes)
        assert (LOSE in game.nodes) == to_dead_end
        assert all(game.owner[v] == CONTROLLER for v in (WIN, LOSE) if v in game.nodes)


def test_game_reachability_goal_only():
    """Under the plain reachability objective the environment wins from the
    positive observation: it can keep every decrement positive."""
    p = counter_projection()
    goal_only = eventually(Letter("X=0"))
    dpw = nba_to_dpw(ltl_to_nba(goal_only, SIGMA))
    game = build_parity_game(p, [dpw])
    sol = solve_parity(game)
    assert all(sol.region[v] == ENVIRONMENT for v in game.initial)


def test_game_trivially_winning_when_deterministic():
    p = as_fondp(
        Pondp(
            states={"s", "t"},
            init={"s"},
            observations={"s", "t"},
            actions={"go"},
            goal_states={"t"},
            avail={"s": {"go"}, "t": {"go"}},
            obs_fn={"s": "s", "t": "t"},
            succ={("go", "s"): {"t"}, ("go", "t"): {"t"}},
        )
    )
    dpw = nba_to_dpw(ltl_to_nba(L.TRUE, {"s", "t", "go"}))
    game = build_parity_game(p, [dpw])
    sol = solve_parity(game)
    assert all(sol.region[v] == CONTROLLER for v in game.nodes)


# ---------------------------------------------------------------------------
# Synthesis end to end
# ---------------------------------------------------------------------------


def test_synthesize_counter_realizable():
    p = counter_projection()
    res = synthesize(p, qnp_constraint("X"))
    assert res.realizable
    verdict = check_solution(p, res.policy, Under(qnp_constraint("X")))
    assert verdict.kind == "SOLVES_UNDER_CONSTRAINT"
    # reachable behavior is exactly "decrement while positive"
    actions = {o: a for (m, o), a in res.policy.output.items()}
    assert actions == {"X>0": "Dec"}


def test_synthesize_unconstrained_unrealizable():
    p = counter_projection()
    res = synthesize(p, ALL_TRAJECTORIES)
    assert not res.realizable
    assert res.counterstrategy


def test_unrealizable_refutation():
    """The environment counterstrategy refutes sample policies with concrete
    violating lassos."""
    p = counter_projection()
    res = synthesize(p, ALL_TRAJECTORIES)
    for mapping in ({"X>0": "Dec"}, {"X>0": "Inc"}, {"X>0": "Dec", "X=0": "Inc"}):
        mu = Policy.memoryless(mapping)
        t = refute_policy(res, p, mu)
        assert t is not None
        if hasattr(t, "cycle_states"):
            assert not is_goal_reaching(p, t)


def test_refute_policy_inside_the_game():
    """Fixed inside a realizable game, on the letter-class automaton or on
    the compact-Safra one of the same constraint, the synthesized policy is
    not refuted; a policy that increments forever is refuted by a lasso,
    and one that stops short of the goal by a finite trajectory."""
    from genplan.model import FiniteTrajectory

    p = counter_projection()
    cx = qnp_constraint("X")
    for route, res in (("class", synthesize(p, cx)), ("safra", safra_synthesize(p, cx))):
        assert refute_policy(res, p, res.policy) is None, route
        t = refute_policy(res, p, Policy.memoryless({"X>0": "Inc"}))
        assert t.cycle_states == ("X>0",) and t.cycle_actions == ("Inc",), route
        t = refute_policy(res, p, Policy.memoryless({}))
        assert isinstance(t, FiniteTrajectory) and t.states == ("X>0",), route


def test_synthesize_goal_already_reached():
    p = as_fondp(
        Pondp(
            states={"g"},
            init={"g"},
            observations={"g"},
            actions={"loop"},
            goal_states={"g"},
            avail={"g": {"loop"}},
            obs_fn={"g": "g"},
            succ={("loop", "g"): {"g"}},
        )
    )
    res = synthesize(p, ALL_TRAJECTORIES)
    assert res.realizable
    assert not res.policy.output  # empty-output policy


def test_synthesized_policy_runs_on_members():
    from .helpers import concrete_counter

    p = counter_projection()
    res = synthesize(p, qnp_constraint("X"))
    for x0 in (1, 5, 10):
        t = run_policy(concrete_counter(x0), res.policy)
        assert len(t.actions) == x0
        assert t.states[-1] == "X=0"


# ---------------------------------------------------------------------------
# Counter constraint automata: the record automaton (reference) and the
# letter-class automata synthesis plays on
# ---------------------------------------------------------------------------


def _direct_counter_dpw():
    return qnp_dpw_direct(
        ("X",),
        {"X=0"},
        {"X=0": {"X"}, "X>0": set()},
        {"X": {"Inc"}},
        {"X": {"Dec"}},
        SIGMA,
    )


def test_qnp_dpw_one_var_matches_reference():
    """One variable: five states, three priorities, same language as the
    hand transcription and the generic pipeline (exhaustively on small
    lassos, exactly by product analysis)."""
    d = _direct_counter_dpw()
    assert len(d.states) == 5
    assert len(set(d.priority.values())) == 3
    assert dpw_language_difference(d, reference_counter_dpw()) is None
    pipeline = nba_to_dpw(ltl_to_nba(counter_acceptance_formula(), SIGMA))
    assert dpw_language_difference(d, pipeline) is None
    phi = counter_acceptance_formula()
    letters = sorted(SIGMA)
    for pl in range(3):
        for prefix in itertools.product(letters, repeat=pl):
            for cl in range(1, 3):
                for cycle in itertools.product(letters, repeat=cl):
                    w = Word(prefix, cycle)
                    assert dpw_accepts(d, w) == eval_lasso(phi, w, SIGMA)


def test_qnp_dpw_empty_vars():
    """No variables: the automaton is the reachability automaton."""
    alphabet = frozenset({"goal", "other", "act"})
    d = qnp_dpw_direct((), {"goal"}, {"goal": set(), "other": set()}, {}, {}, alphabet)
    f = eventually(Letter("goal"))
    rng = random.Random(3)
    for _ in range(300):
        w = rand_word(rng, sorted(alphabet), 4, 4)
        assert dpw_accepts(d, w) == eval_lasso(f, w, alphabet)


def _twovar_alphabet():
    obs = ["X=0,Y=0", "X=0,Y>0", "X>0,Y=0", "X>0,Y>0"]
    acts = ["a", "b"]  # a decrements X and increments Y; b decrements Y
    alphabet = frozenset(obs + acts)
    obs_zero = {
        "X=0,Y=0": {"X", "Y"},
        "X=0,Y>0": {"X"},
        "X>0,Y=0": {"Y"},
        "X>0,Y>0": set(),
    }
    inc = {"X": set(), "Y": {"a"}}
    dec = {"X": {"a"}, "Y": {"b"}}
    return alphabet, obs_zero, inc, dec


def test_qnp_dpw_two_vars_agrees_with_pipeline():
    """Two variables: the record automaton stays language-equivalent to the
    generic pipeline (checked on 10,000 random lassos and exactly by
    product analysis); it needs 2|V|+1 priorities, not three."""
    alphabet, obs_zero, inc, dec = _twovar_alphabet()
    d = qnp_dpw_direct(("X", "Y"), {"X=0,Y=0"}, obs_zero, inc, dec, alphabet)
    assert len(set(d.priority.values())) <= 5

    proj = _twovar_projection()
    psi = constraint_formula(conjoin(qnp_constraints(["X", "Y"])), proj)
    goal = Letter("X=0,Y=0")
    phi = L.implies(psi, eventually(goal))
    pipeline = nba_to_dpw(ltl_to_nba(phi, alphabet))

    rng = random.Random(17)
    letters = sorted(alphabet)
    for _ in range(10000):
        w = rand_word(rng, letters, 5, 5)
        assert dpw_accepts(d, w) == dpw_accepts(pipeline, w), w
    assert dpw_language_difference(d, pipeline) is None


def test_no_three_priority_dpw_for_two_variables():
    """Witness for the priority lower bound: a nested loop family whose
    verdicts alternate accept/reject four deep forces any DPW for the
    two-variable formula to use at least four priorities.  The record
    automaton classifies the chain correctly."""
    alphabet, obs_zero, inc, dec = _twovar_alphabet()
    d = qnp_dpw_direct(("X", "Y"), {"X=0,Y=0"}, obs_zero, inc, dec, alphabet)
    n = "X>0,Y>0"
    zx, zy = "X=0,Y>0", "X>0,Y=0"
    x = (n, "b")          # Y decrements forever: accept via Y
    y = (zy, "b")         # Y observed zero: resets Y
    z = (n, "a")          # X decrements (increments Y): accept via X
    w = (zx, "a")         # X observed zero: resets X
    words = [
        (Word((), x), True),
        (Word((), x + y), False),
        (Word((), x + y + z), True),
        (Word((), x + y + z + w), False),
    ]
    for word, expect in words:
        assert dpw_accepts(d, word) == expect


def _twovar_projection():
    from genplan.qnp import parse_qnp, syntactic_projection

    q = parse_qnp(
        "vars X Y\ninit_values X in {2}\ninit_values Y in {2}\n"
        "action a\n  pre X>0\n  dec X\n  inc Y\n"
        "action b\n  pre Y>0\n  dec Y\ngoal X=0 Y=0\n"
    )
    return syntactic_projection(q).fondp


def test_counter_class_dpws_accept_exactly_the_violations():
    """Synthesis under builtin counter constraints plays on one letter-class
    automaton per variable: 3 states for the weak form, whose state is the
    class of the last letter read, and 5 for the strong form, which awaits
    two Büchi sets (decrements, then X > 0 observations).  On the
    two-variable QNP it accepts a lasso iff the lasso violates that
    variable's constraint, for every lasso over the letters with a prefix
    and a cycle of at most two letters each."""
    alphabet = _twovar_alphabet()[0]
    proj = _twovar_projection()
    letters = sorted(alphabet)
    for strong in (False, True):
        res = synthesize(proj, conjoin(qnp_constraints(["X", "Y"], strong=strong)))
        assert len(res.dpws) == 2
        for var, d in zip(("X", "Y"), res.dpws):
            assert len(d.states) == (5 if strong else 3)
            assert len(set(d.priority.values())) == 3
            f = constraint_formula(qnp_constraint(var, strong=strong), proj)
            for pl in range(3):
                for prefix in itertools.product(letters, repeat=pl):
                    for cl in range(1, 3):
                        for cycle in itertools.product(letters, repeat=cl):
                            w = Word(prefix, cycle)
                            violated = not eval_lasso(f, w, alphabet)
                            assert dpw_accepts(d, w) == violated, (strong, var, w)


def _routes(p, c):
    """(route, synthesis result) for the builtin constraint ``c``, for the
    same constraint as LTL text, and for the compact-Safra reference."""
    return (
        ("builtin", synthesize(p, c)),
        ("ltl text", synthesize(p, ltl_text_constraint(c, p))),
        ("safra", safra_synthesize(p, c)),
    )


def test_synthesize_builtin_and_ltl_text_agree():
    """The builtin counter constraint and the same constraint as LTL text
    play the same letter-class automaton, and give the verdict and the
    reachable policy behavior of the compact-Safra route on the counter.
    Each game lets the controller win exactly the words of the record
    automaton for ``qnp(X) -> eventually goal``."""
    p = counter_projection()
    cx = qnp_constraint("X")
    record = qnp_dpw_for_problem(p, ["X"])
    for route, res in _routes(p, cx):
        assert res.realizable, route
        actions = {o: a for (m, o), a in res.policy.output.items()}
        assert actions == {"X>0": "Dec"}, route
        assert synthesis_language_difference(res.dpws, p.goal_states, record) is None, route


def test_synthesize_two_var_builtin_and_ltl_text_agree():
    proj = _twovar_projection()
    cv = conjoin(qnp_constraints(["X", "Y"]))
    record = qnp_dpw_for_problem(proj, ["X", "Y"])
    for route, res in _routes(proj, cv):
        assert res.realizable, route
        assert synthesis_language_difference(res.dpws, proj.goal_states, record) is None, route
        assert check_solution(proj, res.policy, Under(cv)).is_solution, route
        assert nba_check(proj, res.policy, cv).is_solution, route


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data())
def test_class_route_agrees_with_safra_on_random_fragment_formulas(data):
    """Seeded sweep of random letter-class formulas (one or two conjuncts of
    one to three G F / F G terms) on the two-variable projection: synthesis
    on the class automata gives the verdict of synthesis on the
    compact-Safra automata, and each policy the class route finds passes
    both checks.  Under every memoryless policy and a random finite-memory
    one, the Streett check finds a lasso iff the check through the
    conjunct NBAs does, and its lasso avoids the goal, is generated by the
    policy and satisfies the constraint."""
    from genplan.constraints import _conjuncts, ltl_constraint, satisfies

    from .helpers import finite_memory_policies, is_generated_by, rand_fragment_formula

    p = _twovar_projection()
    letters = sorted(set(p.observations) | set(p.actions))
    c = ltl_constraint(rand_fragment_formula(random.Random(data.draw(st.integers(0, 2**30))), letters))
    assert all(cls for _, cls in _conjuncts(c, p)), c.name
    res = synthesize(p, c)
    assert res.realizable == safra_synthesize(p, c).realizable, c.name
    if res.realizable:
        assert check_solution(p, res.policy, Under(c)).is_solution, c.name
        assert nba_check(p, res.policy, c).is_solution, c.name
    for mu in [*_memoryless_policies(p), data.draw(finite_memory_policies(p, max_memory=2))]:
        verdict = check_solution(p, mu, Under(c))
        assert verdict.kind == nba_check(p, mu, c).kind, (c.name, mu)
        t = verdict.counterexample
        if t is not None and hasattr(t, "cycle_states"):
            assert not set(t.visited_states()) & p.goal_states
            assert is_generated_by(p, mu, t) and satisfies(c, t, p), c.name


def test_repeated_counter_constraint_gets_one_automaton():
    """A variable named twice in a conjunction of builtin counter
    constraints gets one automaton, and the policy of the variable alone."""
    p = counter_projection()
    cx = qnp_constraint("X")
    once = synthesize(p, cx)
    twice = synthesize(p, conjoin([cx, cx]))
    assert len(once.dpws) == len(twice.dpws) == 1
    for field in ("memory_states", "initial", "update", "output"):
        assert getattr(twice.policy, field) == getattr(once.policy, field), field


def _fully_observable(p):
    """``p`` with every state observed as itself; a state shows X = 0 iff
    its observation in ``p`` did."""
    zero = p.annotations["obs_zero"]
    annotations = dict(p.annotations, obs_zero={s: zero[p.obs_fn[s]] for s in p.states})
    return as_fondp(Pondp(
        states=p.states,
        init=p.init,
        observations=set(p.states),
        actions=p.actions,
        goal_states=p.goal_states,
        avail=p.avail,
        obs_fn={s: s for s in p.states},
        succ=p.succ,
        annotations=annotations,
    ))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(annotated_problems().map(_fully_observable), st.sampled_from(["X", "Y", "XY"]))
def test_class_synthesis_agrees_with_record_automaton(p, variables):
    """Seeded sweep over random fully observable annotated problems: under
    qnp(X), qnp(Y) or both, synthesis on the letter-class automata gives
    the verdict of the game on the record automaton, and every policy it
    finds passes the constraint check."""
    c = conjoin(qnp_constraints(variables))
    res = synthesize(p, c)
    game = build_parity_game(p, (qnp_dpw_for_problem(p, tuple(variables)),))
    sol = solve_parity(game)
    assert res.realizable == all(sol.region[v] == CONTROLLER for v in game.initial)
    if res.realizable:
        assert check_solution(p, res.policy, Under(c)).is_solution


def test_synthesized_policies_declare_their_memory_and_are_minimal():
    """Moves whose outcomes are all goal states once updated to automaton
    states the game never played.  On the letter-class automata of the
    builtin counter constraints and on the compact-Safra ones of the same
    constraints, every memory state a synthesized policy names is
    declared, and no two are Moore-equivalent."""
    from genplan.qnp import parse_qnp, syntactic_projection

    from .helpers import moore_equivalent_pairs

    suite = {
        "blocks_clear": (
            "fluents holding\nvars n\ninit_values n in [1,50]\n"
            "action unstack_above\n  pre n>0 !holding\n  add holding\n  dec n\n"
            "action putdown\n  pre holding\n  del holding\ngoal n=0 !holding\n"
        ),
        "counter_goal_positive": (
            "vars X\ninit_values X in {0,2}\n"
            "action Dec\n  pre X>0\n  dec X\naction Inc\n  inc X\ngoal X>0\n"
        ),
    }
    for name, text in suite.items():
        q = parse_qnp(text)
        proj = syntactic_projection(q).fondp
        cv = conjoin(qnp_constraints(q.variables))
        for route, res in (("class", synthesize(proj, cv)), ("safra", safra_synthesize(proj, cv))):
            mu = res.policy
            memory = set(mu.memory_states)
            assert mu.initial in memory and set(mu.update.values()) <= memory, (name, route)
            assert {m for m, _ in (*mu.update, *mu.output)} <= memory, (name, route)
            assert not moore_equivalent_pairs(mu, sorted(proj.observations)), (name, route)
            assert check_solution(proj, mu, Under(cv)).is_solution, (name, route)


def test_pipeline_budget_smoke():
    """Desk-scale complexity check: the pipeline stays within budget on a
    formula of size about 25 over a 32-state projection."""
    n = 32
    states = [f"s{i}" for i in range(n)]
    succ = {}
    avail = {}
    for i, s in enumerate(states):
        avail[s] = {"step", "jump"}
        succ[("step", s)] = {states[(i + 1) % n]}
        succ[("jump", s)] = {states[(i + 1) % n], states[(i + 7) % n]}
    p = as_fondp(
        Pondp(
            states=set(states),
            init={states[0]},
            observations=set(states),
            actions={"step", "jump"},
            goal_states={states[n - 1]},
            avail=avail,
            obs_fn={s: s for s in states},
            succ=succ,
        )
    )
    sigma = set(states) | {"step", "jump"}
    phi = parse_ltl("G F step -> F s31", sigma)
    assert phi.size <= 25
    nba = ltl_to_nba(phi, frozenset(sigma))
    dpw = nba_to_dpw(nba)
    game = build_parity_game(p, [dpw])
    sol = solve_parity(game)
    assert all(v in sol.region for v in game.nodes)


THREEVAR_CHAIN = (
    "vars X Y Z\ninit_values X in {3}\ninit_values Y in {2}\ninit_values Z in {2}\n"
    "action a\n  pre X>0\n  dec X\n  inc Y\n"
    "action b\n  pre Y>0\n  dec Y\n  inc Z\n"
    "action c\n  pre Z>0\n  dec Z\ngoal X=0 Y=0 Z=0\n"
)


def test_solved_strategy_ignores_hash_seed():
    """Zielonka's attractor strategies move to the first successor in edge
    order one rank closer to the target, so the solved strategy of
    `counter` and `threevar_chain`, with builtin counter constraints on
    their letter-class automata and on the compact-Safra automata of their
    conjunct NBAs, is the same under hash seeds 0 and 1 (compared by sha1),
    and so is the policy synthesized from it.
    So are the witnesses of searches that break ties by the order a
    product found its nodes: an `implies` witness on each problem, the
    fair one of `counter`, and the Büchi-product witness of a two-memory
    policy of `counter`."""
    code = (
        "import hashlib, sys\n"
        "from genplan.constraints import ALL_TRAJECTORIES, _conjunct_nbas, conjoin, implies\n"
        "from genplan.constraints import fairness_constraint, ltl_constraint, qnp_constraints\n"
        "from genplan.ltl import parse_ltl\n"
        "from genplan.model import Policy, Under, check_solution, policy_to_json_dict\n"
        "from genplan.omega import LazyDpw, _synthesize_on, synthesize\n"
        "from genplan.qnp import parse_qnp, syntactic_projection\n"
        "for text in sys.argv[1:]:\n"
        "    q = parse_qnp(text)\n"
        "    p = syntactic_projection(q).fondp\n"
        "    c = conjoin(qnp_constraints(q.variables))\n"
        "    safra = [LazyDpw(a, complement=True) for a in _conjunct_nbas(c, p, 10**6).values()]\n"
        "    for res in (synthesize(p, c), _synthesize_on(p, safra, 10**6)):\n"
        "        strategy = sorted(res.solution.strategy.items(), key=repr)\n"
        "        print(hashlib.sha1(repr(strategy).encode()).hexdigest())\n"
        "        print(policy_to_json_dict(res.policy))\n"
        "    gf = ltl_constraint(parse_ltl('G F ' + max(p.actions)))\n"
        "    print(implies(ALL_TRAJECTORIES, gf, p).witness)\n"
        "p = syntactic_projection(parse_qnp(sys.argv[1])).fondp\n"
        "print(implies(fairness_constraint(), ltl_constraint(parse_ltl('F G Dec')), p).witness)\n"
        "toggle = {('m0', 'X>0'): 'm1', ('m1', 'X>0'): 'm0'}\n"
        "mu = Policy(('m0', 'm1'), 'm0', toggle, {('m0', 'X>0'): 'Dec', ('m1', 'X>0'): 'Inc'})\n"
        "c = ltl_constraint(parse_ltl('G (Dec -> X F Inc)'))\n"
        "print(check_solution(p, mu, Under(c)).to_json_dict())\n"
    )
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "problems", "counter.qnp")) as f:
        counter = f.read()
    src = os.path.dirname(os.path.dirname(L.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    outs = [
        subprocess.run(
            [sys.executable, "-c", code, counter, THREEVAR_CHAIN],
            env=dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=seed),
            capture_output=True, text=True, check=True,
        ).stdout
        for seed in ("0", "1")
    ]
    assert outs[0] == outs[1] and outs[0].count("\n") == 12
    assert outs[0].count("Lasso(") == 3 and "NOT_A_SOLUTION" in outs[0]


def test_parity_cycle_search():
    nodes = {"a", "b", "c"}
    succ = {"a": ["b"], "b": ["c"], "c": ["a"]}.__getitem__
    pri = {"a": 1, "b": 2, "c": 0}
    # the only cycle is a-b-c with max priority 2 (even)
    cyc = cycle_with_max_parity(nodes, succ, pri, 0)
    assert cyc is not None and max(pri[v] for v in cyc) == 2
    assert cycle_with_max_parity(nodes, succ, pri, 1) is None


# ---------------------------------------------------------------------------
# On-the-fly determinization
# ---------------------------------------------------------------------------


def _memoryless_policies(p):
    """Every memoryless policy acting at each non-goal observation."""
    states = sorted(s for s in p.states if s not in p.goal_states)
    for pick in itertools.product(*[sorted(p.avail[s]) for s in states]):
        yield Policy.memoryless({p.obs_fn[s]: a for s, a in zip(states, pick)})


def test_lazy_synthesis_agrees_with_full_dpw_game():
    """On the cross-engine suite (QNPs with at most two variables, counter
    constraints as LTL text), synthesis on the on-the-fly compact-Safra
    automata gives the verdict of the game on the fully determinized one;
    realizable policies pass the constraint check and unrealizable
    instances refute every memoryless policy with a witness."""
    from genplan.constraints import satisfies
    from genplan.qnp import syntactic_projection

    from .test_acceptance import _qnp_suite

    for name, q in _qnp_suite().items():
        if len(q.variables) > 2:
            continue
        p = syntactic_projection(q).fondp
        c = ltl_text_constraint(conjoin(qnp_constraints(q.variables)), p)
        res = safra_synthesize(p, c)
        sigma = frozenset(set(p.observations) | set(p.actions))
        goal = L.lor(*[Letter(g) for g in sorted(p.goal_states, key=str)])
        phi = L.implies(c.formula, eventually(goal))
        full = build_parity_game(p, [nba_to_dpw(ltl_to_nba(phi, sigma))])
        sol = solve_parity(full)
        full_realizable = all(sol.region[v] == CONTROLLER for v in full.initial)
        assert res.realizable == full_realizable, name
        if res.realizable:
            assert check_solution(p, res.policy, Under(c)).is_solution, name
            continue
        for mu in _memoryless_policies(p):
            t = refute_policy(res, p, mu)
            assert t is not None, name
            if hasattr(t, "cycle_states"):
                assert not is_goal_reaching(p, t), name
                assert satisfies(c, t, p), name


def test_lazy_synthesis_builds_only_reached_states():
    """Synthesis on the compact-Safra automata of the two-variable QNP's
    counter constraints determinizes only the automaton states its game
    reaches (96; the full automaton has 20,109 before the quotient)."""
    from genplan.qnp import parse_qnp, syntactic_projection

    from .test_acceptance import TWOVAR

    q = parse_qnp(TWOVAR)
    p = syntactic_projection(q).fondp
    res = safra_synthesize(p, conjoin(qnp_constraints(q.variables)))
    assert res.realizable
    assert sum(len(d.states) for d in res.dpws) <= 200


def test_budget_errors_name_their_stage():
    """A budget that the NBA constructions fit in but determinization does
    not is reported with the determinization stage and its size.  Synthesis
    determinizes each conjunct on its own, so the constraint is a single
    conjunct whose automaton outgrows the budget; its reachability
    disjunct puts it outside the letter-class fragment."""
    from genplan.constraints import ltl_constraint
    from genplan.errors import SizeBudgetExceededError

    f = parse_ltl('F G ! Inc & G F Dec -> G F "X=0"', SIGMA)
    with pytest.raises(SizeBudgetExceededError, match="full determinization .* 2 states"):
        nba_to_dpw(ltl_to_nba(f, SIGMA), budget=2)
    c = ltl_constraint(parse_ltl("G F Dec -> G F Inc | F Inc", SIGMA))
    with pytest.raises(
        SizeBudgetExceededError, match="synthesis-game determinization .* 10 states"
    ):
        synthesize(counter_projection(), c, budget=10)
