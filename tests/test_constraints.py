"""Tests for trajectory constraints, their satisfaction, and implication."""

import os
import random
from dataclasses import replace
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from genplan import ltl as L
from genplan.constraints import (
    ALL_TRAJECTORIES,
    _conjunct_formulas,
    conjoin,
    constraint_formula,
    counterexample_search,
    fairness_constraint,
    implies,
    ltl_constraint,
    qnp_constraint,
    qnp_constraints,
    satisfies,
)
from genplan.errors import SizeBudgetExceededError, UnknownVariableError
from genplan.model import (
    FiniteTrajectory,
    Lasso,
    Policy,
    Pondp,
    Under,
    _goal_free_region,
    _policy_product,
    check_solution,
    is_fair,
    run_policy,
)
from genplan.omega import nba_to_dpw
from genplan.ltl import eval_lasso, ltl_to_nba, parse_ltl
from genplan.projection import lift_trajectory
from genplan.qnp import close_qnp, parse_qnp, syntactic_projection

from .helpers import (
    POS,
    ZERO,
    annotated_problems,
    concrete_counter,
    counter_projection,
    dpw_accepts,
    dpw_counterexample_search,
    dpw_policy_lasso,
    fairness_to_ltl,
    finite_memory_policies,
    is_generated_by,
    nba_check,
    nba_conjuncts,
    rand_formula,
    rand_word,
    small_lassos,
)
from .test_acceptance import _qnp_suite

SIGMA = {"Inc", "Dec", ZERO, POS}


def unfair_dec_lasso():
    return Lasso((), (), (POS,), ("Dec",))


def inc_lasso():
    return Lasso((), (), (POS,), ("Inc",))


# ---------------------------------------------------------------------------
# The constraint objects and satisfaction
# ---------------------------------------------------------------------------


def test_qnp_constraint_formula_matches_text():
    """Binding the counter constraint against the two-state projection gives
    the textbook formula over Inc / Dec / the zero observation."""
    po = counter_projection()
    f = constraint_formula(qnp_constraint("X"), po)
    expected = parse_ltl('F G ! Inc & G F Dec -> G F "X=0"', SIGMA)
    assert f == expected


def test_qnp_constraint_unknown_variable():
    po = counter_projection()
    with pytest.raises(UnknownVariableError):
        constraint_formula(qnp_constraint("Y"), po)


def test_satisfies_examples():
    po = counter_projection()
    cx = qnp_constraint("X")
    # infinitely many decrements, no increment, never zero: violated
    assert not satisfies(cx, unfair_dec_lasso(), po)
    # finite trajectories satisfy every constraint
    mu = Policy.memoryless({POS: "Dec"})
    t = run_policy(concrete_counter(4), mu)
    assert satisfies(cx, t, concrete_counter(4))
    # an increment loop fails the antecedent, so the constraint holds
    assert satisfies(cx, inc_lasso(), po)


def test_finite_satisfaction_axiom():
    po = counter_projection()
    t = FiniteTrajectory(states=(POS,), actions=())
    constraints = [
        qnp_constraint("X"),
        fairness_constraint(),
        ALL_TRAJECTORIES,
    ]
    for c in constraints:
        assert satisfies(c, t, po)


def test_satisfies_lifts_state_lassos():
    """An observation-level constraint applied to a concrete state lasso is
    evaluated on the lifted observation word."""
    p = concrete_counter(5, bound=8)
    bouncing = Lasso((), (), ("X=5", "X=4"), ("Dec", "Inc"))
    # infinitely many Inc: the antecedent fails, constraint satisfied
    assert satisfies(qnp_constraint("X"), bouncing, p)


def test_fairness_constraint_on_lassos():
    po = counter_projection()
    cf = fairness_constraint()
    assert not satisfies(cf, unfair_dec_lasso(), po)
    fair = Lasso((), (), (POS, POS, ZERO, ZERO), ("Dec", "Dec", "Dec", "Inc"))
    assert satisfies(cf, fair, po)


def test_fairness_deterministic_always_satisfied():
    p = concrete_counter(2)
    loop = Lasso((), (), ("X=2", "X=3"), ("Inc", "Dec"))
    assert satisfies(fairness_constraint(), loop, p)


def test_qnp_constraints_family():
    cs = qnp_constraints(["Y", "X"])
    assert [c.name for c in cs] == ["qnp(X)", "qnp(Y)"]
    assert conjoin([]) == ALL_TRAJECTORIES
    assert conjoin([cs[0]]) == cs[0]


def test_strong_variant_differs():
    """The strong variant demands eventually staying at zero; an observation
    word that hits zero infinitely often while also leaving it (with no
    increments) separates the two."""
    po = counter_projection()
    revisiting = Lasso(
        (), (), (POS, ZERO), ("Dec", "Dec"), level="observation"
    )
    assert satisfies(qnp_constraint("X"), revisiting, po)
    assert not satisfies(qnp_constraint("X", strong=True), revisiting, po)


def test_mod_consistency():
    """Constraint satisfaction equals acceptance by the pipeline automaton of
    the bound formula, on random lassos."""
    rng = random.Random(3)
    po = counter_projection()
    cx = qnp_constraint("X")
    f = constraint_formula(cx, po)
    dpw = nba_to_dpw(ltl_to_nba(f, frozenset(SIGMA)))
    letters = sorted(SIGMA)
    for _ in range(400):
        w = rand_word(rng, letters, 5, 5)
        assert dpw_accepts(dpw, w) == eval_lasso(f, w, SIGMA)


# ---------------------------------------------------------------------------
# Implication
# ---------------------------------------------------------------------------


def test_implies_reflexive():
    po = counter_projection()
    cx = qnp_constraint("X")
    assert implies(cx, cx, po).holds
    assert implies(fairness_constraint(), fairness_constraint(), po).holds


def test_fairness_implies_qnp_constraint():
    """On a concrete nondeterministic counter whose decrements never go
    below zero, fairness implies the per-variable constraint."""
    p = concrete_counter(2, bound=3, dec_steps=(1, 2))
    res = implies(fairness_constraint(), qnp_constraint("X"), p)
    assert res.holds


def test_fairness_implies_qnp_constraints_on_the_projection():
    """On the counter projection the Dec loop at X>0 violates both counter
    constraints, but it never takes Dec's outcome X=0, so it is unfair:
    a fair lasso must keep an outcome of every move it takes."""
    po = counter_projection()
    assert implies(fairness_constraint(), qnp_constraint("X"), po).holds
    assert implies(fairness_constraint(), qnp_constraint("X", strong=True), po).holds


def test_all_does_not_imply_qnp_constraint():
    """Over the projection, the all-trajectories constraint does not imply
    the counter constraint; the witness is the unfair decrement loop."""
    po = counter_projection()
    res = implies(ALL_TRAJECTORIES, qnp_constraint("X"), po)
    assert not res.holds
    w = res.witness
    assert w is not None
    assert satisfies(ALL_TRAJECTORIES, w, po)
    assert not satisfies(qnp_constraint("X"), w, po)


def test_fairness_does_not_imply_qnp_on_weird_counter():
    """On a problem whose decrement can move the value up, fair behavior
    keeps decrementing forever without ever observing zero; the witness is
    a fair lasso violating the counter constraint."""
    from genplan.model import Pondp

    weird = Pondp(
        states={"X=1", "X=2", "X=3"},
        init={"X=2"},
        observations={POS, ZERO},
        actions={"Dec", "Inc"},
        goal_states=set(),
        avail={s: {"Dec", "Inc"} for s in ("X=1", "X=2", "X=3")},
        obs_fn={"X=1": POS, "X=2": POS, "X=3": POS},
        succ={
            ("Dec", "X=1"): {"X=1"},
            ("Dec", "X=2"): {"X=3"},  # the decrement moves the value up
            ("Dec", "X=3"): {"X=2"},
            ("Inc", "X=1"): {"X=2"},
            ("Inc", "X=2"): {"X=3"},
            ("Inc", "X=3"): {"X=3"},
        },
        annotations={
            "action_effects": {"Inc": {"X": "inc"}, "Dec": {"X": "dec"}},
            "obs_zero": {ZERO: ["X"], POS: []},
        },
    )
    res = implies(fairness_constraint(), qnp_constraint("X"), weird)
    assert not res.holds
    w = res.witness
    assert satisfies(fairness_constraint(), w, weird)
    assert not satisfies(qnp_constraint("X"), w, weird)


def test_qnp_does_not_imply_fairness():
    """The projection has lassos satisfying the counter constraint that are
    unfair (e.g. increments forever), so the converse implication fails."""
    po = counter_projection()
    res = implies(qnp_constraint("X"), fairness_constraint(), po)
    assert not res.holds
    assert not satisfies(fairness_constraint(), res.witness, po)
    assert satisfies(qnp_constraint("X"), res.witness, po)


def test_implication_witnesses_walk_one_edge_per_request():
    """A witness cycle of `implies` takes one edge answering each request
    of the component found, not every edge of it.  Fairness does not imply
    ``F G Dec`` on the counter projection: the fair lasso takes 5 steps
    (13 when the walk covered the component, 7 when it started at the
    least node by ``str``).  The unfair decrement loop of ``true`` against
    fairness takes 1 (2 before)."""
    po = counter_projection()
    fg_dec = ltl_constraint(parse_ltl("F G Dec"))
    w = implies(fairness_constraint(), fg_dec, po).witness
    assert w.prefix_states == ()
    assert w.cycle_states == (POS, POS, ZERO, ZERO, POS)
    assert w.cycle_actions == ("Dec", "Dec", "Dec", "Inc", "Inc")
    assert satisfies(fairness_constraint(), w, po) and not satisfies(fg_dec, w, po)
    w = implies(ALL_TRAJECTORIES, fairness_constraint(), po).witness
    assert w.prefix_states == () and (w.cycle_states, w.cycle_actions) == ((POS,), ("Dec",))
    assert not satisfies(fairness_constraint(), w, po)


def test_implies_monotone_verdicts():
    """If c implies c' and a policy solves under c', it solves under c."""
    po = counter_projection()
    cf = fairness_constraint()
    cx = qnp_constraint("X")
    p = concrete_counter(2, bound=3, dec_steps=(1, 2))
    assert implies(cf, cx, p).holds
    mu = Policy.memoryless({POS: "Dec"})
    assert check_solution(p, mu, Under(cx)).is_solution
    assert check_solution(p, mu, Under(cf)).is_solution


def test_implies_honours_budget():
    """Both trajectory products of implies count their "n" nodes against
    the budget: on a 51-value counter the automata fit in 300 states but
    the product does not, and 2,000 gives the unbounded answer."""
    p = concrete_counter(40, bound=50, dec_steps=(1, 2))
    for c in (ALL_TRAJECTORIES, fairness_constraint()):
        with pytest.raises(SizeBudgetExceededError, match="constraint-check product .* budget 300"):
            implies(c, qnp_constraint("X"), p, budget=300)
        assert implies(c, qnp_constraint("X"), p, budget=2000).holds
        assert implies(c, qnp_constraint("X"), p).holds


def _problem_projection(name):
    path = os.path.join(os.path.dirname(__file__), "..", "problems", name)
    with open(path) as fh:
        return syntactic_projection(parse_qnp(fh.read())).fondp


@pytest.mark.parametrize(
    "problem, c, c_prime, holds",
    [
        ("twovar.qnp", ALL_TRAJECTORIES, conjoin(qnp_constraints(["X", "Y"])), False),
        ("twovar.qnp", qnp_constraint("X"), conjoin(qnp_constraints(["X", "Y"])), False),
        ("twovar.qnp", qnp_constraint("Y"), conjoin(qnp_constraints(["X", "Y"])), False),
        ("twovar.qnp", conjoin(qnp_constraints(["X", "Y"])), qnp_constraint("X"), True),
        ("counter.qnp", ALL_TRAJECTORIES, qnp_constraint("X"), False),
        ("counter.qnp", qnp_constraint("X"), qnp_constraint("X", strong=True), True),
    ],
)
def test_implies_on_the_example_projections(problem, c, c_prime, holds):
    """Implications between counter constraints on the syntactic
    projections of the example QNPs; every witness satisfies ``c`` and
    violates ``c_prime``."""
    p = _problem_projection(problem)
    res = implies(c, c_prime, p)
    assert res.holds == holds
    if not holds:
        assert satisfies(c, res.witness, p)
        assert not satisfies(c_prime, res.witness, p)


def test_fairness_to_ltl_small():
    po = counter_projection()
    f = fairness_to_ltl(po)
    # one nondeterministic pair with two outcomes: two recurrence implications
    assert f.size > 1
    w_unfair = unfair_dec_lasso().word()
    sigma = set(po.states) | set(po.actions)
    assert not eval_lasso(f, w_unfair, sigma)
    fair = Lasso((), (), (POS, POS, ZERO, ZERO), ("Dec", "Dec", "Dec", "Inc"))
    assert eval_lasso(f, fair.word(), sigma)


def test_fair_antecedent_judges_each_state_action_pair():
    """s a-> {t1, t2}, t1 b-> s, t2 b-> s: the run s a t1 b s a t2 b, repeated,
    is fair and takes a then t1 infinitely often, so fairness does not
    imply F G !(a & X t1).  From its accepting state the NBA reads a into a
    state that reads only t1, so the product node of a on that run keeps
    one outcome: the witness needs a component judged per (state, action)
    pair, where another node of a supplies t2."""
    p = Pondp(
        states={"s", "t1", "t2"},
        init={"s"},
        observations={"s", "t1", "t2"},
        actions={"a", "b"},
        goal_states=set(),
        avail={"s": {"a"}, "t1": {"b"}, "t2": {"b"}},
        obs_fn={v: v for v in ("s", "t1", "t2")},
        succ={("a", "s"): {"t1", "t2"}, ("b", "t1"): {"s"}, ("b", "t2"): {"s"}},
    )
    f = ltl_constraint(parse_ltl("F G !(a & X t1)", set(p.states) | set(p.actions)), level="state")
    res = implies(fairness_constraint(), f, p)
    assert not res.holds
    assert satisfies(fairness_constraint(), res.witness, p)
    assert not satisfies(f, res.witness, p)


def _assert_refuted_by_witness(c, c_prime, p, res):
    assert satisfies(c, res.witness, p) and not satisfies(c_prime, res.witness, p)


# seed 122 draws X ((s1 -> s1) & s1), which no state-level word satisfies
# (its second letter is an action), so every fair lasso refutes that
# fairness implies it; a search that keeps a product node only when it has
# a successor for each outcome answers that it does
_TWO_STATE_LOOP = Pondp(
    states={"s0", "s1"},
    init={"s0", "s1"},
    observations={"o0"},
    actions={"a"},
    goal_states=set(),
    avail={"s0": {"a"}, "s1": {"a"}},
    obs_fn={"s0": "o0", "s1": "o0"},
    succ={("a", "s0"): {"s0", "s1"}, ("a", "s1"): {"s0", "s1"}},
    annotations={
        "variables": ["X", "Y"],
        "action_effects": {"a": {"X": "dec", "Y": "dec"}},
        "obs_zero": {"o0": ["X"]},
    },
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(annotated_problems(), st.integers(0, 2**30))
@example(_TWO_STATE_LOOP, 122)
def test_fairness_implications_replay_and_resist_small_lassos(p, seed):
    """Seeded sweep: with fairness on either side, against a random
    state-level formula and the counter constraints, every False answer
    of `implies` replays its witness with `satisfies`, and no lasso with
    a prefix of at most 2 and a cycle of at most 4 steps refutes a True
    one.  Where the fairness formula has at most two conjuncts, the
    consequent also agrees with `implies` on that formula."""
    rng = random.Random(seed)
    letters = sorted(set(p.states) | set(p.actions), key=str)
    f = ltl_constraint(rand_formula(rng, 3, letters), level="state")
    fair = fairness_constraint()
    lassos = small_lassos(p)
    fair_lassos = [t for t in lassos if is_fair(p, t)]
    unfair_lassos = [t for t in lassos if not is_fair(p, t)]
    formula = fairness_to_ltl(p)
    for other in (f, qnp_constraint("X")):
        res = implies(fair, other, p)
        if res.holds:
            assert all(satisfies(other, t, p) for t in fair_lassos), other.name
        else:
            _assert_refuted_by_witness(fair, other, p, res)
        res = implies(other, fair, p)
        if res.holds:
            assert not any(satisfies(other, t, p) for t in unfair_lassos), other.name
        else:
            _assert_refuted_by_witness(other, fair, p, res)
        if len(_conjunct_formulas(formula)) <= 2:
            reference = ltl_constraint(formula, name="fairness", level="state")
            assert implies(other, reference, p).holds == res.holds


# ---------------------------------------------------------------------------
# Constraint check on on-the-fly automata
# ---------------------------------------------------------------------------

TWOVAR = (
    "vars X Y\ninit_values X in {2}\ninit_values Y in {2}\n"
    "action a\n  pre X>0\n  dec X\n  inc Y\n"
    "action b\n  pre Y>0\n  dec Y\ngoal X=0 Y=0\n"
)


def _memoryless_product(p, choice):
    """Policy product of a memoryless choice (state -> action, on a problem
    whose observations are its states) in the shape
    `counterexample_search` takes: the numbered product and the ids of the
    region reachable without visiting a goal."""
    mu = Policy.memoryless({p.obs_fn[s]: a for s, a in choice.items() if a is not None})
    prod = _policy_product(p, mu)
    return prod, _goal_free_region(p, prod)


# the reference determinizes fully, and some formulas need DPWs of over
# 20,000 states (these two seeds): it stops at this many, and leaves the
# lasso's own check to decide such a case
REFERENCE_DPW_BUDGET = 5000


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**30))
@example(254277286)
@example(159254365)
def test_lazy_counterexample_search_agrees_with_full_dpw(seed):
    """On the four-observation two-variable projection under a random
    memoryless policy, the search (through the conjunct automata, or on
    the policy product for letter-class formulas) finds a lasso iff the
    same search over the fully determinized constraint does, when that
    automaton fits in `REFERENCE_DPW_BUDGET` states; every lasso it
    returns satisfies the constraint."""
    rng = random.Random(seed)
    p = syntactic_projection(parse_qnp(TWOVAR)).fondp
    sigma = frozenset(set(p.observations) | set(p.actions))
    letters = sorted(sigma)
    f = L.land(*[rand_formula(rng, 3, letters) for _ in range(rng.randint(1, 2))])
    c = ltl_constraint(f)
    choice = {
        s: rng.choice(sorted(p.avail[s]) + [None])
        for s in sorted(p.states)
        if p.avail[s]
    }
    prod, reach = _memoryless_product(p, choice)
    lasso = counterexample_search(p, c, prod, reach)
    try:
        full = [nba_to_dpw(ltl_to_nba(f, sigma), budget=REFERENCE_DPW_BUDGET)]
    except SizeBudgetExceededError:
        full = None
    if full is not None:
        reference = dpw_policy_lasso(p, c.level, full, prod, reach)
        assert (lasso is None) == (reference is None)
    if lasso is not None:
        assert eval_lasso(f, lift_trajectory(p, lasso).word(), sigma)


def test_constraint_check_budget_names_its_stage():
    """A budget error of the check through the conjunct NBAs names the
    stage that overflowed: the policy product (4 nodes), the tableaux,
    then the product with the conjunct NBAs, whose 5 x 7 initial states
    overflow budget 14 at once."""
    p = syntactic_projection(parse_qnp(TWOVAR)).fondp
    mu = Policy.memoryless({"X>0,Y=0": "a", "X>0,Y>0": "b", "X=0,Y>0": "b"})
    cv = conjoin(qnp_constraints(["X", "Y"]))
    assert nba_check(p, mu, cv).is_solution
    for budget, stage in (
        (3, "policy product exceeded budget: 4 nodes"),
        (13, "tableau would need"),
        (14, "constraint-check product exceeded budget: 35 nodes"),
    ):
        with pytest.raises(SizeBudgetExceededError, match=stage):
            nba_check(p, mu, cv, budget)


def test_constraint_check_product_honours_budget():
    """The product of the policy with the conjunct NBAs counts its "n"
    nodes against the budget: 130 fits the policy product and the
    tableaux, but not that product."""
    p = syntactic_projection(parse_qnp(TWOVAR)).fondp
    mu = Policy.memoryless({"X>0,Y=0": "a", "X>0,Y>0": "b", "X=0,Y>0": "b"})
    cv = conjoin(qnp_constraints(["X", "Y"]))
    with pytest.raises(
        SizeBudgetExceededError,
        match="^constraint-check product exceeded budget: 131 nodes built, budget 130$",
    ):
        nba_check(p, mu, cv, 130)
    assert nba_check(p, mu, cv, 131).is_solution


def _suite_projections():
    """(name, projection, variables) for the open and the closed syntactic
    projection of every QNP of the criterion-4 suite."""
    out = []
    for name, q in sorted(_qnp_suite().items()):
        for tag, qq in (("open", q), ("closed", close_qnp(q))):
            out.append((f"{name}/{tag}", syntactic_projection(qq).fondp, sorted(q.variables)))
    return out


SUITE_PROJECTIONS = _suite_projections()
BUCHI_SWEEP_PROBLEMS = [p for _, p, _ in SUITE_PROJECTIONS] + [
    syntactic_projection(parse_qnp(TWOVAR)).fondp
]


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.data())
def test_buchi_route_agrees_with_dpw_reference(data):
    """Seeded sweep: on the projections of the criterion-4 suite and of the
    two-variable problem, under random formulas (one or two conjuncts) and
    random finite-memory policies, the check over the conjunct NBAs finds
    a lasso iff the check over their on-the-fly determinizations does, and
    every lasso it returns avoids the goal, is generated by the policy and
    satisfies the constraint (`satisfies` and `eval_lasso`)."""
    p = data.draw(st.sampled_from(BUCHI_SWEEP_PROBLEMS))
    rng = random.Random(data.draw(st.integers(0, 2**30)))
    sigma = frozenset(set(p.observations) | set(p.actions))
    letters = sorted(sigma)
    f = L.land(*[rand_formula(rng, 3, letters) for _ in range(rng.randint(1, 2))])
    c = ltl_constraint(f)
    mu = data.draw(finite_memory_policies(p, max_memory=2))
    prod = _policy_product(p, mu)
    reach = _goal_free_region(p, prod)
    lasso = counterexample_search(p, c, prod, reach)
    assert (lasso is None) == (dpw_counterexample_search(p, c, prod, reach) is None)
    if lasso is not None:
        assert not set(lasso.visited_states()) & p.goal_states
        assert is_generated_by(p, mu, lasso)
        assert satisfies(c, lasso, p)
        assert eval_lasso(f, lift_trajectory(p, lasso).word(), sigma)


def _assert_routes_agree(name, p, variables, mu):
    """For every nonempty set of ``variables``, the Streett route finds a
    lasso iff the conjunct automata do, and every lasso either route finds
    avoids the goal, satisfies the constraint and is generated by ``mu``."""
    prod = _policy_product(p, mu)
    reach = _goal_free_region(p, prod)
    for k in range(1, len(variables) + 1):
        for subset in combinations(variables, k):
            c = conjoin(qnp_constraints(subset))
            lasso = counterexample_search(p, c, prod, reach)
            # the route of every conjunct outside the letter-class fragment
            buchi = counterexample_search(p, c, prod, reach, conjuncts=nba_conjuncts(c, p))
            reference = dpw_counterexample_search(p, c, prod, reach)
            assert (lasso is None) == (reference is None), (name, subset)
            assert (buchi is None) == (reference is None), (name, subset)
            for t in (lasso, buchi, reference):
                if t is not None:
                    assert not set(t.visited_states()) & p.goal_states
                    assert satisfies(c, t, p), (name, subset)
                    assert is_generated_by(p, mu, t), (name, subset)


def test_streett_route_answers_a_decrement_by_increment_or_zero():
    """An increment of X (a policy alternating Dec and Inc) answers a
    decrement of X, and so does observing X = 0 (Dec looping at zero once
    zero is no goal): either cycle satisfies qnp(X), on both routes."""
    p = counter_projection()
    toggle = Policy(
        memory_states=("m0", "m1"),
        initial="m0",
        update={("m0", POS): "m1", ("m1", POS): "m0"},
        output={("m0", POS): "Dec", ("m1", POS): "Inc"},
    )
    no_goal = replace(p, goal_states=frozenset())
    for q, mu in ((p, toggle), (no_goal, Policy.memoryless({POS: "Dec", ZERO: "Dec"}))):
        prod = _policy_product(q, mu)
        reach = _goal_free_region(q, prod)
        assert counterexample_search(q, qnp_constraint("X"), prod, reach) is not None
        _assert_routes_agree(None, q, ["X"], mu)


def test_automaton_route_lasso_is_normalized():
    """The automaton route's lasso for the Dec/Inc toggle on the counter
    projection is the toggle cycle itself: the shortest bilayer prefix
    repeats the cycle, so it folds into the cycle and comes out empty."""
    p = counter_projection()
    toggle = Policy(
        memory_states=("m0", "m1"),
        initial="m0",
        update={("m0", POS): "m1", ("m1", POS): "m0"},
        output={("m0", POS): "Dec", ("m1", POS): "Inc"},
    )
    prod = _policy_product(p, toggle)
    reach = _goal_free_region(p, prod)
    c = qnp_constraint("X")
    lasso = counterexample_search(p, c, prod, reach, conjuncts=nba_conjuncts(c, p))
    assert lasso.prefix_states == () and lasso.prefix_actions == ()
    assert lasso.cycle_states == (POS, POS) and lasso.cycle_actions == ("Dec", "Inc")
    assert satisfies(c, lasso, p) and is_generated_by(p, toggle, lasso)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_streett_route_agrees_with_automaton_route(data):
    """Builtin weak counter constraints are checked as Streett emptiness on
    the policy product; on the open and closed projections of the
    criterion-4 suite under random finite-memory policies, it agrees with
    the automaton route."""
    name, p, variables = data.draw(st.sampled_from(SUITE_PROJECTIONS))
    _assert_routes_agree(name, p, variables, data.draw(finite_memory_policies(p)))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_streett_route_agrees_on_random_annotations(data):
    """The same agreement on random problems, where an increment and a zero
    observation answer a decrement independently of each other."""
    p = data.draw(annotated_problems())
    _assert_routes_agree(None, p, ["X", "Y"], data.draw(finite_memory_policies(p)))
