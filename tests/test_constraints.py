"""Tests for trajectory constraints, their satisfaction, and implication."""

import random
from dataclasses import replace
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genplan import ltl as L
from genplan.constraints import (
    ALL_TRAJECTORIES,
    _conjunct_nbas,
    accepted_policy_lasso,
    conjoin,
    constraint_formula,
    counterexample_search,
    explicit_constraint,
    fairness_constraint,
    fairness_to_ltl,
    implies,
    ltl_constraint,
    qnp_constraint,
    qnp_constraints,
    satisfies,
)
from genplan.errors import NotLtlExpressibleError, SizeBudgetExceededError, UnknownVariableError
from genplan.model import (
    FiniteTrajectory,
    Lasso,
    Policy,
    Under,
    _goal_free_region,
    _policy_product,
    check_solution,
    run_policy,
)
from genplan.omega import LazyDpw, nba_to_dpw
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
    finite_memory_policies,
    is_generated_by,
    rand_formula,
    rand_word,
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
        explicit_constraint(lambda lasso: False, name="never"),
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
    the product does not, and 1,000 gives the unbounded answer."""
    p = concrete_counter(40, bound=50, dec_steps=(1, 2))
    for c in (ALL_TRAJECTORIES, fairness_constraint()):
        with pytest.raises(SizeBudgetExceededError, match="constraint-check product .* budget 300"):
            implies(c, qnp_constraint("X"), p, budget=300)
        assert implies(c, qnp_constraint("X"), p, budget=1000).holds
        assert implies(c, qnp_constraint("X"), p).holds


def test_explicit_constraints_not_checkable():
    po = counter_projection()
    c = explicit_constraint(lambda lasso: True, name="anything")
    with pytest.raises(NotLtlExpressibleError):
        implies(c, qnp_constraint("X"), po)
    mu = Policy.memoryless({POS: "Dec"})
    with pytest.raises(NotLtlExpressibleError):
        check_solution(po, mu, Under(c))


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


def test_fairness_to_ltl_budget():
    p = concrete_counter(6, bound=8, dec_steps=(1, 2))
    with pytest.raises(NotLtlExpressibleError):
        fairness_to_ltl(p, budget=10)


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


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**30))
def test_lazy_counterexample_search_agrees_with_full_dpw(seed):
    """On the four-observation two-variable projection under a random
    memoryless policy, the search over on-the-fly conjunct automata finds a
    lasso iff the same search over the fully determinized constraint does,
    and every lasso it returns satisfies the constraint."""
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
    full = [nba_to_dpw(ltl_to_nba(f, sigma))]
    reference = accepted_policy_lasso(p, c.level, full, prod, reach)
    assert (lasso is None) == (reference is None)
    if lasso is not None:
        assert eval_lasso(f, lift_trajectory(p, lasso).word(), sigma)


def _as_ltl_text(c, p):
    """The constraint ``c`` bound to ``p`` and passed as LTL text, so that
    even a builtin counter constraint takes the automaton route."""
    sigma = set(p.observations) | set(p.actions)
    return ltl_constraint(parse_ltl(L.pretty(constraint_formula(c, p)), sigma))


def test_constraint_check_budget_names_its_stage():
    p = syntactic_projection(parse_qnp(TWOVAR)).fondp
    mu = Policy.memoryless({"X>0,Y=0": "a", "X>0,Y>0": "b", "X=0,Y>0": "b"})
    cv = _as_ltl_text(conjoin(qnp_constraints(["X", "Y"])), p)
    assert check_solution(p, mu, Under(cv)).is_solution
    with pytest.raises(
        SizeBudgetExceededError, match="constraint-check determinization .* 14 states"
    ):
        check_solution(p, mu, Under(cv), budget=14)


def test_constraint_check_product_honours_budget():
    """The product of the policy with the conjunct automata counts its
    nodes against the budget: 18 fits the policy product, the tableaux and
    the automaton states, but not that product."""
    p = syntactic_projection(parse_qnp(TWOVAR)).fondp
    mu = Policy.memoryless({"X>0,Y=0": "a", "X>0,Y>0": "b", "X=0,Y>0": "b"})
    cv = _as_ltl_text(conjoin(qnp_constraints(["X", "Y"])), p)
    with pytest.raises(
        SizeBudgetExceededError,
        match="^constraint-check product exceeded budget: 19 nodes built, budget 18$",
    ):
        check_solution(p, mu, Under(cv), budget=18)
    assert check_solution(p, mu, Under(cv), budget=19).is_solution


def _suite_projections():
    """(name, projection, variables) for the open and the closed syntactic
    projection of every QNP of the criterion-4 suite."""
    out = []
    for name, q in sorted(_qnp_suite().items()):
        for tag, qq in (("open", q), ("closed", close_qnp(q))):
            out.append((f"{name}/{tag}", syntactic_projection(qq).fondp, sorted(q.variables)))
    return out


SUITE_PROJECTIONS = _suite_projections()


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
            # the route every non-builtin constraint takes
            dpws = [LazyDpw(a) for a in _conjunct_nbas(c, p, L.DEFAULT_BUDGET)]
            reference = accepted_policy_lasso(p, c.level, dpws, prod, reach)
            assert (lasso is None) == (reference is None), (name, subset)
            for t in (lasso, reference):
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
    dpws = [LazyDpw(a) for a in _conjunct_nbas(c, p, L.DEFAULT_BUDGET)]
    lasso = accepted_policy_lasso(p, c.level, dpws, prod, reach)
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
