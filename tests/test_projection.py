"""Tests for the observation projection and its correspondence properties."""

import random

import pytest

from genplan.errors import InvalidClassError
from genplan.model import (
    FiniteTrajectory,
    Lasso,
    Policy,
    Pondp,
    SeededResolver,
    Under,
    check_solution,
    infer_class,
    is_goal_reaching,
    run_policy,
)
from genplan.projection import lift_trajectory, observation_projection, project
from genplan.constraints import qnp_constraint

from .helpers import ZERO, POS, concrete_counter, counter_class


def test_counter_projection_structure():
    """Projecting the counter family yields the two-state problem: Dec maps
    the positive observation to both observations and fixes zero; Inc always
    yields the positive observation."""
    po = observation_projection(counter_class())
    assert po.states == frozenset({POS, ZERO})
    assert po.init == frozenset({POS})
    assert po.goal_states == frozenset({ZERO})
    assert po.succ[("Dec", POS)] == frozenset({POS, ZERO})
    assert po.succ[("Dec", ZERO)] == frozenset({ZERO})
    assert po.succ[("Inc", POS)] == frozenset({POS})
    assert po.succ[("Inc", ZERO)] == frozenset({POS})
    assert po.avail[POS] == frozenset({"Inc", "Dec"})


def test_projection_identity_for_fully_observable_member():
    """A single member with injective observations projects to an isomorphic
    copy of itself (observation names as states)."""
    p = Pondp(
        states={"s0", "s1", "s2"},
        init={"s0"},
        observations={"o0", "o1", "o2"},
        actions={"a", "b"},
        goal_states={"s2"},
        avail={"s0": {"a"}, "s1": {"a", "b"}, "s2": {"b"}},
        obs_fn={"s0": "o0", "s1": "o1", "s2": "o2"},
        succ={
            ("a", "s0"): {"s1"},
            ("a", "s1"): {"s2"},
            ("b", "s1"): {"s0"},
            ("b", "s2"): {"s2"},
        },
    )
    po = observation_projection(infer_class([p]))
    rename = {"s0": "o0", "s1": "o1", "s2": "o2"}
    assert po.states == frozenset(rename.values())
    for (a, s), targets in p.succ.items():
        assert po.succ[(a, rename[s])] == frozenset(rename[t] for t in targets)
    assert po.init == frozenset({"o0"})
    assert po.goal_states == frozenset({"o2"})


def test_projection_invalid_class():
    member = Pondp(
        states={"g", "s"},
        init={"s"},
        observations={"o"},
        actions={"a"},
        goal_states={"g"},
        avail={"s": {"a"}, "g": {"a"}},
        obs_fn={"s": "o", "g": "o"},
        succ={("a", "s"): {"g"}, ("a", "g"): {"g"}},
    )
    with pytest.raises(InvalidClassError):
        observation_projection(infer_class([member]))


def test_projection_unwitnessed_action_diagnostic():
    """An observation no member ever produces keeps its declared actions out
    of the projection, with a diagnostic instead of invented transitions."""
    base = counter_class(x0s=[2], bound=3)
    cls = type(base)(
        actions=base.actions,
        observations=base.observations | {"X<0"},
        goal_observations=base.goal_observations,
        avail_by_obs={**base.avail_by_obs, "X<0": frozenset({"Dec"})},
        members=base.members,
    )
    result = project(cls)
    assert any(code == "no witnessed transition" for code, _, _ in result.diagnostics)
    assert result.fondp.avail["X<0"] == frozenset()
    assert ("Dec", "X<0") not in result.fondp.succ


def test_projection_provenance():
    result = project(counter_class())
    assert (POS, "Dec", ZERO) in result.provenance
    idx, s, a, t = result.provenance[(POS, "Dec", ZERO)]
    member = counter_class().members[idx]
    assert t in member.succ[(a, s)]
    assert member.obs_fn[s] == POS and member.obs_fn[t] == ZERO


def test_lift_finite_trajectory():
    p = concrete_counter(2)
    t = FiniteTrajectory(states=("X=2", "X=1", "X=0"), actions=("Dec", "Dec"))
    lifted = lift_trajectory(p, t)
    assert lifted.states == (POS, POS, ZERO)
    assert lifted.actions == ("Dec", "Dec")
    assert lifted.level == "observation"


def test_lift_lasso():
    p = concrete_counter(5, bound=8)
    lasso = Lasso((), (), ("X=5", "X=6"), ("Inc", "Dec"))
    lifted = lift_trajectory(p, lasso)
    assert lifted.cycle_states == (POS, POS)
    assert lifted.cycle_actions == ("Inc", "Dec")


def test_lift_preserves_goal_reaching():
    """A member trajectory reaches the goal iff its observation image
    reaches the goal of the projection."""
    cls = counter_class()
    po = observation_projection(cls)
    mu = Policy.memoryless({POS: "Dec"})
    for member in cls.members:
        t = run_policy(member, mu)
        assert is_goal_reaching(member, t)
        lifted = lift_trajectory(member, t)
        assert is_goal_reaching(po, lifted)


def test_policy_validity_and_run_correspondence():
    """Sampled check: any policy valid for the projection is valid for every
    member, and the observation image of a member policy run is a policy
    trajectory of the projection."""
    rng = random.Random(101)
    cls = counter_class()
    po = observation_projection(cls)
    actions = sorted(po.actions)
    for trial in range(40):
        mapping = {}
        for o in (POS, ZERO):
            if rng.random() < 0.8:
                mapping[o] = rng.choice(actions)
        mu = Policy.memoryless(mapping)
        member = cls.members[rng.randrange(len(cls.members))]
        t = run_policy(member, mu, resolver=SeededResolver(trial), max_steps=30)
        lifted = lift_trajectory(member, t)
        # the lifted trajectory is a trajectory of the projection generated
        # by the policy
        from genplan.model import check_trajectory

        from .helpers import is_generated_by

        check_trajectory(po, lifted)
        if isinstance(lifted, FiniteTrajectory) and not lifted.truncated:
            assert is_generated_by(po, mu, lifted)


def test_constrained_solution_transfers_to_members():
    """A policy solving the projection under the constraint solves every
    member under the constraint."""
    cls = counter_class()
    po = observation_projection(cls)
    mu = Policy.memoryless({POS: "Dec"})
    cx = qnp_constraint("X")
    assert check_solution(po, mu, Under(cx)).kind == "SOLVES_UNDER_CONSTRAINT"
    for member in cls.members:
        assert check_solution(member, mu, Under(cx)).kind == "SOLVES_UNDER_CONSTRAINT"


def test_members_satisfying_constraint_get_full_solution():
    """Concrete unit-step counters satisfy the constraint outright, so the
    projection policy is a full solution on them (here even strong, since
    the members are deterministic)."""
    from genplan.model import FAIR, STRONG

    cls = counter_class()
    po = observation_projection(cls)
    mu = Policy.memoryless({POS: "Dec"})
    for member in cls.members:
        assert check_solution(member, mu, STRONG).kind == "STRONG_SOLUTION"
        assert check_solution(member, mu, FAIR).kind == "FAIR_SOLUTION"
