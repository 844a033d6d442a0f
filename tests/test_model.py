"""Tests for the problem model, trajectories, policies, and solution checking."""

import itertools
import os
import random
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from genplan.constraints import (
    ALL_TRAJECTORIES,
    conjoin,
    fairness_constraint,
    qnp_constraint,
    qnp_constraints,
    satisfies,
)
from genplan.errors import (
    InvalidPolicyError,
    MalformedInputError,
    NotATrajectoryError,
    ResolverExhaustedError,
    UnavailableActionError,
)
from genplan.fond import strong_cyclic_plan
from genplan.model import (
    FAIR,
    STRONG,
    FiniteTrajectory,
    Lasso,
    Policy,
    Pondp,
    SeededResolver,
    Under,
    _policy_product,
    check_solution,
    infer_class,
    is_fair,
    is_goal_reaching,
    load_pondp,
    numbered,
    policy_from_json_dict,
    policy_to_json_dict,
    pondp_from_json_dict,
    pondp_to_dot,
    pondp_to_json_dict,
    run_policy,
    save_json,
    step,
    validate,
    validate_class,
)
from genplan.projection import as_fondp

from .helpers import (
    ZERO,
    POS,
    ScriptedResolver,
    annotated_problems,
    coarse_problems,
    concrete_counter,
    counter_projection,
    fewest_memory_classes,
    finite_memory_policies,
    is_generated_by,
    moore_equivalent_pairs,
    reference_check,
    reference_plan,
    reference_pondp,
    reference_validate,
)
from .test_constraints import SUITE_PROJECTIONS


# ---------------------------------------------------------------------------
# validate / step
# ---------------------------------------------------------------------------


def test_validate_counter_ok():
    assert validate(concrete_counter(5)) == []
    assert validate(counter_projection()) == []


def test_validate_ignores_hash_seed():
    """Several broken states, actions and successors give the same
    diagnostics, in the same order, under any string hash seed."""
    code = (
        "from genplan.model import Pondp, validate\n"
        "p = Pondp(states={'a', 'b', 'c'}, init={'a', 'x', 'y'}, observations={'o'},\n"
        "          actions={'u'}, goal_states={'g', 'h'}, avail={'a': {'u', 'v', 'w'}},\n"
        "          obs_fn={'a': 'o'}, succ={('u', 'a'): {'p', 'q'}, ('u', 'b'): {'a'},\n"
        "                                   ('u', 'c'): {'a'}})\n"
        "print(validate(p))"
    )
    src = os.path.dirname(os.path.dirname(validate.__code__.co_filename))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    outs = [
        subprocess.run(
            [sys.executable, "-c", code],
            env=dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=seed),
            capture_output=True, text=True, check=True,
        ).stdout
        for seed in ("0", "1")
    ]
    assert outs[0] == outs[1]
    assert outs[0].index("state 'b' has no observation") < outs[0].index("state 'c'")


NAMES = ["ghost", "X=0", "X=1", "Inc"]


@st.composite
def _mutated_problem_documents(draw):
    """A concrete counter's document with one to four names dropped,
    renamed (to a fresh name or one used elsewhere) or put in a list:
    names of states, initial and goal states, observations and actions,
    and the states, observations, actions and targets of the obs, avail
    and succ entries."""
    doc = pondp_to_json_dict(concrete_counter(2, bound=3, dec_steps=(1, 2)))
    del doc["annotations"]  # shared with the helper, and holds no names
    for _ in range(draw(st.integers(1, 4))):
        field = draw(st.sampled_from(sorted(doc)))
        how = draw(st.sampled_from(["drop", "rename", "list"]))
        name = draw(st.sampled_from(NAMES))
        entries = doc[field]
        if isinstance(entries, dict) and entries and draw(st.booleans()):
            # the name that keys an entry; a succ key names an action and a state
            key = draw(st.sampled_from(sorted(entries)))
            value = entries.pop(key)
            if how != "drop":
                if field == "succ":
                    a, _, s = key.partition("|")
                    key = draw(st.sampled_from([f"{name}|{s}", f"{a}|{name}"]))
                entries[key] = value
            continue
        if isinstance(entries, dict):
            if not entries:
                continue
            key = draw(st.sampled_from(sorted(entries)))
            if not isinstance(entries[key], list):  # an observation
                if how == "drop":
                    del entries[key]
                else:
                    entries[key] = name if how == "rename" else [entries[key]]
                continue
            entries = entries[key]
        if entries:
            i = draw(st.integers(0, len(entries) - 1))
            if how == "drop":
                del entries[i]
            else:
                entries[i] = name if how == "rename" else [entries[i]]
    return doc


def _diagnostics(check, decode, doc, *args):
    try:
        return check(decode(doc), *args)
    except MalformedInputError as exc:
        return str(exc)


@settings(max_examples=400, deadline=None)
@given(_mutated_problem_documents())
def test_validate_matches_reference_on_mutated_documents(doc):
    """Numbered validation gives the name-keyed reference's diagnostics, in
    order, or the same malformed-input error, both on a decoded document
    and on a problem built from its fields; against the counter's class it
    also gives the same class-fit diagnostics."""
    cls = infer_class([concrete_counter(2, bound=3, dec_steps=(1, 2))])
    for args in ((), (cls,)):
        expected = _diagnostics(reference_validate, reference_pondp, doc, *args)
        assert _diagnostics(validate, pondp_from_json_dict, doc, *args) == expected
        assert _diagnostics(validate, reference_pondp, doc, *args) == expected


def test_decoded_problem_plans_and_checks_on_its_numbered_form(tmp_path):
    """Loading a concrete counter, planning it and checking the plan in FAIR
    and STRONG mode leave its name-keyed successor dict unbuilt.  The
    planner and both checks agree with the name-keyed references on the
    loaded problem and on the same problem built from dicts."""
    built = concrete_counter(6, bound=40, dec_steps=(0, 1, 2))
    path = tmp_path / "counter.json"
    save_json(pondp_to_json_dict(built), str(path))
    p = load_pondp(str(path))
    mu = strong_cyclic_plan(p)
    verdicts = {mode: check_solution(p, mu, mode).to_json_dict() for mode in (FAIR, STRONG)}
    assert "succ" not in vars(p) and "avail" not in vars(p) and "obs_fn" not in vars(p)
    assert verdicts[FAIR]["verdict"] == "FAIR_SOLUTION"
    assert verdicts[STRONG]["verdict"] == "NOT_A_SOLUTION"
    for q in (p, built):
        assert strong_cyclic_plan(q).output == reference_plan(q).output == mu.output
        for mode, verdict in verdicts.items():
            assert check_solution(q, mu, mode).to_json_dict() == verdict
            assert reference_check(q, mu, mode).to_json_dict() == verdict


def test_decoded_invalid_problem_raises_on_its_fields():
    """A decoded problem that fails validation holds only its diagnostics:
    reading a name-keyed field raises MalformedInputError naming the first."""
    doc = pondp_to_json_dict(concrete_counter(3))
    del doc["obs"]["X=1"]
    doc["init"].append("nowhere")
    p = pondp_from_json_dict(doc)
    assert [code for code, _, _ in validate(p)] == ["init not a state", "missing observation"]
    for name in ("states", "init", "avail", "obs_fn", "succ"):
        with pytest.raises(MalformedInputError, match="initial state 'nowhere' not in states"):
            getattr(p, name)


def test_as_fondp_shares_the_numbered_form(tmp_path):
    """as_fondp views a decoded problem through its numbered form, building
    no name-keyed field; a problem that is not fully observable is malformed."""
    path = tmp_path / "projection.json"
    save_json(pondp_to_json_dict(counter_projection()), str(path))
    p = load_pondp(str(path))
    f = as_fondp(p)
    assert numbered(f) is numbered(p)
    assert not {"states", "avail", "obs_fn", "succ"} & vars(f).keys()
    assert f.succ == counter_projection().succ
    with pytest.raises(MalformedInputError, match=r"obs\('X=1'\) != 'X=1'"):
        as_fondp(concrete_counter(3))


def test_validate_empty_successor():
    p = Pondp(
        states={"s"},
        init={"s"},
        observations={"o"},
        actions={"Dec"},
        goal_states=set(),
        avail={"s": {"Dec"}},
        obs_fn={"s": "o"},
        succ={},
    )
    codes = [c for c, _, _ in validate(p)]
    assert "empty successor set" in codes


def test_validate_goal_not_observable():
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
    cls = infer_class([member])
    codes = [c for c, _, _ in validate_class(cls)]
    assert "goal not observable" in codes


def test_step():
    p = concrete_counter(3)
    assert step(p, "X=3", "Dec") == frozenset({"X=2"})
    assert step(p, "X=0", "Dec") == frozenset({"X=0"})
    po = counter_projection()
    assert step(po, POS, "Dec") == frozenset({POS, ZERO})
    with pytest.raises(UnavailableActionError):
        step(p, "X=3", "Nope")


# ---------------------------------------------------------------------------
# run_policy
# ---------------------------------------------------------------------------


def test_run_policy_counter():
    p = concrete_counter(5)
    mu = Policy.memoryless({POS: "Dec"})
    t = run_policy(p, mu)
    assert isinstance(t, FiniteTrajectory)
    assert len(t.actions) == 5
    assert t.states == ("X=5", "X=4", "X=3", "X=2", "X=1", "X=0")
    assert is_goal_reaching(p, t)


def test_run_policy_empty():
    """A policy undefined everywhere yields the empty maximal trajectory."""
    p = concrete_counter(5)
    mu = Policy.memoryless({})
    t = run_policy(p, mu)
    assert t.states == ("X=5",) and t.actions == ()


def test_run_policy_lasso_detection():
    po = counter_projection()
    mu = Policy.memoryless({POS: "Dec"})
    t = run_policy(po, mu, resolver=ScriptedResolver([1] * 10))
    # scripted resolver always picks the positive outcome (sorted order:
    # X=0 before X>0, so index 1 is X>0)
    assert isinstance(t, Lasso)
    assert t.cycle_states == (POS,) and t.cycle_actions == ("Dec",)


def test_run_policy_invalid():
    p = concrete_counter(2)
    bad = Pondp(
        states=p.states,
        init=p.init,
        observations=p.observations,
        actions=p.actions,
        goal_states=p.goal_states,
        avail={s: (frozenset() if s == "X=1" else p.avail[s]) for s in p.states},
        obs_fn=p.obs_fn,
        succ={k: v for k, v in p.succ.items() if k[1] != "X=1"},
        annotations=p.annotations,
    )
    mu = Policy.memoryless({POS: "Dec"})
    with pytest.raises(InvalidPolicyError):
        run_policy(bad, mu)


def test_run_policy_resolver_exhausted():
    po = counter_projection()
    mu = Policy.memoryless({POS: "Dec", ZERO: "Inc"})
    with pytest.raises(ResolverExhaustedError):
        run_policy(po, mu, resolver=ScriptedResolver([1]))


def test_run_policy_truncated():
    po = counter_projection()
    # memoryful policy that never revisits a memory state: no lasso cut
    memories = tuple(range(8))
    mu = Policy(
        memory_states=memories,
        initial=0,
        update={(m, o): min(m + 1, 7) for m in memories for o in (POS, ZERO)},
        output={(m, POS): "Dec" for m in memories} | {(m, ZERO): "Inc" for m in memories},
    )
    t = run_policy(po, mu, resolver=SeededResolver(0), max_steps=4)
    assert t.truncated and len(t.actions) == 4


def test_run_policy_stop_at_goal():
    p = concrete_counter(2)
    mu = Policy.memoryless({POS: "Dec", ZERO: "Inc"})
    t = run_policy(p, mu, stop_at_goal=True)
    assert t.states[-1] == "X=0" and len(t.actions) == 2


def test_run_policy_reproducible():
    po = counter_projection()
    mu = Policy.memoryless({POS: "Dec", ZERO: "Dec"})
    t1 = run_policy(po, mu, resolver=SeededResolver(42))
    t2 = run_policy(po, mu, resolver=SeededResolver(42))
    assert t1 == t2


# ---------------------------------------------------------------------------
# goal reaching / fairness
# ---------------------------------------------------------------------------


def test_goal_reaching_cases():
    p = concrete_counter(5)
    mu = Policy.memoryless({POS: "Dec"})
    t = run_policy(p, mu)
    assert is_goal_reaching(p, t)

    po = counter_projection()
    unfair = Lasso((), (), (POS,), ("Dec",))
    assert not is_goal_reaching(po, unfair)

    # goal inside the prefix only still counts as reaching
    both = Lasso((POS, ZERO), ("Dec", "Inc"), (POS,), ("Inc",))
    assert is_goal_reaching(po, both)


def test_not_a_trajectory():
    po = counter_projection()
    with pytest.raises(NotATrajectoryError):
        is_goal_reaching(po, Lasso((), (), (ZERO,), ("Dec",)))  # starts outside init
    with pytest.raises(NotATrajectoryError):
        # Inc from X>0 cannot yield X=0
        is_goal_reaching(po, Lasso((), (), (POS, ZERO), ("Inc", "Inc")))


def test_fairness_cases():
    po = counter_projection()
    # a decrement loop that never sees the zero outcome is unfair
    assert not is_fair(po, Lasso((), (), (POS,), ("Dec",)))
    assert not is_fair(po, Lasso((), (), (POS, POS), ("Dec", "Dec")))
    # a cycle containing both decrement outcomes is fair
    fair = Lasso((), (), (POS, POS, ZERO, ZERO), ("Dec", "Dec", "Dec", "Inc"))
    assert is_fair(po, fair)
    # finite trajectories are fair by definition
    assert is_fair(po, run_policy(concrete_counter(3), Policy.memoryless({POS: "Dec"})))


def test_deterministic_fair():
    p = concrete_counter(3)
    loop = Lasso((), (), ("X=3", "X=4"), ("Inc", "Dec"))
    assert is_fair(p, loop)


# ---------------------------------------------------------------------------
# check_solution
# ---------------------------------------------------------------------------


def test_check_solution_counter_verdicts():
    po = counter_projection()
    mu = Policy.memoryless({POS: "Dec"})
    strong = check_solution(po, mu, STRONG)
    assert strong.kind == "NOT_A_SOLUTION"
    assert isinstance(strong.counterexample, Lasso)
    assert strong.counterexample.cycle_states == (POS,)
    assert check_solution(po, mu, Under(qnp_constraint("X"))).kind == "SOLVES_UNDER_CONSTRAINT"
    assert check_solution(po, mu, FAIR).kind == "FAIR_SOLUTION"


def test_check_solution_invalid_policy():
    po = counter_projection()
    mu = Policy.memoryless({POS: "Nope"})
    v = check_solution(po, mu, STRONG)
    assert v.kind == "INVALID_POLICY"
    assert v.witness is not None


def test_counterexample_round_trip():
    """NOT_A_SOLUTION counterexamples replay: they are policy-generated,
    they avoid the goal, and for the fair mode they are fair."""
    po = counter_projection()
    mu = Policy.memoryless({POS: "Dec"})
    v = check_solution(po, mu, STRONG)
    cx = v.counterexample
    assert not is_goal_reaching(po, cx)
    assert is_generated_by(po, mu, cx)

    bad = Policy.memoryless({POS: "Inc"})
    v = check_solution(po, bad, FAIR)
    assert v.kind == "NOT_A_SOLUTION"
    assert is_fair(po, v.counterexample)
    assert not is_goal_reaching(po, v.counterexample)
    assert is_generated_by(po, bad, v.counterexample)


def test_strong_implies_fair():
    """Any policy strong on a problem is also a fair solution there."""
    p = concrete_counter(4)
    mu = Policy.memoryless({POS: "Dec"})
    assert check_solution(p, mu, STRONG).kind == "STRONG_SOLUTION"
    assert check_solution(p, mu, FAIR).kind == "FAIR_SOLUTION"


def test_under_all_matches_strong():
    """The all-trajectories constraint makes the constrained check coincide
    with the strong check, on a spread of policies and problems."""
    problems = [counter_projection(), concrete_counter(3), concrete_counter(1, dec_steps=(1, 2))]
    policies = [
        Policy.memoryless({POS: "Dec"}),
        Policy.memoryless({POS: "Dec", ZERO: "Dec"}),
        Policy.memoryless({POS: "Inc"}),
        Policy.memoryless({}),
    ]
    for p in problems:
        for mu in policies:
            strong = check_solution(p, mu, STRONG)
            under = check_solution(p, mu, Under(ALL_TRAJECTORIES))
            assert strong.is_solution == under.is_solution, (
                p.init,
                mu.output,
                strong.kind,
                under.kind,
            )


def test_under_fairness_matches_fair():
    problems = [counter_projection(), concrete_counter(2, dec_steps=(1, 2))]
    policies = [Policy.memoryless({POS: "Dec"}), Policy.memoryless({POS: "Inc"})]
    for p in problems:
        for mu in policies:
            fair = check_solution(p, mu, FAIR)
            under = check_solution(p, mu, Under(fairness_constraint()))
            assert fair.is_solution == under.is_solution


def test_dead_end_is_counterexample_in_all_modes():
    """A reachable non-goal stop fails every mode, including constrained
    ones (finite trajectories satisfy every constraint)."""
    po = counter_projection()
    stops = Policy.memoryless({})  # stops immediately at X>0
    for mode in (STRONG, FAIR, Under(qnp_constraint("X")), Under(ALL_TRAJECTORIES)):
        v = check_solution(po, stops, mode)
        assert v.kind == "NOT_A_SOLUTION"
        assert isinstance(v.counterexample, FiniteTrajectory)


def test_maximality_invariant():
    """run_policy never stops while the policy still has a defined,
    available action (randomized sweep)."""
    rng = random.Random(5)
    po = counter_projection()
    p3 = concrete_counter(3, dec_steps=(1, 2))
    for trial in range(200):
        mapping = {}
        for o in (POS, ZERO):
            r = rng.random()
            if r < 0.4:
                mapping[o] = "Dec"
            elif r < 0.7:
                mapping[o] = "Inc"
        mu = Policy.memoryless(mapping)
        p = po if trial % 2 else p3
        t = run_policy(p, mu, resolver=SeededResolver(trial), max_steps=50)
        if isinstance(t, FiniteTrajectory) and not t.truncated:
            last = t.states[-1]
            a = mu.output.get(("m0", p.obs_fn[last]))
            assert a is None or a not in p.avail.get(last, frozenset())


def _rand_problem(rng):
    n = rng.randrange(2, 7)
    states = [f"s{i}" for i in range(n)]
    actions = ["a", "b"]
    avail = {}
    succ = {}
    for s in states:
        av = set()
        for a in actions:
            if rng.random() < 0.75:
                av.add(a)
                succ[(a, s)] = set(rng.sample(states, rng.randrange(1, 3)))
        if not av:
            av.add("a")
            succ[("a", s)] = {rng.choice(states)}
        avail[s] = av
    return Pondp(
        states=set(states),
        init={states[0]},
        observations=set(states),
        actions=set(actions),
        goal_states={states[-1]},
        avail=avail,
        obs_fn={s: s for s in states},
        succ=succ,
    )


def test_verdict_soundness_random_sweep():
    """On random problems and policies, every NOT_A_SOLUTION counterexample
    replays (policy-generated, goal-avoiding, fair when the mode is fair),
    and a strong solution is always a fair solution."""
    rng = random.Random(2718)
    for trial in range(150):
        p = _rand_problem(rng)
        mapping = {}
        for s in sorted(p.states):
            options = sorted(p.avail[s])
            if rng.random() < 0.85:
                mapping[s] = rng.choice(options)
        mu = Policy.memoryless(mapping)
        strong = check_solution(p, mu, STRONG)
        fair = check_solution(p, mu, FAIR)
        if strong.kind == "STRONG_SOLUTION":
            assert fair.kind == "FAIR_SOLUTION", trial
        for verdict, mode in ((strong, STRONG), (fair, FAIR)):
            if verdict.kind != "NOT_A_SOLUTION":
                continue
            cx = verdict.counterexample
            assert not is_goal_reaching(p, cx), trial
            assert is_generated_by(p, mu, cx), trial
            if mode == FAIR and isinstance(cx, Lasso):
                assert is_fair(p, cx), trial


def test_stop_counterexample_is_least_by_str():
    """Of several goal-free stops, the counterexample ends at the least by
    ``str``, not at the first one the product numbers."""
    p = Pondp(
        states={"s", "x", "z", "b"},
        init={"s"},
        observations={"s", "x", "z", "b"},
        actions={"a"},
        goal_states=set(),
        avail={"s": {"a"}, "z": {"a"}, "x": set(), "b": set()},
        obs_fn={v: v for v in "sxzb"},
        succ={("a", "s"): {"x", "z"}, ("a", "z"): {"b"}},
    )
    mu = Policy.memoryless({"s": "a", "z": "a"})
    for mode in (STRONG, FAIR, Under(fairness_constraint())):
        cx = check_solution(p, mu, mode).counterexample
        assert cx.states == ("s", "z", "b"), mode


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_checks_match_tuple_keyed_reference(data):
    """On random partially observable problems and finite-memory policies,
    the STRONG, FAIR and Under(fairness) verdicts, witnesses included, equal
    those of the tuple-keyed reference product."""
    p = data.draw(coarse_problems())
    mu = data.draw(finite_memory_policies(p))
    for mode in (STRONG, FAIR, Under(fairness_constraint())):
        got = check_solution(p, mu, mode).to_json_dict()
        assert got == reference_check(p, mu, mode).to_json_dict(), mode


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_minimized_policy_acts_alike_and_is_minimal(data):
    """Moore minimization keeps `Policy.action` on every observation sequence
    up to length 4 and leaves no two equivalent memory states."""
    p = data.draw(coarse_problems())
    mu = data.draw(finite_memory_policies(p))
    observations = sorted(p.observations)
    mu = Policy(
        memory_states=mu.memory_states,
        initial=mu.initial,
        update={(m, o): mu.next_memory(m, o) for m in mu.memory_states for o in observations},
        output=mu.output,
    )
    small = mu.minimized(observations)
    assert set(small.memory_states) <= set(mu.memory_states)
    for n in range(1, 5):
        for seq in itertools.product(observations, repeat=n):
            assert small.action(seq) == mu.action(seq), seq
    assert not moore_equivalent_pairs(small, observations)
    pairs = moore_equivalent_pairs(mu, observations)
    classes = {frozenset({m} | {n for k, n in pairs if k == m}) for m in mu.memory_states}
    assert len(small.memory_states) == len(classes)


def _reached_pairs(p, mu):
    """The (memory, observation) pairs of mu's policy product with p."""
    return {(m, p.obs_fn[s]) for s, m in _policy_product(p, mu).nodes}


def _assert_product_renamed(p, mu, small):
    """The policy product of ``small`` is the image of that of ``mu`` under
    a renaming of mu's memory states: the two products are walked in step
    from their initial nodes, paired nodes have the same state, action,
    stop and number of successors, and each memory state of mu is paired
    with one memory state of ``small`` only."""
    big, little = _policy_product(p, mu), _policy_product(p, small)
    stops_big, stops_little = set(big.stops), set(little.stops)
    ren = {}
    pairs = list(zip(big.start, little.start))
    seen = set()
    while pairs:
        i, j = pair = pairs.pop()
        if pair in seen:
            continue
        seen.add(pair)
        (s, m), (t, r) = big.nodes[i], little.nodes[j]
        assert s == t and ren.setdefault(m, r) == r
        assert big.act[i] == little.act[j] and (i in stops_big) == (j in stops_little)
        assert len(big.succ[i]) == len(little.succ[j])
        pairs.extend(zip(big.succ[i], little.succ[j]))
    assert {j for _, j in seen} == set(range(len(little.nodes)))
    assert (big.invalid is None) == (little.invalid is None)


@st.composite
def _annotated_problems_with_policies(draw):
    p = draw(annotated_problems())
    return p, draw(finite_memory_policies(p, max_memory=5))


# m0 and m1 agree on o, but merging them means merging m1 with m2 (their
# updates there), which outputs b instead of a: the merge must be refused
_CHAIN = (
    Pondp(
        states={"s0", "s1", "s2", "g"},
        init={"s0"},
        observations={"o", "og"},
        actions={"a", "b"},
        goal_states={"g"},
        avail={"s0": {"a"}, "s1": {"a"}, "s2": {"a", "b"}, "g": set()},
        obs_fn={"s0": "o", "s1": "o", "s2": "o", "g": "og"},
        succ={("a", "s0"): {"s1"}, ("a", "s1"): {"s2"}, ("a", "s2"): {"s2"}, ("b", "s2"): {"g"}},
        annotations={"variables": ["X", "Y"], "action_effects": {}, "obs_zero": {"o": [], "og": []}},
    ),
    Policy(
        memory_states=("m0", "m1", "m2"),
        initial="m0",
        update={("m0", "o"): "m1", ("m1", "o"): "m2"},
        output={("m0", "o"): "a", ("m1", "o"): "a", ("m2", "o"): "b"},
    ),
)


@settings(max_examples=300, deadline=None)
@given(
    _annotated_problems_with_policies(),
    st.sampled_from([["X"], ["Y"], ["X", "Y"]]),
    st.booleans(),
)
@example(_CHAIN, ["X"], False)
def test_minimized_over_reached_pairs_keeps_every_run(case, variables, strong):
    """Minimizing over the pairs the policy product reaches only renames
    memory in that product, so the STRONG, FAIR and Under(counter
    constraint) verdicts stay the same, and each policy's witness is one of
    the other policy too.  (The witnesses themselves may differ: a renaming
    that merges product nodes shortens some lassos, as Moore minimization
    alone already does.)"""
    p, mu = case
    observations = sorted(p.observations)
    small = mu.minimized(observations, _reached_pairs(p, mu))
    _assert_product_renamed(p, mu, small)
    c = conjoin(qnp_constraints(variables, strong=strong))
    for mode in (STRONG, FAIR, Under(c)):
        verdicts = [check_solution(p, nu, mode) for nu in (mu, small)]
        assert verdicts[0].kind == verdicts[1].kind, mode
        for v in verdicts:
            t = v.counterexample
            if t is None:
                continue
            assert is_generated_by(p, mu, t) and is_generated_by(p, small, t), mode
            if v.kind != "NOT_A_SOLUTION":
                continue
            assert not is_goal_reaching(p, t), mode
            if mode == FAIR and isinstance(t, Lasso):
                assert is_fair(p, t)
            if mode not in (STRONG, FAIR) and isinstance(t, Lasso):
                assert satisfies(c, t, p)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_minimized_over_reached_pairs_is_no_larger_than_moore(data):
    """The merge over reached pairs never keeps more memory states than
    Moore minimization (no ``care``)."""
    p = data.draw(coarse_problems())
    mu = data.draw(finite_memory_policies(p))
    observations = sorted(p.observations)
    small = mu.minimized(observations, _reached_pairs(p, mu))
    assert len(small.memory_states) <= len(mu.minimized(observations).memory_states)


@pytest.mark.parametrize("strong", [False, True])
def test_synthesized_policies_reach_the_fewest_memory_classes(strong, monkeypatch):
    """On the open and closed projections of the criterion-4 suite, the
    greedy merge of a synthesized policy keeps as few memory states as the
    best partition of its Moore classes, found by brute force."""
    from genplan.omega import synthesize

    calls = []
    minimized = Policy.minimized

    def record(self, observations, care=None):
        calls.append((self, observations, care))
        return minimized(self, observations, care)

    monkeypatch.setattr(Policy, "minimized", record)
    for name, p, variables in SUITE_PROJECTIONS:
        calls.clear()
        res = synthesize(p, conjoin(qnp_constraints(variables, strong=strong)))
        if not res.realizable:
            continue
        mu, observations, care = calls[0]
        moore = minimized(mu, observations)
        # each memory state's Moore class, named by its first member
        pairs = moore_equivalent_pairs(mu, observations)
        rep = {m: next(k for k in moore.memory_states if k == m or (k, m) in pairs) for m in mu.memory_states}
        moore_care = {(rep[m], o) for m, o in care}
        assert len(res.policy.memory_states) == fewest_memory_classes(moore, moore_care), name


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_pondp_json_roundtrip():
    p = concrete_counter(3)
    doc = pondp_to_json_dict(p)
    back = pondp_from_json_dict(doc)
    assert back.states == p.states
    assert back.init == p.init
    assert back.goal_states == p.goal_states
    assert back.succ == p.succ
    assert back.avail == p.avail
    assert back.obs_fn == p.obs_fn
    assert pondp_to_json_dict(back) == doc


def test_policy_json_roundtrip():
    mu = Policy(
        memory_states=("m0", "m1"),
        initial="m0",
        update={("m0", POS): "m1", ("m1", POS): "m0"},
        output={("m0", POS): "Dec"},
    )
    doc = policy_to_json_dict(mu)
    back = policy_from_json_dict(doc)
    assert policy_to_json_dict(back) == doc
    assert back.output == mu.output


def test_dot_export():
    dot = pondp_to_dot(counter_projection())
    assert dot.startswith("digraph")
    assert '"X>0" -> "X=0" [label="Dec"]' in dot
