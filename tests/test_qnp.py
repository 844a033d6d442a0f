"""Tests for the qualitative numerical problem model: parsing,
instantiation, syntactic projection, similarity, and closure."""

import random
from fractions import Fraction
from itertools import product

import pytest

from genplan.errors import (
    BoundTooSmallError,
    NotClosureEligibleError,
    OutOfRangeError,
    QnpParseError,
    QnpSemanticError,
)
from genplan.model import (
    Policy,
    Under,
    check_solution,
    infer_class,
    run_policy,
    validate,
)
from genplan.projection import observation_projection
from genplan.constraints import qnp_constraints, conjoin
from genplan.qnp import (
    ConcreteSemantics,
    InitDescriptor,
    Qnp,
    QnpAction,
    close_qnp,
    closure_diagnostics,
    instantiate,
    parse_qnp,
    similar,
    simulate,
    syntactic_projection,
)

from .helpers import qnp_to_text, two_valued_variant

COUNTER = """
vars X
init_values X in {5}
action Dec
  pre X>0
  dec X
action Inc
  inc X
goal X=0
"""

TWOVAR = """
vars X Y
init_values X in {20}
init_values Y in {30}
action a
  pre X>0
  dec X
  inc Y
action b
  pre Y>0
  dec Y
goal X=0 Y=0
"""


def with_init(q, **values):
    init_values = dict(q.init_values)
    for var, vals in values.items():
        init_values[var] = InitDescriptor(
            kind="set", values=tuple(sorted(Fraction(v) for v in vals))
        )
    return Qnp(
        fluents=q.fluents,
        init_fluents=q.init_fluents,
        actions=q.actions,
        goal=q.goal,
        variables=q.variables,
        init_values=init_values,
        semantics=q.semantics,
    )


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


def test_parse_twovar():
    q = parse_qnp(TWOVAR)
    assert q.variables == ("X", "Y")
    a = q.action("a")
    assert a.numeric == {"X": "dec", "Y": "inc"}
    assert ("var", "X", "pos") in a.pre
    assert q.goal == (("var", "X", "zero"), ("var", "Y", "zero"))
    assert q.init_values["X"].values == (Fraction(20),)


def test_parse_counter_valid():
    q = parse_qnp(COUNTER)
    assert closure_diagnostics(q) == []


def test_parse_inc_and_dec_same_variable():
    with pytest.raises(QnpSemanticError):
        parse_qnp("vars X\ninit_values X in {1}\naction w\n  inc X\n  dec X\ngoal X=0\n")


def test_parse_contradictory_condition():
    with pytest.raises(QnpSemanticError):
        parse_qnp("vars X\ninit_values X in {1}\naction w\n  pre X=0 X>0\n  inc X\ngoal X=0\n")


def test_parse_errors():
    with pytest.raises(QnpParseError):
        parse_qnp("vars X\ninit_values X in 5\ngoal X=0\n")
    with pytest.raises(QnpParseError):
        parse_qnp("vars X\ninit_values X in {1}\n")  # no goal
    with pytest.raises(QnpParseError):
        parse_qnp("pre X>0\ngoal X=0\n")  # pre outside action


@pytest.mark.parametrize("args", ["0 1 grid 0", "0 1 grid -1", "-2 1", "2 1"])
def test_parse_rejects_bad_bounded_semantics(args):
    """A zero grid divides by zero, a negative one never ends the outcome
    loop, and a negative or inverted step range lets values go negative:
    each is a parse error that names its line."""
    text = f"vars X\ninit_values X in {{1}}\nsemantics X bounded {args}\ngoal X=0\n"
    with pytest.raises(QnpParseError, match="^line 3: bounded needs"):
        parse_qnp(text)


def test_parse_fluents_and_intervals():
    q = parse_qnp(
        "fluents p q\nvars N\ninit p\ninit_values N in [1,4]\n"
        "action go\n  pre p N>0\n  del p\n  add q\n  dec N\ngoal N=0 q\n"
    )
    assert q.init_values["N"].kind == "interval"
    assert q.init_values["N"].positive_possible and not q.init_values["N"].zero_possible
    assert q.action("go").add == frozenset({"q"})


def test_text_roundtrip():
    q = parse_qnp(TWOVAR)
    q2 = parse_qnp(qnp_to_text(q))
    assert q2.actions == q.actions
    assert q2.goal == q.goal
    assert q2.init_values == q.init_values


# ---------------------------------------------------------------------------
# Instantiation
# ---------------------------------------------------------------------------


def test_instantiate_dec_only_counter():
    """With only decrements, the instance from 5 has six reachable states and
    is deterministic."""
    q = parse_qnp(
        "vars X\ninit_values X in {5}\naction Dec\n  pre X>0\n  dec X\ngoal X=0\n"
    )
    p = instantiate(q, {"X": 5}, bound=10)
    assert len(p.states) == 6
    assert all(len(v) == 1 for v in p.succ.values())
    assert validate(p) == []
    assert p.obs_fn["X=3"] == "X>0" and p.obs_fn["X=0"] == "X=0"


def test_instantiate_twovar_policy_reaches_goal_in_70():
    q = parse_qnp(TWOVAR)
    p = instantiate(q, {"X": 20, "Y": 30}, bound=64)
    canon = Policy.memoryless({"X>0,Y=0": "a", "X>0,Y>0": "b", "X=0,Y>0": "b"})
    t = run_policy(p, canon, stop_at_goal=True)
    assert len(t.actions) == 70
    assert t.states[-1] == "X=0,Y=0"


def test_instantiate_initial_goal():
    q = parse_qnp("vars X\ninit_values X in {0,3}\naction Dec\n  pre X>0\n  dec X\ngoal X=0\n")
    p = instantiate(q, {"X": 0}, bound=5)
    assert p.init <= p.goal_states


def test_instantiate_out_of_range():
    q = parse_qnp(COUNTER)
    with pytest.raises(OutOfRangeError):
        instantiate(q, {"X": 7}, bound=10)


def test_instantiate_bound_too_small():
    q = parse_qnp(COUNTER)
    with pytest.raises(BoundTooSmallError):
        instantiate(q, {"X": 5}, bound=3)


def test_instantiate_capping_marker():
    q = parse_qnp(COUNTER)
    p = instantiate(q, {"X": 5}, bound=6)
    assert p.annotations.get("capped") is True


def test_instantiate_bounded_semantics_grid():
    q = parse_qnp(COUNTER)
    qb = Qnp(
        fluents=q.fluents,
        init_fluents=q.init_fluents,
        actions=q.actions,
        goal=q.goal,
        variables=q.variables,
        init_values={"X": InitDescriptor(kind="set", values=(Fraction(1),))},
        semantics={"X": ConcreteSemantics(mode="bounded", lo=Fraction(0), hi=Fraction(1), grid=Fraction(1, 2))},
    )
    p = instantiate(qb, {"X": 1}, bound=2)
    assert p.succ[("Dec", "X=1")] == frozenset({"X=0", "X=1/2", "X=1"})
    # increments at zero must be strictly positive
    assert "X=0" not in p.succ[("Inc", "X=0")]


def test_unbounded_simulation_matches_bounded_run():
    q = parse_qnp(COUNTER)
    mu = Policy.memoryless({"X>0": "Dec"})
    t = simulate(q, mu, {"X": 5})
    assert len(t.actions) == 5 and t.states[-1] == "X=0"


def test_zero_step_decrements_break_the_counter_constraint():
    """An instance whose decrements may do nothing does not satisfy the
    counter constraint, and the toolkit reports it: the all-trajectories
    premise fails to imply the constraint, with a witnessing lasso of
    vacuous decrements."""
    from genplan.constraints import ALL_TRAJECTORIES, implies, qnp_constraint, satisfies

    q = parse_qnp(COUNTER)
    lazy = Qnp(
        fluents=q.fluents,
        init_fluents=q.init_fluents,
        actions=q.actions,
        goal=q.goal,
        variables=q.variables,
        init_values={"X": InitDescriptor(kind="set", values=(Fraction(2),))},
        semantics={"X": ConcreteSemantics(mode="bounded", lo=Fraction(0), hi=Fraction(1))},
    )
    inst = instantiate(lazy, {"X": 2}, bound=3)
    res = implies(ALL_TRAJECTORIES, qnp_constraint("X"), inst)
    assert not res.holds
    assert not satisfies(qnp_constraint("X"), res.witness, inst)
    # a unit-step instance of the same problem does satisfy the constraint
    unit = instantiate(q, {"X": 5}, bound=8)
    assert implies(ALL_TRAJECTORIES, qnp_constraint("X"), unit).holds


# ---------------------------------------------------------------------------
# Syntactic projection
# ---------------------------------------------------------------------------


def test_syntactic_projection_counter():
    q = parse_qnp(COUNTER)
    proj = syntactic_projection(q)
    po = proj.fondp
    assert po.states == frozenset({"X=0", "X>0"})
    assert po.init == frozenset({"X>0"})
    assert po.succ[("Dec", "X>0")] == frozenset({"X>0", "X=0"})
    assert po.succ[("Inc", "X=0")] == frozenset({"X>0"})
    assert proj.description["actions"]["Dec"]["numeric"]["X"] == "if X>0 then X>0 | X=0"


def test_syntactic_projection_multiple_initial_states():
    q = parse_qnp("vars X\ninit_values X in {0,3}\naction Dec\n  pre X>0\n  dec X\ngoal X=0\n")
    po = syntactic_projection(q).fondp
    assert po.init == frozenset({"X=0", "X>0"})


def test_syntactic_projection_twovar():
    q = parse_qnp(TWOVAR)
    po = syntactic_projection(q).fondp
    assert len(po.states) == 4
    assert po.succ[("a", "X>0,Y=0")] == frozenset({"X>0,Y>0", "X=0,Y>0"})
    assert po.succ[("a", "X>0,Y>0")] == frozenset({"X>0,Y>0", "X=0,Y>0"})
    assert po.succ[("b", "X>0,Y>0")] == frozenset({"X>0,Y>0", "X>0,Y=0"})


def test_family_projection_equals_syntactic():
    """Sampled: the explicit observation projection of instantiated similar
    members coincides with the syntactic projection (reachable part)."""
    for text, inits in [
        (COUNTER, [{"X": x} for x in range(1, 9)]),
        (TWOVAR, [{"X": x, "Y": y} for x in (1, 2, 3) for y in (1, 2)]),
    ]:
        q = parse_qnp(text)
        members = []
        for chosen in inits:
            qi = with_init(q, **{v: [x] for v, x in chosen.items()})
            members.append(instantiate(qi, chosen, bound=8))
        explicit = observation_projection(infer_class(members))
        syntactic = syntactic_projection(q).fondp
        assert explicit.states == syntactic.states
        assert explicit.succ == syntactic.succ
        assert explicit.goal_states == syntactic.goal_states
        assert explicit.avail == syntactic.avail
        # initial observations of the family are covered by the syntactic init
        assert explicit.init <= syntactic.init


def test_abstract_policy_transfers_to_similar_instances():
    """A policy solving the projection under the constraints solves sampled
    instances of similar QNPs under the constraints."""
    rng = random.Random(12)
    q = parse_qnp(TWOVAR)
    po = syntactic_projection(q).fondp
    canon = Policy.memoryless({"X>0,Y=0": "a", "X>0,Y>0": "b", "X=0,Y>0": "b"})
    cv = conjoin(qnp_constraints(["X", "Y"]))
    assert check_solution(po, canon, Under(cv)).kind == "SOLVES_UNDER_CONSTRAINT"
    for _ in range(6):
        x0 = rng.randint(1, 4)
        y0 = rng.randint(1, 4)
        qi = with_init(q, X=[x0], Y=[y0])
        inst = instantiate(qi, {"X": x0, "Y": y0}, bound=10)
        assert check_solution(inst, canon, Under(cv)).kind == "SOLVES_UNDER_CONSTRAINT"


def random_qnp(rng):
    """A valid QNP with 0-2 fluents, 1-3 variables and 1-4 actions with
    random preconditions, add and delete lists, increments and decrements."""
    fluents = ("p", "q")[: rng.randint(0, 2)]
    variables = ("X", "Y", "Z")[: rng.randint(1, 3)]

    def condition(chance):
        lits = [("fluent", f, rng.random() < 0.5) for f in fluents if rng.random() < chance]
        lits += [("var", v, rng.choice(("zero", "pos"))) for v in variables if rng.random() < chance]
        return tuple(lits)

    def some_fluents():
        return frozenset(f for f in fluents if rng.random() < 0.4)

    actions = []
    for k in range(rng.randint(1, 4)):
        effects = {v: rng.choice((None, "inc", "dec")) for v in variables}
        actions.append(QnpAction(
            name=f"a{k}", pre=condition(0.4), add=some_fluents(), delete=some_fluents(),
            numeric={v: e for v, e in effects.items() if e},
        ))
    inits = ((0,), (3,), (0, 2), (1, 4))
    return Qnp(
        fluents=frozenset(fluents),
        init_fluents=some_fluents(),
        actions=tuple(actions),
        goal=condition(0.5),
        variables=variables,
        init_values={
            v: InitDescriptor(kind="set", values=tuple(Fraction(x) for x in rng.choice(inits)))
            for v in variables
        },
    )


def test_two_valued_instance_mirrors_projection():
    """The two-valued variant is similar, and its instances from every
    initial 0/1 valuation project onto exactly the syntactic projection.
    Swept over 250 seeded random QNPs; the explicit side goes through
    ``observation_projection``, which shares no code with the projection."""
    rng = random.Random(2011)
    for _ in range(250):
        q = random_qnp(rng)
        tv = two_valued_variant(q)
        assert similar(q, tv)
        members = [
            instantiate(tv, dict(zip(q.variables, values)), bound=1)
            for values in product(*(tv.init_values[v].values for v in q.variables))
        ]
        explicit = observation_projection(infer_class(members))
        syntactic = syntactic_projection(q).fondp
        assert explicit.states == syntactic.states
        assert explicit.succ == syntactic.succ
        assert explicit.avail == syntactic.avail
        assert explicit.goal_states == syntactic.goal_states
        assert explicit.init == syntactic.init
    # the instance itself is isomorphic to the projection: states are 0/1
    counter = instantiate(two_valued_variant(parse_qnp(COUNTER)), {"X": 1}, bound=1)
    assert counter.states == frozenset({"X=0", "X=1"})


def test_simulate_branching_trace_is_pinned():
    """One seeded walk where outcomes branch: X moves by 0-2 (bounded) and
    Y decrements to {0, Y} (two-valued).  The RNG draws once per variable
    per step in variable order, unaffected variables included, so any
    change in how outcomes are drawn changes this trace."""
    q = parse_qnp(
        TWOVAR.replace("{20}", "{3}").replace("{30}", "{1}")
        .replace("goal", "semantics X bounded 0 2\nsemantics Y two_valued\ngoal")
    )
    canon = Policy.memoryless({"X>0,Y=0": "a", "X>0,Y>0": "b", "X=0,Y>0": "b"})
    t = simulate(q, canon, {"X": 3, "Y": 1}, seed=5)
    assert t.actions == ("b", "b", "b", "a", "b", "b", "b", "a", "b", "b", "b")
    assert t.states == (
        "X=3,Y=1", "X=3,Y=1", "X=3,Y=1", "X=3,Y=0", "X=1,Y=1", "X=1,Y=1",
        "X=1,Y=1", "X=1,Y=0", "X=0,Y=1", "X=0,Y=1", "X=0,Y=1", "X=0,Y=0",
    )
    assert not t.truncated


def test_boolean_projection_coherence():
    q = with_init(parse_qnp(TWOVAR), X=[2], Y=[1])
    p = instantiate(q, {"X": 2, "Y": 1}, bound=6)
    for s in p.states:
        parts = dict(kv.split("=") for kv in s.split(","))
        obs = p.obs_fn[s]
        assert ("X=0" in obs) == (Fraction(parts["X"]) == 0)
        assert ("Y=0" in obs) == (Fraction(parts["Y"]) == 0)


# ---------------------------------------------------------------------------
# Similarity
# ---------------------------------------------------------------------------


def test_similar_init_descriptor_shapes():
    q = parse_qnp(COUNTER)
    interval = Qnp(
        fluents=q.fluents,
        init_fluents=q.init_fluents,
        actions=q.actions,
        goal=q.goal,
        variables=q.variables,
        init_values={"X": InitDescriptor(kind="interval", values=(Fraction(5), Fraction(10)))},
        semantics=q.semantics,
    )
    assert similar(q, interval)


def test_similar_zero_flag_differs():
    q = parse_qnp(COUNTER)
    assert not similar(q, with_init(q, X=[0, 5]))


def test_similar_renamed_action():
    q = parse_qnp(COUNTER)
    renamed = parse_qnp(COUNTER.replace("Dec", "Down"))
    assert not similar(q, renamed)


# ---------------------------------------------------------------------------
# Closure
# ---------------------------------------------------------------------------


def test_close_counter():
    q = parse_qnp(COUNTER)
    qc = close_qnp(q)
    assert "q_X" in qc.fluents
    names = {a.name for a in qc.actions}
    assert {"set(X)", "unset(X)"} <= names
    dec = qc.action("Dec")
    assert ("fluent", "q_X", True) in dec.pre
    inc = qc.action("Inc")
    assert ("fluent", "q_X", False) in inc.pre
    unset = qc.action("unset(X)")
    assert ("var", "X", "zero") in unset.pre


def test_close_twovar():
    q = parse_qnp(TWOVAR)
    qc = close_qnp(q)
    a = qc.action("a")
    assert ("fluent", "q_X", True) in a.pre
    assert ("fluent", "q_Y", False) in a.pre
    b = qc.action("b")
    assert ("fluent", "q_Y", True) in b.pre


def test_close_rejects_double_decrement():
    q = parse_qnp(
        "vars X Y\ninit_values X in {1}\ninit_values Y in {1}\n"
        "action w\n  pre X>0 Y>0\n  dec X\n  dec Y\ngoal X=0 Y=0\n"
    )
    with pytest.raises(NotClosureEligibleError):
        close_qnp(q)


def test_close_rejects_missing_precondition():
    q = parse_qnp("vars X\ninit_values X in {1}\naction Dec\n  dec X\ngoal X=0\n")
    assert closure_diagnostics(q)
    with pytest.raises(NotClosureEligibleError):
        close_qnp(q)
