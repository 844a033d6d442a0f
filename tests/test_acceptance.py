"""Acceptance suite: one test per acceptance criterion, each printing a
PASS/FAIL line with its runtime.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import functools
import random
import time
from fractions import Fraction

from genplan import graph
from genplan import ltl as L
from genplan.constraints import (
    ALL_TRAJECTORIES,
    conjoin,
    qnp_constraint,
    qnp_constraints,
)
from genplan.fond import UNSOLVABLE, strong_cyclic_plan, verify_strong_cyclic
from genplan.ltl import eval_lasso, ltl_to_nba, nba_accepts_lasso
from genplan.model import (
    FAIR,
    Policy,
    SeededResolver,
    Under,
    _goal_free_region,
    _policy_product,
    check_solution,
    infer_class,
    is_goal_reaching,
    run_policy,
)
from genplan.omega import (
    CONTROLLER,
    ENVIRONMENT,
    nba_to_dpw,
    solve_parity,
    synthesize,
)
from genplan.projection import lift_trajectory, observation_projection
from genplan.qnp import (
    InitDescriptor,
    Qnp,
    close_qnp,
    instantiate,
    parse_qnp,
    simulate,
    syntactic_projection,
)

from .helpers import (
    LassoUniverseCheck,
    ZERO,
    POS,
    brute_force_winning,
    concrete_counter,
    counter_projection,
    reference_counter_dpw,
    counter_acceptance_formula,
    dpw_accepts,
    dpw_language_difference,
    is_generated_by,
    rand_formula,
    rand_game,
    rand_word,
    verify_strategy,
)

SIGMA = frozenset({"Inc", "Dec", ZERO, POS})


def criterion(num, name, limit):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.time()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\nACCEPTANCE {num} ({name}): FAIL after {time.time() - start:.1f}s")
                raise
            elapsed = time.time() - start
            print(f"\nACCEPTANCE {num} ({name}): PASS in {elapsed:.1f}s (limit {limit}s)")
            assert elapsed < limit, f"criterion {num} exceeded its {limit}s budget"
        return wrapper
    return deco


# ---------------------------------------------------------------------------
# 1. Reference automaton reproduction at the language level
# ---------------------------------------------------------------------------


@criterion(1, "reference automaton reproduction", 30)
def test_criterion_1_reference_automaton():
    """The pipeline DPW for the counter acceptance formula agrees with the
    lasso semantics on every lasso with prefix and cycle up to six letters
    over the four-letter alphabet, and with the hand-coded five-state,
    three-priority transcription on the same universe.

    The universe (about 30 million lassos) is checked exhaustively by
    exact grouping for both automata at once; the two automata are also
    proven fully language-equal by product analysis, and a random sample
    is re-verified literally.
    """
    phi = counter_acceptance_formula()
    hand = reference_counter_dpw()
    assert len(hand.states) == 5
    assert len(set(hand.priority.values())) == 3

    pipeline = nba_to_dpw(ltl_to_nba(phi, SIGMA))
    assert dpw_language_difference(pipeline, hand) is None

    rng = random.Random(2024)
    check = LassoUniverseCheck(phi, SIGMA, [hand, pipeline], max_prefix=6, max_cycle=6)
    witness = check.run(rng=rng, literal_samples=400)
    assert witness is None, f"disagreement at {witness}"

    letters = sorted(SIGMA)
    for _ in range(2000):
        w = rand_word(rng, letters, 6, 6)
        assert dpw_accepts(pipeline, w) == eval_lasso(phi, w, SIGMA)


# ---------------------------------------------------------------------------
# 2. Counter synthesis
# ---------------------------------------------------------------------------


@criterion(2, "counter synthesis", 5)
def test_criterion_2_counter_synthesis():
    po = counter_projection()
    cx = qnp_constraint("X")
    for direct in (False, True):
        res = synthesize(po, cx, direct=direct)
        assert res.realizable
        verdict = check_solution(po, res.policy, Under(cx))
        assert verdict.kind == "SOLVES_UNDER_CONSTRAINT"
        for x0 in (1, 5, 10, 100):
            t = run_policy(concrete_counter(x0), res.policy)
            assert len(t.actions) == x0, (direct, x0, len(t.actions))
            assert t.states[-1] == "X=0"
    assert not synthesize(po, ALL_TRAJECTORIES).realizable


# ---------------------------------------------------------------------------
# 3. Two-variable problem end to end
# ---------------------------------------------------------------------------

TWOVAR = (
    "vars X Y\ninit_values X in {20}\ninit_values Y in {30}\n"
    "action a\n  pre X>0\n  dec X\n  inc Y\n"
    "action b\n  pre Y>0\n  dec Y\ngoal X=0 Y=0\n"
)


@criterion(3, "two-variable problem", 30)
def test_criterion_3_twovar(tmp_path):
    import json
    import os

    from genplan.cli import main as cli_main
    from genplan.model import load_pondp, policy_from_json_dict

    q = parse_qnp(TWOVAR)
    # compile with commitments through the command line, then plan and verify
    qnp_path = os.path.join(os.path.dirname(__file__), "..", "problems", "twovar.qnp")
    fondp_path = tmp_path / "closed.json"
    policy_path = tmp_path / "plan.json"
    assert cli_main(["qnp2fond", qnp_path, "--close", "-o", str(fondp_path)]) == 0
    assert cli_main(["plan", str(fondp_path), "-o", str(policy_path)]) == 0
    assert (
        cli_main(["verify", "--mode", "fair", str(fondp_path), str(policy_path)]) == 0
    )
    pc = load_pondp(str(fondp_path))
    mu = policy_from_json_dict(json.loads(policy_path.read_text()))
    assert verify_strong_cyclic(pc, mu).kind == "FAIR_SOLUTION"

    # the canonical policy takes exactly 30 + 20*2 = 70 steps from (20, 30)
    canon = Policy.memoryless({"X>0,Y=0": "a", "X>0,Y>0": "b", "X=0,Y>0": "b"})
    t = simulate(q, canon, {"X": 20, "Y": 30})
    assert len(t.actions) == 70
    assert t.states[-1] == "X=0,Y=0"

    # partially known starts: ten seeded samples always reach the goal
    ranged = Qnp(
        fluents=q.fluents,
        init_fluents=q.init_fluents,
        actions=q.actions,
        goal=q.goal,
        variables=q.variables,
        init_values={
            "X": InitDescriptor(kind="interval", values=(Fraction(10), Fraction(20))),
            "Y": InitDescriptor(kind="interval", values=(Fraction(15), Fraction(30))),
        },
        semantics=q.semantics,
    )
    for seed in range(10):
        rng = random.Random(seed)
        chosen = {
            "X": ranged.init_values["X"].sample(rng),
            "Y": ranged.init_values["Y"].sample(rng),
        }
        t = simulate(ranged, canon, chosen, seed=seed)
        assert not t.truncated
        assert t.states[-1] == "X=0,Y=0"


# ---------------------------------------------------------------------------
# 4. Cross-engine agreement on a QNP suite
# ---------------------------------------------------------------------------


def _qnp_suite():
    """Closure-eligible QNPs with up to three variables, mixing solvable and
    unsolvable instances."""
    suite = {
        "counter": (
            "vars X\ninit_values X in {5}\n"
            "action Dec\n  pre X>0\n  dec X\naction Inc\n  inc X\ngoal X=0\n"
        ),
        "counter_dec_only": (
            "vars X\ninit_values X in {4}\naction Dec\n  pre X>0\n  dec X\ngoal X=0\n"
        ),
        "counter_interval": (
            "vars X\ninit_values X in [5,9]\n"
            "action Dec\n  pre X>0\n  dec X\naction Inc\n  inc X\ngoal X=0\n"
        ),
        "counter_zero_possible": (
            "vars X\ninit_values X in {0,3}\n"
            "action Dec\n  pre X>0\n  dec X\naction Inc\n  inc X\ngoal X=0\n"
        ),
        "counter_inc_only": (
            "vars X\ninit_values X in {3}\naction Inc\n  inc X\ngoal X=0\n"
        ),
        "counter_goal_positive": (
            "vars X\ninit_values X in {0,2}\n"
            "action Dec\n  pre X>0\n  dec X\naction Inc\n  inc X\ngoal X>0\n"
        ),
        "gated_counter": (
            "fluents armed\nvars N\ninit_values N in {6}\n"
            "action arm\n  add armed\n"
            "action fire\n  pre armed N>0\n  del armed\n  dec N\ngoal N=0\n"
        ),
        "blocks_clear": (
            "fluents holding\nvars n\ninit_values n in [1,50]\n"
            "action unstack_above\n  pre n>0 !holding\n  add holding\n  dec n\n"
            "action putdown\n  pre holding\n  del holding\ngoal n=0 !holding\n"
        ),
        "twovar": TWOVAR,
        "twovar_swap": (
            "vars X Y\ninit_values X in {3}\ninit_values Y in {3}\n"
            "action a\n  pre X>0\n  dec X\n  inc Y\n"
            "action b\n  pre Y>0\n  dec Y\n  inc X\ngoal X=0 Y=0\n"
        ),
        "twovar_no_drain": (
            "vars X Y\ninit_values X in {2}\ninit_values Y in {2}\n"
            "action a\n  pre X>0\n  dec X\ngoal X=0 Y=0\n"
        ),
        "threevar_chain": (
            "vars X Y Z\ninit_values X in {3}\ninit_values Y in {2}\ninit_values Z in {2}\n"
            "action a\n  pre X>0\n  dec X\n  inc Y\n"
            "action b\n  pre Y>0\n  dec Y\n  inc Z\n"
            "action c\n  pre Z>0\n  dec Z\ngoal X=0 Y=0 Z=0\n"
        ),
    }
    return {name: parse_qnp(text) for name, text in suite.items()}


@criterion(4, "cross-engine agreement", 120)
def test_criterion_4_cross_engine():
    suite = _qnp_suite()
    assert len(suite) >= 10
    expected_unsolvable = {"counter_inc_only", "twovar_swap", "twovar_no_drain"}
    for name, q in suite.items():
        closed = close_qnp(q)
        pc = syntactic_projection(closed).fondp
        plan = strong_cyclic_plan(pc)
        plannable = plan != UNSOLVABLE

        po = syntactic_projection(q).fondp
        cv = conjoin(qnp_constraints(q.variables))
        res = synthesize(po, cv)
        assert plannable == res.realizable, (
            f"{name}: planner={'SOLVABLE' if plannable else 'UNSOLVABLE'} "
            f"synthesis={'REALIZABLE' if res.realizable else 'UNREALIZABLE'}"
        )
        assert plannable == (name not in expected_unsolvable), name
        if plannable:
            assert verify_strong_cyclic(pc, plan).kind == "FAIR_SOLUTION", name
            verdict = check_solution(po, res.policy, Under(cv))
            assert verdict.kind == "SOLVES_UNDER_CONSTRAINT", name
            # the fair policy also solves the closed projection given the
            # constraints (the content of the commitment transformation)
            closed_verdict = check_solution(pc, plan, Under(cv))
            assert closed_verdict.kind == "SOLVES_UNDER_CONSTRAINT", name


def sieve_terminates(p, mu, variables):
    """SIEVE (Srivastava, Zilberstein, Immerman & Geffner, AAAI 2011) on the
    goal-free policy graph of ``mu`` on ``p``: repeatedly remove the edges
    that decrement a variable which no edge of their strongly connected
    component increments; ``mu`` terminates iff no cycle is left."""
    prod = _policy_product(p, mu)
    reach = _goal_free_region(p, prod)
    effects = p.annotations.get("action_effects", {})

    def tags(i, effect):
        return {v for v in variables if effects.get(prod.act[i], {}).get(v) == effect}

    edges = {(i, j) for i in reach for j in prod.succ[i] if j in reach}
    while True:
        succ = {}
        for i, j in sorted(edges):
            succ.setdefault(i, []).append(j)
        cut, cyclic = set(), False
        for comp in graph.sccs(sorted(reach), lambda i: succ.get(i, [])):
            inside = {(i, j) for i, j in edges if i in comp and j in comp}
            cyclic = cyclic or bool(inside)
            inc = set().union(*(tags(i, "inc") for i, _ in inside))
            cut |= {(i, j) for i, j in inside if tags(i, "dec") - inc}
        if not cut:
            return not cyclic
        edges -= cut


def sieve_experiment():
    """For the planner's policy on the closed and the open projection of
    each suite QNP: (QNP, projection, FAIR solution, SIEVE-terminating,
    solves under qnp(V)); a QNP the planner finds unsolvable gets None
    for the three verdicts."""
    rows = []
    for name, q in sorted(_qnp_suite().items()):
        cv = conjoin(qnp_constraints(q.variables))
        for tag, qq in (("closed", close_qnp(q)), ("open", q)):
            p = syntactic_projection(qq).fondp
            plan = strong_cyclic_plan(p)
            if plan == UNSOLVABLE:
                rows.append((name, tag, None, None, None))
                continue
            fair = check_solution(p, plan, FAIR).kind == "FAIR_SOLUTION"
            sieve = sieve_terminates(p, plan, sorted(q.variables))
            under = check_solution(p, plan, Under(cv)).is_solution
            rows.append((name, tag, fair, sieve, under))
    return rows


def test_fair_and_sieve_terminating_iff_solves_under_qnp():
    """The termination proviso of the abstract as a constraint: a planner
    policy is a FAIR solution that SIEVE finds terminating iff it solves
    its projection under qnp(V) for the QNP's variables V."""
    rows = sieve_experiment()
    assert sum(fair is not None for _, tag, fair, _, _ in rows if tag == "closed") == 9
    for name, tag, fair, sieve, under in rows:
        if fair is not None:
            assert (fair and sieve) == under, (name, tag, fair, sieve, under)
    # a fair policy that alternates Dec and Inc forever fails both
    p = syntactic_projection(_qnp_suite()["counter"]).fondp
    toggle = Policy(
        memory_states=("m0", "m1"),
        initial="m0",
        update={("m0", "X>0"): "m1", ("m1", "X>0"): "m0"},
        output={("m0", "X>0"): "Dec", ("m1", "X>0"): "Inc"},
    )
    assert check_solution(p, toggle, FAIR).kind == "FAIR_SOLUTION"
    assert not sieve_terminates(p, toggle, ["X"])
    assert not check_solution(p, toggle, Under(qnp_constraint("X"))).is_solution


# ---------------------------------------------------------------------------
# 5. Parity solver versus brute force
# ---------------------------------------------------------------------------


@criterion(5, "parity-solver oracle", 10)
def test_criterion_5_parity_oracle():
    rng = random.Random(4242)
    for trial in range(200):
        g = rand_game(rng, max_nodes=8, max_priority=3)
        sol = solve_parity(g)
        w0 = brute_force_winning(g, CONTROLLER)
        w1 = brute_force_winning(g, ENVIRONMENT)
        z0 = {v for v in g.nodes if sol.region[v] == CONTROLLER}
        assert z0 == w0, f"game {trial}: controller regions differ"
        assert set(g.nodes) - z0 == w1, f"game {trial}: determinacy violated"
        assert verify_strategy(g, sol, CONTROLLER), trial
        assert verify_strategy(g, sol, ENVIRONMENT), trial


@criterion(5, "generalized parity-solver oracle", 30)
def test_criterion_5_generalized_parity_oracle():
    """Two priority entries per node, as in the synthesis game over two
    conjunct automata: the controller wins where some entry's maximum is
    even.  Its region matches the enumeration of its positional
    strategies, and its strategy wins there.  (The environment may need
    memory, so its region is checked as the complement.)"""
    rng = random.Random(4242)
    for trial in range(200):
        g = rand_game(rng, max_nodes=8, max_priority=3, entries=2)
        sol = solve_parity(g)
        z0 = {v for v in g.nodes if sol.region[v] == CONTROLLER}
        assert z0 == brute_force_winning(g, CONTROLLER), f"game {trial}: regions differ"
        assert set(sol.region) == set(g.nodes), trial
        assert verify_strategy(g, sol, CONTROLLER), trial


# ---------------------------------------------------------------------------
# 6. LTL pipeline property suite
# ---------------------------------------------------------------------------


@criterion(6, "LTL pipeline property suite", 120)
def test_criterion_6_pipeline_suite():
    rng = random.Random(60606)
    checks = 0
    for i in range(1000):
        k = rng.choice([2, 3, 4])
        letters = ["a", "b", "c", "d"][:k]
        sigma = frozenset(letters)
        f = rand_formula(rng, 4, letters)
        nba = ltl_to_nba(f, sigma)
        dpw = nba_to_dpw(nba)
        for _ in range(100):
            w = rand_word(rng, letters, 6, 6)
            expected = eval_lasso(f, w, sigma)
            assert nba_accepts_lasso(nba, w) == expected, (L.pretty(f), w)
            assert dpw_accepts(dpw, w) == expected, (L.pretty(f), w)
            checks += 1
    assert checks == 100000


# ---------------------------------------------------------------------------
# 7. Projection transfer properties on sampled instances
# ---------------------------------------------------------------------------


@criterion(7, "projection transfer properties", 60)
def test_criterion_7_projection_transfer():
    rng = random.Random(777)

    # twenty members: ten counters, ten two-variable instances
    counters = [concrete_counter(x0, bound=x0 + 3) for x0 in range(1, 11)]
    q2 = parse_qnp(TWOVAR)
    twovars = []
    for _ in range(10):
        x0, y0 = rng.randint(1, 4), rng.randint(1, 4)
        qi = Qnp(
            fluents=q2.fluents,
            init_fluents=q2.init_fluents,
            actions=q2.actions,
            goal=q2.goal,
            variables=q2.variables,
            init_values={
                "X": InitDescriptor(kind="set", values=(Fraction(x0),)),
                "Y": InitDescriptor(kind="set", values=(Fraction(y0),)),
            },
            semantics=q2.semantics,
        )
        twovars.append(instantiate(qi, {"X": x0, "Y": y0}, bound=10))

    families = [
        (infer_class(counters), [qnp_constraint("X")],
         [Policy.memoryless({POS: "Dec"}), Policy.memoryless({POS: "Dec", ZERO: "Inc"})]),
        (infer_class(twovars), [conjoin(qnp_constraints(["X", "Y"]))],
         [Policy.memoryless({"X>0,Y=0": "a", "X>0,Y>0": "b", "X=0,Y>0": "b"})]),
    ]
    for cls, constraints, policies in families:
        po = observation_projection(cls)
        # correspondence on random projection-valid policies: the
        # policy is valid for every member (no unavailable-action failure),
        # goal reaching transfers through the observation image, and the
        # image is a policy trajectory of the projection
        for trial in range(30):
            mapping = {}
            for obs in sorted(po.observations):
                options = sorted(po.avail.get(obs, ()))
                if options and rng.random() < 0.8:
                    mapping[obs] = rng.choice(options)
            mu = Policy.memoryless(mapping)
            member = cls.members[rng.randrange(len(cls.members))]
            t = run_policy(member, mu, resolver=SeededResolver(trial), max_steps=40)
            lifted = lift_trajectory(member, t)
            assert is_goal_reaching(member, t) == is_goal_reaching(po, lifted)
            if not getattr(t, "truncated", False):
                assert is_generated_by(po, mu, lifted)
        # transfer of constrained solutions for the designated policies
        for c in constraints:
            for mu in policies:
                if check_solution(po, mu, Under(c)).is_solution:
                    for member in cls.members:
                        v = check_solution(member, mu, Under(c))
                        assert v.is_solution, (member.init, c.name)
