#!/usr/bin/env python3
"""Self-tests of the benchmark itself (not of genplan).

    python3 perfbench/selftest.py

1. One seed always yields byte-identical inputs, and another seed does not.
2. The answer checker accepts genplan's own counterexamples and policies,
   and rejects each tampered copy of them.

Exits 1 on the first failed expectation.
"""

from __future__ import annotations

import copy
import io
import json
import os
import random
import shutil
import sys
from contextlib import redirect_stdout

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402
from check import replay_on_problem, replay_witness  # noqa: E402
from qnpsem import concrete_problem, simulate_policy  # noqa: E402
from run import WORK_ROOT, tree_digest  # noqa: E402


def expect(cond, what):
    if not cond:
        print(f"FAIL {what}")
        sys.exit(1)
    print(f"ok   {what}")


def inputs_digest(workload, seed, work):
    shutil.rmtree(work, ignore_errors=True)
    workloads.materialize(workloads.plan_workload(workload, seed), work)
    return tree_digest(work)


def test_inputs_are_deterministic(work):
    for w in workloads.WORKLOADS:
        a = inputs_digest(w, 7, os.path.join(work, "a"))
        b = inputs_digest(w, 7, os.path.join(work, "b"))
        c = inputs_digest(w, 8, os.path.join(work, "c"))
        expect(a == b, f"{w}: seed 7 twice gives byte-identical inputs")
        expect(a != c, f"{w}: seeds 7 and 8 give different inputs")


def genplan(argv):
    from genplan.cli import main

    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, json.loads(buf.getvalue())


def test_witness_replay(work):
    rng = random.Random(0)
    spec, prefer = workloads.seeded_spec("chain2", rng, "chain2", init_kind="full")
    problem = concrete_problem(spec, 6)
    policy = workloads.canonical_policy(spec, prefer)
    os.makedirs(work, exist_ok=True)
    p_path, mu_path = os.path.join(work, "p.json"), os.path.join(work, "mu.json")
    for doc, path in ((problem, p_path), (policy, mu_path)):
        with open(path, "w") as fh:
            json.dump(doc, fh)

    code, report = genplan(["verify", "--mode", "strong", p_path, mu_path])
    lasso = report["counterexample"]
    expect(code == 1 and lasso["kind"] == "lasso", "genplan refutes strong with a lasso")
    expect(replay_witness(problem, policy, lasso, fair=False) is None, "the real lasso replays")

    goal = problem["goal_states"][0]
    some_action = problem["actions"][0]
    tampered = {
        "an action the policy does not pick": ("cycle_actions", 0, some_action
                                               if some_action != lasso["cycle_actions"][0]
                                               else problem["actions"][1]),
        "a goal state in the cycle": ("cycle_states", 0, goal),
        "an illegal transition": ("cycle_states", -1, problem["states"][-1]),
    }
    for what, (key, i, value) in tampered.items():
        w = copy.deepcopy(lasso)
        if not w[key] or w[key][i] == value:
            w[key].append(value)
        else:
            w[key][i] = value
        expect(replay_witness(problem, policy, w, fair=False) is not None,
               f"a lasso with {what} is rejected")
    w = copy.deepcopy(lasso)
    w["prefix_states"] = [s for s in problem["states"] if s not in problem["init"]][:1]
    w["prefix_actions"] = w["cycle_actions"][:1]
    expect(replay_witness(problem, policy, w, fair=False) is not None,
           "a lasso that does not start in an initial state is rejected")
    expect(replay_witness(problem, policy, lasso, fair=True) is not None,
           "a stalling strong-mode lasso is rejected as a fair counterexample")

    # fair lasso: genplan's covers every outcome; dropping a step breaks that
    fair_spec, fair_prefer = workloads.seeded_spec("swap2", rng, "swap2", init_kind="full")
    fair_problem = concrete_problem(fair_spec, 4)
    fair_policy = workloads.canonical_policy(fair_spec, fair_prefer)
    for doc, path in ((fair_problem, p_path), (fair_policy, mu_path)):
        with open(path, "w") as fh:
            json.dump(doc, fh)
    code, report = genplan(["verify", "--mode", "fair", p_path, mu_path])
    lasso = report["counterexample"]
    expect(code == 1 and lasso["kind"] == "lasso", "genplan refutes fair with a lasso")
    expect(replay_witness(fair_problem, fair_policy, lasso, fair=True) is None,
           "the real fair lasso replays")
    cut = copy.deepcopy(lasso)
    cut["cycle_states"], cut["cycle_actions"] = cut["cycle_states"][:1], cut["cycle_actions"][:1]
    expect(replay_witness(fair_problem, fair_policy, cut, fair=True) is not None,
           "a shortened fair lasso is rejected")

    # policies: the canonical one reaches the goal, a tampered one does not
    expect(replay_on_problem(problem, policy, random.Random(1)) is None,
           "a solving policy replays to the goal")
    bad = copy.deepcopy(policy)
    bad["output"] = bad["output"][1:]
    expect(replay_on_problem(problem, bad, random.Random(1)) is not None,
           "a policy with a missing choice is rejected")
    expect(simulate_policy(spec, bad, (3, 3), 1000) is not None,
           "the same policy fails on the unit-semantics member")


def main():
    work = os.path.join(WORK_ROOT, f"selftest-{os.getpid()}")
    try:
        test_inputs_are_deterministic(work)
        test_witness_replay(os.path.join(work, "witness"))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
