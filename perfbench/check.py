"""The benchmark's answer checker.

Every request is checked against the verdict its generator fixed, and
every witness genplan prints is replayed here against the input files,
with no genplan code involved:

* a counterexample must start in an initial state, take only legal
  transitions, take exactly the policy's action at each step, stay
  goal-free, and (for a lasso) close its cycle in both state and policy
  memory; a fair-mode lasso must also show every outcome of each of its
  cycle's transitions;
* every policy that ``synthesize`` or ``plan`` writes is run on concrete
  members until it reaches the goal;
* ``qnp2fond`` and ``project`` outputs must equal the abstraction and the
  projection the benchmark computed itself.
"""

from __future__ import annotations

import itertools
import json
import os
import random

from qnpsem import close, init_values, simulate_policy

REPLAY_STEPS = 100_000
REPLAY_STARTS = 8
SAMPLE_CAP = 60


class Answers:
    """Checks request results; caches the input files it reads."""

    def __init__(self, plan, work):
        self.plan = plan
        self.work = work
        self._docs = {}

    def _input(self, rel):
        if rel not in self._docs:
            with open(os.path.join(self.work, rel)) as fh:
                self._docs[rel] = json.load(fh)
        return self._docs[rel]

    def check(self, req, res, out):
        """None if the result is right, else a one-line reason."""
        if res["status"] != 0:
            return f"request process failed (status {res['status']})"
        if res["exit"] != req.exit:
            return f"exit {res['exit']}, expected {req.exit}"
        try:
            report = json.loads(res["stdout"])
        except ValueError:
            return "report is not JSON"
        try:
            return getattr(self, "_" + req.kind)(req, report, output_path(req, out))
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            return f"malformed answer: {type(exc).__name__}: {exc}"

    def _qnp2fond(self, req, report, out_path):
        return self._same_graph(out_path, req.expect_states, report["states"])

    _project = _qnp2fond

    def _same_graph(self, out_path, expected_rel, reported_states):
        with open(out_path) as fh:
            got = json.load(fh)
        want = self._input(expected_rel)
        for key in ("states", "init", "goal_states"):
            if sorted(got[key]) != want[key]:
                return f"{key} differ from the benchmark's own construction"
        succ = {k: sorted(v) for k, v in got["succ"].items()}
        if succ != want["succ"]:
            return "transitions differ from the benchmark's own construction"
        if reported_states != len(want["states"]):
            return "reported state count is wrong"
        return None

    def _synthesize(self, req, report, out_path):
        if req.exit == 1:
            return None if report.get("realizable") is False else "not reported unrealizable"
        if report.get("realizable") is not True:
            return "not reported realizable"
        if report["verification"]["verdict"] != req.verdict:
            return f"self-check verdict {report['verification']['verdict']}"
        return self._replay_on_qnp(req, out_path)

    def _plan(self, req, report, out_path):
        if req.exit == 1:
            return None if report.get("reason") == "UNSOLVABLE" else "not reported unsolvable"
        if report["verification"]["verdict"] != req.verdict:
            return f"self-check verdict {report['verification']['verdict']}"
        if req.problem is not None:
            with open(out_path) as fh:
                policy = json.load(fh)
            return replay_on_problem(self._input(req.problem), policy, random.Random(req.id))
        return self._replay_on_qnp(req, out_path)

    def _verify(self, req, report, out_path):
        policy = self._input(req.policy)
        if req.exit == 0:
            if report["verdict"] != req.verdict:
                return f"verdict {report['verdict']}, expected {req.verdict}"
            if req.closed:
                return self._replay_on_qnp(req, os.path.join(self.work, req.policy))
            return replay_on_problem(self._input(req.problem), policy, random.Random(req.id))
        if report["verdict"] != "NOT_A_SOLUTION":
            return f"verdict {report['verdict']}"
        fair = "fair" in req.argv
        return replay_witness(self._input(req.problem), policy, report["counterexample"], fair)

    def _replay_on_qnp(self, req, policy_path):
        spec = self.plan.specs[req.spec]
        with open(policy_path) as fh:
            policy = json.load(fh)
        member = close(spec) if req.closed else spec
        for values in sample_starts(spec):
            why = simulate_policy(member, policy, values, REPLAY_STEPS)
            if why is not None:
                return why
        return None


def output_path(req, out):
    """The file a request writes with -o in the pass directory ``out``."""
    if "-o" not in req.argv:
        return None
    return req.argv[req.argv.index("-o") + 1].replace("{out}", out)


def sample_starts(spec):
    """Initial valuations to replay from: the least and the largest value
    each descriptor allows (up to SAMPLE_CAP), in every combination."""
    options = []
    for v in spec.variables:
        vals = init_values(spec, v, SAMPLE_CAP) or [SAMPLE_CAP]
        options.append(sorted({vals[0], vals[-1]}))
    return list(itertools.product(*options))


def replay_on_problem(problem, policy, rng):
    """Run a policy on an explicit problem from a few initial states,
    resolving outcomes at random, until every run reaches the goal."""
    output = {(m, o): a for m, o, a in policy["output"]}
    update = {(m, o): m2 for m, o, m2 in policy.get("update", [])}
    goal = set(problem["goal_states"])
    inits = sorted(problem["init"])
    for s in rng.sample(inits, min(REPLAY_STARTS, len(inits))):
        m = policy["initial"]
        for _ in range(REPLAY_STEPS):
            if s in goal:
                break
            o = problem["obs"][s]
            a = output.get((m, o))
            if a is None:
                return f"policy stops at {s} before the goal"
            targets = problem["succ"].get(f"{a}|{s}")
            if targets is None:
                return f"policy picks unavailable {a} at {s}"
            m = update.get((m, o), m)
            s = rng.choice(targets)
        else:
            return f"goal not reached within {REPLAY_STEPS} steps"
    return None


def replay_witness(problem, policy, w, fair):
    """None if ``w`` is a genuine counterexample for ``policy`` on
    ``problem``, else why not."""
    output = {(m, o): a for m, o, a in policy["output"]}
    update = {(m, o): m2 for m, o, m2 in policy.get("update", [])}
    succ, obs = problem["succ"], problem["obs"]
    goal = set(problem["goal_states"])
    if w["kind"] == "finite":
        states, actions = w["states"], w["actions"]
        cycle_at = None
    else:
        states = w["prefix_states"] + w["cycle_states"] + w["cycle_states"][:1]
        actions = w["prefix_actions"] + w["cycle_actions"]
        cycle_at = len(w["prefix_states"])
        if not w["cycle_states"] or len(w["cycle_states"]) != len(w["cycle_actions"]):
            return "lasso cycle is empty or unbalanced"
    if len(states) != len(actions) + 1:
        return "witness does not alternate states and actions"
    if states[0] not in problem["init"]:
        return f"witness starts in {states[0]}, not an initial state"
    if any(s in goal for s in states):
        return "witness visits a goal state"
    m = policy["initial"]
    cycle_memory = None
    for i, a in enumerate(actions):
        s = states[i]
        if i == cycle_at:
            cycle_memory = m
        if output.get((m, obs[s])) != a:
            return f"step {i}: the policy does not pick {a} at {s}"
        if states[i + 1] not in succ.get(f"{a}|{s}", ()):
            return f"step {i}: {states[i + 1]} is not a successor of {a} at {s}"
        m = update.get((m, obs[s]), m)
    if cycle_at is None:
        last = states[-1]
        a = output.get((m, obs[last]))
        if a is not None and f"{a}|{last}" in succ:
            return "finite witness ends where the policy can still act"
        return None
    if m != cycle_memory:
        return "lasso cycle does not close in the policy's memory"
    if fair:
        seen = {}
        cyc_s, cyc_a = w["cycle_states"], w["cycle_actions"]
        for i, (s, a) in enumerate(zip(cyc_s, cyc_a)):
            seen.setdefault((s, a), set()).add(cyc_s[(i + 1) % len(cyc_s)])
        for (s, a), outs in seen.items():
            if outs != set(succ[f"{a}|{s}"]):
                return f"fair lasso misses outcomes of {a} at {s}"
    return None
