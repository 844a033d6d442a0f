"""Digest every CLI artifact of the benchmark workloads at one seed.

    PYTHONPATH=src python tests/artifact_digest.py SEED [WORKLOAD ...] > digest.txt

Builds each workload of ``perfbench/workloads.py`` (all three by default)
in a temporary directory and runs its requests in this process, each
with its own output directory.  Prints one line per request: workload,
request id, exit code, the sha1 of its stdout (directory names replaced
by placeholders), ``cx=N`` when stdout is a JSON report with a
counterexample of N steps (actions, prefix and cycle together for a
lasso), ``name=sha1`` for each file it wrote, followed by
``memory=N`` after a policy file with N memory states, ``form=sha1`` for
each problem ``model.pondp_from_json_dict`` decoded (its `Numbered` form
and its diagnostics), ``nba=sha1`` for each automaton
``ltl.ltl_to_nba`` returned, these two in call order, and a
behaviour entry for each ``omega.synthesize`` call: ``synth=0`` when it
found no policy, otherwise ``synth=1`` and the policy with its memory
states renamed m0, m1, ... in first-visit order (observations in ``str``
order), as ``{observation: action}`` when it is memoryless and as
``memory|observation>action>memory`` entries when not, then ``game=N``
for the N nodes of its parity game, ``region=sha1`` of its winning
regions (the (node, player) pairs sorted by ``repr``), and ``dpw=S/P``
for each of its automata, in conjunct order: the S states it built and
the P distinct priorities among them.  Diffing the output of two
checkouts shows which artifacts and automata a change touched, how the
size of each counterexample, each written policy, each synthesis game
and each game automaton moved, which decoded problems number or diagnose
differently, which policies behave differently rather than only name
their memory differently, and whether a solver change that moves raw
strategies left the winning regions alone.
Standard library only; no test collects this file.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "perfbench"))

import workloads  # noqa: E402

from genplan import cli, ltl, model, omega  # noqa: E402
from genplan.cli import main  # noqa: E402

RECORDS = []


def sha1(data):
    return hashlib.sha1(data).hexdigest()


def recorded_ltl_to_nba(*args, **kwargs):
    """``ltl.ltl_to_nba``, appending the sha1 of each NBA it returns to RECORDS."""
    nba = translate(*args, **kwargs)
    text = repr((
        nba.states, sorted(nba.transitions.items()), sorted(nba.initial),
        sorted(nba.accepting), sorted(nba.alphabet),
    ))
    RECORDS.append(f"nba={sha1(text.encode())}")
    return nba


translate, ltl.ltl_to_nba = ltl.ltl_to_nba, recorded_ltl_to_nba


def recorded_pondp_from_json_dict(doc):
    """``model.pondp_from_json_dict``, appending the sha1 of the decoded
    problem's numbered form and diagnostics to RECORDS."""
    p = decode(doc)
    RECORDS.append(f"form={sha1(repr(p._form).encode())}")
    return p


decode = model.pondp_from_json_dict
model.pondp_from_json_dict = cli.pondp_from_json_dict = recorded_pondp_from_json_dict


def behaviour(policy, observations):
    """The policy with its memory states renamed in first-visit order."""
    obs = sorted(observations, key=str)
    names = {policy.initial: "m0"}
    queue = [policy.initial]
    for m in queue:
        for o in obs:
            n = policy.next_memory(m, o)
            if n not in names:
                names[n] = f"m{len(names)}"
                queue.append(n)
    if len(names) == 1:
        out = {o: policy.output.get((policy.initial, o)) for o in obs}
        return json.dumps({o: a for o, a in out.items() if a is not None}, separators=(",", ":"))
    return ";".join(
        f"{names[m]}|{o}>{policy.output.get((m, o))}>{names[policy.next_memory(m, o)]}"
        for m in queue for o in obs
    )


def recorded_synthesize(p, *args, **kwargs):
    """``omega.synthesize``, appending its verdict, behaviour, game size,
    winning regions and automaton sizes to RECORDS."""
    result = synthesize(p, *args, **kwargs)
    if result.realizable:
        RECORDS.append(f"synth=1 {behaviour(result.policy, p.observations)}")
    else:
        RECORDS.append("synth=0")
    RECORDS.append(f"game={len(result.game.nodes)}")
    regions = sorted(result.solution.region.items(), key=repr)
    RECORDS.append(f"region={sha1(repr(regions).encode())}")
    RECORDS.extend(f"dpw={len(d.states)}/{len(set(d.priority.values()))}" for d in result.dpws)
    return result


synthesize, omega.synthesize = omega.synthesize, recorded_synthesize


def counterexample_steps(text):
    """``["cx=N"]`` for the N steps of the counterexample in the JSON
    report ``text``, or ``[]`` when it has none."""
    if not text.startswith("{"):
        return []
    cx = json.loads(text).get("counterexample")
    if cx is None:
        return []
    steps = cx["actions"] if cx["kind"] == "finite" else cx["prefix_actions"] + cx["cycle_actions"]
    return [f"cx={len(steps)}"]


def digest(workload, seed, root):
    plan = workloads.plan_workload(workload, seed)
    work = os.path.join(root, workload, "work")
    workloads.materialize(plan, work)
    for req in plan.requests:
        out = os.path.join(root, workload, "out", req.id)
        os.makedirs(out)
        argv = [a.replace("{work}", work).replace("{out}", out) for a in req.argv]
        buf = io.StringIO()
        RECORDS.clear()
        with contextlib.redirect_stdout(buf):
            code = main(argv)
        text = buf.getvalue().replace(out, "{out}").replace(work, "{work}")
        files = []
        for name in sorted(os.listdir(out)):
            with open(os.path.join(out, name), "rb") as fh:
                data = fh.read()
            files.append(f"{name}={sha1(data)}")
            if name.endswith((".policy.json", ".plan.json")):
                files.append(f"memory={len(json.loads(data)['memory_states'])}")
        print(workload, req.id, code, sha1(text.encode()), *counterexample_steps(text), *files,
              *RECORDS)


if __name__ == "__main__":
    seed = int(sys.argv[1])
    with tempfile.TemporaryDirectory() as root:
        for name in sys.argv[2:] or ["synth-ltl", "cross-engine", "plan-concrete"]:
            digest(name, seed, root)
