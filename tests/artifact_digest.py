"""Digest every CLI artifact of the benchmark workloads at one seed.

    PYTHONPATH=src python tests/artifact_digest.py SEED [WORKLOAD ...] > digest.txt

Builds each workload of ``perfbench/workloads.py`` (all three by default)
in a temporary directory and runs its requests in this process, each
with its own output directory.  Prints one line per request: workload,
request id, exit code, the sha1 of its stdout (directory names replaced
by placeholders), ``name=sha1`` for each file it wrote, followed by
``memory=N`` after a policy file with N memory states, and ``nba=sha1``
for each automaton ``ltl.ltl_to_nba`` returned, in call order.  Diffing
the output of two checkouts shows which artifacts and automata a change
touched and how the size of each written policy moved.
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

from genplan import ltl  # noqa: E402
from genplan.cli import main  # noqa: E402

NBAS = []


def sha1(data):
    return hashlib.sha1(data).hexdigest()


def recorded_ltl_to_nba(*args, **kwargs):
    """``ltl.ltl_to_nba``, appending the sha1 of each NBA it returns to NBAS."""
    nba = translate(*args, **kwargs)
    text = repr((
        nba.states, sorted(nba.transitions.items()), sorted(nba.initial),
        sorted(nba.accepting), sorted(nba.alphabet),
    ))
    NBAS.append(f"nba={sha1(text.encode())}")
    return nba


translate, ltl.ltl_to_nba = ltl.ltl_to_nba, recorded_ltl_to_nba


def digest(workload, seed, root):
    plan = workloads.plan_workload(workload, seed)
    work = os.path.join(root, workload, "work")
    workloads.materialize(plan, work)
    for req in plan.requests:
        out = os.path.join(root, workload, "out", req.id)
        os.makedirs(out)
        argv = [a.replace("{work}", work).replace("{out}", out) for a in req.argv]
        buf = io.StringIO()
        NBAS.clear()
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
        print(workload, req.id, code, sha1(text.encode()), *files, *NBAS)


if __name__ == "__main__":
    seed = int(sys.argv[1])
    with tempfile.TemporaryDirectory() as root:
        for name in sys.argv[2:] or ["synth-ltl", "cross-engine", "plan-concrete"]:
            digest(name, seed, root)
