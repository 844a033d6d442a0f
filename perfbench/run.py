#!/usr/bin/env python3
"""genplan benchmark: three seeded workloads through the ``genplan`` CLI.

    python3 perfbench/run.py --workload synth-ltl --seed 1 --seconds 30 --trace 0

Run from the repository root (the program is imported from ``src/``).  One
client runs a closed loop on one core: each request is one ``genplan``
invocation, forked from this process after everything is imported, and the
next request starts when it has exited.  The request list is run in passes
until ``--seconds`` would be exceeded (at least one pass).  Every answer is
checked after the timed passes.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics.  The last line
of standard output is the JSON result.  ``--write-spec`` rewrites
``BENCHMARK.json`` from the definitions below.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stdout

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(HERE, "_work")
TRACE_ROOT = os.path.join(HERE, "_out")
sys.path.insert(0, HERE)

import workloads  # noqa: E402  (needs HERE on the path)

RUN_SECONDS = 30
SETUP_ROUNDS = 3
REQUEST_TIMEOUT_S = 150
REQUEST_MEMORY_LIMIT = 3 << 30
TAIL_PERCENTILES = (99, 95, 90, 75, 50)

WORKLOAD_WHY = {
    "synth-ltl": "LTL-text constraints force tableau, Safra and parity game; one large "
                 "determinization (twovar) carries the time",
    "cross-engine": "criterion-4 flow: both engines must agree; the time is many small "
                    "per-conjunct determinizations inside check_solution(Under)",
    "plan-concrete": "concrete members of a few thousand states: fond, model and projection "
                     "carry the time; ltl, omega and constraints never run",
}

END_TO_END = (
    ("wall_s", "s", "lower", 0.25),
    ("request_p50_ms", "ms", "lower", 0.25),
    ("request_tail_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("pass_rate", "ratio", "higher", 0.01),
    ("policy_memory", "count", "lower", 0.15),
    ("setup_s", "s", "lower", 0.25),
)

SIZE_COUNTS = (
    ("ltl.nba_states", "ltl.ltl_to_nba", "nba_states"),
    ("omega.dpw_states_raw", "omega.quotient_dpw", "dpw_states_raw"),
    ("omega.dpw_states", "omega.nba_to_dpw", "dpw_states"),
    ("omega.dpw_priorities", "omega.nba_to_dpw", "dpw_priorities"),
    ("omega.game_nodes", "omega.build_parity_game", "game_nodes"),
    ("omega.game_edges", "omega.build_parity_game", "game_edges"),
    ("fond.problem_states", "fond.strong_cyclic_plan", "problem_states"),
    ("projection.member_transitions", "projection.project", "member_transitions"),
)


def _span_names():
    from spans import WRAPPED

    names = []
    for mod, funcs in WRAPPED.items():
        for f in funcs:
            if f == "check_solution":
                names += [f"model.check_solution.{m}" for m in ("under", "fair", "strong")]
            else:
                names.append(f"{mod}.{f}")
    return names


def per_layer_metrics():
    from spans import WRAPPED

    out = [(f"{n}.self_s", "s") for n in _span_names()]
    out += [(f"{mod}.{f}.calls", "count") for mod, fs in WRAPPED.items() for f in fs]
    out += [(name, "count") for name, _, _ in SIZE_COUNTS]
    out += [("constraints.dpw_builds", "count"), ("constraints.dpw_builds_distinct", "count")]
    out += [(f"cli.exit_{c}", "count") for c in (0, 1, 2)]
    out.append(("trace_overhead_s", "s"))
    return out


def spec_document():
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w, "why": WORKLOAD_WHY[w]} for w in workloads.WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": "lower"} for n, u in per_layer_metrics()
        ],
    }


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------


def setup_inputs(workload, seed, work):
    """One set-up round, run in a fresh interpreter: import genplan, write
    the inputs, warm up.  Prints nothing."""
    sys.path.insert(0, SRC)
    plan = workloads.plan_workload(workload, seed)
    workloads.materialize(plan, work)
    warm_up(os.path.join(work, "warmup"))


def warm_up(work):
    """Run every command once on a one-variable counter, so lazy imports and
    caches are filled before requests are forked."""
    from genplan.cli import main as cli_main

    spec = workloads.SUITE["counter"]
    os.makedirs(work, exist_ok=True)
    q = os.path.join(work, "counter.qnp")
    with open(q, "w") as fh:
        fh.write(spec.text())

    def f(name):
        return os.path.join(work, name)

    calls = [
        ["qnp2fond", q, "-o", f("open.json")],
        ["qnp2fond", q, "--close", "-o", f("closed.json")],
        ["synthesize", f("open.json"), "--constraint", "qnp(X)", "-o", f("p.json")],
        ["synthesize", f("open.json"), "--constraint", 'G F "X=0"', "-o", f("p2.json")],
        ["plan", f("closed.json"), "-o", f("plan.json")],
        ["verify", "--mode", "fair", f("closed.json"), f("plan.json")],
        ["verify", "--mode", "strong", f("closed.json"), f("plan.json")],
        ["verify", "--mode", "constraint", f("closed.json"), f("plan.json"), "qnp(X)"],
    ]
    with redirect_stdout(io.StringIO()):
        for argv in calls:
            cli_main(argv)
        with open(f("open.json")) as fh:
            member = json.load(fh)
        with open(f("class.json"), "w") as fh:
            json.dump({"members": [member]}, fh)
        cli_main(["project", f("class.json"), "-o", f("proj.json")])


def tree_digest(path):
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(path):
        dirnames.sort()
        for name in sorted(filenames):
            full = os.path.join(dirpath, name)
            h.update(os.path.relpath(full, path).encode())
            with open(full, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def run_setup(workload, seed, work):
    """SETUP_ROUNDS fresh-interpreter set-ups; returns (seconds per round,
    whether every round wrote byte-identical inputs)."""
    times, digests = [], []
    for k in range(SETUP_ROUNDS):
        d = os.path.join(work, f"setup{k}")
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-only", "--workload", workload,
             "--seed", str(seed), "--work", d],
            check=True, stdin=subprocess.DEVNULL,
        )
        times.append(time.perf_counter() - t0)
        digests.append(tree_digest(d))
    return times, len(set(digests)) == 1


# ---------------------------------------------------------------------------
# Requests
# ---------------------------------------------------------------------------


def run_request(req, work, out, tracer):
    """Fork one request; returns its exit code, seconds, stdout, peak RSS."""
    from genplan import cli  # looked up per call: the tracer rebinds cli.main
    argv = [a.replace("{work}", work).replace("{out}", out) for a in req.argv]
    result_path = os.path.join(out, f"{req.id}.result.json")
    pid = os.fork()
    if pid == 0:  # the request process
        status = 0
        try:
            signal.alarm(REQUEST_TIMEOUT_S)
            resource.setrlimit(resource.RLIMIT_AS, (REQUEST_MEMORY_LIMIT, REQUEST_MEMORY_LIMIT))
            if tracer is not None:
                tracer.request = req.id
            buf = io.StringIO()
            t0 = time.perf_counter()
            with redirect_stdout(buf):
                try:
                    code = cli.main(argv)
                except SystemExit as exc:
                    code = exc.code if isinstance(exc.code, int) else 2
            seconds = time.perf_counter() - t0
            doc = {"exit": code, "seconds": seconds, "stdout": buf.getvalue(),
                   "spans": tracer.spans if tracer is not None else []}
            with open(result_path, "w") as fh:
                json.dump(doc, fh)
        except BaseException:
            traceback.print_exc()
            status = 70
        finally:
            os._exit(status)
    _, wait_status, usage = os.wait4(pid, 0)
    status = os.waitstatus_to_exitcode(wait_status)
    # a request that did not finish counts as taking the whole timeout
    res = {"status": status, "exit": None, "seconds": float(REQUEST_TIMEOUT_S), "stdout": "",
           "spans": [], "rss_mb": usage.ru_maxrss / 1024}
    if status == 0:
        with open(result_path) as fh:
            res.update(json.load(fh))
        os.remove(result_path)
    return res


def run_pass(plan, work, out, tracer):
    os.makedirs(out, exist_ok=True)
    if tracer is not None:
        tracer.install()
    try:
        t0 = time.perf_counter()
        results = [run_request(req, work, out, tracer) for req in plan.requests]
        wall = time.perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.uninstall()
    return {"wall": wall, "results": results, "out": out, "traced": tracer is not None}


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def tail_percentile(n):
    """Highest percentile in TAIL_PERCENTILES with at least ten of ``n``
    samples beyond it."""
    for p in TAIL_PERCENTILES:
        if n * (100 - p) / 100 >= 10:
            return p
    return 50


def policy_memory(plan, run):
    """Memory states of the policies written by successful synthesize and
    plan requests in one pass."""
    from check import output_path

    total = 0
    for req, res in zip(plan.requests, run["results"]):
        if req.kind in ("synthesize", "plan") and res["exit"] == 0:
            with open(output_path(req, run["out"])) as fh:
                total += len(json.load(fh)["memory_states"])
    return total


def layer_metrics(run):
    from spans import self_times

    spans = []
    for res in run["results"]:
        base = len(spans)
        for s in res["spans"]:
            s = dict(s)
            if s["parent"] is not None:
                s["parent"] += base
            spans.append(s)
    selfs = self_times(spans)
    m = {name: 0.0 for name, _ in per_layer_metrics()}
    for s, t in zip(spans, selfs):
        m[s["name"] + ".self_s"] += t
        fn = s["name"]
        if fn.startswith("model.check_solution."):
            fn = "model.check_solution"
        m[fn + ".calls"] += 1
    for metric, fn, key in SIZE_COUNTS:
        m[metric] = sum(s[key] for s in spans if s["name"] == fn)
    for c in (0, 1, 2):
        m[f"cli.exit_{c}"] = sum(1 for s in spans if s["name"] == "cli.main" and s["exit"] == c)
    builds = [s["formula"] for s in under_search(spans, "ltl.ltl_to_nba")]
    m["constraints.dpw_builds"] = len(builds)
    m["constraints.dpw_builds_distinct"] = len(set(builds))
    return m, spans


def under_search(spans, name):
    from spans import ancestors

    return [
        s for i, s in enumerate(spans)
        if s["name"] == name and "constraints.counterexample_search" in ancestors(spans, i)
    ]


def inclusive_shares(spans):
    """For each span name, the share of all request time (cli.main spans)
    spent inside spans of that name, counting nested same-name spans once."""
    from spans import ancestors

    total = sum(s["end"] - s["start"] for s in spans if s["name"] == "cli.main")
    shares = {}
    for i, s in enumerate(spans):
        if s["name"] != "cli.main" and s["name"] not in ancestors(spans, i):
            shares[s["name"]] = shares.get(s["name"], 0.0) + (s["end"] - s["start"]) / total
    return sorted(shares.items(), key=lambda kv: -kv[1])


def baseline_counts(plan, spans):
    """Per-request size counts for the requests the README quotes."""
    lines = []
    by_request = {}
    for s in spans:
        by_request.setdefault(s["request"], []).append(s)
    for req in plan.requests:
        if req.id not in ("twovar.synthesize.weak", "twovar.synthesize.strong"):
            continue
        own = by_request.get(req.id, [])
        top = [s for s in own if s["name"] == "omega.synthesize"]
        if not top:
            continue
        lo, hi = top[0]["start"], top[0]["end"]
        inside = [s for s in own if lo <= s["start"] and s["end"] <= hi]

        def first(name, key):
            return next((s[key] for s in inside if s["name"] == name), None)

        lines.append(
            f"baseline {req.id}: nba_states={first('ltl.ltl_to_nba', 'nba_states')} "
            f"dpw_states_raw={first('omega.quotient_dpw', 'dpw_states_raw')} "
            f"dpw_states={first('omega.nba_to_dpw', 'dpw_states')} "
            f"dpw_priorities={first('omega.nba_to_dpw', 'dpw_priorities')} "
            f"game_nodes={first('omega.build_parity_game', 'game_nodes')}"
        )
    if plan.name == "cross-engine":
        suite_ids = {r.id for r in plan.requests if r.group == "suite"}
        builds = [s["formula"] for s in under_search(spans, "ltl.ltl_to_nba")
                  if s["request"] in suite_ids]
        lines.append(
            f"baseline criterion-4 suite: conjunct DPW builds={len(builds)} "
            f"distinct={len(set(builds))}"
        )
    return lines


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-spec", action="store_true", help="rewrite BENCHMARK.json")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--work", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.write_spec:
        with open(os.path.join(ROOT, "BENCHMARK.json"), "w") as fh:
            json.dump(spec_document(), fh, indent=2)
            fh.write("\n")
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    if not os.path.isfile(os.path.join(SRC, "genplan", "cli.py")):
        print(f"perfbench: genplan sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.setup_only:
        setup_inputs(args.workload, args.seed, args.work)
        return 0
    return benchmark(args)


def benchmark(args):
    sys.path.insert(0, SRC)
    from check import Answers
    from spans import Tracer

    work = os.path.join(WORK_ROOT, f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    try:
        setup_times, deterministic = run_setup(args.workload, args.seed, work)
        inputs = os.path.join(work, "setup0")
        plan = workloads.plan_workload(args.workload, args.seed)
        warm_up(os.path.join(work, "warmup"))
        # objects the parent holds now are never collected in a request
        # process, so its collector does not copy the shared pages
        gc.freeze()

        runs = []
        start = time.perf_counter()
        while True:
            traced = args.trace == 1 and len(runs) % 2 == 1
            out = os.path.join(work, f"pass{len(runs)}")
            runs.append(run_pass(plan, inputs, out, Tracer() if traced else None))
            elapsed = time.perf_counter() - start
            enough = len(runs) >= (2 if args.trace else 1)
            if enough and elapsed + runs[-1]["wall"] > args.seconds:
                break

        answers = Answers(plan, inputs)
        attempted = failed = 0
        problems = []
        for run in runs:
            exits = {}
            for req, res in zip(plan.requests, run["results"]):
                attempted += 1
                why = answers.check(req, res, run["out"])
                if why is None and req.kind in ("plan", "synthesize") and args.workload == "cross-engine":
                    exits.setdefault(req.spec, {})[req.kind] = res["exit"]
                    pair = exits[req.spec]
                    if len(pair) == 2 and pair["plan"] != pair["synthesize"]:
                        why = "planner and synthesis disagree"
                if why is not None:
                    failed += 1
                    problems.append(f"{req.id}: {why}")
        for line in problems[:20]:
            print(f"FAILED {line}")
        for i, req in enumerate(plan.requests):
            ms = [run["results"][i]["seconds"] for run in runs]
            rss = max(run["results"][i]["rss_mb"] for run in runs)
            print(f"  {req.id:<44} exit {runs[0]['results'][i]['exit']}  "
                  f"{statistics.median(ms) * 1000:10.1f} ms  {rss:7.1f} MB", file=sys.stderr)
        correct = failed == 0 and deterministic
        if not deterministic:
            print("FAILED set-up rounds wrote different inputs for the same seed")

        n = len(plan.requests)
        print(f"workload {args.workload} seed {args.seed}: {n} requests x {len(runs)} passes, "
              f"closed loop, one client; fail_rate {failed}/{attempted}")
        if args.trace == 0:
            metrics = end_to_end(plan, runs, setup_times, attempted, failed)
        else:
            metrics = per_layer(plan, runs, args)
        print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                          "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


def end_to_end(plan, runs, setup_times, attempted, failed):
    n = len(plan.requests)
    per_request = [
        statistics.median(run["results"][i]["seconds"] for run in runs) * 1000
        for i in range(n)
    ]
    p = tail_percentile(n)
    values = {
        "wall_s": statistics.median(run["wall"] for run in runs),
        "request_p50_ms": statistics.median(per_request),
        "request_tail_ms": statistics.quantiles(per_request, n=100, method="inclusive")[p - 1],
        "peak_rss_mb": max(res["rss_mb"] for run in runs for res in run["results"]),
        "pass_rate": 1 - failed / attempted,
        "policy_memory": statistics.median(policy_memory(plan, run) for run in runs),
        "setup_s": statistics.median(setup_times),
    }
    beyond = sum(1 for v in per_request if v > values["request_tail_ms"])
    print(f"request_tail_ms is p{p} of the {n} per-request medians; {beyond} requests beyond it")
    units = {name: unit for name, unit, _, _ in END_TO_END}
    for name, v in values.items():
        print(f"  {name:<16} {v:14.4f} {units[name]}")
    return {name: {"value": v, "unit": units[name]} for name, v in values.items()}


def per_layer(plan, runs, args):
    plain = [r["wall"] for r in runs if not r["traced"]]
    traced = [r for r in runs if r["traced"]]
    layers = [layer_metrics(r) for r in traced]
    units = dict(per_layer_metrics())
    values = {
        name: statistics.median(m[name] for m, _ in layers)
        for name in units if name != "trace_overhead_s"
    }
    values["trace_overhead_s"] = (
        statistics.median(r["wall"] for r in traced) - statistics.median(plain)
    )
    spans = [s for _, run_spans in layers for s in run_spans]
    for line in baseline_counts(plan, layers[0][1]):
        print(line)
    print("share of request time spent inside each layer (first traced pass):")
    for name, share in inclusive_shares(layers[0][1]):
        if share >= 0.005:
            print(f"  {name:<44} {share:7.1%}")
    os.makedirs(TRACE_ROOT, exist_ok=True)
    trace_path = os.path.join(TRACE_ROOT, f"trace-{args.workload}-seed{args.seed}.json")
    with open(trace_path, "w") as fh:
        json.dump(spans, fh)
    print(f"spans written to {os.path.relpath(trace_path, ROOT)}")
    for name, v in values.items():
        if v:
            print(f"  {name:<44} {v:14.4f} {units[name]}")
    return {name: {"value": v, "unit": units[name]} for name, v in values.items()}


if __name__ == "__main__":
    sys.exit(main())
