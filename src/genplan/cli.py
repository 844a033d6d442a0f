"""Command-line front end.

Every command reads JSON/text artifacts, writes JSON (or DOT) artifacts,
and prints a machine-readable JSON report on standard output.  Exit codes:
0 success, 1 the pipeline ran but the answer is negative (unrealizable,
unsolvable, not a solution), 2 malformed input.  All commands are
deterministic given their inputs (and, for simulate, its --seed).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
import time

from . import fond, ltl, omega, qnp
from .constraints import (
    ALL_TRAJECTORIES,
    conjoin,
    fairness_constraint,
    ltl_constraint,
    qnp_constraint,
    qnp_constraints,
)
from .errors import GenplanError, UnknownVariableError, decoding
from .model import (
    FAIR,
    STRONG,
    PondpClass,
    SeededResolver,
    Under,
    check_solution,
    infer_class,
    load_pondp,
    policy_from_json_dict,
    policy_to_json_dict,
    pondp_from_json_dict,
    pondp_to_dot,
    pondp_to_json_dict,
    product_to_dot,
    run_policy,
    save_json,
    trajectory_to_json_dict,
    valid_pondp,
)
from .projection import as_fondp, project


def _load_class(path):
    with open(path) as fh:
        doc = json.load(fh)
    with decoding("class JSON"):
        members = tuple(pondp_from_json_dict(m) for m in doc["members"])
        if "goal_observations" in doc:
            return PondpClass(
                actions=frozenset(doc["actions"]),
                observations=frozenset(doc["observations"]),
                goal_observations=frozenset(doc["goal_observations"]),
                avail_by_obs={o: frozenset(v) for o, v in doc["avail_by_obs"].items()},
                members=members,
            )
        return infer_class(members)


def _load_policy(path):
    with open(path) as fh:
        return policy_from_json_dict(json.load(fh))


def _builtin_constraint(spec):
    if spec in ("true", "all"):
        return ALL_TRAJECTORIES
    if spec == "fairness":
        return fairness_constraint()
    m = re.fullmatch(r"(qnp|qnp_strong)\(([A-Za-z0-9_]+)\)", spec)
    if m:
        return qnp_constraint(m.group(2), strong=m.group(1) == "qnp_strong")
    return None


def _parse_constraint(spec, problem):
    spec = spec.strip()
    if os.path.isfile(spec):
        with open(spec) as fh:
            spec = fh.read().strip()
    built = _builtin_constraint(spec)
    if built is not None:
        return built
    # a conjunction of builtin names, as printed in synthesis reports
    parts = [s.strip() for s in spec.split("&")]
    if len(parts) > 1:
        builtins = [_builtin_constraint(s) for s in parts]
        if all(b is not None for b in builtins):
            return conjoin(builtins)
    sigma = set(problem.observations) | set(problem.actions)
    return ltl_constraint(ltl.parse_ltl(spec, sigma), name=spec)


def _emit(doc):
    json.dump(doc, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


def _emit_verified(doc, mu, verdict, output):
    """Report a produced policy with its verification.  A policy its own
    check rejects is a negative answer: exit 1 with the verdict as the
    reason, and no policy file is written."""
    doc["verification"] = verdict.to_json_dict()
    if not verdict.is_solution:
        _emit({**doc, "reason": verdict.kind})
        return 1
    if output:
        save_json(policy_to_json_dict(mu), output)
    _emit({**doc, "output": output})
    return 0


def _cmd_project(args):
    cls = _load_class(args.input)
    result = project(cls)
    p = result.fondp
    if args.output:
        save_json(
            pondp_to_json_dict(
                p,
                cls=PondpClass(
                    actions=cls.actions,
                    observations=cls.observations,
                    goal_observations=cls.goal_observations,
                    avail_by_obs=cls.avail_by_obs,
                    members=(),
                ),
            ),
            args.output,
        )
    if args.dot:
        with open(args.dot, "w") as fh:
            fh.write(pondp_to_dot(p, name="projection"))
    _emit(
        {
            "command": "project",
            "states": len(p.states),
            "diagnostics": [
                {"code": c, "message": m} for c, m, _ in result.diagnostics
            ],
            "output": args.output,
        }
    )
    return 0


def _cmd_synthesize(args):
    p = as_fondp(load_pondp(args.input))
    specs = args.constraint or ["true"]
    constraint = conjoin([_parse_constraint(s, p) for s in specs])
    result = omega.synthesize(p, constraint, budget=args.budget)
    if not result.realizable:
        _emit(
            {
                "command": "synthesize",
                "realizable": False,
                "reason": "UNREALIZABLE",
                "constraint": constraint.name,
                "counterstrategy_size": len(result.counterstrategy),
            }
        )
        return 1
    verdict = check_solution(p, result.policy, Under(constraint), args.budget, result.conjuncts)
    doc = {
        "command": "synthesize",
        "realizable": True,
        "constraint": constraint.name,
        "policy_memory": len(result.policy.memory_states),
    }
    return _emit_verified(doc, result.policy, verdict, args.output)


def _cmd_qnp2fond(args):
    with open(args.input) as fh:
        q = qnp.parse_qnp(fh.read())
    diagnostics = [{"action": a, "message": m} for a, m in qnp.closure_diagnostics(q)]
    if args.close and diagnostics:
        # well formed, but outside what the commitment closure takes: a negative answer
        _emit({"command": "qnp2fond", "closed": False, "reason": "NOT_CLOSURE_ELIGIBLE",
               "closure_diagnostics": diagnostics})
        return 1
    if args.close:
        q = qnp.close_qnp(q)
    proj = qnp.syntactic_projection(q)
    if args.output:
        save_json(pondp_to_json_dict(proj.fondp), args.output)
    _emit(
        {
            "command": "qnp2fond",
            "closed": bool(args.close),
            "states": len(proj.fondp.states),
            "description": proj.description,
            "closure_diagnostics": diagnostics,
            "output": args.output,
        }
    )
    return 0


def _cmd_plan(args):
    p = load_pondp(args.input)
    mu = fond.strong_cyclic_plan(p)
    if mu == fond.UNSOLVABLE:
        _emit({"command": "plan", "reason": "UNSOLVABLE"})
        return 1
    verdict = check_solution(p, mu, FAIR, budget=args.budget)
    variables = p.annotations.get("variables")
    if verdict.is_solution and variables:
        # a fair plan may still loop on the counters the problem names
        # (generate and test, as in SIEVE): it must also meet each qnp(V)
        counters = check_solution(p, mu, Under(conjoin(qnp_constraints(variables))), args.budget)
        verdict = verdict if counters.is_solution else counters
    doc = {"command": "plan", "policy": mu.as_memoryless_mapping()}
    return _emit_verified(doc, mu, verdict, args.output)


def _cmd_verify(args):
    p = load_pondp(args.input)
    mu = _load_policy(args.policy)
    if args.mode == "strong":
        mode = STRONG
    elif args.mode == "fair":
        mode = FAIR
    else:
        if not args.constraint:
            raise GenplanError("--mode constraint requires a constraint argument")
        mode = Under(_parse_constraint(args.constraint, p))
    verdict = check_solution(p, mu, mode, budget=args.budget)
    if args.dot:
        cx = verdict.counterexample or verdict.witness
        highlight = cx.visited_states() if cx is not None else ()
        with open(args.dot, "w") as fh:
            fh.write(product_to_dot(p, mu, highlight=highlight, budget=args.budget))
    _emit({"command": "verify", "mode": args.mode, **verdict.to_json_dict()})
    return 0 if verdict.is_solution else 1


def _cmd_simulate(args):
    mu = _load_policy(args.policy)
    if args.input.endswith(".qnp"):
        with open(args.input) as fh:
            q = qnp.parse_qnp(fh.read())
        chosen = {}
        for part in (args.init or "").split(","):
            if part:
                var, _, val = part.partition("=")
                var = var.strip()
                if var not in q.variables:
                    raise UnknownVariableError(
                        f"--init names {var!r}, which the QNP does not declare"
                    )
                if var in chosen:
                    raise GenplanError(f"--init gives {var!r} twice")
                chosen[var] = val.strip()
        missing = [v for v in q.variables if v not in chosen]
        if missing:
            raise GenplanError(f"--init missing values for {missing}")
        t = qnp.simulate(
            q, mu, chosen, seed=args.seed, max_steps=args.max_steps,
            stop_at_goal=not args.no_stop_at_goal,
        )
        goal = qnp.reaches_goal(q, t)
    else:
        p = load_pondp(args.input)
        t = run_policy(
            p,
            mu,
            resolver=SeededResolver(args.seed),
            max_steps=args.max_steps,
            stop_at_goal=not args.no_stop_at_goal,
        )
        goal = any(s in p.goal_states for s in t.visited_states())
    doc = {
        "command": "simulate",
        "steps": len(t.actions) if hasattr(t, "actions") else None,
        "goal_reached": bool(goal),
        "trace": trajectory_to_json_dict(t),
    }
    _emit(doc)
    return 0 if goal else 1


def _parse_alphabet(text):
    """Letters from a JSON list of strings (a value that starts with ``[``),
    or else from comma-separated names."""
    if not text.lstrip().startswith("["):
        return frozenset(s.strip() for s in text.split(",") if s.strip())
    with decoding("alphabet JSON"):
        letters = json.loads(text)
        if not isinstance(letters, list) or not all(isinstance(a, str) for a in letters):
            raise ValueError("expected a list of strings")
        return frozenset(letters)


def _cmd_ltl2dpw(args):
    alphabet = _parse_alphabet(args.alphabet)
    f = ltl.parse_ltl(args.formula, alphabet)
    nba = ltl.ltl_to_nba(f, alphabet, budget=args.budget)
    dpw = omega.nba_to_dpw(nba, budget=args.budget)
    if args.format == "dot":
        out = omega.dpw_to_dot(dpw)
        if args.output:
            with open(args.output, "w") as fh:
                fh.write(out)
        else:
            sys.stdout.write(out)
        return 0
    doc = dpw.to_json_dict()
    if args.output:
        save_json(doc, args.output)
    _emit(
        {
            "command": "ltl2dpw",
            "states": len(dpw.states),
            "priorities": sorted(set(dpw.priority.values())),
            "nba_states": len(nba.states),
            "output": args.output,
            **({} if args.output else {"dpw": doc}),
        }
    )
    return 0


def _cmd_show(args):
    with open(args.input) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        doc = {}
    if "delta" in doc and "priority" in doc:
        dot = omega.dpw_to_dot(omega.dpw_from_json_dict(doc))
    elif "succ" in doc:
        dot = pondp_to_dot(valid_pondp(doc))
    elif "output" in doc and "memory_states" in doc:
        dot = _policy_to_dot(policy_from_json_dict(doc))
    else:
        raise GenplanError("unrecognized artifact; expected a problem, DPW, or policy")
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(dot)
        _emit({"command": "show", "output": args.output})
    else:
        sys.stdout.write(dot)
    return 0


def _policy_to_dot(mu):
    lines = ["digraph policy {", "  rankdir=LR;"]
    for m in mu.memory_states:
        lines.append(f'  "{m}" [shape=circle];')
    lines.append(f'  init [shape=point]; init -> "{mu.initial}";')
    for (m, o), m2 in sorted(mu.update.items(), key=str):
        a = mu.output.get((m, o))
        label = f"{o} / {a if a is not None else 'stop'}"
        lines.append(f'  "{m}" -> "{m2}" [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


@functools.cache
def build_parser():
    """The argument parser, built once per process on first use; parsing
    never changes it."""
    parser = argparse.ArgumentParser(
        prog="genplan",
        description="Generalized planning: projection, LTL synthesis, QNP "
        "compilation, FOND planning, verification, simulation.",
    )
    parser.add_argument(
        "--budget",
        type=int,
        default=None,
        help="cap on the states each construction builds: automaton states "
        "(synthesis and constraint checks count only the states they reach, "
        "ltl2dpw the full automaton), the controller nodes of the synthesis game, "
        "and policy product nodes (default 10^6; GENPLAN_BUDGET overrides)",
    )
    parser.add_argument("--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("project", help="observation projection of a class file")
    sp.add_argument("input")
    sp.add_argument("-o", "--output")
    sp.add_argument("--dot")
    sp.set_defaults(func=_cmd_project)

    sp = sub.add_parser("synthesize", help="LTL synthesis on a projection")
    sp.add_argument("input")
    sp.add_argument("--constraint", action="append", help="qnp(X), true, or LTL text")
    sp.add_argument("-o", "--output")
    sp.set_defaults(func=_cmd_synthesize)

    sp = sub.add_parser("qnp2fond", help="syntactic projection of a QNP file")
    sp.add_argument("input")
    sp.add_argument("-o", "--output")
    sp.add_argument("--close", action="store_true", help="apply the commitment transformation")
    sp.set_defaults(func=_cmd_qnp2fond)

    sp = sub.add_parser("plan", help="strong-cyclic plan for a FONDP")
    sp.add_argument("input")
    sp.add_argument("-o", "--output")
    sp.set_defaults(func=_cmd_plan)

    sp = sub.add_parser("verify", help="check a policy against a problem")
    sp.add_argument("--mode", choices=["strong", "fair", "constraint"], required=True)
    sp.add_argument("input")
    sp.add_argument("policy")
    sp.add_argument("constraint", nargs="?")
    sp.add_argument("--dot", help="write the policy product graph, counterexample highlighted")
    sp.set_defaults(func=_cmd_verify)

    sp = sub.add_parser("simulate", help="run a policy on a problem or QNP")
    sp.add_argument("input")
    sp.add_argument("--policy", required=True)
    sp.add_argument("--init", help="initial values, e.g. X=20,Y=30 (QNP inputs)")
    sp.add_argument("--max-steps", type=int, default=100000)
    sp.add_argument("--no-stop-at-goal", action="store_true")
    sp.add_argument("--seed", type=int, default=0, help="RNG seed (reproducible runs)")
    sp.set_defaults(func=_cmd_simulate)

    sp = sub.add_parser("ltl2dpw", help="formula to deterministic parity automaton")
    sp.add_argument("formula")
    sp.add_argument(
        "--alphabet", required=True,
        help='comma-separated letters, or a JSON list such as \'["X=0,Y=0", "a"]\'',
    )
    sp.add_argument("--format", choices=["json", "dot"], default="json")
    sp.add_argument("-o", "--output")
    sp.set_defaults(func=_cmd_ltl2dpw)

    sp = sub.add_parser("show", help="DOT export of a JSON artifact")
    sp.add_argument("input")
    sp.add_argument("-o", "--output")
    sp.set_defaults(func=_cmd_show)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    start = time.time()
    try:
        if args.budget is None:
            with decoding("GENPLAN_BUDGET"):
                args.budget = int(os.environ.get("GENPLAN_BUDGET", ltl.DEFAULT_BUDGET))
        code = args.func(args)
    except (GenplanError, OSError, json.JSONDecodeError) as exc:
        _emit({"error": type(exc).__name__, "message": str(exc)})
        return 2
    if args.verbose:
        print(f"[{args.command}] finished in {time.time() - start:.2f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
