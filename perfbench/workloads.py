"""Seeded inputs for the three workloads, with every request's expected
verdict fixed before any timing.

``plan_workload(name, seed)`` is pure: it returns the QNPs and the request
list, each request carrying its expected exit code.  ``materialize`` writes
the input files into a directory; for ``synth-ltl`` and ``cross-engine`` it
runs genplan's own ``qnp2fond`` (and ``plan``, for the policies that the
verify requests check) while doing so, which counts as set-up.

The verdicts come from how each QNP is built, not from genplan: every
family below is solvable or unsolvable by construction, and the criterion-4
suite carries its recorded answers.
"""

from __future__ import annotations

import io
import json
import math
import os
import random
from contextlib import redirect_stdout
from dataclasses import dataclass

from qnpsem import Action, Spec, abstraction, close, concrete_problem

WORKLOADS = ("synth-ltl", "cross-engine", "plan-concrete")

# ---------------------------------------------------------------------------
# The criterion-4 suite of the acceptance tests, with its recorded answers
# ---------------------------------------------------------------------------

_DEC_X = Action("Dec", pre=("X>0",), dec=("X",))
_INC_X = Action("Inc", inc=("X",))


def _suite():
    s = {}

    def add(name, variables, init, actions, goal, solvable, fluents=()):
        s[name] = Spec(name=name, variables=variables, init=init, actions=actions,
                       goal=goal, solvable=solvable, fluents=fluents, family="suite")

    add("counter", ("X",), {"X": ("set", (5,))}, (_DEC_X, _INC_X), ("X=0",), True)
    add("counter_dec_only", ("X",), {"X": ("set", (4,))}, (_DEC_X,), ("X=0",), True)
    add("counter_interval", ("X",), {"X": ("interval", 5, 9)}, (_DEC_X, _INC_X), ("X=0",), True)
    add("counter_zero_possible", ("X",), {"X": ("set", (0, 3))}, (_DEC_X, _INC_X), ("X=0",), True)
    add("counter_inc_only", ("X",), {"X": ("set", (3,))}, (_INC_X,), ("X=0",), False)
    add("counter_goal_positive", ("X",), {"X": ("set", (0, 2))}, (_DEC_X, _INC_X), ("X>0",), True)
    add("gated_counter", ("N",), {"N": ("set", (6,))},
        (Action("arm", add=("armed",)),
         Action("fire", pre=("armed", "N>0"), delete=("armed",), dec=("N",))),
        ("N=0",), True, fluents=("armed",))
    add("blocks_clear", ("n",), {"n": ("interval", 1, 50)},
        (Action("unstack_above", pre=("n>0", "!holding"), add=("holding",), dec=("n",)),
         Action("putdown", pre=("holding",), delete=("holding",))),
        ("n=0", "!holding"), True, fluents=("holding",))
    add("twovar", ("X", "Y"), {"X": ("set", (20,)), "Y": ("set", (30,))},
        (Action("a", pre=("X>0",), dec=("X",), inc=("Y",)),
         Action("b", pre=("Y>0",), dec=("Y",))),
        ("X=0", "Y=0"), True)
    add("twovar_swap", ("X", "Y"), {"X": ("set", (3,)), "Y": ("set", (3,))},
        (Action("a", pre=("X>0",), dec=("X",), inc=("Y",)),
         Action("b", pre=("Y>0",), dec=("Y",), inc=("X",))),
        ("X=0", "Y=0"), False)
    add("twovar_no_drain", ("X", "Y"), {"X": ("set", (2,)), "Y": ("set", (2,))},
        (Action("a", pre=("X>0",), dec=("X",)),), ("X=0", "Y=0"), False)
    add("threevar_chain", ("X", "Y", "Z"),
        {"X": ("set", (3,)), "Y": ("set", (2,)), "Z": ("set", (2,))},
        (Action("a", pre=("X>0",), dec=("X",), inc=("Y",)),
         Action("b", pre=("Y>0",), dec=("Y",), inc=("Z",)),
         Action("c", pre=("Z>0",), dec=("Z",))),
        ("X=0", "Y=0", "Z=0"), True)
    return s


SUITE = _suite()

# ---------------------------------------------------------------------------
# Seeded families.  Each is written with canonical names; the seed renames
# variables, fluents and actions and draws the initial values, none of which
# changes the verdict.  Fresh names sort like the canonical ones (and, for
# actions and fluents, before the set(X)/unset(X) actions and q_X fluents of
# the commitment transformation), so every seed builds automata, games and
# plans of the same shape and the cost of a run does not depend on the seed.
# ---------------------------------------------------------------------------

_VAR_POOL = ("K", "M", "N", "P", "R", "S", "T", "V", "W", "X", "Y", "Z")
_ACT_POOL = ("bring", "carry", "draw", "drop", "feed", "fill", "give", "grab",
             "hold", "lift", "load", "move", "pick", "pour", "pull", "push")
_FLU_POOL = ("armed", "busy", "holding", "lit", "open")


def _chain(n, drain=True):
    names = ("X", "Y", "Z")[:n]
    acts = []
    for i, v in enumerate(names):
        nxt = names[i + 1] if i + 1 < n else None
        if nxt is None and not drain:
            break
        acts.append(Action("abc"[i], pre=(f"{v}>0",), dec=(v,), inc=(nxt,) if nxt else ()))
    return names, (), tuple(acts), tuple(f"{v}=0" for v in names)


FAMILIES = {
    # name: (variables, fluents, actions, goal, solvable, preferred action order)
    "counter": (("X",), (), (_DEC_X, _INC_X), ("X=0",), True, ("Dec", "Inc")),
    "inc_only": (("X",), (), (_INC_X,), ("X=0",), False, ("Inc",)),
    "gated": (("X",), ("armed",),
              (Action("arm", add=("armed",)),
               Action("fire", pre=("armed", "X>0"), delete=("armed",), dec=("X",))),
              ("X=0",), True, ("fire", "arm")),
    "blocks": (("X",), ("holding",),
               (Action("unstack", pre=("X>0", "!holding"), add=("holding",), dec=("X",)),
                Action("putdown", pre=("holding",), delete=("holding",))),
               ("X=0", "!holding"), True, ("putdown", "unstack")),
    "chain2": _chain(2) + (True, ("a", "b")),
    "chain3": _chain(3) + (True, ("a", "b", "c")),
    "chain3_no_drain": _chain(3, drain=False) + (False, ("a", "b")),
    "parallel2": (("X", "Y"), (),
                  (Action("a", pre=("X>0",), dec=("X",)), Action("b", pre=("Y>0",), dec=("Y",))),
                  ("X=0", "Y=0"), True, ("a", "b")),
    "swap2": (("X", "Y"), (),
              (Action("a", pre=("X>0",), dec=("X",), inc=("Y",)),
               Action("b", pre=("Y>0",), dec=("Y",), inc=("X",))),
              ("X=0", "Y=0"), False, ("a", "b")),
    "no_drain2": (("X", "Y"), (), (Action("a", pre=("X>0",), dec=("X",)),),
                  ("X=0", "Y=0"), False, ("a",)),
    "drain_x_pump_y": (("X", "Y"), (),
                       (Action("a", pre=("X>0",), dec=("X",)), Action("b", inc=("Y",))),
                       ("X=0",), True, ("a", "b")),
    "transfer_x_to_y": (("X", "Y"), (), (Action("a", pre=("X>0",), dec=("X",), inc=("Y",)),),
                        ("X=0",), True, ("a",)),
}


def _rename(names, pool, rng):
    """Fresh names from ``pool`` that sort like ``names``."""
    return dict(zip(sorted(names), sorted(rng.sample(pool, len(names)))))


def seeded_spec(family, rng, name, init_kind="positive"):
    """A renamed instance of ``family``.  ``init_kind`` is "positive" (a
    random positive set), "interval" (a random [lo, hi] with lo >= 1), or
    "full" (any value, for concrete members: every valuation up to the
    member's bound is initial)."""
    variables, fluents, actions, goal, solvable, prefer = FAMILIES[family]
    vmap = _rename(variables, _VAR_POOL, rng)
    fmap = _rename(fluents, _FLU_POOL, rng)
    amap = _rename([a.name for a in actions], _ACT_POOL, rng)

    def lit(l):
        neg = l.startswith("!")
        body = l[1:] if neg else l
        if body[-2:] in ("=0", ">0"):
            return vmap[body[:-2]] + body[-2:]
        return ("!" if neg else "") + fmap[body]

    renamed = [
        Action(amap[a.name], pre=tuple(lit(l) for l in a.pre),
               add=tuple(fmap[f] for f in a.add), delete=tuple(fmap[f] for f in a.delete),
               inc=tuple(vmap[v] for v in a.inc), dec=tuple(vmap[v] for v in a.dec))
        for a in actions
    ]
    init = {}
    for v in variables:
        if init_kind == "positive":
            init[vmap[v]] = ("set", tuple(sorted(rng.sample(range(1, 10), rng.randint(1, 2)))))
        elif init_kind == "interval":
            lo = rng.randint(1, 4)
            init[vmap[v]] = ("interval", lo, lo + rng.randint(2, 12))
        else:
            init[vmap[v]] = ("interval", 0, 10**6)
    spec = Spec(name=name, variables=tuple(vmap[v] for v in variables), init=init,
                actions=tuple(renamed), goal=tuple(lit(l) for l in goal), solvable=solvable,
                fluents=tuple(fmap[f] for f in fluents), family=family)
    return spec, tuple(amap[a] for a in prefer)


# ---------------------------------------------------------------------------
# Constraint text
# ---------------------------------------------------------------------------


def _disj(letters):
    if not letters:
        return "false"
    return " | ".join(f'"{x}"' for x in sorted(letters))


def counter_ltl(spec, observations, strong):
    """The counter constraint of every variable, written out as LTL text
    over the abstraction's letters: F G !inc & G F dec -> G F zero (weak)
    or -> F G !positive (strong).  It parses to the same formula genplan
    binds for qnp(X) / qnp_strong(X), so only the route differs."""
    parts = []
    for v in sorted(spec.variables):
        inc = [a.name for a in spec.actions if v in a.inc]
        dec = [a.name for a in spec.actions if v in a.dec]
        zero = [o for o in observations if f"{v}=0" in o.split(",")]
        pos = [o for o in observations if f"{v}>0" in o.split(",")]
        head = f"(F G !({_disj(inc)}) & G F ({_disj(dec)}))"
        tail = f"F G !({_disj(pos)})" if strong else f"G F ({_disj(zero)})"
        parts.append(f"({head} -> {tail})")
    return " & ".join(parts)


def builtin_constraint(spec):
    return " & ".join(f"qnp({v})" for v in sorted(spec.variables))


# ---------------------------------------------------------------------------
# Workload plans
# ---------------------------------------------------------------------------


@dataclass
class Request:
    id: str
    kind: str  # qnp2fond | synthesize | plan | verify | project
    argv: list  # "{work}" and "{out}" are filled in at run time
    exit: int  # expected exit code
    spec: str = None  # QNP the answer is replayed on
    closed: bool = False  # replay on the closed QNP
    problem: str = None  # problem file the witness is replayed on
    policy: str = None  # policy file given to verify
    verdict: str = None  # expected verdict kind on exit 0
    expect_states: str = None  # file holding the expected abstraction / projection
    group: str = "seeded"


@dataclass
class WorkloadPlan:
    name: str
    specs: dict  # name -> Spec
    requests: list
    files: dict  # relative path -> ("qnp", spec) | ("problem", spec, bound, ...) | ...
    setup_calls: list  # genplan CLI argv run while materializing, in order


def _rng(workload, seed):
    return random.Random(f"{workload}:{seed}")


def plan_workload(workload, seed):
    builders = {"synth-ltl": _plan_synth, "cross-engine": _plan_cross,
                "plan-concrete": _plan_concrete}
    plan = builders[workload](seed)
    plan.requests = interleave(plan.requests)
    return plan


def interleave(requests):
    """A fixed stride permutation of the request list.  Requests are built
    QNP by QNP, cheap and costly ones in runs; spreading them over the pass
    keeps a slow minute of a shared machine from landing on one kind of
    request only."""
    n = len(requests)
    stride = next(s for s in range(int(n * 0.618) or 1, 2 * n + 2) if math.gcd(s, n) == 1)
    return [requests[k * stride % n] for k in range(n)]


# cheap two-variable families: the suite's twovar requests carry the time,
# and the many seeded requests spread the latency samples over the pass
SYNTH_SEEDED = ("drain_x_pump_y", "transfer_x_to_y", "no_drain2") * 9


def _plan_synth(seed):
    """Criterion 4's suite (at most two variables) plus 27 seeded
    two-variable QNPs, each synthesized under its counter constraints passed
    as LTL text, weak and strong."""
    rng = _rng("synth-ltl", seed)
    specs = {n: s for n, s in SUITE.items() if len(s.variables) <= 2}
    for i, fam in enumerate(SYNTH_SEEDED):
        spec, _ = seeded_spec(fam, rng, f"s{i}_{fam}",
                              init_kind=rng.choice(("positive", "interval")))
        specs[spec.name] = spec
    files, setup, requests = {}, [], []
    for name, spec in specs.items():
        files[f"{name}.qnp"] = ("qnp", name)
        setup.append(["qnp2fond", f"{{work}}/{name}.qnp", "-o", f"{{work}}/{name}.fondp.json"])
        for form in ("weak", "strong"):
            files[f"{name}.{form}.ltl"] = ("ltl", name, form == "strong")
            requests.append(Request(
                id=f"{name}.synthesize.{form}", kind="synthesize", spec=name,
                argv=["synthesize", f"{{work}}/{name}.fondp.json", "--constraint",
                      f"{{work}}/{name}.{form}.ltl", "-o", f"{{out}}/{name}.{form}.policy.json"],
                exit=0 if spec.solvable else 1, verdict="SOLVES_UNDER_CONSTRAINT",
                group="suite" if spec.family == "suite" else "seeded",
            ))
    return WorkloadPlan("synth-ltl", specs, requests, files, setup)


# the unsolvable three-variable chain keeps a pass short: the solvable one
# (suite threevar_chain) already spends seconds in its constraint check
CROSS_SEEDED = ("counter", "gated", "blocks", "chain2", "parallel2", "chain3_no_drain",
                "inc_only", "no_drain2", "swap2")


def _plan_cross(seed):
    """Criterion 4's twelve QNPs plus nine seeded closure-eligible QNPs with
    one to three variables, through the CLI flow of criterion 4."""
    rng = _rng("cross-engine", seed)
    specs = dict(SUITE)
    for i, fam in enumerate(CROSS_SEEDED):
        spec, _ = seeded_spec(fam, rng, f"s{i}_{fam}",
                              init_kind=rng.choice(("positive", "interval")))
        specs[spec.name] = spec
    files, setup, requests = {}, [], []
    for name, spec in specs.items():
        group = "suite" if spec.family == "suite" else "seeded"
        ok = 0 if spec.solvable else 1
        w = "{work}/" + name
        files[f"{name}.qnp"] = ("qnp", name)
        files[f"{name}.abstraction.json"] = ("abstraction", name, False)
        files[f"{name}.closed.abstraction.json"] = ("abstraction", name, True)
        setup.append(["qnp2fond", f"{w}.qnp", "-o", f"{w}.fondp.json"])
        setup.append(["qnp2fond", f"{w}.qnp", "--close", "-o", f"{w}.closed.json"])
        if spec.solvable:
            setup.append(["plan", f"{w}.closed.json", "-o", f"{w}.plan.json"])
        cx = builtin_constraint(spec)
        requests += [
            Request(f"{name}.qnp2fond", "qnp2fond", ["qnp2fond", f"{w}.qnp", "-o", f"{{out}}/{name}.fondp.json"],
                    0, spec=name, expect_states=f"{name}.abstraction.json", group=group),
            Request(f"{name}.qnp2fond.close", "qnp2fond",
                    ["qnp2fond", f"{w}.qnp", "--close", "-o", f"{{out}}/{name}.closed.json"],
                    0, spec=name, closed=True, expect_states=f"{name}.closed.abstraction.json",
                    group=group),
            Request(f"{name}.plan", "plan", ["plan", f"{w}.closed.json", "-o", f"{{out}}/{name}.plan.json"],
                    ok, spec=name, closed=True, verdict="FAIR_SOLUTION", group=group),
            Request(f"{name}.synthesize", "synthesize",
                    ["synthesize", f"{w}.fondp.json", "--constraint", cx, "-o", f"{{out}}/{name}.policy.json"],
                    ok, spec=name, verdict="SOLVES_UNDER_CONSTRAINT", group=group),
        ]
        if spec.solvable:
            requests += [
                Request(f"{name}.verify.fair", "verify",
                        ["verify", "--mode", "fair", f"{w}.closed.json", f"{w}.plan.json"],
                        0, spec=name, closed=True, problem=f"{name}.closed.json",
                        policy=f"{name}.plan.json", verdict="FAIR_SOLUTION", group=group),
                Request(f"{name}.verify.constraint", "verify",
                        ["verify", "--mode", "constraint", f"{w}.closed.json", f"{w}.plan.json", cx],
                        0, spec=name, closed=True, problem=f"{name}.closed.json",
                        policy=f"{name}.plan.json", verdict="SOLVES_UNDER_CONSTRAINT", group=group),
            ]
    return WorkloadPlan("cross-engine", specs, requests, files, setup)


# family, bound, how many sizes: the largest member of each family has a
# few thousand states; every in-range valuation is initial
CONCRETE_SOLVABLE = (
    ("chain3", 18), ("chain3", 12),
    ("chain2", 60), ("chain2", 36),
    ("parallel2", 50), ("parallel2", 30),
    ("gated", 500), ("gated", 250),
    ("blocks", 500), ("blocks", 250),
    ("counter", 800), ("counter", 400),
)
CONCRETE_UNSOLVABLE = (("chain3_no_drain", 12), ("swap2", 10), ("inc_only", 2000))
# class files for project: family, members, least and largest member bound
CONCRETE_CLASSES = (("chain2", 24, 10, 30), ("parallel2", 24, 10, 30),
                    ("gated", 30, 100, 400), ("counter", 30, 100, 400))


def _plan_concrete(seed):
    """Concrete members with nondeterministic bounded semantics (a
    decrement lowers by 0, 1 or 2, so it may stall; an increment raises by 1
    or 2, capped at the bound).  Plans are fair but not strong."""
    rng = _rng("plan-concrete", seed)
    specs, files, requests = {}, {}, []
    for i, (fam, bound) in enumerate(CONCRETE_SOLVABLE + CONCRETE_UNSOLVABLE):
        spec, prefer = seeded_spec(fam, rng, f"c{i}_{fam}_{bound}", init_kind="full")
        name = spec.name
        specs[name] = spec
        w = "{work}/" + name
        files[f"{name}.json"] = ("problem", name, bound)
        files[f"{name}.canonical.json"] = ("canonical", name, prefer)
        verify = dict(spec=name, problem=f"{name}.json", policy=f"{name}.canonical.json")
        if spec.solvable:
            requests += [
                Request(f"{name}.plan", "plan", ["plan", f"{w}.json", "-o", f"{{out}}/{name}.plan.json"],
                        0, spec=name, problem=f"{name}.json", verdict="FAIR_SOLUTION"),
                Request(f"{name}.verify.fair", "verify",
                        ["verify", "--mode", "fair", f"{w}.json", f"{w}.canonical.json"],
                        0, verdict="FAIR_SOLUTION", **verify),
                Request(f"{name}.verify.strong", "verify",
                        ["verify", "--mode", "strong", f"{w}.json", f"{w}.canonical.json"],
                        1, **verify),
            ]
        else:
            requests += [
                Request(f"{name}.plan", "plan", ["plan", f"{w}.json", "-o", f"{{out}}/{name}.plan.json"],
                        1, spec=name, problem=f"{name}.json"),
                Request(f"{name}.verify.fair", "verify",
                        ["verify", "--mode", "fair", f"{w}.json", f"{w}.canonical.json"],
                        1, **verify),
            ]
    for i, (fam, members, lo, hi) in enumerate(CONCRETE_CLASSES):
        spec, _ = seeded_spec(fam, rng, f"k{i}_{fam}", init_kind="full")
        specs[spec.name] = spec
        layout = tuple(
            (rng.randint(lo, hi), tuple(rng.randint(1, lo) for _ in spec.variables))
            for _ in range(members)
        )
        files[f"{spec.name}.class.json"] = ("class", spec.name, layout)
        files[f"{spec.name}.projection.json"] = ("projection", spec.name, layout)
        requests.append(Request(
            f"{spec.name}.project", "project",
            ["project", f"{{work}}/{spec.name}.class.json", "-o", f"{{out}}/{spec.name}.fondp.json"],
            0, spec=spec.name, expect_states=f"{spec.name}.projection.json",
        ))
    return WorkloadPlan("plan-concrete", specs, requests, files, [])


# ---------------------------------------------------------------------------
# Writing the files
# ---------------------------------------------------------------------------


def canonical_policy(spec, prefer):
    """Memoryless policy: at each abstract observation, the first applicable
    action in ``prefer``."""
    succ, _, goals = abstraction(spec)
    output = []
    for o in sorted(succ):
        if o in goals:
            continue
        for name in prefer:
            if name in succ[o]:
                output.append(["m0", o, name])
                break
    return {"memory_states": ["m0"], "initial": "m0", "update": [], "output": output}


def abstraction_doc(spec):
    succ, init, goal = abstraction(spec)
    return {
        "states": sorted(succ),
        "init": sorted(init),
        "goal_states": sorted(goal),
        "succ": {f"{a}|{s}": sorted(t) for s, outs in sorted(succ.items())
                 for a, t in sorted(outs.items())},
    }


def class_members(spec, layout):
    return [concrete_problem(spec, bound, inits=[vals]) for bound, vals in layout]


def projection_doc(members):
    """The observation projection of an explicit class, computed here from
    the member files: observations become states, and an abstract
    transition exists iff some member witnesses it."""
    states, init, goal, succ = set(), set(), set(), {}
    for m in members:
        obs = m["obs"]
        states.update(m["observations"])
        init.update(obs[s] for s in m["init"])
        goal.update(obs[s] for s in m["goal_states"])
        for key, targets in m["succ"].items():
            a, _, s = key.partition("|")
            succ.setdefault(f"{a}|{obs[s]}", set()).update(obs[t] for t in targets)
    return {"states": sorted(states), "init": sorted(init), "goal_states": sorted(goal),
            "succ": {k: sorted(v) for k, v in sorted(succ.items())}}


def _dump(doc, path):
    with open(path, "w") as fh:
        fh.write(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")


def materialize(plan, work):
    """Write every input of ``plan`` under ``work`` and run its set-up CLI
    calls.  Raises RuntimeError if a set-up call fails."""
    from genplan.cli import main as cli_main

    os.makedirs(work, exist_ok=True)
    specs = plan.specs
    members = {}  # class members, written once and projected once
    for rel, what in plan.files.items():
        path = os.path.join(work, rel)
        kind, name = what[0], what[1]
        spec = specs[name]
        if kind == "qnp":
            with open(path, "w") as fh:
                fh.write(spec.text())
        elif kind == "abstraction":
            _dump(abstraction_doc(close(spec) if what[2] else spec), path)
        elif kind == "problem":
            _dump(concrete_problem(spec, what[2]), path)
        elif kind == "canonical":
            _dump(canonical_policy(spec, what[2]), path)
        elif kind == "class":
            members[name] = class_members(spec, what[2])
            _dump({"members": members[name]}, path)
        elif kind == "projection":
            _dump(projection_doc(members[name]), path)
    for argv in plan.setup_calls:
        argv = [a.replace("{work}", work) for a in argv]
        with redirect_stdout(io.StringIO()):
            code = cli_main(argv)
        if code not in (0, 1):
            raise RuntimeError(f"set-up call {argv} exited {code}")
    # LTL text needs the observation letters of the generated abstraction
    for rel, what in plan.files.items():
        if what[0] == "ltl":
            spec = specs[what[1]]
            with open(os.path.join(work, f"{spec.name}.fondp.json")) as fh:
                observations = json.load(fh)["observations"]
            with open(os.path.join(work, rel), "w") as fh:
                fh.write(counter_ltl(spec, observations, strong=what[2]) + "\n")
