"""The benchmark's own model of qualitative numerical problems (QNPs).

This is a second, deliberately small implementation of the QNP semantics
that genplan documents: the text format, the boolean abstraction, the
commitment transformation, concrete members and their simulation.  The
benchmark uses it to write inputs and to check answers without calling the
code under test, so a wrong answer from genplan cannot also fool the check.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace


@dataclass(frozen=True)
class Action:
    name: str
    pre: tuple = ()  # literals: "X>0", "X=0", "f", "!f"
    add: tuple = ()
    delete: tuple = ()
    inc: tuple = ()
    dec: tuple = ()


@dataclass(frozen=True)
class Spec:
    """One QNP.  ``init`` maps a variable to ("set", values) or
    ("interval", lo, hi); ``solvable`` is the verdict the generator fixed."""

    name: str
    variables: tuple
    init: dict
    actions: tuple
    goal: tuple
    solvable: bool
    fluents: tuple = ()  # every fluent starts false
    family: str = field(default="", compare=False)

    def text(self):
        lines = []
        if self.fluents:
            lines.append("fluents " + " ".join(self.fluents))
        lines.append("vars " + " ".join(self.variables))
        for v in self.variables:
            d = self.init[v]
            if d[0] == "set":
                lines.append(f"init_values {v} in {{{','.join(str(x) for x in d[1])}}}")
            else:
                lines.append(f"init_values {v} in [{d[1]},{d[2]}]")
        for a in self.actions:
            lines.append(f"action {a.name}")
            for key, items in (("pre", a.pre), ("add", a.add), ("del", a.delete),
                               ("inc", a.inc), ("dec", a.dec)):
                if items:
                    lines.append(f"  {key} " + " ".join(items))
        lines.append("goal " + " ".join(self.goal))
        return "\n".join(lines) + "\n"

    def action(self, name):
        for a in self.actions:
            if a.name == name:
                return a
        raise KeyError(name)


# ---------------------------------------------------------------------------
# Literals and states.  A state is (frozenset of true fluents, tuple of values)
# ---------------------------------------------------------------------------


def holds(spec, lit, fluents, values):
    if lit.endswith("=0") or lit.endswith(">0"):
        x = values[spec.variables.index(lit[:-2])]
        return x == 0 if lit.endswith("=0") else x > 0
    if lit.startswith("!"):
        return lit[1:] not in fluents
    return lit in fluents


def applicable(spec, a, fluents, values):
    return all(holds(spec, lit, fluents, values) for lit in a.pre)


def is_goal(spec, fluents, values):
    return all(holds(spec, lit, fluents, values) for lit in spec.goal)


def obs_id(spec, fluents, values):
    """Observation id as genplan prints it: the true fluents, sorted, then
    one zero/positive atom per variable in declaration order."""
    parts = sorted(fluents)
    parts += [f"{v}=0" if values[i] == 0 else f"{v}>0" for i, v in enumerate(spec.variables)]
    return ",".join(parts)


def state_id(spec, fluents, values):
    parts = sorted(fluents)
    parts += [f"{v}={values[i]}" for i, v in enumerate(spec.variables)]
    return ",".join(parts)


def init_values(spec, v, cap):
    """Every integer value up to ``cap`` that the descriptor of ``v`` allows."""
    d = spec.init[v]
    if d[0] == "set":
        return [x for x in d[1] if x <= cap]
    return list(range(d[1], min(d[2], cap) + 1))


def zero_positive(spec, v):
    """The abstract initial values of ``v``: 0 (zero) and/or 1 (positive)."""
    d = spec.init[v]
    vals = d[1] if d[0] == "set" else (d[1], d[2])
    return sorted({min(x, 1) for x in vals})


# ---------------------------------------------------------------------------
# Boolean abstraction and the commitment transformation
# ---------------------------------------------------------------------------


def abstraction(spec):
    """Reachable boolean states of the syntactic projection, as a dict
    obs id -> {action: set of obs ids}, plus the initial and goal ids.

    Values are represented by 0 (zero) and 1 (positive); a decrement of a
    positive variable branches to both."""
    inits = set()
    for bits in itertools.product(*[zero_positive(spec, v) for v in spec.variables]):
        inits.add((frozenset(), bits))
    succ = {}
    queue = list(inits)
    seen = set(inits)
    while queue:
        st = queue.pop()
        fl, bits = st
        outs = {}
        for a in spec.actions:
            if not applicable(spec, a, fl, bits):
                continue
            fl2 = (fl - set(a.delete)) | set(a.add)
            options = []
            for i, v in enumerate(spec.variables):
                if v in a.inc:
                    options.append([1])
                elif v in a.dec:
                    options.append([0, 1] if bits[i] else [0])
                else:
                    options.append([bits[i]])
            targets = {(frozenset(fl2), b) for b in itertools.product(*options)}
            outs[a.name] = {obs_id(spec, *t) for t in targets}
            for t in targets:
                if t not in seen:
                    seen.add(t)
                    queue.append(t)
        succ[obs_id(spec, *st)] = outs
    init_ids = {obs_id(spec, *st) for st in inits}
    goal_ids = {obs_id(spec, *st) for st in seen if is_goal(spec, *st)}
    return succ, init_ids, goal_ids


def close(spec):
    """The commitment transformation: a fluent q_X per variable; decrements
    need it, increments need its absence; set(X) raises it and unset(X)
    lowers it once X=0."""
    actions = []
    for a in spec.actions:
        pre = list(a.pre)
        for v in sorted(set(a.inc) | set(a.dec)):
            pre.append(f"q_{v}" if v in a.dec else f"!q_{v}")
        actions.append(replace(a, pre=tuple(pre)))
    for v in spec.variables:
        actions.append(Action(name=f"set({v})", add=(f"q_{v}",)))
        actions.append(Action(name=f"unset({v})", pre=(f"{v}=0",), delete=(f"q_{v}",)))
    return replace(
        spec,
        name=spec.name + ".closed",
        fluents=tuple(spec.fluents) + tuple(f"q_{v}" for v in spec.variables),
        actions=tuple(actions),
    )


# ---------------------------------------------------------------------------
# Concrete members
# ---------------------------------------------------------------------------


def unit_step(spec, a, fluents, values):
    """Successor under unit semantics: +1, and -1 floored at zero."""
    fl2 = frozenset((fluents - set(a.delete)) | set(a.add))
    vals = tuple(
        x + 1 if v in a.inc else max(0, x - 1) if v in a.dec else x
        for v, x in zip(spec.variables, values)
    )
    return fl2, vals


DEC_STEPS = (0, 1, 2)  # 0: the decrement stalls
INC_STEPS = (1, 2)


def bounded_outcomes(spec, a, fluents, values, bound):
    """Successors under bounded nondeterministic semantics: a decrement
    lowers by any of DEC_STEPS, floored at zero; an increment raises by any
    of INC_STEPS, capped at ``bound``."""
    fl2 = frozenset((fluents - set(a.delete)) | set(a.add))
    options = []
    for v, x in zip(spec.variables, values):
        if v in a.inc:
            options.append(sorted({min(bound, x + s) for s in INC_STEPS}))
        elif v in a.dec:
            options.append(sorted({max(0, x - s) for s in DEC_STEPS}))
        else:
            options.append([x])
    return [(fl2, vals) for vals in itertools.product(*options)]


def concrete_problem(spec, bound, inits=None):
    """The concrete member with every variable in [0, bound], as a genplan
    problem document.  ``inits`` lists initial value tuples; by default every
    in-range valuation the descriptors allow is initial."""
    if inits is None:
        inits = itertools.product(*[init_values(spec, v, bound) for v in spec.variables])
    start = [(frozenset(), tuple(v)) for v in inits]
    ids = {st: state_id(spec, *st) for st in start}
    queue = list(start)
    avail = {}
    succ = {}
    while queue:
        st = queue.pop()
        sid = ids[st]
        acts = []
        for a in spec.actions:
            if not applicable(spec, a, *st):
                continue
            acts.append(a.name)
            outs = bounded_outcomes(spec, a, *st, bound)
            for t in outs:
                if t not in ids:
                    ids[t] = state_id(spec, *t)
                    queue.append(t)
            succ[f"{a.name}|{sid}"] = sorted(ids[t] for t in outs)
        avail[sid] = sorted(acts)
    obs = {sid: obs_id(spec, *st) for st, sid in ids.items()}
    states = sorted(obs)
    return {
        "states": states,
        "init": sorted(ids[st] for st in start),
        "observations": sorted(set(obs.values())),
        "actions": sorted(a.name for a in spec.actions),
        "goal_states": sorted(sid for st, sid in ids.items() if is_goal(spec, *st)),
        "obs": {s: obs[s] for s in states},
        "avail": {s: avail[s] for s in states},
        "succ": dict(sorted(succ.items())),
    }


def simulate_policy(spec, policy, values, max_steps):
    """Run a genplan policy document on the unit-semantics member that
    starts from ``values``.  Returns None when the goal is reached, else a
    message saying why the run failed."""
    output = {(m, o): a for m, o, a in policy["output"]}
    update = {(m, o): m2 for m, o, m2 in policy.get("update", [])}
    fl, vals = frozenset(), tuple(values)
    mem = policy["initial"]
    for _ in range(max_steps):
        if is_goal(spec, fl, vals):
            return None
        o = obs_id(spec, fl, vals)
        name = output.get((mem, o))
        if name is None:
            return f"policy stops at {state_id(spec, fl, vals)} before the goal"
        a = spec.action(name)
        if not applicable(spec, a, fl, vals):
            return f"policy picks inapplicable {name} at {state_id(spec, fl, vals)}"
        mem = update.get((mem, o), mem)
        fl, vals = unit_step(spec, a, fl, vals)
    return f"goal not reached from {values} within {max_steps} steps"
