"""Qualitative numerical problems: a STRIPS core plus non-negative numeric
variables with increment/decrement effect descriptors.

A QNP denotes a family of concrete problems, one per choice of initial
values and of concrete increment/decrement semantics.  Only the booleans
``X=0`` / ``X>0`` are observable for a numeric variable, so every concrete
instance projects onto the same boolean abstraction: the two-valued
instance (DEC = {0, x}, INC = {1}) with each state named by its
observation.  One successor routine (``_outcomes``) serves instantiation,
simulation and that projection.  The commitment transformation (``close``)
makes the abstraction's nondeterministic decrements safe for fair FOND
planning.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product

from .errors import (
    BoundTooSmallError,
    InvalidPolicyError,
    NotClosureEligibleError,
    OutOfRangeError,
    QnpParseError,
    QnpSemanticError,
)
from .model import FiniteTrajectory, Pondp, SeededResolver
from .projection import Fondp

# literals are ("fluent", name, positive) or ("var", name, "zero"|"pos")


@dataclass(frozen=True)
class InitDescriptor:
    """Possible initial values: a finite set or a closed interval."""

    kind: str  # "set" | "interval"
    values: tuple  # sorted Fractions, or (lo, hi)

    @property
    def zero_possible(self):
        if self.kind == "set":
            return Fraction(0) in self.values
        return self.values[0] == 0

    @property
    def positive_possible(self):
        if self.kind == "set":
            return any(v > 0 for v in self.values)
        return self.values[1] > 0

    def contains(self, v):
        if self.kind == "set":
            return v in self.values
        return self.values[0] <= v <= self.values[1]

    def sample(self, rng):
        if self.kind == "set":
            return self.values[rng.randrange(len(self.values))]
        lo, hi = self.values
        span = int(hi - lo)
        return lo + rng.randint(0, max(span, 0))


@dataclass(frozen=True)
class ConcreteSemantics:
    """Concrete increment/decrement behavior for one variable.

    unit: +/- 1 with a floor at 0 for decrements.
    bounded: any multiple of ``grid`` in [lo, hi], floored at 0; increments
    must be positive when the variable is 0.
    two_valued: DEC(x) = {0, x} and INC = {1}; the canonical instance whose
    behaviors mirror the boolean abstraction exactly.  Its values are plain
    ints, which keeps the syntactic projection as cheap as a boolean table.
    """

    mode: str = "unit"
    lo: Fraction = Fraction(0)
    hi: Fraction = Fraction(1)
    grid: Fraction = Fraction(1)

    def dec_outcomes(self, x):
        if self.mode == "unit":
            return {max(Fraction(0), x - 1)}
        if self.mode == "two_valued":
            return {0, x}
        out = set()
        step = self._ceil_grid(self.lo)
        while step <= self.hi:
            out.add(max(Fraction(0), x - step))
            step += self.grid
        return out or {x}

    def inc_outcomes(self, x):
        if self.mode == "unit":
            return {x + 1}
        if self.mode == "two_valued":
            return {1}
        out = set()
        step = self._ceil_grid(self.lo)
        while step <= self.hi:
            if x > 0 or step > 0:
                out.add(x + step)
            step += self.grid
        return out or {x + self.grid}

    def _ceil_grid(self, v):
        """Smallest grid multiple at or above v."""
        n = v / self.grid
        k = int(n)
        if k < n:
            k += 1
        return k * self.grid


@dataclass(frozen=True)
class QnpAction:
    name: str
    pre: tuple = ()
    add: frozenset = frozenset()
    delete: frozenset = frozenset()
    numeric: dict = field(default_factory=dict)  # var -> "inc" | "dec"


@dataclass(frozen=True, eq=False)
class Qnp:
    fluents: frozenset
    init_fluents: frozenset
    actions: tuple
    goal: tuple
    variables: tuple
    init_values: dict  # var -> InitDescriptor
    semantics: dict = field(default_factory=dict)  # var -> ConcreteSemantics

    def action(self, name):
        for a in self.actions:
            if a.name == name:
                return a
        raise KeyError(name)

    def semantics_for(self, var):
        return self.semantics.get(var, ConcreteSemantics())


def _check_condition_set(literals, where):
    pos = {(l[1]) for l in literals if l[0] == "var" and l[2] == "zero"}
    neg = {(l[1]) for l in literals if l[0] == "var" and l[2] == "pos"}
    both = pos & neg
    if both:
        raise QnpSemanticError(f"{where}: X=0 and X>0 both required for {sorted(both)}")


def validate_qnp(q):
    """Raise QnpSemanticError on structural violations; returns closure
    eligibility diagnostics (non-fatal)."""
    declared = set(q.variables)
    for a in q.actions:
        for v, eff in a.numeric.items():
            if v not in declared:
                raise QnpSemanticError(f"action {a.name}: unknown variable {v!r}")
            if eff not in ("inc", "dec"):
                raise QnpSemanticError(f"action {a.name}: bad effect {eff!r} on {v!r}")
        _check_condition_set(a.pre, f"action {a.name} precondition")
        for lit in a.pre:
            if lit[0] == "fluent" and lit[1] not in q.fluents:
                raise QnpSemanticError(f"action {a.name}: unknown fluent {lit[1]!r}")
            if lit[0] == "var" and lit[1] not in declared:
                raise QnpSemanticError(f"action {a.name}: unknown variable {lit[1]!r}")
        for f in (a.add | a.delete):
            if f not in q.fluents:
                raise QnpSemanticError(f"action {a.name}: unknown fluent {f!r}")
    _check_condition_set(q.goal, "goal")
    for lit in q.goal:
        if lit[0] == "fluent" and lit[1] not in q.fluents:
            raise QnpSemanticError(f"goal: unknown fluent {lit[1]!r}")
        if lit[0] == "var" and lit[1] not in declared:
            raise QnpSemanticError(f"goal: unknown variable {lit[1]!r}")
    for v in q.variables:
        if v not in q.init_values:
            raise QnpSemanticError(f"variable {v!r} has no initial-value descriptor")
    return closure_diagnostics(q)


def closure_diagnostics(q):
    out = []
    for a in q.actions:
        decs = [v for v, eff in a.numeric.items() if eff == "dec"]
        if len(decs) > 1:
            out.append((a.name, f"decrements {len(decs)} variables"))
        for v in decs:
            if ("var", v, "pos") not in a.pre:
                out.append((a.name, f"decrements {v!r} without precondition {v}>0"))
    return out


# ---------------------------------------------------------------------------
# Concrete syntax
# ---------------------------------------------------------------------------

_NAME = r"[A-Za-z_][A-Za-z0-9_()']*"


def _parse_literal(tok, where):
    m = re.fullmatch(rf"({_NAME})=0", tok)
    if m:
        return ("var", m.group(1), "zero")
    m = re.fullmatch(rf"({_NAME})>0", tok)
    if m:
        return ("var", m.group(1), "pos")
    m = re.fullmatch(rf"!({_NAME})", tok)
    if m:
        return ("fluent", m.group(1), False)
    m = re.fullmatch(_NAME, tok)
    if m:
        return ("fluent", tok, True)
    raise QnpParseError(f"{where}: cannot parse literal {tok!r}")


def _parse_value(tok, where):
    try:
        return Fraction(tok)
    except (ValueError, ZeroDivisionError):
        raise QnpParseError(f"{where}: bad value {tok!r}")


def parse_qnp(text):
    """Parse the declarative QNP format; see the problems/ directory for
    examples.  Raises QnpParseError / QnpSemanticError."""
    fluents = set()
    init_fluents = set()
    variables = []
    init_values = {}
    semantics = {}
    actions = []
    goal = None
    current = None  # mutable action under construction

    def finish_action():
        nonlocal current
        if current is not None:
            if set(current["inc"]) & set(current["dec"]):
                raise QnpSemanticError(
                    f"action {current['name']}: Inc and Dec on the same variable"
                )
            numeric = {v: "inc" for v in current["inc"]}
            numeric.update({v: "dec" for v in current["dec"]})
            actions.append(
                QnpAction(
                    name=current["name"],
                    pre=tuple(current["pre"]),
                    add=frozenset(current["add"]),
                    delete=frozenset(current["del"]),
                    numeric=numeric,
                )
            )
            current = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        where = f"line {lineno}"
        toks = line.split()
        head, rest = toks[0], toks[1:]
        if head == "fluents":
            fluents.update(rest)
        elif head == "vars":
            variables.extend(rest)
        elif head == "init":
            for tok in rest:
                lit = _parse_literal(tok, where)
                if lit[0] != "fluent" or not lit[2]:
                    raise QnpParseError(f"{where}: init lists true fluents only")
                init_fluents.add(lit[1])
        elif head == "init_values":
            if len(rest) < 3 or rest[1] != "in":
                raise QnpParseError(f"{where}: expected 'init_values X in ...'")
            var = rest[0]
            spec = "".join(rest[2:])
            if spec.startswith("{") and spec.endswith("}"):
                vals = tuple(sorted(_parse_value(v, where) for v in spec[1:-1].split(",")))
                init_values[var] = InitDescriptor(kind="set", values=vals)
            elif spec.startswith("[") and spec.endswith("]"):
                lo, hi = (s.strip() for s in spec[1:-1].split(","))
                lo, hi = _parse_value(lo, where), _parse_value(hi, where)
                if lo > hi:
                    raise QnpParseError(f"{where}: empty interval")
                init_values[var] = InitDescriptor(kind="interval", values=(lo, hi))
            else:
                raise QnpParseError(f"{where}: expected {{..}} or [lo,hi]")
            if any(v < 0 for v in init_values[var].values):
                raise QnpSemanticError(f"{where}: negative initial value for {var}")
        elif head == "semantics":
            if not rest:
                raise QnpParseError(f"{where}: expected 'semantics X mode ...'")
            var, mode = rest[0], (rest[1] if len(rest) > 1 else "unit")
            if mode == "unit":
                semantics[var] = ConcreteSemantics(mode="unit")
            elif mode == "two_valued":
                semantics[var] = ConcreteSemantics(mode="two_valued")
            elif mode == "bounded":
                args = rest[2:]
                if len(args) not in (2, 4):
                    raise QnpParseError(f"{where}: bounded needs 'lo hi [grid g]'")
                lo, hi = _parse_value(args[0], where), _parse_value(args[1], where)
                grid = _parse_value(args[3], where) if len(args) == 4 else Fraction(1)
                if grid <= 0 or lo < 0 or hi < lo:
                    raise QnpParseError(f"{where}: bounded needs 0 <= lo <= hi and grid > 0")
                semantics[var] = ConcreteSemantics(mode="bounded", lo=lo, hi=hi, grid=grid)
            else:
                raise QnpParseError(f"{where}: unknown semantics mode {mode!r}")
        elif head == "action":
            finish_action()
            if len(rest) != 1:
                raise QnpParseError(f"{where}: expected 'action NAME'")
            current = {"name": rest[0], "pre": [], "add": [], "del": [], "inc": [], "dec": []}
        elif head in ("pre", "add", "del", "inc", "dec"):
            if current is None:
                raise QnpParseError(f"{where}: {head!r} outside an action block")
            if head == "pre":
                current["pre"].extend(_parse_literal(t, where) for t in rest)
            elif head in ("inc", "dec"):
                current[head].extend(rest)
            else:
                current[head].extend(rest)
        elif head == "goal":
            finish_action()
            goal = tuple(_parse_literal(t, where) for t in rest)
        else:
            raise QnpParseError(f"{where}: unknown directive {head!r}")
    finish_action()
    if goal is None:
        raise QnpParseError("missing goal")
    q = Qnp(
        fluents=frozenset(fluents),
        init_fluents=frozenset(init_fluents),
        actions=tuple(actions),
        goal=goal,
        variables=tuple(variables),
        init_values=init_values,
        semantics=semantics,
    )
    validate_qnp(q)
    return q


def _literal_text(lit):
    if lit[0] == "fluent":
        return lit[1] if lit[2] else f"!{lit[1]}"
    return f"{lit[1]}=0" if lit[2] == "zero" else f"{lit[1]}>0"


# ---------------------------------------------------------------------------
# States, identifiers and the transition function
# ---------------------------------------------------------------------------


def _obs_id(q, fluent_set, values):
    """Observation id: true fluents then one atom per variable."""
    parts = sorted(fluent_set)
    parts += [f"{v}=0" if x == 0 else f"{v}>0" for v, x in zip(q.variables, values)]
    return ",".join(parts)


def _state_id(q, fluent_set, values):
    parts = sorted(fluent_set)
    parts += [f"{v}={values[i]}" for i, v in enumerate(q.variables)]
    return ",".join(parts)


def reaches_goal(q, trajectory):
    """Whether a ``simulate`` trajectory visits a goal state, read back
    from the ``_state_id`` names it records."""
    for sid in trajectory.states:
        fluents, values = set(), {}
        for part in sid.split(","):
            name, eq, val = part.partition("=")
            if eq and name in q.variables:
                values[name] = Fraction(val)
            else:
                fluents.add(part)
        if _holds(q, q.goal, fluents, [values[v] for v in q.variables]):
            return True
    return False


def _holds(q, literals, fluent_set, values):
    """Whether every literal holds in the state ``(fluent_set, values)``."""
    for lit in literals:
        if lit[0] == "fluent":
            ok = (lit[1] in fluent_set) == lit[2]
        else:
            x = values[q.variables.index(lit[1])]
            ok = (x == 0) if lit[2] == "zero" else (x > 0)
        if not ok:
            return False
    return True


def _strips_apply(a, fluent_set):
    return frozenset((fluent_set - a.delete) | a.add)


def _outcomes(q, a, values, sems):
    """The sorted values each variable may take after ``a``, in variable
    order; ``sems`` holds each variable's ConcreteSemantics."""
    out = []
    for v, x, sem in zip(q.variables, values, sems):
        eff = a.numeric.get(v)
        if eff == "inc":
            out.append(sorted(sem.inc_outcomes(x)))
        elif eff == "dec":
            out.append(sorted(sem.dec_outcomes(x)))
        else:
            out.append([x])
    return out


def _explore(q, starts, sems, name, cls, bound=None):
    """The problem of class ``cls`` grounded on the states reachable from
    the ``(fluents, values)`` pairs ``starts``, each state called
    ``name(q, fluents, values)`` and observed by its zero/positive
    booleans.  Values above ``bound`` are capped, which the annotations
    record since capping can cut behaviors."""
    states = {st: name(q, *st) for st in starts}
    queue = list(states)
    succ = {}
    avail = {}
    capped = False
    while queue:
        st = queue.pop()
        fl, vals = st
        sid = states[st]
        acts = []
        for a in q.actions:
            if not _holds(q, a.pre, fl, vals):
                continue
            acts.append(a.name)
            options = _outcomes(q, a, vals, sems)
            if bound is not None:
                capped = capped or any(o > bound for opts in options for o in opts)
                options = [sorted({min(o, bound) for o in opts}) for opts in options]
            fl2 = _strips_apply(a, fl)
            ids = set()
            for new_vals in product(*options):
                t = (fl2, new_vals)
                if t not in states:
                    states[t] = name(q, *t)
                    queue.append(t)
                ids.add(states[t])
            succ[(a.name, sid)] = frozenset(ids)
        avail[sid] = frozenset(acts)

    obs_fn = {}
    obs_zero = {}
    goal_states = set()
    for (fl, vals), sid in states.items():
        o = obs_fn[sid] = _obs_id(q, fl, vals)
        obs_zero[o] = sorted(v for v, x in zip(q.variables, vals) if x == 0)
        if _holds(q, q.goal, fl, vals):
            goal_states.add(sid)
    annotations = {  # effect tags and declared variables, read by constraint binding
        "variables": list(q.variables),
        "action_effects": {a.name: dict(a.numeric) for a in q.actions},
        "obs_zero": obs_zero,
    }
    if capped:
        annotations["capped"] = True
    return cls(
        states=frozenset(states.values()),
        init=frozenset(states[st] for st in starts),
        observations=frozenset(obs_fn.values()),
        actions=frozenset(a.name for a in q.actions),
        goal_states=frozenset(goal_states),
        avail=avail,
        obs_fn=obs_fn,
        succ=succ,
        annotations=annotations,
    )


# ---------------------------------------------------------------------------
# Instantiation (concrete PONDP) and unbounded simulation
# ---------------------------------------------------------------------------


def instantiate(q, chosen, bound):
    """The concrete finite problem for one choice of initial values.

    States pair a fluent valuation with a variable valuation; observations
    collapse values to the zero/positive booleans.  Values above ``bound``
    are capped (recorded in the annotations, since capping can cut
    behaviors); with unit semantics and integer values the instance is
    deterministic.
    """
    validate_qnp(q)
    bound = Fraction(bound)
    values0 = []
    for v in q.variables:
        if v not in chosen:
            raise OutOfRangeError(f"no initial value chosen for {v!r}")
        val = Fraction(chosen[v])
        if not q.init_values[v].contains(val):
            raise OutOfRangeError(f"{v}={val} outside the declared descriptor")
        if val > bound:
            raise BoundTooSmallError(f"bound {bound} below initial {v}={val}")
        values0.append(val)
    sems = [q.semantics_for(v) for v in q.variables]
    return _explore(q, [(q.init_fluents, tuple(values0))], sems, _state_id, Pondp, bound)


def simulate(q, mu, chosen, seed=0, max_steps=100000, stop_at_goal=True):
    """Unbounded symbolic walk of a policy on a concrete instance; numeric
    values are exact rationals and are never truncated.  Nondeterministic
    outcomes are resolved by a seeded RNG."""
    validate_qnp(q)
    rng = SeededResolver(seed).rng
    fl = q.init_fluents
    vals = tuple(_parse_value(chosen[v], f"initial value of {v}") for v in q.variables)
    for i, v in enumerate(q.variables):
        if not q.init_values[v].contains(vals[i]):
            raise OutOfRangeError(f"{v}={vals[i]} outside the declared descriptor")
    sems = [q.semantics_for(v) for v in q.variables]
    mem = mu.initial
    states = [_state_id(q, fl, vals)]
    actions = []
    by_name = {a.name: a for a in q.actions}
    while len(actions) < max_steps:
        if stop_at_goal and _holds(q, q.goal, fl, vals):
            return FiniteTrajectory(states=tuple(states), actions=tuple(actions))
        obs = _obs_id(q, fl, vals)
        name = mu.output.get((mem, obs))
        if name is None:
            return FiniteTrajectory(states=tuple(states), actions=tuple(actions))
        mem = mu.next_memory(mem, obs)
        a = by_name.get(name)
        if a is None or not _holds(q, a.pre, fl, vals):
            raise InvalidPolicyError(
                f"policy picked inapplicable action {name!r} at {states[-1]!r}"
            )
        fl = _strips_apply(a, fl)
        vals = tuple(opts[rng.randrange(len(opts))] for opts in _outcomes(q, a, vals, sems))
        actions.append(name)
        states.append(_state_id(q, fl, vals))
    return FiniteTrajectory(
        states=tuple(states), actions=tuple(actions), truncated=True
    )


# ---------------------------------------------------------------------------
# Syntactic projection
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SyntacticProjection:
    """The boolean abstraction as a FONDP plus its STRIPS-style description
    with nondeterministic conditional effects."""

    fondp: Fondp
    description: dict


def syntactic_projection(q):
    """Boolean problem over F plus the atoms X=0 / X>0: increments set the
    positive atom, decrements branch 'if X>0 then X>0 | X=0'.  This is the
    two-valued instance (values 0 and 1) from every initial valuation the
    descriptors allow, with each state named by its observation."""
    validate_qnp(q)
    init_options = [
        [x for x, ok in ((0, d.zero_possible), (1, d.positive_possible)) if ok]
        for d in (q.init_values[v] for v in q.variables)
    ]
    starts = [(q.init_fluents, vals) for vals in product(*init_options)]
    sems = [ConcreteSemantics(mode="two_valued")] * len(q.variables)
    fondp = _explore(q, starts, sems, _obs_id, Fondp)
    description = {
        "atoms": sorted(q.fluents) + [f"{v}=0" for v in q.variables] + [f"{v}>0" for v in q.variables],
        "actions": {
            a.name: {
                "pre": [_literal_text(l) for l in a.pre],
                "add": sorted(a.add),
                "del": sorted(a.delete),
                "numeric": {
                    v: (f"{v}>0" if e == "inc" else f"if {v}>0 then {v}>0 | {v}=0")
                    for v, e in sorted(a.numeric.items())
                },
            }
            for a in q.actions
        },
    }
    return SyntacticProjection(fondp=fondp, description=description)


# ---------------------------------------------------------------------------
# Similarity, the two-valued variant, closure
# ---------------------------------------------------------------------------


def similar(q1, q2):
    """Similar QNPs differ at most in concrete semantics and initial-value
    descriptors, with matching zero/positive possibility flags."""
    if q1.fluents != q2.fluents or q1.init_fluents != q2.init_fluents:
        return False
    if q1.goal != q2.goal or q1.variables != q2.variables:
        return False
    if q1.actions != q2.actions:
        return False
    for v in q1.variables:
        d1, d2 = q1.init_values[v], q2.init_values[v]
        if d1.zero_possible != d2.zero_possible:
            return False
        if d1.positive_possible != d2.positive_possible:
            return False
    return True


def close_qnp(q):
    """The commitment transformation enabling fair FOND planning.

    Requires every decrementing action to decrement a single variable with
    the observable precondition X>0.  Adds a commitment fluent per variable
    with set/unset actions; decrements then require the commitment and
    increments its absence, so an unfair decrement loop would have to
    observe X=0 to release the commitment.  Raises NotClosureEligibleError
    on the first of the QNP's `closure_diagnostics`.
    """
    diagnostics = closure_diagnostics(q)
    if diagnostics:
        name, message = diagnostics[0]
        raise NotClosureEligibleError(f"action {name!r} {message}", action=name)

    def qflag(v):
        return f"q_{v}"

    new_actions = []
    for a in q.actions:
        pre = list(a.pre)
        for v, e in sorted(a.numeric.items()):
            if e == "dec":
                pre.append(("fluent", qflag(v), True))
            else:
                pre.append(("fluent", qflag(v), False))
        new_actions.append(
            QnpAction(name=a.name, pre=tuple(pre), add=a.add, delete=a.delete,
                      numeric=dict(a.numeric))
        )
    for v in q.variables:
        new_actions.append(
            QnpAction(name=f"set({v})", pre=(), add=frozenset({qflag(v)}))
        )
        new_actions.append(
            QnpAction(
                name=f"unset({v})",
                pre=(("var", v, "zero"),),
                delete=frozenset({qflag(v)}),
            )
        )
    return Qnp(
        fluents=q.fluents | {qflag(v) for v in q.variables},
        init_fluents=q.init_fluents,
        actions=tuple(new_actions),
        goal=q.goal,
        variables=q.variables,
        init_values=q.init_values,
        semantics=q.semantics,
    )
