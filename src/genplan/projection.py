"""Observation projection of a class of problems.

The projection aggregates, over the observation space shared by all
members, every transition witnessed by any member.  It is the single
abstract fully observable problem that class-wide policies are computed
on; the correspondence properties relating member trajectories to projection
trajectories are exercised by the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidClassError, MalformedInputError
from .model import (
    FiniteTrajectory,
    Lasso,
    Pondp,
    check_trajectory,
    numbered,
    validate_class,
)


@dataclass(frozen=True, eq=False)
class Fondp(Pondp):
    """A fully observable problem: states are their own observations."""

    def __post_init__(self):
        super().__post_init__()
        for s in self.states:
            if self.obs_fn[s] != s:
                raise MalformedInputError(f"obs({s!r}) != {s!r}: not fully observable")


def as_fondp(p):
    """View an identity-observed Pondp as a Fondp sharing its fields and
    numbered form; MalformedInputError unless it is valid and fully observable."""
    if isinstance(p, Fondp):
        return p
    n = numbered(p)
    for s, o in zip(n.states, n.obs):
        if n.observations[o] != s:
            raise MalformedInputError(f"obs({s!r}) != {s!r}: not fully observable")
    f = object.__new__(Fondp)
    f.__dict__.update(vars(p))
    return f


@dataclass(frozen=True, eq=False)
class Projection:
    """Result of projecting a class: the FONDP, a provenance table mapping
    each abstract transition to one witnessing member transition, and
    diagnostics for declared actions with no witnessed source."""

    fondp: Fondp
    provenance: dict  # (obs, action, obs') -> (member index, s, a, s')
    diagnostics: tuple


def project(cls, annotations=None):
    """Observation projection of an explicit finite class.

    States are the observations, an observation is initial iff some member
    starts in it, goals are the goal observations, availability follows the
    shared per-observation action sets, and an abstract transition exists
    iff some member witnesses it.  Available actions with no witnessed
    source occurrence are excluded at that observation and reported as
    diagnostics rather than given invented transitions.
    """
    problems = validate_class(cls)
    if problems:
        raise InvalidClassError("class fails validation", diagnostics=problems)

    init = set()
    succ = {}
    provenance = {}
    for idx, p in enumerate(cls.members):
        n = numbered(p)
        names, acts, obs = n.states, n.actions, [n.observations[o] for o in n.obs]
        init.update(obs[i] for i in n.init)
        for i, (ks, outs) in enumerate(zip(n.avail, n.succ)):
            for k, targets in zip(ks, outs):
                for t in targets:
                    if (obs[i], acts[k], obs[t]) not in provenance:
                        succ.setdefault((acts[k], obs[i]), set()).add(obs[t])
                        provenance[obs[i], acts[k], obs[t]] = (idx, names[i], acts[k], names[t])

    avail = {}
    diagnostics = []
    for w in cls.observations:
        present = set()
        for a in cls.avail_by_obs.get(w, frozenset()):
            if (a, w) in succ:
                present.add(a)
            else:
                diagnostics.append(
                    (
                        "no witnessed transition",
                        f"action {a!r} declared at observation {w!r} but no member "
                        "witnesses it; excluded from the projection",
                        (w, a),
                    )
                )
        avail[w] = frozenset(present)

    if annotations is None:
        # observation-level metadata (effect tags, zero atoms, declared
        # variables) transfers directly from the members to the projection
        annotations = {}
        for p in cls.members:
            for key in ("action_effects", "obs_zero"):
                if key in p.annotations:
                    annotations.setdefault(key, {}).update(p.annotations[key])
            for v in p.annotations.get("variables", ()):
                vs = annotations.setdefault("variables", [])
                if v not in vs:
                    vs.append(v)

    fondp = Fondp(
        states=frozenset(cls.observations),
        init=frozenset(init),
        observations=frozenset(cls.observations),
        actions=frozenset(cls.actions),
        goal_states=frozenset(cls.goal_observations),
        avail=avail,
        obs_fn={w: w for w in cls.observations},
        succ={k: frozenset(v) for k, v in succ.items()},
        annotations=dict(annotations or {}),
    )
    return Projection(fondp=fondp, provenance=provenance, diagnostics=tuple(diagnostics))


def observation_projection(cls, annotations=None):
    return project(cls, annotations=annotations).fondp


def lift_trajectory(p, t):
    """Apply the observation function elementwise; prefix/cycle structure is
    preserved for lassos."""
    check_trajectory(p, t)
    if isinstance(t, FiniteTrajectory):
        return FiniteTrajectory(
            states=tuple(p.obs_fn[s] for s in t.states),
            actions=t.actions,
            level="observation",
            truncated=t.truncated,
        )
    return Lasso(
        prefix_states=tuple(p.obs_fn[s] for s in t.prefix_states),
        prefix_actions=t.prefix_actions,
        cycle_states=tuple(p.obs_fn[s] for s in t.cycle_states),
        cycle_actions=t.cycle_actions,
        level="observation",
    )
