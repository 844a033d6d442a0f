"""Generalized planning over observation projections.

A toolkit for solving a single abstract fully observable nondeterministic
problem under LTL trajectory constraints and transferring the resulting
policy to every concrete problem in the class, either through reactive
synthesis (Buchi -> parity automata -> parity games) or, for qualitative
numerical problems, through compilation to fair FOND planning.
"""

from .constraints import (
    ALL_TRAJECTORIES,
    TrajectoryConstraint,
    conjoin,
    fairness_constraint,
    implies,
    qnp_constraint,
    qnp_constraints,
    satisfies,
)
from .fond import UNSOLVABLE, strong_cyclic_plan
from .model import (
    FAIR,
    STRONG,
    FiniteTrajectory,
    Lasso,
    Policy,
    Pondp,
    PondpClass,
    Under,
    Verdict,
    check_solution,
    infer_class,
    is_fair,
    is_goal_reaching,
    run_policy,
    step,
    validate,
)
from .omega import SynthesisResult, solve_parity, synthesize
from .projection import Fondp, lift_trajectory, observation_projection, project
from .qnp import (
    Qnp,
    close_qnp,
    instantiate,
    parse_qnp,
    similar,
    simulate,
    syntactic_projection,
)

__version__ = "0.1.0"

__all__ = [
    "ALL_TRAJECTORIES",
    "FAIR",
    "STRONG",
    "FiniteTrajectory",
    "Fondp",
    "Lasso",
    "Policy",
    "Pondp",
    "PondpClass",
    "Qnp",
    "SynthesisResult",
    "TrajectoryConstraint",
    "UNSOLVABLE",
    "Under",
    "Verdict",
    "check_solution",
    "close_qnp",
    "conjoin",
    "fairness_constraint",
    "implies",
    "infer_class",
    "instantiate",
    "is_fair",
    "is_goal_reaching",
    "lift_trajectory",
    "observation_projection",
    "parse_qnp",
    "project",
    "qnp_constraint",
    "qnp_constraints",
    "run_policy",
    "satisfies",
    "similar",
    "simulate",
    "solve_parity",
    "step",
    "strong_cyclic_plan",
    "synthesize",
    "syntactic_projection",
    "validate",
]
