"""Strong-cyclic (fair) FOND planning over explicit fully observable
problems, and verification of the produced policies.

The planner is the standard pruning fixpoint: repeatedly discard states
from which the goal is unreachable using only actions whose outcomes all
stay inside the surviving set.  Auditability beats speed at this scale, so
no heuristic search is involved, and the output is made deterministic by
distance-minimizing, lowest-named action choice.
"""

from __future__ import annotations

from . import graph
from .model import FAIR, Policy, check_solution

UNSOLVABLE = "UNSOLVABLE"


def strong_cyclic_plan(p):
    """A memoryless policy that is a fair solution to ``p``, or UNSOLVABLE.

    In the policy-restricted graph, from every initial state: no non-goal
    dead ends, and every reachable non-goal state can reach a goal state.
    """
    safe = set(p.states)
    while True:
        usable = {
            s: [a for a in p.avail.get(s, ()) if p.succ[(a, s)] <= safe] for s in safe
        }
        # distance to the goal through usable actions, from one backward search
        dist = graph.backward_reachable(
            safe,
            lambda s: [t for a in usable[s] for t in p.succ[(a, s)]],
            safe & p.goal_states,
        )
        if dist.keys() == safe:
            break
        safe = set(dist)
    if not (p.init <= safe):
        return UNSOLVABLE

    # distance-minimizing deterministic extraction: the lowest-named usable
    # action with an outcome one step closer to the goal
    choice = {
        s: min(
            (a for a in usable[s] if any(dist[t] == dist[s] - 1 for t in p.succ[(a, s)])),
            key=str,
        )
        for s in safe - p.goal_states
    }

    reachable = set()
    queue = [s for s in p.init if s not in p.goal_states]
    reachable.update(queue)
    mapping = {}
    while queue:
        s = queue.pop()
        a = choice[s]
        mapping[p.obs_fn[s]] = a
        for t in p.succ[(a, s)]:
            if t not in reachable and t not in p.goal_states:
                reachable.add(t)
                queue.append(t)
    return Policy.memoryless(mapping)


def verify_strong_cyclic(p, mu):
    """Delegates to the fair-solution check; the verdict carries a fair
    counterexample lasso (a reachable non-goal bottom component) on failure."""
    return check_solution(p, mu, FAIR)
