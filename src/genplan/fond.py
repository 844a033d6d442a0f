"""Strong-cyclic (fair) FOND planning over explicit fully observable
problems, and verification of the produced policies.

The planner is the standard pruning fixpoint: repeatedly discard states
from which the goal is unreachable using only actions whose outcomes all
stay inside the surviving set.  Auditability beats speed at this scale, so
no heuristic search is involved, and the output is made deterministic by
distance-minimizing, lowest-named action choice.
"""

from __future__ import annotations

from collections import deque

from .ltl import DEFAULT_BUDGET
from .model import FAIR, Policy, check_solution

UNSOLVABLE = "UNSOLVABLE"


def strong_cyclic_plan(p):
    """A memoryless policy that is a fair solution to ``p``, or UNSOLVABLE.

    In the policy-restricted graph, from every initial state: no non-goal
    dead ends, and every reachable non-goal state can reach a goal state.
    """
    safe = set(p.states)
    while True:
        # one pass over the actions whose outcomes all stay inside safe:
        # predecessor lists labelled with the action
        pred = {s: [] for s in safe}
        for s in safe:
            for a in p.avail.get(s, ()):
                targets = p.succ[(a, s)]
                if targets <= safe:
                    edge = (s, a)
                    for t in targets:
                        pred[t].append(edge)
        # breadth first from the goal: each state's distance, and the
        # lowest-named action with an outcome one layer closer
        dist = dict.fromkeys(safe & p.goal_states, 0)
        choice = {}
        queue = deque(dist)
        while queue:
            t = queue.popleft()
            d = dist[t] + 1
            for s, a in pred[t]:
                ds = dist.get(s)
                if ds is None:
                    dist[s] = d
                    choice[s] = a
                    queue.append(s)
                elif ds == d and str(a) < str(choice[s]):
                    choice[s] = a
        if len(dist) == len(safe):
            break
        safe = set(dist)
    if not (p.init <= safe):
        return UNSOLVABLE

    reachable = set()
    queue = [s for s in p.init if s not in p.goal_states]
    reachable.update(queue)
    mapping = {}
    while queue:
        s = queue.pop()
        a, o = choice[s], p.obs_fn[s]
        # an observation gets the least action (by str) of its states
        b = mapping.get(o)
        if b is None or (b != a and str(a) < str(b)):
            mapping[o] = a
        for t in p.succ[(a, s)]:
            if t not in reachable and t not in p.goal_states:
                reachable.add(t)
                queue.append(t)
    return Policy.memoryless(mapping)


def verify_strong_cyclic(p, mu, budget=DEFAULT_BUDGET):
    """Delegates to the fair-solution check; the verdict carries a fair
    counterexample lasso (a reachable non-goal bottom component) on failure.
    ``budget`` caps the policy product it builds."""
    return check_solution(p, mu, FAIR, budget=budget)
