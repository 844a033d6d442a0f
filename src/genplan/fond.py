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
from .model import FAIR, Policy, check_solution, numbered

UNSOLVABLE = "UNSOLVABLE"


def strong_cyclic_plan(p):
    """A memoryless policy that is a fair solution to ``p``, or UNSOLVABLE.

    In the policy-restricted graph, from every initial state: no non-goal
    dead ends, and every reachable non-goal state can reach a goal state.
    """
    n = numbered(p)
    avail, succ, goal = n.avail, n.succ, n.goal
    safe = set(range(len(n.states)))
    while True:
        # one pass over the actions whose outcomes all stay inside safe:
        # predecessor lists labelled with the action
        pred = [[] for _ in n.states]
        for s in safe:
            for k, targets in zip(avail[s], succ[s]):
                if safe.issuperset(targets):
                    edge = (s, k)
                    for t in targets:
                        pred[t].append(edge)
        # breadth first from the goal: each state's distance, and the
        # lowest-named action with an outcome one layer closer
        dist = dict.fromkeys((s for s in safe if goal[s]), 0)
        choice = {}
        queue = deque(dist)
        while queue:
            t = queue.popleft()
            d = dist[t] + 1
            for s, k in pred[t]:
                ds = dist.get(s)
                if ds is None:
                    dist[s] = d
                    choice[s] = k
                    queue.append(s)
                elif ds == d and k < choice[s]:
                    choice[s] = k
        if len(dist) == len(safe):
            break
        safe = set(dist)
    if not safe.issuperset(n.init):
        return UNSOLVABLE

    queue = [s for s in n.init if not goal[s]]
    reachable = set(queue)
    best = {}
    while queue:
        s = queue.pop()
        k, o = choice[s], n.obs[s]
        # an observation gets the least action of its states
        best[o] = min(k, best.get(o, k))
        for t in succ[s][avail[s].index(k)]:
            if t not in reachable and not goal[t]:
                reachable.add(t)
                queue.append(t)
    return Policy.memoryless({n.observations[o]: n.actions[best[o]] for o in sorted(best)})


def verify_strong_cyclic(p, mu, budget=DEFAULT_BUDGET):
    """Delegates to the fair-solution check; the verdict carries a fair
    counterexample lasso (a reachable non-goal bottom component) on failure.
    ``budget`` caps the policy product it builds."""
    return check_solution(p, mu, FAIR, budget=budget)
