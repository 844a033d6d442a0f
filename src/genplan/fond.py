"""Strong-cyclic (fair) FOND planning over explicit fully observable
problems; `model.check_solution` in FAIR mode verifies the policies.

The planner is the standard pruning fixpoint: repeatedly discard states
from which the goal is unreachable using only actions whose outcomes all
stay inside the surviving set.  Auditability beats speed at this scale, so
no heuristic search is involved, and the output is made deterministic by
distance-minimizing, lowest-named action choice.  The final walk is
`graph.reachable` from the initial states, goals blocked, and each
observation it meets gets the least action chosen at its states.

It keeps its own layered search over state ids, not
`graph.backward_reachable`, because it picks each state's action during
the search: a version on `graph.backward_reachable` that chose in a
forward pass took 25.6 ms against 17.4–19.1 ms on the `plan-concrete`
problem `c0_chain3_18`, and 74–80 ms against 48–50 ms over all of them
(seed 1, in one process, best of 7).
"""

from __future__ import annotations

from collections import deque

from . import graph
from .model import Policy, numbered

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

    goals = {s for s in safe if goal[s]}
    best = {}
    for s in graph.reachable(n.init, lambda s: succ[s][avail[s].index(choice[s])], goals):
        k, o = choice[s], n.obs[s]
        best[o] = min(k, best.get(o, k))
    return Policy.memoryless({n.observations[o]: n.actions[best[o]] for o in sorted(best)})

