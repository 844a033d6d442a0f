"""Graph searches and the one partition refinement shared by both decision
engines, their automata and their witnesses.

One Streett search (`streett_component`) decides every acceptance cycle:
parity, Büchi, counters, fairness, and any cycle at all (no requests).
One builder (`streett_walk`) turns the component it finds into a cycle
that answers the same requests, and `model._lasso` folds every such
cycle into a lasso by `period`.  One backward search
(`backward_reachable`) ranks the nodes that reach a set, and with
universal nodes it is Zielonka's attractor.

A graph is given by its nodes and a successor function ``succ(v)`` that
returns a list of nodes (``refine`` reads labelled edges instead).  Ties
are broken by list order: nodes and sources in the order the caller gives
them, successors in the order ``succ`` returns them.  Callers list a
product's nodes in the order it found them, so every search is
deterministic, no witness depends on what the nodes are called, and
witnesses are reproducible byte for byte.  Standard library only;
nothing here knows about problems, automata or games.
"""

from __future__ import annotations

from collections import Counter, defaultdict, deque


def sccs(nodes, succ):
    """Tarjan's algorithm, iterative; yields the strongly connected
    components, each as a list, as Tarjan completes them."""
    index = {}
    low = {}
    on_stack = set()
    stack = []
    counter = [0]
    for root in nodes:
        if root in index:
            continue
        work = [(root, iter(succ(root)))]
        index[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = low[w] = counter[0]
                    counter[0] += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(succ(w))))
                    advanced = True
                    break
                if w in on_stack:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                pv = work[-1][0]
                low[pv] = min(low[pv], low[v])
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w == v:
                        break
                yield comp


def has_cycle(comp, succ):
    """Whether a strongly connected component contains a cycle: it has more
    than one node, or its one node has a self-loop."""
    return len(comp) > 1 or comp[0] in succ(comp[0])


def reachable(sources, succ, blocked=()):
    """The set of nodes reachable from ``sources`` without entering a node
    of ``blocked``: such a node, even a source, is neither expanded nor
    returned."""
    seen = {v for v in sources if v not in blocked}
    stack = list(seen)
    while stack:
        for w in succ(stack.pop()):
            if w not in seen and w not in blocked:
                seen.add(w)
                stack.append(w)
    return seen


def backward_reachable(nodes, succ, targets, universal=None):
    """``targets`` together with the members of ``nodes`` that reach them
    through members of ``nodes``, as a dict from each to its rank: 0 at a
    target, else one more than the least rank of its successors.  A node
    where ``universal(v)`` holds joins only once every successor ``succ(v)``
    lists has joined, one step after the last: with none listed, it never
    joins unless it is a target.  With the opponent's nodes universal, this
    is a player's attractor (Zielonka, TCS 1998).

    Only edges leaving ``nodes`` are read.  The predecessor lists are
    built once and searched breadth first, so the cost is linear in those
    edges."""
    pred = defaultdict(list)
    left = {}  # universal node -> the number of its listed successors yet to join
    for v in nodes:
        out = succ(v)
        for w in out:
            pred[w].append(v)
        if universal is not None and universal(v):
            left[v] = len(out)
    dist = dict.fromkeys(targets, 0)
    queue = deque(dist)
    while queue:
        w = queue.popleft()
        for v in pred.get(w, ()):
            if v in dist:
                continue
            if v in left:
                left[v] -= 1
                if left[v]:
                    continue
            dist[v] = dist[w] + 1
            queue.append(v)
    return dist


def shortest_path(sources, succ, targets, allowed=None, nonempty=False):
    """A shortest path ``[source, ..., target]`` from a node of
    ``sources`` to a node of ``targets``, or None.

    Breadth first; the first path found wins.  The nodes strictly between
    the ends lie in ``allowed`` (any node when None).  A source that is a
    target is the path ``[source]`` unless ``nonempty`` asks for at least
    one edge."""
    if not nonempty:
        for s in sources:
            if s in targets:
                return [s]
    parent = dict.fromkeys(sources)
    queue = deque(parent)
    while queue:
        u = queue.popleft()
        for w in succ(u):
            if w in targets:
                path = [w, u]
                while parent[path[-1]] is not None:
                    path.append(parent[path[-1]])
                path.reverse()
                return path
            if w not in parent and (allowed is None or w in allowed):
                parent[w] = u
                queue.append(w)
    return None


def streett_component(nodes, succ, requests, answers):
    """The first strongly connected set inside ``nodes`` that has a cycle
    and answers every request its members make, as a list in the order of
    ``nodes``, or None: Streett emptiness by SCC refinement (Emerson & Lei,
    1987).  Node v makes the requests ``requests(v)``, the edge from v to w
    answers ``answers(v, w)``.  A cyclic component with a request that none
    of its inner edges answers loses the nodes that make one, and the rest
    is split again, depth first, in Tarjan's order over ``nodes``."""
    rank = {v: k for k, v in enumerate(nodes)}

    def search(region):
        def inner(v):
            return [w for w in succ(v) if w in region]

        for comp in sccs(region, inner):
            if has_cycle(comp, inner):
                comp.sort(key=rank.__getitem__)
                members = set(comp)
                answered = [answers(v, w) for v in comp for w in inner(v) if w in members]
                bad = set().union(*map(requests, comp)).difference(*answered)
                if not bad:
                    return comp
                found = search(dict.fromkeys(v for v in comp if not requests(v) & bad))
                if found is not None:
                    return found
        return None

    return search(rank)


def streett_walk(comp, succ, requests, answers):
    """A closed walk inside the strongly connected set ``comp`` whose
    edges answer every request a member makes (`streett_component` finds
    such sets), as a node list that closes back to its first node.

    From ``comp[0]``, it goes by a shortest path to the nearest node with
    an inner edge answering an open request, takes of those edges the one
    whose end is nearest the start (the first in ``succ`` order on a tie),
    and repeats until nothing is open; a shortest path closes it.  Without
    requests, or when each edge of the start answers all of them (as at an
    accepting node of one Büchi condition), it is the shortest cycle
    through the start.  Each inner edge's answers are computed once."""
    members = set(comp)
    out = {v: {w: answers(v, w) for w in succ(v) if w in members} for v in comp}
    todo = set().union(*map(requests, comp))
    offered = defaultdict(list)  # request -> the nodes with an inner edge answering it
    for v, edges in out.items():
        for r in set().union(*edges.values()) & todo:
            offered[r].append(v)
    left = Counter(v for vs in offered.values() for v in vs)  # the open requests each offers
    walk = [comp[0]]
    home = backward_reachable(comp, out.__getitem__, walk)
    while todo:
        path = shortest_path(walk[-1:], out.__getitem__, left)
        w = min((w for w, a in out[path[-1]].items() if a & todo), key=home.__getitem__)
        for r in out[path[-1]][w] & todo:
            todo.remove(r)
            for v in offered[r]:
                left[v] -= 1
                if not left[v]:
                    del left[v]
        walk += path[1:] + [w]
    walk += shortest_path(walk[-1:], out.__getitem__, walk[:1], nonempty=len(walk) == 1)[1:]
    return walk[:-1]


def refine(nodes, label, succ):
    """The coarsest partition of ``nodes`` that refines ``label`` and is
    stable: members of a class have the same set of (edge label, class)
    pairs.  ``succ(v)`` lists the labelled edges ``(edge label, w)`` of v.

    Naive signature refinement: each round splits every class by the
    signatures of its members, until a round splits nothing.  Nodes, edge
    labels and ``label`` values are numbered first, so a signature is a
    class and a set of ints ``edge label + k * class``.  Returns a dict
    from each node to its class number; classes are numbered by their
    first member in the order of ``nodes``."""
    nodes = list(nodes)
    index, letters, values = {v: i for i, v in enumerate(nodes)}, {}, {}
    edges = [[(letters.setdefault(a, len(letters)), index[w]) for a, w in succ(v)] for v in nodes]
    block = [values.setdefault(label(v), len(values)) for v in nodes]
    k, count = len(letters), len(values)
    # a round only splits classes: all singletons or an unchanged count is final
    while count < len(nodes):
        classes = {}
        sigs = ((b, frozenset(a + k * block[j] for a, j in out)) for b, out in zip(block, edges))
        block = [classes.setdefault(sig, len(classes)) for sig in sigs]
        if len(classes) == count:
            break
        count = len(classes)
    return dict(zip(nodes, block))


def period(walk):
    """The length of the shortest prefix that repeats into ``walk``."""
    n = len(walk)
    return next(d for d in range(1, n + 1) if n % d == 0 and walk[d:] == walk[:n - d])
