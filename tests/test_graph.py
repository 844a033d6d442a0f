"""Property tests for the graph kernel against brute-force oracles on
random small digraphs."""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from genplan import graph
from genplan.omega import cycle_with_max_parity

from .helpers import _can_reach, _dominant_cycle_nodes, greatest_bisimulation


@st.composite
def digraphs(draw, max_nodes=8):
    """(nodes, successor lists, priorities) with nodes 0..n-1."""
    n = draw(st.integers(1, max_nodes))
    succ = [
        sorted(set(draw(st.lists(st.integers(0, n - 1), max_size=3))))
        for _ in range(n)
    ]
    priority = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
    return list(range(n)), succ, priority


def closure(nodes, succ):
    """reach[v]: the nodes reachable from v by a path of one or more edges."""
    reach = {v: set(succ[v]) for v in nodes}
    for k in nodes:
        for v in nodes:
            if k in reach[v]:
                reach[v] |= reach[k]
    return reach


def is_closed_walk(walk, succ):
    return all(walk[(i + 1) % len(walk)] in succ[v] for i, v in enumerate(walk))


@settings(max_examples=300, deadline=None)
@given(digraphs())
def test_sccs_are_mutual_reachability_classes(g):
    nodes, succ, _ = g
    reach = closure(nodes, succ)
    expected = {
        frozenset([v] + [w for w in nodes if w in reach[v] and v in reach[w]])
        for v in nodes
    }
    comps = list(graph.sccs(nodes, succ.__getitem__))
    assert sorted(v for comp in comps for v in comp) == nodes
    assert {frozenset(comp) for comp in comps} == expected
    for comp in comps:
        assert graph.has_cycle(comp, succ.__getitem__) == (comp[0] in reach[comp[0]])


def attractor(nodes, succ, targets, universal):
    """The least set holding ``targets``, every node with a successor in
    it, and every node of ``universal`` with successors, all in it."""
    out = set(targets)
    changed = True
    while changed:
        changed = False
        for v in nodes:
            join = all if v in universal else any
            if v not in out and succ[v] and join(w in out for w in succ[v]):
                out.add(v)
                changed = True
    return out


@settings(max_examples=300, deadline=None)
@given(digraphs(), st.sets(st.integers(0, 7)), st.sets(st.integers(0, 7)))
def test_backward_reachable_matches_oracle(g, targets, universal):
    """Without universal nodes, the members are the nodes that reach a
    target, ranked by their distance to one; with some, the members are
    the attractor, and a universal node ranks one after its last
    successor."""
    nodes, succ, _ = g
    targets = {t for t in targets if t < len(nodes)}
    dist = graph.backward_reachable(nodes, succ.__getitem__, targets)
    assert set(dist) == _can_reach(set(nodes), succ.__getitem__, targets)
    rank = graph.backward_reachable(nodes, succ.__getitem__, targets, universal.__contains__)
    assert set(rank) == attractor(nodes, succ, targets, universal)
    for ranks, every in ((dist, set()), (rank, universal)):
        for v, d in ranks.items():
            if v in targets:
                assert d == 0
            elif v in every:
                assert d == 1 + max(ranks[w] for w in succ[v])
            else:
                assert d == 1 + min(ranks[w] for w in succ[v] if w in ranks)
    assert graph.reachable([0], succ.__getitem__) == {0} | closure(nodes, succ)[0]
    # targets as blocked nodes: a blocked source is neither expanded nor returned
    kept = {v: [w for w in succ[v] if w not in targets] for v in nodes}
    free = set() if 0 in targets else {0} | closure(nodes, kept)[0]
    assert graph.reachable([0], succ.__getitem__, targets) == free


@settings(max_examples=300, deadline=None)
@given(digraphs(), st.sets(st.integers(0, 7)), st.booleans())
def test_shortest_path_is_shortest(g, targets, nonempty):
    nodes, succ, _ = g
    targets = {t for t in targets if t < len(nodes)}
    path = graph.shortest_path([0], succ.__getitem__, targets, nonempty=nonempty)
    # BFS layers from 0 by brute force: layer k holds the ends of k-edge walks
    layers = [{0}]
    for _ in nodes:
        layers.append({w for v in layers[-1] for w in succ[v]})
    hits = [k for k, layer in enumerate(layers) if layer & targets and (k or not nonempty)]
    if not hits:
        assert path is None
        return
    assert path[0] == 0 and path[-1] in targets
    assert all(w in succ[v] for v, w in zip(path, path[1:]))
    assert len(path) - 1 == hits[0]


@st.composite
def parity_graphs(draw, max_nodes=8):
    """(nodes, successor lists, priorities) as `digraphs` draws them, with
    priorities of one to three entries in 0..4: an int for one entry, a
    tuple for more."""
    nodes, succ, _ = draw(digraphs(max_nodes))
    k = draw(st.integers(1, 3))
    row = st.tuples(*[st.integers(0, 4)] * k)
    rows = draw(st.lists(row, min_size=len(nodes), max_size=len(nodes)))
    return nodes, succ, [row[0] if k == 1 else row for row in rows]


@settings(max_examples=400, deadline=None)
@given(parity_graphs(), st.integers(0, 1))
def test_cycle_with_max_parity_matches_oracle(g, parity):
    """A cycle whose maximum has the given parity in every entry is found
    iff the brute-force oracle (one SCC pass per tuple of tops) finds one,
    and the cycle returned is a closed walk with such a maximum."""
    nodes, succ, priority = g
    cycle = cycle_with_max_parity(nodes, succ.__getitem__, priority, parity)
    oracle = _dominant_cycle_nodes(set(nodes), succ.__getitem__, priority, parity)
    assert (cycle is None) == (not oracle)
    if cycle is not None:
        assert is_closed_walk(cycle, succ)
        rows = [p if isinstance(p, tuple) else (p,) for p in map(priority.__getitem__, cycle)]
        assert all(top % 2 == parity for top in map(max, zip(*rows)))


def distances(comp, succ):
    """dist[v, w]: the fewest edges on a path from v to w inside ``comp``
    (0 from v to itself), by Floyd-Warshall."""
    far = len(succ) + 1
    dist = {(v, w): 0 if v == w else 1 if w in succ[v] else far for v in comp for w in comp}
    for k in comp:
        for v in comp:
            for w in comp:
                dist[v, w] = min(dist[v, w], dist[v, k] + dist[k, w])
    return dist


@st.composite
def streett_graphs(draw, max_nodes=7):
    """(nodes in a drawn order, successor lists, node requests, edge
    answers) with nodes 0..n-1, at most one request per node and answers
    drawn from {0, 1}."""
    n = draw(st.integers(1, max_nodes))
    succ = [sorted(set(draw(st.lists(st.integers(0, n - 1), max_size=3)))) for _ in range(n)]
    requests = [draw(st.frozensets(st.integers(0, 1), max_size=1)) for _ in range(n)]
    answers = {(v, w): draw(st.frozensets(st.integers(0, 1))) for v in range(n) for w in succ[v]}
    return draw(st.permutations(range(n))), succ, requests, answers


def streett_good(subset, succ, requests, answers):
    """Whether ``subset`` is strongly connected through its own edges, has
    one, and answers on them every request its members make."""
    inner = [[w for w in succ[v] if w in subset] if v in subset else [] for v in range(len(succ))]
    reach = closure(range(len(succ)), inner)
    if not all(w in reach[v] for v in subset for w in subset):
        return False
    answered = set().union(*(answers[v, w] for v in subset for w in inner[v]))
    return set().union(*(requests[v] for v in subset)) <= answered


@settings(max_examples=400, deadline=None)
@given(streett_graphs())
def test_streett_component_matches_brute_force(g):
    """A Streett component exists iff some subset of the nodes is one (all
    subsets tried), and the one returned is one, its members listed in the
    order of ``nodes``.  Without requests it is the first cyclic component
    that Tarjan's search over ``nodes`` completes."""
    nodes, succ, requests, answers = g
    comp = graph.streett_component(
        nodes, succ.__getitem__, requests.__getitem__, lambda v, w: answers[v, w]
    )
    exists = any(
        streett_good(set(sub), succ, requests, answers)
        for k in range(1, len(nodes) + 1)
        for sub in itertools.combinations(nodes, k)
    )
    assert (comp is not None) == exists
    if comp is not None:
        assert streett_good(set(comp), succ, requests, answers)
        assert comp == [v for v in nodes if v in comp]
    plain = graph.streett_component(nodes, succ.__getitem__, lambda v: (), lambda v, w: ())
    comps = graph.sccs(nodes, succ.__getitem__)
    cyclic = [c for c in comps if graph.has_cycle(c, succ.__getitem__)]
    assert (plain is None) == (not cyclic)
    if cyclic:
        assert set(plain) == set(cyclic[0])


@settings(max_examples=400, deadline=None)
@given(streett_graphs(), st.booleans())
def test_streett_walk_answers_every_request_of_its_component(g, ask):
    """On every strongly connected set with a cycle that answers its own
    requests, the walk starts at the component's first node, stays inside
    and closes, its edges answer every request of a member, and it is no
    longer than a shortest path and an edge per request.  When each edge
    of the start answers every request, it is a shortest cycle through
    the start; without requests, the STRONG check's cycle."""
    nodes, succ, requests, answers = g
    if not ask:
        requests = [frozenset()] * len(nodes)
    found = graph.streett_component(
        nodes, succ.__getitem__, requests.__getitem__, lambda v, w: answers[v, w]
    )
    for comp in [*graph.sccs(nodes, succ.__getitem__), *([found] if found else [])]:
        members = set(comp)
        if not streett_good(members, succ, requests, answers):
            continue
        comp = comp[::-1]
        walk = graph.streett_walk(
            comp, succ.__getitem__, requests.__getitem__, lambda v, w: answers[v, w]
        )
        assert walk[0] == comp[0] and set(walk) <= members
        assert is_closed_walk(walk, succ)
        taken = set().union(*(answers[v, walk[(i + 1) % len(walk)]] for i, v in enumerate(walk)))
        asked = set().union(*(requests[v] for v in comp))
        assert asked <= taken
        # a shortest path and one edge per answered request, and a way back
        assert len(walk) <= (len(asked) + 1) * len(members)
        first = [w for w in succ[walk[0]] if w in members]
        if all(asked <= answers[walk[0], w] for w in first):
            dist = distances(members, succ)
            assert len(walk) == 1 + min(dist[w, walk[0]] for w in first)
        if not ask:
            cycle = graph.shortest_path(walk[:1], succ.__getitem__, walk[:1], members, True)
            assert walk == cycle[:-1]


@st.composite
def labelled_graphs(draw, max_nodes=7):
    """(nodes in a drawn order, node labels, labelled successor lists) with
    nodes 0..n-1 and edge labels 0 and 1.  Deterministic graphs have exactly
    one edge per edge label at each node; the others have up to four edges."""
    n = draw(st.integers(1, max_nodes))
    node = st.integers(0, n - 1)
    label = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    if draw(st.booleans()):
        edges = [[(a, draw(node)) for a in (0, 1)] for _ in range(n)]
    else:
        edges = [draw(st.lists(st.tuples(st.integers(0, 1), node), max_size=4)) for _ in range(n)]
    return draw(st.permutations(range(n))), label, edges


@settings(max_examples=300, deadline=None)
@given(labelled_graphs())
def test_refine_is_bisimilarity_numbered_by_first_member(g):
    nodes, label, edges = g
    block = graph.refine(nodes, label.__getitem__, edges.__getitem__)
    rel = greatest_bisimulation(nodes, label.__getitem__, edges.__getitem__)
    assert {(u, v) for u in nodes for v in nodes if block[u] == block[v]} == rel
    first_seen = list(dict.fromkeys(block[v] for v in nodes))
    assert first_seen == list(range(len(first_seen)))
