import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from paradecomp.errors import (
    GraphFormatError,
    InvalidMatchingError,
    UnknownVertexError,
)
from paradecomp import graphs
from paradecomp.generators import hall_family, synthetic_forest
from paradecomp.graphs import (
    bipartite_graph,
    graph_from_obj,
    graph_to_obj,
    induced_subgraph,
    to_dot,
    validate_matching,
)
from paradecomp.layers import geometric_schedule

from oracles import ball_union_greedy_net, bfs_distances


def small_graph_objs():
    """Strategy for well-formed interchange dicts."""

    def build(n0, n1, edge_bits):
        verts = [{"id": i, "side": 0} for i in range(n0)]
        verts += [{"id": 100 + j, "side": 1} for j in range(n1)]
        edges = [
            [i, 100 + j]
            for i in range(n0)
            for j in range(n1)
            if edge_bits & (1 << (i * n1 + j))
        ]
        return {"vertices": verts, "edges": edges}

    return st.builds(
        build,
        st.integers(1, 4),
        st.integers(1, 4),
        st.integers(0, 2**16 - 1),
    )


def test_construct_and_basics():
    g = bipartite_graph([0, 1], [2, 3], [(0, 2), (0, 3), (1, 2)])
    assert len(g.ids) == 4
    assert g.side_vertices(0) == (0, 1)
    assert g.side_vertices(1) == (2, 3)
    assert g.edges() == [(0, 2), (0, 3), (1, 2)]
    assert g.n_edges() == 3
    assert g.degree(0) == 2
    g.require_vertex(3)
    with pytest.raises(UnknownVertexError):
        g.require_vertex(9)


def test_construct_rejects_duplicates_and_same_side():
    with pytest.raises(GraphFormatError):
        bipartite_graph([0, 0], [1], [])
    with pytest.raises(GraphFormatError):
        bipartite_graph([0], [0], [])
    with pytest.raises(GraphFormatError):
        bipartite_graph([0, 1], [2], [(0, 1)])
    with pytest.raises(GraphFormatError):
        bipartite_graph([0], [1], [(0, 0)])
    with pytest.raises(UnknownVertexError):
        bipartite_graph([0], [1], [(0, 9)])


def test_from_obj_field_diagnostics():
    with pytest.raises(GraphFormatError, match="vertices"):
        graph_from_obj({"edges": []})
    with pytest.raises(GraphFormatError, match="edges"):
        graph_from_obj({"vertices": []})
    with pytest.raises(GraphFormatError, match=r"vertices\[0\]"):
        graph_from_obj({"vertices": [7], "edges": []})
    with pytest.raises(GraphFormatError, match="side"):
        graph_from_obj({"vertices": [{"id": 0, "side": 2}], "edges": []})
    with pytest.raises(GraphFormatError, match=r"edges\[0\]"):
        graph_from_obj({"vertices": [{"id": 0, "side": 0}], "edges": [[0]]})
    # extra keys are tolerated
    g = graph_from_obj(
        {
            "schema": "x",
            "vertices": [{"id": 0, "side": 0}, {"id": 1, "side": 1}],
            "edges": [[0, 1]],
        }
    )
    assert g.edges() == [(0, 1)]


@given(small_graph_objs())
def test_obj_round_trip(obj):
    g = graph_from_obj(obj)
    g2 = graph_from_obj(graph_to_obj(g))
    assert g2.ids == g.ids
    assert g2.adj == g.adj
    assert g2.side_of == g.side_of


@given(small_graph_objs(), st.integers(0, 7))
def test_distances_match_plain_bfs(obj, pick):
    g = graph_from_obj(obj)
    src = g.ids[pick % len(g.ids)]
    want = bfs_distances(g.adj, src)
    assert graphs.bfs_distances(g.adj, (src,)) == want


@given(small_graph_objs(), st.sets(st.integers(0, 7), min_size=1), st.integers(0, 3))
def test_multi_source_bounded_bfs_matches_plain_bfs(obj, picks, bound):
    g = graph_from_obj(obj)
    sources = sorted({g.ids[i % len(g.ids)] for i in picks})
    want = {}
    for s in sources:
        for v, d in bfs_distances(g.adj, s).items():
            if d <= bound and d < want.get(v, bound + 1):
                want[v] = d
    assert graphs.bfs_distances(g.adj, sources, bound) == want


@given(small_graph_objs(), st.sets(st.integers(0, 7)))
def test_components_are_the_reachability_classes(obj, drop):
    g = graph_from_obj(obj)
    subset = {v for i, v in enumerate(g.ids) if i not in drop}
    for keep in (set(g.ids), subset):
        h = induced_subgraph(g, keep)
        # vertices come in descending order; the result must not follow it
        maps = list(
            graphs.components(
                {u: [w for w in g.adj[u] if w in keep] for u in keep},
                sorted(keep, reverse=True),
            )
        )
        comps = [list(c) for c in maps]
        want = []
        left = set(h.ids)
        for v in h.ids:
            if v in left:
                reach = set(bfs_distances(h.adj, v))
                left -= reach
                want.append(reach)
        assert [set(c) for c in comps] == want
        assert sum(len(c) for c in comps) == len(keep)
        for c, m in zip(comps, maps):
            assert c[0] == min(c)
            dist = bfs_distances(h.adj, c[0])
            assert [dist[v] for v in c] == sorted(dist[v] for v in c)
            # each component comes as its distance map from the least member
            assert m == dist


@given(
    small_graph_objs(),
    st.lists(st.integers(0, 7), unique=True),
    st.integers(0, 3),
)
def test_greedy_net_is_separated_and_covers_what_it_skips(obj, picks, radius):
    g = graph_from_obj(obj)
    points = [g.ids[i] for i in picks if i < len(g.ids)]
    # greedy_net takes vertices 0..n-1: run it on the ranks of the ids
    rank = {v: k for k, v in enumerate(g.ids)}
    local = [[rank[w] for w in g.adj[v]] for v in g.ids]
    net = graphs.greedy_net(local, [rank[p] for p in points], radius)
    kept = [g.ids[k] for k in net]
    dist = {v: bfs_distances(g.adj, v) for v in g.ids}
    assert kept == [p for p in points if p in kept]
    for i, p in enumerate(kept):
        for q in kept[i + 1 :]:
            assert dist[p].get(q, radius + 1) > radius
    for i, p in enumerate(points):
        if p not in kept:
            assert any(
                q in kept and dist[q].get(p, radius + 1) <= radius
                for q in points[:i]
            )


@st.composite
def graphs_with_dead_ends(draw):
    """Symmetric adjacency lists over 0..n-1 with many vertices of degree <= 1.

    A random core gets pendant paths hung on any vertex so far (a path may
    hang on another path, which makes pendant trees), then isolated
    vertices; the vertices are numbered in a drawn order.
    """
    n = draw(st.integers(1, 8))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))))
    edges = [(u, v) for u, v in pairs if u != v]
    for length in draw(st.lists(st.integers(1, 4), max_size=5)):
        at = draw(st.integers(0, n - 1))
        for _ in range(length):
            edges.append((at, n))
            at = n
            n += 1
    n += draw(st.integers(0, 3))
    label = draw(st.permutations(range(n)))
    nbrs = [set() for _ in range(n)]
    for u, v in edges:
        nbrs[label[u]].add(label[v])
        nbrs[label[v]].add(label[u])
    return [sorted(ns) for ns in nbrs]


@given(graphs_with_dead_ends(), st.data(), st.integers(0, 6))
def test_greedy_net_blocks_dead_ends_it_does_not_search_from(adjacency, data, radius):
    # every vertex of degree 0 or 1 is a point, as a leaf can be one in layers
    n = len(adjacency)
    ends = {v for v in range(n) if len(adjacency[v]) <= 1}
    more = data.draw(st.sets(st.integers(0, n - 1)))
    points = data.draw(st.permutations(sorted(ends | more)))
    want = ball_union_greedy_net(adjacency, points, radius)
    assert graphs.greedy_net(adjacency, points, radius) == want


def test_distances_bound_cuts_off():
    g = bipartite_graph([0, 2], [1, 3], [(0, 1), (2, 1), (2, 3)])
    assert graphs.bfs_distances(g.adj, (0,), 1) == {0: 0, 1: 1}


def test_to_dot_marks_matching():
    g = bipartite_graph([0], [1, 2], [(0, 1), (0, 2)])
    dot = to_dot(g, [(0, 1)])
    assert '"0" -- "1" [style=bold];' in dot
    assert '"0" -- "2";' in dot
    assert dot.startswith("graph g {")


def test_validate_matching_and_removal():
    g = bipartite_graph([0, 1], [2, 3], [(0, 2), (0, 3), (1, 2)])
    assert validate_matching(g, [(0, 3), (1, 2)]) == {(0, 3), (1, 2)}
    with pytest.raises(InvalidMatchingError):
        validate_matching(g, [(1, 3)])  # not an edge
    with pytest.raises(InvalidMatchingError):
        validate_matching(g, [(0, 2), (0, 3)])  # repeats 0
    with pytest.raises(UnknownVertexError):
        validate_matching(g, [(0, 9)])


_BAD_PAIRS = [
    ([(0, 3), (9, 2), (8, 1)], UnknownVertexError, "vertex 9 not in graph", 9),
    ([(0, 3), (1, 9), (8, 1)], UnknownVertexError, "vertex 9 not in graph", 9),
    ([(0, 3), (1, 3), (1, 9)], InvalidMatchingError, "1-3 is not an edge", [1, 3]),
    (
        [(2, 0), (0, 3), (1, 9)],
        InvalidMatchingError,
        "matching not vertex-disjoint at 0-3",
        [0, 3],
    ),
]


@pytest.mark.parametrize(
    "pairs,error,message,named",
    _BAD_PAIRS,
    ids=["unknown u", "unknown v", "non-edge", "not vertex-disjoint"],
)
def test_validate_matching_names_the_first_bad_pair(pairs, error, message, named):
    g = bipartite_graph([0, 1], [2, 3], [(0, 2), (0, 3), (1, 2)])
    with pytest.raises(error) as ei:
        validate_matching(g, pairs)
    key = "vertex" if error is UnknownVertexError else "edge"
    assert (ei.value.message, ei.value.details) == (message, {key: named})


def test_induced_subgraph_drops_edges():
    g = bipartite_graph([0, 1], [2, 3], [(0, 2), (1, 3)])
    h = induced_subgraph(g, [0, 2, 3])
    assert h.ids == (0, 2, 3)
    assert h.adj[3] == ()


@pytest.mark.parametrize("radius", [16, 64])
def test_greedy_net_keeps_what_blocking_whole_balls_keeps_on_forests(radius):
    # the f2action stages' separations 16 * 4^s for s = 0, 1, over every
    # present point in index order and in a shuffled order
    for k in range(5):
        rng = random.Random(k)
        fw = synthetic_forest(rng)
        nbrs = fw.adjacency
        points = [i for i, on in enumerate(fw.present) if on]
        for order in (points, rng.sample(points, len(points))):
            want = ball_union_greedy_net(nbrs, order, radius)
            assert graphs.greedy_net(nbrs, order, radius) == want


def test_greedy_net_keeps_what_blocking_whole_balls_keeps_on_hall_family():
    # the layering radii f(n) of each graph's schedule, and the small radii
    # at which these expanders keep more than one point per component
    rng = random.Random(15)
    epsilons = [Fraction(1, 4), Fraction(1, 2), Fraction(1)]
    for g, p in hall_family(20, rng, epsilons, n_range=(4, 60)):
        sched = geometric_schedule(p.epsilon)
        nbrs = g.adj
        points = rng.sample(g.ids, len(g.ids))
        for radius in [0, 1, 2, 3] + [sched.f(n) for n in range(3)]:
            want = ball_union_greedy_net(nbrs, points, radius)
            assert graphs.greedy_net(nbrs, points, radius) == want
