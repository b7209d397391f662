import pytest
from hypothesis import given, strategies as st

from paradecomp.errors import (
    GraphFormatError,
    InvalidMatchingError,
    MixedSidesError,
    UnknownVertexError,
)
from paradecomp import graphs
from paradecomp.graphs import (
    bipartite_graph,
    distances_from,
    g2_connected_components,
    g2_neighbors,
    graph_from_obj,
    graph_to_obj,
    induced_subgraph,
    neighborhood,
    remove_matched,
    to_dot,
    validate_matching,
)

from oracles import bfs_distances


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
    assert g.n_vertices() == 4
    assert g.side_vertices(0) == (0, 1)
    assert g.side_vertices(1) == (2, 3)
    assert g.edges() == [(0, 2), (0, 3), (1, 2)]
    assert g.n_edges() == 3
    assert g.degree(0) == 2
    assert g.has_vertex(3) and not g.has_vertex(9)


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
    assert distances_from(g, src) == bfs_distances(g.adj, src)


@given(small_graph_objs(), st.sets(st.integers(0, 7), min_size=1), st.integers(0, 3))
def test_multi_source_bounded_bfs_matches_plain_bfs(obj, picks, bound):
    g = graph_from_obj(obj)
    sources = sorted({g.ids[i % len(g.ids)] for i in picks})
    want = {}
    for s in sources:
        for v, d in bfs_distances(g.adj, s).items():
            if d <= bound and d < want.get(v, bound + 1):
                want[v] = d
    assert graphs.bfs_distances(g.adj.__getitem__, sources, bound) == want


def test_distances_bound_cuts_off():
    g = bipartite_graph([0, 2], [1, 3], [(0, 1), (2, 1), (2, 3)])
    assert distances_from(g, 0, bound=1) == {0: 0, 1: 1}


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
    rest = remove_matched(g, [(0, 2)])
    assert rest.ids == (1, 3)
    assert rest.adj[1] == ()


def test_induced_subgraph_drops_edges():
    g = bipartite_graph([0, 1], [2, 3], [(0, 2), (1, 3)])
    h = induced_subgraph(g, [0, 2, 3])
    assert h.ids == (0, 2, 3)
    assert h.adj[3] == ()


def test_neighborhood_excludes_f():
    g = bipartite_graph([0, 1], [2], [(0, 2), (1, 2)])
    assert neighborhood(g, [0, 1]) == {2}
    assert g2_neighbors(g, 0) == {1}


def test_g2_components_of_star():
    # all leaves meet through the center, one class
    g = bipartite_graph([0], [1, 2, 3], [(0, 1), (0, 2), (0, 3)])
    assert g2_connected_components(g, [1, 2, 3]) == [(1, 2, 3)]
    with pytest.raises(MixedSidesError):
        g2_connected_components(g, [0, 1])


def test_g2_components_split_when_no_shared_neighbor():
    g = bipartite_graph([0, 1], [2, 3], [(0, 2), (1, 3)])
    assert g2_connected_components(g, [0, 1]) == [(0,), (1,)]
