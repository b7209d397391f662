import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from paradecomp import hall
from paradecomp.errors import BadCapError
from paradecomp.generators import (
    complete_bipartite,
    line_window,
    star_graph,
    union_of_permutations,
)
from paradecomp.graphs import (
    BipartiteGraph,
    bipartite_graph,
    graph_from_obj,
    validate_matching,
)
from paradecomp.hall import ExpansionParams, check_hall, check_hall_eps_n

from oracles import (
    brute_connected_side_sets,
    brute_deficiency,
    brute_hall_eps,
    cloned_graph,
    has_perfect_matching_on,
    kuhn_max_matching,
    record_side_levels,
)


def random_graphs():
    def build(n0, n1, edge_bits):
        left = list(range(n0))
        right = [50 + j for j in range(n1)]
        edges = [
            (i, 50 + j)
            for i in range(n0)
            for j in range(n1)
            if edge_bits & (1 << (i * n1 + j))
        ]
        return bipartite_graph(left, right, edges)

    return st.builds(
        build, st.integers(1, 5), st.integers(1, 5), st.integers(0, 2**25 - 1)
    )


def matchable_graphs():
    """Balanced graphs holding the perfect matching i -- 50+i: plain Hall holds."""

    def build(n, edge_bits):
        edges = [
            (i, 50 + j)
            for i in range(n)
            for j in range(n)
            if i == j or edge_bits & (1 << (i * n + j))
        ]
        return bipartite_graph(list(range(n)), [50 + j for j in range(n)], edges)

    return st.builds(build, st.integers(1, 5), st.integers(0, 2**25 - 1))


def test_k33_satisfies_plain_hall():
    rep = check_hall(complete_bipartite(3, 3))
    assert rep.satisfied
    assert rep.witness is None


def test_star_violates_hall_with_least_witness():
    rep = check_hall(star_graph(3))
    assert not rep.satisfied
    # leaves 1,2 share the center as their whole neighborhood
    assert rep.witness.side == 1
    assert rep.witness.f_set == (1, 2)
    assert rep.witness.actual == 1


@given(random_graphs())
def test_max_matching_equals_kuhn(g):
    # check_hall keeps the Hopcroft-Karp matching it counts, for the matcher
    pairs = check_hall(g).matching
    assert len(validate_matching(g, pairs.items())) == len(kuhn_max_matching(g))


@given(random_graphs())
def test_plain_check_agrees_with_brute_deficiency(g):
    rep = check_hall(g)
    bad0 = brute_deficiency(g, 0) > 0
    bad1 = brute_deficiency(g, 1) > 0
    assert rep.satisfied == (not bad0 and not bad1)
    if not rep.satisfied:
        w = rep.witness
        nbr = set()
        for v in w.f_set:
            nbr.update(g.adj[v])
        assert len(nbr) == w.actual < len(w.f_set)
        # least by (size, sorted tuple, side) across both sides
        want = brute_hall_eps(g, 0, 1, len(g.ids))
        assert (w.side, w.f_set, w.required, w.actual) == want


@given(
    st.one_of(random_graphs(), matchable_graphs()),
    st.sampled_from([Fraction(1, 4), Fraction(1, 2), Fraction(1), Fraction(2)]),
    st.integers(1, 3),
)
def test_eps_check_agrees_with_subset_oracle(g, eps, cap):
    p = ExpansionParams(eps, 1)
    rep = check_hall_eps_n(g, p, cap)
    want = brute_hall_eps(g, eps, 1, cap)
    assert rep.satisfied == (want is None)
    if want is not None:
        # with floor 1 every least-size violator is G^2-connected
        w = rep.witness
        assert (w.side, w.f_set, w.required, w.actual) == want


@given(random_graphs())
def test_eps_one_matches_clone_trick(g):
    """|N(F)| >= 2|F| for every left set iff clones are matchable."""
    p = ExpansionParams(Fraction(1), 1)
    cap = len(g.side_vertices(0))
    rep = check_hall_eps_n(g, p, cap)
    clone_ok = has_perfect_matching_on(cloned_graph(g, 0, 2), 0)
    if rep.satisfied:
        assert clone_ok
    elif rep.witness.side == 0:
        assert not clone_ok


def test_no_finite_graph_satisfies_uncapped_eps():
    """Hall_(eps,1) closes under no finite nonempty graph.

    Both-sided Hall forces balance; summing the doubled bound over one
    side's G^2-components then overshoots the other side.
    """
    rng = random.Random(4)
    for n, r in [(4, 2), (6, 3), (9, 4)]:
        g = union_of_permutations(n, r, rng)
        p = ExpansionParams(Fraction(1, 2), 1)
        rep = check_hall_eps_n(g, p, size_cap=2 * n)
        assert not rep.satisfied


def test_eps_check_stops_at_the_first_violating_size(monkeypatch):
    # the path's end vertex 0 has one neighbor, so the singleton (0,) is the
    # least violator; scanning the 40 singletons must settle it, reading each
    # vertex once, and no set of size 2 is grown
    reads, levels = record_side_levels(monkeypatch)
    rep = check_hall_eps_n(line_window(40), ExpansionParams(Fraction(1, 2), 1), 30)
    assert (rep.witness.side, rep.witness.f_set) == (0, (0,))
    assert sorted(reads) == list(range(40))
    assert [k for k, _ in levels] == [1, 1]


def test_plain_witness_grows_each_set_once(monkeypatch):
    # an odd path's least plain violator is its whole larger side, reached
    # through every interval of that side; grown level by level, each vertex
    # is read once, and only on the side that is larger than the matching,
    # and each of the 102 - k intervals of size k is built once
    reads, levels = record_side_levels(monkeypatch)
    rep = check_hall(line_window(201))
    assert (rep.witness.side, rep.witness.f_set) == (0, tuple(range(0, 201, 2)))
    assert rep.witness.actual == 100
    assert reads == list(range(0, 201, 2))
    assert levels == [(k, 102 - k) for k in range(1, 102)]


def test_cap_below_floor_rejected():
    g = complete_bipartite(2, 2)
    with pytest.raises(BadCapError):
        check_hall_eps_n(g, ExpansionParams(Fraction(1), 4), 3)


def test_eps_zero_reduces_to_plain():
    g = complete_bipartite(2, 2)
    rep = check_hall_eps_n(g, ExpansionParams(Fraction(0), 1), 2)
    assert rep.satisfied


def test_witness_is_minimal():
    # two left vertices share one right vertex; the singleton pair set is
    # the least violator under (size, lex)
    g = graph_from_obj(
        {
            "vertices": [
                {"id": 0, "side": 0},
                {"id": 1, "side": 0},
                {"id": 2, "side": 1},
                {"id": 3, "side": 1},
            ],
            "edges": [[0, 2], [1, 2]],
        }
    )
    rep = check_hall(g)
    assert not rep.satisfied
    assert rep.witness.f_set == (3,)  # isolated right vertex, size 1
    assert rep.witness.actual == 0


def connected_side_sets(g, side, floor, cap):
    """Every set hall's enumerator grows on one side, as sorted tuples.

    The ratio asked for exceeds any |N(F)|, so no set is certified and
    dropped.
    """
    roots = g.side_vertices(side)
    levels = hall._side_levels(roots, g.adj.__getitem__, len(g.ids) + 1, 1, cap)
    return [
        tuple(roots[p] for p in sorted(item[0]))
        for k, level in enumerate(levels, 1)
        if k >= floor
        for item in level
    ]


def test_connected_side_sets_enumeration():
    g = star_graph(3)
    sets1 = connected_side_sets(g, 1, 1, 2)
    # three singletons and three pairs, all connected through the center
    assert sets1 == [(1,), (2,), (3,), (1, 2), (1, 3), (2, 3)]
    assert connected_side_sets(g, 1, 2, 3) == [(1, 2), (1, 3), (2, 3), (1, 2, 3)]


@given(random_graphs(), st.integers(0, 1), st.integers(1, 3), st.integers(0, 3))
def test_connected_side_sets_agree_with_subset_oracle(g, side, floor, extra):
    cap = floor + extra
    got = connected_side_sets(g, side, floor, cap)
    assert len(got) == len(set(got))
    assert sorted(got) == sorted(brute_connected_side_sets(g, side, floor, cap))
    # each set carries N(F), the union of its members' neighbor lists
    roots = g.side_vertices(side)
    for level in hall._side_levels(roots, g.adj.__getitem__, len(g.ids) + 1, 1, cap):
        for members, nbr, *_ in level:
            assert nbr == {u for p in members for u in g.adj[roots[p]]}


def test_plain_witness_reaches_past_the_recursion_limit():
    # the least violator of a 2,401-vertex path is its whole side 0, grown
    # through a 1,200-step chain
    rep = check_hall(line_window(2401))
    assert (rep.witness.side, rep.witness.f_set) == (0, tuple(range(0, 2401, 2)))
    assert rep.witness.actual == 1200


def test_each_side_list_is_built_once_per_call(monkeypatch):
    # a passing precheck reads both side lists for the matching, the Koenig
    # comparison and the expansion clause, but walks the ids only once each
    calls = []
    real = BipartiteGraph.side_vertices

    def counted(self, side):
        calls.append(side)
        return real(self, side)

    monkeypatch.setattr(BipartiteGraph, "side_vertices", counted)
    g = complete_bipartite(3, 3)
    assert check_hall_eps_n(g, ExpansionParams(Fraction(1, 2), 1), 2).satisfied
    assert sorted(calls) == [0, 1]
    calls.clear()
    assert not check_hall(star_graph(3)).satisfied
    assert sorted(calls) == [0, 1]
