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
    bipartite_graph,
    g2_neighbors,
    graph_from_obj,
    neighborhood,
)
from paradecomp.hall import (
    ExpansionParams,
    check_hall,
    check_hall_eps_n,
    connected_side_sets,
)
from paradecomp.matching import max_matching

from oracles import (
    brute_connected_side_sets,
    brute_deficiency,
    brute_hall_eps,
    cloned_graph,
    has_perfect_matching_on,
    kuhn_max_matching,
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
    assert len(max_matching(g)) == len(kuhn_max_matching(g))


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
    # least violator; scanning the 40 singletons must settle it
    calls = []

    def counted(g, f_set):
        calls.append(f_set)
        return neighborhood(g, f_set)

    monkeypatch.setattr(hall, "neighborhood", counted)
    rep = check_hall_eps_n(line_window(40), ExpansionParams(Fraction(1, 2), 1), 30)
    assert (rep.witness.side, rep.witness.f_set) == (0, (0,))
    assert len(calls) <= 40


def test_plain_witness_grows_each_set_once(monkeypatch):
    # an odd path's least plain violator is its whole larger side, reached
    # through every interval of that side; grown level by level, each vertex
    # asks for its G^2-neighbors once, and only on the side that is larger
    # than the matching
    calls = []

    def counted(g, v):
        calls.append(v)
        return g2_neighbors(g, v)

    monkeypatch.setattr(hall, "g2_neighbors", counted)
    rep = check_hall(line_window(201))
    assert (rep.witness.side, rep.witness.f_set) == (0, tuple(range(0, 201, 2)))
    assert rep.witness.actual == 100
    assert len(calls) == len(set(calls)) <= 101
    assert all(v % 2 == 0 for v in calls)


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


def test_connected_side_sets_enumeration():
    g = star_graph(3)
    sets1 = list(connected_side_sets(g, 1, 2))
    # three singletons and three pairs, all connected through the center
    assert ((1,) in sets1) and ((1, 2) in sets1) and ((2, 3) in sets1)
    assert len([s for s in sets1 if len(s) == 1]) == 3
    assert len([s for s in sets1 if len(s) == 2]) == 3
    assert all(len(s) >= 2 for s in connected_side_sets(g, 1, 3, min_size=2))


@given(random_graphs(), st.integers(0, 1), st.integers(1, 3), st.integers(0, 3))
def test_connected_side_sets_agree_with_subset_oracle(g, side, floor, extra):
    cap = floor + extra
    got = list(connected_side_sets(g, side, cap, floor))
    assert len(got) == len(set(got))
    assert sorted(got) == sorted(brute_connected_side_sets(g, side, floor, cap))


def test_connected_side_sets_reach_past_the_recursion_limit():
    # the one set of size 1200 is grown through a 1,199-step chain
    g = line_window(2400)
    side0 = tuple(sorted(g.side_vertices(0)))
    assert next(connected_side_sets(g, 0, 1200, 1200)) == side0
