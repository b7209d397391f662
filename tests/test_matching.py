import pytest
from hypothesis import given, strategies as st

from paradecomp import actions
from paradecomp.actions import (
    DoublingGraph,
    expand_window,
    interior_saturating_matching,
    square_set,
    standard_generators,
)
from paradecomp.matching import combine_saturating, hopcroft_karp

from oracles import component_combine_saturating, recursive_hopcroft_karp


@st.composite
def left_orders_and_adjacency(draw):
    """Left ids in a drawn order, each with a drawn neighbor order."""
    n_right = draw(st.integers(1, 8))
    rights = st.integers(100, 100 + n_right - 1)
    adj = draw(st.lists(st.lists(rights, unique=True, max_size=n_right), max_size=12))
    left = draw(st.permutations(range(len(adj))))
    return left, adj


@given(left_orders_and_adjacency())
def test_hopcroft_karp_agrees_with_recursive_reference(case):
    # the right side as a list over 0..107 and as a dict over 100..107
    left, adj = case
    listed = hopcroft_karp(left, adj.__getitem__, [None] * 108)
    keyed = hopcroft_karp(left, adj.__getitem__, dict.fromkeys(range(100, 108)))
    want = recursive_hopcroft_karp(left, adj.__getitem__)
    assert list(listed.items()) == list(keyed.items()) == list(want.items())


def test_hopcroft_karp_long_augmenting_path():
    # the first phase matches u_i to v_{i+1}; freeing u_{n-1} then needs one
    # augmenting path through all n left vertices
    n = 5000
    adj = {i: [n + i + 1, n + i] for i in range(n - 1)}
    adj[n - 1] = [2 * n - 1]
    pairs = hopcroft_karp(range(n), adj.__getitem__, [None] * (2 * n))
    assert pairs == {i: n + i for i in range(n)}


@st.composite
def pair_maps(draw):
    """Two pair maps between 0..7 and 100..107, keys in drawn order.

    pair1 maps vertices of 0..7 into 100..107, pair2 vertices of 100..107
    back into 0..7, as interior_saturating_matching passes its copy-0 and
    side-1 Hopcroft-Karp results when the side-1 run leaves a copy-0
    interior vertex free; each map's keys are the vertices it must cover.
    """

    def pair_map(keys, values):
        k = draw(st.integers(0, 8))
        return dict(zip(draw(st.permutations(keys))[:k], draw(st.permutations(values))))

    lows, highs = range(8), range(100, 108)
    return pair_map(lows, highs), pair_map(highs, lows)


@given(pair_maps())
def test_combine_saturating_agrees_with_component_labelling(case):
    got = combine_saturating(*case)
    assert got == component_combine_saturating(*case)


@pytest.mark.parametrize("kind", ["f2", "sphere"])
@pytest.mark.parametrize("square", [False, True], ids=["S-3copy", "S2-4copy"])
def test_combine_saturating_agrees_on_window_inputs(kind, square):
    # the runs over the interiors demo (S, 3 copies) and forest (S^2, 4
    # copies) match at radius 8; interior_saturating_matching makes only the
    # side-1 run there, and its matching is still the merge of both
    dg = doubling(kind, square)
    pair_a, pair_b = (
        hopcroft_karp(left, dg.neighbors, [None] * size)
        for left, size in interior_runs(dg)
    )
    got = combine_saturating(pair_a, pair_b)
    assert got == component_combine_saturating(pair_a, pair_b)
    want = dg.partners(got)
    assert list(interior_saturating_matching(dg).items()) == list(want.items())


@pytest.mark.parametrize("kind", ["f2", "sphere"])
@pytest.mark.parametrize("square", [False, True], ids=["S-3copy", "S2-4copy"])
def test_hopcroft_karp_agrees_on_window_inputs(kind, square):
    # both runs over a radius-8 window's interior: the greedy first phase
    # matches all of copy 0, and the side-1 run needs 2 to 4 more phases, in
    # at least one of which the BFS stops before the end of its scan
    # each with a list over the right side and with a dict over the same ids
    dg = doubling(kind, square)
    for left, size in interior_runs(dg):
        listed = hopcroft_karp(left, dg.neighbors, [None] * size)
        keyed = hopcroft_karp(left, dg.neighbors, dict.fromkeys(range(size)))
        want = recursive_hopcroft_karp(left, dg.neighbors)
        assert list(listed.items()) == list(keyed.items()) == list(want.items())


@pytest.mark.parametrize("kind", ["f2", "sphere"])
@pytest.mark.parametrize("square", [False, True], ids=["S-3copy", "S2-4copy"])
def test_interior_saturating_matching_merges_when_side_one_leaves_copy_zero_free(
    monkeypatch, kind, square
):
    # no window leaves a copy-0 interior vid free in the side-1 run; reading
    # side 1's neighbours in descending order does, at margin 2
    dg = doubling(kind, square, radius=5, margin=2)
    n = dg.n_points
    runs = []

    def patched(left, neighbors, pair_r):
        left = list(left)
        if left[0] >= n:  # the side-1 run

            def neighbors(u, ascending=neighbors):
                return sorted(ascending(u), reverse=True)

        got = hopcroft_karp(left, neighbors, pair_r)
        runs.append(got)
        return got

    monkeypatch.setattr(actions, "hopcroft_karp", patched)
    partner = interior_saturating_matching(dg)
    pair_b, pair_a = runs
    interior = dg.window.interior_indices()
    assert set(interior) - set(pair_b.values())
    assert set(pair_a) == set(interior)
    want = dg.partners(component_combine_saturating(pair_a, pair_b))
    assert list(partner.items()) == list(want.items())
    for c in range(dg.copies):
        assert all(c * n + i in partner for i in interior)


@pytest.mark.parametrize("kind", ["f2", "sphere"])
@pytest.mark.parametrize("square", [False, True], ids=["S-3copy", "S2-4copy"])
def test_interior_neighbours_index_the_right_side_lists(kind, square):
    # interior_saturating_matching indexes [None] * dg.n_vertices() by the
    # copy-0 run's neighbours and [None] * n by the side-1 run's; a negative
    # vid would silently read such a list from its end
    dg = doubling(kind, square)
    n = dg.n_points
    for i in dg.window.interior_indices():
        assert all(n <= v < dg.n_vertices() for v in dg.neighbors(i))
        for c in range(1, dg.copies):
            assert all(0 <= v < n for v in dg.neighbors(c * n + i))


def doubling(kind, square, radius=8, margin=4):
    s = standard_generators()
    gens, copies = (square_set(s), 4) if square else (s, 3)
    w = expand_window(kind, None, s, radius, margin, gens.radius)
    return DoublingGraph(w, gens, copies)


def interior_runs(dg):
    """Left sides and right-side sizes of the two Hopcroft-Karp runs.

    Copy 0's interior vids, whose neighbours lie below dg.n_vertices(), and
    side 1's, whose neighbours lie below n_points.
    """
    n = dg.n_points
    left_a = dg.window.interior_indices()
    left_b = [c * n + i for c in range(1, dg.copies) for i in left_a]
    return (left_a, dg.n_vertices()), (left_b, n)
