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
    back into 0..7, as interior_saturating_matching passes its two
    Hopcroft-Karp results; each map's keys are the vertices it must cover.
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
def test_combine_saturating_agrees_on_window_inputs(monkeypatch, kind, square):
    # the inputs demo (S, 3 copies) and forest (S^2, 4 copies) pass at radius 8
    calls = []

    def both(*args):
        got = combine_saturating(*args)
        calls.append(got == component_combine_saturating(*args))
        return got

    monkeypatch.setattr(actions, "combine_saturating", both)
    interior_saturating_matching(radius_eight_doubling(kind, square))
    assert calls == [True]


@pytest.mark.parametrize("kind", ["f2", "sphere"])
@pytest.mark.parametrize("square", [False, True], ids=["S-3copy", "S2-4copy"])
def test_hopcroft_karp_agrees_on_window_inputs(monkeypatch, kind, square):
    # both runs of interior_saturating_matching: the greedy first phase
    # matches all of copy 0, and the side-1 run needs 2 to 4 more phases, in
    # at least one of which the BFS stops before the end of its scan
    # each with the list it is given and with a dict over the same ids
    calls = []

    def both(left, neighbors, pair_r):
        keyed = hopcroft_karp(left, neighbors, dict.fromkeys(range(len(pair_r))))
        got = hopcroft_karp(left, neighbors, pair_r)
        want = recursive_hopcroft_karp(left, neighbors)
        calls.append(list(got.items()) == list(keyed.items()) == list(want.items()))
        return got

    monkeypatch.setattr(actions, "hopcroft_karp", both)
    interior_saturating_matching(radius_eight_doubling(kind, square))
    assert calls == [True, True]


@pytest.mark.parametrize("kind", ["f2", "sphere"])
@pytest.mark.parametrize("square", [False, True], ids=["S-3copy", "S2-4copy"])
def test_interior_neighbours_index_the_right_side_lists(kind, square):
    # interior_saturating_matching indexes [None] * dg.n_vertices() by the
    # copy-0 run's neighbours and [None] * n by the side-1 run's; a negative
    # vid would silently read such a list from its end
    dg = radius_eight_doubling(kind, square)
    n = dg.n_points
    for i in dg.window.interior_indices():
        assert all(n <= v < dg.n_vertices() for v in dg.neighbors(i))
        for c in range(1, dg.copies):
            assert all(0 <= v < n for v in dg.neighbors(c * n + i))


def radius_eight_doubling(kind, square):
    s = standard_generators()
    gens, copies = (square_set(s), 4) if square else (s, 3)
    w = expand_window(kind, None, s, 8, 4, gens.radius)
    return DoublingGraph(w, gens, copies)
