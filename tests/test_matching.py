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
from paradecomp.errors import InvariantError
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
    left, adj = case
    got = hopcroft_karp(left, adj.__getitem__)
    want = recursive_hopcroft_karp(left, adj.__getitem__)
    assert list(got.items()) == list(want.items())


def test_hopcroft_karp_long_augmenting_path():
    # the first phase matches u_i to v_{i+1}; freeing u_{n-1} then needs one
    # augmenting path through all n left vertices
    n = 5000
    adj = {i: [n + i + 1, n + i] for i in range(n - 1)}
    adj[n - 1] = [2 * n - 1]
    pairs = hopcroft_karp(range(n), adj.__getitem__)
    assert pairs == {i: n + i for i in range(n)}


def test_combine_saturating_refuses_to_drop_a_required_vertex():
    # pair1 is no matching: both keys claim vertex 10, so key 0 loses it
    with pytest.raises(InvariantError) as ei:
        combine_saturating({0: 10, 1: 10}, {})
    assert ei.value.code == "INVARIANT"
    assert ei.value.details["missing"] == [0]


def test_combine_saturating_refuses_a_vertex_used_twice():
    # pair2 is no matching: both keys map back to vertex 0
    with pytest.raises(InvariantError) as ei:
        combine_saturating({}, {10: 0, 11: 0})
    assert ei.value.details["edge"] == [0, 11]


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
    calls = []

    def both(left, neighbors):
        got = hopcroft_karp(left, neighbors)
        want = recursive_hopcroft_karp(left, neighbors)
        calls.append(list(got.items()) == list(want.items()))
        return got

    monkeypatch.setattr(actions, "hopcroft_karp", both)
    interior_saturating_matching(radius_eight_doubling(kind, square))
    assert calls == [True, True]


def radius_eight_doubling(kind, square):
    s = standard_generators()
    gens, copies = (square_set(s), 4) if square else (s, 3)
    w = expand_window(kind, None, s, 8, 4, gens.radius)
    return DoublingGraph(w, gens, copies)
