import pytest
from hypothesis import given, strategies as st

from paradecomp import actions
from paradecomp.actions import (
    build_doubling,
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
    # m2 was supposed to cover need_b but misses vertex 11
    with pytest.raises(InvariantError) as ei:
        combine_saturating({(0, 10)}, set(), {0}, {11})
    assert ei.value.code == "INVARIANT"
    assert ei.value.details["missing"] == [11]


@st.composite
def matchings_and_needs(draw):
    """Two matchings between 0..7 and 100..107, and vertex sets to cover.

    Each need set is a drawn subset of the vertices its matching covers on
    its own side, as interior_saturating_matching passes them.
    """

    def matching():
        k = draw(st.integers(0, 8))
        us = draw(st.permutations(range(8)))[:k]
        vs = draw(st.permutations(range(100, 108)))[:k]
        return set(zip(us, vs))

    def subset(xs):
        keep = draw(st.lists(st.booleans(), min_size=len(xs), max_size=len(xs)))
        return {x for x, k in zip(xs, keep) if k}

    m1, m2 = matching(), matching()
    return m1, m2, subset(sorted(u for u, _ in m1)), subset(sorted(v for _, v in m2))


@given(matchings_and_needs())
def test_combine_saturating_agrees_with_component_labelling(case):
    got = combine_saturating(*case)
    assert list(got) == list(component_combine_saturating(*case))


@pytest.mark.parametrize("kind", ["f2", "sphere"])
@pytest.mark.parametrize("square", [False, True], ids=["S-3copy", "S2-4copy"])
def test_combine_saturating_agrees_on_window_inputs(monkeypatch, kind, square):
    # the inputs demo (S, 3 copies) and forest (S^2, 4 copies) pass at radius 8
    calls = []

    def both(*args):
        got = combine_saturating(*args)
        calls.append(list(got) == list(component_combine_saturating(*args)))
        return got

    monkeypatch.setattr(actions, "combine_saturating", both)
    s = standard_generators()
    gens, copies = (square_set(s), 4) if square else (s, 3)
    w = expand_window(kind, None, s, 8, 4, gens.max_word_length())
    interior_saturating_matching(build_doubling(w, gens, copies))
    assert calls == [True]
