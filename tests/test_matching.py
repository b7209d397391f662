import pytest
from hypothesis import given, strategies as st

from paradecomp.errors import InvariantError
from paradecomp.matching import combine_saturating, hopcroft_karp

from oracles import recursive_hopcroft_karp


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
