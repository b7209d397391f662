import random
from fractions import Fraction

from paradecomp.generators import (
    complete_bipartite,
    hall_family,
    line_window,
    random_path_window,
    random_perfect_matching,
    star_graph,
    synthetic_forest,
    union_of_permutations,
)
from paradecomp.hall import check_hall_eps_n
from paradecomp.treedyn import OrientedTwoRegular, forest_is_acyclic

from oracles import bfs_distances, kuhn_max_matching


def test_complete_bipartite_shape():
    g = complete_bipartite(3, 4)
    assert g.side_vertices(0) == (0, 1, 2)
    assert g.side_vertices(1) == (3, 4, 5, 6)
    assert g.n_edges() == 12


def test_star_shape():
    g = star_graph(5)
    assert g.side_vertices(0) == (0,)
    assert g.degree(0) == 5


def test_union_of_permutations_has_perfect_matching():
    rng = random.Random(4)
    for n, r in ((5, 2), (12, 3), (30, 4)):
        g = union_of_permutations(n, r, rng)
        assert len(g.side_vertices(0)) == n
        assert len(g.side_vertices(1)) == n
        assert all(1 <= g.degree(v) <= r for v in g.ids)
        assert len(kuhn_max_matching(g)) == n


def test_union_of_permutations_is_seed_deterministic():
    a = union_of_permutations(15, 3, random.Random(77))
    b = union_of_permutations(15, 3, random.Random(77))
    assert a.edges() == b.edges()


def test_hall_family_instances_are_prevalidated():
    rng = random.Random(6)
    epsilons = [Fraction(1, 4), Fraction(1, 2), Fraction(1)]
    pairs = hall_family(8, rng, epsilons, n_range=(4, 30))
    assert len(pairs) == 8
    for g, p in pairs:
        assert p.epsilon in epsilons
        assert check_hall_eps_n(g, p, 2).satisfied


def test_random_path_window_is_a_single_even_path():
    rng = random.Random(13)
    for _ in range(20):
        g = random_path_window(rng)
        n = len(g.ids)
        assert n % 2 == 0
        assert 32 <= n <= 60
        tr = OrientedTwoRegular.from_graph(g)
        assert len(tr.paths) == 1
        (seq,) = tr.paths.values()
        assert len(seq) == n
        assert all(v < 500 for v in g.ids)


def test_random_perfect_matching_agrees_with_oracle():
    rng = random.Random(2)
    g = complete_bipartite(4, 4)
    m = random_perfect_matching(g, rng)
    assert m is not None and len(m) == 4
    assert random_perfect_matching(star_graph(3), rng) is None


def test_random_perfect_matching_on_a_long_path():
    # the path's only perfect matching; 1,200 left vertices are more than a
    # search recursing once per vertex could hold under the recursion limit
    m = random_perfect_matching(line_window(2400), random.Random(1))
    assert len(m) == 1200
    assert m == {(k, k + 1) for k in range(0, 2400, 2)}


def test_synthetic_forest_shape():
    fw = synthetic_forest(random.Random(5))
    assert max(bfs_distances(fw.adjacency, 0).values()) >= 128
    assert all(fw.present)
    assert forest_is_acyclic(fw)
    for v in range(fw.n_points()):
        assert len(fw.adjacency[v]) in (1, 4)
        assert fw.interior[v] == (len(fw.adjacency[v]) == 4)


def test_synthetic_forest_is_seed_deterministic():
    a = synthetic_forest(random.Random(21))
    b = synthetic_forest(random.Random(21))
    assert a == b
