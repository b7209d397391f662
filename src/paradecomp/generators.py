"""Instance generators for tests, benchmarks and synthetic windows.

Everything takes an explicit random.Random so runs are reproducible from a
seed; exact constructions never consult the rng.
"""

from __future__ import annotations

from .graphs import BipartiteGraph, bipartite_graph
from .hall import ExpansionParams, check_hall_eps_n
from .matching import hopcroft_karp
from .treedyn import ForestWindow


def complete_bipartite(a: int, b: int) -> BipartiteGraph:
    left = range(a)
    right = range(a, a + b)
    return bipartite_graph(left, right, [(u, v) for u in left for v in right])


def star_graph(leaves: int = 3) -> BipartiteGraph:
    # center 0 on side 0; any two leaves violate Hall on side 1
    right = range(1, leaves + 1)
    return bipartite_graph([0], right, [(0, v) for v in right])


def union_of_permutations(n: int, r: int, rng) -> BipartiteGraph:
    """Left 0..n-1, right n..2n-1, edges the union of r random bijections.

    A perfect matching exists by construction; expansion at small scales is
    not guaranteed (images can collide), so callers validate.
    """
    edges = set()
    right = list(range(n, 2 * n))
    for _ in range(r):
        perm = right[:]
        rng.shuffle(perm)
        for i in range(n):
            edges.add((i, perm[i]))
    return bipartite_graph(range(n), right, sorted(edges))


def hall_family(count: int, rng, epsilons, n_range=(4, 100), validate_cap: int = 2):
    """Pre-validated expander family: (graph, params) pairs.

    Draws union-of-permutation graphs until `count` pass check_hall_eps_n at
    the given cap.  With two permutations any sharing of images kills the
    doubled expansion clause, so epsilon = 1 instances use three or four.
    """
    out = []
    epsilons = list(epsilons)
    while len(out) < count:
        n = rng.randint(*n_range)
        eps = epsilons[rng.randrange(len(epsilons))]
        r = rng.randint(3, 4) if eps >= 1 else rng.randint(2, 4)
        g = union_of_permutations(n, r, rng)
        p = ExpansionParams(eps, 1)
        if check_hall_eps_n(g, p, validate_cap).satisfied:
            out.append((g, p))
    return out


def line_window(n_vertices: int) -> BipartiteGraph:
    """Path on 0..n-1 in order, sides alternating."""
    if n_vertices < 1:
        raise ValueError("need at least one vertex")
    side0 = range(0, n_vertices, 2)
    side1 = range(1, n_vertices, 2)
    edges = [(k, k + 1) for k in range(n_vertices - 1)]
    return bipartite_graph(side0, side1, edges)


def random_path_window(rng, min_len: int = 31, max_len: int = 59, id_span: int = 500):
    """Single path with shuffled vertex ids, sides by position parity.

    Lengths are kept odd so the vertex count is even and perfect matchings
    of the path powers exist.
    """
    length = rng.randrange(min_len, max_len + 1, 2)
    n = length + 1
    ids = rng.sample(range(id_span), n)
    side0 = [ids[k] for k in range(0, n, 2)]
    side1 = [ids[k] for k in range(1, n, 2)]
    edges = [(ids[k], ids[k + 1]) for k in range(length)]
    return bipartite_graph(side0, side1, edges)


def random_perfect_matching(g: BipartiteGraph, rng):
    """A perfect matching of g as (side 0, side 1) pairs; None if g has none.

    One Hopcroft-Karp run over the side-0 vertices and their neighbours,
    each shuffled with rng, so the seed picks which matching comes out.
    """
    left = list(g.side_vertices(0))
    rng.shuffle(left)
    adj = {u: rng.sample(g.adj[u], len(g.adj[u])) for u in left}
    pairs = hopcroft_karp(left, adj.__getitem__, dict.fromkeys(g.side_vertices(1)))
    if 2 * len(pairs) != len(g.ids):
        return None
    return set(pairs.items())


def synthetic_forest(rng) -> ForestWindow:
    """Sparse 4-regular tree window: a long spine with decorations.

    Every non-leaf vertex has degree exactly 4; leaves are the boundary.
    The spine keeps the tree deep without the exponential blowup of a
    full 4-regular ball; each spine child starts a short branch with
    probability 0.3.
    """
    spine = rng.randint(132, 170)
    nbrs: list = [set()]

    def new_node(parent: int) -> int:
        v = len(nbrs)
        nbrs.append({parent})
        nbrs[parent].add(v)
        return v

    prev = 0
    spine_nodes = [0]
    for _ in range(spine):
        prev = new_node(prev)
        spine_nodes.append(prev)
    for v in spine_nodes:
        while len(nbrs[v]) < 4:
            c = new_node(v)
            if rng.random() < 0.3:
                chain = [c]
                cur = c
                for _ in range(rng.randint(2, 6)):
                    cur = new_node(cur)
                    chain.append(cur)
                for b in chain[:-1]:
                    while len(nbrs[b]) < 4:
                        new_node(b)

    n = len(nbrs)
    adjacency = tuple(tuple(sorted(s)) for s in nbrs)
    return ForestWindow(
        adjacency=adjacency,
        interior=tuple(len(adjacency[v]) == 4 for v in range(n)),
        present=tuple([True] * n),
        labels=None,
        stats={"kind": "synthetic", "spine": spine},
    )
