"""Instance families that only the tests read.

Triple function systems for the cycle-surgery tests, exact constructions: a
planted cycle with forward trees, and a single source with full forward
trees; the rng only picks which map realizes each cycle edge.  Random path
windows and random perfect matchings for the transfer tests, and for the
G_n matching file that the README tour's transfer line reads: no command
writes one.
"""

from paradecomp.graphs import BipartiteGraph, bipartite_graph
from paradecomp.matching import hopcroft_karp
from paradecomp.treedyn import TripleFunctionSystem


def _grown_system(maps: tuple, roots: int, depth: int) -> TripleFunctionSystem:
    """Grow forward trees from points 0..roots-1 for depth generations.

    Points are created on demand generation by generation; every point of
    generation < depth gets all three values (keeping any it already has),
    the last generation gets none and is the boundary.
    """
    nodes = roots
    frontier = list(range(roots))
    interior: set = set()
    for _ in range(depth):
        nxt = []
        for x in frontier:
            interior.add(x)
            for i in range(3):
                if x not in maps[i]:
                    maps[i][x] = nodes
                    nxt.append(nodes)
                    nodes += 1
        frontier = nxt
    return TripleFunctionSystem(
        maps=maps,
        n_points=nodes,
        interior=tuple(p in interior for p in range(nodes)),
        labels=None,
    )


def planted_cycle_system(cycle_len: int, depth: int, rng) -> TripleFunctionSystem:
    """Triple system whose graph has one planted cycle plus forward trees.

    The cycle is 0 -> 1 -> ... -> cycle_len-1 -> 0; the rng only picks which
    map realizes each cycle edge.
    """
    if cycle_len < 1:
        raise ValueError("cycle length must be >= 1")
    maps: tuple = ({}, {}, {})
    for t in range(cycle_len):
        maps[rng.randrange(3)][t] = (t + 1) % cycle_len
    return _grown_system(maps, cycle_len, depth)


def source_tree_system(depth: int) -> TripleFunctionSystem:
    """Cycle-free component: a single source with full forward trees.

    Nothing maps onto the source although it is flagged interior; that is
    the relaxed shape the surgery certifies cycle-free and keeps unchanged.
    """
    return _grown_system(({}, {}, {}), 1, depth)


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
