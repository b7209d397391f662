"""Triple function systems for the cycle-surgery tests.

Exact constructions: a planted cycle with forward trees, and a single
source with full forward trees.  The rng only picks which map realizes each
cycle edge.
"""

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
