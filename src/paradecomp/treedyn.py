"""Dynamics on trees derived from matchings.

Three constructions share this module: transferring a perfect matching of
the odd-path power G_n down to a 2-regular acyclic graph by ball majority,
cycle surgery turning the three functions read off a 4-copy doubling
matching into a 4-regular forest, and the staged construction of a free
two-generator action on such a forest.  Everything runs on finite windows,
so each construction carries its own notion of how deep a vertex must sit
for the answer there to be exact; shallower vertices are skipped and
counted, never silently guessed.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import compress
from operator import and_

from .errors import (
    BallTruncatedError,
    ExtensionStuckError,
    ForestFormatError,
    HypothesisFailedError,
    InvalidMatchingError,
    InvariantError,
)
from .graphs import (
    BipartiteGraph,
    bfs_distances,
    bipartite_graph,
    components,
    greedy_net,
    validate_matching,
)


class OrientedTwoRegular:
    """Window of a 2-regular acyclic graph with each component ordered.

    Components of such a window are simple paths.  paths maps each
    component's least endpoint to the component walked from that endpoint,
    so a path lists its vertices in the component's linear order; pos gives a
    vertex's rank along its path and comp the key of that path.
    """

    __slots__ = ("graph", "paths", "pos", "comp")

    def __init__(self, graph, paths, pos, comp):
        self.graph = graph
        self.paths = paths
        self.pos = pos
        self.comp = comp

    @classmethod
    def from_graph(cls, g: BipartiteGraph) -> "OrientedTwoRegular":
        for v in g.ids:
            if g.degree(v) > 2:
                raise HypothesisFailedError(
                    "degree above 2 in a 2-regular window", vertex=v
                )
        paths: dict = {}
        pos: dict = {}
        comp: dict = {}
        for members in components(g.adj, g.ids):
            ends = [v for v in members if g.degree(v) <= 1]
            if not ends:
                raise HypothesisFailedError(
                    "cycle inside a 2-regular window",
                    component=sorted(members)[:8],
                )
            root = min(ends)
            # a breadth-first search from an endpoint walks the path in order
            path = paths[root] = list(bfs_distances(g.adj, (root,)))
            for k, v in enumerate(path):
                pos[v] = k
                comp[v] = root
        return cls(g, paths, pos, comp)


def odd_path_graph(tr: OrientedTwoRegular, n: int) -> BipartiteGraph:
    """G_n: x joined to y when the unique path between them has odd length <= 2n-1."""
    if n < 1:
        raise ValueError("n must be >= 1")
    base = tr.graph
    edges = [
        (u, v)
        for path in tr.paths.values()
        for i, u in enumerate(path)
        for v in path[i + 1 : i + 2 * n : 2]
    ]
    return bipartite_graph(base.side_vertices(0), base.side_vertices(1), edges)


def majority_ball(tr: OrientedTwoRegular, x, n: int) -> tuple:
    """D_n(x): the side-0 vertices within distance 2n-2 of x; always 2n-1 many.

    Sides alternate along a path, so these are the vertices at even offsets
    of at most 2n-2 from x, listed in path order.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    base = tr.graph
    base.require_vertex(x)
    if base.side_of[x] != 0:
        raise ValueError("majority ball is anchored at a side-0 vertex")
    k, r = tr.pos[x], 2 * n - 2
    ball = tr.paths[tr.comp[x]][max(k - r, k % 2) : k + r + 1 : 2]
    if len(ball) != 2 * n - 1:
        raise BallTruncatedError(
            "majority ball leaves the window", center=x, n=n, found=len(ball)
        )
    return tuple(ball)


@dataclass(frozen=True)
class TransferResult:
    n: int
    matching: dict  # side-0 vertex -> chosen neighbor in the base graph
    excluded: tuple  # side-0 vertices skipped as too shallow

    def directions(self, tr: OrientedTwoRegular) -> dict:
        """-1 where the choice went below x in the component order, else +1."""
        return {
            x: -1 if tr.pos[y] < tr.pos[x] else 1 for x, y in self.matching.items()
        }

    def as_obj(self) -> dict:
        return {
            "n": self.n,
            "matching": sorted([x, y] for x, y in self.matching.items()),
            "excluded": sorted(self.excluded),
        }


def transfer_matching(tr: OrientedTwoRegular, m_n, n: int) -> TransferResult:
    """Ball-majority transfer of a G_n matching down to the base graph.

    Each side-0 vertex whose majority ball lies inside the window and is fully
    matched picks the base-graph neighbor on the side of x holding at least n
    of the matched images; the component of that neighbor in the graph minus x
    is exactly one of the two half-lines, so counting positions decides it.
    """
    gn = odd_path_graph(tr, n)
    partner: dict = {}
    for u, v in validate_matching(gn, m_n):
        partner[u] = v
        partner[v] = u
    out: dict = {}
    taken: dict = {}
    excluded = []
    for x in tr.graph.side_vertices(0):
        try:
            ball = majority_ball(tr, x, n)
        except BallTruncatedError:
            excluded.append(x)
            continue
        if any(y not in partner for y in ball):
            excluded.append(x)
            continue
        below = sum(1 for y in ball if tr.pos[partner[y]] < tr.pos[x])
        path = tr.paths[tr.comp[x]]
        k = tr.pos[x] - 1 if below >= n else tr.pos[x] + 1
        if not 0 <= k < len(path):
            raise InvariantError("complete ball but missing neighbor", vertex=x)
        y = path[k]
        if y in taken:
            raise InvalidMatchingError(
                "transfer demanded the same partner twice",
                vertex=y,
                left=sorted((taken[y], x)),
            )
        taken[y] = x
        out[x] = y
    return TransferResult(n=n, matching=out, excluded=tuple(excluded))


@dataclass(frozen=True)
class TripleFunctionSystem:
    """Three injective partial maps with disjoint ranges covering the interior."""

    maps: tuple  # three dicts, point index -> point index
    n_points: int
    interior: tuple  # bool per point
    labels: tuple | None = None

    def validate(self) -> dict:
        """Check the hypotheses; return point -> (map index, its preimage).

        One pass checks that every entry lies in the window and that no point
        is an image twice: twice in one map means the map is not injective,
        in two maps that their ranges overlap.  Interior coverage is not
        checked: a system read off a matching has it by dg.partners, and a
        relaxed synthetic one may lack it.
        """
        if len(self.maps) != 3:
            raise ValueError("exactly three maps expected")
        pred: dict = {}
        for i, f in enumerate(self.maps):
            for x, y in f.items():
                if not (0 <= x < self.n_points and 0 <= y < self.n_points):
                    raise HypothesisFailedError(
                        "map entry outside the window", index=i, entry=[x, y]
                    )
                if y in pred:
                    j = pred[y][0]
                    if j == i:
                        raise HypothesisFailedError("map not injective", index=i)
                    raise HypothesisFailedError("ranges overlap", point=y, maps=[j, i])
                pred[y] = (i, x)
        return pred


def triple_system_from_matching(dg, partner: dict) -> TripleFunctionSystem:
    """Read the three functions off a 4-copy doubling matching.

    partner is the matching's partner map, as dg.partners returns it (and
    interior_saturating_matching with it).  f_i(x) = y when (i+1, x) is
    matched to (0, y).  The map is a matching that misses no interior vertex,
    so the maps are injective with disjoint ranges, and every interior point
    carries all three values and lies in exactly one range.  The system is
    validated once, by forest_from_paradox as it reads it.
    """
    if dg.copies != 4:
        raise ValueError("triple systems come from the 4-copy doubling graph")
    n = dg.n_points
    maps: tuple = ({}, {}, {})
    for u, v in partner.items():
        if u >= n:
            c, x = divmod(u, n)
            maps[c - 1][x] = v
    interior = [False] * n
    for i in dg.window.interior_indices():
        interior[i] = True
    return TripleFunctionSystem(
        maps=maps,
        n_points=n,
        interior=tuple(interior),
        labels=tuple(dg.window.words),
    )


@dataclass(frozen=True)
class ForestWindow:
    """Finite window of a 4-regular forest.

    present marks points that survived component resolution.  Interior flags
    are inherited from the source and cleared on dropped points.
    """

    adjacency: tuple  # tuple of sorted tuples per point
    interior: tuple
    present: tuple
    labels: tuple | None
    stats: dict

    def n_points(self) -> int:
        return len(self.adjacency)

    def to_obj(self) -> dict:
        return {
            "n_points": self.n_points(),
            "edges": [
                [u, v] for u, vs in enumerate(self.adjacency) if vs for v in vs if u < v
            ],
            "interior": list(bytes(self.interior)),
            "present": list(bytes(self.present)),
            "labels": list(self.labels) if self.labels is not None else None,
            "stats": self.stats,
        }


def forest_from_obj(obj) -> ForestWindow:
    """Parse the forest interchange dict, naming the offending field on bad input.

    The edges must form a forest: a self-loop or an edge list that closes a
    cycle is refused like any other malformed field.  One pass over the edges
    checks each in list order, appends it to its endpoints' neighbour lists
    and links their trees in a union-find.  An endpoint not met before is
    in no tree yet, so it is attached under the other endpoint with no
    find; only an edge whose endpoints were both met runs the two
    path-halving finds.  An edge inside one tree is a repeat when it is
    already listed (skipped) and closes a cycle otherwise; the cycle is
    reported after the whole list is read, so a malformed later edge is
    named first.  Keys it does not read, the schema among them, are
    ignored.
    """
    if not isinstance(obj, dict):
        raise ForestFormatError("top level must be an object")
    for key in ("n_points", "edges", "interior", "present"):
        if key not in obj:
            raise ForestFormatError(f"missing field: {key}")
    n = obj["n_points"]
    if type(n) is not int or n < 0:
        raise ForestFormatError("n_points: expected a non-negative integer")
    for key in ("interior", "present"):
        if not isinstance(obj[key], list) or len(obj[key]) != n:
            raise ForestFormatError(f"{key}: expected a list of n_points = {n} entries")
    labels = obj.get("labels")
    if labels is not None and (not isinstance(labels, list) or len(labels) != n):
        raise ForestFormatError(f"labels: expected null or a list of {n} entries")
    stats = obj.get("stats", {})
    if not isinstance(stats, dict):
        raise ForestFormatError("stats: expected an object")
    edges = obj["edges"]
    if not isinstance(edges, list):
        raise ForestFormatError("edges: expected a list")
    nbrs = [[] for _ in range(n)]
    up = [-1] * n  # -1: not met yet; a root is its own parent
    inner = []  # edges whose endpoints already shared a tree
    for i, e in enumerate(edges):
        if not isinstance(e, list) or len(e) != 2:
            raise ForestFormatError(f"edges[{i}]: expected a pair [u, v]")
        u, v = e
        if type(u) is not int or type(v) is not int:
            raise ForestFormatError(f"edges[{i}]: endpoints must be integers")
        if not (0 <= u < n and 0 <= v < n):
            raise ForestFormatError(
                f"edge [{u}, {v}]: endpoint outside 0..{n - 1}", edge=[u, v]
            )
        if u == v:
            raise ForestFormatError(f"edge [{u}, {v}]: self-loop", edge=[u, v])
        if up[u] < 0:
            if up[v] < 0:
                up[v] = v
            up[u] = v
        elif up[v] < 0:
            up[v] = u
        else:
            ru = u
            while up[ru] != ru:
                up[ru] = ru = up[up[ru]]
            rv = v
            while up[rv] != rv:
                up[rv] = rv = up[up[rv]]
            if ru == rv:
                inner.append((u, v))
                continue
            if ru < rv:
                up[rv] = ru
            else:
                up[ru] = rv
        nbrs[u].append(v)
        nbrs[v].append(u)
    for ns in nbrs:
        ns.sort()
    # an edge is listed only when it joins two trees, so an inner edge that
    # is not listed joins two points of one tree a second way
    for u, v in inner:
        ns = nbrs[u]
        k = bisect_left(ns, v)
        if k == len(ns) or ns[k] != v:
            raise ForestFormatError("edges: the edge list closes a cycle")
    return ForestWindow(
        adjacency=tuple(map(tuple, nbrs)),
        interior=tuple(map(bool, obj["interior"])),
        present=tuple(map(bool, obj["present"])),
        labels=tuple(labels) if labels is not None else None,
        stats=dict(stats),
    )


def _steal(nbrs: dict, start, first, ray, g0):
    """Move each subtree hanging by a g0 edge one step down an injective ray.

    Adds {z, g0(z')} and removes {z', g0(z')} along consecutive ray points
    z' = ray step of z, starting from first.  Every add is paired with the
    removal that frees the same subtree, so trees stay trees; the walk stops
    where the window runs out of ray or of g0 values.
    """
    z, nxt = start, first
    while nxt is not None:
        tgt = g0.get(nxt)
        if tgt is None or tgt == z:
            break
        nbrs[nxt].discard(tgt)
        nbrs[tgt].discard(nxt)
        nbrs[z].add(tgt)
        nbrs[tgt].add(z)
        z, nxt = nxt, ray.get(nxt)


def forest_from_paradox(ts: TripleFunctionSystem) -> ForestWindow:
    """Cycle surgery: the graph generated by a triple system, made acyclic.

    Every point has at most one predecessor, so each component of that graph
    holds exactly one point with no predecessor or exactly one cycle, and
    the predecessor chain of every member ends there.  One walk along the
    chains labels each point the maps touch with its component's fate,
    stopping at the first point already labelled.  A chain that dies at a
    non-interior point means the component's cycle lives outside the window,
    so the component is dropped and counted; an interior point with no
    predecessor marks a genuinely cycle-free component, kept as is.

    For a cycle, edges are relabeled pointwise so the cycle runs along the
    first map, the closing edge into the least cycle vertex is cut, and the
    degree deficit is pushed out along rays from the two cut endpoints, each
    step moving one hanging subtree a step closer.  Shifting along every ray
    off the cycle would overshoot (cycle vertices would end up with five
    edges and the cycle itself would survive); the two endpoint rays are
    exactly enough for 4-regularity away from the boundary.  The surgery
    edits the graph's neighbour sets in place, inside its own component; a
    kept point's final set is its adjacency.

    Interior coverage is not required here: a relaxed synthetic system may
    have a chain dying at an interior point, which certifies the component
    cycle-free.
    """
    pred = ts.validate()
    n = ts.n_points
    maps = ts.maps
    # only the points the maps touch (keys and values) can carry an edge or a
    # predecessor; every other window point is an isolated component
    nbrs: dict = {}
    for f in maps:
        for x, y in f.items():
            nx, ny = nbrs.setdefault(x, set()), nbrs.setdefault(y, set())
            if x != y:
                nx.add(y)
                ny.add(x)

    def other_value(x, y, offset=1):
        # x's value under the map offset past the one that carries x to y
        return maps[(pred[y][0] + offset) % 3].get(x)

    # per point: 0 until a walk meets it, then its component's fate
    ON_WALK, KEPT, DROPPED = 1, 2, 3
    fate = bytearray(n)
    cycle_hist: dict = {}
    n_comps = truncated = free_components = 0
    for start in nbrs:
        if fate[start]:
            continue
        walk = []
        x = start
        while not fate[x]:
            fate[x] = ON_WALK
            walk.append(x)
            p = pred.get(x)
            if p is None:
                # x has no predecessor: the walk met a new tree component
                n_comps += 1
                if ts.interior[x]:
                    free_components += 1
                    label = KEPT
                else:
                    truncated += 1
                    label = DROPPED
                break
            x = p[1]
        else:
            label = fate[x]
            if label == ON_WALK:
                # the walk closed a new cycle; it ran backward, so reverse it
                n_comps += 1
                label = KEPT
                cyc = walk[walk.index(x) :]
                cyc.reverse()
                k = cyc.index(min(cyc))
                cyc = cyc[k:] + cyc[:k]
                cycle_hist[len(cyc)] = cycle_hist.get(len(cyc), 0) + 1
                if len(cyc) == 1:
                    x0 = cyc[0]
                    _steal(nbrs, x0, other_value(x0, x0), maps[1], maps[0])
                    _steal(nbrs, x0, other_value(x0, x0, 2), maps[2], maps[0])
                elif len(cyc) == 2:
                    x0, x1 = cyc
                    _steal(nbrs, x0, other_value(x0, x1), maps[1], maps[0])
                    _steal(nbrs, x1, other_value(x1, x0), maps[1], maps[0])
                else:
                    x0, xn = cyc[0], cyc[-1]
                    nbrs[xn].discard(x0)
                    nbrs[x0].discard(xn)
                    _steal(nbrs, xn, other_value(xn, x0), maps[1], maps[0])
                    _steal(nbrs, x0, other_value(x0, cyc[1]), maps[1], maps[0])
        for x in walk:
            fate[x] = label

    adjacency = [()] * n
    interior = [False] * n
    present = [False] * n
    isolated = n - len(nbrs)
    # popping frees each set as its point's tuple is made, so the sets and
    # the tuples are never all held at once
    while nbrs:
        x, ns = nbrs.popitem()
        if fate[x] == KEPT:
            present[x] = True
            interior[x] = bool(ts.interior[x])
            adjacency[x] = tuple(sorted(ns))

    return ForestWindow(
        adjacency=tuple(adjacency),
        interior=tuple(interior),
        present=tuple(present),
        labels=ts.labels,
        stats={
            "components": n_comps + isolated,
            "kept": n_comps - truncated,
            "truncated": truncated,
            "isolated": isolated,
            "cycle_free": free_components,
            "cycles": {str(k): v for k, v in sorted(cycle_hist.items())},
        },
    )


def forest_is_acyclic(fw: ForestWindow) -> bool:
    """A graph is a forest exactly when it has n - #components edges."""
    adj = fw.adjacency
    n_edges = sum(1 for u, ns in enumerate(adj) for v in ns if u < v)
    n_comps = sum(1 for _ in components(adj, range(len(adj))))
    return n_edges == len(adj) - n_comps


SEPARATION_BASE = 16
EXTENSION_ORDER = (-2, -1, 1, 2)


@dataclass(frozen=True)
class PartialInjectionStage:
    n: int
    a_points: tuple
    domain: frozenset


@dataclass
class F2ActionResult:
    maps: dict  # index -> dict, final
    stages: list
    covered: frozenset
    eligible: int
    audits: list

    def as_obj(self) -> dict:
        return {
            "f1": sorted([x, y] for x, y in self.maps[1].items()),
            "f2": sorted([x, y] for x, y in self.maps[2].items()),
            "covered": len(self.covered),
            "eligible": self.eligible,
            "stages": [
                {
                    "n": st.n,
                    "layer": len(st.a_points),
                    "domain": len(st.domain),
                }
                for st in self.stages
            ],
            "audits": self.audits,
        }


def _stage_audit(
    forest: ForestWindow, domain: set, stage: int, near: dict, index: dict
) -> dict:
    """Measure the stage conditions: local connectivity and G^{<=8} diameters.

    near maps each domain point audited so far to the domain points within
    distance 8 of it, as a dict from point to distance; it is G^{<=8} over
    the domain, with its distances.  The domain only grows, so each point is
    searched once, to radius 4, when it joins: index maps every vertex of a
    searched ball to the (searched point, distance) pairs that reach it.  A
    shortest path of length d <= 8 has a vertex ceil(d/2) <= 4 from one end
    and floor(d/2) from the other, so two points lie within 8 exactly when
    their balls share a vertex, and their distance is the least dx + dy over
    the shared vertices.  A new point's ball, read against the index, gives
    its pairs with every point searched before it.  The pairs serve both
    conditions: domain points within distance 4 must lie in one piece of
    the domain, and the pairs are the edges of G^{<=8}.
    """
    adjacency = forest.adjacency
    for x in domain.difference(near):
        met = {}
        for v, dx in bfs_distances(adjacency, (x,), 4).items():
            pairs = index.get(v)
            if pairs is None:
                index[v] = [(x, dx)]
                continue
            for y, dy in pairs:
                d = dx + dy
                if d < met.get(y, 9):
                    met[y] = d
            pairs.append((x, dx))
        near[x] = met
        for y, d in met.items():
            near[y][x] = d
    inside = {u: [y for y in adjacency[u] if y in domain] for u in domain}
    comp = {}
    for piece in components(inside, domain):
        # labelled by the least member, where its search starts
        comp.update(dict.fromkeys(piece, next(iter(piece))))
    split = min(
        (
            x
            for x, met in near.items()
            if any(d <= 4 and comp[y] != comp[x] for y, d in met.items())
        ),
        default=None,
    )
    if split is not None:
        # the least such point, paired with the first one its search reaches
        y = next(
            y
            for y in bfs_distances(adjacency, (split,), 4)
            if y in domain and comp[y] != comp[split]
        )
        raise HypothesisFailedError(
            "domain points within distance 4 in separate pieces",
            stage=stage,
            pair=[split, y],
        )
    # a search never leaves its start's component, so the largest
    # eccentricity over the domain is the largest component diameter; a
    # point with no G^{<=8} neighbour has eccentricity 0
    max_diam = max(
        (max(bfs_distances(near, (a,)).values()) for a, met in near.items() if met),
        default=0,
    )
    bound = 4**stage
    if max_diam > bound:
        raise HypothesisFailedError(
            "stage component diameter above bound",
            stage=stage,
            diameter=max_diam,
            bound=bound,
        )
    return {
        "stage": stage,
        "domain": len(domain),
        "g8_diameter": max_diam,
        "g8_bound": bound,
    }


def f2_action_from_forest(forest: ForestWindow, stages: int) -> F2ActionResult:
    """Stage the four partial injections over a 4-regular forest window.

    Layer n is a greedy net of degree-4 interior points with pairwise
    distance above 16 * 4^n; its points outside the current domain sprout
    shells that only grow through points within distance 3 of the previous
    domain.  At each new point, rule one forces any value whose inverse is
    already committed, then rule two fills the remaining indices with fresh
    distinct neighbors, scanning indices in the fixed order -2, -1, 1, 2
    and taking the least feasible neighbor.

    Every distance in an n-point forest is below n, so once the separation
    reaches n_points a net is the least eligible point of each component and
    every later net repeats it.  The loop ends after the first such stage,
    which bounds the work of any stages value.
    """
    if stages < 0:
        raise ValueError("stages must be >= 0")
    adjacency = forest.adjacency
    inner = map(and_, forest.present, forest.interior)
    eligible = [
        p for p in compress(range(len(adjacency)), inner) if len(adjacency[p]) == 4
    ]
    elig_set = set(eligible)

    maps = {i: {} for i in EXTENSION_ORDER}
    ran = {i: set() for i in EXTENSION_ORDER}
    domain: set = set()
    near: dict = {}  # the audits' G^{<=8} over the domain, kept as it grows
    index: dict = {}  # vertex -> (searched point, distance <= 4) pairs
    stages_out = []
    audits = []

    for s_n in range(stages + 1):
        separation = SEPARATION_BASE * 4**s_n
        layer = greedy_net(adjacency, eligible, separation)
        newcomers = [p for p in layer if p not in domain]
        dist_prev = bfs_distances(adjacency, domain, 3)

        shells = [sorted(newcomers)]
        claimed = set(newcomers)
        owner = {p: p for p in newcomers}
        frontier = shells[0]
        while frontier:
            votes: dict = {}
            for u in frontier:
                for y in adjacency[u]:
                    if y in claimed or y in domain or y not in elig_set:
                        continue
                    if dist_prev.get(y, 9) > 3:
                        continue
                    votes.setdefault(y, set()).add(owner[u])
            ring = sorted(votes)
            for y in ring:
                if len(votes[y]) != 1:
                    raise HypothesisFailedError(
                        "shells of two layer points claim one vertex",
                        stage=s_n,
                        vertex=y,
                        owners=sorted(votes[y]),
                    )
                owner[y] = votes[y].pop()
                claimed.add(y)
            if not ring:
                break
            shells.append(ring)
            frontier = ring

        for ring in shells:
            for x in ring:
                values: dict = {}
                nbrs = adjacency[x]
                for i in EXTENSION_ORDER:
                    forced = [y for y in nbrs if maps[-i].get(y) == x]
                    if len(forced) > 1:
                        raise InvariantError(
                            "two neighbors force one index", point=x, index=i
                        )
                    if forced:
                        if forced[0] in ran[i]:
                            raise InvariantError(
                                "forced value already used", point=x, index=i
                            )
                        values[i] = forced[0]
                for i in EXTENSION_ORDER:
                    if i in values:
                        continue
                    got = None
                    for y in nbrs:
                        if y in values.values() or y in ran[i]:
                            continue
                        if maps[-i].get(y, x) != x:
                            continue
                        got = y
                        break
                    if got is None:
                        raise ExtensionStuckError(
                            "no feasible value during extension",
                            point=x,
                            index=i,
                            stage=s_n,
                            taken={str(j): v for j, v in values.items()},
                            neighbors=list(nbrs),
                            range_blocked=[y for y in nbrs if y in ran[i]],
                        )
                    values[i] = got
                for i, y in values.items():
                    maps[i][x] = y
                    ran[i].add(y)
                domain.add(x)

        if any(p not in domain for p in layer):
            raise InvariantError("layer escaped the domain", stage=s_n)
        stages_out.append(
            PartialInjectionStage(
                n=s_n,
                a_points=tuple(layer),
                domain=frozenset(domain),
            )
        )
        audits.append(_stage_audit(forest, domain, s_n, near, index))
        if separation >= len(adjacency):
            break

    return F2ActionResult(
        maps=maps,
        stages=stages_out,
        covered=frozenset(domain),
        eligible=len(eligible),
        audits=audits,
    )


def free_word_violation(maps: dict, max_len: int):
    """First (point, word) fixed by a nonempty reduced word, or None.

    Words run over the four indices with immediate inverses banned; an
    evaluation that leaves the domain abandons that branch, matching the
    window-mode reading of freeness.  A max_len below 1 would check no
    word, and is refused.
    """
    if max_len < 1:
        raise ValueError(f"max_len {max_len} must be >= 1")
    domain = sorted(maps[1])
    for start in domain:
        stack = [(start, 0, ())]
        while stack:
            point, banned, word = stack.pop()
            for i in reversed(EXTENSION_ORDER):
                if i == -banned:
                    continue
                q = maps[i].get(point)
                if q is None:
                    continue
                w2 = word + (i,)
                if q == start:
                    return start, w2
                if len(w2) < max_len:
                    stack.append((q, i, w2))
    return None
