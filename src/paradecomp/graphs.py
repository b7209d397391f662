"""Finite bipartite graphs and the search machinery everything else shares.

One breadth-first search serves distances and connected components; greedy
nets run their own ball search, which keeps the radius left per vertex in a
list indexed by vertex, so its vertices are 0..n-1.  That search marks a
dead end (a vertex with one neighbour) without searching from it, so it
needs a symmetric adjacency: the dead end's one neighbour is then where the
search came from.  Every other module reaches those through the helpers
here.  The three searches read a vertex's neighbours as adjacency[u], from
a dict, list or tuple the caller already holds; a caller that searches a
subset passes an adjacency over that subset.

Vertex ids are opaque integers; every algorithm in the package breaks ties by
ascending id, so the structures here keep adjacency lists sorted.  Graphs are
immutable after construction: operations return new graphs.
"""

from __future__ import annotations

from .errors import GraphFormatError, InvalidMatchingError, UnknownVertexError


class BipartiteGraph:
    """Vertices with side labels 0/1, edges only across sides.

    adj maps every vertex to a sorted tuple of neighbors; ids is the sorted
    vertex tuple.  Construct through bipartite_graph() which validates.
    """

    __slots__ = ("ids", "side_of", "adj")

    def __init__(self, ids, side_of, adj):
        self.ids = ids
        self.side_of = side_of
        self.adj = adj

    def side_vertices(self, side: int) -> tuple:
        return tuple(v for v in self.ids if self.side_of[v] == side)

    def degree(self, v) -> int:
        return len(self.adj[v])

    def edges(self):
        """Each edge once, as (min, max), ascending."""
        out = []
        for u in self.ids:
            for v in self.adj[u]:
                if u < v:
                    out.append((u, v))
        return out

    def n_edges(self) -> int:
        return sum(len(a) for a in self.adj.values()) // 2

    def require_vertex(self, v):
        if v not in self.side_of:
            raise UnknownVertexError(f"vertex {v!r} not in graph", vertex=v)

    def __repr__(self):
        return f"BipartiteGraph(|V|={len(self.ids)}, |E|={self.n_edges()})"


def bipartite_graph(side0, side1, edges) -> BipartiteGraph:
    side_of = {}
    for v in side0:
        if v in side_of:
            raise GraphFormatError(f"duplicate vertex id {v}", vertex=v)
        side_of[v] = 0
    for v in side1:
        if v in side_of:
            raise GraphFormatError(f"duplicate vertex id {v}", vertex=v)
        side_of[v] = 1
    nbrs = {v: set() for v in side_of}
    for e in edges:
        u, v = e
        if u not in side_of:
            raise UnknownVertexError(f"edge endpoint {u!r} not a vertex", vertex=u)
        if v not in side_of:
            raise UnknownVertexError(f"edge endpoint {v!r} not a vertex", vertex=v)
        if u == v:
            raise GraphFormatError(f"self-loop at {u}", vertex=u)
        if side_of[u] == side_of[v]:
            raise GraphFormatError(
                f"edge {u}-{v} joins two side-{side_of[u]} vertices", edge=[u, v]
            )
        nbrs[u].add(v)
        nbrs[v].add(u)
    ids = tuple(sorted(side_of))
    adj = {v: tuple(sorted(nbrs[v])) for v in ids}
    return BipartiteGraph(ids, side_of, adj)


def graph_from_obj(obj) -> BipartiteGraph:
    """Parse the interchange dict, naming the offending field on bad input."""
    if not isinstance(obj, dict):
        raise GraphFormatError("top level must be an object")
    if "vertices" not in obj:
        raise GraphFormatError("missing field: vertices")
    if "edges" not in obj:
        raise GraphFormatError("missing field: edges")
    verts = obj["vertices"]
    if not isinstance(verts, list):
        raise GraphFormatError("vertices: expected a list")
    side0, side1 = [], []
    for i, entry in enumerate(verts):
        if not isinstance(entry, dict):
            raise GraphFormatError(f"vertices[{i}]: expected an object")
        if "id" not in entry or "side" not in entry:
            raise GraphFormatError(f"vertices[{i}]: needs id and side")
        vid, side = entry["id"], entry["side"]
        if type(vid) is not int:
            raise GraphFormatError(f"vertices[{i}].id: expected an integer")
        if type(side) is not int or side not in (0, 1):
            raise GraphFormatError(f"vertices[{i}].side: expected 0 or 1")
        (side0 if side == 0 else side1).append(vid)
    edges = obj["edges"]
    if not isinstance(edges, list):
        raise GraphFormatError("edges: expected a list")
    pairs = []
    for i, e in enumerate(edges):
        if not isinstance(e, list) or len(e) != 2:
            raise GraphFormatError(f"edges[{i}]: expected a pair [u, v]")
        u, v = e
        if type(u) is not int or type(v) is not int:
            raise GraphFormatError(f"edges[{i}]: endpoints must be integers")
        pairs.append((u, v))
    return bipartite_graph(side0, side1, pairs)


def graph_to_obj(g: BipartiteGraph) -> dict:
    return {
        "vertices": [{"id": v, "side": g.side_of[v]} for v in g.ids],
        "edges": [[u, v] for u, v in g.edges()],
    }


def to_dot(g: BipartiteGraph, matching=None) -> str:
    matched = set()
    if matching:
        for u, v in matching:
            matched.add((min(u, v), max(u, v)))
    lines = ["graph g {"]
    for v in g.ids:
        shape = "box" if g.side_of[v] == 0 else "ellipse"
        lines.append(f'  "{v}" [shape={shape}];')
    for u, v in g.edges():
        style = " [style=bold]" if (u, v) in matched else ""
        lines.append(f'  "{u}" -- "{v}"{style};')
    lines.append("}")
    return "\n".join(lines) + "\n"


def bfs_distances(adjacency, sources, bound=None) -> dict:
    """Breadth-first distances from sources, in the order vertices are reached.

    adjacency[u] is an iterable of u's neighbours, read in its given order;
    vertices farther than bound (when given) are left out.  Levels are
    expanded whole and in order, which is the visiting order of a FIFO queue.
    """
    dist = dict.fromkeys(sources, 0)
    frontier = list(dist)
    d = 0
    while frontier and (bound is None or d < bound):
        d += 1
        nxt = []
        for u in frontier:
            for w in adjacency[u]:
                if w not in dist:
                    dist[w] = d
                    nxt.append(w)
        frontier = nxt
    return dist


def components(adjacency, vertices):
    """Yield connected components, in order of each component's least vertex.

    Each component is its search's distance map from that least vertex: its
    keys are the members, starting at the least vertex and in breadth-first
    order, and its largest value is that vertex's eccentricity.  adjacency
    must stay inside vertices; a caller restricts the graph to a subset by
    passing an adjacency over that subset.  Maps are made one at a time, so
    a caller that reads each once never holds them all.
    """
    seen: set = set()
    for v in sorted(vertices):
        if v not in seen:
            dist = bfs_distances(adjacency, (v,))
            seen.update(dist)
            yield dist


def greedy_net(adjacency, points, radius) -> list:
    """Points kept by a scan in the given order, pairwise farther than radius.

    The vertices are 0..len(adjacency) - 1, and the adjacency must be
    symmetric: w is listed among u's neighbours exactly when u is among w's.
    A point is kept unless an already-kept point lies within radius; each
    kept point blocks its ball.  spare records, per vertex, one more than
    the most radius a kept ball had left on reaching it (0: no ball reached
    it), and the balls block every vertex within spare - 1 of it.  A ball's
    search therefore goes on from a vertex only when it reaches it with more
    to spare, and the blocked set is still the union of the balls.  A dead
    end, a reached vertex with exactly one neighbour, is marked but not
    searched from: by symmetry its one neighbour is the vertex the search
    came from, which already has more to spare.
    """
    spare = [0] * len(adjacency)
    kept = []
    for p in points:
        if spare[p]:
            continue
        kept.append(p)
        spare[p] = radius + 1
        frontier = [p]
        for r in range(radius, 0, -1):
            nxt = []
            for u in frontier:
                for w in adjacency[u]:
                    if spare[w] < r:
                        spare[w] = r
                        if len(adjacency[w]) != 1:
                            nxt.append(w)
            if not nxt:
                break
            frontier = nxt
    return kept


def validate_matching(g: BipartiteGraph, matching):
    """Normalize a matching to a set of (min, max) pairs, or raise.

    Pairs are checked in order, and the first bad one is named: an unknown
    end (u before v), then a non-edge, then an end already matched.
    """
    side_of, adj = g.side_of, g.adj
    seen = set()
    norm = set()
    for e in matching:
        u, v = e
        if u not in side_of or v not in side_of:
            g.require_vertex(u)
            g.require_vertex(v)
        if v not in adj[u]:
            raise InvalidMatchingError(f"{u}-{v} is not an edge", edge=[u, v])
        if u in seen or v in seen:
            raise InvalidMatchingError(
                f"matching not vertex-disjoint at {u}-{v}", edge=[u, v]
            )
        seen.add(u)
        seen.add(v)
        norm.add((u, v) if u < v else (v, u))
    return norm


def induced_subgraph(g: BipartiteGraph, keep) -> BipartiteGraph:
    ks = set(keep)
    for v in ks:
        g.require_vertex(v)
    ids = tuple(v for v in g.ids if v in ks)
    side_of = {v: g.side_of[v] for v in ids}
    adj = {v: tuple(w for w in g.adj[v] if w in ks) for v in ids}
    return BipartiteGraph(ids, side_of, adj)

