"""Maximum bipartite matching and matching-combination utilities.

Hopcroft-Karp over a callable neighbor oracle, so the same engine serves
materialized graphs and lazily expanded doubling graphs.  Deterministic:
left vertices are processed in the order given and neighbor lists are used
in the order returned, so callers fix the tie-breaks by sorting.
"""

from __future__ import annotations

from collections import deque

from .errors import InvariantError
from .graphs import components


def hopcroft_karp(left_ids, neighbors) -> dict:
    """Maximum matching; returns {left_id: right_id}.

    left_ids: iterable of left-side vertices (order fixes determinism).
    neighbors: callable left_id -> iterable of right-side vertices.
    """
    left = list(left_ids)
    adj = {u: list(neighbors(u)) for u in left}
    pair_l: dict = {}
    pair_r: dict = {}
    INF = float("inf")
    dist: dict = {}

    def bfs() -> bool:
        q = deque()
        for u in left:
            if u not in pair_l:
                dist[u] = 0
                q.append(u)
            else:
                dist[u] = INF
        found = False
        while q:
            u = q.popleft()
            for v in adj[u]:
                w = pair_r.get(v)
                if w is None:
                    found = True
                elif dist[w] == INF:
                    dist[w] = dist[u] + 1
                    q.append(w)
        return found

    def augment(root) -> bool:
        # depth-first along the BFS layers on an explicit stack, so path
        # length is not bounded by the recursion limit; a frame is
        # [left vertex, its remaining neighbors, the neighbor it went through]
        stack = [[root, iter(adj[root]), None]]
        while stack:
            frame = stack[-1]
            u = frame[0]
            for v in frame[1]:
                w = pair_r.get(v)
                if w is None or dist[w] == dist[u] + 1:
                    frame[2] = v
                    break
            else:
                dist[u] = INF  # dead end: no later search enters u again
                stack.pop()
                continue
            if w is None:
                for x, _, y in stack:
                    pair_l[x] = y
                    pair_r[y] = x
                return True
            stack.append([w, iter(adj[w]), None])
        return False

    while bfs():
        for u in left:
            if u not in pair_l:
                augment(u)
    return pair_l


def max_matching(g) -> set:
    """Maximum matching of a BipartiteGraph as a set of (u, v) pairs, u < v.

    Left side is side 0; ascending id order everywhere, so the result is
    canonical for a given graph.
    """
    left = g.side_vertices(0)
    pair_l = hopcroft_karp(left, lambda u: g.adj[u])
    return {(min(u, v), max(u, v)) for u, v in pair_l.items()}


def combine_saturating(m1, m2, need_a, need_b) -> set:
    """Merge two matchings into one covering need_a union need_b.

    m1 must cover need_a (vertices on one side), m2 must cover need_b (on
    the other side).  Classic alternating-component argument: over each
    component of the symmetric difference take m1's edges when the component
    holds a need_a vertex that m2 misses, otherwise m2's; shared edges are
    kept as-is.  Sides being distinct makes the two critical endpoint kinds
    collide in no component (parity), checked at the end.
    """
    s1 = {(min(u, v), max(u, v)) for u, v in m1}
    s2 = {(min(u, v), max(u, v)) for u, v in m2}
    shared = s1 & s2
    d1 = s1 - shared
    d2 = s2 - shared

    partner1 = {}
    for u, v in d1:
        partner1[u] = v
        partner1[v] = u
    partner2 = {}
    for u, v in d2:
        partner2[u] = v
        partner2[v] = u

    covered2 = set()
    for u, v in s2:
        covered2.add(u)
        covered2.add(v)

    def partners(x):
        return [p for p in (partner1.get(x), partner2.get(x)) if p is not None]

    need_a = set(need_a)
    need_b = set(need_b)
    first: set = set()  # vertices of the components that take m1's edges
    for comp in components(partners, partner1.keys() | partner2.keys()):
        if any(x in need_a and x not in covered2 for x in comp):
            first.update(comp)
    out = shared | {e for e in d1 if e[0] in first}
    out |= {e for e in d2 if e[0] not in first}

    covered = set()
    for u, v in out:
        if u in covered or v in covered:
            raise InvariantError("combination not a matching", edge=[u, v])
        covered.add(u)
        covered.add(v)
    missing = (need_a | need_b) - covered
    if missing:
        raise InvariantError(
            "combination dropped required vertices", missing=sorted(missing)[:5]
        )
    return out
