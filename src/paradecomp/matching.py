"""Maximum bipartite matching and matching-combination utilities.

Hopcroft-Karp over a callable neighbor oracle, so the same engine serves
materialized graphs and lazily expanded doubling graphs.  Deterministic:
left vertices are processed in the order given and neighbor lists are used
in the order returned, so callers fix the tie-breaks by sorting.
"""

from __future__ import annotations

from .errors import InvariantError


def hopcroft_karp(left_ids, neighbors) -> dict:
    """Maximum matching; returns {left_id: right_id}.

    left_ids: iterable of left-side vertices (order fixes determinism).
    neighbors: callable left_id -> iterable of right-side vertices.
    Left vertices are held by position p in left_ids (adj, dist and mate
    are lists); pair_r maps a right vertex to its partner's position.  The
    dict lists left vertices in the order they were first matched.
    """
    left = list(left_ids)
    adj = [list(neighbors(u)) for u in left]
    n = len(left)
    mate: list = [None] * n
    pair_r: dict = {}
    INF = n + 1  # above every layer; only compared for equality
    dist = [0] * n
    first_matched = []

    def bfs() -> bool:
        dist[:] = [INF if m is not None else 0 for m in mate]
        q = [p for p in range(n) if mate[p] is None]
        found = False
        for p in q:  # q grows while it is walked, which makes it a FIFO
            d = dist[p] + 1
            for v in adj[p]:
                w = pair_r.get(v)
                if w is None:
                    found = True
                elif dist[w] == INF:
                    dist[w] = d
                    q.append(w)
        return found

    def augment(root) -> bool:
        # depth-first along the BFS layers on an explicit stack, so path
        # length is not bounded by the recursion limit; a frame is
        # [left position, its remaining neighbors, the neighbor it went through]
        stack = [[root, iter(adj[root]), None]]
        while stack:
            frame = stack[-1]
            p = frame[0]
            for v in frame[1]:
                w = pair_r.get(v)
                if w is None or dist[w] == dist[p] + 1:
                    frame[2] = v
                    break
            else:
                dist[p] = INF  # dead end: no later search enters p again
                stack.pop()
                continue
            if w is None:
                for x, _, y in stack:
                    mate[x] = y
                    pair_r[y] = x
                return True
            stack.append([w, iter(adj[w]), None])
        return False

    while bfs():
        for p in range(n):
            if mate[p] is None and augment(p):
                first_matched.append(p)
    return {left[p]: mate[p] for p in first_matched}


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
    kept as-is.  Such a vertex ends an alternating path, so only those paths
    are walked.  Sides being distinct makes the two critical endpoint kinds
    collide in no component (parity), checked at the end.
    """
    s1 = {(min(u, v), max(u, v)) for u, v in m1}
    s2 = {(min(u, v), max(u, v)) for u, v in m2}
    shared = s1 & s2
    d1 = s1 - shared
    d2 = s2 - shared

    partner1 = {x: y for u, v in d1 for x, y in ((u, v), (v, u))}
    partner2 = {x: y for u, v in d2 for x, y in ((u, v), (v, u))}
    covered2 = {x for e in s2 for x in e}

    need_a = set(need_a)
    need_b = set(need_b)
    first: set = set()  # vertices of the components that take m1's edges
    for x in need_a - covered2:
        # alternate m1, m2, m1, ... edges until the path ends
        step, other = partner1, partner2
        while x is not None and x not in first:
            first.add(x)
            x = step.get(x)
            step, other = other, step
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
