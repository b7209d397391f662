"""Maximum bipartite matching and matching-combination utilities.

Hopcroft-Karp over a callable neighbor oracle, so the same engine serves
materialized graphs and lazily expanded doubling graphs.  Deterministic:
left vertices are processed in the order given and neighbors are iterated in
the order returned, so callers fix the tie-breaks by sorting.
"""

from __future__ import annotations


def hopcroft_karp(left_ids, neighbors) -> dict:
    """Maximum matching; returns {left_id: right_id}.

    left_ids: iterable of left-side vertices (order fixes determinism).
    neighbors: callable left_id -> re-iterable of right-side vertices (a
    list, or a view such as a doubling graph's copy-0 adjacency); each is
    kept as given, iterated several times, each time in the same order, and
    never changed.
    Left vertices are held by position p in left_ids (adj, dist and mate
    are lists); pair_r maps a right vertex to its partner's position.  The
    dict lists left vertices in the order they were first matched.

    Two shortcuts leave the dict, and its order, as the textbook phases
    (tests/oracles.py) make it:
    - In the first phase every left vertex is free, so each sits at layer 0,
      and no right vertex is matched.  The layered search from a left vertex
      can then only take a free neighbor, the first one in its sequence, so
      one greedy loop in left order is that phase.
    - A later phase's BFS stops once it has seen a free right vertex and
      queued all n left vertices: every dist value is then set, and the rest
      of the scan could set none.
    """
    left = list(left_ids)
    adj = [neighbors(u) for u in left]
    n = len(left)
    mate: list = [None] * n
    pair_r: dict = {}
    INF = n + 1  # above every layer; only compared for equality
    dist = [0] * n
    first_matched = []

    for p, vs in enumerate(adj):  # the first phase
        for v in vs:
            if v not in pair_r:
                mate[p] = v
                pair_r[v] = p
                first_matched.append(p)
                break

    def bfs(free) -> bool:
        dist[:] = [INF if m is not None else 0 for m in mate]
        q = list(free)
        found = False
        partner = pair_r.get
        for p in q:  # q grows while it is walked, which makes it a FIFO
            d = dist[p] + 1
            for v in adj[p]:
                w = partner(v)
                if w is None:
                    found = True
                elif dist[w] == INF:
                    dist[w] = d
                    q.append(w)
            if found and len(q) == n:
                return True
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

    while True:
        # an augmenting path frees no left vertex and passes through no free
        # one but its root, so the phase's roots are the free ones at its start
        free = [p for p in range(n) if mate[p] is None]
        if not free or not bfs(free):
            break
        for p in free:
            if augment(p):
                first_matched.append(p)
    return {left[p]: mate[p] for p in first_matched}


def combine_saturating(pair1: dict, pair2: dict) -> list:
    """Merge two matchings into one covering the keys of both.

    pair1 maps each vertex of one side it must cover to its partner on the
    other side; pair2 maps each vertex of the other side it must cover back
    to the first side (Hopcroft-Karp pair maps, one per left side).  Classic
    alternating-component argument: over each component of the symmetric
    difference take pair1's edges when the component holds a pair1 key that
    pair2 misses, otherwise pair2's; shared edges are kept as-is.  Such a key
    ends an alternating path, so only those paths are walked, each one
    moving pair2's keys along it to their pair1 partners.  pair2's keys are
    never dropped.  The caller checks the result (DoublingGraph.partners
    refuses a vertex in two edges and any required vertex left unmatched).

    Returns the edges as (first side, second side) pairs, listed in the
    order of pair2's keys, then the walked paths' last vertices that pair2
    misses, in the order their paths start in pair1.
    """
    out = dict(pair2)  # second side -> first side
    covered2 = set(pair2.values())
    walked: set = set()  # guards the walk against inputs that are no matchings
    for start in pair1:
        if start in covered2:
            continue
        # alternate pair1, pair2, pair1, ... edges until the path ends
        x = start
        while x is not None and x not in walked:
            walked.add(x)
            y = pair1.get(x)
            if y is None:
                break
            out[y], x = x, pair2.get(y)
    return list(zip(out.values(), out))
