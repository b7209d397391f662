"""Independent reference implementations for cross-checking.

Everything here is deliberately naive: exponential subset scans, Kuhn's
augmenting paths, recursive Hopcroft-Karp, an alternating-path search grown
from one end only, a residual matching checked pair by pair,
repeated-scan word reduction,
breadth-first window expansion, letter tables grown one point at a time,
doubling-graph images by one ActionWindow.apply per element, exact
rotation identity and orthogonality
tests, one full ball per layered vertex, full copy x point scans of a
doubling graph, cycle surgery on a set of edges,
a forest reader on neighbour sets, a stage audit that searches every
ball afresh, match/1 stage records replayed from a match/2 payload.
Slow is fine; these run on small instances only and must share no code
with the package internals they check.
"""

import json
from array import array
from collections import deque
from fractions import Fraction
from itertools import combinations

from paradecomp import hall
from paradecomp.graphs import BipartiteGraph, bipartite_graph
from paradecomp.rotations import apply_to_point, letter_rotation, word_rotation
from paradecomp.errors import ForestFormatError, HypothesisFailedError
from paradecomp.treedyn import ForestWindow
from paradecomp.words import inv, mul, reduce_word, word_key


def kuhn_max_matching(g: BipartiteGraph) -> dict:
    """Maximum matching by plain augmenting DFS from each left vertex."""
    match = {}  # vertex -> partner, both directions
    left = g.side_vertices(0)

    def try_augment(u, seen):
        for v in g.adj[u]:
            if v in seen:
                continue
            seen.add(v)
            if v not in match or try_augment(match[v], seen):
                match[u] = v
                match[v] = u
                return True
        return False

    for u in left:
        if u not in match:
            try_augment(u, set())
    return {u: match[u] for u in left if u in match}


def recursive_hopcroft_karp(left_ids, neighbors) -> dict:
    """Hopcroft-Karp with the textbook recursive augmenting search.

    The reference for the package's iterative version: same phases, same
    order of left vertices and neighbors, so the pair dicts must be equal.
    Recursion depth is the augmenting-path length, so keep instances small.
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

    def dfs(u) -> bool:
        for v in adj[u]:
            w = pair_r.get(v)
            if w is None or (dist[w] == dist[u] + 1 and dfs(w)):
                pair_l[u] = v
                pair_r[v] = u
                return True
        dist[u] = INF
        return False

    while bfs():
        for u in left:
            if u not in pair_l:
                dfs(u)
    return pair_l


def one_sided_alt_path(adj, pair, alive, w, z, x, y):
    """Shortest alternating path from w to z among alive, avoiding x and y.

    One breadth-first search grown from w alone: an edge to a live vertex
    other than y, then that vertex's partner in pair, until z is reached.
    Returns the path's unmatched edges as (w-side vertex, z-side vertex),
    from w to z, or None.
    """
    parent = {}
    frontier = [w]
    seen = {w, x}
    while frontier:
        nxt = []
        for u in frontier:
            for v in adj[u]:
                if v == y or v not in alive or v in parent:
                    continue
                parent[v] = u
                if v == z:
                    edges = []
                    while True:
                        u = parent[v]
                        edges.append((u, v))
                        if u == w:
                            return edges[::-1]
                        v = pair[u]
                m = pair[v]
                if m not in seen:
                    seen.add(m)
                    nxt.append(m)
        frontier = nxt
    return None


def certifies_residual(engine) -> bool:
    """Whether a matcher engine's pair map is a perfect matching of its residual.

    Checked edge by edge: each live vertex has a live partner, across an
    edge of the graph, that pairs it back.
    """
    pair, alive, adj = engine.pair, engine.alive, engine.g.adj
    for v in alive:
        w = pair.get(v)
        if w not in alive or pair.get(w) != v or w not in adj[v]:
            return False
    return True


def ball_union_greedy_net(adjacency, points, radius) -> list:
    """graphs.greedy_net blocking each kept point's whole ball afresh."""
    blocked: set = set()
    kept = []
    for p in points:
        if p not in blocked:
            kept.append(p)
            dist = {p: 0}
            frontier = [p]
            for d in range(1, radius + 1):
                frontier = [w for u in frontier for w in adjacency[u] if w not in dist]
                dist.update(dict.fromkeys(frontier, d))
            blocked.update(dist)
    return kept


def component_combine_saturating(pair1, pair2) -> list:
    """matching.combine_saturating by labelling every alternating component.

    The pair maps become edge sets oriented (pair1 side, pair2 side).  The
    components of their symmetric difference are found by a plain stack
    search from every vertex, and each gets a label; a component takes
    pair1's edges when it holds a pair1 key that pair2 misses, otherwise
    pair2's.  The chosen edges are listed by their pair2-side vertex: the
    keys of pair2 in order, then, for each such pair1 key in pair1's order,
    the pair2-side vertices of its component that pair2 misses.  Raises
    ValueError where the package raises InvariantError.
    """
    m1 = set(pair1.items())
    m2 = {(x, y) for y, x in pair2.items()}
    shared = m1 & m2
    d1 = m1 - shared
    d2 = m2 - shared
    adj: dict = {}
    for u, v in d1 | d2:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    covered2 = {x for x, _ in m2}
    label: dict = {}
    members: list = []
    for start in adj:
        if start in label:
            continue
        comp, stack = [], [start]
        label[start] = len(members)
        while stack:
            x = stack.pop()
            comp.append(x)
            for y in adj[x]:
                if y not in label:
                    label[y] = len(members)
                    stack.append(y)
        members.append(comp)
    starts = [x for x in pair1 if x not in covered2]
    first = {label[x] for x in starts}
    chosen = shared | {e for e in d1 if label[e[0]] in first}
    chosen |= {e for e in d2 if label[e[0]] not in first}
    covered = [x for e in chosen for x in e]
    if len(covered) != len(set(covered)):
        raise ValueError("combination not a matching")
    if (set(pair1) | set(pair2)) - set(covered):
        raise ValueError("combination dropped required vertices")
    partner = {y: x for x, y in chosen}
    second_side = set(pair1.values()) | set(pair2)
    order = list(pair2)
    for x in starts:
        order += [y for y in members[label[x]] if y in second_side and y not in pair2]
    out = [(partner[y], y) for y in order]
    if len(out) != len(chosen):
        raise ValueError("an edge is left out of the order")
    return out


def brute_deficiency(g: BipartiteGraph, side: int) -> int:
    """max over all F of |F| - |N(F)|, every subset, no connectivity."""
    vs = g.side_vertices(side)
    worst = 0
    for k in range(1, len(vs) + 1):
        for f_set in combinations(vs, k):
            nbr = set()
            for v in f_set:
                nbr.update(g.adj[v])
            worst = max(worst, k - len(nbr))
    return worst


def brute_connected_side_sets(g: BipartiteGraph, side: int, floor: int, cap: int):
    """Every subset of one side with floor <= size <= cap that is G^2-connected.

    Two vertices of a side are G^2-adjacent when they share a neighbor; a set
    is connected when a BFS over those links inside the set reaches all of
    it.  Sorted tuples, in size order, then lexicographic.
    """
    vs = sorted(g.side_vertices(side))
    out = []
    for k in range(floor, min(cap, len(vs)) + 1):
        for f_set in combinations(vs, k):
            inner = {
                v: [w for w in f_set if w != v and set(g.adj[v]) & set(g.adj[w])]
                for v in f_set
            }
            if len(bfs_distances(inner, f_set[0])) == k:
                out.append(f_set)
    return out


def brute_hall_eps(g: BipartiteGraph, epsilon, floor: int, cap: int):
    """Hall + expansion over ALL subsets up to cap, not just connected ones.

    A disconnected set splits into G^2-components that are themselves no
    bigger, and neighborhoods of distinct components of one side are
    disjoint, so at equal caps this agrees with the connected-set checker.
    Returns None or the least violator (side, f_set, required, actual) by
    (size, sorted tuple, side): plain Hall violators of any size first, then,
    if there are none and epsilon > 0, expansion violators of floor..cap.
    """
    epsilon = Fraction(epsilon)

    def least(factor, lo, hi):
        best = None
        for side in (0, 1):
            vs = sorted(g.side_vertices(side))
            for k in range(lo, min(hi, len(vs)) + 1):
                for f_set in combinations(vs, k):
                    nbr = set()
                    for v in f_set:
                        nbr.update(g.adj[v])
                    required = factor * k
                    key = (k, f_set, side)
                    if len(nbr) < required and (best is None or key < best[0]):
                        best = (key, (side, f_set, required, len(nbr)))
        return None if best is None else best[1]

    found = least(Fraction(1), 1, len(g.ids))
    if found is not None or epsilon == 0:
        return found
    return least(1 + epsilon, floor, cap)


def cloned_graph(g: BipartiteGraph, side: int, mult: int) -> BipartiteGraph:
    """Each vertex of `side` replicated mult times, same neighborhoods.

    Hall for the clone graph on that side is |N(F)| >= mult*|F| for the
    original, which checks the epsilon = mult - 1 expansion by pure
    matching theory.
    """
    vs = set(g.side_vertices(side))
    # all ids become tuples so the constructor's sort stays homogeneous
    other = [("o", v) for v in g.side_vertices(1 - side)]
    clones = [("c", v, t) for v in sorted(vs) for t in range(mult)]
    edges = []
    for u, v in g.edges():
        a, b = (u, v) if u in vs else (v, u)
        for t in range(mult):
            edges.append((("c", a, t), ("o", b)))
    if side == 0:
        return bipartite_graph(clones, other, edges)
    return bipartite_graph(other, clones, [(b, a) for a, b in edges])


def has_perfect_matching_on(g: BipartiteGraph, side: int) -> bool:
    m = kuhn_max_matching(g)
    return len(m) == len(g.side_vertices(side))


def all_perfect_matchings(g: BipartiteGraph):
    """Every perfect matching, as a sorted tuple of (left, right) pairs.

    Recursion over left vertices in order; fine up to ~16 vertices.
    """
    left = sorted(g.side_vertices(0))
    out = []

    def rec(i, used, acc):
        if i == len(left):
            out.append(tuple(sorted(acc)))
            return
        u = left[i]
        for v in sorted(g.adj[u]):
            if v not in used:
                rec(i + 1, used | {v}, acc + [(u, v)])

    rec(0, set(), [])
    return out


def scan_reduce(word: str) -> str:
    """Free reduction by repeated full scans."""
    flip = {"a": "A", "A": "a", "b": "B", "B": "b"}
    w = list(word)
    changed = True
    while changed:
        changed = False
        i = 0
        while i + 1 < len(w):
            if flip[w[i]] == w[i + 1]:
                del w[i : i + 2]
                changed = True
                i = max(i - 1, 0)
            else:
                i += 1
    return "".join(w)


def mat_mul(a, b):
    return tuple(
        sum(a[3 * i + k] * b[3 * k + j] for k in range(3))
        for i in range(3)
        for j in range(3)
    )


def word_matrix_fraction(word: str):
    """Word evaluated as exact Fraction matrices, no shared code."""
    f35, f45 = Fraction(3, 5), Fraction(4, 5)
    gens = {
        "a": (f35, -f45, 0, f45, f35, 0, 0, 0, 1),
        "b": (1, 0, 0, 0, f35, -f45, 0, f45, f35),
    }
    gens["A"] = tuple(gens["a"][3 * (i % 3) + i // 3] for i in range(9))
    gens["B"] = tuple(gens["b"][3 * (i % 3) + i // 3] for i in range(9))
    m = (1, 0, 0, 0, 1, 0, 0, 0, 1)
    for c in word:
        m = mat_mul(m, gens[c])
    return m


def rotation_is_identity(rot) -> bool:
    """A normalized Rotation is the identity when it is num = I at scale 0."""
    return rot.scale == 0 and rot.num == (1, 0, 0, 0, 1, 0, 0, 0, 1)


def rotation_entries(rot):
    """The 3x3 matrix num / 5**scale of a Rotation, as rows of Fractions."""
    d = 5**rot.scale
    return [[Fraction(rot.num[3 * i + j], d) for j in range(3)] for i in range(3)]


def rotation_is_orthogonal(rot) -> bool:
    """Exact check that num / 5**scale has orthonormal rows and det 1."""
    n, s = rot.num, rot.scale
    target = 25**s
    for i in (0, 3, 6):
        for j in (0, 3, 6):
            dot = n[i] * n[j] + n[i + 1] * n[j + 1] + n[i + 2] * n[j + 2]
            if dot != (target if i == j else 0):
                return False
    det = (
        n[0] * (n[4] * n[8] - n[5] * n[7])
        - n[1] * (n[3] * n[8] - n[5] * n[6])
        + n[2] * (n[3] * n[7] - n[4] * n[6])
    )
    return det == 5 ** (3 * s)


def invert_letter(c: str) -> str:
    return {"a": "A", "A": "a", "b": "B", "B": "b"}[c]


def bfs_distances(adj, source):
    """Plain dict BFS used to double-check distance helpers."""
    dist = {source: 0}
    frontier = [source]
    while frontier:
        nxt = []
        for u in frontier:
            for v in adj[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    nxt.append(v)
        frontier = nxt
    return dist



def scan_greedy_layering(g: BipartiteGraph, schedule) -> dict:
    """The greedy layering by one ball per kept vertex, as Layering.as_obj().

    Stage n scans the uncovered vertices in ascending id order and keeps one
    unless a kept vertex lies within f(n) of it in the whole graph; no
    component split, no diameter shortcut.  schedule.f(n) is asked once per
    stage, so a short explicit schedule raises at the same stage.
    """
    layers, f_values = [], []
    uncovered = set(g.ids)
    while uncovered:
        fn = schedule.f(len(layers))
        kept, blocked = [], set()
        for v in sorted(uncovered):
            if v not in blocked:
                kept.append(v)
                blocked.update(w for w, d in bfs_distances(g.adj, v).items() if d <= fn)
        uncovered.difference_update(kept)
        layers.append(kept)
        f_values.append(fn)
    return {"layers": layers, "f": f_values}


def match_v1_from_v2(payload: dict, schedule) -> dict:
    """The match/1 payload a match/2 payload stands for, stage by stage.

    Walks the layers in order: each layer vertex still present is picked with
    its partner in the matching, and the pair is removed.  epsilon_n takes one
    step of 8/f(n) per stage, with f(n) from the schedule, never a fresh sum.
    Raises ValueError when the payload's stage count, last epsilon_n or
    schedule disagree with the replay, or the picks leave a pair behind.
    """
    res = payload["result"]
    if schedule.f_list is None:
        printed = {"base": schedule.base}
    else:
        printed = {"f": list(schedule.f_list)}
    if res["schedule"] != printed:
        raise ValueError(f"schedule {res['schedule']} is not {printed}")
    partner = {}
    for x, y in res["matching"]:
        partner[x] = y
        partner[y] = x
    eps = schedule.epsilon_budget
    stages, f_values = [], []
    for n, layer in enumerate(res["layers"]):
        fn = schedule.f(n)
        eps -= Fraction(8, fn)
        matched = []
        for x in layer:
            if x in partner:
                y = partner.pop(x)
                del partner[y]
                matched.append([x, y])
        stages.append({"n": n, "epsilon_n": str(eps), "matched": matched})
        f_values.append(fn)
    if res["stages"] != len(stages) or res["epsilon_n"] != str(eps) or partner:
        raise ValueError(
            f"replay gives {len(stages)} stages ending at {eps}, "
            f"{len(partner)} vertices unpicked"
        )
    layering = {"layers": res["layers"], "f": f_values}
    result = {"matching": res["matching"], "stages": stages, "layering": layering}
    return {**payload, "schema": "paradecomp/match/1", "result": result}


def match_stages(res) -> list:
    """The match/1 stage records of a MatchResult, replayed from its match/2 payload."""
    payload = json.loads(json.dumps({"result": res.as_obj()}))
    return match_v1_from_v2(payload, res.schedule)["result"]["stages"]


def apply_images(w, s, i) -> list:
    """Points hit from point i by elements of s, one ActionWindow.apply each."""
    return sorted({w.apply(g, i) for g in s.elements} - {None})


def lifted_neighbors(n: int, copies: int, images) -> list:
    """Copy-0 neighbours of a point: its images in every copy 1..copies-1."""
    return [c * n + j for c in range(1, copies) for j in images]


def scan_unmatched_boundary(dg, matching) -> tuple:
    """(unmatched count, least depth or None) by walking every copy x point."""
    matched = {v for e in matching for v in e}
    n = dg.n_points
    depths = [
        dg.window.dist[vid % n] for vid in range(dg.copies * n) if vid not in matched
    ]
    return len(depths), min(depths, default=None)


def is_interior(w, i: int) -> bool:
    """Whether window point i lies within radius - margin of the base."""
    return w.dist[i] <= w.radius - w.margin


def brute_doubled_expansion(dg, cap: int):
    """Least doubled-expansion violator over ALL interior subsets up to cap.

    Copy-0 sets need |N(F)| >= |F|; sets of copy-1 and copy-2 vertices need
    |N(F)| >= 2|F|.  Returns None or the least violator (side, f_set,
    required, actual) by (size, sorted tuple, side).  As in brute_hall_eps,
    the least-size violator is G^2-connected, so this agrees with a search
    over connected sets.
    """
    n = dg.n_points
    interior = [i for i in range(n) if is_interior(dg.window, i)]
    best = None
    for side, vids, mult in (
        (0, interior, 1),
        (1, [c * n + i for c in (1, 2) for i in interior], 2),
    ):
        for k in range(1, cap + 1):
            for f_set in combinations(vids, k):
                nbr = set()
                for v in f_set:
                    nbr.update(dg.neighbors(v))
                key = (k, f_set, side)
                if len(nbr) < mult * k and (best is None or key < best[0]):
                    best = (key, (side, f_set, Fraction(mult * k), len(nbr)))
    return None if best is None else best[1]


def record_oracle_calls(dg):
    """Log the ids a doubling graph's neighbor oracle is asked for.

    Returns the list, filled as the instance's method is called.
    """
    reads = []
    neighbors = dg.neighbors

    def logged_neighbors(vid):
        reads.append(vid)
        return neighbors(vid)

    dg.neighbors = logged_neighbors
    return reads


def record_side_levels(monkeypatch):
    """Spy on hall._side_levels: what each search reads and builds.

    Returns (reads, levels), filled as searches run: the ids handed to the
    neighbor oracle, in call order, and (size, number of sets) for each
    level yielded.
    """
    reads, levels = [], []
    side_levels = hall._side_levels

    def logged(roots, nbrs, num, den, cap):
        def read(v):
            reads.append(v)
            return nbrs(v)

        for k, level in enumerate(side_levels(roots, read, num, den, cap), 1):
            levels.append((k, len(level)))
            yield level

    monkeypatch.setattr(hall, "_side_levels", logged)
    return reads, levels


def dfs_identity_word(letters, max_len: int):
    """First reduced nonidentity word of length <= max_len acting trivially.

    letters maps each of a, A, b, B to a rotation; only its integer ``num``
    and ``scale`` fields are read.  Plain DFS over the reduced-word tree with
    unnormalized integer products: a word of total scale s is the identity
    exactly when its matrix is 5**s times the identity.  Returns None when
    no such word exists.
    """
    if max_len <= 0:
        return None
    flip = {"a": "A", "A": "a", "b": "B", "B": "b"}
    stack = [("", (1, 0, 0, 0, 1, 0, 0, 0, 1), 0)]
    while stack:
        w, m, s = stack.pop()
        for c in reversed("aAbB"):
            if w and w[-1] == flip[c]:
                continue
            nw = w + c
            nm = mat_mul(m, letters[c].num)
            ns = s + letters[c].scale
            d = 5**ns
            if nm == (d, 0, 0, 0, d, 0, 0, 0, d):
                return nw
            if len(nw) < max_len:
                stack.append((nw, nm, ns))
    return None


def bfs_window(kind, base, moves, radius: int):
    """Breadth-first ball of the action graph: (words, dist, coords, base_index).

    moves are the nonidentity elements of the generating set.  Points are
    deduplicated by label (f2) or by exact coordinates (sphere), then sorted
    by the shortlex key of their label.  On the sphere every rediscovery
    cross-checks the label: two reduced words reaching one point raise.
    """
    if kind == "f2":
        start = reduce_word(base)

        def act(gamma, p):
            return mul(gamma, p)

    else:
        start = tuple(base)
        rots = {gamma: word_rotation(gamma) for gamma in moves}

        def act(gamma, p):
            return apply_to_point(rots[gamma], p)

    # an f2 point is its own label; a sphere point is labelled by its word
    label_of = {start: start if kind == "f2" else ""}
    dist_of = {start: 0}
    frontier = [start]
    for d in range(1, radius + 1):
        nxt = []
        for p in frontier:
            for gamma in moves:
                t = act(gamma, p)
                lab = mul(gamma, label_of[p])
                if t in label_of:
                    if kind != "f2" and label_of[t] != lab:
                        raise ValueError(f"{label_of[t]!r} and {lab!r} reach one point")
                    continue
                label_of[t] = lab
                dist_of[t] = d
                nxt.append(t)
        frontier = nxt
    pts = sorted(label_of, key=lambda p: word_key(label_of[p]))
    words = tuple(label_of[p] for p in pts)
    dist = tuple(dist_of[p] for p in pts)
    coords = None if kind == "f2" else tuple(pts)
    return words, dist, coords, pts.index(start)


def pointwise_window(kind, base, hold_letters: int):
    """(words, tables, coords, base_index) of a window, one point at a time.

    The ball of reduced words of at most hold_letters letters around base,
    in shortlex order: each level prepends each letter c, in a < A < b < B
    order, to every word of the level before that does not start with
    c^-1, and records both table entries of the new edge.  tables[c][i] is
    the index of c . point_i, or -1.  A sphere point is computed from its
    parent, and a point reached twice raises ValueError naming both words;
    base is the normalized unit point.  An f2 window at a nonidentity base
    is relabelled by g.base and re-sorted, its tables renumbered.
    """
    n = 2 * 3**hold_letters - 1
    tables = {c: array("i", [-1]) * n for c in "aAbB"}
    words = [""]
    level = range(1)
    for _ in range(hold_letters):
        start = len(words)
        for c in "aAbB":
            ci = inv(c)
            out, back = tables[c], tables[ci]
            for i in level:
                w = words[i]
                if w[:1] != ci:
                    out[i] = len(words)
                    back[len(words)] = i
                    words.append(c + w)
        level = range(start, len(words))
    coords, base_index = None, 0
    if kind == "sphere":
        coords = [tuple(base)]
        index = {coords[0]: 0}
        for j in range(1, n):
            c = words[j][0]
            p = apply_to_point(letter_rotation(c), coords[tables[inv(c)][j]])
            if index.setdefault(p, j) != j:
                raise ValueError(f"{words[index[p]]!r} and {words[j]!r} reach one point")
            coords.append(p)
        coords = tuple(coords)
    elif base:
        labels = [mul(g, base) for g in words]
        order = sorted(range(n), key=lambda i: word_key(labels[i]))
        rank = {old: new for new, old in enumerate(order)}
        rank[-1] = -1
        words = [labels[i] for i in order]
        tables = {c: array("i", [rank[t[i]] for i in order]) for c, t in tables.items()}
        base_index = rank[0]
    return tuple(words), tables, coords, base_index


def bfs_majority_ball(g: BipartiteGraph, x, n: int) -> list:
    """Sorted side-0 vertices within distance 2n-2 of x, by a plain BFS.

    The majority ball D_n(x) when it has 2n-1 members; fewer mean the ball
    leaves the window.
    """
    dist = {x: 0}
    frontier = [x]
    for d in range(1, 2 * n - 1):
        nxt = []
        for u in frontier:
            for v in g.adj[u]:
                if v not in dist:
                    dist[v] = d
                    nxt.append(v)
        frontier = nxt
    return sorted(v for v in dist if g.side_of[v] == 0)


def edge_set_forest_from_paradox(ts) -> ForestWindow:
    """Cycle surgery on a set of frozenset edges, kept apart from the graph.

    Same resolution as the package: each component is walked back along the
    unique predecessors from its least point, dropped when the walk dies at
    a non-interior point, and a cycle is relabelled along the first map, cut
    before its least vertex and its deficit pushed down the two endpoint
    rays.  Only edges with both ends kept survive.
    """
    n = ts.n_points
    maps = ts.maps
    pred = {}
    for i, f in enumerate(maps):
        for x, y in f.items():
            if y in pred:
                raise ValueError(f"{y} is an image twice")
            pred[y] = (i, x)
    edges = set()
    touched = set()
    for f in maps:
        for x, y in f.items():
            touched.update((x, y))
            if x != y:
                edges.add(frozenset((x, y)))
    nbrs = {p: [] for p in touched}
    for e in edges:
        u, v = e
        nbrs[u].append(v)
        nbrs[v].append(u)
    comps = []
    seen = set()
    for p in sorted(touched):
        if p not in seen:
            members = sorted(bfs_distances(nbrs, p))
            seen.update(members)
            comps.append(members)

    def steal(start, first, ray):
        z, nxt = start, first
        while nxt is not None:
            tgt = maps[0].get(nxt)
            if tgt is None or tgt == z:
                break
            edges.discard(frozenset((nxt, tgt)))
            edges.add(frozenset((z, tgt)))
            z, nxt = nxt, ray.get(nxt)

    kept = []
    hist = {}
    truncated = cycle_free = 0
    for members in comps:
        chain = [members[0]]
        cyc = None
        while chain[-1] in pred:
            x = pred[chain[-1]][1]
            if x in chain:
                cyc = list(reversed(chain[chain.index(x):]))
                break
            chain.append(x)
        if cyc is None:
            if ts.interior[chain[-1]]:
                cycle_free += 1
                kept.append(members)
            else:
                truncated += 1
            continue
        kept.append(members)
        k = cyc.index(min(cyc))
        cyc = cyc[k:] + cyc[:k]
        hist[len(cyc)] = hist.get(len(cyc), 0) + 1
        rot = {}
        for t, x in enumerate(cyc):
            rot[x] = next(
                j for j in range(3) if maps[j].get(x) == cyc[(t + 1) % len(cyc)]
            )

        def g_at(x, offset):
            return maps[(rot[x] + offset) % 3].get(x)

        if len(cyc) == 1:
            steal(cyc[0], g_at(cyc[0], 1), maps[1])
            steal(cyc[0], g_at(cyc[0], 2), maps[2])
        elif len(cyc) == 2:
            steal(cyc[0], g_at(cyc[0], 1), maps[1])
            steal(cyc[1], g_at(cyc[1], 1), maps[1])
        else:
            edges.discard(frozenset((cyc[-1], cyc[0])))
            steal(cyc[-1], g_at(cyc[-1], 1), maps[1])
            steal(cyc[0], g_at(cyc[0], 1), maps[1])

    present = [False] * n
    for members in kept:
        for p in members:
            present[p] = True
    adj = {p: set() for p in range(n)}
    for e in edges:
        u, v = e
        if present[u] and present[v]:
            adj[u].add(v)
            adj[v].add(u)
    return ForestWindow(
        adjacency=tuple(tuple(sorted(adj[p])) for p in range(n)),
        interior=tuple(present[p] and bool(ts.interior[p]) for p in range(n)),
        present=tuple(present),
        labels=ts.labels,
        stats={
            "components": len(comps) + n - len(touched),
            "kept": len(kept),
            "truncated": truncated,
            "isolated": n - len(touched),
            "cycle_free": cycle_free,
            "cycles": {str(k): v for k, v in sorted(hist.items())},
        },
    )


def set_forest_from_obj(obj) -> ForestWindow:
    """The forest reader on neighbour sets, with a separate acyclicity pass.

    Same checks, messages and order as the package: the top-level fields,
    then each edge in list order, and only after the whole list a cycle,
    found by a search that meets a visited point other than its parent.
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
    nbrs = [set() for _ in range(n)]
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
        nbrs[u].add(v)
        nbrs[v].add(u)
    parent = {}
    for root in range(n):
        if root in parent:
            continue
        parent[root] = None
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for w in nbrs[u]:
                if w == parent[u]:
                    continue
                if w in parent:
                    raise ForestFormatError("edges: the edge list closes a cycle")
                parent[w] = u
                queue.append(w)
    return ForestWindow(
        adjacency=tuple(tuple(sorted(s)) for s in nbrs),
        interior=tuple(bool(b) for b in obj["interior"]),
        present=tuple(bool(b) for b in obj["present"]),
        labels=tuple(labels) if labels is not None else None,
        stats=dict(stats),
    )


def rescan_pairs(forest: ForestWindow, domain: set) -> dict:
    """Each domain point's (point, distance) pairs within 8, by full searches.

    A point's pairs are listed in the order its search reaches them.
    """
    adj = forest.adjacency
    return {
        x: [
            (y, d)
            for y, d in bfs_distances(adj, x).items()
            if y != x and y in domain and d <= 8
        ]
        for x in sorted(domain)
    }


def rescan_stage_audit(forest: ForestWindow, domain: set, stage: int) -> dict:
    """The stage audit with a full search from every domain point.

    Pieces are labelled by a search inside the domain; each ball is read in
    search order, so a separation failure names the least point and the
    first domain point of another piece that its search reaches.
    """
    adj = forest.adjacency
    inside = {x: [y for y in adj[x] if y in domain] for x in domain}
    piece = {}
    for x in sorted(domain):
        if x not in piece:
            for y in bfs_distances(inside, x):
                piece[y] = x
    pairs = rescan_pairs(forest, domain)
    for x, met in pairs.items():
        for y, d in met:
            if d <= 4 and piece[y] != piece[x]:
                raise HypothesisFailedError(
                    "domain points within distance 4 in separate pieces",
                    stage=stage,
                    pair=[x, y],
                )
    g8 = {x: [y for y, _ in met] for x, met in pairs.items()}
    diameter = max((max(bfs_distances(g8, a).values()) for a in domain), default=0)
    bound = 4**stage
    if diameter > bound:
        raise HypothesisFailedError(
            "stage component diameter above bound",
            stage=stage,
            diameter=diameter,
            bound=bound,
        )
    return {
        "stage": stage,
        "domain": len(domain),
        "g8_diameter": diameter,
        "g8_bound": bound,
    }
