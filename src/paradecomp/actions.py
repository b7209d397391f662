"""Group actions, finite windows of their orbit graphs, doubling graphs.

Group elements are reduced words everywhere; the sphere action interprets a
word through the exact rational rotations of rotations.py.  Since the
standard rotation pair is free, words double as canonical point labels in
both modes, and the artifact-wide point order is the shortlex word key.

A window is the ball of a chosen radius around a base point, with a margin
marking which points are interior (their generator images are complete
within the window).  Doubling graphs are kept lazy: vertex (copy, point) is
the integer copy * n_points + point_index, adjacency computed on demand,
because interesting windows are far too large to materialize edge lists.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import compress

from .errors import (
    FixedBaseError,
    FreeActionViolationError,
    InvariantError,
    MarginTooSmallError,
    NotPerfectOnInteriorError,
)
from .graphs import BipartiteGraph, bipartite_graph
from .hall import HallReport, HallWitness
from .matching import combine_saturating, hopcroft_karp
from .rotations import BASE_POINT, apply_to_point, is_unit_point, letter_rotation
from .rotations import normalize_point, word_rotation
from .words import ALPHABET, IDENTITY, inv, iter_reduced, mul, reduce_word, word_key

F2 = "f2"
SPHERE = "sphere"


@dataclass(frozen=True)
class GeneratingSet:
    """Finite symmetric set of reduced words containing the identity.

    Element order is meaningful (piece indices refer to it); the constructor
    puts the identity first, keeps the supplied order otherwise, and appends
    any missing inverses at the end.
    """

    elements: tuple

    @staticmethod
    def from_words(words) -> "GeneratingSet":
        seen = []
        for w in words:
            r = reduce_word(w)
            if r not in seen:
                seen.append(r)
        if IDENTITY in seen:
            seen.remove(IDENTITY)
        out = [IDENTITY] + seen
        for w in list(out):
            if inv(w) not in out:
                out.append(inv(w))
        return GeneratingSet(tuple(out))

    def nonidentity(self) -> tuple:
        return tuple(w for w in self.elements if w)

    def max_word_length(self) -> int:
        return max((len(w) for w in self.elements), default=0)

    def __len__(self):
        return len(self.elements)


def standard_generators() -> GeneratingSet:
    return GeneratingSet((IDENTITY, "a", "A", "b", "B"))


def square_set(s: GeneratingSet) -> GeneratingSet:
    """S^2 = all pairwise products, canonical shortlex order.

    Contains s (identity in s makes every element a product), symmetric,
    identity first because the empty word has the least key.
    """
    prods = {mul(u, v) for u in s.elements for v in s.elements}
    return GeneratingSet(tuple(sorted(prods, key=word_key)))


class ActionWindow:
    """Ball of the orbit graph around a base point, points in key order.

    words[i] is the canonical label of point i (for the sphere: the unique
    reduced word reaching it from the base, unique by freeness).  dist[i] is
    the graph distance to the base under the expanding generator set.  The
    interior (dist <= radius - margin) is decided here, once.
    """

    def __init__(self, kind, radius, margin, words, dist, coord_index, base_index):
        self.kind = kind
        self.radius = radius
        self.margin = margin
        self.words = words
        self.dist = dist
        # coord_index lists the sphere's points in index order (None for f2)
        self.coords = tuple(coord_index) if coord_index is not None else None
        self.base_index = base_index
        self._interior_bound = bound = radius - margin
        self._interior = tuple(compress(range(len(dist)), map(bound.__ge__, dist)))
        self._word_index = dict(zip(words, range(len(words))))
        self._coord_index = coord_index
        self._rot_cache: dict = {}

    def n_points(self) -> int:
        return len(self.words)

    def point_key(self, i: int) -> str:
        return self.words[i]

    def index_of_word(self, w: str):
        return self._word_index.get(w)

    def is_interior(self, i: int) -> bool:
        return self.dist[i] <= self._interior_bound

    def interior_indices(self, extra: int = 0) -> list:
        """Ascending indices within radius - margin - extra, extra >= 0."""
        bound = self._interior_bound - extra
        return [i for i in self._interior if self.dist[i] <= bound]

    def _rotation(self, w: str):
        rot = self._rot_cache.get(w)
        if rot is None:
            rot = self._rot_cache[w] = word_rotation(w)
        return rot

    def apply(self, gamma: str, i: int):
        """Index of gamma . point_i, or None when it leaves the window."""
        if self.kind == F2:
            return self._word_index.get(mul(gamma, self.words[i]))
        target = apply_to_point(self._rotation(gamma), self.coords[i])
        return self._coord_index.get(target)


def expand_window(kind, base, s: GeneratingSet, radius: int, margin: int) -> ActionWindow:
    """Ball of the action graph of s around base, generated in shortlex order.

    s must be the ball of reduced words of some radius L >= 1 (S itself has
    L = 1, S^2 has L = 2), so the window is every g.base with |g| <= radius*L
    at distance ceil(|g| / L).  The sphere labels a point by its word g and
    refuses any point reached twice: two distinct reduced words with the same
    image of the base would contradict freeness of the orbit.
    """
    if radius <= margin:
        raise ValueError(f"radius {radius} must exceed margin {margin}")
    if margin < 0:
        raise ValueError("margin must be >= 0")
    step = s.max_word_length()
    if step < 1 or sorted(s.elements, key=word_key) != list(iter_reduced(step)):
        raise ValueError("the generating set must be a ball of reduced words")
    ceil = [-(-m // step) for m in range(radius * step + 1)]  # |g| -> distance
    if kind == F2:
        base_word = reduce_word(base if base is not None else IDENTITY)
        words = tuple(iter_reduced(radius * step))
        dist = tuple(map(ceil.__getitem__, map(len, words)))
        if base_word:
            pts = sorted(
                ((mul(g, base_word), d) for g, d in zip(words, dist)),
                key=lambda t: word_key(t[0]),
            )
            words, dist = (tuple(col) for col in zip(*pts))
        base_index = words.index(base_word)
        return ActionWindow(F2, radius, margin, words, dist, None, base_index)

    if kind != SPHERE:
        raise ValueError(f"unknown window kind {kind!r}")
    if base is None:
        base = BASE_POINT
    if not is_unit_point(base):
        raise ValueError(f"base {base} is not a unit vector")
    base = normalize_point(*base)
    for gamma in s.nonidentity():
        if apply_to_point(word_rotation(gamma), base) == base:
            raise FixedBaseError(
                f"generator {gamma!r} fixes the base point", generator=gamma
            )
    words = [IDENTITY]
    index = {base: 0}
    level = [(IDENTITY, base)]
    for _ in range(radius * step):
        nxt = []
        for c in ALPHABET:
            ci, rot = inv(c), letter_rotation(c)
            n0, n1, n2, n3, n4, n5, n6, n7, n8 = rot.num
            for w, (x, y, z, k) in level:
                if w[:1] == ci:
                    continue
                # apply_to_point inlined: rot(c) times the point of w, normalized
                px = n0 * x + n1 * y + n2 * z
                py = n3 * x + n4 * y + n5 * z
                pz = n6 * x + n7 * y + n8 * z
                k += rot.scale
                while k and not (px % 5 or py % 5 or pz % 5):
                    px, py, pz, k = px // 5, py // 5, pz // 5, k - 1
                p, cw = (px, py, pz, k), c + w
                if p in index:
                    raise FreeActionViolationError(
                        "two reduced words reach one point",
                        point=list(p),
                        word_a=words[index[p]],
                        word_b=cw,
                    )
                index[p] = len(words)
                words.append(cw)
                nxt.append((cw, p))
        level = nxt
    dist = tuple(map(ceil.__getitem__, map(len, words)))
    return ActionWindow(SPHERE, radius, margin, tuple(words), dist, index, 0)


class DoublingGraph:
    """Lazy doubling graph on {0..copies-1} x window points.

    Vertex id = copy * n_points + point-index.  (0, x) is adjacent to (c, y)
    for c >= 1 exactly when some element of s carries x to y; the identity in
    s gives every (0, x) all its vertical edges (c, x).
    """

    def __init__(self, window: ActionWindow, s: GeneratingSet, copies: int):
        if copies not in (3, 4):
            raise ValueError("copies must be 3 or 4")
        self.window = window
        self.s = s
        self.copies = copies
        self.n_points = window.n_points()
        self._im: dict = {}
        self._im2: dict = {}

    def n_vertices(self) -> int:
        return self.copies * self.n_points

    def side(self, vid: int) -> int:
        return 0 if vid < self.n_points else 1

    def partners(self, matching) -> dict:
        """Partner of each matched vid, in both directions.

        Refuses an edge inside one side, and a matching that misses an interior
        vid, naming the least one (copies, then interior points, ascending).
        """
        n = self.n_points
        partner: dict = {}
        for u, v in matching:
            if (u < n) == (v < n):
                raise InvariantError("matching edge within one side", edge=[u, v])
            partner[u] = v
            partner[v] = u
        interior = self.window.interior_indices()
        for c in range(self.copies):
            for i in interior:
                if c * n + i not in partner:
                    raise NotPerfectOnInteriorError(
                        "matching misses an interior vertex",
                        vid=c * n + i,
                        copy=c,
                        point=self.window.point_key(i),
                    )
        return partner

    def images(self, i: int):
        """Point indices hit from i by elements of s (identity included)."""
        got = self._im.get(i)
        if got is None:
            out = set()
            for gamma in self.s.elements:
                j = self.window.apply(gamma, i)
                if j is not None:
                    out.add(j)
            got = self._im[i] = sorted(out)
        return got

    def neighbors(self, vid: int):
        n = self.n_points
        i = vid % n
        if vid < n:
            return [c * n + j for c in range(1, self.copies) for j in self.images(i)]
        return self.images(i)

    def g2_point_neighbors(self, i: int):
        """Points j whose s-images intersect i's (i itself included)."""
        got = self._im2.get(i)
        if got is None:
            out = set()
            for j in self.images(i):
                out.update(self.images(j))
            got = self._im2[i] = sorted(out)
        return got

    def to_bipartite(self) -> BipartiteGraph:
        n = self.n_points
        side0 = range(n)
        side1 = [c * n + i for c in range(1, self.copies) for i in range(n)]
        edges = []
        for i in range(n):
            for j in self.images(i):
                for c in range(1, self.copies):
                    edges.append((i, c * n + j))
        return bipartite_graph(side0, side1, edges)


def build_doubling(window: ActionWindow, s: GeneratingSet, copies: int) -> DoublingGraph:
    return DoublingGraph(window, s, copies)


def interior_expansion_audit(
    dg: DoublingGraph, s2: GeneratingSet, sample_cap: int, size_cap: int
) -> HallReport:
    """Check the doubled expansion on interior connected sets, up to caps.

    Side-1 sets need |N(F)| >= 2|F|; copy-0 sets only |N(F)| >= |F| (that
    direction is the trivial one).  Sets are G^2-connected, all-interior,
    grown in the canonical least-root order.  |N(F)| only grows under
    extension, so a branch whose neighborhood already meets the requirement
    at the size cap certifies all its extensions and is pruned; the verdict
    stays exhaustive.  sample_cap bounds the sets actually inspected, and
    the stats say whether the walk finished inside the budget.
    """
    if dg.copies != 3:
        raise ValueError("expansion audit is defined on the 3-copy graph")
    need = 2 * s2.max_word_length()
    if dg.window.margin < need:
        raise MarginTooSmallError(
            f"window margin {dg.window.margin} below 2*maxlen(S^2) = {need}",
            margin=dg.window.margin,
            required=need,
        )
    n = dg.n_points
    interior_pts = dg.window.interior_indices()
    interior_set = set(interior_pts)

    def nb_side0(vid):
        return [j for j in dg.g2_point_neighbors(vid) if j != vid and j in interior_set]

    g2_cache: dict = {}

    def nb_side1(vid):
        got = g2_cache.get(vid)
        if got is None:
            i = vid % n
            pts = [j for j in dg.g2_point_neighbors(i) if j in interior_set]
            got = g2_cache[vid] = [
                c * n + j for c in range(1, 3) for j in pts if c * n + j != vid
            ]
            got.sort()
        return got

    stats = {}
    plans = [
        (0, interior_pts, nb_side0, 1),
        (1, sorted(c * n + i for c in (1, 2) for i in interior_pts), nb_side1, 2),
    ]
    for side, roots, nb, mult in plans:
        target = mult * size_cap
        checked = 0
        pruned = 0
        exhausted = True
        witness = None

        def grow(root, s_set, ext, banned, nbr):
            # mirrors the finite checker's discipline: ext holds candidate
            # extensions above root, banned the ones already branched over
            nonlocal checked, pruned, witness, exhausted
            for i, v in enumerate(ext):
                if checked >= sample_cap:
                    exhausted = False
                    return False
                f2_set = s_set | {v}
                nbr2 = nbr | set(dg.neighbors(v))
                checked += 1
                if len(nbr2) < mult * len(f2_set):
                    witness = HallWitness(
                        side=side,
                        f_set=tuple(sorted(f2_set)),
                        required=Fraction(mult * len(f2_set)),
                        actual=len(nbr2),
                    )
                    return False
                if len(nbr2) >= target:
                    pruned += 1
                    continue
                if len(f2_set) < size_cap:
                    blocked = banned | set(ext) | f2_set
                    new = [w for w in nb(v) if w > root and w not in blocked]
                    if not grow(
                        root,
                        f2_set,
                        ext[i + 1 :] + new,
                        banned | frozenset(ext[: i + 1]),
                        nbr2,
                    ):
                        return False
            return True

        for root in roots:
            if checked >= sample_cap:
                exhausted = False
                break
            nbr = set(dg.neighbors(root))
            checked += 1
            if len(nbr) < mult:
                witness = HallWitness(
                    side=side,
                    f_set=(root,),
                    required=Fraction(mult),
                    actual=len(nbr),
                )
                break
            if len(nbr) >= target:
                pruned += 1
                continue
            if size_cap > 1:
                ext = [w for w in nb(root) if w > root]
                if not grow(root, {root}, ext, frozenset(), nbr):
                    break
        if witness is not None:
            return HallReport(satisfied=False, witness=witness)
        stats[f"checked_side{side}"] = checked
        stats[f"pruned_side{side}"] = pruned
        stats[f"exhausted_side{side}"] = exhausted
    return HallReport(satisfied=True, stats=stats)


def interior_saturating_matching(dg: DoublingGraph) -> set:
    """Matching of the doubling graph covering every interior vertex.

    No finite window admits a perfect matching (sides are 1 to copies-1), so
    the contract is saturation of the interior of both sides.  Two runs of
    Hopcroft-Karp, one per side's interior, are merged by the alternating
    component rule; boundary vertices may stay unmatched and that is the
    expected outcome, reported by the caller, never an error here.
    """
    n = dg.n_points
    left_a = dg.window.interior_indices()  # interior copy-0 vids
    pair_a = hopcroft_karp(left_a, dg.neighbors)
    missing = [v for v in left_a if v not in pair_a]
    if missing:
        raise NotPerfectOnInteriorError(
            "interior copy-0 vertices left unmatched",
            count=len(missing),
            sample=missing[:5],
        )
    left_b = sorted(c * n + i for c in range(1, dg.copies) for i in left_a)
    pair_b = hopcroft_karp(left_b, dg.neighbors)
    missing = [v for v in left_b if v not in pair_b]
    if missing:
        raise NotPerfectOnInteriorError(
            "interior side-1 vertices left unmatched",
            count=len(missing),
            sample=missing[:5],
        )
    m1 = {(u, v) for u, v in pair_a.items()}
    m2 = {(v, u) for u, v in pair_b.items()}  # orient as (copy0, side1)
    return combine_saturating(m1, m2, set(left_a), set(left_b))


def unmatched_boundary_stats(dg: DoublingGraph, matching) -> dict:
    """Count and least depth of the unmatched vertices, all of them boundary."""
    partner = dg.partners(matching)
    dist, n = dg.window.dist, dg.n_points
    depths = (dist[vid % n] for vid in range(dg.n_vertices()) if vid not in partner)
    return {
        "unmatched": dg.n_vertices() - len(partner),
        "unmatched_interior": 0,  # dg.partners refuses an interior miss
        "min_depth": min(depths, default=None),
        "radius": dg.window.radius,
        "margin": dg.window.margin,
    }
