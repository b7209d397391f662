"""Group actions, finite windows of their orbit graphs, doubling graphs.

Group elements are reduced words everywhere.  Both actions are free, so a
window is a ball of the Cayley graph of F2: a point is labelled by its
canonical word, the artifact-wide point order is the shortlex word key, and
every point is moved by letter tables recorded while the ball is expanded.
The sphere adds the exact rational coordinates of rotations.py to each
point, and its certificate is that no two words reach one coordinate.

A window is the ball of a chosen radius around a base point, with a margin
marking which points are interior (their generator images are complete
within the window).  Doubling graphs are kept lazy: vertex (copy, point) is
the integer copy * n_points + point_index, adjacency computed on demand,
because interesting windows are far too large to materialize edge lists.
A point's image list is walked from the letter tables down a tree of the
generating set's words, read last letter first, so each image costs one
table lookup; it holds the window's shared index ints, and a copy-0
vertex's neighbours are a view of that list lifted into copies 1.., so no
vertex gets a list of its own.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from itertools import compress, count, islice, repeat
from operator import gt

from .errors import (
    BadCapError,
    FixedBaseError,
    FreeActionViolationError,
    InvariantError,
    MarginTooSmallError,
    NotPerfectOnInteriorError,
)
from .graphs import BipartiteGraph, bipartite_graph
from .hall import HallReport, least_violator
from .matching import combine_saturating, hopcroft_karp
from .rotations import BASE_POINT, apply_to_point, is_unit_point, letter_rotation
from .rotations import normalize_point, point_mover, word_rotation
from .words import ALPHABET, IDENTITY, inv, iter_reduced, mul, reduce_word, word_key

F2 = "f2"
SPHERE = "sphere"

# A window's letter tables are array("i"), and the ball of words of length k
# has 2*3^k - 1 points, so a window holds words of at most the largest k
# whose index 2*3^k - 2 that type can store.
_MAX_WORD_LENGTH = next(
    k for k in count() if 2 * 3 ** (k + 1) - 2 >= 2 ** (8 * array("i").itemsize - 1)
)


@dataclass(frozen=True)
class GeneratingSet:
    """The ball of reduced words of a radius L >= 1, named by L.

    S is the ball of radius 1 and S^2 that of radius 2.  Element order is
    meaningful (piece indices refer to it): shortlex, so the identity comes
    first.  A ball is symmetric and holds the identity, as the doubling
    graph needs.
    """

    radius: int
    elements: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.radius < 1:
            raise ValueError(f"generating set radius {self.radius} must be >= 1")
        object.__setattr__(self, "elements", tuple(iter_reduced(self.radius)))

    def nonidentity(self) -> tuple:
        return self.elements[1:]

    def __len__(self):
        return len(self.elements)


def standard_generators() -> GeneratingSet:
    return GeneratingSet(1)


def square_set(s: GeneratingSet) -> GeneratingSet:
    """S^2: the pairwise products of a ball of radius L are the ball of 2L."""
    return GeneratingSet(2 * s.radius)


class ActionWindow:
    """Ball of the orbit graph around a base point, points in key order.

    words[i] is the canonical label of point i (for the sphere: the unique
    reduced word reaching it from the base, unique by freeness).  dist[i] is
    the graph distance to the base under the expanding generator set.
    tables[c][i] is the index of c . point_i, or -1 off the window; coords
    lists the sphere's points in index order (None for f2).  The interior
    (dist <= radius - margin) is decided here, once.  The window may hold
    fewer points than the ball of its radius; ball_size counts the whole
    ball, held or not.
    """

    def __init__(
        self, kind, radius, margin, ball_size, words, dist, tables, coords, base_index
    ):
        self.kind = kind
        self.radius = radius
        self.margin = margin
        self.ball_size = ball_size
        self.words = words
        self.dist = dist
        self.tables = tables
        self.coords = coords
        self.base_index = base_index
        self._interior_bound = bound = radius - margin
        self._interior = tuple(compress(range(len(dist)), map(bound.__ge__, dist)))
        self._word_index = None  # built by the first index_of_word

    def n_points(self) -> int:
        return len(self.words)

    def index_of_word(self, w: str):
        if self._word_index is None:
            self._word_index = dict(zip(self.words, range(len(self.words))))
        return self._word_index.get(w)

    def is_interior(self, i: int) -> bool:
        return self.dist[i] <= self._interior_bound

    def interior_indices(self, extra: int = 0) -> tuple:
        """Ascending indices within radius - margin - extra, extra >= 0.

        With extra 0 this is the interior tuple the window keeps.
        """
        if not extra:
            return self._interior
        bound = self._interior_bound - extra
        return tuple(i for i in self._interior if self.dist[i] <= bound)

    def table_paths(self, elements) -> list:
        """For each reduced word, the letter tables apply walks, in order."""
        tables = self.tables
        return [tuple(tables[c] for c in reversed(gamma)) for gamma in elements]

    def apply(self, gamma: str, i: int):
        """Index of gamma . point_i, or None when it leaves the window.

        gamma is reduced and walked from its last letter.  Along a reduced
        word the distance to the base falls, then rises, so in a ball a step
        off the window means the end point is off it too.
        """
        for c in reversed(gamma):
            i = self.tables[c][i]
            if i < 0:
                return None
        return i


def expand_window(
    kind, base, s: GeneratingSet, radius: int, margin: int, reach: int | None = None
) -> ActionWindow:
    """Ball of the action graph of s around base, generated in shortlex order.

    s is the ball of reduced words of its radius L (S has L = 1, S^2 has
    L = 2), so the window is every g.base with |g| <= radius*L at distance
    ceil(|g| / L).  A caller that only translates interior points
    by words of at most reach letters passes reach, and the expansion stops
    at distance hold = min(radius, radius - margin + reach); the interior and
    the stated radius stay as they are.  Without reach the whole ball is held.
    One level loop serves both kinds, as in words.iter_reduced.  A level
    is four contiguous blocks, one per first letter in ALPHABET order, and
    letter c extends each block of the last level but inv(c)'s into one run
    of consecutive new indices, so a run takes one slice assignment per
    table entry (both entries of each new edge) and one map for its words.
    On the sphere the same map moves the run's parents' coordinates by c's
    rotation.  A point reached twice is refused: two distinct reduced words
    with the same image of the base would contradict freeness of the orbit.
    A set of the coordinates decides that, and only a collision is sought
    point by point, to name the first.  An f2 window based at a nonidentity
    word is the same ball, relabelled by g.base and re-sorted.  A hold whose
    words are too long for the tables to index (hold*L above 18 with a
    4-byte int) is refused with ValueError before anything is allocated; a
    smaller window may still not fit in memory.
    """
    if radius <= margin:
        raise ValueError(f"radius {radius} must exceed margin {margin}")
    if margin < 0:
        raise ValueError("margin must be >= 0")
    step = s.radius
    if kind == F2:
        base_word = reduce_word(base if base is not None else IDENTITY)
    elif kind == SPHERE:
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
    else:
        raise ValueError(f"unknown window kind {kind!r}")
    hold = radius if reach is None else min(radius, radius - margin + reach)
    if hold * step > _MAX_WORD_LENGTH:
        raise ValueError(
            f"window would hold words of {hold * step} letters; its tables "
            f"index words of at most {_MAX_WORD_LENGTH}"
        )
    # reduced words of length <= radius*L; the orbit is free on the sphere too
    ball_size = 2 * 3 ** (radius * step) - 1
    n = 2 * 3 ** (hold * step) - 1
    tables = {c: array("i", [-1]) * n for c in ALPHABET}
    words = [IDENTITY]
    dist = [0]
    coords = movers = None
    if kind == SPHERE:
        coords = [base]
        movers = {c: point_mover(letter_rotation(c)) for c in ALPHABET}
    # (first letter, lo, hi) of each block of the last level
    blocks = [(IDENTITY, 0, 1)]
    for m in range(1, hold * step + 1):
        level = []
        for c in ALPHABET:
            ci = inv(c)
            out, back = tables[c], tables[ci]
            start = len(words)
            for first, lo, hi in blocks:
                if first != ci:
                    new = len(words)
                    top = new + hi - lo
                    out[lo:hi] = array("i", range(new, top))
                    back[new:top] = array("i", range(lo, hi))
                    words += map(c.__add__, words[lo:hi])
                    if coords is not None:
                        coords += map(movers[c], coords[lo:hi])
            level.append((c, start, len(words)))
        dist += repeat(-(-m // step), len(words) - level[0][1])
        blocks = level
    dist = tuple(dist)

    base_index = 0
    if kind == SPHERE:
        if len(set(coords)) != n:
            index = {}
            for j, p in enumerate(coords):
                if index.setdefault(p, j) != j:
                    raise FreeActionViolationError(
                        "two reduced words reach one point",
                        point=list(p),
                        word_a=words[index[p]],
                        word_b=words[j],
                    )
        coords = tuple(coords)
    elif base_word:
        # point g is g.base: sort by that label and renumber the tables
        labels = [mul(g, base_word) for g in words]
        order = sorted(range(n), key=lambda i: word_key(labels[i]))
        rank = array("i", [-1]) * (n + 1)  # rank[-1] == -1 keeps off-window
        for new, old in enumerate(order):
            rank[old] = new
        words = [labels[i] for i in order]
        dist = tuple(map(dist.__getitem__, order))
        tables = {c: array("i", [rank[t[i]] for i in order]) for c, t in tables.items()}
        base_index = rank[0]
    return ActionWindow(
        kind, radius, margin, ball_size, tuple(words), dist, tables, coords, base_index
    )


class _Lifted:
    """The vids c * n + j for c in 1..copies-1 and j in ims, on demand.

    Copy-0 adjacency as a view over the shared image list: it can be
    iterated any number of times, and it makes its ints only as they are
    read (Hopcroft-Karp's greedy phase reads one or two).
    """

    __slots__ = ("ims", "n", "copies")

    def __init__(self, ims: list, n: int, copies: int):
        self.ims = ims
        self.n = n
        self.copies = copies

    def __iter__(self):
        ims = self.ims
        for base in range(self.n, self.copies * self.n, self.n):
            for j in ims:
                yield base + j

    def __len__(self):
        return (self.copies - 1) * len(self.ims)


class DoublingGraph:
    """Lazy doubling graph on {0..copies-1} x window points.

    Vertex id = copy * n_points + point-index.  (0, x) is adjacent to (c, y)
    for c >= 1 exactly when some element of s carries x to y; the identity in
    s gives every (0, x) all its vertical edges (c, x).

    Image lists are built on first use and cached.  They are walked down a
    tree of the nonidentity elements of s read last letter first, as
    ActionWindow.apply reads them: one letter-table lookup per element, the
    lookups of a shared suffix made once (16 for S^2 instead of 28).  They
    hold the window's shared index ints, so they make no int of their own.
    neighbors of a side-1 vid is its image list; of a copy-0 vid, a _Lifted
    view of that list into copies 1 to copies - 1.
    """

    def __init__(self, window: ActionWindow, s: GeneratingSet, copies: int):
        if copies not in (3, 4):
            raise ValueError("copies must be 3 or 4")
        self.window = window
        self.s = s
        self.copies = copies
        self.n_points = window.n_points()
        self._ids = tuple(range(self.n_points))  # shared by image lists, not copied
        self._im: dict = {}
        # the nonidentity words of s, read last letter first, as a tree of
        # (letter table, subtrees) pairs, grown from the leaves up: the
        # letters that may be read after c are those other than inv(c)
        tables = window.tables
        kids = dict.fromkeys(ALPHABET, ())
        for _ in range(s.radius - 1):
            kids = {
                c: tuple((tables[d], kids[d]) for d in ALPHABET if d != inv(c))
                for c in ALPHABET
            }
        self._tree = tuple((tables[c], kids[c]) for c in ALPHABET)

    def n_vertices(self) -> int:
        return self.copies * self.n_points

    def partners(self, matching) -> dict:
        """Partner of each matched vid, in both directions.

        Refuses an edge inside one side, an edge at a vid already matched, and
        a matching that misses an interior vid, naming the least one (copies,
        then interior points, ascending).
        """
        n = self.n_points
        partner: dict = {}
        for u, v in matching:
            if (u < n) == (v < n):
                raise InvariantError("matching edge within one side", edge=[u, v])
            if u in partner or v in partner:
                raise InvariantError("matching vertex in two edges", edge=[u, v])
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
                        point=self.window.words[i],
                    )
        return partner

    def images(self, i: int):
        """Point indices hit from i by elements of s (identity included).

        The word tree is walked as ActionWindow.apply walks each word: a step
        to -1 leaves the window, which drops that element and, as every
        longer word through the step leaves it too, the step's subtree.  The
        window is a ball of the Cayley tree, so distinct elements reach
        distinct points and the list needs no deduplication.
        """
        got = self._im.get(i)
        if got is None:
            ids = self._ids
            got = [ids[i]]
            todo = [(i, self._tree)]
            for j, tree in todo:  # grows as it is read
                for t, sub in tree:
                    k = t[j]
                    if k >= 0:
                        got.append(ids[k])
                        if sub:
                            todo.append((k, sub))
            got.sort()
            self._im[i] = got
        return got

    def neighbors(self, vid: int):
        """Neighbour vids of vid in ascending order, as a re-iterable."""
        n = self.n_points
        if vid < n:
            return _Lifted(self.images(vid), n, self.copies)
        return self.images(vid % n)

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


def interior_expansion_audit(dg: DoublingGraph, size_cap: int) -> HallReport:
    """Check the doubled expansion on interior connected sets up to size_cap.

    Side-1 sets need |N(F)| >= 2|F|; copy-0 sets only |N(F)| >= |F| (that
    direction is the trivial one).  Sets are G^2-connected and all-interior;
    hall.least_violator searches them, pruning the sets whose neighborhood
    already meets the requirement at the size cap, so the verdict is
    exhaustive and a failure reports the least (size, sorted tuple, side)
    violator.  The search reads only the neighbors of interior vids, which
    lie one dg.s-step past an interior point, and derives G^2 from those
    reads, so the window needs margin maxlen(dg.s).  A size_cap below 1
    would check no set, and is refused.
    """
    if dg.copies != 3:
        raise ValueError("expansion audit is defined on the 3-copy graph")
    if size_cap < 1:
        raise BadCapError(
            f"size_cap {size_cap} below 1", size_cap=size_cap, size_floor=1
        )
    need = dg.s.radius
    if dg.window.margin < need:
        raise MarginTooSmallError(
            f"window margin {dg.window.margin} below maxlen(S) = {need}",
            margin=dg.window.margin,
            required=need,
        )
    n = dg.n_points
    interior = dg.window.interior_indices()
    copies12 = [c * n + i for c in (1, 2) for i in interior]
    witness = least_violator(
        dg.neighbors, [(0, interior, 1, 1), (1, copies12, 2, 1)], 1, size_cap
    )
    return HallReport(satisfied=witness is None, witness=witness)


def interior_saturating_matching(dg: DoublingGraph) -> dict:
    """Matching of the doubling graph covering every interior vertex.

    No finite window admits a perfect matching (sides are 1 to copies-1), so
    the contract is saturation of the interior of both sides.  Hopcroft-Karp
    runs first from side 1's interior; boundary vertices may stay unmatched
    and that is the expected outcome, reported by the caller.  When that run
    already covers copy 0's interior, its edges are the matching, as
    (copy-0, side-1) pairs in its key order.  That is exactly what
    combine_saturating(pair_a, pair_b) would return for any copy-0 run
    pair_a: the merge walks only from pair_a keys that pair_b misses, all
    of them interior copy-0 vids, and otherwise returns pair_b's edges in
    that order.  Only when a copy-0 interior vid is left free does a second
    run, from copy 0's interior, go into that merge.  Each run is given its
    right side as a list over vids: the side-1 run's neighbours are copy-0
    vids, below n_points, and the copy-0 run's are side-1 vids, below
    dg.n_vertices(), all of them nonnegative; the side-1 run's list ends
    holding None exactly at the copy-0 vids it left free.  dg.partners alone
    decides saturation: each run is a maximum matching, so a side no run
    covers is covered by no matching, the merge included, and partners
    refuses it.  Every reader of the matching takes the partner map
    partners returns.
    """
    n = dg.n_points
    left_a = dg.window.interior_indices()  # interior copy-0 vids
    left_b = [c * n + i for c in range(1, dg.copies) for i in left_a]  # ascending
    mate_b = [None] * n
    pair_b = hopcroft_karp(left_b, dg.neighbors, mate_b)
    if None not in map(mate_b.__getitem__, left_a):
        return dg.partners(zip(pair_b.values(), pair_b))
    pair_a = hopcroft_karp(left_a, dg.neighbors, [None] * dg.n_vertices())
    return dg.partners(combine_saturating(pair_a, pair_b))


def unmatched_boundary_stats(dg: DoublingGraph, partner: dict) -> dict:
    """Count and least depth of the unmatched vertices, all of them boundary.

    The counts are those of the whole ball of the window's radius.  A point
    the window does not hold is never matched, so the unmatched count is
    copies * ball_size - 2|M|.  The least depth is read from the held
    points: side 1 holds at least twice as many vertices as copy 0, so some
    held vertex is always unmatched, and it lies above every point past the
    hold.  partner is the map dg.partners returns (as
    interior_saturating_matching does), which misses no interior vertex, so
    each copy is walked past its interior in ascending depth, up to its
    first unmatched vertex.  Window points are in depth order already,
    except on an f2 window based away from the identity, whose points are
    sorted here.
    """
    w = dg.window
    dist, n = w.dist, dg.n_points
    order = range(n)
    if any(map(gt, dist, islice(dist, 1, None))):
        order = sorted(order, key=dist.__getitem__)
    # in depth order the interior comes first
    boundary = order[len(w.interior_indices()) :]
    firsts = (
        next((dist[i] for i in boundary if base + i not in partner), None)
        for base in range(0, dg.n_vertices(), n)
    )
    return {
        "unmatched": dg.copies * w.ball_size - len(partner),
        "unmatched_interior": 0,  # dg.partners refuses an interior miss
        "min_depth": min((d for d in firsts if d is not None), default=None),
        "radius": w.radius,
        "margin": w.margin,
    }
