"""Hall's condition and the strengthened expansion condition.

Whether the plain condition holds is decided exactly through the matching
number (Koenig defect form), never by subset enumeration.  One least-violator
search over G^2-connected sets then produces every witness: the plain one,
after a failure is already certain, and the (1+epsilon) one, up to the
caller's size cap.  It grows the sets level by level in size, compares
integers, and stops at the first size that holds a violator.

Witness canonicality: the reported violator minimizes (size, sorted id
tuple, side), so failures reproduce byte-for-byte across runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest

from .errors import BadCapError, InvariantError
from .graphs import BipartiteGraph, g2_neighbors
from .matching import max_matching


@dataclass(frozen=True)
class ExpansionParams:
    epsilon: Fraction
    size_floor: int = 1

    def __post_init__(self):
        if self.epsilon < 0:
            raise ValueError("epsilon must be >= 0")
        if self.size_floor < 1:
            raise ValueError("size_floor must be >= 1")


@dataclass(frozen=True)
class HallWitness:
    side: int
    f_set: tuple
    required: Fraction
    actual: int

    def as_obj(self) -> dict:
        return {
            "side": self.side,
            "f_set": list(self.f_set),
            "required": str(self.required),
            "actual": self.actual,
        }


@dataclass(frozen=True)
class HallReport:
    satisfied: bool
    witness: HallWitness | None = None
    stats: dict | None = None  # enumeration counts, when a capped audit ran

    def as_obj(self) -> dict:
        out = {"satisfied": self.satisfied}
        out["witness"] = self.witness.as_obj() if self.witness else None
        if self.stats is not None:
            out["stats"] = self.stats
        return out


def _side_levels(g: BipartiteGraph, side: int, max_size: int):
    """Yield the G^2-connected subsets of one side, one size at a time.

    The k-th item iterates over those of size k, for k up to max_size, as
    tuples in growth order; the generator ends early after the last size
    that has any.  Each set is grown once, from its least id: its extension
    candidates are those left after the id it was grown by, then that id's
    G^2-neighbors above the least id that none of its ancestors has seen.
    One level is kept to grow the next, and a level is grown only when it is
    asked for, so a caller that stops at size k pays for nothing larger.
    Sets of size max_size are streamed, never kept.
    """
    cache: dict = {}

    def nb(v):
        got = cache.get(v)
        if got is None:
            got = cache[v] = sorted(g2_neighbors(g, v))
        return got

    # item: (the set, its parent's candidates, index of the first one left
    # after it, ids seen by its ancestors)
    def children(items):
        for f_set, cands, start, seen in items:
            root = f_set[0]
            new = [w for w in nb(f_set[-1]) if w > root and w not in seen]
            ext = cands[start:] + new
            seen = seen.union(new)
            for i, x in enumerate(ext, 1):
                yield f_set + (x,), ext, i, seen

    items = [((r,), [], 0, frozenset()) for r in g.side_vertices(side)]
    for size in range(1, max_size + 1):
        if size > 1:
            items = children(items)
        if size == max_size:
            yield (item[0] for item in items)
            return
        items = list(items)
        if not items:
            return
        yield [item[0] for item in items]


def connected_side_sets(g: BipartiteGraph, side: int, max_size: int, min_size: int = 1):
    """Yield the G^2-connected subsets of one side, sizes within the bounds.

    Each set appears exactly once, as a sorted tuple, smaller sizes first.
    """
    for k, level in enumerate(_side_levels(g, side, max_size), 1):
        if k >= min_size:
            for f_set in level:
                yield tuple(sorted(f_set))


def _least_violator(g: BipartiteGraph, sides, floor: int, cap: int, num: int, den: int):
    """Least (size, sorted tuple, side) G^2-connected F with den*|N(F)| < num*|F|.

    F ranges over the given sides and floor <= |F| <= cap.  Sizes are taken
    in ascending order, all sides at each size, and the search stops at the
    first size that holds a violator, or that holds no connected set at all
    (each connected set of size k + 1 contains one of size k).  Returns the
    witness, with required = (num/den)*|F|, or None.  N(F) is read off g.adj
    with no vertex checks: the ids come from g's own side lists, and a
    one-sided F of a bipartite graph never meets its neighborhood.
    """
    adj = g.adj
    levels = zip_longest(*(_side_levels(g, s, cap) for s in sides), fillvalue=())
    for k, by_side in enumerate(levels, 1):
        if k < floor:
            continue
        found = []
        for side, level in zip(sides, by_side):
            for f_set in level:
                actual = len(set().union(*map(adj.__getitem__, f_set)))
                if den * actual < num * k:
                    found.append((tuple(sorted(f_set)), side, actual))
        if found:
            f_set, side, actual = min(found)
            return HallWitness(side, f_set, Fraction(num * k, den), actual)
    return None


def check_hall(g: BipartiteGraph) -> HallReport:
    nu = len(max_matching(g))
    # Koenig: a side holds a violator iff it is larger than the matching
    short = [s for s in (0, 1) if len(g.side_vertices(s)) > nu]
    if not short:
        return HallReport(satisfied=True)
    larger = max(len(g.side_vertices(s)) for s in short)
    witness = _least_violator(g, short, 1, larger, 1, 1)
    if witness is None:
        raise InvariantError("deficiency positive but no violator found")
    return HallReport(satisfied=False, witness=witness)


def check_hall_eps_n(
    g: BipartiteGraph, p: ExpansionParams, size_cap: int
) -> HallReport:
    """Hall's condition plus |N(F)| >= (1+eps)|F| for G^2-connected F.

    The plain condition is checked exactly; the expansion clause is checked
    for every single-sided G^2-connected F with size_floor <= |F| <= size_cap
    on both sides, in integer arithmetic on the numerator and denominator of
    1 + eps.
    """
    if size_cap < p.size_floor:
        raise BadCapError(
            f"size_cap {size_cap} below size_floor {p.size_floor}",
            size_cap=size_cap,
            size_floor=p.size_floor,
        )
    base = check_hall(g)
    if not base.satisfied or p.epsilon == 0:
        # (1+0)|F| <= |N(F)| already follows from Hall everywhere
        return base
    factor = 1 + p.epsilon
    witness = _least_violator(
        g, (0, 1), p.size_floor, size_cap, factor.numerator, factor.denominator
    )
    return HallReport(satisfied=witness is None, witness=witness)
