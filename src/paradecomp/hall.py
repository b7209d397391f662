"""Hall's condition and the strengthened expansion condition.

Whether the plain condition holds is decided exactly through the matching
number (Koenig defect form), never by subset enumeration.  One least-violator
search over G^2-connected sets then produces every witness: the plain one,
after a failure is already certain, the (1+epsilon) one, up to the caller's
size cap, and the doubled-expansion one of actions.interior_expansion_audit.
It grows the sets level by level in size, each as a tuple of member
positions and a frozenset N(F) of neighbor ids, compares integers, and stops
at the first size that holds a violator.

Witness canonicality: the reported violator minimizes (size, sorted id
tuple, side), so failures reproduce byte-for-byte across runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import zip_longest

from .errors import BadCapError, InvariantError
from .graphs import BipartiteGraph
from .matching import hopcroft_karp


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
    # check_hall's maximum matching, side 0 -> side 1; not part of the payload
    matching: dict | None = field(default=None, compare=False, repr=False)

    def as_obj(self) -> dict:
        return {
            "satisfied": self.satisfied,
            "witness": self.witness.as_obj() if self.witness else None,
        }


def _side_levels(roots, nbrs, num: int, den: int, cap: int):
    """Yield the G^2-connected subsets F of roots that cap does not certify.

    The k-th item lists those of size k, for k up to cap, as tuples whose
    first two entries are F's members, as a tuple of positions in the sorted
    id list roots, and N(F), as a frozenset of neighbor ids.  The generator
    ends after the last size that has any.  A set with den*|N(F)| >= num*cap
    is dropped and not grown: N only grows under extension, so every set of
    size <= cap containing it meets num/den.  For the same reason an id
    whose singleton is dropped never becomes a candidate.

    nbrs is read once per root and returns a sized collection of distinct
    ids (BipartiteGraph.adj and DoublingGraph.neighbors do), so its length
    is the root's degree, and N({id}) is built only for the ids the degree
    does not certify.  G^2 comes from those sets: two ids are G^2-neighbors
    when they share a neighbor, so the candidates an id brings are the
    positions that reach its neighbors.  Each set is grown once,
    from its least id, the root, and takes only larger ids.  Its candidates,
    ascending, are those left after the id it was grown by, plus that id's
    G^2-neighbors above the root with no neighbor in N(parent), parent being
    the set it was grown from: an id with one is a member already, or was a
    candidate of an ancestor.
    """
    bound = num * cap
    nb = {}  # position -> N({id}), for the ids cap does not certify
    reach: dict = {}  # neighbor id -> the positions in nb that reach it
    for p, v in enumerate(roots):
        ns = nbrs(v)
        if den * len(ns) < bound:
            nb[p] = ns = frozenset(ns)
            for u in ns:
                reach.setdefault(u, []).append(p)
    # item: (members, N(F), candidates, N(parent), position of the last id added)
    level = [((p,), ns, (), frozenset(), p) for p, ns in nb.items()]
    for size in range(1, cap + 1):
        if not level:
            return
        yield level
        if size == cap:
            return
        grown = []
        for members, nbr, ext, pnbr, last in level:
            root = members[0]
            new = {
                p
                for u in nb[last] - pnbr
                for p in reach[u]
                if p > root and nb[p].isdisjoint(pnbr)
            }
            ext = tuple(sorted((*ext, *new)))
            for i, x in enumerate(ext, 1):
                child = nbr | nb[x]
                if den * len(child) < bound:
                    grown.append((members + (x,), child, ext[i:], nbr, x))
        level = grown


def least_violator(nbrs, sides, floor: int, cap: int):
    """Least (size, sorted tuple, side) G^2-connected F with den*|N(F)| < num*|F|.

    nbrs maps an id to its neighbor ids; G^2 is derived from what it returns.
    sides holds one (side, roots, num, den) per side searched: F ranges over
    the subsets of the sorted id list roots with floor <= |F| <= cap, and
    must beat num/den.  Sizes are taken in ascending order, all
    sides at each size, and the search stops at the first size that holds a
    violator, or that holds no set left to grow (each connected set of size
    k + 1 contains one of size k, and _side_levels drops only sets whose
    extensions all meet num/den).  Returns the witness, with
    required = (num/den)*|F|, or None.
    """
    levels = zip_longest(
        *(_side_levels(roots, nbrs, num, den, cap) for _, roots, num, den in sides),
        fillvalue=(),
    )
    for k, by_side in enumerate(levels, 1):
        if k < floor:
            continue
        found = [
            (tuple(roots[p] for p in sorted(members)), side, len(nbr), num, den)
            for (side, roots, num, den), level in zip(sides, by_side)
            for members, nbr, *_ in level
            if den * len(nbr) < num * k
        ]
        if found:
            f_set, side, actual, num, den = min(found)
            return HallWitness(side, f_set, Fraction(num * k, den), actual)
    return None


def check_hall(g: BipartiteGraph, sides=None) -> HallReport:
    """Plain Hall on both sides; the report keeps the maximum matching found.

    sides, when given, is (g.side_vertices(0), g.side_vertices(1)), made once
    by a caller that reads them again: each call walks every id.
    """
    if sides is None:
        sides = g.side_vertices(0), g.side_vertices(1)
    pairs = hopcroft_karp(sides[0], g.adj.__getitem__, dict.fromkeys(sides[1]))
    # Koenig: a side holds a violator iff it is larger than the matching
    short = [(s, ids, 1, 1) for s, ids in enumerate(sides) if len(ids) > len(pairs)]
    if not short:
        return HallReport(satisfied=True, matching=pairs)
    larger = max(len(ids) for _, ids, _, _ in short)
    # the ids come from g's own side lists, so N(F) needs no vertex checks
    witness = least_violator(g.adj.__getitem__, short, 1, larger)
    if witness is None:
        raise InvariantError("deficiency positive but no violator found")
    return HallReport(satisfied=False, witness=witness, matching=pairs)


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
    sides = g.side_vertices(0), g.side_vertices(1)
    base = check_hall(g, sides)
    if not base.satisfied or p.epsilon == 0:
        # (1+0)|F| <= |N(F)| already follows from Hall everywhere
        return base
    factor = 1 + p.epsilon
    num, den = factor.numerator, factor.denominator
    # the ids come from g's own side lists, so N(F) needs no vertex checks
    sides = [(s, ids, num, den) for s, ids in enumerate(sides)]
    witness = least_violator(g.adj.__getitem__, sides, p.size_floor, size_cap)
    return HallReport(
        satisfied=witness is None, witness=witness, matching=base.matching
    )
