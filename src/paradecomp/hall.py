"""Hall's condition and the strengthened expansion condition.

The plain condition is decided exactly through the matching-based deficiency
(Koenig defect form), never by subset enumeration; enumeration only runs to
produce a canonical witness after a failure is already certain, or to check
the (1+epsilon) clause up to the caller's size cap.

Witness canonicality: the reported violator minimizes (size, sorted id
tuple), so failures reproduce byte-for-byte across runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import BadCapError, InvariantError
from .graphs import BipartiteGraph, g2_neighbors, neighborhood
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


def deficiency(g: BipartiteGraph, side: int) -> int:
    """max over F in the side of |F| - |N(F)|, via |side| - max matching."""
    return len(g.side_vertices(side)) - len(max_matching(g))


def connected_side_sets(g: BipartiteGraph, side: int, max_size: int, min_size: int = 1):
    """Yield the G^2-connected subsets of one side, sizes within the bounds.

    Canonical grow-from-least-id enumeration: each set appears exactly once,
    grown from its minimum element, candidates scanned in ascending order.
    Yields sorted tuples, in preorder of the growth tree.  The tree is walked
    with an explicit stack, so its depth (up to max_size) is not bounded by
    the interpreter's recursion limit.
    """
    if max_size < 1:
        return
    cache: dict = {}

    def nb(v):
        got = cache.get(v)
        if got is None:
            got = cache[v] = sorted(g2_neighbors(g, v))
        return got

    for root in g.side_vertices(side):
        if min_size <= 1:
            yield (root,)
        if max_size == 1:
            continue
        # frame: (set so far, extension candidates, banned ids, next index)
        stack = [({root}, [w for w in nb(root) if w > root], frozenset(), 0)]
        while stack:
            s_set, ext, banned, i = stack.pop()
            if i == len(ext):
                continue
            stack.append((s_set, ext, banned, i + 1))
            s2 = s_set | {ext[i]}
            if len(s2) >= min_size:
                yield tuple(sorted(s2))
            if len(s2) < max_size:
                blocked = banned | set(ext) | s2
                new = [w for w in nb(ext[i]) if w > root and w not in blocked]
                stack.append(
                    (s2, ext[i + 1 :] + new, banned | frozenset(ext[: i + 1]), 0)
                )


def _first_plain_violator(g: BipartiteGraph, side: int):
    """Smallest (size, then lex) G^2-connected set with |N(F)| < |F|.

    Level-by-level in set size so the search stops at the first violating
    size; only called once a violator is known to exist.
    """
    vs = g.side_vertices(side)
    level = {frozenset((v,)) for v in vs}
    size = 1
    while level:
        best = None
        for fs in level:
            actual = len(neighborhood(g, fs))
            if actual < len(fs):
                t = tuple(sorted(fs))
                if best is None or t < best[0]:
                    best = (t, actual)
        if best is not None:
            return best
        if size >= len(vs):
            break
        nxt = set()
        for fs in level:
            for v in fs:
                for w in g2_neighbors(g, v):
                    if w not in fs:
                        nxt.add(fs | {w})
        level = nxt
        size += 1
    return None


def check_hall(g: BipartiteGraph) -> HallReport:
    nu = len(max_matching(g))
    bad_sides = [
        s for s in (0, 1) if len(g.side_vertices(s)) - nu > 0
    ]
    if not bad_sides:
        return HallReport(satisfied=True)
    best = None
    for side in bad_sides:
        found = _first_plain_violator(g, side)
        if found is None:
            raise InvariantError(
                "deficiency positive but no violator found", side=side
            )
        t, actual = found
        key = (len(t), t, side)
        if best is None or key < best[0]:
            best = (key, side, t, actual)
    _, side, t, actual = best
    witness = HallWitness(side=side, f_set=t, required=Fraction(len(t)), actual=actual)
    return HallReport(satisfied=False, witness=witness)


def check_hall_eps_n(
    g: BipartiteGraph, p: ExpansionParams, size_cap: int
) -> HallReport:
    """Hall's condition plus |N(F)| >= (1+eps)|F| for G^2-connected F.

    The plain condition is checked exactly; the expansion clause is checked
    for every single-sided G^2-connected F with size_floor <= |F| <= size_cap
    on both sides, rational arithmetic throughout.
    """
    if size_cap < p.size_floor:
        raise BadCapError(
            f"size_cap {size_cap} below size_floor {p.size_floor}",
            size_cap=size_cap,
            size_floor=p.size_floor,
        )
    base = check_hall(g)
    if not base.satisfied:
        return base
    if p.epsilon == 0:
        # (1+0)|F| <= |N(F)| already follows from Hall everywhere
        return HallReport(satisfied=True)
    factor = 1 + p.epsilon
    best = None
    for side in (0, 1):
        for f_set in connected_side_sets(g, side, size_cap, p.size_floor):
            actual = len(neighborhood(g, f_set))
            required = factor * len(f_set)
            if actual < required:
                key = (len(f_set), f_set, side)
                if best is None or key < best[0]:
                    best = (key, side, f_set, required, actual)
    if best is None:
        return HallReport(satisfied=True)
    _, side, f_set, required, actual = best
    return HallReport(
        satisfied=False,
        witness=HallWitness(side=side, f_set=f_set, required=required, actual=actual),
    )
