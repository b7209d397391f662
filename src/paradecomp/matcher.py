"""Layered perfect matching: the staged construction.

The driver keeps a perfect matching of the current residual at all times.
Removing a vertex pair (x, y) preserves Hall's condition on the residual
exactly when the rest still has a perfect matching, so each candidate edge is
tested with one alternating-path search against the maintained matching
instead of a fresh matching computation.  Candidates are scanned in ascending
id order, which realizes the "least such edge" rule.

Hall's condition throughout this module means perfect matchability: balanced
sides and zero deficiency from both.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    BudgetExhaustedError,
    HallViolatedError,
    HypothesisFailedError,
    InvariantError,
)
from .graphs import BipartiteGraph, induced_subgraph
from .hall import ExpansionParams, HallReport, check_hall, check_hall_eps_n
from .layers import LayerSchedule, Layering, greedy_layering, validate_layering
from .matching import hopcroft_karp


@dataclass(frozen=True)
class StageRecord:
    n: int
    epsilon_n: Fraction
    matched: tuple  # (layer_vertex, partner) in pick order

    def as_obj(self) -> dict:
        return {
            "n": self.n,
            "epsilon_n": str(self.epsilon_n),
            "matched": [[x, y] for x, y in self.matched],
        }


@dataclass(frozen=True)
class MatchResult:
    matching: frozenset
    stages: tuple
    layering: Layering

    def as_obj(self) -> dict:
        return {
            "matching": sorted([min(e), max(e)] for e in self.matching),
            "stages": [s.as_obj() for s in self.stages],
            "layering": self.layering.as_obj(),
        }


class _Engine:
    """Perfect matching of the residual, updated incrementally."""

    def __init__(self, g: BipartiteGraph):
        self.g = g
        self.alive = set(g.ids)
        pair_l = hopcroft_karp(g.side_vertices(0), lambda u: g.adj[u])
        self.pair = {}
        for u, v in pair_l.items():
            self.pair[u] = v
            self.pair[v] = u
        self.perfect = len(self.pair) == len(g.ids)

    def candidates(self, x):
        return [y for y in self.g.adj[x] if y in self.alive]

    def _alt_path(self, w, z, x, y):
        """Alternating path from w to the free-to-be vertex z, avoiding x, y.

        w and x share a side; steps are edge-to-partner hops against the
        current matching.  Returns the parent map or None.
        """
        g, pair, alive = self.g, self.pair, self.alive
        parent = {}
        frontier = [w]
        seen = {w, x}
        while frontier:
            nxt = []
            for u in frontier:
                for v in g.adj[u]:
                    if v == y or v not in alive or v in parent:
                        continue
                    parent[v] = u
                    if v == z:
                        return parent
                    m = pair[v]
                    if m not in seen:
                        seen.add(m)
                        nxt.append(m)
            frontier = nxt
        return None

    def remove_preserving(self, x, y) -> bool:
        """Commit removal of x and y if the rest stays perfectly matchable."""
        pair = self.pair
        if pair[x] == y:
            del pair[x]
            del pair[y]
        else:
            w, z = pair[y], pair[x]
            parent = self._alt_path(w, z, x, y)
            if parent is None:
                return False
            del pair[x]
            del pair[y]
            v = z
            while True:
                u = parent[v]
                old = pair.get(u)
                pair[u] = v
                pair[v] = u
                if old == y:
                    break
                v = old
        self.alive.discard(x)
        self.alive.discard(y)
        return True

    def select(self, x):
        """Least partner whose removal with x preserves perfect matchability."""
        for y in self.candidates(x):
            if self.remove_preserving(x, y):
                return y
        raise HallViolatedError(
            f"no Hall-preserving edge at vertex {x}", vertex=x
        )


def _hall_eps_capped(g, epsilon, floor, cap) -> HallReport:
    # an empty enumeration range [floor, cap] leaves only plain Hall to check
    if cap < floor:
        return check_hall(g)
    return check_hall_eps_n(g, ExpansionParams(epsilon, floor), cap)


def layered_perfect_matching(
    g: BipartiteGraph,
    p: ExpansionParams,
    schedule: LayerSchedule,
    cap: int = 8,
    audit: bool = False,
    layering=None,
    audit_cap=None,
) -> MatchResult:
    """Perfect matching via the staged Hall-preserving construction.

    Precondition Hall_{epsilon, size_floor} is verified up to `cap` before
    starting (HYPOTHESIS_FAILED with the witness otherwise).  audit=True
    re-verifies the stage invariant on the residual after every stage, with
    the enumeration clause active only when the audit cap reaches f(n).
    audit_cap defaults to cap; it exists because the two checks scale
    differently: the precheck's floor is p.size_floor (usually 1), so any
    cap at or past the largest component size is unsatisfiable on finite
    graphs, while the stage audit floors at f(n) and tolerates a large cap.
    """
    if p.epsilon != schedule.epsilon_budget:
        raise ValueError(
            f"params epsilon {p.epsilon} != schedule budget {schedule.epsilon_budget}"
        )
    # plain Hall on both sides forces |side 0| = max matching = |side 1|, so
    # this also rejects unbalanced graphs, with a deficient-set witness
    report = check_hall_eps_n(g, p, cap)
    if not report.satisfied:
        raise HypothesisFailedError(
            "graph fails the Hall_(eps,n) hypothesis up to the cap",
            cap=cap,
            witness=report.witness.as_obj() if report.witness else None,
        )

    if layering is None:
        layering = greedy_layering(g, schedule)
    else:
        if not isinstance(layering, Layering):
            raw = [tuple(sorted(layer)) for layer in layering]
            layering = Layering(
                tuple(raw), tuple(schedule.f(i) for i in range(len(raw)))
            )
        validate_layering(g, layering.layers, schedule)

    engine = _Engine(g)
    if not engine.perfect:
        raise HallViolatedError(
            "no perfect matching found despite Hall precheck", vertices=len(g.ids)
        )
    stages = []
    eps_n = schedule.epsilon_budget
    for n, layer in enumerate(layering.layers):
        fn = schedule.f(n)
        eps_n -= Fraction(8, fn)
        if eps_n <= 0:
            raise BudgetExhaustedError(
                f"epsilon_{n} = {eps_n} not positive", stage=n, epsilon=str(eps_n)
            )
        picked = []
        for x in sorted(layer):
            if x not in engine.alive:
                continue
            y = engine.select(x)
            picked.append((x, y))
        if audit:
            residual = induced_subgraph(g, engine.alive)
            acap = cap if audit_cap is None else audit_cap
            rep = _hall_eps_capped(residual, eps_n, fn, acap)
            if not rep.satisfied:
                raise HallViolatedError(
                    "stage invariant Hall_(eps_n, f(n)) failed",
                    stage=n,
                    epsilon_n=str(eps_n),
                    f_n=fn,
                    witness=rep.witness.as_obj() if rep.witness else None,
                )
        stages.append(StageRecord(n=n, epsilon_n=eps_n, matched=tuple(picked)))

    if engine.alive:
        raise HypothesisFailedError(
            "layering did not cover the vertex set; vertices left unmatched",
            remaining=sorted(engine.alive)[:20],
        )
    matching = frozenset(
        (min(x, y), max(x, y)) for rec in stages for x, y in rec.matched
    )
    if 2 * len(matching) != len(g.ids):
        raise InvariantError(
            "stage picks did not pair everything",
            pairs=len(matching),
            vertices=len(g.ids),
        )
    return MatchResult(matching=matching, stages=tuple(stages), layering=layering)
