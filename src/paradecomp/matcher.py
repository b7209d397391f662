"""Layered perfect matching: the staged construction.

The driver keeps a perfect matching of the current residual at all times.
Removing a vertex pair (x, y) preserves Hall's condition on the residual
exactly when the rest still has a perfect matching, so each candidate edge is
tested with one alternating-path search against the maintained matching
instead of a fresh matching computation.  Candidates are scanned in ascending
id order, which realizes the "least such edge" rule.

Hall's condition throughout this module means perfect matchability: balanced
sides and zero deficiency from both.

The epsilon ledger epsilon_n = epsilon - sum_{i<=n} 8/f(i) is the
schedule's (LayerSchedule.epsilon_after), and the schedule certifies on
construction that its whole series stays below epsilon, so every epsilon_n
a stage reaches is positive and no stage checks its sign.  The result keeps
the matching, the layering and the schedule; its stage records are replayed
from them when asked for.

The per-stage audit checks Hall_(eps_n, f(n)) on the residual, up to the
same cap as the precheck.  While the cap is below f(n) only the plain clause
is in range, and the engine's own matching is its certificate: every live
vertex must have a live partner across an edge of the graph, which pairs it
back.  That costs one pass over the residual.  A stage that picked nothing
skips it: plain Hall does not depend on epsilon_n, and the stage left the
residual as the stage before audited it (or the precheck, at stage 0).  If
the certificate fails, the full check runs: a real violation is reported
with its canonical witness, and a residual that still satisfies Hall means
the engine itself is broken (INVARIANT).  Once the cap reaches f(n) the
expansion clause is enumerated on the residual, at every stage.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .errors import (
    HallViolatedError,
    HypothesisFailedError,
    InvariantError,
)
from .graphs import BipartiteGraph, induced_subgraph
from .hall import ExpansionParams, check_hall, check_hall_eps_n
from .layers import LayerSchedule, Layering, greedy_layering


class StageRecord(NamedTuple):
    """One stage: its picks (layer_vertex, partner) in pick order, and epsilon_n."""

    n: int
    matched: tuple
    epsilon_n: Fraction


@dataclass(frozen=True)
class MatchResult:
    matching: frozenset
    layering: Layering
    schedule: LayerSchedule

    @property
    def stages(self) -> tuple:
        """The stage records, replayed from the layers and the matching.

        Stage n spends 8/f(n) and picks, in layer order, every vertex of layer
        n still unmatched when its turn comes, with its partner in the
        matching.  epsilon_n is stepped once per stage, apart from the
        schedule's closed form, so the two can be compared.
        """
        partner = {}
        for x, y in self.matching:
            partner[x] = y
            partner[y] = x
        lay = self.layering
        eps = self.schedule.epsilon_budget
        records = []
        for n, (layer, fn) in enumerate(zip(lay.layers, lay.f_values)):
            eps -= Fraction(8, fn)
            picked = []
            for x in layer:
                if x in partner:
                    y = partner.pop(x)
                    del partner[y]
                    picked.append((x, y))
            records.append(StageRecord(n, tuple(picked), eps))
        return tuple(records)

    def as_obj(self) -> dict:
        """The match/2 result: matching, layers, stage count, last epsilon_n, schedule.

        The stage records follow from these (see stages).  With no stages,
        epsilon_n is the budget itself.  The encoder prints tuples as lists.
        """
        layers = self.layering.layers
        schedule = self.schedule
        return {
            # the pairs are stored as (min, max)
            "matching": sorted(self.matching),
            "layers": layers,
            "stages": len(layers),
            "epsilon_n": str(schedule.epsilon_after(len(layers) - 1)),
            "schedule": (
                {"base": schedule.base}
                if schedule.f_list is None
                else {"f": schedule.f_list}
            ),
        }


class _Engine:
    """Perfect matching of the residual, updated incrementally."""

    def __init__(self, g: BipartiteGraph, pair_l: dict):
        """Start from pair_l, a perfect matching of g as side 0 -> side 1."""
        self.g = g
        self.alive = set(g.ids)
        self.pair = {}
        for u, v in pair_l.items():
            self.pair[u] = v
            self.pair[v] = u

    def certifies_residual(self) -> bool:
        """Whether pair is a perfect matching of the residual, checked edge by edge."""
        pair, alive, adj = self.pair, self.alive, self.g.adj
        for v in alive:
            w = pair.get(v)
            if w not in alive or pair.get(w) != v or w not in adj[v]:
                return False
        return True

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
        # a failed removal leaves alive as it was, so it can be read as we go
        for y in self.g.adj[x]:
            if y in self.alive and self.remove_preserving(x, y):
                return y
        raise HallViolatedError(
            f"no Hall-preserving edge at vertex {x}", vertex=x
        )


def layered_perfect_matching(
    g: BipartiteGraph,
    schedule: LayerSchedule,
    floor: int = 1,
    cap: int = 8,
    audit: bool = False,
) -> MatchResult:
    """Perfect matching via the staged Hall-preserving construction.

    Precondition Hall_{epsilon, floor}, epsilon being the schedule's budget,
    is verified up to `cap` before starting (HYPOTHESIS_FAILED with the
    witness otherwise).  A table too short for the layering raises
    BUDGET_EXHAUSTED from the layering.  audit=True re-verifies the stage
    invariant on the residual after every stage, with the enumeration clause
    active only when cap reaches f(n).
    """
    # plain Hall on both sides forces |side 0| = max matching = |side 1|, so
    # this also rejects unbalanced graphs, with a deficient-set witness
    report = check_hall_eps_n(g, ExpansionParams(schedule.epsilon_budget, floor), cap)
    if not report.satisfied:
        raise HypothesisFailedError(
            "graph fails the Hall_(eps,n) hypothesis up to the cap",
            cap=cap,
            witness=report.witness.as_obj() if report.witness else None,
        )

    layering = greedy_layering(g, schedule)
    layers, f_values = layering.layers, layering.f_values
    # check_hall passes only when neither side outnumbers its maximum
    # matching, so the precheck's matching is perfect
    engine = _Engine(g, report.matching)
    alive, select = engine.alive, engine.select
    picks = []  # (layer_vertex, partner), stage after stage
    for n, fn in enumerate(f_values):
        before = len(picks)
        for x in layers[n]:
            if x in alive:
                picks.append((x, select(x)))
        # below f(n) only plain Hall is audited, and a perfect matching of the
        # residual proves it; the full check runs when that certificate fails
        if audit and (
            cap >= fn or len(picks) > before and not engine.certifies_residual()
        ):
            eps = schedule.epsilon_after(n)
            residual = induced_subgraph(g, alive)
            # an empty enumeration range [f(n), cap] leaves only plain Hall
            if cap < fn:
                rep = check_hall(residual)
            else:
                rep = check_hall_eps_n(residual, ExpansionParams(eps, fn), cap)
            if not rep.satisfied:
                raise HallViolatedError(
                    "stage invariant Hall_(eps_n, f(n)) failed",
                    stage=n,
                    epsilon_n=str(eps),
                    f_n=fn,
                    witness=rep.witness.as_obj() if rep.witness else None,
                )
            if cap < fn:
                raise InvariantError(
                    "engine lost its residual matching although Hall holds",
                    stage=n,
                )

    # the greedy layering covers every vertex, so the picks pair them all
    matching = frozenset((min(x, y), max(x, y)) for x, y in picks)
    if 2 * len(matching) != len(g.ids):
        raise InvariantError(
            "stage picks did not pair everything",
            pairs=len(matching),
            vertices=len(g.ids),
        )
    return MatchResult(matching=matching, layering=layering, schedule=schedule)
