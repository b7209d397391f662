"""Layered perfect matching: the staged construction.

The driver keeps a perfect matching of the current residual at all times.
Removing a vertex pair (x, y) preserves Hall's condition on the residual
exactly when the rest still has a perfect matching, so each candidate edge is
tested against the maintained matching instead of a fresh matching
computation: the old partners of x and y are rematched by a shortest
alternating path between them, searched from both ends at once, or the
search proves there is none.  That verdict depends only on the residual, not
on which perfect matching the engine holds, so the picks do not depend on
which shortest path a repair takes.  Candidates are scanned in ascending id
order, which realizes the "least such edge" rule.

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
is in range, and a perfect matching of the residual proves it.  The audit
keeps its own copy of the residual matching, a ledger verified once against
the graph when the run starts.  After each pick it removes the pair from
the ledger and repairs the ledger along the engine's new partners, edge by
edge, from the old partner of one removed vertex to the other's; a stage
then passes when the ledger equals the engine's whole matching and
residual.  So the audit costs each pick's repair path plus one comparison
per stage, and trusts nothing the engine says it touched: a write off the
walked path shows up in the comparison.  When the two disagree, one pass
over the residual decides (a live partner across an edge of the graph,
which pairs each live vertex back), and on a pass the ledger starts again
from the engine.  A stage that picked nothing runs no check: plain Hall
does not depend on epsilon_n, and the stage left the residual as the stage
before audited it (or the precheck, at stage 0).  If the certificate fails,
the full check runs: a real violation is reported with its canonical
witness, and a residual that still satisfies Hall means the engine itself
is broken (INVARIANT).  Once the cap reaches f(n) the expansion clause is
enumerated on the residual, at every stage.
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
    """Perfect matching of the residual, updated incrementally.

    pair maps every live vertex to its partner, both ways; alive is the
    residual's vertex set.  A removal either keeps the matching perfect on
    the smaller residual, rewriting partners along one repair path, or
    leaves both untouched.
    """

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

    def _alt_path(self, w, z):
        """Shortest alternating path from w to z in the residual without x, y.

        x and y are the pair being removed, z being x's partner and w y's.
        A forward tree grows from w and a backward tree from its roots, here
        z alone (a search with several admissible ends would root it at all
        of them), each by an edge to a live vertex, then that vertex's
        partner.  So x and y, whose partners are the roots, never join a
        tree, and the path avoids them.  Each step grows the smaller
        frontier by one whole level, and the path closes across the first
        edge found between the trees; either frontier running empty proves
        there is none.  That first meeting closes a shortest path: with the
        frontiers d and e unmatched edges from their roots, every path has
        at least d + e + 1, since a level scan that meets nothing raises the
        bound by one, and a meeting found while scanning has at most
        d + e + 1.  Returns the path's unmatched edges, each as (w-side
        vertex, z-side vertex), from w to z, or None.
        """
        adj, pair, alive = self.g.adj, self.pair, self.alive
        # tree vertex -> the vertex whose edge reached its partner (roots: None)
        fwd, bwd = {w: None}, {z: None}
        fl, bl = [w], [z]
        while fl and bl:
            back = len(bl) < len(fl)
            level, tree, other = (bl, bwd, fwd) if back else (fl, fwd, bwd)
            nxt = []
            for u in level:
                for v in adj[u]:
                    if v in other:
                        a, b = (v, u) if back else (u, v)
                        edges = [(a, b)]
                        while fwd[a] is not None:
                            a, v = fwd[a], pair[a]
                            edges.append((a, v))
                        edges.reverse()
                        while bwd[b] is not None:
                            u, b = pair[b], bwd[b]
                            edges.append((u, b))
                        return edges
                    if v in alive:
                        m = pair[v]
                        if m not in tree:
                            tree[m] = u
                            nxt.append(m)
            if back:
                bl = nxt
            else:
                fl = nxt
        return None

    def remove_preserving(self, x, y) -> bool:
        """Commit removal of x and y if the rest stays perfectly matchable.

        Unless x and y are partners, their old partners w and z lose them,
        and a shortest alternating path from w to z rematches both: each of
        its unmatched edges becomes a matched pair.
        """
        pair = self.pair
        if pair[x] == y:
            del pair[x]
            del pair[y]
        else:
            edges = self._alt_path(pair[y], pair[x])
            if edges is None:
                return False
            del pair[x]
            del pair[y]
            for u, v in edges:
                pair[u] = v
                pair[v] = u
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


class _Ledger:
    """The audit's own copy of the engine's residual matching.

    It starts from the engine's state, verified by one scan, and follows
    each pick along the engine's new partners, accepting only live edges of
    the graph, so while in step it is a perfect matching of its residual.
    """

    def __init__(self, engine: _Engine):
        self.engine = engine
        self.in_step = engine.certifies_residual()
        self._restart()

    def _restart(self):
        self.pair = dict(self.engine.pair)
        self.alive = set(self.engine.alive)

    def follow(self, x, y):
        """Remove the pick (x, y) and repair the ledger as the engine did."""
        if not self.in_step:
            return
        pair, alive, adj = self.pair, self.alive, self.engine.g.adj
        new = self.engine.pair
        if x == y or x not in alive or y not in alive:
            self.in_step = False
            return
        alive.remove(x)
        alive.remove(y)
        z = pair.pop(x)
        w = pair.pop(y)
        if z == y:
            return
        # w and z lost their partners; the alternating path from w to z
        # rematches them.  Entries for w, z and each vertex the path frees
        # are stale until the path rewrites them.  A step needs u and v to
        # name each other, so the path never reaches a vertex twice.
        u = w
        while True:
            v = new.get(u)
            if v not in alive or v not in adj[u] or new.get(v) != u:
                self.in_step = False
                return
            t = pair[v]
            pair[u] = v
            pair[v] = u
            if v == z:
                return
            u = t

    def certifies(self) -> bool:
        """Whether the engine's matching is a perfect matching of its residual.

        Agreement with the ledger proves it; otherwise the scan decides.
        """
        engine = self.engine
        if self.in_step and self.pair == engine.pair and self.alive == engine.alive:
            return True
        if not engine.certifies_residual():
            return False
        self.in_step = True
        self._restart()
        return True


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
    active only when cap reaches f(n).  Below that, a stage that picked is
    certified by comparing the engine's matching with the audit's ledger,
    and a stage that picked nothing by the stage before it.
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
    ledger = _Ledger(engine) if audit else None
    picks = []  # (layer_vertex, partner), stage after stage
    for n, fn in enumerate(f_values):
        before = len(picks)
        for x in layers[n]:
            if x in alive:
                y = select(x)
                picks.append((x, y))
                if ledger is not None:
                    ledger.follow(x, y)
        # below f(n) only plain Hall is audited, and a perfect matching of the
        # residual proves it; the full check runs when that certificate fails
        if audit and (cap >= fn or len(picks) > before and not ledger.certifies()):
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
