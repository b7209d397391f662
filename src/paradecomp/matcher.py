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
the matching, the layering and the schedule.

Every run ends with one certificate of its output: the picks must be edges
of the graph, pairwise disjoint, and cover every vertex (INVARIANT
otherwise).  That one check also proves the plain-Hall half of each stage
invariant: the picks of the stages after n restrict a perfect matching of
the graph to a perfect matching of stage n's residual.  So the per-stage
audit has only the expansion clause of Hall_(eps_n, f(n)) left to check,
and it enumerates that clause on the residual, up to the same cap as the
precheck, at each stage whose f(n) the cap reaches.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    HallViolatedError,
    HypothesisFailedError,
    InvalidMatchingError,
    InvariantError,
)
from .graphs import BipartiteGraph, induced_subgraph, validate_matching
from .hall import ExpansionParams, check_hall_eps_n
from .layers import LayerSchedule, Layering, greedy_layering


@dataclass(frozen=True)
class MatchResult:
    matching: frozenset
    layering: Layering
    schedule: LayerSchedule

    def as_obj(self) -> dict:
        """The match/2 result: matching, layers, stage count, last epsilon_n, schedule.

        The stage records follow from these: stage n picks each vertex of
        layer n still unmatched when its turn comes, with its partner.  With
        no stages, epsilon_n is the budget itself.  The encoder prints tuples
        as lists.
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
    invariant's expansion clause on the residual after every stage whose
    f(n) is at most cap; the check of the output proves its plain clause.
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
        for x in layers[n]:
            if x in alive:
                picks.append((x, select(x)))
        # an empty enumeration range [f(n), cap] leaves only plain Hall, which
        # the check of the output below proves for every stage
        if audit and cap >= fn:
            eps = schedule.epsilon_after(n)
            residual = induced_subgraph(g, alive)
            rep = check_hall_eps_n(residual, ExpansionParams(eps, fn), cap)
            if not rep.satisfied:
                raise HallViolatedError(
                    "stage invariant Hall_(eps_n, f(n)) failed",
                    stage=n,
                    epsilon_n=str(eps),
                    f_n=fn,
                    witness=rep.witness.as_obj() if rep.witness else None,
                )

    try:
        matching = frozenset(validate_matching(g, picks))
    except InvalidMatchingError as e:
        raise InvariantError(
            f"stage picks are not a matching: {e.message}", edge=e.details["edge"]
        ) from None
    # the greedy layering covers every vertex, so the picks pair them all
    if 2 * len(matching) != len(g.ids):
        raise InvariantError(
            "stage picks did not pair everything",
            pairs=len(matching),
            vertices=len(g.ids),
        )
    return MatchResult(matching=matching, layering=layering, schedule=schedule)
