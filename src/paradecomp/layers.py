"""Sparse layerings: decompositions A_0, A_1, ... with growing separation.

A schedule fixes the separation function f (non-decreasing; the stock
geometric one doubles at each stage from a base of at least 8) together with
an exact rational budget certifying sum 8/f(n) < epsilon.  The greedy
layering scans vertices in ascending id order and accepts a vertex into
layer n unless an already-accepted one lies within distance f(n); this keeps
pairwise distances strictly above f(n) and covers everything in finitely
many layers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import BudgetExhaustedError
from .graphs import BipartiteGraph, components, greedy_net


@dataclass(frozen=True)
class LayerSchedule:
    """Separation function f plus an epsilon budget it is certified against.

    Geometric (f_list None): f(n) = base * 2**n, whose series sum 8/f(n) is
    16/base.  Explicit: a finite table, summed directly; asking past it
    raises BUDGET_EXHAUSTED.  Construction raises ValueError unless that sum
    is below the budget, so every epsilon_after(n) that f answers for is
    positive.  f must never fall, which greedy_layering relies on: f(0) must
    be >= 1 and a table non-empty and non-decreasing.
    """

    epsilon_budget: Fraction
    base: int | None = None
    f_list: tuple | None = None

    def __post_init__(self):
        table = (self.base,) if self.f_list is None else self.f_list
        if not table:
            raise ValueError("need at least one stage")
        for i, f in enumerate(table):
            if f < 1:
                raise ValueError("f values must be >= 1")
            if i and f < table[i - 1]:
                raise ValueError("f must be non-decreasing")
        if self.f_list is None:
            total = Fraction(16, self.base)
        else:
            total = sum((Fraction(8, f) for f in table), Fraction(0))
        budget = self.epsilon_budget
        if total >= budget:
            raise ValueError(f"sum 8/f = {total} not below budget {budget}")

    def _exhausted(self, n: int) -> BudgetExhaustedError:
        return BudgetExhaustedError(
            f"explicit schedule has {len(self.f_list)} stages, asked for {n}",
            stage=n,
        )

    def f(self, n: int) -> int:
        if n < 0:
            raise ValueError("stage index must be >= 0")
        if self.f_list is None:
            return self.base * 2**n
        if n >= len(self.f_list):
            raise self._exhausted(n)
        return self.f_list[n]

    def f_values(self, k: int) -> tuple:
        """(f(0), ..., f(k - 1)) in one call: the base shifted, or the table's head.

        A table shorter than k raises as f does at its first missing stage.
        """
        if self.f_list is None:
            return tuple(self.base << n for n in range(k))
        if k > len(self.f_list):
            raise self._exhausted(len(self.f_list))
        return self.f_list[:k]

    def epsilon_after(self, n: int) -> Fraction:
        """epsilon_n = epsilon - sum_{i<=n} 8/f(i), exact; n = -1 gives epsilon.

        Geometric: the sum is (16/c)(1 - 2^-(n+1)), so this costs O(1) at any
        n.  Explicit: the sum over the table, raising past its end as f does.
        """
        if n < -1:
            raise ValueError("stage index must be >= -1")
        if self.f_list is None:
            k = 2 ** (n + 1)
            return self.epsilon_budget - Fraction(16 * (k - 1), self.base * k)
        return self.epsilon_budget - sum(
            (Fraction(8, self.f(i)) for i in range(n + 1)), Fraction(0)
        )


def geometric_schedule(epsilon) -> LayerSchedule:
    """f(n) = c * 2^n with c the least 8 * 2^k whose series 16/c is below epsilon."""
    epsilon = Fraction(epsilon)
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    c = 8
    while Fraction(16, c) >= epsilon:
        c *= 2
    return LayerSchedule(epsilon, base=c)


@dataclass(frozen=True)
class Layering:
    layers: tuple
    f_values: tuple

    def as_obj(self) -> dict:
        return {
            "layers": [list(layer) for layer in self.layers],
            "f": list(self.f_values),
        }


def greedy_layering(g: BipartiteGraph, schedule: LayerSchedule) -> Layering:
    """Layer n is a greedy net of the still-uncovered vertices, radius f(n).

    The balls are taken in the full graph, so they pass through covered
    vertices too.  A ball never leaves its component, so each component is
    layered on its own and layer n is the sorted union of their n-th nets.
    A component's diameter is at most size - 1; when that exceeds f(0), it
    is also at most 2 * ecc(root), read off the component's own search.  A
    component whose bound is at most f(n) lies inside the first ball, and f
    never falls, so from stage n on its net is its least uncovered vertex:
    it hands over what is left as one-vertex nets in one step, with no
    search.  f is asked for stages in order, and for the layering's f
    values in one call at the end, so a short explicit table fails at its
    first missing stage.
    """
    adj = g.adj
    f0 = schedule.f(0)
    layers = []  # layers[n]: the n-th nets of the components seen so far
    for dist in components(adj, g.ids):
        diam = len(dist) - 1
        if diam > f0:
            diam = min(diam, 2 * max(dist.values()))
        members = sorted(dist)
        # the uncovered members, as ranks ascending: greedy_net takes
        # vertices 0..m-1
        rest = range(len(members))
        nets = []
        local = None
        while rest and diam > (fn := schedule.f(len(nets))):
            if local is None:
                rank = {v: k for k, v in enumerate(members)}
                local = [[rank[w] for w in adj[v]] for v in members]
            net = greedy_net(local, rest, fn)
            nets.append([members[k] for k in net])
            taken = set(net)
            rest = [k for k in rest if k not in taken]
        nets += [[members[k]] for k in rest]
        for n, net in enumerate(nets):
            if n < len(layers):
                layers[n] += net
            else:
                layers.append(net)
    f_values = schedule.f_values(len(layers))
    return Layering(tuple(tuple(sorted(layer)) for layer in layers), f_values)
