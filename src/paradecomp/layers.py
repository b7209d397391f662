"""Sparse layerings: decompositions A_0, A_1, ... with growing separation.

A schedule fixes the separation function f (non-decreasing, f(n) >= 8 for
the stock constructor) together with an exact rational budget certifying
sum 8/f(n) < epsilon.  The greedy layering scans vertices in ascending id
order and accepts a vertex into layer n unless an already-accepted one lies
within distance f(n); this keeps pairwise distances strictly above f(n) and
covers everything in finitely many layers.

Window mode answers layer membership for points of an action window using
the canonical key order as the scan order, refusing to answer (UNRELIABLE)
when the decision could depend on points beyond the window boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import BudgetExhaustedError, HypothesisFailedError, UnknownVertexError
from .graphs import BipartiteGraph, bfs_distances, distances_from


class _Unreliable:
    """Sentinel: the window is too small to decide.  Compare with `is`."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "UNRELIABLE"


UNRELIABLE = _Unreliable()


class LayerSchedule:
    """Separation function f plus a certified epsilon budget.

    kind "geometric": f(n) = base * ratio**n, infinite tail certified by the
    closed-form series total.  kind "explicit": finite table, total certified
    by direct summation; asking past the table raises BUDGET_EXHAUSTED.
    """

    def __init__(self, kind, epsilon_budget, base=None, ratio=None, f_list=None):
        self.kind = kind
        self.epsilon_budget = Fraction(epsilon_budget)
        self.base = base
        self.ratio = ratio
        self.f_list = tuple(f_list) if f_list is not None else None
        if kind == "geometric":
            self.series_total = Fraction(8, base) * Fraction(ratio, ratio - 1)
        else:
            self.series_total = sum(
                (Fraction(8, f) for f in self.f_list), Fraction(0)
            )

    def f(self, n: int) -> int:
        if n < 0:
            raise ValueError("stage index must be >= 0")
        if self.kind == "geometric":
            return self.base * self.ratio ** n
        if n >= len(self.f_list):
            raise BudgetExhaustedError(
                f"explicit schedule has {len(self.f_list)} stages, asked for {n}",
                stage=n,
            )
        return self.f_list[n]

    def partial_sum(self, n: int) -> Fraction:
        """sum_{i<=n} 8/f(i), exact."""
        return sum((Fraction(8, self.f(i)) for i in range(n + 1)), Fraction(0))

    def epsilon_after(self, n: int) -> Fraction:
        return self.epsilon_budget - self.partial_sum(n)

    def as_obj(self) -> dict:
        out = {
            "kind": self.kind,
            "epsilon_budget": str(self.epsilon_budget),
            "series_total": str(self.series_total),
        }
        if self.kind == "geometric":
            out["base"] = self.base
            out["ratio"] = self.ratio
        else:
            out["f_list"] = list(self.f_list)
        return out


def geometric_schedule(epsilon, ratio: int = 2) -> LayerSchedule:
    """f(n) = c * ratio^n with c the least 8 * ratio^k summing under epsilon.

    sum_n 8/(c * ratio^n) = (8/c) * ratio/(ratio-1), kept exact; the budget
    certificate is this closed form.
    """
    epsilon = Fraction(epsilon)
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if ratio < 2:
        raise ValueError("ratio must be >= 2")
    c = 8
    while Fraction(8, c) * Fraction(ratio, ratio - 1) >= epsilon:
        c *= ratio
    return LayerSchedule("geometric", epsilon, base=c, ratio=ratio)


def explicit_schedule(f_list, epsilon_budget) -> LayerSchedule:
    """Schedule from a finite table; test plumbing mostly.

    The table must be non-decreasing with f >= 1.  Values below 8 are allowed
    here (the stage arithmetic still works as long as the budget covers the
    sum); the stock geometric constructor is the one that honors f >= 8.
    """
    f_list = list(f_list)
    if not f_list:
        raise ValueError("need at least one stage")
    for i, f in enumerate(f_list):
        if f < 1:
            raise ValueError("f values must be >= 1")
        if i and f < f_list[i - 1]:
            raise ValueError("f must be non-decreasing")
    sched = LayerSchedule("explicit", Fraction(epsilon_budget), f_list=f_list)
    if sched.series_total >= sched.epsilon_budget:
        raise ValueError(
            f"sum 8/f = {sched.series_total} not below budget {sched.epsilon_budget}"
        )
    return sched


@dataclass(frozen=True)
class Layering:
    layers: tuple
    f_values: tuple
    schedule: LayerSchedule

    def as_obj(self) -> dict:
        return {
            "layers": [list(layer) for layer in self.layers],
            "f": list(self.f_values),
        }


def _greedy_layers(order, neighbors, f_of_stage):
    """Shared greedy core over an abstract vertex order and adjacency.

    order: vertices in scan order.  neighbors: v -> iterable.  Yields
    (stage_f, accepted_list) until everything is covered.
    """
    uncovered = set(order)
    n = 0
    while uncovered:
        fn = f_of_stage(n)
        blocked = set()
        accepted = []
        for v in order:
            if v not in uncovered or v in blocked:
                continue
            accepted.append(v)
            # the ball is taken in the full graph, so it passes through
            # covered vertices; blocking those too changes nothing
            blocked.update(bfs_distances(neighbors, (v,), fn))
        uncovered.difference_update(accepted)
        yield fn, accepted
        n += 1


def greedy_layering(g: BipartiteGraph, schedule: LayerSchedule) -> Layering:
    layers = []
    f_values = []
    for fn, accepted in _greedy_layers(g.ids, g.adj.__getitem__, schedule.f):
        layers.append(tuple(accepted))
        f_values.append(fn)
    return Layering(tuple(layers), tuple(f_values), schedule)


def validate_layering(g: BipartiteGraph, layers, schedule: LayerSchedule) -> None:
    """Check only the separation property: pairs in layer n farther than f(n).

    Deliberately nothing else; an externally supplied layering is accepted on
    this evidence alone (coverage failures surface later as unmatched
    vertices).
    """
    for n, layer in enumerate(layers):
        fn = schedule.f(n)
        members = list(layer)
        mset = set(members)
        for v in members:
            g.require_vertex(v)
        for v in members:
            dist = distances_from(g, v, bound=fn)
            for w, d in dist.items():
                if w != v and w in mset:
                    raise HypothesisFailedError(
                        f"layer {n} members {v} and {w} at distance {d} <= f({n}) = {fn}",
                        layer=n,
                        pair=[v, w],
                        distance=d,
                    )


def window_layering(window, schedule: LayerSchedule, upto_stage: int):
    """Greedy layers 0..upto_stage over the window's points, key order scan.

    Window points are indexed in canonical key order already, so ascending
    index is the scan order.  Returns a list of layers as sets of indices.
    """
    order = range(window.n_points())
    out = []
    gen = _greedy_layers(order, window.neighbors, schedule.f)
    for _ in range(upto_stage + 1):
        try:
            _, accepted = next(gen)
        except StopIteration:
            out.append(set())
            continue
        out.append(set(accepted))
    return out


def local_layer_membership(window, x: int, n: int, schedule: LayerSchedule):
    """Is point x in layer A_n, as far as the window can tell.

    Returns True/False when the ball of radius f(n)*(n+2) around x sits
    inside the window, UNRELIABLE otherwise.  The radius over-approximates
    the dependency chain of n nested greedy stages; it is not tight, and a
    tighter rule would need a soundness argument this code does not carry.
    """
    if not (0 <= x < window.n_points()):
        raise UnknownVertexError(f"point index {x} outside window", index=x)
    reach = schedule.f(n) * (n + 2)
    if window.dist_to_base(x) + reach > window.radius:
        return UNRELIABLE
    layers = window_layering(window, schedule, n)
    return x in layers[n]
