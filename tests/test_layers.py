from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

import paradecomp.graphs
import paradecomp.layers
from paradecomp.errors import BudgetExhaustedError
from paradecomp.generators import (
    complete_bipartite,
    hall_family,
    line_window,
    union_of_permutations,
)
from paradecomp.graphs import bfs_distances, bipartite_graph, components
from paradecomp.layers import (
    LayerSchedule,
    explicit_schedule,
    geometric_schedule,
    greedy_layering,
)

import random

from oracles import scan_greedy_layering


def test_geometric_schedule_budget_is_exact():
    sched = geometric_schedule(Fraction(1))
    assert sched.base == 32
    assert Fraction(16, sched.base) == Fraction(1, 2)
    assert sched.f(0) == 32 and sched.f(3) == 256
    # epsilon_n stays positive forever: the full series sits under budget
    assert sched.epsilon_after(10) > sched.epsilon_budget - Fraction(16, sched.base)


def test_geometric_schedule_scales_with_epsilon():
    assert geometric_schedule(Fraction(1, 4)).f(0) == 128
    assert geometric_schedule(Fraction(1, 2)).f(0) == 64
    with pytest.raises(ValueError):
        geometric_schedule(Fraction(0))


def test_explicit_schedule_validation():
    sched = explicit_schedule([32, 64, 128], Fraction(1))
    assert sched.epsilon_after(1) == 1 - Fraction(8, 32) - Fraction(8, 64)
    with pytest.raises(BudgetExhaustedError):
        sched.f(3)
    assert sched.epsilon_after(-1) == 1
    with pytest.raises(ValueError):
        sched.epsilon_after(-2)
    with pytest.raises(ValueError):
        explicit_schedule([], Fraction(1))
    with pytest.raises(ValueError):
        explicit_schedule([64, 32], Fraction(1))
    with pytest.raises(ValueError):
        explicit_schedule([8, 8], Fraction(1))  # sums to 2, over budget


def test_f_values_are_f_in_one_call():
    scheds = [
        geometric_schedule(Fraction(1)),
        explicit_schedule([32, 64, 64, 128], Fraction(1)),
    ]
    for sched in scheds:
        for k in range(5):
            assert sched.f_values(k) == tuple(map(sched.f, range(k)))
    short = scheds[1]
    with pytest.raises(BudgetExhaustedError) as want:
        short.f(4)
    with pytest.raises(BudgetExhaustedError) as got:
        short.f_values(7)
    assert got.value.as_json() == want.value.as_json()


@pytest.mark.parametrize(
    "f_list, message",
    [
        ((8, 1, 1, 1, 1, 1), "non-decreasing"),
        ((), "at least one stage"),
        ((0, 8), ">= 1"),
    ],
)
def test_hand_built_schedule_checks_its_table(f_list, message):
    # the table is checked where it is set, whoever builds the schedule;
    # a falling table would let greedy_layering hand over members too early
    with pytest.raises(ValueError, match=message):
        LayerSchedule(Fraction(100), f_list=f_list)
    with pytest.raises(ValueError, match=message):
        explicit_schedule(f_list, Fraction(100))


@pytest.mark.parametrize(
    "sched",
    [geometric_schedule(Fraction(e)) for e in ("1/4", "1/2", "1", "16")],
    ids=["1/4", "1/2", "1", "16"],
)
def test_epsilon_after_closed_form_equals_the_running_sum(sched):
    eps = sched.epsilon_budget
    assert sched.epsilon_after(-1) == eps
    for n in range(301):
        eps -= Fraction(8, sched.f(n))
        assert sched.epsilon_after(n) == eps, n
    with pytest.raises(ValueError):
        sched.epsilon_after(-2)


@pytest.mark.parametrize(
    "kind, total",
    [
        ({"base": 8}, "2"),  # the series 16/8
        ({"f_list": (8,) * 6}, "6"),
        ({"f_list": (32,) * 6}, "3/2"),
        ({"base": 32}, "1/2"),  # a series equal to the budget is refused too
        ({"f_list": (16,)}, "1/2"),
    ],
    ids=["overspent", "table-8", "table-32", "base-at-budget", "table-at-budget"],
)
def test_hand_built_schedule_checks_its_budget(kind, total):
    with pytest.raises(ValueError, match=f"sum 8/f = {total} not below budget 1/2$"):
        LayerSchedule(Fraction(1, 2), **kind)


@given(
    st.one_of(
        st.integers(1, 64).map(lambda c: {"base": c}),
        st.lists(st.integers(1, 64), min_size=1, max_size=12).map(
            lambda fs: {"f_list": tuple(sorted(fs))}
        ),
    ),
    st.fractions(-1, 8, max_denominator=64),
)
@example(kind={"base": 32}, budget=Fraction(1, 2))
@example(kind={"f_list": (16, 16)}, budget=Fraction(1))
def test_schedule_is_built_exactly_when_its_series_is_under_budget(kind, budget):
    if "base" in kind:
        # sum_n 8/(c * 2^n) = 16/c; the stages checked stop at 300
        stages = range(301)
        series = Fraction(16, kind["base"])
    else:
        stages = range(len(kind["f_list"]))
        series = sum(Fraction(8, f) for f in kind["f_list"])
    try:
        sched = LayerSchedule(budget, **kind)
    except ValueError:
        assert series >= budget
        return
    assert series < budget
    # so every epsilon_n that f answers for stays positive
    for n in stages:
        assert sched.epsilon_after(n) > 0, n


def test_partial_sum_matches_epsilon_n():
    sched = geometric_schedule(Fraction(1, 2))
    for n in range(5):
        total = sum(Fraction(8, sched.f(i)) for i in range(n + 1))
        assert sched.epsilon_after(n) == Fraction(1, 2) - total


@given(st.integers(0, 2**30), st.integers(6, 40))
def test_greedy_layering_covers_and_separates(seed, n):
    rng = random.Random(seed)
    g = union_of_permutations(n, 2, rng)
    # geometric schedule: unbounded stage table, so coverage always completes
    sched = geometric_schedule(Fraction(1))
    layering = greedy_layering(g, sched)
    seen = [v for layer in layering.layers for v in layer]
    assert sorted(seen) == sorted(g.ids)
    assert len(seen) == len(set(seen))
    # members of layer m lie farther apart than f(m), the value recorded
    assert layering.f_values == tuple(map(sched.f, range(len(layering.layers))))
    for m, layer in enumerate(layering.layers):
        fn = sched.f(m)
        members = sorted(layer)
        for i, v in enumerate(members):
            near = bfs_distances(g.adj, (v,), fn)
            for w in members[i + 1 :]:
                assert w not in near


def test_layering_is_deterministic():
    rng = random.Random(7)
    g = union_of_permutations(12, 3, rng)
    sched = geometric_schedule(Fraction(1))
    a = greedy_layering(g, sched)
    b = greedy_layering(g, sched)
    assert a.layers == b.layers
    assert a.f_values == b.f_values


def test_line_layering_is_fully_predictable():
    g = line_window(14)
    sched = explicit_schedule([1, 2, 4, 8], Fraction(16))
    layering = greedy_layering(g, sched)
    # scan order is ascending id; on a path the whole run is hand-checkable
    assert layering.layers == (
        (0, 2, 4, 6, 8, 10, 12),
        (1, 5, 9, 13),
        (3, 11),
        (7,),
    )


@st.composite
def multi_component_graphs(draw):
    """1-5 connected bipartite components plus 0-3 isolated vertices, ids shuffled."""
    side0, side1, edges = [], [], []
    n = 0
    for _ in range(draw(st.integers(1, 5))):
        # each new vertex hangs off an earlier one of the other side
        sides = [0]
        comp_edges = []
        for k in range(1, draw(st.integers(1, 13))):
            at = draw(st.integers(0, k - 1))
            sides.append(1 - sides[at])
            comp_edges.append((at, k))
        for _ in range(draw(st.integers(0, 4))):
            u = draw(st.integers(0, len(sides) - 1))
            v = draw(st.integers(0, len(sides) - 1))
            if sides[u] != sides[v]:
                comp_edges.append((u, v))
        for k, side in enumerate(sides):
            (side0 if side == 0 else side1).append(n + k)
        edges += [(n + u, n + v) for u, v in comp_edges]
        n += len(sides)
    for _ in range(draw(st.integers(0, 3))):
        (side0 if draw(st.booleans()) else side1).append(n)
        n += 1
    ids = draw(st.permutations(range(n)))
    return bipartite_graph(
        [ids[v] for v in side0], [ids[v] for v in side1],
        [(ids[u], ids[v]) for u, v in edges],
    )


schedules = st.one_of(
    # short tables run out mid-layering, and both must fail at the same stage
    st.lists(st.integers(1, 12), min_size=1, max_size=12).map(
        lambda fs: explicit_schedule(sorted(fs), Fraction(100))
    ),
    st.builds(
        geometric_schedule,
        st.sampled_from([Fraction(1, 4), Fraction(1), Fraction(4), Fraction(16)]),
    ),
)


def _outcome(call):
    try:
        return call()
    except BudgetExhaustedError as e:
        return e.as_json()


@given(multi_component_graphs(), schedules)
def test_greedy_layering_matches_scan_oracle(g, sched):
    got = _outcome(lambda: greedy_layering(g, sched).as_obj())
    assert got == _outcome(lambda: scan_greedy_layering(g, sched))


def _even_cycle(n):
    return bipartite_graph(
        range(0, n, 2), range(1, n, 2), [(k, (k + 1) % n) for k in range(n)]
    )


def test_greedy_layering_matches_scan_oracle_near_the_diameter():
    # paths reach the size - 1 bound and cycles the 2 * ecc(root) one, so a
    # constant f on either side of the diameter tries both branches exactly
    graphs = [line_window(n) for n in range(2, 15)]
    graphs += [_even_cycle(n) for n in range(4, 17, 2)]
    graphs.append(complete_bipartite(3, 4))
    for g in graphs:
        for f in range(1, 14):
            sched = explicit_schedule([f] * len(g.ids), Fraction(8 * len(g.ids) + 1))
            assert greedy_layering(g, sched).as_obj() == scan_greedy_layering(g, sched)


def _relabel(g, label):
    return bipartite_graph(
        map(label, g.side_vertices(0)),
        map(label, g.side_vertices(1)),
        [(label(u), label(v)) for u, v in g.edges()],
    )


def test_greedy_layering_matches_scan_oracle_on_sparse_ids():
    # v -> 7v - 500 spreads the ids and sends some below zero, so each
    # search runs on the component renumbered by rank; every f(0) is below
    # the diameters (99, 172, 60 and 100), so stage 0 searches
    graphs = [line_window(100), line_window(173), _even_cycle(120), _even_cycle(200)]
    for g in graphs:
        h = _relabel(g, lambda v: 7 * v - 500)
        for f0 in (1, 3, 8, 32):
            # one stage per vertex is the most a layering can take
            fs = [f0 * 2**k for k in range(len(h.ids))]
            sched = explicit_schedule(fs, Fraction(17))
            assert greedy_layering(h, sched).as_obj() == scan_greedy_layering(h, sched)


def _count_searches(monkeypatch):
    calls = []

    def counting(name, real):
        def counted(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        return counted

    # layers calls bfs_distances through components only; greedy_net runs
    # its own ball search, so it is counted by name
    bfs = counting("bfs_distances", paradecomp.graphs.bfs_distances)
    monkeypatch.setattr(paradecomp.graphs, "bfs_distances", bfs)
    net = counting("greedy_net", paradecomp.graphs.greedy_net)
    monkeypatch.setattr(paradecomp.layers, "greedy_net", net)
    return calls


def test_layering_reads_each_eccentricity_off_the_component_search(monkeypatch):
    # every component here is longer than f(0) = 16, so its diameter bound
    # needs its root's eccentricity, which the component's own search gave
    graphs = [line_window(100), _even_cycle(120), _even_cycle(200)]
    sched = geometric_schedule(Fraction(2))
    for g in graphs:
        n_comps = sum(1 for _ in components(g.adj, g.ids))
        calls = _count_searches(monkeypatch)
        layering = greedy_layering(g, sched)
        monkeypatch.undo()
        assert calls.count("bfs_distances") == n_comps
        assert "greedy_net" in calls
        assert layering.as_obj() == scan_greedy_layering(g, sched)


def test_saturated_layering_makes_two_searches_per_component(monkeypatch):
    rng = random.Random(20260816)
    graphs = [g for g, _ in hall_family(40, rng, [Fraction(1, 4), Fraction(1, 2)])]
    graphs.append(line_window(41))
    for g in graphs:
        n_comps = sum(1 for _ in components(g.adj, g.ids))
        sched = geometric_schedule(Fraction(1, 4))  # f(0) = 128 saturates them all
        calls = _count_searches(monkeypatch)
        layering = greedy_layering(g, sched)
        assert "greedy_net" not in calls
        assert len(calls) <= 2 * n_comps
        monkeypatch.undo()
        assert layering.as_obj() == scan_greedy_layering(g, sched)
