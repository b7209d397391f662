import random
from fractions import Fraction

import pytest

from paradecomp.errors import HypothesisFailedError
from paradecomp.generators import (
    complete_bipartite,
    hall_family,
    star_graph,
    union_of_permutations,
)
from paradecomp.graphs import bipartite_graph, induced_subgraph, validate_matching
from paradecomp.hall import ExpansionParams, check_hall
from paradecomp.layers import explicit_schedule, geometric_schedule
from paradecomp.matcher import _Engine, layered_perfect_matching

from oracles import has_perfect_matching_on, kuhn_max_matching


def test_k33_matches_perfectly():
    g = complete_bipartite(3, 3)
    p = ExpansionParams(Fraction(1, 4), 1)
    res = layered_perfect_matching(g, p, geometric_schedule(Fraction(1, 4)), cap=2)
    m = validate_matching(g, res.matching)
    assert len(m) == 3


def test_star_fails_hypothesis_with_witness():
    g = star_graph(3)
    p = ExpansionParams(Fraction(1), 1)
    with pytest.raises(HypothesisFailedError) as ei:
        layered_perfect_matching(g, p, geometric_schedule(Fraction(1)))
    w = ei.value.details["witness"]
    assert w is not None and w["actual"] < int(Fraction(w["required"]))


def test_unbalanced_sides_fail():
    g = bipartite_graph([0, 1, 2], [3, 4], [(0, 3), (1, 4), (2, 3)])
    with pytest.raises(HypothesisFailedError) as exc:
        layered_perfect_matching(
            g, ExpansionParams(Fraction(1), 1), geometric_schedule(Fraction(1))
        )
    # the Hall precheck rejects unbalanced sides itself, with a witness
    assert exc.value.details["witness"] is not None


def test_epsilon_must_match_schedule_budget():
    g = complete_bipartite(2, 2)
    with pytest.raises(ValueError):
        layered_perfect_matching(
            g, ExpansionParams(Fraction(1), 1), geometric_schedule(Fraction(1, 2))
        )


def test_select_preserves_matchability():
    rng = random.Random(31)
    for _ in range(25):
        g = union_of_permutations(rng.randint(3, 8), rng.randint(2, 3), rng)
        engine = _Engine(g)
        assert engine.perfect
        for x in g.side_vertices(0):
            if x not in engine.alive:
                continue
            y = engine.select(x)
            assert y in g.adj[x]
            assert x not in engine.alive and y not in engine.alive
            assert has_perfect_matching_on(induced_subgraph(g, engine.alive), 0)
        assert not engine.alive


def test_select_raises_on_unmatchable_residual():
    assert not _Engine(star_graph(3)).perfect


def test_stage_records_exact_epsilons():
    rng = random.Random(5)
    eps = Fraction(1, 2)
    ((g, p),) = hall_family(1, rng, [eps], n_range=(8, 8))
    sched = geometric_schedule(eps)
    res = layered_perfect_matching(g, p, sched, cap=2)
    obj = res.as_obj()
    for rec in obj["stages"]:
        n = rec["n"]
        assert Fraction(rec["epsilon_n"]) == sched.epsilon_after(n)
    matched = [tuple(e) for rec in obj["stages"] for e in rec["matched"]]
    assert sorted(matched) == [tuple(e) for e in obj["matching"]]


def test_audit_mode_checks_residual_every_stage():
    rng = random.Random(12)
    pairs = hall_family(6, rng, [Fraction(1, 2)], n_range=(4, 12))
    for g, p in pairs:
        res = layered_perfect_matching(
            g, p, geometric_schedule(p.epsilon), cap=2, audit=True, audit_cap=12
        )
        assert len(res.matching) == len(g.side_vertices(0))


def test_explicit_layering_can_be_supplied():
    g = complete_bipartite(2, 2)
    sched = explicit_schedule([32, 64, 128, 256], Fraction(1))
    layers = [(0,), (1,), (2,), (3,)]
    res = layered_perfect_matching(
        g, ExpansionParams(Fraction(1), 1), sched, cap=1, layering=layers
    )
    assert len(res.matching) == 2


def test_supplied_layering_must_be_separated():
    g = complete_bipartite(3, 3)
    sched = explicit_schedule([1000] * 10, 1)
    with pytest.raises(HypothesisFailedError) as ei:
        layered_perfect_matching(
            g, ExpansionParams(Fraction(1), 1), sched, cap=1, layering=[g.ids]
        )
    assert ei.value.code == "HYPOTHESIS_FAILED"
    assert ei.value.details["pair"] == [0, 3]
    assert ei.value.details["distance"] == 1


def test_matching_is_deterministic():
    rng = random.Random(88)
    g = union_of_permutations(20, 3, rng)
    p = ExpansionParams(Fraction(1, 2), 1)
    r1 = layered_perfect_matching(g, p, geometric_schedule(Fraction(1, 2)), cap=2)
    r2 = layered_perfect_matching(g, p, geometric_schedule(Fraction(1, 2)), cap=2)
    assert r1.as_obj() == r2.as_obj()


def test_cardinality_equals_maximum():
    rng = random.Random(3)
    for g, p in hall_family(10, rng, [Fraction(1, 4)], n_range=(4, 12)):
        assert check_hall(g).satisfied
        res = layered_perfect_matching(g, p, geometric_schedule(p.epsilon), cap=2)
        assert len(res.matching) == len(kuhn_max_matching(g))
