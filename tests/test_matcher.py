import json
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

import paradecomp.cli
import paradecomp.hall
import paradecomp.matcher
import paradecomp.matching
from paradecomp.errors import (
    BudgetExhaustedError,
    HallViolatedError,
    HypothesisFailedError,
    InvariantError,
    ParadecompError,
)
from paradecomp.generators import (
    complete_bipartite,
    hall_family,
    line_window,
    star_graph,
    union_of_permutations,
)
from paradecomp.graphs import bipartite_graph, induced_subgraph, validate_matching
from paradecomp.hall import ExpansionParams, check_hall
from paradecomp.layers import LayerSchedule, explicit_schedule, geometric_schedule
from paradecomp.matcher import _Engine, layered_perfect_matching

from oracles import (
    has_perfect_matching_on,
    kuhn_max_matching,
    match_v1_from_v2,
    scan_greedy_layering,
)


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


def engine_on(g):
    # the engine starts from the maximum matching of the Hall precheck
    return _Engine(g, check_hall(g).matching)


def test_select_preserves_matchability():
    rng = random.Random(31)
    for _ in range(25):
        g = union_of_permutations(rng.randint(3, 8), rng.randint(2, 3), rng)
        engine = engine_on(g)
        assert len(engine.pair) == len(g.ids)
        for x in g.side_vertices(0):
            if x not in engine.alive:
                continue
            y = engine.select(x)
            assert y in g.adj[x]
            assert x not in engine.alive and y not in engine.alive
            assert has_perfect_matching_on(induced_subgraph(g, engine.alive), 0)
        assert not engine.alive


def test_stage_records_exact_epsilons():
    rng = random.Random(5)
    eps = Fraction(1, 2)
    ((g, p),) = hall_family(1, rng, [eps], n_range=(8, 8))
    sched = geometric_schedule(eps)
    res = layered_perfect_matching(g, p, sched, cap=2)
    for rec in res.stages:
        assert rec.epsilon_n == sched.epsilon_after(rec.n)
    matched = [e for rec in res.stages for e in rec.matched]
    assert sorted(matched) == sorted(res.matching)


def test_stage_records_replay_as_the_oracle_does():
    # the path's first layers hold several vertices each, so the order of
    # a stage's picks is checked too; a floor above either side's size
    # leaves the precheck nothing to enumerate
    runs = [
        (line_window(14), ExpansionParams(Fraction(16), 9),
         explicit_schedule([1, 2, 4, 8], Fraction(16)), 9)
    ]
    family = hall_family(4, random.Random(5), [Fraction(1, 2)], n_range=(8, 20))
    runs += [(g, p, geometric_schedule(p.epsilon), 2) for g, p in family]
    widest = 0
    for g, p, sched, cap in runs:
        res = layered_perfect_matching(g, p, sched, cap=cap)
        payload = json.loads(paradecomp.cli.canonical_json({"result": res.as_obj()}))
        assert match_v1_from_v2(payload, sched)["result"]["stages"] == [
            {
                "n": rec.n,
                "epsilon_n": str(rec.epsilon_n),
                "matched": [list(e) for e in rec.matched],
            }
            for rec in res.stages
        ]
        widest = max(widest, *(len(rec.matched) for rec in res.stages))
    assert widest > 1


def test_audit_mode_checks_residual_every_stage():
    rng = random.Random(12)
    pairs = hall_family(6, rng, [Fraction(1, 2)], n_range=(4, 12))
    for g, p in pairs:
        res = layered_perfect_matching(
            g, p, geometric_schedule(p.epsilon), cap=2, audit=True
        )
        assert len(res.matching) == len(g.side_vertices(0))


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


def _count_hopcroft_karp(monkeypatch):
    calls = []
    real = paradecomp.matching.hopcroft_karp

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(paradecomp.matching, "hopcroft_karp", counted)
    monkeypatch.setattr(paradecomp.hall, "hopcroft_karp", counted)
    return calls


def test_plain_audit_rests_on_the_engine_matching(monkeypatch):
    # audit cap 2 is below every f(n), so each stage audits plain Hall only,
    # and the engine's residual matching certifies it without a new matching
    rng = random.Random(12)
    epsilons = [Fraction(1, 4), Fraction(1, 2), Fraction(1)]
    for g, p in hall_family(20, rng, epsilons, n_range=(4, 30)):
        sched = geometric_schedule(p.epsilon)
        calls = _count_hopcroft_karp(monkeypatch)
        audited = layered_perfect_matching(g, p, sched, cap=2, audit=True)
        monkeypatch.undo()
        assert len(calls) == 1  # the precheck's, which the engine starts from
        assert audited.as_obj() == layered_perfect_matching(g, p, sched, cap=2).as_obj()


def test_audit_certifies_only_stages_that_picked(monkeypatch):
    # a stage whose layer vertices were all matched earlier picks nothing and
    # leaves the residual as the stage before audited it
    calls = []
    real = _Engine.certifies_residual

    def counted(self):
        calls.append(1)
        return real(self)

    monkeypatch.setattr(_Engine, "certifies_residual", counted)
    rng = random.Random(12)
    epsilons = [Fraction(1, 4), Fraction(1, 2), Fraction(1)]
    idle = 0
    for g, p in hall_family(20, rng, epsilons, n_range=(4, 30)):
        calls.clear()
        sched = geometric_schedule(p.epsilon)
        res = layered_perfect_matching(g, p, sched, cap=2, audit=True)
        picked = sum(1 for rec in res.stages if rec.matched)
        idle += len(res.stages) - picked
        assert len(calls) == picked
    assert idle > 0


def test_residual_certificate_checks_each_pair():
    g = union_of_permutations(6, 2, random.Random(4))
    engine = engine_on(g)
    assert engine.certifies_residual()
    pair = dict(engine.pair)
    u = 0
    v = pair[u]
    w = next(x for x in g.side_vertices(1) if x not in g.adj[u])
    a = pair[w]
    t = next(x for x in g.adj[v] if x != u)
    broken = [
        {x: y for x, y in pair.items() if x != u},  # u has no partner
        {**pair, u: w, w: u, a: v, v: a},  # all mutual, but u-w is no edge
        {**pair, v: t},  # one way, along an edge: t still points elsewhere
    ]
    for bad in broken:
        engine.pair = bad
        assert not engine.certifies_residual(), bad
    engine.pair = pair
    engine.alive.discard(v)  # v left the residual, but u still points at it
    assert not engine.certifies_residual()


def _drop_without_repair(self, x, y):
    # a broken engine: forgets the removed pair, repairs no alternating path
    self.pair.pop(x, None)
    self.pair.pop(y, None)
    self.alive.discard(x)
    self.alive.discard(y)
    return True


def _error_json(call) -> str:
    with pytest.raises(ParadecompError) as ei:
        call()
    return json.dumps(ei.value.as_json(), sort_keys=True)


def test_audit_catches_an_engine_that_skips_repair(monkeypatch):
    family = hall_family(12, random.Random(12), [Fraction(1, 2)], n_range=(4, 12))
    sched = geometric_schedule(Fraction(1, 2))
    good = [layered_perfect_matching(g, p, sched, cap=2).as_obj() for g, p in family]
    monkeypatch.setattr(_Engine, "remove_preserving", _drop_without_repair)
    codes = []
    for (g, p), want in zip(family, good):
        try:
            res = layered_perfect_matching(g, p, sched, cap=2, audit=True)
        except (HallViolatedError, InvariantError) as e:
            codes.append(e.code)
            continue
        # a run returns only if every pick was already a matched pair, so the
        # skipped repair never happened and the result is the correct one
        assert res.as_obj() == want
    assert len(codes) == 9
    assert "INVARIANT" in codes
    g, p = family[0]
    err = _error_json(
        lambda: layered_perfect_matching(g, p, sched, cap=2, audit=True)
    )
    assert err == (
        '{"details": {"stage": 1}, "error": "INVARIANT", '
        '"message": "engine lost its residual matching although Hall holds"}'
    )


def test_epsilon_clause_audit_failures_keep_their_witness(monkeypatch):
    # a genuine expansion failure: eps_0 = 36 asks for 37|F| neighbors
    g = complete_bipartite(3, 3)
    sched = explicit_schedule([2] * 8, Fraction(40))
    p = ExpansionParams(Fraction(40), 8)
    err = _error_json(
        lambda: layered_perfect_matching(g, p, sched, cap=8, audit=True)
    )
    assert err == (
        '{"details": {"epsilon_n": "36", "f_n": 2, "stage": 0, "witness": '
        '{"actual": 2, "f_set": [1, 2], "required": "74", "side": 0}}, '
        '"error": "HALL_VIOLATED", "message": "stage invariant Hall_(eps_n, f(n)) failed"}'
    )
    # a broken engine audited with the clause in range at every stage
    family = hall_family(12, random.Random(12), [Fraction(1, 2)], n_range=(4, 12))
    g, p = family[5]
    monkeypatch.setattr(_Engine, "remove_preserving", _drop_without_repair)
    # a floor of 10**6 leaves the precheck no set in range; the audit's
    # floor is f(n), so the cap puts its clause in range at every stage
    wide = ExpansionParams(p.epsilon, 10**6)
    err = _error_json(
        lambda: layered_perfect_matching(
            g, wide, geometric_schedule(p.epsilon), cap=10**6, audit=True
        )
    )
    assert err == (
        '{"details": {"epsilon_n": "17/64", "f_n": 512, "stage": 3, "witness": '
        '{"actual": 1, "f_set": [6, 9], "required": "2", "side": 0}}, '
        '"error": "HALL_VIOLATED", "message": "stage invariant Hall_(eps_n, f(n)) failed"}'
    )


@pytest.mark.parametrize(
    "f_n, stage, epsilon",
    [(8, 0, "-1/2"), (32, 1, "0")],
)
def test_budget_guard_reports_the_exact_spent_epsilon(f_n, stage, epsilon):
    # a hand-built schedule whose table overspends the budget: 8/8 at once,
    # or 8/32 twice, reaching a negative and a whole-number epsilon_n
    g = complete_bipartite(3, 3)
    p = ExpansionParams(Fraction(1, 2), 1)
    sched = LayerSchedule(Fraction(1, 2), Fraction(1, 4), f_list=(f_n,) * 6)
    err = _error_json(lambda: layered_perfect_matching(g, p, sched, cap=2))
    assert err == (
        f'{{"details": {{"epsilon": "{epsilon}", "stage": {stage}}}, '
        f'"error": "BUDGET_EXHAUSTED", '
        f'"message": "epsilon_{stage} = {epsilon} not positive"}}'
    )


def _stage_walk(g, sched):
    """The budget guard stage by stage: the layering, then one 8/f(n) step each."""
    layering = scan_greedy_layering(g, sched)
    eps = sched.epsilon_budget
    for n, fn in enumerate(layering["f"]):
        eps -= Fraction(8, fn)
        if eps <= 0:
            raise BudgetExhaustedError(
                f"epsilon_{n} = {eps} not positive", stage=n, epsilon=str(eps)
            )
    return len(layering["f"]), str(eps)


def _guard_outcome(call):
    try:
        return call()
    except BudgetExhaustedError as e:
        return e.as_json()


@given(
    st.lists(st.integers(1, 64), min_size=1, max_size=12),
    st.one_of(
        st.just(Fraction(0)),
        st.fractions(Fraction(1, 8), Fraction(4), max_denominator=64),
    ),
    st.booleans(),
)
# the empty graph has no stages, so even a zero budget is never spent
@example(fs=[1], budget=Fraction(0), empty=True)
# K_{3,3} takes six stages at f = 64: only the last, at exactly 0, is refused
@example(fs=[64] * 6, budget=Fraction(3, 4), empty=False)
def test_one_shot_budget_guard_equals_a_per_stage_walk(fs, budget, empty):
    # hand-built tables, unchecked against the budget; a floor of 4 leaves
    # the precheck no set in range on K_{3,3}, whatever the budget
    g = bipartite_graph([], [], []) if empty else complete_bipartite(3, 3)
    sched = LayerSchedule(budget, Fraction(0), f_list=tuple(sorted(fs)))
    p = ExpansionParams(budget, 4)

    def run():
        res = layered_perfect_matching(g, p, sched, cap=4).as_obj()
        return res["stages"], res["epsilon_n"]

    assert _guard_outcome(run) == _guard_outcome(lambda: _stage_walk(g, sched))

