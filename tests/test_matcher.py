import json
import random
from fractions import Fraction

import pytest

import paradecomp.cli
import paradecomp.hall
import paradecomp.matcher
import paradecomp.matching
from paradecomp.errors import (
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
from paradecomp.graphs import (
    BipartiteGraph,
    bipartite_graph,
    induced_subgraph,
    validate_matching,
)
from paradecomp.hall import check_hall
from paradecomp.layers import explicit_schedule, geometric_schedule, greedy_layering
from paradecomp.matcher import _Engine, _Ledger, layered_perfect_matching

from oracles import (
    has_perfect_matching_on,
    kuhn_max_matching,
    match_v1_from_v2,
    one_sided_alt_path,
)


def test_k33_matches_perfectly():
    g = complete_bipartite(3, 3)
    res = layered_perfect_matching(g, geometric_schedule(Fraction(1, 4)), cap=2)
    m = validate_matching(g, res.matching)
    assert len(m) == 3


def test_star_fails_hypothesis_with_witness():
    g = star_graph(3)
    with pytest.raises(HypothesisFailedError) as ei:
        layered_perfect_matching(g, geometric_schedule(Fraction(1)))
    w = ei.value.details["witness"]
    assert w is not None and w["actual"] < int(Fraction(w["required"]))


def test_unbalanced_sides_fail():
    g = bipartite_graph([0, 1, 2], [3, 4], [(0, 3), (1, 4), (2, 3)])
    with pytest.raises(HypothesisFailedError) as exc:
        layered_perfect_matching(g, geometric_schedule(Fraction(1)))
    # the Hall precheck rejects unbalanced sides itself, with a witness
    assert exc.value.details["witness"] is not None


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


class _LoggedAdj(dict):
    """An adjacency that logs the vertices read, one per search expansion."""

    def __init__(self, adj):
        super().__init__(adj)
        self.log = []

    def __getitem__(self, v):
        self.log.append(v)
        return super().__getitem__(v)


def _engine_logged(g, pair_l):
    adj = _LoggedAdj(g.adj)
    return _Engine(BipartiteGraph(g.ids, g.side_of, adj), pair_l), adj


def _assert_repair_path(g, engine, edges, w, z, x, y):
    # unmatched edges of the residual without x and y, chained by matched
    # ones from w to z, through distinct vertices
    pair, alive = engine.pair, engine.alive
    assert edges[0][0] == w and edges[-1][1] == z
    for i, (u, v) in enumerate(edges):
        assert v in g.adj[u] and pair[u] != v
        assert u in alive and v in alive and not {u, v} & {x, y}
        if i:
            assert pair[edges[i - 1][1]] == u
    assert len({v for e in edges for v in e}) == 2 * len(edges)


def _repairs_against_the_oracle(monkeypatch, g):
    """Match g through its layering, checking every repair search select makes.

    Each candidate is searched by the engine and then by the one-sided
    oracle on the same state, and the certificate is checked after every
    pick.  Returns the verdicts in order and the vertices each search
    expanded, in total.
    """
    engine, adj = _engine_logged(g, check_hall(g).matching)
    log = adj.log
    real = _Engine._alt_path
    verdicts, expanded = [], [0, 0]

    def checked(self, w, z):
        x, y = self.pair[z], self.pair[w]
        log.clear()
        got = real(self, w, z)
        expanded[0] += len(log)
        log.clear()
        want = one_sided_alt_path(adj, self.pair, self.alive, w, z, x, y)
        expanded[1] += len(log)
        assert (got is None) == (want is None)
        if got is not None:
            _assert_repair_path(g, self, got, w, z, x, y)
            assert len(got) == len(want)
        verdicts.append(got is not None)
        return got

    monkeypatch.setattr(_Engine, "_alt_path", checked)
    for layer in greedy_layering(g, geometric_schedule(1)).layers:
        for v in layer:
            if v in engine.alive:
                engine.select(v)
                assert engine.certifies_residual()
    monkeypatch.undo()
    assert not engine.alive
    return verdicts, expanded


def test_two_sided_repair_agrees_with_the_one_sided_oracle(monkeypatch):
    graphs = [
        union_of_permutations(n, 3, random.Random(seed))
        for n in (10, 40, 160, 1000)
        for seed in (1, 2, 3)
    ]
    family = hall_family(
        20,
        random.Random(12),
        [Fraction(1, 4), Fraction(1, 2), Fraction(1)],
        n_range=(4, 30),
    )
    graphs += [g for g, _ in family]
    verdicts = []
    for g in graphs:
        verdicts += _repairs_against_the_oracle(monkeypatch, g)[0]
    # both verdicts occur, so neither side of the comparison is vacuous
    assert True in verdicts and False in verdicts


def test_two_sided_search_expands_under_half_the_oracle(monkeypatch):
    g = union_of_permutations(1000, 3, random.Random(1000))
    _, (got, want) = _repairs_against_the_oracle(monkeypatch, g)
    assert 2 * got < want
    assert got == 8584


def _handmade_engine(edges):
    # the removal of x=0 and y=10 frees w=1 (y's partner) and z=11 (x's);
    # a_i = i + 1 is matched to v_i = i + 11 for i = 1..4, and u=6 to b=16
    pairs = [(0, 11), (1, 10), (2, 12), (3, 13), (4, 14), (5, 15), (6, 16)]
    g = bipartite_graph(range(7), range(10, 17), [(0, 10), *pairs, *edges])
    return g, *_engine_logged(g, dict(pairs))


def test_backward_tree_can_stay_the_smaller_one():
    # w reaches v_1..v_4 at once, so four forward vertices wait while the
    # backward tree grows from z to u's partner b, whose edge to a_1 meets
    g, engine, adj = _handmade_engine(
        [(1, 12), (1, 13), (1, 14), (1, 15), (6, 11), (2, 16)]
    )
    pair, alive = dict(engine.pair), set(engine.alive)
    path = engine._alt_path(1, 11)
    assert path == [(1, 12), (2, 16), (6, 11)]
    assert adj.log == [1, 11, 16]  # w, then z and b
    adj.log.clear()
    assert one_sided_alt_path(adj, pair, alive, 1, 11, 0, 10) == path
    assert adj.log == [1, 2, 3, 4, 5, 6]  # w, a_1..a_4, u
    assert engine.remove_preserving(0, 10)
    assert engine.certifies_residual()


def test_a_repair_fails_once_the_backward_frontier_empties():
    # z has no edge but its matched one to x: after the forward step
    # reaches a_1 and a_2, the smaller backward frontier is scanned and
    # empties
    g, engine, adj = _handmade_engine([(1, 12), (1, 13)])
    pair, alive = dict(engine.pair), set(engine.alive)
    assert not engine.remove_preserving(0, 10)
    assert adj.log == [1, 11]  # w, then z; a_1 and a_2 wait unexpanded
    assert engine.pair == pair and engine.alive == alive
    adj.log.clear()
    assert one_sided_alt_path(adj, pair, alive, 1, 11, 0, 10) is None
    assert adj.log == [1, 2, 3]


def test_stage_records_exact_epsilons():
    rng = random.Random(5)
    eps = Fraction(1, 2)
    ((g, _),) = hall_family(1, rng, [eps], n_range=(8, 8))
    sched = geometric_schedule(eps)
    res = layered_perfect_matching(g, sched, cap=2)
    for rec in res.stages:
        assert rec.epsilon_n == sched.epsilon_after(rec.n)
    matched = [e for rec in res.stages for e in rec.matched]
    assert sorted(matched) == sorted(res.matching)


def test_stage_records_replay_as_the_oracle_does():
    # the path's first layers hold several vertices each, so the order of
    # a stage's picks is checked too; a floor above either side's size
    # leaves the precheck nothing to enumerate
    runs = [(line_window(14), explicit_schedule([1, 2, 4, 8], Fraction(16)), 9, 9)]
    family = hall_family(4, random.Random(5), [Fraction(1, 2)], n_range=(8, 20))
    runs += [(g, geometric_schedule(p.epsilon), 1, 2) for g, p in family]
    widest = 0
    for g, sched, floor, cap in runs:
        res = layered_perfect_matching(g, sched, floor=floor, cap=cap)
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
        res = layered_perfect_matching(g, geometric_schedule(p.epsilon), cap=2, audit=True)
        assert len(res.matching) == len(g.side_vertices(0))


def test_matching_is_deterministic():
    rng = random.Random(88)
    g = union_of_permutations(20, 3, rng)
    r1 = layered_perfect_matching(g, geometric_schedule(Fraction(1, 2)), cap=2)
    r2 = layered_perfect_matching(g, geometric_schedule(Fraction(1, 2)), cap=2)
    assert r1.as_obj() == r2.as_obj()


def test_cardinality_equals_maximum():
    rng = random.Random(3)
    for g, p in hall_family(10, rng, [Fraction(1, 4)], n_range=(4, 12)):
        assert check_hall(g).satisfied
        res = layered_perfect_matching(g, geometric_schedule(p.epsilon), cap=2)
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
        audited = layered_perfect_matching(g, sched, cap=2, audit=True)
        monkeypatch.undo()
        assert len(calls) == 1  # the precheck's, which the engine starts from
        assert audited.as_obj() == layered_perfect_matching(g, sched, cap=2).as_obj()


def _count_calls(monkeypatch, cls, name):
    calls = []
    real = getattr(cls, name)

    def counted(self):
        calls.append(1)
        return real(self)

    monkeypatch.setattr(cls, name, counted)
    return calls


def test_audit_certifies_only_stages_that_picked(monkeypatch):
    # a stage whose layer vertices were all matched earlier picks nothing and
    # leaves the residual as the stage before audited it; the scan runs once,
    # to verify the ledger each stage's check compares against
    checks = _count_calls(monkeypatch, _Ledger, "certifies")
    scans = _count_calls(monkeypatch, _Engine, "certifies_residual")
    rng = random.Random(12)
    epsilons = [Fraction(1, 4), Fraction(1, 2), Fraction(1)]
    idle = 0
    for g, p in hall_family(20, rng, epsilons, n_range=(4, 30)):
        checks.clear()
        scans.clear()
        sched = geometric_schedule(p.epsilon)
        res = layered_perfect_matching(g, sched, cap=2, audit=True)
        picked = sum(1 for rec in res.stages if rec.matched)
        idle += len(res.stages) - picked
        assert len(checks) == picked
        assert len(scans) == 1
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
    good = [layered_perfect_matching(g, sched, cap=2).as_obj() for g, _ in family]
    monkeypatch.setattr(_Engine, "remove_preserving", _drop_without_repair)
    codes = []
    for (g, _), want in zip(family, good):
        try:
            res = layered_perfect_matching(g, sched, cap=2, audit=True)
        except (HallViolatedError, InvariantError) as e:
            codes.append(e.code)
            continue
        # a run returns only if every pick was already a matched pair, so the
        # skipped repair never happened and the result is the correct one
        assert res.as_obj() == want
    assert len(codes) == 9
    assert "INVARIANT" in codes
    g, _ = family[0]
    err = _error_json(lambda: layered_perfect_matching(g, sched, cap=2, audit=True))
    assert err == (
        '{"details": {"stage": 1}, "error": "INVARIANT", '
        '"message": "engine lost its residual matching although Hall holds"}'
    )


def test_epsilon_clause_audit_failures_keep_their_witness(monkeypatch):
    # a genuine expansion failure: eps_0 = 36 asks for 37|F| neighbors
    g = complete_bipartite(3, 3)
    sched = explicit_schedule([2] * 8, Fraction(40))
    err = _error_json(
        lambda: layered_perfect_matching(g, sched, floor=8, cap=8, audit=True)
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
    err = _error_json(
        lambda: layered_perfect_matching(
            g, geometric_schedule(p.epsilon), floor=10**6, cap=10**6, audit=True
        )
    )
    assert err == (
        '{"details": {"epsilon_n": "17/64", "f_n": 512, "stage": 3, "witness": '
        '{"actual": 1, "f_set": [6, 9], "required": "2", "side": 0}}, '
        '"error": "HALL_VIOLATED", "message": "stage invariant Hall_(eps_n, f(n)) failed"}'
    )


def _swap_after_repair(fits, on_path=False):
    """An engine that repairs correctly, then swaps two live pairs.

    Pairs (a, b) and (c, d) with a on side 0 become a-d and c-b, once per
    run, for the first two (in id order) that fits(adj, a, b, c, d) accepts:
    a-b one the repair wrote (on_path), or else both left as they were.
    """
    real = _Engine.remove_preserving

    def remove(self, x, y):
        before = dict(self.pair)
        if not real(self, x, y):
            return False
        if getattr(self, "swapped", False):
            return True
        pair, adj = self.pair, self.g.adj
        pairs = sorted((a, b) for a, b in pair.items() if self.g.side_of[a] == 0)
        off = [(a, b) for a, b in pairs if before.get(a) == b]
        first = [p for p in pairs if p not in off] if on_path else off
        for a, b in first:
            for c, d in pairs if on_path else off:
                if c != a and fits(adj, a, b, c, d):
                    pair.update({a: d, d: a, c: b, b: c})
                    self.swapped = True
                    return True
        return True

    return remove


def _outcome(g, sched):
    try:
        return layered_perfect_matching(g, sched, cap=2, audit=True).as_obj()
    except (HallViolatedError, InvariantError) as e:
        return e.as_json()


def test_ledger_verdict_equals_the_residual_scan(monkeypatch):
    family = hall_family(
        20,
        random.Random(12),
        [Fraction(1, 4), Fraction(1, 2), Fraction(1)],
        n_range=(4, 30),
    )
    runs = [(g, geometric_schedule(p.epsilon)) for g, p in family]
    good = [layered_perfect_matching(g, s, cap=2).as_obj() for g, s in runs]
    real_certifies = _Ledger.certifies
    verdicts = []

    def checked(self):
        want = self.engine.certifies_residual()
        got = real_certifies(self)
        verdicts.append((got, want))
        return got

    def scan_only(self):
        # the certificate as it stood before the ledger: the scan alone
        return self.engine.certifies_residual()

    engines = {
        "real": _Engine.remove_preserving,
        "no repair": _drop_without_repair,
        # a-d is no edge, so the residual loses its matching off the path
        "non-edge": _swap_after_repair(lambda adj, a, b, c, d: d not in adj[a]),
        # the same, on the path the ledger walks
        "non-edge on the path": _swap_after_repair(
            lambda adj, a, b, c, d: d not in adj[a], on_path=True
        ),
        # a-b-c-d is an alternating 4-cycle: still a perfect matching
        "4-cycle": _swap_after_repair(
            lambda adj, a, b, c, d: d in adj[a] and b in adj[c]
        ),
    }
    outcomes, restarts = {}, {}
    for name, remove in engines.items():
        monkeypatch.setattr(_Engine, "remove_preserving", remove)
        monkeypatch.setattr(_Ledger, "certifies", scan_only)
        want = [_outcome(g, s) for g, s in runs]
        monkeypatch.setattr(_Ledger, "certifies", checked)
        calls = _count_calls(monkeypatch, _Ledger, "_restart")
        verdicts.clear()
        outcomes[name] = [_outcome(g, s) for g, s in runs]
        assert outcomes[name] == want, name
        assert verdicts and all(v == w for v, w in verdicts), name
        restarts[name] = len(calls)
        monkeypatch.undo()
    assert outcomes["real"] == good
    assert restarts["real"] == len(runs)  # the ledger never needed the scan
    # the swapped cycle leaves the ledger behind, and the scan arbitrates
    assert outcomes["4-cycle"] == good
    assert restarts["4-cycle"] > len(runs)
    assert any("error" in o for o in outcomes["no repair"])
    for name in ("non-edge", "non-edge on the path"):
        raised = [o for o in outcomes[name] if "error" in o]
        assert raised and all(o["error"] == "INVARIANT" for o in raised), name
