"""Acceptance run: one test per criterion, each printing its own PASS/FAIL line.

Budgeted criteria assert their wall-clock limits.  CLI-owned criteria go
through cli.main in-process so stdout bytes can be compared exactly for the
determinism check at the end.
"""

import json
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from paradecomp import cli
from paradecomp.actions import (
    DoublingGraph,
    expand_window,
    interior_expansion_audit,
    square_set,
    standard_generators,
)
from paradecomp.generators import (
    hall_family,
    random_path_window,
    random_perfect_matching,
    synthetic_forest,
)
from paradecomp.graphs import graph_to_obj, induced_subgraph
from paradecomp.hall import ExpansionParams, check_hall, check_hall_eps_n
from paradecomp.layers import geometric_schedule
from paradecomp.matcher import layered_perfect_matching
from paradecomp.rotations import shortest_identity_word, word_rotation
from paradecomp.treedyn import (
    OrientedTwoRegular,
    f2_action_from_forest,
    free_word_violation,
    odd_path_graph,
    transfer_matching,
)

from oracles import (
    invert_letter,
    kuhn_max_matching,
    record_oracle_calls,
    record_side_levels,
    rotation_is_identity,
)


@contextmanager
def criterion(capsys, n, label):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"[acceptance] criterion {n} ({label}): FAIL", flush=True)
        raise
    with capsys.disabled():
        print(f"[acceptance] criterion {n} ({label}): PASS", flush=True)


def _run_cli(capsys, argv):
    code = cli.main(argv)
    return code, capsys.readouterr().out


# first stdout of each CLI command, reused by the determinism criterion
_first: dict = {}

DEMO_F2 = ["demo", "--kind", "f2", "--radius", "10"]
DEMO_SPHERE = ["demo", "--kind", "sphere", "--radius", "8", "--base", "0,1,0"]


def _assert_demo_payload(obj):
    assert obj["certificate"]["status"] == "PASS"
    assert obj["classical_certificate"]["status"] == "PASS"
    assert obj["roundtrip"]["subset_of_matching"] is True
    assert obj["roundtrip"]["covers_interior"] is True
    # partners refuses any interior miss; the first unmatched point lies
    # past the interior
    w = obj["window"]
    assert obj["boundary"]["unmatched_interior"] == 0
    assert obj["boundary"]["min_depth"] > w["radius"] - w["margin"]
    assert obj["pass"] is True


def test_criterion_1_matcher_agrees_with_oracle(capsys):
    with criterion(capsys, 1, "layered matcher vs augmenting-path oracle"):
        t0 = time.monotonic()
        rng = random.Random(20260816)
        epsilons = [Fraction(1, 4), Fraction(1, 2), Fraction(1)]
        count = 0
        for g, p in hall_family(500, rng, epsilons, validate_cap=2):
            assert len(g.ids) <= 200
            res = layered_perfect_matching(g, p, geometric_schedule(p.epsilon), cap=2)
            assert 2 * len(res.matching) == len(g.ids)
            assert len(res.matching) == len(kuhn_max_matching(g))
            count += 1
        assert count >= 500
        assert time.monotonic() - t0 <= 60


def test_criterion_2_stage_invariant_holds(capsys):
    with criterion(capsys, 2, "per-stage residual Hall with exact epsilon"):
        rng = random.Random(2)
        epsilons = [Fraction(1, 4), Fraction(1, 2), Fraction(1)]
        stage_checks = 0
        for g, p in hall_family(120, rng, epsilons, n_range=(4, 12), validate_cap=2):
            assert len(g.ids) <= 24
            sched = geometric_schedule(p.epsilon)
            # audit=True re-runs the same invariant inside the matcher and
            # raises on any violation; the loop below recomputes it here.
            res = layered_perfect_matching(g, p, sched, cap=2, audit=True)
            alive = set(g.ids)
            spent = Fraction(0)
            for rec in res.stages:
                for x, y in rec.matched:
                    alive.discard(x)
                    alive.discard(y)
                spent += Fraction(8, sched.f(rec.n))
                assert rec.epsilon_n == p.epsilon - spent
                residual = induced_subgraph(g, alive)
                floor = sched.f(rec.n)
                if 12 < floor:
                    rep = check_hall(residual)
                else:
                    rep = check_hall_eps_n(
                        residual, ExpansionParams(rec.epsilon_n, floor), 12
                    )
                assert rep.satisfied
                stage_checks += 1
        assert stage_checks > 0


def test_criterion_3_interior_expansion_exhaustive(capsys, monkeypatch):
    with criterion(capsys, 3, "doubled expansion on interior connected sets"):
        t0 = time.monotonic()
        s2 = square_set(standard_generators())
        w = expand_window("f2", "", standard_generators(), 12, 4)
        dg = DoublingGraph(w, s2, 3)
        reads = record_oracle_calls(dg)
        _, levels = record_side_levels(monkeypatch)
        # at cap 6 every singleton already meets ratio * cap and no set grows
        rep = interior_expansion_audit(dg, size_cap=9)
        assert rep.satisfied
        assert rep.witness is None
        # every interior vid of both sides was looked at: no vacuous pass
        interior, n = w.interior_indices(), w.n_points()
        assert sorted(reads) == interior + [c * n + i for c in (1, 2) for i in interior]
        # and sets grew along G^2
        assert max(k for k, _ in levels) >= 2
        assert time.monotonic() - t0 <= 120


def test_criterion_4_f2_demo_roundtrip(capsys):
    with criterion(capsys, 4, "f2 radius-10 paradox demo"):
        code, out = _run_cli(capsys, DEMO_F2)
        _first.setdefault("demo-f2", out)
        assert code == 0
        _assert_demo_payload(json.loads(out))


def test_criterion_5_rotations_act_freely(capsys):
    with criterion(capsys, 5, "no short identity word, exact orthogonality"):
        t0 = time.monotonic()
        assert shortest_identity_word(12) is None
        rng = random.Random(5)
        letters = "aAbB"
        for _ in range(1000):
            target = rng.randint(1, 40)
            chars: list = []
            while len(chars) < target:
                c = rng.choice(letters)
                if chars and c == invert_letter(chars[-1]):
                    continue
                chars.append(c)
            rot = word_rotation("".join(chars))
            assert rotation_is_identity(rot.transpose() * rot)
        assert time.monotonic() - t0 <= 120


def test_criterion_6_sphere_demo_roundtrip(capsys):
    with criterion(capsys, 6, "sphere radius-8 pipeline from (0,1,0)"):
        code, out = _run_cli(capsys, DEMO_SPHERE)
        _first.setdefault("demo-sphere", out)
        assert code == 0
        obj = json.loads(out)
        _assert_demo_payload(obj)
        assert obj["window"]["kind"] == "sphere"
        # orbit injectivity, exactly: every word lands on a distinct point
        w = expand_window("sphere", (0, 1, 0, 0), standard_generators(), 8, 4)
        assert len(set(w.coords)) == len(w.words) == 1 + 2 * (3**8 - 1)


def test_criterion_7_transfer_on_random_paths(capsys):
    with criterion(capsys, 7, "matching transfer on 200 path windows"):
        rng = random.Random(7)
        for _ in range(200):
            g = random_path_window(rng)
            tr = OrientedTwoRegular.from_graph(g)
            side0 = set(g.side_vertices(0))
            ends = {}
            for x in g.ids:
                lo, hi = ends.get(tr.comp[x], (tr.pos[x], tr.pos[x]))
                ends[tr.comp[x]] = (min(lo, tr.pos[x]), max(hi, tr.pos[x]))

            m1 = random_perfect_matching(odd_path_graph(tr, 1), rng)
            assert m1 is not None
            res1 = transfer_matching(tr, m1, 1)
            assert res1.excluded == ()
            assert res1.matching == {u: v for u, v in m1}

            for n in (2, 3):
                m = random_perfect_matching(odd_path_graph(tr, n), rng)
                assert m is not None
                res = transfer_matching(tr, m, n)
                assert set(res.matching) | set(res.excluded) == side0
                for x in res.excluded:
                    lo, hi = ends[tr.comp[x]]
                    assert min(tr.pos[x] - lo, hi - tr.pos[x]) <= 2 * n - 2
                by_comp: dict = {}
                for x, d in res.directions(tr).items():
                    by_comp.setdefault(tr.comp[x], set()).add(d)
                assert all(len(s) == 1 for s in by_comp.values())


def test_criterion_8_forest_action_is_free(capsys):
    with criterion(capsys, 8, "f2 action from 100 synthetic forests"):
        for seed in range(100):
            fw = synthetic_forest(random.Random(seed))
            assert fw.radius >= 128
            res = f2_action_from_forest(fw, 1)
            assert [st.n for st in res.stages] == [0, 1]
            assert res.stages[-1].domain == res.covered
            assert len(res.covered) > 0
            generated = set()
            for x in res.covered:
                images = [res.maps[i][x] for i in (-2, -1, 1, 2)]
                assert len(set(images)) == 4
                generated.update(frozenset((x, y)) for y in images)
            from_forest = {
                frozenset((u, v))
                for u in res.covered
                for v in fw.adjacency[u]
            }
            assert generated == from_forest
            assert free_word_violation(res.maps, 6) is None


def test_criterion_9_reruns_are_byte_identical(capsys, tmp_path):
    with criterion(capsys, 9, "byte-identical JSON on repeat runs"):
        for key, argv in [("demo-f2", DEMO_F2), ("demo-sphere", DEMO_SPHERE)]:
            code, out = _run_cli(capsys, argv)
            assert code == 0
            assert out == _first.setdefault(key, out)
            code, again = _run_cli(capsys, argv)
            assert code == 0
            assert again == out

        rng = random.Random(99)
        [(g, _)] = hall_family(1, rng, [Fraction(1, 2)], n_range=(4, 12), validate_cap=2)
        gpath = tmp_path / "g.json"
        gpath.write_text(json.dumps(graph_to_obj(g)))
        argv = ["match", str(gpath), "--epsilon", "1/2", "--cap", "2", "--audit"]
        code, out = _run_cli(capsys, argv)
        assert code == 0
        code, again = _run_cli(capsys, argv)
        assert again == out

        ppath = tmp_path / "p.json"
        argv = [
            "paradox", "--kind", "f2", "--radius", "6", "--margin", "2",
            "--out", str(ppath),
        ]
        code, out = _run_cli(capsys, argv)
        assert code == 0
        bytes1 = ppath.read_bytes()
        code, again = _run_cli(capsys, argv)
        assert again == out
        assert ppath.read_bytes() == bytes1
