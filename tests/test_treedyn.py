import random
import time

import pytest
from hypothesis import example, given, strategies as st

from paradecomp import treedyn
from paradecomp.actions import (
    DoublingGraph,
    expand_window,
    interior_saturating_matching,
    square_set,
    standard_generators,
)
from paradecomp.errors import (
    BallTruncatedError,
    ForestFormatError,
    HypothesisFailedError,
    InvalidMatchingError,
)
from paradecomp.generators import line_window, star_graph, synthetic_forest
from paradecomp.graphs import bfs_distances, bipartite_graph
from paradecomp.treedyn import (
    ForestWindow,
    OrientedTwoRegular,
    TripleFunctionSystem,
    f2_action_from_forest,
    forest_from_obj,
    forest_from_paradox,
    forest_is_acyclic,
    free_word_violation,
    majority_ball,
    odd_path_graph,
    transfer_matching,
    triple_system_from_matching,
)
from paradecomp.words import inv, mul

from families import (
    planted_cycle_system,
    random_path_window,
    random_perfect_matching,
    source_tree_system,
)
from oracles import (
    all_perfect_matchings,
    bfs_majority_ball,
    edge_set_forest_from_paradox,
    rescan_pairs,
    rescan_stage_audit,
)


def test_orientation_walks_from_least_endpoint():
    g = line_window(8)
    tr = OrientedTwoRegular.from_graph(g)
    assert tr.paths == {0: list(range(8))}
    for v in range(8):
        assert tr.pos[v] == v
        assert tr.comp[v] == 0


def test_orientation_separates_components():
    g = bipartite_graph(
        [0, 2, 10, 12], [1, 3, 11, 13],
        [(0, 1), (1, 2), (2, 3), (10, 11), (11, 12), (12, 13)],
    )
    tr = OrientedTwoRegular.from_graph(g)
    assert tr.paths == {0: [0, 1, 2, 3], 10: [10, 11, 12, 13]}
    assert tr.pos[12] == 2


def test_orientation_rejects_degree_three():
    with pytest.raises(HypothesisFailedError):
        OrientedTwoRegular.from_graph(star_graph(3))


def test_orientation_rejects_cycles():
    g = bipartite_graph([0, 2], [1, 3], [(0, 1), (1, 2), (2, 3), (3, 0)])
    with pytest.raises(HypothesisFailedError):
        OrientedTwoRegular.from_graph(g)


def test_odd_path_power_one_is_the_graph():
    rng = random.Random(3)
    g = random_path_window(rng)
    g1 = odd_path_graph(OrientedTwoRegular.from_graph(g), 1)
    assert {frozenset(e) for e in g1.edges()} == {frozenset(e) for e in g.edges()}


def test_odd_path_power_offsets():
    g = line_window(12)
    tr = OrientedTwoRegular.from_graph(g)
    g2 = odd_path_graph(tr, 2)
    for v in g2.ids:
        expected = {v + d for d in (-3, -1, 1, 3) if 0 <= v + d < 12}
        assert set(g2.adj[v]) == expected
    g3 = odd_path_graph(tr, 3)
    assert set(g3.adj[6]) == {1, 3, 5, 7, 9, 11}


def test_majority_ball_is_centered_and_sized():
    tr = OrientedTwoRegular.from_graph(line_window(20))
    assert majority_ball(tr, 10, 1) == (10,)
    assert majority_ball(tr, 10, 2) == (8, 10, 12)
    assert majority_ball(tr, 10, 3) == (6, 8, 10, 12, 14)
    with pytest.raises(BallTruncatedError):
        majority_ball(tr, 0, 2)
    with pytest.raises(ValueError):
        majority_ball(tr, 11, 2)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_majority_ball_agrees_with_bfs_oracle(n):
    rng = random.Random(n)
    graphs = [line_window(k) for k in (1, 2, 7, 16)]
    # an odd path with side-1 endpoints: side-0 ranks are odd along it
    odd = [(v, v + 1) for v in range(6)]
    graphs.append(bipartite_graph([1, 3, 5], [0, 2, 4, 6], odd))
    graphs += [random_path_window(rng, 3, 29, 200) for _ in range(6)]
    truncated = 0
    for g in graphs:
        tr = OrientedTwoRegular.from_graph(g)
        for x in g.side_vertices(0):
            want = bfs_majority_ball(g, x, n)
            if len(want) == 2 * n - 1:
                assert sorted(majority_ball(tr, x, n)) == want
                continue
            truncated += 1
            with pytest.raises(BallTruncatedError) as err:
                majority_ball(tr, x, n)
            assert err.value.details["found"] == len(want)
    assert (truncated > 0) == (n > 1)


def test_transfer_n1_returns_the_input():
    rng = random.Random(9)
    for _ in range(10):
        g = random_path_window(rng)
        m = random_perfect_matching(g, rng)
        assert m is not None
        tr = OrientedTwoRegular.from_graph(g)
        res = transfer_matching(tr, m, 1)
        assert res.excluded == ()
        got = {(x, y) for x, y in res.matching.items()}
        assert {frozenset(e) for e in got} == {frozenset(e) for e in m}


def test_transfer_rightward_hand_simulation():
    g = line_window(16)
    tr = OrientedTwoRegular.from_graph(g)
    m = {(k, k + 1) for k in range(0, 16, 2)}
    res = transfer_matching(tr, m, 2)
    assert sorted(res.excluded) == [0, 14]
    assert res.matching == {x: x + 1 for x in range(2, 14, 2)}
    assert set(res.directions(tr).values()) == {1}


def test_transfer_leftward_hand_simulation():
    g = line_window(16)
    tr = OrientedTwoRegular.from_graph(g)
    m = {(k, k - 1) for k in range(2, 16, 2)}
    res = transfer_matching(tr, m, 2)
    # 0 and 15 are unmatched, so balls touching them drop out too
    assert sorted(res.excluded) == [0, 2, 14]
    assert res.matching == {x: x - 1 for x in range(4, 14, 2)}
    assert set(res.directions(tr).values()) == {-1}


def test_transfer_is_direction_consistent_for_all_matchings():
    g = line_window(10)
    tr = OrientedTwoRegular.from_graph(g)
    for n in (2, 3):
        gn = odd_path_graph(tr, n)
        count = 0
        for m in all_perfect_matchings(gn):
            res = transfer_matching(tr, m, n)
            dirs = set(res.directions(tr).values())
            assert len(dirs) <= 1
            count += 1
        assert count > 1


def test_transfer_rejects_non_edges():
    g = line_window(8)
    tr = OrientedTwoRegular.from_graph(g)
    with pytest.raises(InvalidMatchingError):
        transfer_matching(tr, {(0, 5)}, 2)


@pytest.fixture(scope="module")
def quad_setup():
    s = standard_generators()
    w = expand_window("f2", (), s, 6, 4)
    dg = DoublingGraph(w, square_set(s), 4)
    partner = interior_saturating_matching(dg)
    ts = triple_system_from_matching(dg, partner)
    return s, w, dg, partner, ts


def test_triple_system_reads_off_matching(quad_setup):
    s, w, dg, partner, ts = quad_setup
    n = dg.n_points
    assert len(ts.maps) == 3
    for i, f in enumerate(ts.maps):
        for x, y in f.items():
            assert partner[(i + 1) * n + x] == y
    pred = ts.validate()
    for p in w.interior_indices():
        assert p in pred


def test_triple_system_needs_four_copies(quad_setup):
    s, w, dg, partner, ts = quad_setup
    dg3 = DoublingGraph(w, square_set(s), 3)
    with pytest.raises(ValueError):
        triple_system_from_matching(dg3, {})


def test_predecessors_reject_range_overlap():
    ts = TripleFunctionSystem(
        maps=({0: 1}, {2: 1}, {}), n_points=3, interior=(False,) * 3
    )
    with pytest.raises(HypothesisFailedError, match="ranges overlap"):
        ts.validate()


def test_validate_rejects_non_injective_map():
    ts = TripleFunctionSystem(
        maps=({0: 2, 1: 2}, {}, {}), n_points=3, interior=(False,) * 3
    )
    with pytest.raises(HypothesisFailedError, match="map not injective"):
        ts.validate()


def test_surgery_on_planted_cycles():
    for cycle_len in (1, 2, 3, 5):
        ts = planted_cycle_system(cycle_len, 6, random.Random(cycle_len))
        fw = forest_from_paradox(ts)
        assert forest_is_acyclic(fw)
        assert fw.stats["cycles"] == {str(cycle_len): 1}
        assert fw.stats["kept"] == fw.stats["components"]
        assert all(fw.present)
        # the cut degree deficit is pushed off the cycle, not left on it
        for v in range(cycle_len):
            assert len(fw.adjacency[v]) == 4
        assert max(len(fw.adjacency[v]) for v in range(fw.n_points())) <= 4


def test_surgery_keeps_cycle_free_components_unchanged():
    ts = source_tree_system(4)
    fw = forest_from_paradox(ts)
    assert forest_is_acyclic(fw)
    assert fw.stats["cycle_free"] == 1
    assert fw.stats["cycles"] == {}
    expected = set()
    for f in ts.maps:
        for x, y in f.items():
            expected.add(frozenset((x, y)))
    got = {
        frozenset((u, v))
        for u in range(fw.n_points())
        for v in fw.adjacency[u]
        if u < v
    }
    assert got == expected


def test_surgery_drops_components_with_outside_cycles():
    # chain 0 -> 1 -> 2 dies at a non-interior point, plus one bare point
    ts = TripleFunctionSystem(
        maps=({0: 1, 1: 2}, {}, {}), n_points=4, interior=(False,) * 4
    )
    fw = forest_from_paradox(ts)
    assert fw.stats["truncated"] == 1
    assert fw.stats["isolated"] == 1
    assert fw.stats["kept"] == 0
    assert not any(fw.present)
    assert all(len(fw.adjacency[v]) == 0 for v in range(4))


def _window_system(kind, base, radius):
    s = standard_generators()
    s2 = square_set(s)
    w = expand_window(kind, base, s, radius, 4, s2.radius)
    dg = DoublingGraph(w, s2, 4)
    return triple_system_from_matching(dg, interior_saturating_matching(dg))


def test_surgery_agrees_with_edge_set_oracle_on_synthetic_systems():
    systems = [
        planted_cycle_system(cycle_len, 5, random.Random(seed))
        for cycle_len in range(1, 7)
        for seed in range(3)
    ]
    systems.append(source_tree_system(4))
    systems.append(
        TripleFunctionSystem(
            maps=({0: 1, 1: 2}, {}, {}), n_points=4, interior=(False,) * 4
        )
    )
    for ts in systems:
        assert forest_from_paradox(ts) == edge_set_forest_from_paradox(ts)


@st.composite
def triple_systems(draw):
    """Random triple systems of at most 40 points.

    Each point's predecessor is one unused (map, point) slot or none, so the
    maps are injective with disjoint ranges.  Points are entered in a drawn
    order, so a labelling walk may start anywhere in its component.
    """
    n = draw(st.integers(1, 40))
    slots = draw(st.permutations([(i, x) for i in range(3) for x in range(n)]))
    has_pred = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    maps: tuple = ({}, {}, {})
    for y in draw(st.permutations(range(n))):
        if has_pred[y]:
            i, x = slots[y]
            maps[i][x] = y
    interior = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return TripleFunctionSystem(maps=maps, n_points=n, interior=tuple(interior))


# cycles of length 1 (at 0), 2 (3, 4) and 3 (6, 7, 8), each with first-map
# subtrees at the points its surgery steals from (1, 2, 5, 9, 16, 20), so a
# steal started on the wrong map moves a different edge; the tree
# 12 -> 10 -> 11 -> 13 is entered at 11, below its least member 10, and kept
# for its interior root; the tree 14 -> 15 is dropped
_SHAPES = TripleFunctionSystem(
    maps=(
        {
            11: 13, 0: 1, 4: 3, 6: 7, 8: 9, 16: 17,
            9: 18, 5: 19, 3: 20, 20: 21, 2: 22, 1: 23,
        },
        {0: 0, 4: 5, 7: 8, 10: 11, 6: 16},
        {0: 2, 3: 4, 8: 6, 12: 10, 14: 15},
    ),
    n_points=24,
    interior=tuple(p not in (14, 15) for p in range(24)),
)


@example(_SHAPES)
@given(triple_systems())
def test_surgery_agrees_with_edge_set_oracle_on_random_systems(ts):
    assert forest_from_paradox(ts) == edge_set_forest_from_paradox(ts)


def test_the_shapes_example_holds_every_component_kind():
    fw = forest_from_paradox(_SHAPES)
    assert fw.stats["cycles"] == {"1": 1, "2": 1, "3": 1}
    assert (fw.stats["cycle_free"], fw.stats["truncated"]) == (1, 1)


_SURGERY_WINDOWS = [
    (kind, base, radius)
    for kind, base in (("f2", ""), ("f2", "ab"), ("f2", "Ba"), ("sphere", None))
    for radius in (6, 7, 8)
] + [("sphere", None, 10), ("f2", "ab", 10)]


@pytest.mark.parametrize("kind,base,radius", _SURGERY_WINDOWS)
def test_surgery_agrees_with_edge_set_oracle_on_windows(kind, base, radius):
    ts = _window_system(kind, base, radius)
    fw = forest_from_paradox(ts)
    assert fw == edge_set_forest_from_paradox(ts)
    assert fw.stats["kept"] > 0


@pytest.mark.parametrize("kind,radius", [("f2", 6), ("sphere", 5)])
def test_surgery_accounts_for_every_point(kind, radius):
    s = standard_generators()
    w = expand_window(kind, None, s, radius, 4)
    dg = DoublingGraph(w, square_set(s), 4)
    ts = triple_system_from_matching(dg, interior_saturating_matching(dg))
    fw = forest_from_paradox(ts)
    st = fw.stats
    assert st["components"] == st["kept"] + st["truncated"] + st["isolated"]
    touched = {p for f in ts.maps for item in f.items() for p in item}
    untouched = [p for p in range(fw.n_points()) if p not in touched]
    assert len(untouched) == st["isolated"] > 0
    for p in untouched:
        assert not fw.present[p] and not fw.interior[p]
        assert fw.adjacency[p] == ()


def test_forest_obj_roundtrip():
    ts = planted_cycle_system(3, 4, random.Random(0))
    fw = forest_from_paradox(ts)
    back = forest_from_obj(fw.to_obj())
    assert back == fw


def test_forest_reader_takes_a_doubled_star_in_linear_time():
    # every leaf edge twice, the repeat from the hub's side, so a repeat
    # found by scanning the hub's list would cost 20,000 steps each
    n = 20_001
    leaves = range(1, n)
    doc = {
        "n_points": n,
        "edges": [[v, 0] for v in leaves] + [[0, v] for v in leaves],
        "interior": [0] * n,
        "present": [1] * n,
    }
    t0 = time.perf_counter()
    fw = forest_from_obj(doc)
    assert time.perf_counter() - t0 < 2
    assert fw.adjacency[0] == tuple(leaves)
    assert all(fw.adjacency[v] == (0,) for v in leaves)

    doc["edges"].insert(n // 2, [1, 2])
    t0 = time.perf_counter()
    with pytest.raises(ForestFormatError, match="closes a cycle") as ei:
        forest_from_obj(doc)
    assert time.perf_counter() - t0 < 2
    assert ei.value.code == "BAD_FOREST"


def test_forest_is_acyclic_detects_cycles():
    fw = ForestWindow(
        adjacency=((1, 2), (0, 2), (0, 1)),
        interior=(False,) * 3,
        present=(True,) * 3,
        labels=None,
        stats={},
    )
    assert not forest_is_acyclic(fw)


def test_forest_edges_from_matching_are_lipschitz(quad_setup):
    s, w, dg, partner, ts = quad_setup
    fw = forest_from_paradox(ts)
    assert forest_is_acyclic(fw)
    assert fw.labels == w.words
    bound = 2 * square_set(s).radius
    for u in range(fw.n_points()):
        for v in fw.adjacency[u]:
            if u < v:
                gamma = mul(fw.labels[v], inv(fw.labels[u]))
                assert len(gamma) <= bound


@pytest.fixture(scope="module")
def action_setup():
    forest = synthetic_forest(random.Random(5))
    res = f2_action_from_forest(forest, 1)
    return forest, res


def test_action_rejects_negative_stages():
    forest = synthetic_forest(random.Random(5))
    with pytest.raises(ValueError):
        f2_action_from_forest(forest, -1)


def test_action_covers_with_four_distinct_neighbors(action_setup):
    forest, res = action_setup
    eligible = {
        p
        for p in range(forest.n_points())
        if forest.present[p] and forest.interior[p] and len(forest.adjacency[p]) == 4
    }
    assert res.eligible == len(eligible)
    assert res.covered <= eligible
    assert 0 < len(res.covered) <= res.eligible
    for x in res.covered:
        values = [res.maps[i][x] for i in (-2, -1, 1, 2)]
        assert len(set(values)) == 4
        assert set(values) == set(forest.adjacency[x])


def test_action_maps_are_mutually_inverse_on_domain(action_setup):
    forest, res = action_setup
    for i in (-2, -1, 1, 2):
        for x, y in res.maps[i].items():
            if y in res.covered:
                assert res.maps[-i][y] == x


def test_action_stage_ledger(action_setup):
    forest, res = action_setup
    assert [st.n for st in res.stages] == [0, 1]
    assert res.stages[0].domain <= res.stages[1].domain
    assert res.stages[1].domain == res.covered
    for audit in res.audits:
        assert audit["g8_diameter"] <= audit["g8_bound"]


def test_action_is_free_up_to_length_six(action_setup):
    forest, res = action_setup
    assert free_word_violation(res.maps, 6) is None


def test_action_is_deterministic():
    forest = synthetic_forest(random.Random(11))
    a = f2_action_from_forest(forest, 0)
    b = f2_action_from_forest(forest, 0)
    assert a.as_obj() == b.as_obj()


def test_stage_audits_search_each_domain_point_once(monkeypatch):
    searched = {4: [], 8: []}
    real = treedyn.bfs_distances

    def counting(neighbors, sources, bound=None):
        if bound in searched:
            searched[bound].append(tuple(sources))
        return real(neighbors, sources, bound)

    for seed in range(100):  # the forests of acceptance criterion 8
        fw = synthetic_forest(random.Random(seed))
        for found in searched.values():
            found.clear()
        with monkeypatch.context() as m:
            m.setattr(treedyn, "bfs_distances", counting)
            res = f2_action_from_forest(fw, 1)
        assert sorted(searched[4]) == sorted((x,) for x in res.covered)
        assert searched[8] == []
        fresh = [
            treedyn._stage_audit(fw, set(st.domain), st.n, {}, {}) for st in res.stages
        ]
        assert res.audits == fresh


def _audit_growing_domains(fw, domains) -> dict:
    """Audit the domains at stages 0, 1, ...; check results and pairs."""
    near: dict = {}
    index: dict = {}
    for stage, domain in enumerate(domains):
        got = treedyn._stage_audit(fw, domain, stage, near, index)
        assert got == rescan_stage_audit(fw, domain, stage)
        assert_near_is_rescan(fw, domain, near)
    return near


def assert_near_is_rescan(fw, domain, near):
    """The audit's kept pairs are those of full searches from the domain."""
    want = rescan_pairs(fw, domain)
    assert {x: set(met.items()) for x, met in near.items()} == {
        x: set(met) for x, met in want.items()
    }


@pytest.mark.parametrize("kind,base", [("f2", ()), ("sphere", (0, 1, 0, 0))])
def test_stage_audits_on_dense_domains_match_rescans(kind, base):
    # every eligible point, then every present interior point, then every
    # present point of a radius-8 paradox forest; its components are small,
    # so every audit passes
    fw = forest_from_paradox(_window_system(kind, base, 8))
    present = {p for p in range(fw.n_points()) if fw.present[p]}
    interior = {p for p in present if fw.interior[p]}
    eligible = {p for p in interior if len(fw.adjacency[p]) == 4}
    near = _audit_growing_domains(fw, (eligible, interior, present))
    assert any(near.values())
    # the action's own stage domains
    res = f2_action_from_forest(fw, 2)
    assert [st.n for st in res.stages] == [0, 1, 2]
    for done, audit in zip(res.stages, res.audits):
        assert audit == rescan_stage_audit(fw, set(done.domain), done.n)


def test_stage_audit_pairs_reach_distance_eight_on_synthetic_forests():
    # a deep forest has pairs at every distance up to 8, which only balls
    # of radius 4 at both ends find; the domains are growing balls around
    # a spine point
    for seed in range(3):
        fw = synthetic_forest(random.Random(seed))
        ball = bfs_distances(fw.adjacency, (seed,), 14)
        domains = [{p for p, d in ball.items() if d <= r} for r in (4, 9, 14)]
        near = _audit_growing_domains(fw, domains)
        assert {d for met in near.values() for d in met.values()} == set(range(1, 9))


def bare_forest(adjacency) -> ForestWindow:
    """A window that holds only its edges; every point present and interior."""
    adjacency = tuple(adjacency)
    n = len(adjacency)
    return ForestWindow(
        adjacency=adjacency,
        interior=(True,) * n,
        present=(True,) * n,
        labels=None,
        stats={},
    )


@st.composite
def trees_with_growing_domains(draw):
    n = draw(st.integers(1, 40))
    nbrs = [[] for _ in range(n)]
    for v in range(1, n):
        u = draw(st.integers(max(0, v - 3), v - 1))
        nbrs[u].append(v)
        nbrs[v].append(u)
    fw = bare_forest(tuple(sorted(ns)) for ns in nbrs)

    def points():
        # a scattered set, or a ball, which is connected and may be wide
        if draw(st.booleans()):
            return draw(st.sets(st.integers(0, n - 1), max_size=n))
        ball = bfs_distances(nbrs, (draw(st.integers(0, n - 1)),))
        r = draw(st.integers(0, 12))
        return {y for y, d in ball.items() if d <= r}

    domains = [points()]
    for _ in range(2):
        domains.append(domains[-1] | points())
    stages = draw(st.lists(st.integers(0, 2), min_size=3, max_size=3))
    return fw, list(zip(stages, domains))


def _audit_or_error(audit):
    try:
        return audit()
    except HypothesisFailedError as e:
        return e.message, e.details


@given(trees_with_growing_domains())
def test_stage_audits_sharing_searches_match_rescans(case):
    fw, audits = case
    near: dict = {}
    index: dict = {}
    for stage, domain in audits:
        got = _audit_or_error(
            lambda: treedyn._stage_audit(fw, domain, stage, near, index)
        )
        assert got == _audit_or_error(lambda: rescan_stage_audit(fw, domain, stage))
        # a failing audit has kept its pairs before it raises
        assert_near_is_rescan(fw, domain, near)
        if not isinstance(got, dict):
            break


def test_stage_audit_names_the_pair_its_search_meets_first():
    # 0 is searched at the first audit; 4 and 5 join later, 5 nearer to 0
    # but searched after 4, so the kept lists meet them in the other order
    fw = bare_forest([(1, 2), (0, 5), (0, 3), (2, 4), (3,), (1,)])
    near: dict = {}
    index: dict = {}
    assert treedyn._stage_audit(fw, {0}, 0, near, index) == rescan_stage_audit(
        fw, {0}, 0
    )
    with pytest.raises(HypothesisFailedError, match="separate pieces") as ei:
        treedyn._stage_audit(fw, {0, 4, 5}, 1, near, index)
    assert ei.value.details == {"stage": 1, "pair": [0, 5]}
    with pytest.raises(HypothesisFailedError) as oracle:
        rescan_stage_audit(fw, {0, 4, 5}, 1)
    assert oracle.value.details == ei.value.details


def test_free_word_violation_finds_short_relations():
    maps = {
        1: {0: 1, 1: 0},
        -1: {1: 0, 0: 1},
        2: {},
        -2: {},
    }
    hit = free_word_violation(maps, 6)
    assert hit is not None
    point, word = hit
    assert 0 < len(word) <= 6
    cur = point
    for i in word:
        cur = maps[i][cur]
    assert cur == point
