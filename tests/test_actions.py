import json
import random

import pytest

from paradecomp import actions, cli

from paradecomp.actions import (
    DoublingGraph,
    expand_window,
    interior_expansion_audit,
    interior_saturating_matching,
    square_set,
    standard_generators,
    unmatched_boundary_stats,
    GeneratingSet,
)
from paradecomp.matching import hopcroft_karp
from paradecomp.errors import (
    BadCapError,
    FixedBaseError,
    FreeActionViolationError,
    InvariantError,
    MarginTooSmallError,
    NotPerfectOnInteriorError,
)
from paradecomp.words import iter_reduced, mul, word_key
from paradecomp.rotations import BASE_POINT, apply_to_point, word_rotation

from oracles import (
    apply_images,
    bfs_window,
    brute_doubled_expansion,
    lifted_neighbors,
    pointwise_window,
    recursive_hopcroft_karp,
    record_oracle_calls,
    record_side_levels,
    scan_unmatched_boundary,
)


def ball_size(r: int) -> int:
    # free group on two generators: 1 + 4 + 12 + ... = 1 + 2*(3^r - 1)
    return 1 + 2 * (3**r - 1)


def test_standard_generators_shape():
    s = standard_generators()
    assert s.elements == ("", "a", "A", "b", "B")
    assert s.radius == 1
    s2 = square_set(s)
    assert len(s2.elements) == ball_size(2)
    assert s2.elements[0] == ""
    assert s2.radius == 2
    assert list(s2.elements) == sorted(s2.elements, key=word_key)


@pytest.mark.parametrize("radius", [1, 2])
def test_square_set_is_the_set_of_pairwise_products(radius):
    # the reference: S^2 as every pairwise product, in shortlex order
    s = GeneratingSet(radius)
    prods = {mul(u, v) for u in s.elements for v in s.elements}
    assert square_set(s).elements == tuple(sorted(prods, key=word_key))


def test_generating_set_needs_a_positive_radius():
    with pytest.raises(ValueError):
        GeneratingSet(0)


def _window_cases():
    rng = random.Random(20260816)
    reduced = list(iter_reduced(5))[1:]
    bases = [""] + rng.sample(reduced, 3)
    s = standard_generators()
    s2 = square_set(s)
    # S^2 steps two letters at a time, so its radii stop at word length 8
    for name, gens, radii in (("S", s, range(1, 7)), ("S2", s2, range(1, 5))):
        for base in bases:
            yield pytest.param("f2", base, gens, radii, id=f"f2-{base or 'e'}-{name}")
        for base, tag in ((BASE_POINT, ""), ((0, 3, 4, 1), "0341-")):
            yield pytest.param("sphere", base, gens, radii, id=f"sphere-{tag}{name}")


@pytest.mark.parametrize("kind,base,gens,radii", _window_cases())
def test_expand_window_matches_bfs_oracle(kind, base, gens, radii):
    with pytest.raises(ValueError):
        expand_window(kind, base, gens, 0, 0)
    for r in radii:
        w = expand_window(kind, base, gens, r, 0)
        got = (w.words, w.dist, w.coords, w.base_index)
        assert got == bfs_window(kind, base, gens.nonidentity(), r)


def test_sphere_window_normalizes_its_base():
    s = standard_generators()
    w = expand_window("sphere", (0, 5, 0, 1), s, 4, 1)
    assert w.coords == expand_window("sphere", BASE_POINT, s, 4, 1).coords


def test_sphere_window_refuses_a_base_with_a_stabilizer():
    base = (3, 4, 0, 1)  # a.x for x on the a-axis, so aBA and abA fix it
    assert apply_to_point(word_rotation("aBA"), base) == base
    s = standard_generators()
    with pytest.raises(FreeActionViolationError):
        expand_window("sphere", base, s, 4, 1)


def test_f2_window_sizes_and_order():
    s = standard_generators()
    for r in (2, 3, 5):
        w = expand_window("f2", (), s, r, 1)
        assert w.n_points() == ball_size(r)
        assert w.words == tuple(sorted(w.words, key=word_key))
        assert w.base_index == 0
        assert len(w.interior_indices()) == ball_size(r - 1)
        assert list(w.interior_indices(1)) == list(range(ball_size(r - 2)))


def test_f2_window_distances_are_word_lengths():
    s = standard_generators()
    w = expand_window("f2", (), s, 4, 1)
    for i in range(w.n_points()):
        assert w.dist[i] == len(w.words[i])


def test_window_apply_respects_group_multiplication():
    s = standard_generators()
    w = expand_window("f2", (), s, 4, 1)
    i = w.index_of_word("ab")
    assert w.words[w.apply("a", i)] == "aab"
    assert w.words[w.apply("A", i)] == "b"
    # falling off the rim gives None
    rim = w.index_of_word("a" * 4)
    assert w.apply("a", rim) is None


def test_sphere_window_is_free_copy_of_f2():
    s = standard_generators()
    wf = expand_window("f2", (), s, 4, 1)
    ws = expand_window("sphere", BASE_POINT, s, 4, 1)
    # freeness at (0,1,0): same ball sizes, same canonical word labels
    assert ws.n_points() == wf.n_points()
    assert ws.words == wf.words
    assert len(set(ws.coords)) == ws.n_points()


# a certified base away from the default: no generator fixes it, and the
# radius-8 ball around it has distinct points
OTHER_BASE = (3, 0, 4, 1)


@pytest.mark.parametrize("base", [BASE_POINT, OTHER_BASE], ids=["default", "other"])
def test_letter_tables_agree_with_the_rotations(base):
    # the tables move points by word; the rotations move their coordinates
    s = standard_generators()
    for gens, reach in ((s, None), (square_set(s), 2)):
        w = expand_window("sphere", base, s, 8, 4, reach)
        index = {p: i for i, p in enumerate(w.coords)}
        assert len(index) == w.n_points()
        for gamma in gens.nonidentity():
            rot = word_rotation(gamma)
            for i, p in enumerate(w.coords):
                assert w.apply(gamma, i) == index.get(apply_to_point(rot, p))


@pytest.mark.parametrize("base", [None, "3,0,4,1"])
@pytest.mark.parametrize("radius", [8, 10])
def test_sphere_pieces_and_certificate_are_those_of_f2(capsys, base, radius):
    flags = ["--radius", str(radius), "--margin", "4"]
    sphere = ["paradox", "--kind", "sphere", *flags]
    if base is not None:
        sphere += ["--base", base]
    got = []
    for argv in (sphere, ["paradox", "--kind", "f2", *flags]):
        assert cli.main(argv) == 0
        got.append(json.loads(capsys.readouterr().out))
    for key in ("pieces", "certificate", "boundary"):
        assert got[0][key] == got[1][key], key


@pytest.mark.parametrize("base", ["0,1,0", "0,3,4,1"])
def test_sphere_commands_on_a_certified_base_move_no_point(
    monkeypatch, tmp_path, capsys, base
):
    # the orbit certificate stands in for the coordinates' collision search
    def refuse(rot):
        raise AssertionError(f"point_mover({rot!r}) called")

    monkeypatch.setattr(actions, "point_mover", refuse)
    src = str(tmp_path / "paradox.json")
    flags = ["--kind", "sphere", "--radius", "6", "--base", base]
    for argv in (
        ["demo", *flags],
        ["paradox", *flags, "--out", src],
        ["forest", "--from", src],
    ):
        assert cli.main(argv) == 0, capsys.readouterr().out
        capsys.readouterr()


def test_certified_sphere_window_computes_coords_on_first_read():
    s = standard_generators()
    w = expand_window("sphere", (0, 3, 4, 1), s, 5, 2)
    assert "coords" not in vars(w)
    assert w.base == (0, 3, 4, 1)
    _, _, coords, _ = bfs_window("sphere", (0, 3, 4, 1), s.nonidentity(), 5)
    assert w.coords == coords
    assert "coords" in vars(w)
    assert w.coords[w.base_index] == w.base


def test_sphere_window_rejects_fixed_base():
    s = standard_generators()
    # (0,0,1) is on the a-axis, a fixes it
    with pytest.raises(FixedBaseError):
        expand_window("sphere", (0, 0, 1, 0), s, 3, 1)


def test_doubling_graph_shape():
    s = standard_generators()
    w = expand_window("f2", (), s, 3, 1)
    s2 = square_set(s)
    dg = DoublingGraph(w, s2, 3)
    n = w.n_points()
    assert dg.n_vertices() == 3 * n
    # interior side-0 vertex sees all of S^2 in both copies, all on side 1
    i = w.base_index
    assert len(dg.neighbors(i)) == 2 * len(s2.elements)
    assert min(dg.neighbors(i)) >= n
    # vertical edge from the identity element in S^2
    assert n + i in dg.neighbors(i)
    for vid in dg.neighbors(i):
        assert i in dg.neighbors(vid)


# f2 windows away from the identity have renumbered tables; (0, 0, 1) is
# fixed by a, so the second sphere base is (0, 3/5, 4/5)
ADJACENCY_WINDOWS = [
    ("f2", ""),
    ("f2", "ab"),
    ("f2", "Ba"),
    ("sphere", (0, 1, 0, 0)),
    ("sphere", (0, 3, 4, 1)),
]


@pytest.mark.parametrize("kind, base", ADJACENCY_WINDOWS)
@pytest.mark.parametrize("squared, copies", [(False, 3), (True, 4)], ids=["S", "S2"])
def test_doubling_adjacency_matches_the_apply_oracle(kind, base, squared, copies):
    s = standard_generators()
    t = square_set(s) if squared else s
    w = expand_window(kind, base, s, 5, 2, t.radius)
    dg = DoublingGraph(w, t, copies)
    n, interior = w.n_points(), w.interior_indices()
    lists = {}
    for i in interior:
        images = apply_images(w, t, i)
        assert dg.images(i) == images
        want = lists[i] = lifted_neighbors(n, copies, images)
        view = dg.neighbors(i)
        assert list(view) == want and list(view) == want
        assert len(view) == len(want)
        for c in range(1, copies):
            assert dg.neighbors(c * n + i) == images
    got = hopcroft_karp(interior, dg.neighbors, [None] * dg.n_vertices())
    want = hopcroft_karp(interior, lists.get, [None] * dg.n_vertices())
    assert list(got.items()) == list(want.items())


@pytest.mark.parametrize("kind, base", ADJACENCY_WINDOWS)
@pytest.mark.parametrize("squared", [False, True], ids=["S", "S2"])
def test_images_match_the_apply_oracle_at_every_point(kind, base, squared):
    # boundary points too: window --out reads them through to_bipartite
    s = standard_generators()
    t = square_set(s) if squared else s
    w = expand_window(kind, base, s, 5, 2, t.radius)
    dg = DoublingGraph(w, t, 3)
    for i in range(w.n_points()):
        assert dg.images(i) == apply_images(w, t, i)


@pytest.mark.parametrize("kind, base", ADJACENCY_WINDOWS)
@pytest.mark.parametrize("reach", [None, 1, 2])
@pytest.mark.parametrize("squared", [False, True], ids=["S", "S2"])
def test_letter_tables_match_the_pointwise_oracle(kind, base, reach, squared):
    # the tables are filled a run of indices at a time: every entry counts
    s = standard_generators()
    gens = square_set(s) if squared else s
    radius, margin = (4, 3) if squared else (5, 3)
    w = expand_window(kind, base, gens, radius, margin, reach)
    held = radius if reach is None else min(radius, radius - margin + reach)
    words, tables, coords, base_index = pointwise_window(kind, base, held * gens.radius)
    assert w.words == words
    assert w.tables == tables
    assert w.coords == coords
    assert w.base_index == base_index


def test_hopcroft_karp_reiterates_lifted_views():
    # the greedy phase leaves point 4 free (n and 2n are taken), so a later
    # phase's BFS and augmenting search iterate the views again
    s = standard_generators()
    w = expand_window("f2", "", s, 3, 1)
    dg = DoublingGraph(w, s, 3)
    n = w.n_points()
    dg._im = {0: [0, 1], 1: [1, 2], 2: [1], 3: [0], 4: [0]}
    lists = {i: lifted_neighbors(n, 3, dg._im[i]) for i in dg._im}
    left = list(dg._im)
    got = hopcroft_karp(left, dg.neighbors, [None] * dg.n_vertices())
    want = hopcroft_karp(left, lists.get, [None] * dg.n_vertices())
    assert list(got.items()) == list(want.items())
    assert got == recursive_hopcroft_karp(left, lists.get)
    assert len(got) == 5


def test_expansion_audit_passes_and_prunes(monkeypatch):
    s = standard_generators()
    w = expand_window("f2", (), s, 6, 4)
    dg = DoublingGraph(w, square_set(s), 3)
    reads = record_oracle_calls(dg)
    _, levels = record_side_levels(monkeypatch)
    rep = interior_expansion_audit(dg, size_cap=6)
    assert rep.satisfied and rep.witness is None
    # every interior vid of both sides is read once; each singleton already
    # clears ratio * size_cap neighbors, so no set is grown
    interior, n = list(w.interior_indices()), w.n_points()
    assert sorted(reads) == interior + [c * n + i for c in (1, 2) for i in interior]
    assert levels == []


@pytest.mark.parametrize("cap", [5, 6])
def test_expansion_audit_reports_the_least_violator(cap):
    # over S rather than S^2 a side-1 vertex has only 5 neighbors: both copies
    # of {e, a, b} reach 11 < 12 points, while no set of 5 falls short
    s = standard_generators()
    w = expand_window("f2", (), s, 5, 4)
    dg = DoublingGraph(w, s, 3)
    rep = interior_expansion_audit(dg, size_cap=cap)
    want = brute_doubled_expansion(dg, cap)
    assert rep.satisfied == (want is None) == (cap == 5)
    if want is not None:
        wit = rep.witness
        assert (wit.side, wit.f_set, wit.required, wit.actual) == want
        assert (wit.side, len(wit.f_set), wit.actual) == (1, 6, 11)


def test_expansion_audit_needs_margin():
    # the search reads interior vids' neighbors, one dg.s-step out: margin maxlen
    s = standard_generators()
    for gens, need in ((s, 1), (square_set(s), 2)):
        dg = DoublingGraph(expand_window("f2", (), s, 6, need - 1), gens, 3)
        with pytest.raises(MarginTooSmallError) as ei:
            interior_expansion_audit(dg, size_cap=2)
        assert ei.value.details["required"] == need
        dg = DoublingGraph(expand_window("f2", (), s, 6, need), gens, 3)
        assert interior_expansion_audit(dg, size_cap=1).satisfied


def audit_by_word(interior_radius, gens, margin, cap):
    s = standard_generators()
    w = expand_window("f2", (), s, interior_radius + margin, margin)
    rep = interior_expansion_audit(DoublingGraph(w, gens, 3), size_cap=cap)
    if rep.witness is None:
        return rep.satisfied, None
    n, wit = w.n_points(), rep.witness
    f_set = [(v // n, w.words[v % n]) for v in wit.f_set]
    return rep.satisfied, (wit.side, f_set, wit.required, wit.actual)


@pytest.mark.parametrize("interior_radius", [3, 4])
@pytest.mark.parametrize("square", [False, True])
def test_expansion_audit_margin_one_step_equals_two(interior_radius, square):
    # past maxlen(dg.s) more margin adds points the search never reads
    s = standard_generators()
    gens = square_set(s) if square else s
    step = gens.radius
    for cap in (2, 4, 5, 6):
        assert audit_by_word(interior_radius, gens, step, cap) == audit_by_word(
            interior_radius, gens, 2 * step, cap
        )


def test_expansion_audit_refuses_caps_below_one():
    # the radius-5 window over S fails at cap 6; a cap below 1 checks nothing
    s = standard_generators()
    dg = DoublingGraph(expand_window("f2", (), s, 5, 4), s, 3)
    assert not interior_expansion_audit(dg, size_cap=6).satisfied
    for cap in (0, -1):
        with pytest.raises(BadCapError) as ei:
            interior_expansion_audit(dg, size_cap=cap)
        assert ei.value.details["size_cap"] == cap


def test_expansion_audit_rejects_four_copies():
    s = standard_generators()
    w = expand_window("f2", (), s, 6, 4)
    dg = DoublingGraph(w, square_set(s), 4)
    with pytest.raises(ValueError):
        interior_expansion_audit(dg, size_cap=2)


def test_interior_matching_saturates_interior_only():
    s = standard_generators()
    w = expand_window("f2", (), s, 6, 4)
    s2 = square_set(s)
    dg = DoublingGraph(w, s2, 4)
    m = interior_saturating_matching(dg)
    covered = set(m)
    n = dg.n_points
    for i in w.interior_indices():
        assert i in covered
        for c in range(1, 4):
            assert c * n + i in covered
    stats = unmatched_boundary_stats(dg, m)
    assert stats["unmatched_interior"] == 0
    assert stats["unmatched"] > 0  # finite windows never match fully
    assert stats["min_depth"] >= 0


def test_interior_matching_fails_without_margin():
    s = standard_generators()
    w = expand_window("f2", (), s, 3, 0)
    dg = DoublingGraph(w, square_set(s), 4)
    with pytest.raises(NotPerfectOnInteriorError):
        interior_saturating_matching(dg)


def test_partners_names_the_least_missed_interior_vertex():
    s = standard_generators()
    w = expand_window("f2", (), s, 4, 2)
    dg = DoublingGraph(w, s, 3)
    n = dg.n_points
    k1, k2 = w.interior_indices()[-2:]
    # copy 0 fully covered, copy 1 misses k1 and k2, copy 2 covers two points
    matching = {(i, n + i) for i in range(n) if i not in (k1, k2)}
    matching |= {(k1, 2 * n), (k2, 2 * n + 1)}
    with pytest.raises(NotPerfectOnInteriorError) as ei:
        dg.partners(matching)
    assert ei.value.details == {"vid": n + k1, "copy": 1, "point": w.words[k1]}
    with pytest.raises(InvariantError):
        dg.partners({(n, 2 * n)})


def test_partners_refuses_a_vertex_in_two_edges():
    s = standard_generators()
    w = expand_window("f2", (), s, 4, 2)
    dg = DoublingGraph(w, s, 3)
    n = dg.n_points
    m = interior_saturating_matching(dg)
    # the partner map is symmetric and pairs copy 0 with side 1
    assert all(m[v] == u and (u < n) != (v < n) for u, v in m.items())
    edges = sorted((u, v) for u, v in m.items() if u < n)
    assert dg.partners(edges) == m
    extra = (0, m[0] + 1)
    with pytest.raises(InvariantError) as ei:
        dg.partners(edges + [extra])
    assert ei.value.details == {"edge": list(extra)}


@pytest.mark.parametrize("kind", ["f2", "sphere"])
def test_boundary_stats_stop_at_the_first_unmatched_point(kind):
    s = standard_generators()
    for radius in range(6, 11):
        w = expand_window(kind, None, s, radius, 4)
        # the walk past the interior relies on points coming in depth order
        assert list(w.dist) == sorted(w.dist)
        dg = DoublingGraph(w, s, 3)
        m = interior_saturating_matching(dg)
        stats = unmatched_boundary_stats(dg, m)
        want = scan_unmatched_boundary(dg, m.items())
        assert (stats["unmatched"], stats["min_depth"]) == want


@pytest.mark.parametrize("base", ["ab", "Ba", "aab"])
def test_boundary_stats_on_windows_out_of_depth_order(base):
    # an f2 window based away from the identity lists points by label, so its
    # depths are not sorted; four copies over S^2 leave another boundary
    s = standard_generators()
    for radius, gens, copies in [(7, s, 3), (6, square_set(s), 4)]:
        w = expand_window("f2", base, s, radius, 4)
        assert list(w.dist) != sorted(w.dist)
        dg = DoublingGraph(w, gens, copies)
        m = interior_saturating_matching(dg)
        stats = unmatched_boundary_stats(dg, m)
        want = scan_unmatched_boundary(dg, m.items())
        assert (stats["unmatched"], stats["min_depth"]) == want
