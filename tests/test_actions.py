import random

import pytest

from paradecomp.actions import (
    build_doubling,
    expand_window,
    interior_expansion_audit,
    interior_saturating_matching,
    square_set,
    standard_generators,
    unmatched_boundary_stats,
    GeneratingSet,
)
from paradecomp.errors import (
    FixedBaseError,
    FreeActionViolationError,
    InvariantError,
    MarginTooSmallError,
    NotPerfectOnInteriorError,
)
from paradecomp.words import iter_reduced, word_key
from paradecomp.rotations import BASE_POINT, apply_to_point, word_rotation

from oracles import bfs_window


def ball_size(r: int) -> int:
    # free group on two generators: 1 + 4 + 12 + ... = 1 + 2*(3^r - 1)
    return 1 + 2 * (3**r - 1)


def test_standard_generators_shape():
    s = standard_generators()
    assert s.elements == ("", "a", "A", "b", "B")
    assert s.max_word_length() == 1
    s2 = square_set(s)
    assert len(s2.elements) == ball_size(2)
    assert s2.elements[0] == ""
    assert s2.max_word_length() == 2
    assert list(s2.elements) == sorted(s2.elements, key=word_key)


def test_generating_set_closes_under_inverse():
    s = GeneratingSet.from_words(["ab"])
    assert "BA" in s.elements
    assert s.elements[0] == ""


def test_expand_window_refuses_a_set_that_is_not_a_ball():
    s = GeneratingSet.from_words(["ab"])
    with pytest.raises(ValueError):
        expand_window("f2", (), s, 3, 1)
    with pytest.raises(ValueError):
        expand_window("sphere", BASE_POINT, s, 3, 1)


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
        yield pytest.param("sphere", BASE_POINT, gens, radii, id=f"sphere-{name}")


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
        assert w.interior_indices(1) == list(range(ball_size(r - 2)))


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


def test_sphere_window_rejects_fixed_base():
    s = standard_generators()
    # (0,0,1) is on the a-axis, a fixes it
    with pytest.raises(FixedBaseError):
        expand_window("sphere", (0, 0, 1, 0), s, 3, 1)


def test_doubling_graph_shape():
    s = standard_generators()
    w = expand_window("f2", (), s, 3, 1)
    s2 = square_set(s)
    dg = build_doubling(w, s2, 3)
    n = w.n_points()
    assert dg.n_vertices() == 3 * n
    assert dg.side(0) == 0 and dg.side(n) == 1
    # interior side-0 vertex sees all of S^2 in both copies
    i = w.base_index
    assert len(dg.neighbors(i)) == 2 * len(s2.elements)
    # vertical edge from the identity element in S^2
    assert n + i in dg.neighbors(i)
    for vid in dg.neighbors(i):
        assert i in dg.neighbors(vid)


def test_expansion_audit_passes_and_prunes():
    s = standard_generators()
    w = expand_window("f2", (), s, 6, 4)
    s2 = square_set(s)
    dg = build_doubling(w, s2, 3)
    rep = interior_expansion_audit(dg, s2, sample_cap=10**6, size_cap=6)
    assert rep.satisfied
    assert rep.stats["exhausted_side0"] and rep.stats["exhausted_side1"]
    # every interior singleton already clears 2 * size_cap neighbors
    assert rep.stats["pruned_side1"] == rep.stats["checked_side1"]


def test_expansion_audit_budget_reports_nonexhaustive():
    s = standard_generators()
    w = expand_window("f2", (), s, 6, 4)
    s2 = square_set(s)
    dg = build_doubling(w, s2, 3)
    rep = interior_expansion_audit(dg, s2, sample_cap=5, size_cap=6)
    assert rep.satisfied
    assert not rep.stats["exhausted_side1"]


def test_expansion_audit_needs_margin():
    s = standard_generators()
    w = expand_window("f2", (), s, 6, 1)
    s2 = square_set(s)
    dg = build_doubling(w, s2, 3)
    with pytest.raises(MarginTooSmallError):
        interior_expansion_audit(dg, s2, sample_cap=10, size_cap=2)


def test_expansion_audit_rejects_four_copies():
    s = standard_generators()
    w = expand_window("f2", (), s, 6, 4)
    dg = build_doubling(w, square_set(s), 4)
    with pytest.raises(ValueError):
        interior_expansion_audit(dg, square_set(s), sample_cap=10, size_cap=2)


def test_interior_matching_saturates_interior_only():
    s = standard_generators()
    w = expand_window("f2", (), s, 6, 4)
    s2 = square_set(s)
    dg = build_doubling(w, s2, 4)
    m = interior_saturating_matching(dg)
    covered = {v for e in m for v in e}
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
    dg = build_doubling(w, square_set(s), 4)
    with pytest.raises(NotPerfectOnInteriorError):
        interior_saturating_matching(dg)


def test_partners_names_the_least_missed_interior_vertex():
    s = standard_generators()
    w = expand_window("f2", (), s, 4, 2)
    dg = build_doubling(w, s, 3)
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
