import pytest

from paradecomp.actions import (
    DoublingGraph,
    expand_window,
    interior_saturating_matching,
    standard_generators,
    unmatched_boundary_stats,
)
from paradecomp.errors import NotPerfectOnInteriorError
from paradecomp.paradox import (
    classical_f2_decomposition,
    matching_to_paradox,
    paradox_to_matching,
    pieces_from_obj,
    verify_paradox,
)
from paradecomp.rotations import BASE_POINT
from paradecomp.words import mul

from oracles import is_interior


@pytest.fixture(scope="module")
def f2_setup():
    s = standard_generators()
    w = expand_window("f2", (), s, 6, 2)
    dg = DoublingGraph(w, s, 3)
    partner = interior_saturating_matching(dg)
    pd = matching_to_paradox(dg, partner)
    return s, w, dg, partner, pd


def test_pieces_partition_the_interior(f2_setup):
    s, w, dg, partner, pd = f2_setup
    keys_a = set(pd.pieces_a)
    keys_b = set(pd.pieces_b)
    assert not (keys_a & keys_b)
    assert keys_a | keys_b == set(w.interior_indices())
    for pieces in (pd.pieces_a, pd.pieces_b):
        for i, t in pieces.items():
            assert 0 <= t < len(s.elements)


def test_piece_translates_agree_with_matching(f2_setup):
    s, w, dg, partner, pd = f2_setup
    n = dg.n_points
    for pieces, copy in ((pd.pieces_a, 1), (pd.pieces_b, 2)):
        for i, t in pieces.items():
            j = w.apply(s.elements[t], i)
            assert partner[i] == copy * n + j


def test_verify_passes_on_extracted_pieces(f2_setup):
    s, w, dg, partner, pd = f2_setup
    cert = verify_paradox(pd, w)
    assert cert.status == "PASS"
    # reach of the generating set is 1, so deep means distance <= 6-2-1
    assert cert.deep_interior == len(w.interior_indices(1))
    assert cert.stats == pd.piece_sizes()
    assert cert.violation is None


def test_piece_sizes_total(f2_setup):
    _, _, _, _, pd = f2_setup
    sizes = pd.piece_sizes()
    assert sum(sizes["a"].values()) == len(pd.pieces_a)
    assert sum(sizes["b"].values()) == len(pd.pieces_b)


def test_unmatched_vertices_hug_the_boundary(f2_setup):
    s, w, dg, partner, _ = f2_setup
    stats = unmatched_boundary_stats(dg, partner)
    assert stats["unmatched_interior"] == 0
    assert stats["min_depth"] > w.radius - w.margin


def test_roundtrip_reconstructs_interior_matching(f2_setup):
    s, w, dg, partner, pd = f2_setup
    m2 = paradox_to_matching(pd, dg)
    assert all(partner[u] == v for u, v in m2)
    covered0 = {u for u, v in m2}
    assert set(w.interior_indices()) <= covered0


def test_as_obj_roundtrip(f2_setup):
    s, w, dg, partner, pd = f2_setup
    obj = pd.as_obj(w)
    back = pieces_from_obj(obj, w)
    assert back.gens.elements == pd.gens.elements
    assert back.pieces_a == pd.pieces_a
    assert back.pieces_b == pd.pieces_b


def test_pieces_from_obj_drops_out_of_window_points(f2_setup):
    s, w, dg, partner, pd = f2_setup
    obj = pd.as_obj(w)
    obj["pieces_a"] = obj["pieces_a"] + [["a" * 40, 0]]
    back = pieces_from_obj(obj, w)
    assert back.pieces_a == pd.pieces_a


def test_tampered_double_assignment_fails(f2_setup):
    s, w, dg, partner, pd = f2_setup
    from paradecomp.paradox import ParadoxicalDecomposition

    bad_b = dict(pd.pieces_b)
    base = w.base_index
    donor = base if base in pd.pieces_a else next(iter(pd.pieces_a))
    bad_b[donor] = pd.pieces_a[donor]
    bad = ParadoxicalDecomposition(pd.gens, pd.pieces_a, bad_b)
    cert = verify_paradox(bad, w)
    assert cert.status == "FAIL"
    assert cert.violation["kind"] == "point_in_both_tables"


def test_tampered_unassigned_deep_point_fails(f2_setup):
    s, w, dg, partner, pd = f2_setup
    from paradecomp.paradox import ParadoxicalDecomposition

    z = w.interior_indices(1)[0]
    a, b = dict(pd.pieces_a), dict(pd.pieces_b)
    (a if z in a else b).pop(z)
    bad = ParadoxicalDecomposition(pd.gens, a, b)
    cert = verify_paradox(bad, w)
    assert cert.status == "FAIL"
    assert cert.violation["kind"] in (
        "deep_point_unassigned",
        "coverage_a",
        "coverage_b",
    )


def test_tampered_translate_breaks_coverage(f2_setup):
    s, w, dg, partner, pd = f2_setup
    from paradecomp.paradox import ParadoxicalDecomposition

    a = dict(pd.pieces_a)
    i = sorted(a)[0]
    a[i] = (a[i] + 1) % len(s.elements)
    bad = ParadoxicalDecomposition(pd.gens, a, pd.pieces_b)
    cert = verify_paradox(bad, w)
    assert cert.status == "FAIL"
    assert cert.violation["kind"].startswith("coverage")


def test_matching_must_cover_interior(f2_setup):
    s, w, dg, partner, pd = f2_setup
    n = dg.n_points
    broken = {(u, v) for u, v in partner.items() if u < n}
    for e in sorted(broken):
        if is_interior(w, e[0] % n):
            broken.discard(e)
            break
    # the reader takes a partner map; dg.partners is what refuses the gap
    with pytest.raises(NotPerfectOnInteriorError):
        matching_to_paradox(dg, dg.partners(broken))


def test_piece_extraction_needs_three_copies():
    s = standard_generators()
    w = expand_window("f2", (), s, 3, 1)
    dg4 = DoublingGraph(w, s, 4)
    with pytest.raises(ValueError):
        matching_to_paradox(dg4, {})


def test_classical_oracle_passes_and_partitions():
    s = standard_generators()
    w = expand_window("f2", (), s, 6, 2)
    pd = classical_f2_decomposition(w)
    keys = set(pd.pieces_a) | set(pd.pieces_b)
    assert keys == set(range(w.n_points()))
    assert not (set(pd.pieces_a) & set(pd.pieces_b))
    # leading-letter classification, inverse powers absorbed
    assert pd.pieces_a[w.index_of_word("A")] == 0
    assert pd.pieces_a[w.index_of_word("AA")] == 0
    assert pd.pieces_a[w.index_of_word("Ab")] == s.elements.index("a")
    assert pd.pieces_a[w.index_of_word("a")] == 0
    assert pd.pieces_b[w.index_of_word("ba")] == 0
    assert pd.pieces_b[w.index_of_word("B")] == s.elements.index("b")
    cert = verify_paradox(pd, w)
    assert cert.status == "PASS"


@pytest.mark.parametrize("base", ["ab", "Ba", "bbA"])
@pytest.mark.parametrize("radius", [6, 8])
@pytest.mark.parametrize("reach", [None, 1])
def test_classical_oracle_passes_on_translated_windows(base, radius, reach):
    # the point g.base gets the piece the identity-based window gives g
    s = standard_generators()
    w = expand_window("f2", base, s, radius, 4, reach)
    home = expand_window("f2", "", s, radius, 4, reach)
    pd = classical_f2_decomposition(w)
    ref = classical_f2_decomposition(home)
    for got, want in ((pd.pieces_a, ref.pieces_a), (pd.pieces_b, ref.pieces_b)):
        moved = {mul(home.words[i], base): t for i, t in want.items()}
        assert {w.words[i]: t for i, t in got.items()} == moved
    assert verify_paradox(pd, w).status == "PASS"


def test_sphere_pipeline_matches_f2_behaviour():
    s = standard_generators()
    w = expand_window("sphere", BASE_POINT, s, 5, 2)
    dg = DoublingGraph(w, s, 3)
    partner = interior_saturating_matching(dg)
    pd = matching_to_paradox(dg, partner)
    cert = verify_paradox(pd, w)
    assert cert.status == "PASS"
    classical = classical_f2_decomposition(w)
    assert verify_paradox(classical, w).status == "PASS"
