"""Pieces are a function of the point, not of the window.

The paper's pieces are Baire measurable because each is settled by finite
information.  The finite analogue checked here: the paradox pieces on the
interior at radius r are the pieces at radius r+1, restricted.  Points are
compared by word label, so the two windows need not number them alike, and
the windows are held as the CLI holds them (reach 1 for paradox, 2 for
forest).  Where the property fails, the number of interior points at r that
keep their value at r+1 is pinned, so a matcher change that breaks it
further or mends it shows here.
"""

import pytest

from paradecomp.actions import (
    DoublingGraph,
    expand_window,
    interior_saturating_matching,
    square_set,
    standard_generators,
)
from paradecomp.paradox import matching_to_paradox
from paradecomp.treedyn import triple_system_from_matching

WINDOWS = [("f2", ""), ("f2", "ab"), ("f2", "Ba"), ("sphere", None)]
RADII = range(6, 11)  # r = 6..9, each against r + 1

# (kind, base, margin, r) -> interior points at r keeping their piece at
# r + 1, where that is not all of them: with an interior of radius 1, the
# f2 windows based away from the identity keep 2 of 5
PIECES_KEPT = {("f2", "ab", 5, 6): 2, ("f2", "Ba", 5, 6): 2}


def pieces_by_word(kind, base, radius, margin) -> dict:
    s = standard_generators()
    w = expand_window(kind, base, s, radius, margin, s.radius)
    dg = DoublingGraph(w, s, 3)
    pd = matching_to_paradox(dg, interior_saturating_matching(dg))
    out = {w.words[i]: ("a", t) for i, t in pd.pieces_a.items()}
    out.update((w.words[i], ("b", t)) for i, t in pd.pieces_b.items())
    assert sorted(out) == sorted(w.words[i] for i in w.interior_indices())
    return out


def triples_by_word(kind, base, radius, margin) -> dict:
    s = standard_generators()
    s2 = square_set(s)
    w = expand_window(kind, base, s, radius, margin, s2.radius)
    dg = DoublingGraph(w, s2, 4)
    ts = triple_system_from_matching(dg, interior_saturating_matching(dg))
    labels = ts.labels
    return {
        labels[x]: tuple(labels[f[x]] for f in ts.maps)
        for x in w.interior_indices()
    }


def kept_from_r_to_r_plus_one(read, kind, base, margin) -> dict:
    """{r: (interior points at r whose value is the same at r+1, all of them)}."""
    tables = {r: read(kind, base, r, margin) for r in RADII}
    out = {}
    for r in RADII[:-1]:
        small, large = tables[r], tables[r + 1]
        out[r] = (sum(large[k] == v for k, v in small.items()), len(small))
    return out


@pytest.mark.parametrize("margin", [4, 5])
@pytest.mark.parametrize("kind,base", WINDOWS)
def test_pieces_restrict_from_r_plus_one_to_r(kind, base, margin):
    kept = kept_from_r_to_r_plus_one(pieces_by_word, kind, base, margin)
    want = {
        r: (PIECES_KEPT.get((kind, base, margin, r), total), total)
        for r, (_, total) in kept.items()
    }
    assert kept == want


@pytest.mark.parametrize("margin", [4, 5])
@pytest.mark.parametrize("kind,base", WINDOWS)
def test_forest_triples_change_with_the_parity_of_r(kind, base, margin):
    # the 4-copy matching over S^2 is not local: every interior point's
    # triple (f_0, f_1, f_2) at r differs from the one at r + 1, and r and
    # r + 2 agree on part of the interior only
    kept = kept_from_r_to_r_plus_one(triples_by_word, kind, base, margin)
    assert kept == {r: (0, total) for r, (_, total) in kept.items()}
