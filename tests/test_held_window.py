"""Held windows give the same answers as the whole ball.

demo and paradox translate interior points by S, forest by S^2, so their
windows hold only the points within radius - margin + 1 (or + 2) of the
base.  The references below expand the whole ball (no reach) and run the
same pipeline on it; the held side runs through the CLI.
"""

import json

import pytest

from paradecomp import cli
from paradecomp.actions import (
    DoublingGraph,
    expand_window,
    interior_saturating_matching,
    square_set,
    standard_generators,
    unmatched_boundary_stats,
)
from paradecomp.paradox import matching_to_paradox, verify_paradox
from paradecomp.treedyn import forest_from_paradox, triple_system_from_matching

WINDOWS = [("f2", ""), ("f2", "ab"), ("f2", "Ba"), ("sphere", None)]
SIZES = [(r, m) for r in range(5, 11) for m in (4, 5) if r > m]


def window_flags(kind, base, radius, margin) -> list:
    flags = ["--kind", kind, "--radius", str(radius), "--margin", str(margin)]
    return flags if base is None else [*flags, "--base", base]


def run(capsys, argv) -> dict:
    assert cli.main(argv) == 0
    return json.loads(capsys.readouterr().out)


def paradox_on(w) -> dict:
    s = standard_generators()
    dg = DoublingGraph(w, s, 3)
    m = interior_saturating_matching(dg)
    pd = matching_to_paradox(dg, m)
    payload = {
        "pieces": pd.as_obj(w),
        "certificate": verify_paradox(pd, w).as_obj(),
        "boundary": unmatched_boundary_stats(dg, m),
    }
    return json.loads(cli.canonical_json(payload))


def forest_by_label(obj) -> tuple:
    """(edges, present points, kept count) of a forest, points by label."""
    labels = obj["labels"]
    edges = {(labels[u], labels[v]) for u, v in obj["edges"]}
    present = {labels[i] for i, b in enumerate(obj["present"]) if b}
    return edges, present, sum(obj["present"])


def forest_on(w) -> dict:
    dg = DoublingGraph(w, square_set(standard_generators()), 4)
    ts = triple_system_from_matching(dg, interior_saturating_matching(dg))
    return forest_from_paradox(ts).to_obj()


@pytest.mark.parametrize("kind,base", WINDOWS)
def test_held_window_matches_the_full_ball(capsys, tmp_path, kind, base):
    s = standard_generators()
    for radius, margin in SIZES:
        flags = window_flags(kind, base, radius, margin)
        got = run(capsys, ["paradox", *flags])
        full = expand_window(kind, base, s, radius, margin)
        want = paradox_on(full)
        for key in ("pieces", "certificate", "boundary"):
            assert got[key] == want[key], (radius, margin, key)

        held = expand_window(kind, base, s, radius, margin, 2)
        assert max(held.dist) == min(radius, radius - margin + 2)
        meta = tmp_path / "window.json"
        meta.write_text(json.dumps({"window": got["window"]}))
        forest = run(capsys, ["forest", "--from", str(meta)])
        assert forest["schema"] == "paradecomp/forest/3"
        assert forest["n_points"] == held.n_points()
        # every edge and kept point of the full ball lies among the held ones
        ref = forest_by_label(forest_on(full))
        assert forest_by_label(forest["forest"]) == ref, (radius, margin)
        assert forest["kept_points"] == ref[2]


@pytest.mark.parametrize("kind", ["f2", "sphere"])
def test_demo_passes_at_radius_thirteen(capsys, kind):
    obj = run(capsys, ["demo", "--kind", kind, "--radius", "13"])
    assert obj["schema"] == "paradecomp/demo/3"
    assert obj["pass"] is True
    for cert in ("certificate", "classical_certificate"):
        assert obj[cert]["status"] == "PASS"
    # the window holds radius 10 of the ball of radius 13, and the boundary
    # counts the whole ball: at most one pair per held copy-0 point
    assert obj["boundary"]["min_depth"] == 10
    assert obj["boundary"]["unmatched"] >= 3 * (2 * 3**13 - 1) - 2 * (2 * 3**10 - 1)
