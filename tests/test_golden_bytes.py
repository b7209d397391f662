"""The exact stdout bytes of the radius-8 pipelines, pinned by sha256.

A speed or design change must leave these digests alone.  If an output is
meant to change, the new digest goes here together with the reason.

demo/2 and forest/2: the windows of demo and forest hold only the points
their translations reach from the interior (radius - margin + 1 over S,
+ 2 over S^2).  The matching and pieces are unchanged, so the paradox
digests are too; demo's classical certificate counts only the held points,
and forest lists only them (n_points, per-point lists, components and
isolated counts).
"""

import hashlib

import pytest

from paradecomp import cli

GOLDEN = {
    ("f2", "demo"): "372f1171afd987a572d5161e90753a7299421c417155a432d965f010f865f5d7",
    ("f2", "paradox"): "da1f35682d4d7b2094c97c594678147e56f2ccb5e5a2b3290a582fdea1bef969",
    ("f2", "forest"): "776bdf0d3f37c9c4968a4ad6c55737c5cab5c4be8e977281ca7db17c749c3376",
    ("sphere", "demo"): "5c0bfd241d942d7b4417038cc4281ce17941c241131afcee6ea6d3ee130675f4",
    ("sphere", "paradox"): "aeeff2762f2cfa433c2548434c64b33bbca658fa3ba11623504ccff3fc93cd96",
    ("sphere", "forest"): "0873bbfedde457a1b1ba1f7c476d9c693e0f646eca63ba3e5fde7833f87136da",
}


def stdout_of(capsys, argv) -> str:
    assert cli.main(argv) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("kind", ["f2", "sphere"])
def test_radius_eight_stdout_is_pinned(capsys, tmp_path, kind):
    window = ["--kind", kind, "--radius", "8"]
    got = {
        "demo": stdout_of(capsys, ["demo", *window]),
        "paradox": stdout_of(capsys, ["paradox", *window]),
    }
    src = tmp_path / "paradox.json"
    src.write_text(got["paradox"])
    got["forest"] = stdout_of(capsys, ["forest", "--from", str(src)])
    for command, out in got.items():
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == GOLDEN[kind, command], command
