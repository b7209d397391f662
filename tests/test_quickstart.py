"""The README's CLI tour, every command, end to end.

Which hall_family draws pass check_hall_eps_n decides the hall_* files, so
their digests also pin the Hall check's verdicts on those draws.
"""

import gc
import hashlib
import json
import random
import runpy
import sys
from pathlib import Path

from paradecomp import cli
from paradecomp.graphs import graph_from_obj
from paradecomp.treedyn import OrientedTwoRegular, odd_path_graph

from families import random_perfect_matching

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "make_sample_graphs.py"
README = ROOT / "README.md"

SAMPLE_DIGESTS = {
    "hall_0_eps_1_2.json": "f5f71f9c6352ccf9f64376d091d1807b9f2ddda292de103c5a8f33f7a579b99f",
    "hall_1_eps_1_2.json": "ee739d42748709ce0cee5c20975565170abd446136f7a6c145b422bb8b3dfd5d",
    "hall_2_eps_1_2.json": "9952032130f42a96c421eac22f690d18372e555a61f1e3cadcbabde999d5204f",
    "k33.json": "a0e9eb2542d159f1963f52601f046520b879da60f07f46939ee31a2ea2e3d24c",
    "path16.json": "db9f7a015f55dfdd7f0281cde4c65f1c37dac3c3d1db4e31d003e179f44ad4f9",
    "perms.json": "2ad6cc4a91700986004d5147dbe464e22c1e9f4913890de0d5a9a3f2b9da6c6a",
    "star.json": "800d6266debfe57723ae2d5bbed6db4d8887b909efed9437c0637a75f03675b3",
}


# the README's "CLI tour" block, command by command, with its exit codes
TOUR = [
    ("hall-check sample_graphs/k33.json", 0),
    ("hall-check sample_graphs/hall_0_eps_1_2.json --epsilon 1/2 --cap 2", 0),
    ("match sample_graphs/hall_0_eps_1_2.json --epsilon 1/2 --cap 2 --audit", 0),
    ("layers sample_graphs/path16.json --epsilon 16 --schedule 1,2,4,8,16", 0),
    ("window --kind f2 --radius 6 --out w.json", 0),
    ("paradox --kind f2 --radius 8 --out pieces.json", 0),
    ("verify --pieces pieces.json", 0),
    ("demo --kind f2 --radius 10", 0),
    ("demo --kind sphere --radius 8 --base 0,1,0", 0),
    ("transfer --graph sample_graphs/path16.json --gn-matching m.json --n 2", 0),
    ("forest --from pieces.json --out forest.json", 0),
    ("f2action --from forest.json --stages 0", 0),
]


def test_tour_is_the_readme_block():
    text = README.read_text(encoding="utf-8")
    block = text.split("## CLI tour", 1)[1].split("```")[1]
    lines = [ln.strip() for ln in block.splitlines()]
    assert [ln.split(" ", 1)[1] for ln in lines if ln.startswith("paradecomp ")] == [
        cmd for cmd, _ in TOUR
    ]


def test_readme_tour_on_sample_graphs(monkeypatch, capsys, tmp_path):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(
        sys, "argv", [str(SCRIPT), "--seed", "0", "--out-dir", "sample_graphs"]
    )
    runpy.run_path(str(SCRIPT), run_name="__main__")
    capsys.readouterr()
    got = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in (tmp_path / "sample_graphs").iterdir()
    }
    assert got == SAMPLE_DIGESTS

    # the G_n matching the transfer line reads: a JSON list of [u, v] pairs
    path16 = graph_from_obj(json.loads(Path("sample_graphs/path16.json").read_text()))
    g2 = odd_path_graph(OrientedTwoRegular.from_graph(path16), 2)
    m = random_perfect_matching(g2, random.Random(0))
    Path("m.json").write_text(json.dumps(sorted([u, v] for u, v in m)))

    # cli.main pauses the cyclic collector, which is safe only while a
    # command leaves no cycles behind: argparse's are made here, once
    cli.build_parser()
    for cmd, code in TOUR:
        gc.collect()
        gc.disable()
        try:
            assert cli.main(cmd.split()) == code, cmd
            assert gc.collect() == 0, cmd
        finally:
            gc.enable()
        obj = json.loads(capsys.readouterr().out)
        assert "error" not in obj, cmd
