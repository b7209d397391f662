"""The README's CLI tour on the sample graphs, end to end.

Which hall_family draws pass check_hall_eps_n decides the hall_* files, so
their digests also pin the Hall check's verdicts on those draws.
"""

import hashlib
import runpy
import sys
from pathlib import Path

from paradecomp import cli

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "make_sample_graphs.py"

SAMPLE_DIGESTS = {
    "hall_0_eps_1_2.json": "f5f71f9c6352ccf9f64376d091d1807b9f2ddda292de103c5a8f33f7a579b99f",
    "hall_1_eps_1_2.json": "ee739d42748709ce0cee5c20975565170abd446136f7a6c145b422bb8b3dfd5d",
    "hall_2_eps_1_2.json": "9952032130f42a96c421eac22f690d18372e555a61f1e3cadcbabde999d5204f",
    "k33.json": "a0e9eb2542d159f1963f52601f046520b879da60f07f46939ee31a2ea2e3d24c",
    "path16.json": "db9f7a015f55dfdd7f0281cde4c65f1c37dac3c3d1db4e31d003e179f44ad4f9",
    "perms.json": "2ad6cc4a91700986004d5147dbe464e22c1e9f4913890de0d5a9a3f2b9da6c6a",
    "star.json": "800d6266debfe57723ae2d5bbed6db4d8887b909efed9437c0637a75f03675b3",
}


def test_readme_tour_on_sample_graphs(monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(
        sys, "argv", [str(SCRIPT), "--seed", "0", "--out-dir", str(tmp_path)]
    )
    runpy.run_path(str(SCRIPT), run_name="__main__")
    got = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()
    }
    assert got == SAMPLE_DIGESTS

    hall0 = str(tmp_path / "hall_0_eps_1_2.json")
    for argv in (
        ["hall-check", str(tmp_path / "k33.json")],
        ["hall-check", hall0, "--epsilon", "1/2", "--cap", "2"],
        ["match", hall0, "--epsilon", "1/2", "--cap", "2", "--audit"],
        ["layers", str(tmp_path / "path16.json"), "--epsilon", "16",
         "--schedule", "1,2,4,8,16"],
    ):
        assert cli.main(argv) == 0, argv
        capsys.readouterr()
