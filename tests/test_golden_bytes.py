"""The exact stdout bytes of the radius-8 pipelines, pinned by sha256.

A speed or design change must leave these digests alone.  If an output is
meant to change, the new digest goes here together with the reason.
"""

import hashlib

import pytest

from paradecomp import cli

GOLDEN = {
    ("f2", "demo"): "92fc53cac979e0d908150fdf69172832179a75ce06d227d715a0d1f42c1d7d5d",
    ("f2", "paradox"): "da1f35682d4d7b2094c97c594678147e56f2ccb5e5a2b3290a582fdea1bef969",
    ("f2", "forest"): "16c098c2072754fdf6f3fb9b96e1ba380a3bf5ced8c49fa29238464596c18c90",
    ("sphere", "demo"): "3a6e5a3b5aea2f747f63aec5c2e79d51f4172c83cd36c4498388938eebe76879",
    ("sphere", "paradox"): "aeeff2762f2cfa433c2548434c64b33bbca658fa3ba11623504ccff3fc93cd96",
    ("sphere", "forest"): "e2247d1d8110c724a470684e25a4c0af5854ff892705eb2131c1dc992a8cba33",
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
