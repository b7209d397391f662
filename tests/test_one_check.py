"""Each command checks its doubling matching once.

interior_saturating_matching returns the partner map that
DoublingGraph.partners builds and checks, and every reader of the matching
takes that map.  forest validates its triple system once, in
forest_from_paradox.
"""

import pytest

from paradecomp import cli
from paradecomp.actions import DoublingGraph
from paradecomp.treedyn import TripleFunctionSystem


def count_calls(monkeypatch, cls, name) -> list:
    calls = []
    method = getattr(cls, name)

    def counted(self, *args, **kwargs):
        calls.append(name)
        return method(self, *args, **kwargs)

    monkeypatch.setattr(cls, name, counted)
    return calls


@pytest.mark.parametrize("kind", ["f2", "sphere"])
def test_each_command_checks_its_matching_once(monkeypatch, tmp_path, capsys, kind):
    partners = count_calls(monkeypatch, DoublingGraph, "partners")
    validates = count_calls(monkeypatch, TripleFunctionSystem, "validate")
    src = str(tmp_path / "paradox.json")
    runs = [
        ("demo", ["demo", "--kind", kind, "--radius", "6"], (1, 0)),
        ("paradox", ["paradox", "--kind", kind, "--radius", "6", "--out", src], (1, 0)),
        ("forest", ["forest", "--from", src], (1, 1)),
    ]
    for name, argv, want in runs:
        partners.clear()
        validates.clear()
        assert cli.main(argv) == 0, capsys.readouterr().out
        assert (len(partners), len(validates)) == want, name
