"""Each command checks its doubling matching once.

interior_saturating_matching returns the partner map that
DoublingGraph.partners builds and checks, and every reader of the matching
takes that map.  demo, paradox and forest each make one Hopcroft-Karp run,
from side 1's interior: on these windows it leaves no copy-0 interior
vertex free, so no copy-0 run is made.  forest validates its triple system
once, in forest_from_paradox.  match checks its output once, at the end of
layered_perfect_matching, audited or not.
"""

import json

import pytest

import paradecomp.graphs
import paradecomp.matcher
from paradecomp import actions, cli
from paradecomp.actions import DoublingGraph
from paradecomp.generators import line_window
from paradecomp.graphs import graph_to_obj
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


@pytest.mark.parametrize("kind", ["f2", "sphere"])
def test_each_command_runs_one_hopcroft_karp_search(monkeypatch, tmp_path, capsys, kind):
    runs = []
    search = actions.hopcroft_karp

    def counted(*args):
        runs.append(args)
        return search(*args)

    monkeypatch.setattr(actions, "hopcroft_karp", counted)
    src = str(tmp_path / "paradox.json")
    for argv in (
        ["demo", "--kind", kind, "--radius", "6"],
        ["paradox", "--kind", kind, "--radius", "6", "--out", src],
        ["forest", "--from", src],
    ):
        runs.clear()
        assert cli.main(argv) == 0, capsys.readouterr().out
        assert len(runs) == 1, argv[0]


@pytest.mark.parametrize("audit", [[], ["--audit"]], ids=["plain", "audit"])
def test_match_checks_its_output_once(monkeypatch, tmp_path, capsys, audit):
    validates = [
        count_calls(monkeypatch, module, "validate_matching")
        for module in (paradecomp.graphs, paradecomp.matcher)
    ]
    src = tmp_path / "line.json"
    src.write_text(json.dumps(graph_to_obj(line_window(14))))
    # the cap reaches f(n) at the first four stages, so the audit enumerates
    flags = ["--epsilon", "16", "--floor", "9", "--cap", "9", "--schedule", "1,2,4,8,16"]
    assert cli.main(["match", str(src), *flags, *audit]) == 0, capsys.readouterr().out
    assert sum(map(len, validates)) == 1
