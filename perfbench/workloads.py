"""The three workloads: set-up, the operations of one pass, and their checks.

Each workload writes its inputs under a work directory during set-up and
returns the list of operations one pass runs.  An operation is one call of
the public surface: `paradecomp.cli.main` with an argument list, or
`rotations.assert_free`.  Its check runs after the timed section, on the
exit status and the captured stdout, and raises CheckFailed on bad output.
"""

from __future__ import annotations

import importlib
import importlib.util
import json
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

class CheckFailed(Exception):
    pass


@dataclass
class Op:
    kind: str
    label: str
    call: Callable[[], int]  # returns the exit status, prints the payload
    check: Callable[[int, str], None]
    injected_failure: bool = False


def load_program() -> SimpleNamespace:
    """Import paradecomp afresh, so every set-up pays the package import."""
    for name in [m for m in sys.modules if m.split(".")[0] == "paradecomp"]:
        del sys.modules[name]
    mods = {
        name: importlib.import_module(f"paradecomp.{name}")
        for name in ("cli", "generators", "graphs", "rotations", "treedyn")
    }
    return SimpleNamespace(**mods)


def load_oracles(root: Path):
    """tests/oracles.py by path, so tests/ never lands on sys.path."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_oracles", root / "tests" / "oracles.py"
    )
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _payload(code, text: str) -> dict:
    _require(code == 0, f"exit status {code!r}")
    return json.loads(text)


def _cli_op(prog, kind: str, argv: list, check, injected_failure=False) -> Op:
    return Op(
        kind,
        " ".join(argv),
        lambda: prog.cli.main(argv),
        check,
        injected_failure,
    )


def _write(path: Path, text: str) -> str:
    path.write_text(text, encoding="utf-8")
    return str(path)


def _window_ops(prog, work: Path, kind: str, sizes: dict, base_arg, base_meta):
    """demo, then forest on a window-metadata file for the same window."""
    radius, margin = sizes["radius"], sizes["margin"]
    window = {"base": base_meta, "kind": kind, "margin": margin, "radius": radius}
    meta = _write(work / f"{kind}-window.json", json.dumps({"window": window}))

    def check_demo(code, text):
        obj = _payload(code, text)
        _require(obj["window"] == window, f"demo window {obj['window']}")
        _require(obj["pass"] is True, "demo pass is not true")

    def check_forest(code, text):
        obj = _payload(code, text)
        _require(obj["window"] == window, f"forest window {obj['window']}")
        _require(obj["stats"]["kept"] >= 1, "forest kept no component")
        fw = prog.treedyn.forest_from_obj(obj["forest"])
        _require(prog.treedyn.forest_is_acyclic(fw), "forest has a cycle")

    demo = ["demo", "--kind", kind, "--radius", str(radius), "--margin", str(margin)]
    if base_arg is not None:
        demo += ["--base", base_arg]
    return [
        _cli_op(prog, "demo", demo, check_demo),
        _cli_op(prog, "forest", ["forest", "--from", meta], check_forest),
    ]


def f2_r11(prog, root: Path, work: Path, seed: int, sizes: dict) -> list:
    ops = _window_ops(prog, work, "f2", sizes, None, "")

    def check_action(code, text):
        obj = _payload(code, text)
        _require(obj["free_check"]["violation"] is None, "free-word violation")
        _require(obj["result"]["covered"] > 0, "action covers no point")

    canonical = prog.cli.canonical_json
    for k in range(sizes["forests"]):
        fw = prog.generators.synthetic_forest(random.Random(seed + k))
        obj = {"schema": "paradecomp/forest-window/1", **fw.to_obj()}
        path = _write(work / f"forest-{k}.json", canonical(obj))
        argv = ["f2action", "--from", path, "--stages", str(sizes["stages"])]
        ops.append(_cli_op(prog, "f2action", argv, check_action))
    return ops


def sphere_r10(prog, root: Path, work: Path, seed: int, sizes: dict) -> list:
    # the sphere inputs are fixed by the paper's construction; the seed
    # changes nothing here, which makes this the workload with no input noise
    max_len = sizes["free_len"]

    def assert_free():
        prog.rotations.assert_free(max_len)
        return 0

    def check_free(code, text):
        _require(code == 0, f"assert_free({max_len}) failed: {code!r}")

    ops = [Op("assert_free", f"rotations.assert_free({max_len})", assert_free, check_free)]
    base = sizes["base"]
    base_meta = [int(c) for c in base.split(",")] + [0]
    return ops + _window_ops(prog, work, "sphere", sizes, base, base_meta)


def matcher_mix(prog, root: Path, work: Path, seed: int, sizes: dict) -> list:
    epsilons = [Fraction(e) for e in sizes["epsilons"].split(",")]
    family = prog.generators.hall_family(
        sizes["graphs"], random.Random(seed), epsilons, validate_cap=2
    )
    oracle = {}

    def kuhn_size(g):
        if "mod" not in oracle:
            oracle["mod"] = load_oracles(root)
        return len(oracle["mod"].kuhn_max_matching(g))

    def checker(g):
        def check(code, text):
            obj = _payload(code, text)
            pairs = [tuple(e) for e in obj["result"]["matching"]]
            norm = prog.graphs.validate_matching(g, pairs)
            _require(2 * len(norm) == len(g.ids), "matching is not perfect")
            _require(len(norm) == kuhn_size(g), "size differs from the Kuhn oracle")

        return check

    ops = []
    for i, (g, p) in enumerate(family):
        path = _write(work / f"graph-{i}.json", json.dumps(prog.graphs.graph_to_obj(g)))
        argv = ["match", path, "--epsilon", str(p.epsilon), "--cap", str(sizes["cap"])]
        kind = "match"
        if i % 2:
            argv.append("--audit")
            kind = "match-audit"
        ops.append(_cli_op(prog, kind, argv, checker(g)))
    if sizes.get("malformed"):
        # exercises the failure path: must count as one failed op per pass
        path = _write(work / "malformed.json", '{"vertices": "none", "edges": []}')
        argv = ["match", path, "--epsilon", "1/2", "--cap", "2"]
        ops.append(_cli_op(prog, "match", argv, checker(None), injected_failure=True))
    return ops


# name -> (set-up function, sizes, smoke sizes)
WORKLOADS = {
    "f2_r11": (
        f2_r11,
        {"radius": 11, "margin": 4, "forests": 100, "stages": 1},
        {"radius": 6, "margin": 4, "forests": 3, "stages": 1},
    ),
    "sphere_r10": (
        sphere_r10,
        {"radius": 10, "margin": 4, "base": "0,1,0", "free_len": 12},
        {"radius": 5, "margin": 4, "base": "0,1,0", "free_len": 6},
    ),
    "matcher_mix": (
        matcher_mix,
        {"graphs": 500, "cap": 2, "epsilons": "1/4,1/2,1", "audited": "odd-indexed"},
        {"graphs": 10, "cap": 2, "epsilons": "1/4,1/2,1", "audited": "odd-indexed",
         "malformed": 1},
    ),
}
