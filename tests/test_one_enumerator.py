import ast
from pathlib import Path

import paradecomp


def _names_hall_witness(node) -> bool:
    if isinstance(node, ast.ImportFrom):
        return any(a.name == "HallWitness" for a in node.names)
    return (isinstance(node, ast.Name) and node.id == "HallWitness") or (
        isinstance(node, ast.Attribute) and node.attr == "HallWitness"
    )


def test_only_hall_builds_hall_witness():
    # hall.least_violator is the one connected-set search; a second search
    # elsewhere would have to build its own witnesses
    found = []
    for path in sorted(Path(paradecomp.__file__).parent.glob("*.py")):
        if path.name == "hall.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if _names_hall_witness(node)
        ]
    assert found == []
