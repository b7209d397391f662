import ast
from pathlib import Path

import paradecomp


def _uses_deque(node) -> bool:
    if isinstance(node, ast.ImportFrom) and node.module == "collections":
        return any(a.name == "deque" for a in node.names)
    return (
        isinstance(node, ast.Attribute)
        and node.attr == "deque"
        and isinstance(node.value, ast.Name)
        and node.value.id == "collections"
    )


def test_no_module_uses_deque():
    # graphs.bfs_distances is the one breadth-first search over vertices;
    # greedy_net's ball search and Hopcroft-Karp's layered search in
    # matching.py keep plain lists too
    found = []
    for path in sorted(Path(paradecomp.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}" for node in ast.walk(tree) if _uses_deque(node)
        ]
    assert found == []
