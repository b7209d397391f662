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


SEARCHES = {"bfs_distances", "components", "greedy_net"}


def _passes_getitem_to_a_search(node) -> bool:
    if not isinstance(node, ast.Call):
        return False
    f = node.func
    name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
    args = list(node.args) + [k.value for k in node.keywords]
    return name in SEARCHES and any(
        isinstance(a, ast.Attribute) and a.attr == "__getitem__" for a in args
    )


def test_searches_read_adjacency_by_index():
    # bfs_distances, components and greedy_net read adjacency[u]; a caller
    # passes its dict, list or tuple, never a bound __getitem__
    found = []
    for path in sorted(Path(paradecomp.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if _passes_getitem_to_a_search(node)
        ]
    assert found == []
