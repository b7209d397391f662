import ast
from pathlib import Path

import paradecomp


def test_package_source_has_no_assert_statements():
    # python -O strips assert, so invariants must raise typed errors instead
    found = []
    for path in sorted(Path(paradecomp.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert found == []
