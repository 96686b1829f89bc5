"""Rules the package source keeps, checked on its syntax trees."""

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parents[1] / "src" / "stableprob"


def test_no_module_uses_assert():
    # ``python -O`` strips assert statements, so no check may rest on one
    paths = sorted(SOURCE.rglob("*.py"))
    assert paths, f"no modules under {SOURCE}"
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert found == []
