"""Rules the package source keeps, checked on its syntax trees."""

import ast
import sys
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


def test_every_import_is_stdlib_or_the_package():
    # the package declares ``dependencies = []``
    found = []
    for path in sorted(SOURCE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue  # not an import, or a relative one
            found += [
                f"{path.name}:{node.lineno} {module}"
                for module in modules
                if module.partition(".")[0] not in sys.stdlib_module_names
                and module.partition(".")[0] != "stableprob"
            ]
    assert found == []
