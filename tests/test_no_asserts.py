"""No check in the package may rest on `assert`: `python -O` removes them."""

import ast
from pathlib import Path

import lieps


def test_package_has_no_assert_statements():
    root = Path(lieps.__file__).resolve().parent
    modules = sorted(root.rglob("*.py"))
    assert modules
    found = [
        f"{path.relative_to(root)}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements in lieps: {found}"
