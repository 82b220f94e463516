"""Every top-level def and class in the package is named somewhere else.

A name counts as used when it appears outside its own definition in any
Python file under src/, tests/ or perfbench/: as a variable, an attribute,
an imported name, or a string constant that is a dotted name (the
benchmark's tracer and the monkeypatching tests name functions by string).
This is a check on names, not on bindings, so a method or builtin of the
same name also counts.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "lieps"
SEARCHED = ("src", "tests", "perfbench")


def _names(node, skip=()) -> set:
    """Names used in node and below it, not counting the subtrees in skip."""
    out = set()
    stack = [node]
    while stack:
        node = stack.pop()
        if node in skip:
            continue
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.rpartition(".")[2])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            parts = node.value.split(".")
            if all(p.isidentifier() for p in parts):
                out.update(parts)
        stack.extend(ast.iter_child_nodes(node))
    return out


def test_every_top_level_definition_is_used():
    trees = {
        path: ast.parse(path.read_text(), str(path))
        for top in SEARCHED
        for path in sorted((ROOT / top).rglob("*.py"))
    }
    definitions = [
        (path, node)
        for path, tree in trees.items()
        if path.is_relative_to(PACKAGE)
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    ]
    assert definitions
    own = {node for _, node in definitions}
    # names used outside every package definition, then inside each one
    used = set().union(*(_names(tree, own) for tree in trees.values()))
    inside = {node: _names(node) for node in own}
    unused = sorted(
        f"{path.relative_to(PACKAGE)}:{node.lineno} {node.name}"
        for path, node in definitions
        if node.name not in used
        and not any(node.name in names for other, names in inside.items() if other is not node)
    )
    assert not unused, f"top-level definitions nothing names: {unused}"
