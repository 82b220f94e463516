"""Every top-level def and class in the package is named somewhere else.

A name counts as used when it appears outside its own definition in any
Python file under src/, tests/ or perfbench/: as a variable, an attribute,
an imported name, or a string constant that is a dotted name (the
benchmark's tracer and the monkeypatching tests name functions by string).
This is a check on names, not on bindings, so a method or builtin of the
same name also counts.

A second check reads src/ and perfbench/ alone: a definition that only the
tests name is code the program does not use, and it must be listed in
TEST_ONLY.
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


# paper routines and oracles with no caller in src/ or perfbench/; a name
# leaves this list when the program calls it, or when it moves to tests/
TEST_ONLY = {
    # routines of the paper with no CLI entry
    "connections.py f_connection_to_nomizu",
    "connections.py induced_leaf_connection",
    "connections.py nomizu_to_contravariant",
    "foliation.py w_omega_pair",
    "ybe.py fixed_space_lie_algebra",
    # oracles of the integer forms
    "connections.py ad_invariance_check",
    "liecore.py induced_ad_bar",
    "liecore.py induced_map",
    "liecore.py m_bracket",
    "ybe.py quotient_hcirc",
}


def _unnamed(searched) -> set:
    """The package definitions that no Python file under the searched tops names outside itself."""
    trees = {
        path: ast.parse(path.read_text(), str(path))
        for top in searched
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
    return {
        f"{path.relative_to(PACKAGE)} {node.name}"
        for path, node in definitions
        if node.name not in used
        and not any(node.name in names for other, names in inside.items() if other is not node)
    }


def test_every_top_level_definition_is_used():
    unused = sorted(_unnamed(SEARCHED))
    assert not unused, f"top-level definitions nothing names: {unused}"


def test_definitions_only_the_tests_name_are_listed():
    test_only = _unnamed(("src", "perfbench"))
    unlisted = sorted(test_only - TEST_ONLY)
    assert not unlisted, f"named only from tests/, not in TEST_ONLY: {unlisted}"
    stale = sorted(TEST_ONLY - test_only)
    assert not stale, f"in TEST_ONLY but named from src/ or perfbench/: {stale}"
