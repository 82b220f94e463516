"""The benchmark names lieps functions by string and by import; they must exist.

perfbench/tracer.py wraps the functions its TARGETS table names, and
perfbench/checks.py imports the oracles it runs from lieps.  Renaming or
deleting one of them would break the benchmark without failing any other
test, so both lists are resolved here.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _tracer_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TARGETS


def test_every_tracer_target_resolves():
    missing = []
    for layer, names in _tracer_targets().items():
        module = importlib.import_module(f"lieps.{layer}")
        for name in names:
            obj = module
            for part in name.split("."):
                obj = getattr(obj, part, None)
            if not callable(obj):
                missing.append(f"lieps.{layer}.{name}")
    assert not missing, f"tracer targets that do not resolve: {missing}"


def test_every_name_checks_imports_from_lieps_exists():
    tree = ast.parse((PERFBENCH / "checks.py").read_text())
    imports = [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module and node.module.startswith("lieps")
        for alias in node.names
    ]
    assert imports
    missing = [
        f"{module}.{name}"
        for module, name in imports
        if not hasattr(importlib.import_module(module), name)
        and importlib.util.find_spec(f"{module}.{name}") is None
    ]
    assert not missing, f"names perfbench/checks.py imports that lieps lacks: {missing}"
