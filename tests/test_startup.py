"""Start-up cost and the value classes that make it cheap.

A CLI run imports only the modules its command needs, and no module of the
package generates code at import: the value classes are hand-written
NamedTuples and `liecore.Frozen` subclasses instead of dataclasses.  The
contracts the dataclass decorator used to give are pinned here.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lieps
from lieps import catalog
from lieps.catalog import AlgebraDocument
from lieps.connections import (
    ConnectionMap,
    LeafConnection,
    NomizuMap,
    build_connection,
    f_connection_to_nomizu,
    induced_leaf_connection,
)
from lieps.foliation import LeafData, LeafDecomposition, leaf_cocycle, leaf_decomposition
from lieps.liecore import IsotropyModel, LieAlgebra, Report, validate
from lieps.ybe import (
    Bivector,
    FixedSpaceLieAlgebra,
    Lift,
    YBTensor,
    canonical_lift,
    fixed_space_lie_algebra,
    make_bivector,
    yang_baxter_tensor,
)

PACKAGE = Path(lieps.__file__).resolve().parent


def test_no_module_imports_dataclasses():
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if (isinstance(node, ast.Import) and any(a.name.split(".")[0] == "dataclasses" for a in node.names))
        or (isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "dataclasses")
    ]
    assert not found, f"dataclasses imported in lieps: {found}"


# each command in a fresh interpreter: the lieps modules it must load and must not
_HEAVY = {"lieps.ybe", "lieps.foliation", "lieps.connections"}
_COMMANDS = [
    (["validate", "-"], set(), _HEAVY),
    (["invariants", "-"], set(), _HEAVY),
    (["leaf", "-", "--r=u1^w"], {"lieps.ybe", "lieps.foliation"}, {"lieps.connections"}),
    (
        ["connection", "-", "--kind", "natural", "--r=u1^w"],
        {"lieps.ybe", "lieps.connections"},
        {"lieps.foliation"},
    ),
]

_SCRIPT = (
    "import json, sys\n"
    "from lieps.cli import run_cli\n"
    "code, out, err = run_cli(json.loads(sys.argv[1]), sys.stdin.read())\n"
    "print(json.dumps([code, sorted(m for m in sys.modules if m.startswith('lieps.') or m == 'dataclasses')]))\n"
)


@pytest.mark.parametrize("argv, loaded, not_loaded", _COMMANDS, ids=[c[0][0] for c in _COMMANDS])
def test_a_command_imports_only_what_it_runs(argv, loaded, not_loaded):
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run(
        [sys.executable, "-c", _SCRIPT, json.dumps(argv)],
        input=catalog.emit(catalog.heisenberg(1)),
        env=env,
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0, out.stderr
    code, modules = json.loads(out.stdout)
    assert code == 0
    assert "dataclasses" not in modules
    assert loaded <= set(modules)
    assert not not_loaded & set(modules)


def _instances():
    """Two equal, separately built instances of each former dataclass, on heisenberg(1) and r = u1^w.

    Each entry: (instance factory, a field, hashable, a cached view or None).
    """
    doc = catalog.heisenberg(1)
    L, iso = catalog.realize(doc)
    r = make_bivector(iso, (0, 1, 0))
    b = build_connection("fedosov", r)
    return {
        AlgebraDocument: (lambda: catalog.heisenberg(1), "name", True, None),
        LieAlgebra: (lambda: catalog.heisenberg(1).algebra, "den", True, "pairs_into"),
        Report: (lambda: validate(L), "ok", True, None),
        IsotropyModel: (lambda: catalog.realize(doc)[1], "generators", True, "m_table"),
        Bivector: (lambda: make_bivector(iso, (0, 1, 0)), "d", True, "r_sharp"),
        Lift: (lambda: canonical_lift(r), "rt_mat", True, None),
        YBTensor: (lambda: yang_baxter_tensor(r), "values", False, None),
        FixedSpaceLieAlgebra: (lambda: fixed_space_lie_algebra(r), "basis", True, None),
        ConnectionMap: (lambda: build_connection("fedosov", r), "d", False, "tables"),
        NomizuMap: (lambda: f_connection_to_nomizu(b), "psi", True, None),
        LeafConnection: (lambda: induced_leaf_connection(b), "flat", True, None),
        LeafData: (lambda: leaf_cocycle(r), "rows", False, "frame"),
        LeafDecomposition: (lambda: leaf_decomposition(r), "symmetric", True, None),
    }


_CLASSES = list(_instances())


@pytest.mark.parametrize("cls", _CLASSES, ids=[cls.__name__ for cls in _CLASSES])
def test_former_dataclass_contracts(cls):
    make, field, hashable, view = _instances()[cls]
    x, y = make(), make()
    assert type(x) is cls and x is not y
    with pytest.raises(AttributeError):
        setattr(x, field, getattr(x, field))
    assert x == y and not x != y
    if hashable:
        assert hash(x) == hash(y)
    else:
        with pytest.raises(TypeError):
            hash(x)
    if view is not None:
        getattr(x, view)
        assert view in x.__dict__ and view not in y.__dict__
        assert x == y
        if hashable:
            assert hash(x) == hash(y)
