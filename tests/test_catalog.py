import json
from fractions import Fraction as QQ

import pytest
from hypothesis import given, settings, strategies as st

from helpers import CATALOG_ENTRIES
from lieps import catalog
from lieps.cli import run_cli
from lieps.errors import DocumentError, LiepsError
from lieps.liecore import bracket, validate


def V(*xs):
    return tuple(QQ(x) for x in xs)


# ---------------------------------------------------------------------------
# builtins


def test_builtin_dispatch_errors():
    with pytest.raises(LiepsError, match="unknown builtin"):
        catalog.builtin("nosuch")
    with pytest.raises(LiepsError, match="needs parameter 'n'"):
        catalog.builtin("heisenberg")
    with pytest.raises(LiepsError, match="unexpected parameters"):
        catalog.builtin("iso11", {"n": 3})


def test_all_builtins_validate():
    for _, name, params in CATALOG_ENTRIES:
        L, iso = catalog.realize(catalog.builtin(name, params))
        assert validate(L).ok, name


def test_heisenberg_structure():
    doc = catalog.builtin("heisenberg", {"n": 2})
    L, iso = catalog.realize(doc)
    assert doc.labels == ("u1", "u2", "v1", "v2", "w")
    u1 = V(1, 0, 0, 0, 0)
    v1 = V(0, 0, 1, 0, 0)
    u2 = V(0, 1, 0, 0, 0)
    v2 = V(0, 0, 0, 1, 0)
    w = V(0, 0, 0, 0, 1)
    assert bracket(L, u1, v1) == w
    assert bracket(L, u2, v2) == w
    assert bracket(L, u1, v2) == V(0, 0, 0, 0, 0)
    assert iso.h_basis.dim == 0
    assert len(iso.discrete_generators) == 5


def test_iso11_structure():
    doc = catalog.builtin("iso11")
    L, iso = catalog.realize(doc)
    e1, e2, e3 = V(1, 0, 0), V(0, 1, 0), V(0, 0, 1)
    assert bracket(L, e1, e3) == e1
    assert bracket(L, e2, e3) == tuple(-x for x in e2)
    assert bracket(L, e1, e2) == V(0, 0, 0)
    assert len(iso.discrete_generators) == 1
    gamma = iso.discrete_generators[0]
    assert gamma @ e3 == (QQ(1, 2), QQ(-1, 2), QQ(1))


def test_gl_sym_structure():
    doc = catalog.builtin("gl_sym", {"n": 2})
    L, iso = catalog.realize(doc)
    assert doc.labels == ("E11", "E22", "S12", "F12")
    E11 = V(1, 0, 0, 0)
    S12 = V(0, 0, 1, 0)
    F12 = V(0, 0, 0, 1)
    # commutator [E11, E12 + E21] = E12 - E21
    assert bracket(L, E11, S12) == F12
    assert iso.h_basis.basis == (F12,)
    assert iso.complement_indices == (0, 1, 2)


def test_so4_grassmann_structure():
    doc = catalog.builtin("so4_grassmann")
    L, iso = catalog.realize(doc)
    assert doc.labels == ("F12", "F34", "e1", "e2", "e3", "e4")
    F12 = V(1, 0, 0, 0, 0, 0)
    e1 = V(0, 0, 1, 0, 0, 0)
    e2 = V(0, 0, 0, 1, 0, 0)
    # [F12, F13] = -F23
    assert bracket(L, F12, e1) == tuple(-x for x in e2)
    assert iso.h_basis.dim == 2
    assert iso.complement_indices == (2, 3, 4, 5)


def test_double_structure():
    doc = catalog.builtin("double", {"of": "heisenberg", "n": 1})
    L, iso = catalog.realize(doc)
    assert L.dim == 6
    d = [V(*[1 if t == k else 0 for t in range(6)]) for k in range(3)]
    m = [V(*[1 if t == 3 + k else 0 for t in range(6)]) for k in range(3)]
    # diagonal copy closes, the anti-diagonal part is a symmetric complement
    assert bracket(L, d[0], d[1]) == d[2]
    assert bracket(L, d[0], m[1]) == m[2]
    assert bracket(L, m[0], m[1]) == d[2]
    assert iso.h_basis.basis == tuple(d)
    pass_doc = catalog.builtin("double", {"of": catalog.builtin("iso11")})
    assert pass_doc.dim == 6


# ---------------------------------------------------------------------------
# JSON layer


def test_roundtrip_all_builtins():
    for _, name, params in CATALOG_ENTRIES:
        doc = catalog.builtin(name, params)
        assert catalog.parse(catalog.emit(doc)) == doc


def test_realize_hands_on_the_document_algebra():
    parsed = catalog.parse(json.dumps(_base_doc()))
    docs = [catalog.builtin(name, params) for _, name, params in CATALOG_ENTRIES] + [parsed]
    for doc in docs:
        assert catalog.realize(doc)[0] is doc.algebra, doc.name


def test_emit_reads_the_brackets_back_in_lowest_terms():
    # 2/4 is emitted reduced, and the zero coefficient and the all-zero
    # bracket are dropped
    text = json.dumps(
        {
            "name": "half",
            "dim": 3,
            "labels": ["x", "y", "z"],
            "brackets": [
                {"i": 0, "j": 1, "coeffs": {"2": "2/4", "0": "0"}},
                {"i": 0, "j": 2, "coeffs": {"1": 0}},
                {"i": 1, "j": 2, "coeffs": {"0": "-6/3", "2": 3}},
            ],
        }
    )
    assert catalog.emit(catalog.parse(text)) == (
        '{\n  "brackets": [\n    {\n      "coeffs": {\n        "2": "1/2"\n      },\n'
        '      "i": 0,\n      "j": 1\n    },\n    {\n      "coeffs": {\n        "0": "-2",\n'
        '        "2": "3"\n      },\n      "i": 1,\n      "j": 2\n    }\n  ],\n  "dim": 3,\n'
        '  "labels": [\n    "x",\n    "y",\n    "z"\n  ],\n  "name": "half"\n}\n'
    )


def test_emit_is_deterministic():
    a = catalog.emit(catalog.builtin("gl_sym", {"n": 3}))
    b = catalog.emit(catalog.builtin("gl_sym", {"n": 3}))
    assert a == b
    assert a.endswith("\n")
    json.loads(a)


def test_parse_accepts_dict_and_defaults_labels():
    doc = catalog.parse({"name": "x", "dim": 2, "brackets": []})
    assert doc.labels == ("e1", "e2")


def test_rationals():
    assert catalog.parse_rational("3/2") == QQ(3, 2)
    assert catalog.parse_rational("-7") == QQ(-7)
    assert catalog.parse_rational(2) == QQ(2)
    for text, value in [("٣/٤", QQ(3, 4)), (" +6/4 ", QQ(3, 2)), ("-0/5", QQ(0))]:
        q = catalog.parse_rational(text)
        assert type(q) is QQ and q == value
    for flag in (True, False):
        with pytest.raises(DocumentError, match="not a rational literal"):
            catalog.parse_rational(flag, "x")
    with pytest.raises(DocumentError):
        catalog.parse_rational("1/0", "x")
    with pytest.raises(DocumentError):
        catalog.parse_rational("nope", "x")
    with pytest.raises(DocumentError):
        catalog.parse_rational(1.5, "x")


def _base_doc():
    return {
        "name": "t",
        "dim": 3,
        "labels": ["a", "b", "c"],
        "brackets": [{"i": 0, "j": 1, "coeffs": {"2": "1"}}],
    }


@pytest.mark.parametrize(
    "mutate, path_prefix",
    [
        (lambda d: d.update(name=3), "name"),
        (lambda d: d.update(dim=0), "dim"),
        (lambda d: d.update(dim=True), "dim"),
        (lambda d: d.update(labels=["a", "a", "b"]), "labels"),
        (lambda d: d.update(labels=["a", "", "b"]), "labels[1]"),
        (lambda d: d.update(extra=1), "extra"),
        (lambda d: d.update(brackets=[{"i": 1, "j": 0, "coeffs": {}}]), "brackets[0]"),
        (lambda d: d.update(brackets=[{"i": 0, "j": 5, "coeffs": {}}]), "brackets[0]"),
        (
            lambda d: d.update(brackets=[{"i": 0, "j": 1, "coeffs": {"9": "1"}}]),
            "brackets[0].coeffs.9",
        ),
        (
            lambda d: d.update(brackets=[{"i": 0, "j": 1, "coeffs": {"2": "1/0"}}]),
            "brackets[0].coeffs.2",
        ),
        (
            # a digit to str.isdigit, but not a decimal that int() reads
            lambda d: d.update(brackets=[{"i": 0, "j": 1, "coeffs": {"²": "1"}}]),
            "brackets[0].coeffs.²",
        ),
        (lambda d: d.update(subalgebra=[["1", "0"]]), "subalgebra[0]"),
        (lambda d: d.update(complement=[["1", "1", "0"]]), "complement[0]"),
        (
            lambda d: d.update(complement=[["1", "0", "0"], ["1", "0", "0"]]),
            "complement[1]",
        ),
        (lambda d: d.update(ad_generators=[[[1, 0], [0, 1]]]), "ad_generators[0]"),
    ],
)
def test_parse_locates_errors(mutate, path_prefix):
    data = _base_doc()
    mutate(data)
    with pytest.raises(DocumentError) as exc:
        catalog.parse(data)
    assert exc.value.path.startswith(path_prefix)


_BOOLEAN_DOCS = [
    ({"dim": 3, "brackets": [{"i": 0, "j": 1, "coeffs": {"2": True}}]}, "brackets[0].coeffs.2", True),
    ({"dim": 3, "subalgebra": [[False, False, True]]}, "subalgebra[0][0]", False),
    (
        {"dim": 2, "ad_generators": [[[1, 0], [0, True]]]},
        "ad_generators[0][1][1]",
        True,
    ),
]


@pytest.mark.parametrize("doc, path, value", _BOOLEAN_DOCS)
def test_json_booleans_are_not_rational_literals(doc, path, value):
    code, out, err = run_cli(["validate", "-"], json.dumps(doc))
    assert (code, out) == (2, "")
    assert err == f"parse error: {path}: not a rational literal: {value!r}\n"


@pytest.mark.parametrize("i, j", [(False, True), (0, True), (False, 1)])
def test_json_booleans_are_not_bracket_indices(i, j):
    doc = {"dim": 3, "brackets": [{"i": i, "j": j, "coeffs": {"2": "1"}}]}
    code, out, err = run_cli(["validate", "-"], json.dumps(doc))
    assert (code, out, err) == (2, "", "parse error: brackets[0]: i and j must be integers\n")


def test_parse_rejects_duplicate_bracket_pairs():
    # the duplicate is reported once the whole bracket list has parsed, so a
    # malformed later item is reported instead
    first = {"i": 0, "j": 1, "coeffs": {"2": "1"}}
    zero = {"i": 0, "j": 1, "coeffs": {"2": "0", "0": 0}}
    malformed = {"i": 1, "j": 2, "coeffs": {"0": "x"}}
    cases = [
        ([first, first], "parse error: brackets: duplicate pair (0, 1)\n"),
        ([zero, first], "parse error: brackets: duplicate pair (0, 1)\n"),
        (
            [first, first, malformed],
            "parse error: brackets[2].coeffs.0: not a rational literal: 'x'\n",
        ),
    ]
    for brackets, err in cases:
        data = _base_doc()
        data["brackets"] = brackets
        assert run_cli(["validate", "-"], json.dumps(data)) == (2, "", err)


def test_parse_rejects_broken_json_text():
    with pytest.raises(DocumentError, match="invalid JSON"):
        catalog.parse("{nope")


def test_complement_emitted_as_standard_vectors():
    data = _base_doc()
    data["subalgebra"] = [["0", "0", "1"]]
    data["complement"] = [["1", "0", "0"], ["0", "1", "0"]]
    doc = catalog.parse(data)
    assert doc.complement == (0, 1)
    payload = catalog.to_json_dict(doc)
    assert payload["complement"] == [["1", "0", "0"], ["0", "1", "0"]]
    assert catalog.parse(catalog.emit(doc)) == doc


# ---------------------------------------------------------------------------
# whole-document fuzzing: catalog documents with dropped, duplicated or
# retyped fields, out-of-range indices, malformed rationals, booleans as
# numbers and non-square generators

_FUZZ_DOCS = [catalog.to_json_dict(catalog.builtin(name, params)) for _, name, params in CATALOG_ENTRIES]
_FIELDS = ("name", "dim", "labels", "brackets", "subalgebra", "complement", "ad_generators", "extra")
_JUNK = (None, True, False, 0, -1, 2, 1.5, "x", "", [], {}, [[]], [[1]], {"i": 0})
_RATIONALS = (True, False, None, 1.5, [], "", "x", "1/0", "1//2", "²", "٣", " +6/4 ", "-0/5", "1/3", 0, 7)


def _list(x, key):
    """x[key] when x is an object holding a list there, else []."""
    v = x.get(key) if isinstance(x, dict) else None
    return v if isinstance(v, list) else []


def _mutate(draw, doc):
    """Apply one drawn defect to the decoded document doc, in place."""
    dim = doc["dim"] if type(doc.get("dim")) is int else 3
    indices = st.sampled_from((-1, 0, 1, dim - 1, dim, dim + 2, True, False, "1"))
    items = [b for b in _list(doc, "brackets") if isinstance(b, dict)]
    kind = draw(st.sampled_from(("drop", "retype", "dup", "index", "rational", "generator")))
    if kind == "drop" and doc:
        del doc[draw(st.sampled_from(sorted(doc)))]
    elif kind == "retype":
        doc[draw(st.sampled_from(_FIELDS))] = draw(st.sampled_from(_JUNK))
    elif kind == "dup" and items:
        doc["brackets"].append(json.loads(json.dumps(draw(st.sampled_from(items)))))
    elif kind == "index":
        target = draw(st.sampled_from(("i", "j", "coeff", "complement", "dim")))
        if target == "dim":
            doc["dim"] = draw(st.sampled_from((True, 0, -2, dim + 1, max(dim - 1, 1))))
        elif target == "complement":
            t = draw(indices)
            doc["complement"] = [["1" if c == t else "0" for c in range(dim)]]
        elif items:
            item = draw(st.sampled_from(items))
            if target == "coeff":
                item["coeffs"] = {str(draw(indices)): "1"}
            else:
                item[target] = draw(indices)
    elif kind == "rational":
        rows = [b.get("coeffs") for b in items] + _list(doc, "subalgebra")
        rows += [row for g in _list(doc, "ad_generators") if isinstance(g, list) for row in g]
        slots = []
        for row in rows:
            if isinstance(row, dict):
                slots += [(row, k) for k in row]
            elif isinstance(row, list):
                slots += [(row, k) for k in range(len(row))]
        if slots:
            row, k = draw(st.sampled_from(slots))
            row[k] = draw(st.sampled_from(_RATIONALS))
    elif kind == "generator":
        gens = [g for g in _list(doc, "ad_generators") if isinstance(g, list) and g]
        if not gens:
            doc["ad_generators"] = [[["1"] * (dim + 1) for _ in range(dim)]]
            return
        g = draw(st.sampled_from(gens))
        how = draw(st.sampled_from(("row", "entry", "extra")))
        if how == "row":
            g.pop()
        elif how == "entry" and isinstance(g[0], list) and g[0]:
            g[0].pop()
        else:
            g.append(["0"] * dim)


_FUZZ_COMMANDS = (
    ["validate", "-"],
    ["invariants", "-"],
    ["ybe", "-", "--r=0"],
    ["leaf", "-", "--r=0"],
    ["connection", "-", "--r=0", "--kind", "fedosov"],
)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_fuzzed_documents_exit_cleanly_and_round_trip(data):
    doc = json.loads(json.dumps(data.draw(st.sampled_from(_FUZZ_DOCS))))
    for _ in range(data.draw(st.integers(1, 3))):
        _mutate(data.draw, doc)
    text = json.dumps(doc)
    for argv in _FUZZ_COMMANDS:
        code, out, err = run_cli(argv, text)
        assert code in (0, 1, 2), (argv, text, err)
        assert "Traceback" not in err
    try:
        parsed = catalog.parse(text)
    except DocumentError:
        return
    assert catalog.parse(catalog.emit(parsed)) == parsed
