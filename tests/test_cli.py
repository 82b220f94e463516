import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    CATALOG_ENTRIES,
    count_cached,
    count_calls,
    dense_invariant_bivectors,
    dense_poisson_compat_failures,
    random_generator_instance,
    random_instances,
    reference_parse_bivector_expr,
    reference_run_cli,
)
from lieps import catalog, cli, exact, invariants, liecore, ybe
from lieps.catalog import AlgebraDocument, builtin, emit, is_label
from lieps.cli import format_terms, parse_bivector_expr, run_cli, wedge_words
from lieps.errors import DocumentError
from lieps.exact import to_ints
from lieps.liecore import IsotropyModel


def _doc_text(name, **params):
    return emit(builtin(name, params or None))


def _format(words, coords):
    """format_terms of a sequence of rationals, scaled to ints over one denominator first."""
    return format_terms(words, *to_ints((k, x) for k, x in enumerate(coords) if x))


# ---------------------------------------------------------------------------
# expression parsing


def test_parse_simple_wedge():
    coords = parse_bivector_expr("e1^e2", ("e1", "e2", "e3"))
    assert coords == (1, 0, 0)


def test_parse_linear_combinations():
    coords = parse_bivector_expr("(e1 - e2)^e3", ("e1", "e2", "e3"))
    assert coords == (0, 1, -1)


def test_parse_rational_coefficients():
    coords = parse_bivector_expr("3/2*e1^e2 + e1^e3", ("e1", "e2", "e3"))
    assert coords == (1.5, 1, 0)


def test_parse_reversed_wedge_flips_sign():
    coords = parse_bivector_expr("e2^e1", ("e1", "e2", "e3"))
    assert coords == (-1, 0, 0)


def test_parse_unknown_label():
    with pytest.raises(DocumentError):
        parse_bivector_expr("e9^e1", ("e1", "e2", "e3"))


def test_parse_garbage():
    with pytest.raises(DocumentError):
        parse_bivector_expr("e1 ^^ e2", ("e1", "e2", "e3"))
    with pytest.raises(DocumentError):
        parse_bivector_expr("", ("e1", "e2", "e3"))


def test_format_roundtrip():
    labels = ("u1", "v1", "w")
    text = _format(wedge_words(labels), (0, 1, 0))
    assert text == "u1^w"
    assert parse_bivector_expr(text, labels) == (0, 1, 0)
    assert _format([lab + "*" for lab in labels], (1, 0, -2)) == "u1* - 2 w*"


# labels any document may carry: a letter of any script or _, then
# letters, digits (decimal or not) and _
LABELS = st.builds(
    str.__add__,
    st.characters(categories=("L",), include_characters="_"),
    st.text(st.characters(categories=("L", "Nd", "No"), include_characters="_"), max_size=3),
)


@given(
    st.integers(min_value=0, max_value=5).flatmap(
        lambda k: st.tuples(
            st.lists(LABELS, min_size=k, max_size=k, unique=True).map(tuple),
            st.lists(
                st.one_of(
                    st.just(0), st.fractions(min_value=-5, max_value=5, max_denominator=7)
                ),
                min_size=k * (k - 1) // 2,
                max_size=k * (k - 1) // 2,
            ).map(tuple),
        )
    )
)
@settings(max_examples=200, deadline=None)
def test_format_then_parse_is_identity(case):
    # includes all-zero coordinates, printed as "0", the empty label list,
    # and labels in any script
    labels, coords = case
    assert all(map(is_label, labels))
    text = _format(wedge_words(labels), coords)
    assert parse_bivector_expr(text, labels) == coords


def test_lone_zero_is_the_zero_bivector():
    assert parse_bivector_expr("0", ("e1", "e2", "e3")) == (0, 0, 0)
    assert parse_bivector_expr("0", ()) == ()
    with pytest.raises(DocumentError):
        parse_bivector_expr("", ("e1", "e2"))


# malformed --r text is a located parse error, never a traceback

H1 = _doc_text("heisenberg", n=1)


@pytest.mark.parametrize(
    "r, message",
    [
        ("u1^v1 + 3/0", "zero denominator in '3/0'"),
        ("²^u1", "unexpected character '²'"),
        ("3/x^u1", "bad rational near '3/x^u1'"),
        ("u1^v1 w^u1", "expected + or - between terms"),
        ("(u1 + v1^w", "expected ), found ^"),
    ],
)
def test_malformed_r_exits_2_with_the_location(r, message):
    for fmt in ("text", "json"):
        code, out, err = run_cli(["ybe", "-", "--r", r, "--format", fmt], H1)
        assert (code, out, err) == (2, "", f"parse error: --r: {message}\n")


def test_r_given_as_double_dash_is_empty():
    # argparse passes --r=-- on as an empty list, not as text
    assert run_cli(["ybe", "-", "--r=--"], H1) == (
        2, "", "parse error: --r: empty bivector expression\n"
    )
    assert run_cli(["scan", "-", "--candidate=--"], H1) == (
        2, "", "parse error: --candidate: empty bivector expression\n"
    )


def test_malformed_candidate_names_its_option():
    code, out, err = run_cli(["scan", "-", "--candidate", "3/0"], H1)
    assert (code, out, err) == (2, "", "parse error: --candidate: zero denominator in '3/0'\n")


def test_leading_minus_is_attached_with_equals():
    # argparse reads a separate value that starts with - as an option; the
    # help text of every --r says to attach it with =
    code, out, err = run_cli(["ybe", "-", "--r=-u1^v1"], H1)
    assert (code, err) == (0, "")
    assert (code, out, err) == run_cli(["ybe", "-", "--r", " -u1^v1"], H1)
    assert out.startswith("not an r-matrix: 6 nonzero entries\n")
    for cmd in ("ybe", "leaf", "connection"):
        code, help_text, _ = run_cli([cmd, "--help"])
        assert code == 0 and "--r=-u1^v1" in help_text, cmd


def test_decimal_digits_of_any_script_are_numbers():
    # '٣' is the Arabic-Indic digit three: a decimal, unlike '²'
    code, out, err = run_cli(["ybe", "-", "--r", "٣ u1^v1"], H1)
    assert (code, out, err) == run_cli(["ybe", "-", "--r", "3 u1^v1"], H1)
    assert code == 0 and out.startswith("not an r-matrix: 6 nonzero entries\n")
    assert "  [[r,r]](u1*, v1*, w*) = -9\n" in out


def test_non_decimal_bracket_key_is_a_parse_error():
    doc = json.loads(H1)
    doc["brackets"][0]["coeffs"] = {"²": "1"}
    code, out, err = run_cli(["validate", "-"], json.dumps(doc))
    assert (code, out) == (2, "")
    assert err == "parse error: brackets[0].coeffs.²: key must be a basis index\n"


@pytest.mark.parametrize("key", ["02", "٢"])
def test_repeated_bracket_index_is_a_parse_error(key):
    # "02" and the Arabic-Indic "٢" both name index 2, which "2" names already
    doc = json.loads(H1)
    doc["brackets"][0]["coeffs"] = {"2": "3", key: "1"}
    code, out, err = run_cli(["validate", "-"], json.dumps(doc))
    assert (code, out) == (2, "")
    assert err == f"parse error: brackets[0].coeffs.{key}: repeated basis index 2\n"


@pytest.mark.parametrize("labels, t", [(["a b", "c"], 0), (["1", "2"], 0), (["x", "²y"], 1)])
def test_labels_the_r_grammar_cannot_read_are_parse_errors(labels, t):
    # invariants would print "a b^c", which --r reads as the labels a, b and
    # c, and "1^2", which it reads as a coefficient
    doc = json.dumps({"dim": 2, "labels": labels})
    for cmd in ("validate", "invariants"):
        code, out, err = run_cli([cmd, "-"], doc)
        assert (code, out) == (2, "")
        assert err == f"parse error: labels[{t}]: must be a name: a letter or _, then letters, digits or _\n"


@given(
    st.lists(
        st.sampled_from(
            ["u1", "v1", "w", "x", "_", "0", "1", "7", "²", "٣", "+", "-", "*", "^", "(", ")", "/", " "]
        ),
        max_size=12,
    ).map("".join)
)
@settings(max_examples=300, deadline=None)
def test_fuzzed_r_parses_or_is_a_document_error(text):
    # the coordinates, or the error text, of the Fraction parser the --r
    # grammar was first read with
    labels = ("u1", "v1", "w")
    try:
        coords = parse_bivector_expr(text, labels)
    except DocumentError as e:
        expected = (2, "", f"parse error: {e}\n")
        with pytest.raises(DocumentError) as reference:
            reference_parse_bivector_expr(text, labels)
        assert str(reference.value) == str(e)
    else:
        assert isinstance(coords, tuple) and len(coords) == 3
        assert coords == reference_parse_bivector_expr(text, labels)
        assert "/" in text or all(type(x) is int for x in coords)
        expected = None
    code, out, err = run_cli(["ybe", "-", "--r", text], H1)
    assert code in (0, 1, 2)
    # with --r=TEXT, argparse reads a leading - as part of the value; a bare
    # -- is the exception, see test_r_given_as_double_dash_is_empty
    if expected is not None and text != "--":
        assert run_cli(["ybe", "-", f"--r={text}"], H1) == expected


# ---------------------------------------------------------------------------
# exit codes


def test_no_command_is_usage_error():
    code, out, err = run_cli([])
    assert code == 2


def test_help_exits_zero():
    code, out, err = run_cli(["--help"])
    assert code == 0
    assert "usage" in out.lower()


@pytest.mark.parametrize(
    "argv, extra",
    [
        (["validate", "-", "extra"], "extra"),
        (["ybe", "-", "--r=u1^v1", "extra"], "extra"),
        (["validate", "-", "--", "x"], "x"),
        (["validate", "-", "a", "b"], "a b"),
    ],
)
def test_leftover_arguments_are_refused_by_the_top_parser(argv, extra):
    # a known command is parsed by its own sub-parser, but what that leaves
    # over is reported as parse_args reports it, under the program's name
    assert run_cli(argv, H1) == (2, "", f"lieps: error: unrecognized arguments: {extra}\n")


DISPATCH_CORPUS = (
    [],
    ["bogus", "-"],
    ["val", "-"],
    ["-h"],
    ["--help"],
    ["validate", "-h"],
    ["ybe", "--help"],
    ["leaf", "-"],
    ["connection", "-", "--r=u1^w", "--kind", "bad"],
    ["validate", "-", "--form", "json"],
    ["validate", "-", "--he"],
    ["--format", "json", "validate", "-"],
    ["-x", "validate", "-"],
    ["ybe", "-", "--r", "u1^v1", "--r", "u1^w"],
    ["ybe", "-", "--r=--"],
    ["ybe", "-", "--r", "--", "u1^v1"],
    ["ybe", "-", "--r", "-u1^v1"],
    ["validate", "--", "-"],
    ["validate", "-", "-", "-"],
    ["scan", "-", "--candidate", "u1^w", "--candidate=-v1^w"],
    ["example", "heisenberg", "--n", "2"],
    ["example", "double", "--n", "1", "--of", "heisenberg"],
    ["example", "--n", "2"],
    ["connection", "-", "--r=u1^w", "--kind", "fedosov", "--format", "text", "--format", "json"],
)


@pytest.mark.parametrize("argv", DISPATCH_CORPUS, ids=repr)
def test_dispatch_gives_what_the_top_parser_gives(argv):
    assert run_cli(argv, H1) == reference_run_cli(argv, H1)


def test_consecutive_calls_capture_their_own_output():
    # the parser is built once per process; each call still gets its own
    # help text on stdout and its own usage error on stderr
    first = run_cli(["--help"])
    usage = run_cli(["leaf", "-"])
    sub_help = run_cli(["leaf", "--help"])
    again = run_cli(["--help"])
    assert first == again
    assert first[0] == 0 and "usage: lieps" in first[1] and first[2] == ""
    assert usage[0] == 2 and usage[1] == ""
    assert usage[2] == "lieps leaf: error: the following arguments are required: --r\n"
    assert sub_help[0] == 0 and "usage: lieps leaf" in sub_help[1] and sub_help[2] == ""
    assert run_cli(["leaf", "-"]) == usage


def test_missing_file_is_parse_error():
    code, out, err = run_cli(["validate", "/nonexistent/path.json"])
    assert code == 2
    assert "parse error" in err


def test_broken_json_is_parse_error():
    code, out, err = run_cli(["validate", "-"], stdin_text="{not json")
    assert code == 2
    assert "invalid JSON" in err


def test_unknown_builtin_is_domain_error():
    code, out, err = run_cli(["example", "nosuch"])
    assert code == 1
    assert "error:" in err


def test_bad_connection_kind_is_usage_error():
    code, out, err = run_cli(
        ["connection", "-", "--r", "u1^w", "--kind", "bogus"],
        stdin_text=_doc_text("heisenberg", n=1),
    )
    assert code == 2


# ---------------------------------------------------------------------------
# validate


def test_validate_builtin_ok():
    code, out, err = run_cli(["validate", "-"], stdin_text=_doc_text("so4_grassmann"))
    assert code == 0
    assert "ok" in out


def test_validate_reports_bad_bracket():
    doc = json.loads(_doc_text("heisenberg", n=1))
    # [e1,e2]=e3 with [e1,e3]=e1 breaks Jacobi at the triple (0, 1, 2)
    doc["brackets"] = [
        {"i": 0, "j": 1, "coeffs": {"2": "1"}},
        {"i": 0, "j": 2, "coeffs": {"0": "1"}},
    ]
    doc["ad_generators"] = []
    code, out, err = run_cli(["validate", "-"], stdin_text=json.dumps(doc))
    assert code == 1
    assert "jacobi violated at triple (0, 1, 2)" in out


# ---------------------------------------------------------------------------
# invariants


def test_invariants_pipe_from_example():
    code, doc, err = run_cli(["example", "heisenberg", "--n", "1"])
    assert code == 0
    code, out, err = run_cli(["invariants", "-"], stdin_text=doc)
    assert code == 0
    assert "dim 2" in out
    assert "u1^w" in out
    assert "v1^w" in out


def test_invariants_json_output():
    code, out, err = run_cli(
        ["invariants", "-", "--format", "json"], stdin_text=_doc_text("so4_grassmann")
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["dim"] == 2
    assert len(payload["basis"]) == 2
    assert payload["source"] == {"infinitesimal": True, "discrete": False}


# ---------------------------------------------------------------------------
# ybe


def test_ybe_reports_r_matrix():
    code, out, err = run_cli(
        ["ybe", "-", "--r", "e1^e2"], stdin_text=_doc_text("iso11")
    )
    assert code == 0
    assert "r-matrix" in out


def test_ybe_reports_obstruction_entries():
    code, out, err = run_cli(
        ["ybe", "-", "--r", "(e1 - e2)^e3"], stdin_text=_doc_text("iso11")
    )
    assert code == 0
    assert "not an r-matrix: 6 nonzero entries" in out
    assert "[[r,r]](e1*, e2*, e3*) = 2" in out


def test_ybe_json_payload():
    code, out, err = run_cli(
        ["ybe", "-", "--r", "(e1 - e2)^e3", "--format", "json"],
        stdin_text=_doc_text("iso11"),
    )
    payload = json.loads(out)
    assert payload["r_matrix"] is False
    assert len(payload["nonzero"]) == 6
    values = {tuple(entry["triple"]): entry["value"] for entry in payload["nonzero"]}
    assert values[("e1*", "e2*", "e3*")] == "2"


# ---------------------------------------------------------------------------
# scan


def test_scan_lists_candidates_with_flags():
    code, out, err = run_cli(["scan", "-"], stdin_text=_doc_text("heisenberg", n=1))
    assert code == 0
    assert "u1^w" in out and "v1^w" in out


def test_scan_json_counts():
    code, out, err = run_cli(
        ["scan", "-", "--format", "json"], stdin_text=_doc_text("heisenberg", n=1)
    )
    payload = json.loads(out)
    flags = [(c["invariant"], c["is_r_matrix"]) for c in payload["rows"]]
    assert len(flags) == 3  # two basis elements and their sum
    assert all(inv and isr for inv, isr in flags)


def test_scan_extra_candidate():
    code, out, err = run_cli(
        ["scan", "-", "--candidate", "(e1 - e2)^e3", "--format", "json"],
        stdin_text=_doc_text("iso11"),
    )
    payload = json.loads(out)
    extra = payload["rows"][-1]
    assert extra["kind"] == "candidate"
    assert extra["invariant"] is True
    assert extra["is_r_matrix"] is False


def test_scan_tests_invariance_of_candidate_rows_only(monkeypatch):
    # basis and sum rows lie in the invariant span they were built from;
    # only a --candidate row is tested for membership
    from lieps.exact import Subspace

    calls = count_calls(monkeypatch, Subspace, "contains")
    code, out, err = run_cli(
        ["scan", "-", "--candidate", "u1^v1", "--candidate", "u1^w"], _doc_text("heisenberg", n=1)
    )
    assert (code, err) == (0, "")
    assert out == (
        "5 candidates\n"
        "  [basis] u1^w: invariant, r-matrix\n"
        "  [basis] v1^w: invariant, r-matrix\n"
        "  [sum] u1^w + v1^w: invariant, r-matrix\n"
        "  [candidate] u1^v1: NOT invariant, not an r-matrix\n"
        "  [candidate] u1^w: invariant, r-matrix\n"
    )
    assert len(calls) == 2


# ---------------------------------------------------------------------------
# leaf


def test_leaf_frozen_so4():
    code, out, err = run_cli(
        ["leaf", "-", "--r", "(e1 - e4)^(e2 + e3)", "--format", "json"],
        stdin_text=_doc_text("so4_grassmann"),
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["a_dim"] == 4
    assert payload["radical_equals_h"] is True
    assert payload["reductive"] is True
    assert payload["symmetric"] is True


# ---------------------------------------------------------------------------
# connection


def test_leaf_evaluates_the_tensor_once(monkeypatch):
    import lieps.ybe

    calls = []
    real = lieps.ybe.yang_baxter_tensor

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(lieps.ybe, "yang_baxter_tensor", counted)
    text = _doc_text("heisenberg", n=2)
    code, out, err = run_cli(["leaf", "-", "--r", "u1^w"], stdin_text=text)
    assert code == 0, err
    assert len(calls) == 1


@pytest.mark.parametrize("kind", ["canonical", "natural", "left_symmetric", "fedosov"])
def test_connection_builds_one_m_table_and_no_isotropy_action(monkeypatch, kind):
    # the l-operators are integer contractions of r with the model's
    # m-bracket table, built once per job: the quotient kernel runs once per
    # quotient basis vector for it, and for nothing else, since a
    # connection never reads the isotropy action.  Every kind, and the
    # r-matrix check, read the one integer table set of r
    from lieps.ybe import Bivector

    calls = count_calls(monkeypatch, IsotropyModel, "_quotient_ints")
    actions = count_cached(monkeypatch, IsotropyModel, "action_moves")
    tables = count_cached(monkeypatch, IsotropyModel, "m_table")
    r_tables = count_cached(monkeypatch, Bivector, "int_tables")
    sharps = count_cached(monkeypatch, Bivector, "r_sharp")
    text = _doc_text("heisenberg", n=3)
    code, out, err = run_cli(["connection", "-", "--r", "u1^w + v1^w", "--kind", kind], text)
    assert code == 0, err
    assert len(calls) == 7  # quotient_dim
    assert actions == []
    assert len(tables) == 1
    # r_# is read by the tables and the Poisson compatibility check alike
    assert len(r_tables) == len(sharps) == 1


@pytest.mark.parametrize("kind", ["canonical", "natural", "left_symmetric", "fedosov"])
@pytest.mark.parametrize(
    "name, params, r_text",
    [
        ("heisenberg", {"n": 3}, "u1^w + v1^w"),
        ("double", {"n": 2, "of": "heisenberg"}, "m_u1^m_w - 2 m_v2^m_w"),
    ],
)
def test_connection_job_builds_no_fraction_matrix(monkeypatch, name, params, r_text, kind):
    # torsion, curvature and Poisson compatibility read the integer tables
    # of the connection: no Fraction matrix product or matrix combination
    # anywhere in the job, model build and r-matrix check included
    from lieps.exact import Mat

    text = _doc_text(name, **params)
    products = count_calls(monkeypatch, Mat, "__matmul__")
    combos = count_calls(monkeypatch, exact, "mat_lincomb")
    code, out, err = run_cli(["connection", "-", "--r", r_text, "--kind", kind], text)
    assert code == 0, err
    assert (len(products), len(combos)) == (0, 0)


@pytest.mark.parametrize(
    "name, n, argv",
    [
        ("heisenberg", 3, ["scan", "-"]),
        ("abelian", 6, ["scan", "-"]),
        ("heisenberg", 3, ["ybe", "-", "--r", "u1^w + v1^w"]),
        ("heisenberg", 3, ["leaf", "-", "--r", "u1^w + v1^w"]),
        ("heisenberg", 3, ["connection", "-", "--r", "u1^w + v1^w", "--kind", "fedosov"]),
    ],
)
def test_jobs_build_no_fraction_sharp_matrix(monkeypatch, name, n, argv):
    # a bivector is its integer wedge coordinates: the tensor, the leaf and
    # the connection read its integer tables, and the Fraction matrix r_mat,
    # the view of r_sharp, is built only for the oracles, as is every other
    # Mat.  A scan sums the integer rows of the invariant space, reads
    # no Fraction basis of it and prints its integer coefficients with no
    # Fraction; a connection prints its integer table, not the Fraction view b
    from lieps.connections import ConnectionMap
    from lieps.exact import Mat, Subspace
    from lieps.ybe import Bivector

    mats = [count_calls(monkeypatch, Mat, m) for m in ("__init__", "_trusted")]
    r_mats = count_cached(monkeypatch, Bivector, "r_mat")
    views = count_cached(monkeypatch, ConnectionMap, "b")
    bases = []
    basis = Subspace.basis
    monkeypatch.setattr(Subspace, "basis", property(lambda self: bases.append(self) or basis.fget(self)))
    fractions = []
    monkeypatch.setattr(cli, "Fraction", lambda *args: fractions.append(args) or Fraction(*args))
    code, out, err = run_cli(argv, _doc_text(name, n=n))
    assert code == 0, err
    assert r_mats == views == []
    assert mats == [[], []]
    if argv[0] == "scan":
        assert bases == fractions == []


@pytest.mark.parametrize(
    "name, params, r",
    [
        ("heisenberg", {"n": 2}, "u1^w + u2^w - 3*v1^w - v2^w"),
        ("heisenberg", {"n": 3}, "2*u1^w + u2^w + u3^w - v1^w + v2^w - v3^w"),
        ("so4_grassmann", {}, "2*e1^e2 - 2*e1^e3 - 2*e2^e4 + 2*e3^e4"),
        ("double", {"n": 2, "of": "heisenberg"}, "2*m_u1^m_w - 2*m_u2^m_w - m_v1^m_w - 2*m_v2^m_w"),
    ],
)
def test_integer_r_is_read_without_a_fraction(monkeypatch, name, params, r):
    # the documents and r-matrices of the rmatrix benchmark workload: an
    # integer --r is tokenized and summed in ints, and Bivector keeps its
    # int coordinates as they are: lieps.ybe builds no Fraction either
    reading, fractions, coerced = [], [], []

    class Counted(Fraction):
        def __new__(cls, *args):
            if reading:
                fractions.append(args)
            return Fraction(*args)

    class Coerced(Fraction):
        def __new__(cls, *args):
            coerced.append(args)
            return Fraction(*args)

    real = cli.parse_bivector_expr

    def parse(*args):
        reading.append(args)
        try:
            return real(*args)
        finally:
            reading.pop()

    text = _doc_text(name, **params)
    monkeypatch.setattr(cli, "Fraction", Counted)
    monkeypatch.setattr(cli, "parse_bivector_expr", parse)
    monkeypatch.setattr(ybe, "Fraction", Coerced)
    for argv in (["ybe"], ["leaf"], ["connection", "--kind", "fedosov"]):
        code, out, err = run_cli([*argv, "-", f"--r={r}"], text)
        assert (code, err) == (0, ""), argv
    assert fractions == coerced == []


@pytest.mark.parametrize("name, n, nonzeros", [("abelian", 16, 120), ("heisenberg", 6, 12)])
def test_text_invariants_builds_no_fraction(monkeypatch, name, n, nonzeros):
    # text output prints the integer rows of the space; only the JSON
    # basis_coords payload builds a Fraction, one per coefficient that is
    # not an integer (the patched name would fail the isinstance test of JSON output, so
    # only the text job runs under it)
    fractions = []

    class Counted(Fraction):
        def __new__(cls, *args):
            fractions.append(args)
            return Fraction(*args)

    text = _doc_text(name, n=n)
    with monkeypatch.context() as m:
        m.setattr(cli, "Fraction", Counted)
        code, out, err = run_cli(["invariants", "-"], text)
    assert code == 0, err
    assert fractions == []
    code, out, err = run_cli(["invariants", "-", "--format", "json"], text)
    assert code == 0, err
    payload = json.loads(out)
    assert sum(x != "0" for row in payload["basis_coords"] for x in row) == nonzeros
    assert len(payload["basis_coords"]) == payload["dim"] == len(payload["basis"])


def test_poisson_compat_builds_no_matrix_product_or_dot(monkeypatch):
    # R N_a + N_a^T R per a in ints over d_r d: no Fraction dot product,
    # where the triple loop made 2 n^3 of them (686 at n = 7), and no
    # Fraction matrix product, where r_# M_a + M_a^T r_# made 2 n of them
    from lieps.catalog import realize
    from lieps.connections import build_connection, poisson_compat_failures
    from lieps.exact import Mat
    from lieps.ybe import make_bivector

    L, iso = realize(builtin("heisenberg", {"n": 3}))
    labels = [L.labels[j] for j in iso.complement_indices]
    r = make_bivector(iso, parse_bivector_expr("u1^w + v1^w", labels))
    b = build_connection("fedosov", r)
    dots = count_calls(monkeypatch, exact, "dot")
    products = count_calls(monkeypatch, Mat, "__matmul__")
    failures = poisson_compat_failures(b)
    assert dots == []
    assert products == []
    assert failures == dense_poisson_compat_failures(r, b.b)


def test_complement_flags_read_the_integer_tables_not_brackets(monkeypatch):
    # [h, m] in m from the integer brackets of the rows of h with the
    # complement, and [m, m] in h from the m_table: no bracket per pair of
    # basis vectors
    from lieps.catalog import realize

    L, iso = realize(builtin("double", {"of": "heisenberg", "n": 2}))
    calls = count_calls(monkeypatch, liecore, "bracket")
    assert iso.reductive and iso.symmetric
    assert len(calls) == 0


def test_leaf_runs_the_quotient_kernel_once_per_h_basis_vector_and_m_table_column(monkeypatch):
    # the action reads one integer operator per row of h, the m_table one
    # per quotient basis vector, each once per job; the tensor, the
    # invariance check and the leaf frame read them and build no other
    text = _doc_text("double", of="heisenberg", n=2)
    calls = count_calls(monkeypatch, IsotropyModel, "_quotient_ints")
    actions = count_cached(monkeypatch, IsotropyModel, "action_moves")
    code, out, err = run_cli(["leaf", "-", "--r", "m_u1^m_w"], text)
    assert code == 0, err
    (iso,) = actions
    assert (iso.h_basis.dim, iso.quotient_dim, iso.discrete_generators) == (5, 5, ())
    assert len(calls) == 5 + 5


def test_tensor_and_l_operators_build_only_the_m_table(monkeypatch):
    # the tensor and the l-operators read the same integer tables of r, one
    # contraction with the model's m-bracket table: the quotient kernel runs
    # once per quotient basis vector for that table and for no sharp, and
    # there is no Mat product and no Fraction dot product
    from lieps.catalog import realize
    from lieps.exact import Mat
    from lieps.ybe import make_bivector

    _, iso = realize(builtin("heisenberg", {"n": 3}))
    r = make_bivector(iso, [1] * (iso.quotient_dim * (iso.quotient_dim - 1) // 2))
    calls = count_calls(monkeypatch, IsotropyModel, "_quotient_ints")
    tables = count_cached(monkeypatch, IsotropyModel, "m_table")
    products = count_calls(monkeypatch, Mat, "__matmul__")
    dots = count_calls(monkeypatch, exact, "dot")
    assert not r.tensor.is_zero()
    assert products == dots == []
    L, _ = r.int_tables
    assert len(L) == iso.quotient_dim == 7
    assert len(calls) == 7
    assert len(tables) == 1


def test_scan_job_builds_the_m_table_once(monkeypatch):
    # every row of a scan shares the job's model, so its m-bracket table is
    # built once however many bivectors the rows test
    tables = count_cached(monkeypatch, IsotropyModel, "m_table")
    calls = count_calls(monkeypatch, IsotropyModel, "_quotient_ints")
    code, out, err = run_cli(["scan", "-"], _doc_text("heisenberg", n=2))
    assert code == 0, err
    assert out.startswith("10 candidates\n")
    assert len(tables) == 1
    # h = 0: one operator per lattice generator for the action, one per
    # quotient basis vector for the m_table, and none per sharp
    assert len(calls) == 5 + 5


@pytest.mark.parametrize(
    "name, params, count",
    [
        ("heisenberg", {"n": 2}, 26),
        ("heisenberg", {"n": 3}, 57),
        ("abelian", {"n": 6}, 0),
        ("so4_grassmann", {}, 0),
    ],
)
def test_scan_builds_l_operators_on_the_support_alone(monkeypatch, name, params, count):
    # one l-operator per index of the support X of r_# per row, and none
    # when the m_table is zero (abelian, and the symmetric so4_grassmann);
    # building every L[a] per row read 50, 147, 720 and 12
    calls = count_calls(monkeypatch, IsotropyModel, "m_ad_ints")
    code, out, err = run_cli(["scan", "-"], _doc_text(name, **params))
    assert (code, err) == (0, "")
    assert len(calls) == count


@pytest.mark.parametrize(
    "name, params, r",
    [
        ("so4_grassmann", {}, "e1^e2 + e3^e4"),
        ("double", {"of": "heisenberg", "n": 2}, "m_u1^m_w + m_v1^m_w"),
    ],
)
def test_leaf_on_a_symmetric_pair_builds_no_l_operator(monkeypatch, name, params, r):
    # the tensor of a symmetric pair is zero with no l-operator, and Im r_#,
    # omega_r and the leaf frame read r_# and the m_table alone; reading r_#
    # through int_tables and the frame brackets through m_ad_ints built 8
    # and 5 l-operators
    calls = count_calls(monkeypatch, IsotropyModel, "m_ad_ints")
    code, out, err = run_cli(["leaf", "-", f"--r={r}"], _doc_text(name, **params))
    assert (code, err) == (0, "")
    assert calls == []


def test_tensor_calls_no_bracket(monkeypatch):
    # [r_# eps_a, r_# eps_b]_m is read as L[a] r_# eps_b, not lifted through s per pair
    from lieps.catalog import realize
    from lieps.ybe import make_bivector

    _, iso = realize(builtin("heisenberg", {"n": 2}))
    r = make_bivector(iso, [1] * (iso.quotient_dim * (iso.quotient_dim - 1) // 2))
    brackets = count_calls(monkeypatch, liecore, "bracket")
    m_brackets = count_calls(monkeypatch, liecore, "m_bracket")
    assert not r.tensor.is_zero()
    assert brackets == m_brackets == []


@pytest.mark.parametrize(
    "name, params, argv",
    [
        ("heisenberg", {"n": 3}, ["invariants", "-"]),
        ("gl_sym", {"n": 3}, ["invariants", "-"]),
        ("heisenberg", {"n": 2}, ["scan", "-"]),
        ("so4_grassmann", {}, ["leaf", "-", "--r", "(e1 - e4)^(e2 + e3)"]),
    ],
)
def test_jobs_read_the_isotropy_action_once_in_integers(monkeypatch, name, params, argv):
    # the invariant solve and the leaf read the model's integer action in
    # its sparse form, built once per job: the invariance rows are integers,
    # and no job makes a Fraction matrix product or a solve
    from lieps.exact import Mat
    from lieps.invariants import invariance_rows

    actions = count_cached(monkeypatch, IsotropyModel, "action_moves")
    products = count_calls(monkeypatch, Mat, "__matmul__")
    solves = count_calls(monkeypatch, exact, "solve")
    code, out, err = run_cli(argv, _doc_text(name, **params))
    assert code == 0, err
    (iso,) = actions
    assert solves == products == []
    rows = [row for block in invariance_rows(iso) for row in block]
    assert rows and all(type(x) is int for row in rows for x in row.values())


def test_leaf_inverts_one_block_of_r_sharp(monkeypatch):
    # omega_r is the inverse of r_# on the pivots of Im r_#, once per
    # bivector, in ints and with no solve; the checks and the output read it
    text = _doc_text("double", of="heisenberg", n=2)
    solves = count_calls(monkeypatch, exact, "solve")
    inverses = count_calls(monkeypatch, exact, "inverse")
    int_inverses = count_calls(monkeypatch, exact, "inverse_ints")
    code, out, err = run_cli(["leaf", "-", "--r", "m_u1^m_w", "--format", "json"], text)
    assert code == 0, err
    payload = json.loads(out)
    assert payload["a_dim"] == 7  # h of dim 5 plus Im r_# of dim 2
    assert (len(solves), len(inverses), len(int_inverses)) == (0, 0, 1)
    ((block, d),) = int_inverses
    assert (len(block), len(block[0]), d) == (2, 2, 1)
    assert all(type(x) is int for row in block for x in row)


@pytest.mark.parametrize(
    "name, params, r",
    [
        ("heisenberg", {"n": 3}, "u1^w + v1^w"),
        ("double", {"of": "heisenberg", "n": 2}, "m_u1^m_w + m_v1^m_w"),
        ("so4_grassmann", {}, "(e1 - e4)^(e2 + e3)"),
    ],
)
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_leaf_job_builds_no_fraction_matrix(monkeypatch, name, params, r, fmt):
    # the frame, omega_r and their checks read the integer tables of r: a
    # leaf job builds no Mat, inverts no Fraction matrix, builds neither
    # Fraction view q_matrix nor s_matrix of the model, and none of the
    # Fraction views of its LeafData
    from lieps.exact import Mat
    from lieps.foliation import LeafData

    mats = [count_calls(monkeypatch, Mat, m) for m in ("__init__", "_trusted", "__matmul__")]
    inverses = count_calls(monkeypatch, exact, "inverse")
    sections = [count_cached(monkeypatch, IsotropyModel, v) for v in ("q_matrix", "s_matrix")]
    views = [count_cached(monkeypatch, LeafData, v) for v in ("a_basis", "omega", "frame", "frame_omega")]
    code, out, err = run_cli(["leaf", "-", f"--r={r}", "--format", fmt], _doc_text(name, **params))
    assert (code, err) == (0, "")
    assert mats == [[]] * 3 and inverses == []
    assert sections == [[]] * 2
    assert views == [[]] * 4


def test_connection_fedosov_heisenberg():
    code, out, err = run_cli(
        ["connection", "-", "--r", "u1^w", "--kind", "fedosov", "--format", "json"],
        stdin_text=_doc_text("heisenberg", n=1),
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "fedosov"
    assert payload["torsion_zero"] is True
    assert payload["curvature_zero"] is True
    assert payload["poisson_compatible"] is True
    nonzero = payload["b"]
    assert len(nonzero) == 1
    assert nonzero[0] == {"eta": "w*", "xi": "w*", "value": "1/3 v1*"}


def test_connection_non_reductive_is_domain_error():
    doc = json.loads(_doc_text("iso11"))
    doc["subalgebra"] = [[1, 0, 0]]
    doc["ad_generators"] = []
    code, out, err = run_cli(
        ["connection", "-", "--r", "e2^e3", "--kind", "fedosov"],
        stdin_text=json.dumps(doc),
    )
    assert code == 1
    assert err == "error: the declared complement is not h-stable\n"


def test_connection_non_reductive_wins_over_a_malformed_r():
    # [x, y] = x with h = span{x}: [h, m] = span{x} leaves m = span{y}, and
    # that is reported before --r is parsed
    doc = {"dim": 2, "labels": ["x", "y"], "brackets": [{"i": 0, "j": 1, "coeffs": {"0": "1"}}],
           "subalgebra": [[1, 0]]}
    code, out, err = run_cli(
        ["connection", "-", "--r", "y^^", "--kind", "natural"], stdin_text=json.dumps(doc)
    )
    assert (code, out) == (1, "")
    assert err == "error: the declared complement is not h-stable\n"


@pytest.mark.parametrize(
    "name, params, r", [("iso11", {}, "e1^e3 - e2^e3"), ("heisenberg", {"n": 1}, "u1^v1")]
)
def test_connection_refuses_a_bivector_that_is_not_an_r_matrix(name, params, r):
    # ybe reports a nonzero Yang-Baxter tensor on both; a malformed --r is
    # still a parse error first
    doc = _doc_text(name, **params)
    for kind in ("canonical", "fedosov"):
        code, out, err = run_cli(["connection", "-", "--r", r, "--kind", kind], doc)
        assert (code, out) == (1, "")
        assert err == "error: the Yang-Baxter tensor does not vanish\n"
    code, out, err = run_cli(["connection", "-", "--r", r + " ^", "--kind", "fedosov"], doc)
    assert (code, out) == (2, "")
    assert err.startswith("parse error: --r: ")


# ---------------------------------------------------------------------------
# example


def test_example_emits_parseable_document():
    code, out, err = run_cli(["example", "double", "--of", "heisenberg", "--n", "1"])
    assert code == 0
    doc = json.loads(out)
    assert doc["dim"] == 6
    code2, out2, err2 = run_cli(["validate", "-"], stdin_text=out)
    assert code2 == 0


def test_example_without_required_param_is_domain_error():
    code, out, err = run_cli(["example", "double", "--of", "heisenberg"])
    assert code == 1


@pytest.mark.parametrize("argv", [["heisenberg", "--n", "-1"], ["abelian", "--n", "0"]])
def test_example_rejects_non_positive_size(argv):
    code, out, err = run_cli(["example"] + argv)
    assert code == 2
    assert out == ""
    assert "parse error: n: must be a positive integer" in err


# ---------------------------------------------------------------------------
# degenerate documents

WHOLE_ALGEBRA_IS_H = '{"dim":3,"brackets":[],"subalgebra":[[1,0,0],[0,1,0],[0,0,1]]}'


def test_isotropy_equal_to_whole_algebra():
    code, out, err = run_cli(["validate", "-"], stdin_text=WHOLE_ALGEBRA_IS_H)
    assert (code, err) == (0, "")
    assert "ok: true" in out
    code, out, err = run_cli(["invariants", "-"], stdin_text=WHOLE_ALGEBRA_IS_H)
    assert (code, out, err) == (0, "dim 0\n", "")
    code, out, err = run_cli(["scan", "-"], stdin_text=WHOLE_ALGEBRA_IS_H)
    assert (code, out, err) == (0, "0 candidates\n", "")


def test_zero_bivector_runs_when_h_is_g():
    # no quotient labels: "0" is the only bivector that can be written
    code, out, err = run_cli(["ybe", "-", "--r", "0"], stdin_text=WHOLE_ALGEBRA_IS_H)
    assert (code, out, err) == (0, "r-matrix\n", "")
    code, out, err = run_cli(
        ["connection", "-", "--r", "0", "--kind", "fedosov"], stdin_text=WHOLE_ALGEBRA_IS_H
    )
    assert (code, err) == (0, "")
    assert out.startswith("connection: fedosov\nb: 0\ntorsion: 0\n")


HEIS3 = '"dim":3,"labels":["u","v","w"],"brackets":[{"i":0,"j":1,"coeffs":{"2":"1"}}]'
DEGENERATE_COMMANDS = (
    ["validate"],
    ["invariants"],
    ["scan"],
    ["ybe", "--r", "0"],
    ["leaf", "--r", "0"],
    ["connection", "--r", "0", "--kind", "natural"],
)
VALIDATE_OK = "name: \ndim: %d\nok: true\n"
NATURAL_ZERO = "connection: natural\nb: 0\ntorsion: 0\ncurvature zero: true\npoisson compatible: true\n"
LEAF_W = "a_r: dim 1\n  w\nomega_r on that frame:\n  [0]\nradical equals h: true\n"
REDUCTIVE_SYMMETRIC = "decomposition: reductive true, symmetric true\n"
NOT_H_STABLE = "error: the declared complement is not h-stable\n"
# document, (exit code, stdout) of each of DEGENERATE_COMMANDS, and the
# stderr of those that exit 1
DEGENERATE_SUBSPACES = {
    "h = 0": (
        "{%s}" % HEIS3,
        [
            (0, VALIDATE_OK % 3),
            (0, "dim 3\n  u^v\n  u^w\n  v^w\n"),
            (0, "6 candidates\n  [basis] u^v: invariant, not an r-matrix\n"
                "  [basis] u^w: invariant, r-matrix\n  [basis] v^w: invariant, r-matrix\n"
                "  [sum] u^v + u^w: invariant, not an r-matrix\n"
                "  [sum] u^v + v^w: invariant, not an r-matrix\n"
                "  [sum] u^w + v^w: invariant, r-matrix\n"),
            (0, "r-matrix\n"),
            (0, "a_r: dim 0\nomega_r on that frame:\nradical equals h: true\n" + REDUCTIVE_SYMMETRIC),
            (0, NATURAL_ZERO),
        ],
        None,
    ),
    "h = g, dim 1": (
        '{"dim":1,"labels":["e"],"brackets":[],"subalgebra":[["1"]]}',
        [
            (0, VALIDATE_OK % 1),
            (0, "dim 0\n"),
            (0, "0 candidates\n"),
            (0, "r-matrix\n"),
            (0, "a_r: dim 1\n  e\nomega_r on that frame:\n  [0]\nradical equals h: true\n"
                + REDUCTIVE_SYMMETRIC),
            (0, NATURAL_ZERO),
        ],
        None,
    ),
    "h = g, heisenberg": (
        '{%s,"subalgebra":[[1,0,0],[0,1,0],[0,0,1]]}' % HEIS3,
        [
            (0, VALIDATE_OK % 3),
            (0, "dim 0\n"),
            (0, "0 candidates\n"),
            (0, "r-matrix\n"),
            (0, "a_r: dim 3\n  u\n  v\n  w\nomega_r on that frame:\n"
                "  [0, 0, 0]\n  [0, 0, 0]\n  [0, 0, 0]\nradical equals h: true\n" + REDUCTIVE_SYMMETRIC),
            (0, NATURAL_ZERO),
        ],
        None,
    ),
    "zero vector": (
        '{%s,"subalgebra":[[0,0,0],["0","0","-1"]]}' % HEIS3,
        [
            (0, VALIDATE_OK % 3),
            (0, "dim 1\n  u^v\n"),
            (0, "1 candidates\n  [basis] u^v: invariant, r-matrix\n"),
            (0, "r-matrix\n"),
            (0, LEAF_W + REDUCTIVE_SYMMETRIC),
            (0, NATURAL_ZERO),
        ],
        None,
    ),
    # three vectors spanning span{u, w}, with a negative leading entry, and
    # a generator that keeps it
    "dependent vectors": (
        '{%s,"subalgebra":[["-2","0","4"],["0","0","3/5"],["1","0","-1"]],'
        '"ad_generators":[[[1,0,0],[0,1,0],[-1,0,1]]]}' % HEIS3,
        [
            (0, VALIDATE_OK % 3),
            (0, "dim 0\n"),
            (0, "0 candidates\n"),
            (0, "r-matrix\n"),
            (0, "a_r: dim 2\n  u\n  w\nomega_r on that frame:\n  [0, 0]\n  [0, 0]\n"
                "radical equals h: true\n" + REDUCTIVE_SYMMETRIC),
            (1, ""),
        ],
        NOT_H_STABLE,
    ),
    "singular generator": (
        '{%s,"ad_generators":[[[1,0,0],[0,1,0],[0,0,0]]]}' % HEIS3,
        [(1, "")] * len(DEGENERATE_COMMANDS),
        "error: generator is singular\n",
    ),
}


@pytest.mark.parametrize("name", sorted(DEGENERATE_SUBSPACES))
def test_degenerate_subspaces_give_pinned_output(name):
    text, outputs, error = DEGENERATE_SUBSPACES[name]
    for command, (code, out) in zip(DEGENERATE_COMMANDS, outputs, strict=True):
        expected = (code, out, "" if code == 0 else error)
        assert run_cli([command[0], "-", *command[1:]], text) == expected, command


HEIS_BAD_COMPLEMENT = (
    '{"dim":3,"labels":["u","v","w"],"brackets":[{"i":0,"j":1,"coeffs":{"2":"1"}}],'
    '"subalgebra":[[0,0,1]],"complement":%s}'
)


@pytest.mark.parametrize("complement", ["[[1,0,0]]", "[[0,0,1],[1,0,0]]"])
def test_complement_not_transverse_to_h_is_parse_error(complement):
    # too few vectors, and a vector inside h: neither completes h to g
    code, out, err = run_cli(["invariants", "-"], stdin_text=HEIS_BAD_COMPLEMENT % complement)
    assert (code, out) == (2, "")
    assert err == "parse error: complement: does not complete the subalgebra to a basis\n"


HEIS_TILTED_H = (
    '{"dim":5,"labels":["u1","u2","v1","v2","w"],'
    '"brackets":[{"i":0,"j":2,"coeffs":{"4":"1"}},{"i":1,"j":3,"coeffs":{"4":"1"}}],'
    '"subalgebra":[[1,1,0,0,0]]}'
)


def test_leaf_of_a_non_invariant_r_matrix_is_not_invariant():
    # h = span{u1 + u2}, greedy complement u1, v1, v2, w: u1^v2 is an
    # r-matrix that h moves, and its a_r is not bracket-closed
    code, out, err = run_cli(["ybe", "-", "--r", "u1^v2"], HEIS_TILTED_H)
    assert (code, out) == (0, "r-matrix\n")
    code, out, err = run_cli(["leaf", "-", "--r", "u1^v2"], HEIS_TILTED_H)
    assert (code, out) == (1, "")
    assert err == "error: r is not invariant: the h-basis vector (1, 1, 0, 0, 0) moves it\n"
    code, out, err = run_cli(["leaf", "-", "--r", "u1^w"], HEIS_TILTED_H)
    assert (code, err) == (0, "")
    assert out.startswith("a_r: dim 3\n")


def test_leaf_refuses_a_non_invariant_r_matrix_whose_a_r_is_closed():
    # on heisenberg n=2, u1^u2 is an r-matrix with a closed a_r that the
    # first lattice generator moves
    code, out, err = run_cli(["leaf", "-", "--r", "u1^u2"], _doc_text("heisenberg", n=2))
    assert (code, out) == (1, "")
    assert err == "error: r is not invariant: the discrete generator ad_generators[0] moves it\n"


@pytest.mark.parametrize(
    "name, params, r",
    [
        ("so4_grassmann", {}, "(e1 - e4)^(e2 + e3)"),
        ("double", {"of": "heisenberg", "n": 2}, "m_u1^m_w + m_v1^m_w"),
        ("heisenberg", {"n": 3}, "u1^w + v1^w"),
    ],
)
def test_leaf_reads_a_r_off_one_bracket_per_image_pair(monkeypatch, name, params, r):
    # the model build checks h on its integer rows, with no bracket call;
    # the leaf layer reads one m-bracket per pair of Im r_# basis vectors
    # off the model's m_table and one ad-bar image per h-basis vector and
    # Im r_# basis vector off its action, with no bracket call either, and
    # after the build tests each of them once against the rows of Im r_#,
    # with no other membership test and no coordinates taken
    from lieps import catalog
    from lieps.exact import Subspace
    from lieps.ybe import make_bivector

    L, iso = catalog.realize(builtin(name, params or None))
    qlabels = [L.labels[j] for j in iso.complement_indices]
    image = make_bivector(iso, parse_bivector_expr(r, qlabels)).image
    calls = count_calls(monkeypatch, liecore, "bracket")
    coords = count_calls(monkeypatch, Subspace, "coords_of")
    residuals = count_calls(monkeypatch, Subspace, "residual")
    built = []
    realize = catalog.realize

    def marked(doc):
        out = realize(doc)
        built.append((len(coords), len(residuals)))
        return out

    monkeypatch.setattr(catalog, "realize", marked)
    code, out, err = run_cli(["leaf", "-", "--r", r], _doc_text(name, **params))
    assert (code, err) == (0, "")
    pairs = image.dim * (image.dim - 1) // 2
    assert len(built) == 1 and pairs > 0
    (n_coords, n_residuals), = built
    assert calls == []
    assert len(coords) == n_coords
    assert len(residuals) - n_residuals == iso.h_basis.dim * image.dim + pairs
    assert all(space == image for space, _ in residuals[n_residuals:])


# ---------------------------------------------------------------------------
# byte-identical scan, ybe and leaf output, pinned to the digests of the
# implementation with a dense structure-constant table; one scan r-matrix
# per document

OUTPUT_CASES = {
    "heisenberg": ({"n": 3}, "u1^w + v1^w"),
    "so4_grassmann": ({}, "e1^e2 + e1^e3 + e2^e4 + e3^e4"),
    "double": ({"of": "heisenberg", "n": 2}, "m_u1^m_w + m_v1^m_w"),
}

PINNED_OUTPUT_CASES_SHA256 = {
    ("heisenberg", "scan", "text"): "ddc22687d5a4d46c180bc0c229eca7033ffb52cfc40b58123ba7f81bffc73c38",
    ("heisenberg", "scan", "json"): "1ba67ef747ec8d7c9c32f3f21a0960c029097dfb223ac2571865341285b2273f",
    ("heisenberg", "ybe", "text"): "9e5c02f8be791433d6c66043ceb3ebfd974bdc7204bae0afb2933f127ca54578",
    ("heisenberg", "ybe", "json"): "b51cf1afa85233a98cc767fd2f89f7f7e47530c4eea6352fd6f47943cf043cdc",
    ("heisenberg", "leaf", "text"): "6b4cf1687ddd5531f4d1961a0eb128e23a5baae6e7031e6363097f820c3fdf0a",
    ("heisenberg", "leaf", "json"): "2fbc9177080bcc7df4199d194acfd7cba4cd439cbfc375b3dd79f80462538f50",
    ("so4_grassmann", "scan", "text"): "fe0835c281adc2c64b83a2a278b3e38ff5756d5874e7a4f146570ad2c357d4fc",
    ("so4_grassmann", "scan", "json"): "8da4a51f5e10e1356c2a1e65bb44feb058e9af458a6f64b2aeb0ddd195cd4eed",
    ("so4_grassmann", "ybe", "text"): "9e5c02f8be791433d6c66043ceb3ebfd974bdc7204bae0afb2933f127ca54578",
    ("so4_grassmann", "ybe", "json"): "0aab4df2d52b7fa23b0cd2c4c7d59b855336f1bbd2142536227e2e579265a80c",
    ("so4_grassmann", "leaf", "text"): "08506c9eb66e8269340092f953d3175b09bcbf7da5b5444d59db970d2edb9db2",
    ("so4_grassmann", "leaf", "json"): "ee3a40cf936d875a50f17d028a2b8c6ee1d1e74572faf052c4f98d6f5d53ab78",
    ("double", "scan", "text"): "c20d9913ffde62315c85aac284a9490b07713241f76fc7901e61ec6a79e8a66b",
    ("double", "scan", "json"): "705404a3dd8ae4513c3f52d7932fa83a72b12e87a1345d91f0c22a1fe8e83df3",
    ("double", "ybe", "text"): "9e5c02f8be791433d6c66043ceb3ebfd974bdc7204bae0afb2933f127ca54578",
    ("double", "ybe", "json"): "add07171a3d7b8454d44060e1b0a478ab30f1c54394f305f9962f73555e639a1",
    ("double", "leaf", "text"): "6ff6e22844e98c90d6d1049169f303c32f733d29982c7b8c186b4ffbdcdf6173",
    ("double", "leaf", "json"): "7da3b1360463b03b097e5a50d6060f2f1bbafbec12fd391f7b263e4afaf0df53",
}


# byte-identical scan output on more documents, pinned to the digests of the
# implementation that built every l-operator and the dense [.,.]_r table per
# row; heisenberg n=3, so4_grassmann and double(heisenberg n=2) are pinned
# above

PINNED_SCAN_SHA256 = {
    ("iso11", (), "text"): "26b61bc44f85358b5add4d85dfc10b9fb088f90602549404298956abf4516cbe",
    ("iso11", (), "json"): "551c088b22bcda7fc40f12215176b429e91722fc1f99e6d9f5cc2dcd51bcbf3c",
    ("gl_sym", (("n", 3),), "text"): "6030664b323d9bff6e7e3a7ba3693082b049b1e133c81aba533ab27595175df2",
    ("gl_sym", (("n", 3),), "json"): "fb2989323b717f2e869a06272d8ee4b35b4e516d6a555f4ce3d19f9ee3606ff0",
    ("abelian", (("n", 6),), "text"): "750c34c083bd96a3302489e735297db6132a2209dcc54c49fa764935efbbec44",
    ("abelian", (("n", 6),), "json"): "9ccd35bc0a048e80f77794b08dc206f8d86320c2ee025a86caa5171a3b963999",
}


@pytest.mark.parametrize("name, params, fmt", sorted(PINNED_SCAN_SHA256))
def test_scan_output_is_pinned(name, params, fmt):
    code, out, err = run_cli(["scan", "-", "--format", fmt], _doc_text(name, **dict(params)))
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_SCAN_SHA256[name, params, fmt]


def test_output_is_deterministic():
    for name, (params, r) in OUTPUT_CASES.items():
        doc = _doc_text(name, **params)
        for cmd in ("scan", "ybe", "leaf"):
            for fmt in ("text", "json"):
                argv = [cmd, "-"] + (["--r", r] if cmd != "scan" else []) + ["--format", fmt]
                code, out, err = run_cli(argv, doc)
                assert (code, err) == (0, ""), (name, cmd, fmt, err)
                digest = hashlib.sha256(out.encode()).hexdigest()
                assert digest == PINNED_OUTPUT_CASES_SHA256[(name, cmd, fmt)], (name, cmd, fmt)


# ---------------------------------------------------------------------------
# byte-identical output of the invariant solve and validation, pinned to the
# digests of the dense-route implementation

# byte-identical `example` output, pinned to the digests of the documents
# that stored their brackets beside the algebra

PINNED_EXAMPLE_SHA256 = {
    ("abelian", ("--n", "3")): "8656157ad77069d20a160f20c40bad1f6f6cc03ceb8f28fa44ed2c1f28a4b616",
    ("heisenberg", ("--n", "1")): "d871a341d2065bf860955bb452c4306f0ef7994bd5112984a6eba3152b1f8155",
    ("heisenberg", ("--n", "2")): "b4885f3a7014cf6f5ddc7c8fcc2c9d4fc0a4feeb173e233a451c373543aa78e5",
    ("iso11", ()): "b7ab43553b1e73427d4fa45133998b25f6b4edfb5a8eed69f49d762efae5a690",
    ("gl_sym", ("--n", "2")): "165093f93857012ad357e92f22126d1840bf3e3443a527be585c4828128499cb",
    ("so4_grassmann", ()): "82190fa1b9a0e86f6572f9454de16d89c59ef8181fbf8945493b76f39f647ad3",
    ("double", ("--of", "heisenberg", "--n", "1")): "e17795c5e21f4bcf5a7b5aec10189e319c62ed7975061e280f6b2e5da170581e",
    ("gl_sym", ("--n", "3")): "eb6a33a437f0a8f5578a802354f06c642cd8bc2bc54e64d2bdee2a0c821e9821",
    ("double", ("--of", "iso11")): "c759ff441e18f4940346f3310833bc5d09ecdc134978308a99dcfc8c173c3be0",
    # the output of the dense Fraction matrix products gl_sym was built from
    ("gl_sym", ("--n", "4")): "ad07691e493b44cde2d14de6ca986e79a2af32176a3fbbc9e3301be9f27338fa",
    ("gl_sym", ("--n", "5")): "282bc9163e145ac231ff3d9d16a9bf80c4a601b2e0b365c598245a09f56ae027",
    # the output of the lattice generators built as dense rows through Mat
    ("heisenberg", ("--n", "3")): "c2a92b4f9ccb1180c6e000291ec18b9dda4c5e942d7d535f1334f943c5e6eb39",
    ("heisenberg", ("--n", "4")): "7c0a385f92ccec2a9952e70f5db4db22adbbcf17bdab672b914479b57c25be96",
    ("heisenberg", ("--n", "5")): "5fdcd2eb7b3856684f378e9abd0135d1cc44bb1bc171a925abdeaeee75fe35f1",
    ("heisenberg", ("--n", "6")): "d7124d09b16a8fc307775bfc8fe5af03c2d90691895fb42e4fa0c6097f6d5291",
}


@pytest.mark.parametrize("name, args", sorted(PINNED_EXAMPLE_SHA256))
def test_example_output_is_pinned(name, args):
    code, out, err = run_cli(["example", name, *args])
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_EXAMPLE_SHA256[name, args]


PINNED_OUTPUT_SHA256 = {
    ("heisenberg", 5, "validate", "text"): "8a2cdb406cfd04d213814397359eee765c7f1892d4f839bb1a88392a6c16c063",
    ("heisenberg", 5, "validate", "json"): "a46369c6833addbc4660249ced812134b4a924fefafefff06f80cabd9d865874",
    ("heisenberg", 5, "invariants", "text"): "53ed2d05aac8901dff197c1dcc31f9909fa2757d2b76646b0025fb0a1a4351b0",
    ("heisenberg", 5, "invariants", "json"): "caf7635a055752c9abafbb7ebccd9d35355a07a83f283d4f67085e96900f9589",
    ("abelian", 16, "validate", "text"): "083eae17ffd8ca54f8d91e69b02e84689abcb7fb24ba0281d09499c8a4327015",
    ("abelian", 16, "validate", "json"): "a46369c6833addbc4660249ced812134b4a924fefafefff06f80cabd9d865874",
    ("abelian", 16, "invariants", "text"): "ae1003380d2f78cdf24620868d4c314d4aa113af198eff220a14ceedc56eda7a",
    ("abelian", 16, "invariants", "json"): "96107b2d60de2915b69e34baa9d01f92651e741467806be1b5780f9c7918f781",
}


@pytest.mark.parametrize("name,n", [("heisenberg", 5), ("abelian", 16)])
def test_validate_and_invariants_output_is_pinned(name, n):
    doc = _doc_text(name, n=n)
    for cmd in ("validate", "invariants"):
        for fmt in ("text", "json"):
            code, out, err = run_cli([cmd, "-", "--format", fmt], doc)
            assert code == 0, err
            digest = hashlib.sha256(out.encode()).hexdigest()
            assert digest == PINNED_OUTPUT_SHA256[(name, n, cmd, fmt)], (name, n, cmd, fmt)


# byte-identical connection output, pinned to the digests of the per-pair
# implementation; one invariant r-matrix per document, since connection
# refuses any other bivector

CONNECTION_CASES = {
    "heisenberg": ({"n": 3}, "u1^w + v1^w"),
    "double": ({"of": "heisenberg", "n": 2}, "m_u1^m_w + m_v1^m_w"),
    "iso11": ({}, "e1^e2"),
}

PINNED_CONNECTION_SHA256 = {
    ("heisenberg", "canonical", "text"): "8aa6e1e3a2405bd244c72c17a10af4d8d78e1b5593e3881dce900ee34e6ebd6a",
    ("heisenberg", "canonical", "json"): "e142d2987c89ac65198321c12aa55eeb5cc8ecc9b9b50eaacae08e2eef93609b",
    ("heisenberg", "natural", "text"): "beb23891f8c9b7b34a3fc4b8888f71ad2872e76017f17f8fa396fc572ecb76ec",
    ("heisenberg", "natural", "json"): "fc099f07bb6df1e58aaa99b88af5231fd6e82216cb62ba06a955457047e0f2e9",
    ("heisenberg", "left_symmetric", "text"): "0ff91666e57b8ed289bb7b59f6fbdcb4dbdbc3b3b89007812d557bdaa1730449",
    ("heisenberg", "left_symmetric", "json"): "74dcf440ebf4930f81da5f4320c7ccdbc2ac62a00932e0fa26d0002237f5c4f4",
    ("heisenberg", "fedosov", "text"): "36bfed2892413cfb2def0d91d5405a2ea6fe8580523d5dbd1a902f7feff51e16",
    ("heisenberg", "fedosov", "json"): "9dd38790aeb3bec9e4ebe8bd921abab52ea26dcfa14788448c5b89002a3179c2",
    ("double", "canonical", "text"): "8aa6e1e3a2405bd244c72c17a10af4d8d78e1b5593e3881dce900ee34e6ebd6a",
    ("double", "canonical", "json"): "e142d2987c89ac65198321c12aa55eeb5cc8ecc9b9b50eaacae08e2eef93609b",
    ("double", "natural", "text"): "beb23891f8c9b7b34a3fc4b8888f71ad2872e76017f17f8fa396fc572ecb76ec",
    ("double", "natural", "json"): "fc099f07bb6df1e58aaa99b88af5231fd6e82216cb62ba06a955457047e0f2e9",
    ("double", "left_symmetric", "text"): "081a133397580ff6b4528438292bb4e3acfd3785d4746d7dfe48c3c41e1ceefa",
    ("double", "left_symmetric", "json"): "1396d7ebd6aa1a85b9f85af384d8090d3ed48f213d31c7eb9a4b352393d04ead",
    ("double", "fedosov", "text"): "24e2fb9fd73301cdc112f0412364efe161363d3a702ab2923ee2e58e6a1495ae",
    ("double", "fedosov", "json"): "228d7b144bb22f48066f81537b4c5acd3d1e5b12eccf4ad8384a7fccaccbc359",
    ("iso11", "canonical", "text"): "8aa6e1e3a2405bd244c72c17a10af4d8d78e1b5593e3881dce900ee34e6ebd6a",
    ("iso11", "canonical", "json"): "e142d2987c89ac65198321c12aa55eeb5cc8ecc9b9b50eaacae08e2eef93609b",
    ("iso11", "natural", "text"): "beb23891f8c9b7b34a3fc4b8888f71ad2872e76017f17f8fa396fc572ecb76ec",
    ("iso11", "natural", "json"): "fc099f07bb6df1e58aaa99b88af5231fd6e82216cb62ba06a955457047e0f2e9",
    ("iso11", "left_symmetric", "text"): "7db6db35853c66663500ca6c11280a1854cc9f63bf96b535ec25a4aa442d07e5",
    ("iso11", "left_symmetric", "json"): "a55e2ac5168829315b10683645c7fea0007ac943d1f12efb755e2c7dc704651f",
    ("iso11", "fedosov", "text"): "3df8c2a9afef6b3dabccb3caef400b4339cba1fe70acaa77a6120c9324070da2",
    ("iso11", "fedosov", "json"): "7e4163277b48526bf6597cfd4cf2610bb8e9519ab8cd047503eef6d3e6bd8102",
}


@pytest.mark.parametrize("name", sorted(CONNECTION_CASES))
def test_connection_output_is_pinned(name):
    params, r = CONNECTION_CASES[name]
    doc = _doc_text(name, **params)
    for kind in ("canonical", "natural", "left_symmetric", "fedosov"):
        for fmt in ("text", "json"):
            argv = ["connection", "-", "--r", r, "--kind", kind, "--format", fmt]
            code, out, err = run_cli(argv, doc)
            assert code == 0, err
            digest = hashlib.sha256(out.encode()).hexdigest()
            assert digest == PINNED_CONNECTION_SHA256[(name, kind, fmt)], (name, kind, fmt)


# byte-identical output where a printed coefficient is not an integer,
# pinned to the digests of the formatter that printed Fraction sequences.
# RD31 is rd31-sl2+solv2, the last of the random-dense documents drawn with
# random.Random(3) in perfbench/workloads.py: its invariant basis prints
# e1^e2 - 1/2 e2^e3

RD31 = json.dumps({
    "name": "rd31-sl2+solv2",
    "dim": 5,
    "brackets": [
        {"i": 0, "j": 1, "coeffs": {"0": "-3/14", "1": "-5/2", "2": "-27/7", "3": "4/7", "4": "-33/14"}},
        {"i": 0, "j": 2, "coeffs": {"0": "-81/56", "1": "27/8", "2": "27/28", "3": "33/14", "4": "-219/56"}},
        {"i": 0, "j": 3, "coeffs": {"0": "-103/56", "1": "29/8", "2": "109/28", "3": "15/14", "4": "-13/56"}},
        {"i": 0, "j": 4, "coeffs": {"0": "19/28", "1": "-5/4", "2": "-25/14", "3": "-1/7", "4": "-15/28"}},
        {"i": 1, "j": 2, "coeffs": {"0": "-15/14", "1": "-3/2", "2": "33/7", "3": "-50/7", "4": "59/14"}},
        {"i": 1, "j": 3, "coeffs": {"0": "-43/28", "1": "-11/4", "2": "33/14", "3": "-39/7", "4": "87/28"}},
        {"i": 1, "j": 4, "coeffs": {"0": "-17/14", "1": "1/2", "2": "15/7", "3": "4/7", "4": "37/14"}},
        {"i": 2, "j": 3, "coeffs": {"0": "-47/28", "1": "1/4", "2": "53/14", "3": "-27/7", "4": "43/28"}},
        {"i": 2, "j": 4, "coeffs": {"0": "137/56", "1": "-3/8", "2": "-83/28", "3": "23/14", "4": "-61/56"}},
        {"i": 3, "j": 4, "coeffs": {"0": "113/56", "1": "-3/8", "2": "-75/28", "3": "11/14", "4": "-101/56"}},
    ],
    "subalgebra": [["1/7", "0", "-3/7", "2/7", "-3/7"], ["-9/28", "-1/4", "3/14", "-1/7", "13/28"]],
})


def _tilted_heisenberg():
    # heisenberg n=2 with h = span{2 u1 + u2}: the leaf frame prints u1 + 1/2 u2
    doc = json.loads(_doc_text("heisenberg", n=2))
    del doc["ad_generators"]
    doc["subalgebra"] = [[2, 1, 0, 0, 0]]
    return json.dumps(doc)


NON_INTEGER_CASES = {
    "leaf": (["leaf", "-", "--r", "v1^w"], _tilted_heisenberg),
    "ybe": (["ybe", "-", "--r", "1/2*u1^w - 3/4*v1^w"], lambda: _doc_text("heisenberg", n=3)),
    "invariants": (["invariants", "-"], lambda: RD31),
    "scan": (["scan", "-"], lambda: RD31),
}

PINNED_NON_INTEGER_SHA256 = {
    ("leaf", "text"): "781bc630dd9e3e44ce4d6623ab7bf323d12de877e8e4bf07556a703fcb9b8f59",
    ("leaf", "json"): "030544d31782bfdcb114497e93dba3901bb8c038982b62bcf9be6413fc4ee413",
    ("ybe", "text"): "9e5c02f8be791433d6c66043ceb3ebfd974bdc7204bae0afb2933f127ca54578",
    ("ybe", "json"): "b04ed7c111a34035613a12181e32a7d22d259b843f22b8568cf7b2d9fc6d9ce7",
    ("invariants", "text"): "0f912d90919601d2336d23f961993d8f553c18c566add6a617621130d43a10cc",
    ("invariants", "json"): "7322e44fea92b93c620c1ae1cafa0775b74ecef9f1073b8abf59f6c373000a93",
    ("scan", "text"): "b5eb460f83c038d22d6f4872c065f2d28cd84604375813f9bb2991c41e529fe1",
    ("scan", "json"): "670ac91206aa9521ec452e46334f0544a1b55f0e225f954bbed367c1c8264de7",
}


@pytest.mark.parametrize("name, fmt", sorted(PINNED_NON_INTEGER_SHA256))
def test_non_integer_coefficients_print_as_pinned(name, fmt):
    argv, doc = NON_INTEGER_CASES[name]
    code, out, err = run_cli(argv + ["--format", fmt], doc())
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_NON_INTEGER_SHA256[name, fmt]


# byte-identical leaf output where the integer frame and omega_r are
# degenerate, pinned to the digests of the Fraction-matrix route: an empty
# image with h = g, an empty frame, a zero block beside h, a full-rank
# omega_r with no h, and an omega_r and a frame with denominators.  RD37 is
# rd37-so3, drawn like the random-dense documents of perfbench/workloads.py
# with random.Random(3)

RD37 = json.dumps({
    "name": "rd37-so3",
    "dim": 3,
    "brackets": [
        {"i": 0, "j": 1, "coeffs": {"0": "-4/7", "1": "-2/7", "2": "-18/7"}},
        {"i": 0, "j": 2, "coeffs": {"0": "-5/7", "1": "22/7", "2": "2/7"}},
        {"i": 1, "j": 2, "coeffs": {"0": "-29/14", "1": "5/7", "2": "-4/7"}},
    ],
    "subalgebra": [["-3/14", "1/7", "2/7"]],
})

DEGENERATE_LEAF_CASES = {
    "h = g, dim 2": (
        '{"dim":2,"labels":["x","y"],"brackets":[{"i":0,"j":1,"coeffs":{"1":"1"}}],'
        '"subalgebra":[[1,0],[0,1]]}',
        "0",
    ),
    "abelian dim 1": (_doc_text("abelian", n=1), "0"),
    "heisenberg, h = span{w}": ('{%s,"subalgebra":[[0,0,1]]}' % HEIS3, "0"),
    "abelian dim 2": (_doc_text("abelian", n=2), "e1^e2"),
    "rd37-so3": (RD37, "-3*e1^e2"),
}

PINNED_DEGENERATE_LEAF_SHA256 = {
    ("h = g, dim 2", "text"): "0fd4d695c133c3d287a931c6f84871a2da524a9e7bc12394b31701cc42476862",
    ("h = g, dim 2", "json"): "c73568e58b59c1b52013b16832a4b1f64abafa3540e24f109ecba0261c91122c",
    ("abelian dim 1", "text"): "b265826fa402cb8ae219dba9b8645d5526438552a50cb6b40f985814c312eb97",
    ("abelian dim 1", "json"): "a597349163d67ecf9a17e704e060ca2b0373661f3968876563be02077ccd9f3c",
    ("heisenberg, h = span{w}", "text"): "e30d1d7a6f4de35e8a8b22653a541e43349fa7f450573ccfce7bc5438f7bdbcc",
    ("heisenberg, h = span{w}", "json"): "1a7420f5aa76c2eb46277d6e4a869cea614e91b6b1baf89612c14a730aab8bdc",
    ("abelian dim 2", "text"): "ce1810ef6b11c3e9f5ee3e6103d1d083c82e7cf8dc5dd87aba386bad113a470d",
    ("abelian dim 2", "json"): "ddaa58ed50682883fc225d4a115f218ba78f763257c56f56fb40fcec27fcdf97",
    ("rd37-so3", "text"): "b846a45849d862cac729d1e9bf705376b5aa9344593f22a4ecbac86bda27674a",
    ("rd37-so3", "json"): "86cc64c54f40e23725cd13588c9508bfcc9b8d941a9ccb5e358dd97d799caa41",
}


@pytest.mark.parametrize("name, fmt", sorted(PINNED_DEGENERATE_LEAF_SHA256))
def test_degenerate_leaf_output_is_pinned(name, fmt):
    doc, r = DEGENERATE_LEAF_CASES[name]
    code, out, err = run_cli(["leaf", "-", f"--r={r}", "--format", fmt], doc)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_DEGENERATE_LEAF_SHA256[name, fmt]


# byte-identical invariants and leaf output where the isotropy action has
# denominators, pinned to the digests of the implementation that built each
# operator of the action as dense integer rows: iso11's generator has entries
# +-1/2, sl2+solv2#5 is random_generator_instance(5), generators with
# denominators 9 and 198 acting beside a non-coordinate h, and "tilted" is
# h = span{a + b} with the complement (b, c)


def _transported_generator_document(seed):
    _, L, iso, _ = random_generator_instance(seed)
    return emit(AlgebraDocument(
        name="transported",
        algebra=L,
        subalgebra=iso.h_basis.basis,
        complement=iso.complement_indices,
        ad_generators=iso.generators,
    ))


TILTED = json.dumps({
    "name": "tilted",
    "dim": 3,
    "labels": ["a", "b", "c"],
    "brackets": [{"i": 0, "j": 2, "coeffs": {"0": "1"}}, {"i": 1, "j": 2, "coeffs": {"1": "-1"}}],
    "subalgebra": [[1, 1, 0]],
    "complement": [[0, 1, 0], [0, 0, 1]],
})

ACTION_CASES = {
    "iso11": (lambda: _doc_text("iso11"), "e1^e2"),
    "sl2+solv2#5": (
        lambda: _transported_generator_document(5),
        "e1^e2 + e1^e3 + 1/3*e2^e3 + 1/3*e2^e4 + 1/3*e3^e4",
    ),
    "tilted": (lambda: TILTED, "b^c"),
}

PINNED_ACTION_SHA256 = {
    ("iso11", "invariants", "text"): "c3386f04134704eddc615448a98acb58f197b8174eaa90ce6d77cab9da51392c",
    ("iso11", "invariants", "json"): "9b52e1a3b4c17faba6cb0797dbb3a8fbfef5e1c7e34ae4ede552d53e3c6480fa",
    ("iso11", "leaf", "text"): "ce1810ef6b11c3e9f5ee3e6103d1d083c82e7cf8dc5dd87aba386bad113a470d",
    ("iso11", "leaf", "json"): "e42e85bcf8e0a4ab352d08dfaefab23b24da1843610384386fed5ff388e5bd60",
    ("sl2+solv2#5", "invariants", "text"): "5a79c8fc9173e8959f99e66bd7ed6a6f4914092901dabcb25d2cd43a77190c70",
    ("sl2+solv2#5", "invariants", "json"): "10dda4e2417a9db0072308add981930145b0b600f302a2b1caf48ccc7005ff3c",
    ("sl2+solv2#5", "leaf", "text"): "fc486ac2c3f8a2690c53cfacceecba6ab8aa2c33f9710247f39aacc9b7143b97",
    ("sl2+solv2#5", "leaf", "json"): "5b40050b963ed10e594cd21cf5adc7e1ad37ae0766146bfc0384f86dc8ee014e",
    ("tilted", "invariants", "text"): "3ed3a5c84494768acf93236397fa83ffa27d7acb57a18f3c85c0bb3e9786573c",
    ("tilted", "invariants", "json"): "401c9190a560111a6f14f06959116dfb684d15f48d48499a4310c5f411637629",
    ("tilted", "leaf", "text"): "5fe7cda2aa575f9f9b72f1c42c8a236cd8375ea0715a619da19f463589026ea7",
    ("tilted", "leaf", "json"): "3aca389eb42a3db9d2d06518065b7436f3c232f76433f0521a6c14052cf8d7f9",
}


@pytest.mark.parametrize("name, cmd, fmt", sorted(PINNED_ACTION_SHA256))
def test_output_under_an_action_with_denominators_is_pinned(name, cmd, fmt):
    doc, r = ACTION_CASES[name]
    argv = [cmd, "-"] + ([f"--r={r}"] if cmd == "leaf" else []) + ["--format", fmt]
    code, out, err = run_cli(argv, doc())
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_ACTION_SHA256[name, cmd, fmt]


# ---------------------------------------------------------------------------
# invariants printed off the integer rows of the invariant space, and
# generators read once into their integer form


def _dense_invariants_output(iso, fmt):
    """The invariants output by the dense route: each Fraction basis vector of the view printed."""
    qlabels = [iso.L.labels[j] for j in iso.complement_indices]
    space = dense_invariant_bivectors(iso)
    pretty = [_format(wedge_words(qlabels), v) for v in space.basis]
    if fmt == "json":
        payload = {
            "dim": space.dim,
            "basis_coords": space.basis,
            "basis": pretty,
            "source": {"infinitesimal": iso.h_basis.dim > 0, "discrete": bool(iso.discrete_generators)},
        }
        return json.dumps(payload, indent=2, sort_keys=True, default=str) + "\n"
    return "\n".join([f"dim {space.dim}"] + [f"  {p}" for p in pretty]) + "\n"


def _check_invariants_against_dense(text):
    _, iso = catalog.realize(catalog.parse(text))
    for fmt in ("text", "json"):
        assert run_cli(["invariants", "-", "--format", fmt], text) == (
            0,
            _dense_invariants_output(iso, fmt),
            "",
        ), fmt


@pytest.mark.parametrize(
    "name, params",
    [(name, params) for _, name, params in CATALOG_ENTRIES]
    + [
        ("heisenberg", {"n": 3}),
        ("gl_sym", {"n": 3}),
        ("double", {"of": "iso11"}),
        ("double", {"of": "heisenberg", "n": 2}),
        ("abelian", {"n": 7}),
    ],
)
def test_invariants_from_rows_match_the_dense_route_on_the_catalog(name, params):
    _check_invariants_against_dense(emit(builtin(name, params)))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**20), st.booleans())
def test_invariants_from_rows_match_the_dense_route_on_transported_models(seed, with_generators):
    # h and the generators under a rational change of basis: rows with
    # denominators, negative entries and generator blocks scaled by them
    if with_generators:
        _, L, iso, _ = random_generator_instance(seed)
    else:
        _, L, iso, _ = next(random_instances(seed, 1))
    doc = AlgebraDocument(
        name="transported",
        algebra=L,
        subalgebra=iso.h_basis.basis,
        complement=iso.complement_indices,
        ad_generators=iso.generators,
    )
    _check_invariants_against_dense(emit(doc))


def _count_property(monkeypatch, cls, name):
    """Instances on which the property cls.name is read, which still works."""
    reads = []
    real = cls.__dict__[name]
    monkeypatch.setattr(cls, name, property(lambda self: reads.append(self) or real.fget(self)))
    return reads


@pytest.mark.parametrize("name, n", [("abelian", 16), ("heisenberg", 6)])
def test_text_invariants_builds_no_basis_view_and_no_generator_matrix(monkeypatch, name, n):
    # the basis is printed off the integer rows, and the generators are
    # checked and acted with in their integer form
    text = _doc_text(name, n=n)
    views = _count_property(monkeypatch, exact.Subspace, "basis")
    mats = _count_property(monkeypatch, liecore.Generator, "mat")
    model_mats = count_cached(monkeypatch, IsotropyModel, "discrete_generators")
    code, out, err = run_cli(["invariants", "-"], text)
    assert code == 0, err
    assert views == mats == model_mats == []


@pytest.mark.parametrize(
    "argv",
    [
        ["validate", "-"],
        ["invariants", "-"],
        ["scan", "-"],
        ["ybe", "-", "--r", "u1^w + v1^w"],
        ["leaf", "-", "--r", "u1^w + v1^w"],
        ["connection", "-", "--r", "u1^w + v1^w", "--kind", "fedosov"],
    ],
)
def test_jobs_read_each_generator_once_into_ints(monkeypatch, argv):
    # parse reads the generator literals into ints, with no Fraction per
    # entry; the automorphism check and the model share that form, and no
    # job builds a generator Fraction matrix
    fractions = []

    class Counted(Fraction):
        def __new__(cls, *args):
            fractions.append(args)
            return Fraction(*args)

    text = _doc_text("heisenberg", n=3)
    monkeypatch.setattr(catalog, "Fraction", Counted)
    monkeypatch.setattr(liecore, "Fraction", Counted)
    checks = count_calls(monkeypatch, liecore, "_check_automorphism")
    mats = _count_property(monkeypatch, liecore.Generator, "mat")
    model_mats = count_cached(monkeypatch, IsotropyModel, "discrete_generators")
    models = []
    real = catalog.make_isotropy
    monkeypatch.setattr(catalog, "make_isotropy", lambda *a, **k: models.append(real(*a, **k)) or models[-1])
    code, out, err = run_cli(argv, text)
    assert code == 0, err
    (iso,) = models
    assert fractions == mats == model_mats == []
    assert len(checks) == len(iso.generators) == 7
    assert all(A is B for (_, A, _), B in zip(checks, iso.generators))


def test_validate_reads_a_rational_subalgebra_without_a_fraction(monkeypatch):
    # h = span{u1/2 + 2u2/3, w/3} on heisenberg n=2, kept by its lattice
    # generators: parse reads each vector into an integer row, and the model
    # eliminates those rows as they stand
    fractions = []

    class Counted(Fraction):
        def __new__(cls, *args):
            fractions.append(args)
            return Fraction(*args)

    data = json.loads(_doc_text("heisenberg", n=2))
    data["subalgebra"] = [["1/2", "2/3", "0", "0", "0"], ["0", "0", "0", "0", "1/3"]]
    monkeypatch.setattr(catalog, "Fraction", Counted)
    monkeypatch.setattr(liecore, "Fraction", Counted)
    models = []
    real = catalog.make_isotropy
    monkeypatch.setattr(catalog, "make_isotropy", lambda *a, **k: models.append(real(*a, **k)) or models[-1])
    code, out, err = run_cli(["validate", "-"], json.dumps(data))
    assert (code, err) == (0, "")
    (iso,) = models
    assert iso.h_basis.rows == ((0, {0: 3, 1: 4}), (4, {4: 1}))
    assert fractions == []


def test_generator_work_follows_the_moved_columns(monkeypatch):
    # heisenberg n=6: each of the 12 lattice generators moves one column and
    # the 13th is the identity, so the automorphism check brackets the 12
    # pairs that meet each moved column, and each invariance block holds the
    # 11 nonzero rows of N^N - d^2 I, none for the identity
    from lieps.invariants import invariance_rows

    text = _doc_text("heisenberg", n=6)
    brackets = count_calls(monkeypatch, liecore, "_sparse_bracket")
    checks = count_calls(monkeypatch, liecore, "_check_automorphism")
    code, out, err = run_cli(["validate", "-"], text)
    assert code == 0, err
    assert (len(checks), len(brackets)) == (13, 144)
    # an invariants job finds each generator's moved columns once, in its
    # check, and builds the blocks off them without transposing an operator
    # (the parent read 13 transposes and 26 scans)
    transposes = count_calls(monkeypatch, liecore.Generator, "rows")
    scans = count_calls(monkeypatch, liecore, "moved_part")
    code, out, err = run_cli(["invariants", "-"], text)
    assert (code, err) == (0, "")
    assert (len(transposes), len(scans)) == (0, 13)
    _, iso = catalog.realize(catalog.parse(text))
    assert [len(block) for block in invariance_rows(iso)] == [11] * 12 + [0]



_WIDE_DIGESTS = json.loads(
    (Path(__file__).resolve().parent.parent / "perfbench" / "expected_digests.json").read_text()
)["wide"]


@pytest.mark.parametrize(
    "name, n, most_blocks, indexes",
    # gl_sym n=4: h = so(4) gives 6 derivation blocks of 40 nonzero rows over
    # the 45 wedge columns, and the kernel is zero within the first 3; abelian
    # n=16 has h = 0, so no block, no row and no kernel index
    [("gl_sym", 4, 3, 1), ("abelian", 16, 0, 0)],
)
def test_invariant_solve_stops_building_rows_once_the_kernel_is_zero(
    monkeypatch, name, n, most_blocks, indexes
):
    built = count_calls(monkeypatch, invariants, "invariance_block")
    indexed = count_calls(monkeypatch, exact, "_unit_kernel")
    code, out, err = run_cli(["invariants", "-"], _doc_text(name, n=n))
    assert (code, err) == (0, "")
    assert [0, hashlib.sha256(out.encode()).hexdigest()] == _WIDE_DIGESTS[f"{name}({n}) invariants"]
    assert len(built) <= most_blocks
    assert len(indexed) == indexes

def test_generator_checks_survive_optimize_flag():
    # the integer automorphism check raises, it does not assert: under
    # python -O a singular generator and one that is no automorphism still
    # fail validate and invariants with their messages
    docs = {
        '{%s,"ad_generators":[[[1,0,0],[0,1,0],[0,0,0]]]}' % HEIS3: "error: generator is singular\n",
        '{%s,"ad_generators":[[[1,0,0],[0,1,0],[0,0,2]]]}' % HEIS3: "error: A[e1, e2] != [Ae1, Ae2]\n",
    }
    script = (
        "import json, sys\n"
        "from lieps.cli import run_cli\n"
        "docs = json.loads(sys.stdin.read())\n"
        "print(json.dumps([run_cli([cmd, '-'], d) for d in docs for cmd in ('validate', 'invariants')]))\n"
    )
    src = str(Path(liecore.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-O", "-c", script],
        input=json.dumps(list(docs)),
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0, out.stderr
    expected = [[1, "", err] for err in docs.values() for _ in range(2)]
    assert json.loads(out.stdout) == expected


@pytest.mark.parametrize("name, params", [("heisenberg", {"n": 2}), ("iso11", {})])
def test_scan_output_survives_optimize_flag(name, params):
    # the tensor's shortcuts over the support of r_# and a zero m_table are
    # branches, not asserts: scan prints the same under python -O
    text = _doc_text(name, **params)
    src = str(Path(liecore.__file__).resolve().parents[1])
    runs = [
        subprocess.run(
            [sys.executable, *flags, "-m", "lieps.cli", "scan", "-"],
            input=text,
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True,
            text=True,
        )
        for flags in ((), ("-O",))
    ]
    assert [(run.returncode, run.stderr) for run in runs] == [(0, "")] * 2
    assert runs[0].stdout == runs[1].stdout
    assert runs[0].stdout.count("\n") > 1

