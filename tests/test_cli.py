import hashlib
import json

import pytest

from lieps.catalog import builtin, emit
from lieps.cli import format_bivector, format_covector, parse_bivector_expr, run_cli
from lieps.errors import DocumentError


def _doc_text(name, **params):
    return emit(builtin(name, params or None))


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
    text = format_bivector(labels, (0, 1, 0))
    assert text == "u1^w"
    assert parse_bivector_expr(text, labels) == (0, 1, 0)
    assert format_covector(labels, (1, 0, -2)) == "u1* - 2 w*"


# ---------------------------------------------------------------------------
# exit codes


def test_no_command_is_usage_error():
    code, out, err = run_cli([])
    assert code == 2


def test_help_exits_zero():
    code, out, err = run_cli(["--help"])
    assert code == 0
    assert "usage" in out.lower()


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
    assert "error:" in err


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


def test_output_is_deterministic():
    first = run_cli(["scan", "-", "--json"], stdin_text=_doc_text("so4_grassmann"))
    second = run_cli(["scan", "-", "--json"], stdin_text=_doc_text("so4_grassmann"))
    assert first == second


# ---------------------------------------------------------------------------
# byte-identical output of the invariant solve and validation, pinned to the
# digests of the dense-route implementation

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
