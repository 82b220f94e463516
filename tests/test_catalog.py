import json
import re
from fractions import Fraction as QQ
from math import lcm

import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import CATALOG_ENTRIES, count_cached, span_oracle
from lieps import catalog, liecore
from lieps.cli import run_cli
from lieps.errors import DocumentError, LiepsError
from lieps.exact import Mat, int_vectors
from lieps.liecore import Generator, IsotropyModel, bracket, make_lie_algebra, validate


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
    # the integers as written; the table and Fraction take lowest terms
    assert catalog.read_rational("3/2", "x") == (3, 2)
    assert catalog.read_rational("-7", "x") == (-7, 1)
    assert catalog.read_rational(2, "x") == (2, 1)
    for text, pair in [("٣/٤", (3, 4)), (" +6/4 ", (6, 4)), ("-0/5", (0, 5))]:
        p, q = catalog.read_rational(text, "x")
        assert type(p) is int and type(q) is int and (p, q) == pair
    for flag in (True, False):
        with pytest.raises(DocumentError, match="not a rational literal"):
            catalog.read_rational(flag, "x")
    for bad in ("nope", 1.5):
        with pytest.raises(DocumentError, match="not a rational literal"):
            catalog.read_rational(bad, "x")
    # the path is formatted from its parts, and only when the literal is bad
    with pytest.raises(DocumentError) as exc:
        catalog.read_rational("1/0", "v[{}][{}]", 2, "k")
    assert (exc.value.path, exc.value.msg) == ("v[2][k]", "zero denominator")


# the language read_rational reads in a string, once stripped, as it was written first
_RATIONAL_ORACLE = re.compile(r"^([+-]?\d+)(?:/(\d+))?$")


@settings(max_examples=400, deadline=None)
@given(st.text(st.sampled_from(["+", "-", "_", "²", "٣", "𝟙", " ", "/", "0", "1", "7", "\n", "x", "½"]), max_size=7))
def test_read_rational_reads_the_language_of_the_regex(text):
    m = _RATIONAL_ORACLE.match(text.strip())
    if m is None:
        with pytest.raises(DocumentError) as exc:
            catalog.read_rational(text, "x")
        assert exc.value.msg == f"not a rational literal: {text.strip()!r}"
    elif int(m.group(2) or 1) == 0:
        with pytest.raises(DocumentError, match="zero denominator"):
            catalog.read_rational(text, "x")
    else:
        assert catalog.read_rational(text, "x") == (int(m.group(1)), int(m.group(2) or 1))


_UNIT = ["1", "0", "0"]


# documents with two faults: the one the reader meets first is reported, in
# the words of the check that meets it
@pytest.mark.parametrize(
    "text, message",
    [
        ('{"dim": 2, "zeta": 1, "alpha": 2}', "zeta: unknown field"),
        ('{"dim": 0, "zeta": 1}', "zeta: unknown field"),
        ('{"dim": 3, "brackets": [{"i": 0, "j": "x", "k": 1}]}', "brackets[0].k: unknown field"),
        ('{"dim": 3, "brackets": [{"k": 1, "i": 0, "j": "x", "l": 2}]}', "brackets[0].k: unknown field"),
        ('{"dim": 3, "brackets": [{"i": 0, "j": 1, "coeffs": {"2": "1", "02": "x"}}]}',
         "brackets[0].coeffs.02: repeated basis index 2"),
        ('{"dim": 3, "brackets": [{"i": 0, "j": 1, "coeffs": {"02": "1", "2": "x"}}]}',
         "brackets[0].coeffs.2: repeated basis index 2"),
        ('{"dim": 3, "brackets": [{"i": 0, "j": 1, "coeffs": {"3": "x"}}]}',
         "brackets[0].coeffs.3: index out of range 0..2"),
        (json.dumps({"dim": 3, "ad_generators": [[_UNIT, ["0", "1"], ["0", "0", "1"]]]}),
         "ad_generators[0][1]: must have 3 entries"),
        (json.dumps({"dim": 3, "ad_generators": [[[1, 0, 0], [0, 1, "x"], [0, 0, 1]]]}),
         "ad_generators[0][1][2]: not a rational literal: 'x'"),
        (json.dumps({"dim": 3, "ad_generators": [[[True, False, False], ["0", "1", "0"], ["0", "0", "1"]]]}),
         "ad_generators[0][0][0]: not a rational literal: True"),
        (json.dumps({"dim": 2, "ad_generators": [[[" 1", "0"], ["0", "1/0"]]]}),
         "ad_generators[0][1][1]: zero denominator"),
        ('{"dim": 2, "labels": ["a", "a"], "brackets": 3}', "labels: must be distinct"),
    ],
    ids=[
        "two unknown fields", "unknown field and bad dim", "unknown item field after bad j",
        "two unknown item fields", "02 after 2", "2 after 02", "index out of range and bad value",
        "unit row then short row", "integer unit row then bad literal", "boolean unit row",
        "padded unit row then zero denominator", "repeated labels and bad brackets",
    ],
)
def test_the_first_fault_of_a_document_is_reported(text, message):
    assert run_cli(["validate", "-"], text) == (2, "", f"parse error: {message}\n")


def test_unit_generator_rows_read_into_the_unit_columns():
    # rows spelled as emit spells the identity, as JSON integers, or padded
    # give one form
    rows = ([_UNIT, ["0", "1", "0"], ["0", "0", "1"]], [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
            [[" 1", "0", "0"], ["0", "1/1", 0], ["0", "0", "2/2"]])
    forms = {catalog.parse(json.dumps({"dim": 3, "ad_generators": [g]})).ad_generators for g in rows}
    assert forms == {(Generator((((0, 1),), ((1, 1),), ((2, 1),)), 1),)}


_ARABIC_INDIC = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")


@st.composite
def _literal(draw):
    """(JSON value, its rational): p / q written unreduced, padded, signed or in other digits."""
    p = draw(st.integers(-6, 6))
    q = draw(st.integers(1, 6))
    style = draw(st.sampled_from(("int", "plain", "padded", "arabic", "negzero")))
    if style == "int":
        return p, QQ(p)
    text = f"{p}/{q}"
    if style == "padded":
        text = f" {'+' if p >= 0 else ''}{text} "
    elif style == "arabic":
        text = text.translate(_ARABIC_INDIC)
    elif style == "negzero":
        text = f"-0/{q}"
    return text, QQ(text)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_integer_route_matches_make_lie_algebra_on_any_spelling(data):
    dim = data.draw(st.integers(1, 4))
    items, values = [], {}
    for i in range(dim):
        for j in range(i + 1, dim):
            ks = data.draw(st.lists(st.integers(0, dim - 1), unique=True, max_size=dim))
            if ks or data.draw(st.booleans()):
                lits = [data.draw(_literal()) for _ in ks]
                items.append({"i": i, "j": j, "coeffs": {str(k): x for k, (x, _) in zip(ks, lits)}})
                values[i, j] = {k: v for k, (_, v) in zip(ks, lits)}
    sub = [[data.draw(_literal()) for _ in range(dim)] for _ in range(data.draw(st.integers(0, 2)))]
    gen = [[data.draw(_literal()) for _ in range(dim)] for _ in range(dim)]
    doc = {
        "dim": dim,
        "brackets": items,
        "subalgebra": [[x for x, _ in v] for v in sub],
        "ad_generators": [[[x for x, _ in row] for row in gen]],
    }
    parsed = catalog.parse(json.dumps(doc))
    expected = make_lie_algebra(dim, values, parsed.labels)
    assert (parsed.algebra.den, parsed.algebra.nz) == (expected.den, expected.nz)
    assert parsed.algebra == expected
    # each subalgebra vector v is the integer row d v, d the least common denominator of its entries
    rows = []
    for v in sub:
        d = lcm(*(x.denominator for _, x in v))
        rows.append(tuple(int(d * x) for _, x in v))
    assert parsed.subalgebra == tuple(rows)
    assert all(type(x) is int for v in parsed.subalgebra for x in v)
    stored = [x for row in parsed.ad_generators[0].mat.entries for x in row]
    assert all(type(x) is QQ for x in stored)
    assert stored == [v for row in gen for _, v in row]


_ROUTE_BASES = [("abelian", {"n": 3}), ("abelian", {"n": 4}), ("heisenberg", {"n": 1}), ("heisenberg", {"n": 2})]


@st.composite
def _rational_subalgebra_documents(draw):
    """(document dict, the Fraction vectors its subalgebra literals spell).

    The vectors have denominators (some written unreduced), and include zero
    vectors and combinations of earlier ones; the complement is greedy, a
    draw of the right size, which may fail to complete h, or one of any size.
    """
    rng = draw(st.randoms(use_true_random=False))
    name, params = rng.choice(_ROUTE_BASES)
    data = json.loads(catalog.emit(catalog.builtin(name, params)))
    data.pop("ad_generators", None)
    n = data["dim"]
    vectors = []
    for _ in range(rng.randint(0, n)):
        kind = rng.choice(("random", "random", "zero", "combination"))
        if kind == "zero":
            v = [QQ(0)] * n
        elif kind == "combination" and vectors:
            a, b = rng.choice(vectors), rng.choice(vectors)
            x, y = QQ(rng.randint(-3, 3), rng.randint(1, 3)), QQ(rng.randint(-3, 3), rng.randint(1, 3))
            v = [x * p + y * q for p, q in zip(a, b)]
        else:
            v = [QQ(rng.randint(-4, 4), rng.randint(1, 6)) if rng.random() < 0.6 else QQ(0) for _ in range(n)]
        vectors.append(v)
    k = len(span_oracle(vectors)[1]) if vectors else 0

    def literal(x):
        f = rng.randint(1, 3)
        return rng.choice((str(x), f"{x.numerator * f}/{x.denominator * f}"))

    data["subalgebra"] = [[literal(x) for x in v] for v in vectors]
    how = rng.choice(("greedy", "sized", "any"))
    if how != "greedy":
        size = n - k if how == "sized" else rng.randint(1, n)
        data["complement"] = [[int(t == j) for t in range(n)] for j in rng.sample(range(n), size)]
    return data, vectors


def _route_outcome(doc):
    try:
        _, iso = catalog.realize(doc)
    except (DocumentError, LiepsError) as e:
        return type(e), str(e)
    return iso.h_basis.rows, iso.complement_indices, iso.h_rows


@settings(max_examples=150, deadline=None)
@given(_rational_subalgebra_documents())
@example(({"dim": 3, "subalgebra": [["1/2", "1/2", 0]], "complement": [[1, 0, 0], [0, 1, 0]]},
          [[QQ(1, 2), QQ(1, 2), QQ(0)]]))
def test_integer_h_rows_give_the_model_of_the_fraction_vectors(case):
    # realize on the parsed integer rows, and make_isotropy (through realize)
    # on the Fraction vectors as written: the same eliminations, or the same
    # error, "does not complete the subalgebra" included
    data, vectors = case
    doc = catalog.parse(json.dumps(data))
    fractions = doc._replace(subalgebra=tuple(map(tuple, vectors)))
    outcome = _route_outcome(doc)
    assert outcome == _route_outcome(fractions)
    if type(outcome[0]) is tuple:
        assert catalog.realize(doc)[1].h_basis.basis == span_oracle(vectors)[0]


def _int_form(rows):
    """The integer generator form read off Fractions: int_vectors of the columns."""
    cols, d = int_vectors(Mat(rows).T.entries)
    return Generator(tuple(map(tuple, cols)), d)


# "0" is skipped unread; the other spellings of zero go through read_rational
_ZEROS = ("0", 0, "-0", "00", " 0")
_BAD_LITERALS = ("1/0", "x", "1.5", "", None, True, [0])


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_generator_literals_read_into_one_integer_form(data):
    # JSON ints and strings, unreduced, padded, signed, zero and -0 entries
    # give the integer form of the matrix they spell, whatever the spelling,
    # also when "0" is mixed with the other spellings of zero
    dim = data.draw(st.integers(1, 4))
    entry = st.one_of(_literal(), st.sampled_from(_ZEROS).map(lambda x: (x, QQ(0))))
    lits = [[data.draw(entry) for _ in range(dim)] for _ in range(dim)]
    doc = {"dim": dim, "ad_generators": [[[x for x, _ in row] for row in lits]]}
    (A,) = catalog.parse(json.dumps(doc)).ad_generators
    rows = [[v for _, v in row] for row in lits]
    assert A == _int_form(rows)
    assert A.mat == Mat(rows)
    # the same matrix in lowest terms parses to the same form
    doc["ad_generators"] = [[[str(v) for v in row] for row in rows]]
    assert catalog.parse(json.dumps(doc)).ad_generators == (A,)
    # one bad literal among them fails at its own entry, in the reader's words
    r, c = data.draw(st.integers(0, dim - 1)), data.draw(st.integers(0, dim - 1))
    bad = data.draw(st.sampled_from(_BAD_LITERALS))
    doc["ad_generators"] = [[[x for x, _ in row] for row in lits]]
    doc["ad_generators"][0][r][c] = bad
    with pytest.raises(DocumentError) as expected:
        catalog.read_rational(bad, "ad_generators[{}][{}][{}]", 0, r, c)
    with pytest.raises(DocumentError) as got:
        catalog.parse(json.dumps(doc))
    assert str(got.value) == str(expected.value)


def test_generator_zero_literal_skips_the_reader(monkeypatch):
    seen = []
    real = catalog.read_rational
    monkeypatch.setattr(catalog, "read_rational", lambda x, *a: seen.append(x) or real(x, *a))
    g = [["0", 0, "-0"], ["00", " 0", "1"], ["0", "1", "0"]]
    (A,) = catalog.parse(json.dumps({"dim": 3, "ad_generators": [g]})).ad_generators
    assert A == (((), ((2, 1),), ((1, 1),)), 1)
    # each other string read once, the JSON integer at each entry
    assert seen == [0, "-0", "00", " 0", "1"]


def test_generator_spellings_of_one_matrix_agree():
    spellings = (
        [["2/4", 0, "-3"], ["0", "1", "-0/7"], [0, "-6/4", " 5 "]],
        [["1/2", "0/3", -3], [0, 1, 0], ["0", "-3/2", 5]],
    )
    forms = [
        catalog.parse(json.dumps({"dim": 3, "ad_generators": [g]})).ad_generators[0] for g in spellings
    ]
    expected = ((((0, 1),), ((1, 2), (2, -3)), ((0, -6), (2, 10))), 2)
    assert forms[0] == forms[1] == expected
    assert forms[0] == _int_form([[QQ(1, 2), 0, -3], [0, 1, 0], [0, QQ(-3, 2), 5]])
    # the builtins are read into the same form: u -> u - w on heisenberg n = 1
    u_gen = catalog.builtin("heisenberg", {"n": 1}).ad_generators[0]
    assert u_gen == ((((0, 1), (2, -1)), ((1, 1),), ((2, 1),)), 1)


# a random-dense document: heisenberg under a rational change of basis
_TRANSPORTED = json.dumps(
    {
        "name": "rd5-heis",
        "dim": 3,
        "brackets": [
            {"i": 0, "j": 1, "coeffs": {"0": "-2/9", "1": "4/9", "2": "1/9"}},
            {"i": 0, "j": 2, "coeffs": {"0": "8/9", "1": "-16/9", "2": "-4/9"}},
            {"i": 1, "j": 2, "coeffs": {"0": "4/9", "1": "-8/9", "2": "-2/9"}},
        ],
        "subalgebra": [["4/9", "1/9", "-2/9"], ["-2/9", "4/9", "1/9"]],
    }
)


@pytest.mark.parametrize(
    "text",
    [
        catalog.emit(catalog.builtin("so4_grassmann")),
        catalog.emit(catalog.builtin("heisenberg", {"n": 2})),
        _TRANSPORTED,
    ],
    ids=["so4_grassmann", "heisenberg2", "transported"],
)
def test_validate_builds_neither_q_nor_s(monkeypatch, text):
    _, iso = catalog.realize(catalog.parse(text))
    assert validate(iso.L).ok
    assert "q_matrix" not in vars(iso) and "s_matrix" not in vars(iso)
    q_built = count_cached(monkeypatch, IsotropyModel, "q_matrix")
    s_built = count_cached(monkeypatch, IsotropyModel, "s_matrix")
    assert run_cli(["validate", "-"], text)[0] == 0
    assert (q_built, s_built) == ([], [])


def test_bracket_coefficients_build_no_fraction(monkeypatch):
    reads, fractions = [], []
    real_read = catalog.read_rational

    def read(x, path, *where):
        reads.append(x)
        return real_read(x, path, *where)

    class Counted(QQ):
        def __new__(cls, *args):
            fractions.append(args)
            return QQ(*args)

    monkeypatch.setattr(catalog, "read_rational", read)
    monkeypatch.setattr(catalog, "Fraction", Counted)
    monkeypatch.setattr(liecore, "Fraction", Counted)
    doc = catalog.parse(_TRANSPORTED)
    # the nine bracket coefficients and six subalgebra entries hold seven
    # distinct literals, each read into ints once; the subalgebra's three are
    # among them, and its vectors become integer rows, so no Fraction is made
    assert sorted(reads) == sorted({"-2/9", "4/9", "1/9", "8/9", "-16/9", "-4/9", "-8/9"})
    assert fractions == []
    assert doc.algebra.den == 9



def test_a_repeated_bracket_literal_is_read_once_and_a_bad_one_raises_where_it_first_occurs():
    good = {"i": 0, "j": 1, "coeffs": {"2": "3/6", "0": "3/6"}}
    bad = [{"i": 0, "j": 2, "coeffs": {"1": "3/6", "0": "1/0"}}, {"i": 1, "j": 2, "coeffs": {"0": "1/0"}}]
    algebra = catalog.parse({"dim": 3, "brackets": [good]}).algebra
    assert (algebra.nz[0][1], algebra.den) == (((0, 1), (2, 1)), 2)
    with pytest.raises(DocumentError) as exc:
        catalog.parse({"dim": 3, "brackets": [good, *bad]})
    assert (exc.value.path, exc.value.msg) == ("brackets[1].coeffs.0", "zero denominator")

def _base_doc():
    return {
        "name": "t",
        "dim": 3,
        "labels": ["a", "b", "c"],
        "brackets": [{"i": 0, "j": 1, "coeffs": {"2": "1"}}],
    }


def _set_coeffs(coeffs):
    return lambda d: d.update(brackets=[{"i": 0, "j": 1, "coeffs": coeffs}])


_BAD_NAME = "must be a name: a letter or _, then letters, digits or _"
_FIRST = {"i": 0, "j": 1, "coeffs": {"2": "1"}}


# (mutate, the stderr line after "parse error: "); the seed cases keep their
# ids, the located path
_LOCATED = [
    (lambda d: d.update(name=3), "name: must be a string"),
    (lambda d: d.update(dim=0), "dim: must be a positive integer"),
    (lambda d: d.update(dim=True), "dim: must be a positive integer"),
    (lambda d: d.update(labels=["a", "a", "b"]), "labels: must be distinct"),
    (lambda d: d.update(labels=["a", "", "b"]), "labels[1]: must be a nonempty string"),
    (lambda d: d.update(extra=1), "extra: unknown field"),
    (
        lambda d: d.update(brackets=[{"i": 1, "j": 0, "coeffs": {}}]),
        "brackets[0]: need 0 <= i < j < 3, got (1, 0)",
    ),
    (
        lambda d: d.update(brackets=[{"i": 0, "j": 5, "coeffs": {}}]),
        "brackets[0]: need 0 <= i < j < 3, got (0, 5)",
    ),
    (_set_coeffs({"9": "1"}), "brackets[0].coeffs.9: index out of range 0..2"),
    (_set_coeffs({"2": "1/0"}), "brackets[0].coeffs.2: zero denominator"),
    # a digit to str.isdigit, but not a decimal that int() reads
    (_set_coeffs({"²": "1"}), "brackets[0].coeffs.²: key must be a basis index"),
    (lambda d: d.update(subalgebra=[["1", "0"]]), "subalgebra[0]: must be a vector of length 3"),
    (
        lambda d: d.update(complement=[["1", "1", "0"]]),
        "complement[0]: must be a standard basis vector",
    ),
    (
        lambda d: d.update(complement=[["1", "0", "0"], ["1", "0", "0"]]),
        "complement[1]: repeated complement vector",
    ),
    (lambda d: d.update(ad_generators=[[[1, 0], [0, 1]]]), "ad_generators[0]: must be a 3x3 matrix"),
]

_ERRORS_IN_ORDER = [
    (lambda d: d.pop("dim"), "dim: must be a positive integer"),
    (lambda d: d.update(labels=["a", "b"]), "labels: must be a list of 3 strings"),
    (lambda d: d.update(labels="abc"), "labels: must be a list of 3 strings"),
    (lambda d: d.update(labels=["a", 5, "b"]), "labels[1]: must be a nonempty string"),
    (lambda d: d.update(labels=["a", "b", "1c"]), f"labels[2]: {_BAD_NAME}"),
    # each label is checked in turn, before the labels are compared
    (lambda d: d.update(labels=["a", "a", "c-"]), f"labels[2]: {_BAD_NAME}"),
    (lambda d: d.update(brackets={}), "brackets: must be a list"),
    (lambda d: d.update(brackets=[_FIRST, 3]), "brackets[1]: must be an object"),
    (
        lambda d: d.update(brackets=[{"i": 0, "j": 1, "coeffs": {}, "k": 2}]),
        "brackets[0].k: unknown field",
    ),
    (lambda d: d.update(brackets=[{"i": 0, "coeffs": {}}]), "brackets[0]: i and j must be integers"),
    (
        lambda d: d.update(brackets=[{"i": 0, "j": 1, "coeffs": ["1"]}]),
        "brackets[0].coeffs: must be an object",
    ),
    (_set_coeffs({"x": "1"}), "brackets[0].coeffs.x: key must be a basis index"),
    (_set_coeffs({"-1": "1"}), "brackets[0].coeffs.-1: key must be a basis index"),
    (_set_coeffs({"2": "x"}), "brackets[0].coeffs.2: not a rational literal: 'x'"),
    (_set_coeffs({"2": " 1/ 2 "}), "brackets[0].coeffs.2: not a rational literal: '1/ 2'"),
    (_set_coeffs({"2": 1.5}), "brackets[0].coeffs.2: not a rational literal: 1.5"),
    (_set_coeffs({"2": None}), "brackets[0].coeffs.2: not a rational literal: None"),
    (_set_coeffs({"2": ["1"]}), "brackets[0].coeffs.2: not a rational literal: ['1']"),
    (_set_coeffs({"2": "-3/00"}), "brackets[0].coeffs.2: zero denominator"),
    # the index is checked before the literal is read
    (_set_coeffs({"2": "1", "02": "x"}), "brackets[0].coeffs.02: repeated basis index 2"),
    (_set_coeffs({"9": "x"}), "brackets[0].coeffs.9: index out of range 0..2"),
    (_set_coeffs({"0": "x", "9": "1"}), "brackets[0].coeffs.0: not a rational literal: 'x'"),
    (lambda d: d.update(brackets=[_FIRST, _FIRST]), "brackets: duplicate pair (0, 1)"),
    # the duplicate pair is reported once the whole list has parsed
    (
        lambda d: d.update(brackets=[_FIRST, _FIRST, {"i": 2, "j": 1, "coeffs": {}}]),
        "brackets[2]: need 0 <= i < j < 3, got (2, 1)",
    ),
    (
        lambda d: d.update(brackets=[_FIRST, _FIRST], subalgebra=[["x"]]),
        "brackets: duplicate pair (0, 1)",
    ),
    (lambda d: d.update(subalgebra="x"), "subalgebra: must be a list of vectors"),
    (
        lambda d: d.update(subalgebra=[["0", "0", "1"], [1, "x", "1/0"]]),
        "subalgebra[1][1]: not a rational literal: 'x'",
    ),
    (
        lambda d: d.update(subalgebra=[["0", "0", "2/0"]]),
        "subalgebra[0][2]: zero denominator",
    ),
    (
        lambda d: d.update(subalgebra=[["1"]], complement="x", ad_generators="x"),
        "subalgebra[0]: must be a vector of length 3",
    ),
    (lambda d: d.update(complement={}), "complement: must be a list of vectors"),
    (lambda d: d.update(complement=[["1", "0"]]), "complement[0]: must be a vector of length 3"),
    (
        lambda d: d.update(complement=[["2", "0", "0"]]),
        "complement[0]: must be a standard basis vector",
    ),
    (
        lambda d: d.update(complement=[["0", "0", "0"]]),
        "complement[0]: must be a standard basis vector",
    ),
    # every complement vector is read before any is tested
    (
        lambda d: d.update(complement=[["1", "1", "0"], ["0", "x", "0"]]),
        "complement[1][1]: not a rational literal: 'x'",
    ),
    (
        lambda d: d.update(complement=[["1", "1", "0"]], ad_generators="x"),
        "complement[0]: must be a standard basis vector",
    ),
    (lambda d: d.update(ad_generators={}), "ad_generators: must be a list of matrices"),
    (
        lambda d: d.update(ad_generators=[[[1, 0, 0], [0, 1], [0, 0, 1]]]),
        "ad_generators[0][1]: must have 3 entries",
    ),
    (
        lambda d: d.update(ad_generators=[[[1, 0, 0], [0, 1, "x"], [0, 0, "1/0"]]]),
        "ad_generators[0][1][2]: not a rational literal: 'x'",
    ),
    (
        lambda d: d.update(
            ad_generators=[[[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[1, 0, 0], [0, 1, 0], [0, 0, "5/0"]]]
        ),
        "ad_generators[1][2][2]: zero denominator",
    ),
    # realize, not parse, finds a complement that does not complete h
    (
        lambda d: d.update(
            subalgebra=[["0", "0", "1"]], complement=[["0", "0", "1"], ["1", "0", "0"]]
        ),
        "complement: does not complete the subalgebra to a basis",
    ),
]


def _error_path(value):
    return value.split(": ")[0] if isinstance(value, str) else None


def _assert_parse_error(mutate, err):
    data = _base_doc()
    mutate(data)
    assert run_cli(["validate", "-"], json.dumps(data)) == (2, "", f"parse error: {err}\n")


@pytest.mark.parametrize("mutate, err", _LOCATED, ids=_error_path)
def test_parse_locates_errors(mutate, err):
    _assert_parse_error(mutate, err)


@pytest.mark.parametrize("mutate, err", _ERRORS_IN_ORDER, ids=_error_path)
def test_parse_reports_each_error_in_full_and_in_order(mutate, err):
    _assert_parse_error(mutate, err)


@pytest.mark.parametrize(
    "data, err",
    [
        ("{nope", ": invalid JSON at line 1: Expecting property name enclosed in double quotes"),
        ("[]", ": document must be a JSON object"),
        ('{"dim": 3, "dim": 2.0}', "dim: must be a positive integer"),
        # only a decoded document can hold a key that is not a string
        (
            {"dim": 3, "brackets": [{"i": 0, "j": 1, "coeffs": {2: "1"}}]},
            "brackets[0].coeffs.2: key must be a basis index",
        ),
    ],
)
def test_parse_locates_errors_in_text_and_decoded_documents(data, err):
    with pytest.raises(DocumentError) as exc:
        catalog.parse(data)
    assert f"parse error: {exc.value}\n" == f"parse error: {err}\n"
    if isinstance(data, str):
        assert run_cli(["validate", "-"], data) == (2, "", f"parse error: {err}\n")


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
