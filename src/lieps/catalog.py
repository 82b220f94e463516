"""Builtin example families and the JSON interchange format.

An AlgebraDocument is the serialized form of a Lie algebra with an optional
isotropy subalgebra, complement choice, and discrete generator matrices.  The
builtins reproduce the standard examples: abelian algebras, Heisenberg
algebras with lattice generators, the Poincare algebra iso(1,1) with a
discrete generator, gl_n over so_n, so_4 over so_2 x so_2 (the Grassmannian
of oriented 2-planes in R^4), and the double g+g over the diagonal.

parse reads each rational literal once into ints (read_rational): bracket
coefficients go straight into the integer table of the LieAlgebra through
liecore.lie_algebra_of_terms, the normaliser make_lie_algebra uses too,
generator entries into the integer columns of a liecore.Generator (the
builtins too), and each subalgebra vector v into the integer row d v, d the
least common denominator of its entries, which make_isotropy eliminates as
it stands; a complement vector is checked on its (p, q) pairs.  No Fraction
is built for h.  A located error message is formatted only when its check
fails.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import NamedTuple

from .errors import DocumentError, LiepsError
from .liecore import Generator, LieAlgebra, _least_den, lie_algebra_of_terms, make_isotropy, make_lie_algebra

_FIELDS = frozenset(("name", "dim", "labels", "brackets", "subalgebra", "complement", "ad_generators"))
_ITEM_FIELDS = frozenset(("i", "j", "coeffs"))


def _is_int(x) -> bool:
    """A JSON integer: Python's bool is an int, but JSON true and false are not numbers."""
    return isinstance(x, int) and not isinstance(x, bool)


def read_rational(x, path, *where) -> tuple:
    """(p, q), q > 0, as written: a JSON integer or a stripped "p" / "p/q" string of decimal digits.

    The string is one optional sign, then decimal digits of any script (str.isdecimal,
    Unicode category Nd), then optionally / and decimal digits.  Lowest terms are taken
    later, once per bracket table, generator and subalgebra vector.  An error is
    located at path.format(*where), built only then.
    """
    if isinstance(x, str):
        x = x.strip()
        num, slash, den = x.partition("/")
        if (num[1:] if num[:1] in ("+", "-") else num).isdecimal() and (den.isdecimal() or not slash):
            q = int(den or 1)
            if not q:
                raise DocumentError(path.format(*where), "zero denominator")
            return int(num), q
    elif _is_int(x):
        return x, 1
    raise DocumentError(path.format(*where), f"not a rational literal: {x!r}")


class AlgebraDocument(NamedTuple):
    """Serializable description of an algebra plus isotropy data.

    algebra is the LieAlgebra of the document, built once by make_lie_algebra
    when the document is parsed or a builtin is made; dim, labels and the
    emitted brackets are read off it, and realize hands it on as it is.
    """

    name: str
    algebra: LieAlgebra
    subalgebra: tuple = ()  # vectors spanning h; parse and the builtins give integer rows
    complement: tuple = ()  # standard-basis indices
    ad_generators: tuple = ()  # of liecore.Generator

    @property
    def dim(self) -> int:
        return self.algebra.dim

    @property
    def labels(self) -> tuple:
        return self.algebra.labels


def _doc(name, dim, labels, bracket_map, subalgebra=(), complement=(), ad_generators=()):
    return AlgebraDocument(
        name=name,
        algebra=make_lie_algebra(dim, bracket_map, labels),
        subalgebra=tuple(map(tuple, subalgebra)),
        complement=tuple(complement),
        ad_generators=tuple(ad_generators),
    )


def realize(doc: AlgebraDocument):
    """(LieAlgebra, IsotropyModel) of a document; the algebra is doc.algebra itself."""
    L = doc.algebra
    try:
        iso = make_isotropy(
            L,
            doc.subalgebra,
            discrete_generators=list(doc.ad_generators),
            complement_indices=list(doc.complement) if doc.complement else None,
        )
    except ValueError:
        # parse guarantees every other shape, so only the complement lands here
        raise DocumentError(
            "complement", "does not complete the subalgebra to a basis"
        ) from None
    return L, iso


# ---------------------------------------------------------------------------
# builtins


def abelian(n) -> AlgebraDocument:
    return _doc(f"abelian({n})", n, [f"e{i + 1}" for i in range(n)], {})


def heisenberg(n) -> AlgebraDocument:
    """h_{2n+1}: [u_i, v_i] = w, with the 2n+1 lattice generator matrices.

    The generators are the adjoint matrices of the standard integer lattice:
    translating by a lattice point in the u-directions sends u_i to u_i - w,
    in the v-directions sends v_i to v_i + w, and the center acts trivially.
    """
    dim = 2 * n + 1
    labels = [f"u{i + 1}" for i in range(n)] + [f"v{i + 1}" for i in range(n)] + ["w"]
    brackets = {(i, n + i): {2 * n: 1} for i in range(n)}
    w = 2 * n
    eye = [(i, i, 1, 1) for i in range(dim)]

    def gen(j, x):  # the identity with x added at row w, column j < w
        return Generator.of_entries(dim, sorted(eye + [(w, j, x, 1)]))

    gens = [gen(j, -1) for j in range(n)] + [gen(n + j, 1) for j in range(n)]
    gens.append(Generator.of_entries(dim, eye))
    return _doc(f"heisenberg({n})", dim, labels, brackets, ad_generators=gens)


def iso11() -> AlgebraDocument:
    """iso(1,1): [e1,e3] = e1, [e2,e3] = -e2, with one discrete generator.

    The generator fixes e1, e2 and sends e3 to e3 + (1/2)(e1 - e2).
    """
    brackets = {(0, 2): {0: 1}, (1, 2): {1: -1}}
    gen = [
        [1, 0, Fraction(1, 2)],
        [0, 1, Fraction(-1, 2)],
        [0, 0, 1],
    ]
    return _doc("iso11", 3, ["e1", "e2", "e3"], brackets, ad_generators=[Generator.of_matrix(gen)])


def _commutator(X, Y) -> dict:
    """XY - YX of two matrices given by their nonzero entries {(i, j): x}.

    Read off the unit matrices, [E_ij, E_kl] = d_jk E_il - d_li E_kj; an
    entry that cancels stays in the result as a zero.
    """
    comm = {}
    for (i, j), x in X.items():
        for (k, l), y in Y.items():
            if j == k:
                comm[i, l] = comm.get((i, l), 0) + x * y
            if l == i:
                comm[k, j] = comm.get((k, j), 0) - x * y
    return comm


def gl_sym(n) -> AlgebraDocument:
    """gl_n with h = so_n; the complement is the symmetric matrices.

    The basis is the diagonal units E_ii, the symmetric units
    S_ij = E_ij + E_ji and the skew units F_ij = E_ij - E_ji, i < j, in that
    order, so the greedy complement scan picks exactly m = sym_n.  Brackets
    are the commutators of the unit matrices (_commutator), and each unit
    E_il, i != l, is (S_il + F_il) / 2 or (S_li - F_li) / 2.
    """
    upper = [(i, j) for i in range(n) for j in range(i + 1, n)]
    units = [{(i, i): 1} for i in range(n)]
    units += [{(i, j): 1, (j, i): 1} for i, j in upper]
    units += [{(i, j): 1, (j, i): -1} for i, j in upper]
    labels = [f"E{i + 1}{i + 1}" for i in range(n)]
    labels += [f"{x}{i + 1}{j + 1}" for x in "SF" for i, j in upper]
    sym = {pair: n + t for t, pair in enumerate(upper)}
    dim = n * n

    brackets = {}
    for a in range(dim):
        for b in range(a + 1, dim):
            coeffs = {}
            for (i, l), v in _commutator(units[a], units[b]).items():
                if i == l:
                    coeffs[i] = coeffs.get(i, 0) + v
                elif v:
                    s = sym[min(i, l), max(i, l)]
                    coeffs[s] = coeffs.get(s, 0) + Fraction(v, 2)
                    f = s + len(upper)
                    coeffs[f] = coeffs.get(f, 0) + Fraction(v if i < l else -v, 2)
            coeffs = {k: c for k, c in coeffs.items() if c}
            if coeffs:
                brackets[(a, b)] = coeffs

    sub = [[int(t == u) for t in range(dim)] for u in range(n + len(upper), dim)]
    return _doc(f"gl_sym({n})", dim, labels, brackets, subalgebra=sub)


_SO4_PAIRS = ((1, 2), (3, 4), (1, 3), (2, 3), (1, 4), (2, 4))
_SO4_LABELS = ("F12", "F34", "e1", "e2", "e3", "e4")


def so4_grassmann() -> AlgebraDocument:
    """so_4 with h = span{F12, F34}, the oriented 2-plane Grassmannian.

    The brackets are the commutators of F_ij = E_ij - E_ji (_commutator),
    a skew matrix whose entry (p, q), p < q, is its coefficient of F_pq.
    """
    index = {p: t for t, p in enumerate(_SO4_PAIRS)}
    units = [{(i, j): 1, (j, i): -1} for i, j in _SO4_PAIRS]
    brackets = {}
    for a in range(6):
        for b in range(a + 1, 6):
            comm = _commutator(units[a], units[b])
            coeffs = {index[p, q]: v for (p, q), v in comm.items() if p < q and v}
            if coeffs:
                brackets[(a, b)] = coeffs

    sub = [
        [1, 0, 0, 0, 0, 0],
        [0, 1, 0, 0, 0, 0],
    ]
    return _doc("so4_grassmann", 6, _SO4_LABELS, brackets, subalgebra=sub)


def double(base: AlgebraDocument) -> AlgebraDocument:
    """g + g with diagonal h: a symmetric pair for any base algebra.

    Basis d_i = (x_i, x_i) spanning the diagonal, then m_i = (x_i, -x_i);
    the brackets follow from componentwise computation:
    [d_i, d_j] = sum c_ij^k d_k, [d_i, m_j] = sum c_ij^k m_k,
    [m_i, m_j] = sum c_ij^k d_k.
    """
    n = base.dim
    L = base.algebra
    nz = L.nz
    brackets = {}

    def put(a, b, terms, shift):
        if not terms:
            return
        tgt = brackets.setdefault((a, b), {})
        for k, v in terms:
            tgt[k + shift] = tgt.get(k + shift, 0) + Fraction(v, L.den)

    for i in range(n):
        for j in range(n):
            c = nz[i][j]
            if i < j:
                put(i, j, c, 0)  # [d_i, d_j] lands in the diagonal
                put(n + i, n + j, c, 0)  # [m_i, m_j] lands in the diagonal
            put(i, n + j, c, n)  # [d_i, m_j] lands in the m part

    labels = [f"d_{x}" for x in base.labels] + [f"m_{x}" for x in base.labels]
    sub = [[int(t == i) for t in range(2 * n)] for i in range(n)]
    return _doc(f"double({base.name})", 2 * n, labels, brackets, subalgebra=sub)


def builtin(name, params=None) -> AlgebraDocument:
    """Builtin dispatch by family name; params is a small dict (e.g. n)."""
    params = dict(params or {})

    def done(doc):
        if params:
            raise LiepsError(f"builtin {name!r} got unexpected parameters {sorted(params)}")
        return doc

    def size():
        n = int(params.pop("n"))
        if n <= 0:
            raise DocumentError("n", "must be a positive integer")
        return n

    try:
        if name == "abelian":
            return done(abelian(size()))
        if name == "heisenberg":
            return done(heisenberg(size()))
        if name == "iso11":
            return done(iso11())
        if name == "gl_sym":
            return done(gl_sym(size()))
        if name == "so4_grassmann":
            return done(so4_grassmann())
        if name == "double":
            base = params.pop("of")
            if isinstance(base, AlgebraDocument):
                return done(double(base))
            doc = double(builtin(base, params))
            params.clear()
            return doc
    except KeyError as e:
        raise LiepsError(f"builtin {name!r} needs parameter {e.args[0]!r}") from None
    raise LiepsError(f"unknown builtin {name!r}")


# ---------------------------------------------------------------------------
# JSON layer


def to_json_dict(doc: AlgebraDocument) -> dict:
    L = doc.algebra
    out = {
        "name": doc.name,
        "dim": doc.dim,
        "labels": list(doc.labels),
        # the nonzero [e_i, e_j], i < j, read back off the integer table
        "brackets": [
            {"i": i, "j": j, "coeffs": {str(k): str(Fraction(v, L.den)) for k, v in nz}}
            for i, row in enumerate(L.nz)
            for j, nz in enumerate(row[i + 1:], i + 1)
            if nz
        ],
    }
    if doc.subalgebra:
        out["subalgebra"] = [[str(x) for x in v] for v in doc.subalgebra]
    if doc.complement:
        vecs = []
        for t in doc.complement:
            v = ["0"] * doc.dim
            v[t] = "1"
            vecs.append(v)
        out["complement"] = vecs
    for g in doc.ad_generators:
        rows = [["0"] * doc.dim for _ in range(doc.dim)]
        for j, col in enumerate(g.cols):
            for i, x in col:
                rows[i][j] = str(Fraction(x, g.d))
        out.setdefault("ad_generators", []).append(rows)
    return out


def emit(doc: AlgebraDocument) -> str:
    return json.dumps(to_json_dict(doc), indent=2, sort_keys=True) + "\n"


def is_label(text) -> bool:
    """A label the --r grammar reads: letters, digits ('²' too) and _, led by a letter or _."""
    return (text[:1].isalpha() or text[:1] == "_") and all(c.isalnum() or c == "_" for c in text)


def parse(text) -> AlgebraDocument:
    """Parse JSON text (or an already-decoded dict) with located errors."""
    if isinstance(text, (str, bytes)):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as e:
            raise DocumentError("", f"invalid JSON at line {e.lineno}: {e.msg}") from None
    else:
        data = text
    if not isinstance(data, dict):
        raise DocumentError("", "document must be a JSON object")

    if not data.keys() <= _FIELDS:
        raise DocumentError(next(k for k in data if k not in _FIELDS), "unknown field")

    name = data.get("name", "")
    if not isinstance(name, str):
        raise DocumentError("name", "must be a string")

    dim = data.get("dim")
    if not (_is_int(dim) and dim > 0):
        raise DocumentError("dim", "must be a positive integer")

    labels = data.get("labels")
    if labels is None:
        # distinct names by construction
        labels = [f"e{t + 1}" for t in range(dim)]
    else:
        if not (isinstance(labels, list) and len(labels) == dim):
            raise DocumentError("labels", f"must be a list of {dim} strings")
        for t, lab in enumerate(labels):
            if not (isinstance(lab, str) and lab):
                raise DocumentError(f"labels[{t}]", "must be a nonempty string")
            if not is_label(lab):
                raise DocumentError(
                    f"labels[{t}]", "must be a name: a letter or _, then letters, digits or _"
                )
        if len(set(labels)) != dim:
            raise DocumentError("labels", "must be distinct")

    raw_brackets = data.get("brackets", [])
    if not isinstance(raw_brackets, list):
        raise DocumentError("brackets", "must be a list")
    terms = []  # (i, j, k, p, q): c_ijk = p / q
    values = {}  # string literal -> (p, q), read once per document; literals repeat
    pairs = set()
    duplicate = None
    # the canonical spelling of each basis index; any other key is checked in full
    indices = {str(k): k for k in range(dim)} if raw_brackets else {}
    for t, item in enumerate(raw_brackets):
        if not isinstance(item, dict):
            raise DocumentError(f"brackets[{t}]", "must be an object")
        if not item.keys() <= _ITEM_FIELDS:
            k = next(k for k in item if k not in _ITEM_FIELDS)
            raise DocumentError(f"brackets[{t}].{k}", "unknown field")
        i = item.get("i")
        j = item.get("j")
        if not (_is_int(i) and _is_int(j)):
            raise DocumentError(f"brackets[{t}]", "i and j must be integers")
        if not 0 <= i < j < dim:
            raise DocumentError(f"brackets[{t}]", f"need 0 <= i < j < {dim}, got ({i}, {j})")
        coeffs = item.get("coeffs", {})
        if not isinstance(coeffs, dict):
            raise DocumentError(f"brackets[{t}].coeffs", "must be an object")
        seen = set()
        for key, val in coeffs.items():
            k = indices.get(key)
            if k is None:
                if not (isinstance(key, str) and key.isdecimal()):
                    raise DocumentError(f"brackets[{t}].coeffs.{key}", "key must be a basis index")
                k = int(key)
                if not 0 <= k < dim:
                    raise DocumentError(f"brackets[{t}].coeffs.{key}", f"index out of range 0..{dim - 1}")
            if k in seen:
                raise DocumentError(f"brackets[{t}].coeffs.{key}", f"repeated basis index {k}")
            seen.add(k)
            if type(val) is str:
                pq = values.get(val)
                if pq is None:
                    pq = values[val] = read_rational(val, "brackets[{}].coeffs.{}", t, key)
            else:
                pq = read_rational(val, "brackets[{}].coeffs.{}", t, key)
            terms.append((i, j, k, *pq))
        if (i, j) in pairs and duplicate is None:
            duplicate = (i, j)
        pairs.add((i, j))
    # reported once the whole list has parsed, so a malformed later item wins
    if duplicate is not None:
        raise DocumentError("brackets", f"duplicate pair {duplicate}")
    algebra = lie_algebra_of_terms(dim, labels, terms)

    def rational(x, path, *where):
        if type(x) is not str:
            return read_rational(x, path, *where)
        if x not in values:
            values[x] = read_rational(x, path, *where)
        return values[x]

    def parse_vectors(key):
        """The vectors at key, each as the (p, q) of its entries."""
        raw = data.get(key, [])
        if not isinstance(raw, list):
            raise DocumentError(key, "must be a list of vectors")
        out = []
        for t, v in enumerate(raw):
            if not (isinstance(v, list) and len(v) == dim):
                raise DocumentError(f"{key}[{t}]", f"must be a vector of length {dim}")
            out.append([rational(x, "{}[{}][{}]", key, t, c) for c, x in enumerate(v)])
        return out

    subalgebra = []
    for v in parse_vectors("subalgebra"):
        # d v for the least common denominator d of the entries, so equal vectors give equal rows
        d = _least_den(v)
        subalgebra.append(tuple(p * d // q for p, q in v))

    complement = []
    for t, v in enumerate(parse_vectors("complement")):
        hits = [c for c, (p, _) in enumerate(v) if p]
        # p / q = 1 exactly when p = q, q > 0
        if not (len(hits) == 1 and v[hits[0]][0] == v[hits[0]][1]):
            raise DocumentError(f"complement[{t}]", "must be a standard basis vector")
        if hits[0] in complement:
            raise DocumentError(f"complement[{t}]", "repeated complement vector")
        complement.append(hits[0])

    raw_gens = data.get("ad_generators", [])
    if not isinstance(raw_gens, list):
        raise DocumentError("ad_generators", "must be a list of matrices")
    gens = []
    # row r of the identity, as emit spells it
    units = [["0"] * r + ["1"] + ["0"] * (dim - r - 1) for r in range(dim)] if raw_gens else []
    for t, g in enumerate(raw_gens):
        if not (isinstance(g, list) and len(g) == dim):
            raise DocumentError(f"ad_generators[{t}]", f"must be a {dim}x{dim} matrix")
        # (r, c, p, q) per nonzero A_rc = p / q; "0" is skipped unread, a cached literal skips the call
        entries = []
        for r, row in enumerate(g):
            if row == units[r]:
                entries.append((r, r, 1, 1))
                continue
            if not (isinstance(row, list) and len(row) == dim):
                raise DocumentError(f"ad_generators[{t}][{r}]", f"must have {dim} entries")
            for c, x in enumerate(row):
                if x != "0":
                    p, q = (type(x) is str and values.get(x)) or rational(x, "ad_generators[{}][{}][{}]", t, r, c)
                    if p:
                        entries.append((r, c, p, q))
        gens.append(Generator.of_entries(dim, entries))

    return AlgebraDocument(
        name=name,
        algebra=algebra,
        subalgebra=tuple(subalgebra),
        complement=tuple(complement),
        ad_generators=tuple(gens),
    )
