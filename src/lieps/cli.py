"""Command-line surface: validate, invariants, ybe, scan, leaf, connection, example.

Documents are read from a file path or from standard input when the path is
`-`.  Exit codes: 0 success, 1 domain errors (failed checks, non-r-matrices
where one is required, unknown builtins), 2 parse errors (malformed JSON or
documents, bad expressions, usage errors).  Every command prints its
integer rows (the invariant space, a bivector's wedge coordinates, a
connection table, the leaf frame) through one term formatter, format_terms.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import re
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

from . import catalog
from .errors import DocumentError, LiepsError
from .invariants import _wedge_index, add_wedge, invariant_bivectors
from .liecore import require_reductive, validate, wedge2_space

# ybe, foliation and connections are imported by the handlers that use them,
# so validate and invariants never load them


class _Usage(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _Usage(f"{self.prog}: error: {message}")


# ---------------------------------------------------------------------------
# bivector expressions: sums of coeff * vector ^ vector, vectors being
# quotient basis labels or parenthesized sums of coeff * vector


class _ExprError(Exception):
    """A malformed expression; parse_bivector_expr names the option it came from."""


# \w is a letter, a digit or _; a word that is no label (catalog.is_label)
# is an error, and whitespace between tokens is skipped
_TOKEN = re.compile(r"(?P<num>\d+(?:/\d*)?)|(?P<label>\w+)|(?P<op>[-+*^()])|(?P<bad>\S)")


def _tokenize(text, labels):
    """The tokens of text: a number is an int, or a Fraction when its denominator does not divide it.

    A word among labels, names every one of which passed catalog.is_label,
    is a label unchecked; any other word goes through is_label.
    """
    tokens = []
    for m in _TOKEN.finditer(text):
        kind, tok = m.lastgroup, m.group()
        if kind == "num":
            num, slash, den = tok.partition("/")
            if slash and not den:
                raise _ExprError(f"bad rational near {text[m.start():]!r}")
            p, q = int(num), int(den or 1)
            if not q:
                raise _ExprError(f"zero denominator in {tok!r}")
            tokens.append(("num", Fraction(p, q) if p % q else p // q))
        elif kind == "label" and (tok in labels or catalog.is_label(tok)):
            tokens.append(("label", tok))
        elif kind == "op":
            tokens.append((tok, tok))
        else:
            raise _ExprError(f"unexpected character {tok[0]!r}")
    tokens.append(("end", None))
    return tokens


class _ExprParser:
    """Recursive-descent parser producing wedge coordinates, ints unless a literal is not."""

    def __init__(self, text, labels):
        self.labels = {lab: t for t, lab in enumerate(labels)}
        self.tokens = _tokenize(text, self.labels)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos][0]

    def take(self, kind=None):
        tk, val = self.tokens[self.pos]
        if kind is not None and tk != kind:
            raise _ExprError(f"expected {kind}, found {tk}")
        self.pos += 1
        return val

    def terms(self, term):
        """[+|-] [coeff [*]] term, repeated with + or - between terms.

        Returns the (signed coefficient, term value) pairs.
        """
        out = []
        while True:
            sign = -1 if self.peek() == "-" else 1
            if self.peek() in ("+", "-"):
                self.take()
            coeff = 1
            if self.peek() == "num":
                coeff = self.take()
                if self.peek() == "*":
                    self.take()
            out.append((sign * coeff, term()))
            if self.peek() not in ("+", "-"):
                return out

    def vector(self):
        """A label or a parenthesized combination, as {index: coeff}."""
        tk = self.peek()
        if tk == "label":
            lab = self.take()
            if lab not in self.labels:
                raise _ExprError(
                    f"unknown label {lab!r}; expected one of {sorted(self.labels)}"
                )
            return {self.labels[lab]: 1}
        if tk == "(":
            self.take("(")
            v = {}
            for c, part in self.terms(self.vector):
                for t, x in part.items():
                    v[t] = v.get(t, 0) + c * x
            self.take(")")
            return v
        raise _ExprError("expected a basis label or a parenthesized combination")

    def wedge(self):
        u = self.vector()
        self.take("^")
        return u, self.vector()

    def bivector(self):
        index = _wedge_index(len(self.labels))
        coords = dict.fromkeys(range(len(index)), 0)
        if [tk for tk, _ in self.tokens] == ["num", "end"] and self.tokens[0][1] == 0:
            # a lone 0 is the zero bivector, as format_terms prints it
            return tuple(coords.values())
        if self.peek() == "end":
            raise _ExprError("empty bivector expression")
        for c, (u, v) in self.terms(self.wedge):
            add_wedge(coords, index, u.items(), v.items(), c)
        if self.peek() != "end":
            raise _ExprError("expected + or - between terms")
        return tuple(coords.values())


def parse_bivector_expr(text, labels, option="--r") -> tuple:
    """Wedge coordinates of text; DocumentError at `option` when it is malformed.

    A coordinate is an int, or a Fraction when a literal that is not an
    integer enters it; labels are names catalog.is_label accepts.
    """
    # argparse hands over the value of --r=-- as [], since it drops a "--"
    try:
        return _ExprParser(text or "", labels).bivector()
    except _ExprError as e:
        raise DocumentError(option, str(e)) from None


# ---------------------------------------------------------------------------
# formatting


def wedge_words(labels) -> tuple:
    """The words labels[i]^labels[j] of the wedge basis, one per pair of wedge2_space."""
    return tuple(f"{labels[i]}^{labels[j]}" for i, j in wedge2_space(len(labels)))


def _ratio(x, d) -> str:
    """x / d, d > 0, as its exact string ("0", "-2", "1/3"); a Fraction only when d does not divide x."""
    q, rem = divmod(x, d)
    return str(Fraction(x, d)) if rem else str(q)


def _coords(rows, n) -> list:
    """The n coordinates of each vector R / R_P of the integer rows (P, R), as _ratio strings."""
    return [[_ratio(R[j], R[P]) if j in R else "0" for j in range(n)] for P, R in rows]


def format_terms(words, nz, d=1) -> str:
    """The sum of (x / d) words[k] over the nonzeros (k, x), in order; "0" when there are none.

    d > 0.  A coefficient of magnitude 1 prints no number, and a
    coefficient prints through _ratio.
    """
    out = []
    for k, x in nz:
        mag = -x if x < 0 else x
        piece = words[k] if mag == d else f"{_ratio(mag, d)} {words[k]}"
        sign = "-" if x < 0 else "+"
        out.append(f"{sign} {piece}" if out else piece if x > 0 else f"-{piece}")
    return " ".join(out) or "0"


# ---------------------------------------------------------------------------
# command handlers; each returns (exit_code, stdout_text).  A handler builds
# one payload of exact values and derives its text lines from it.


def _load(path, stdin_text):
    if path == "-":
        text = stdin_text if stdin_text is not None else sys.stdin.read()
    else:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as e:
            raise DocumentError(path, f"cannot read file: {e.strerror}") from None
    return catalog.parse(text)


def _model(args, stdin_text):
    """The document, its isotropy model, and the quotient labels."""
    doc = _load(args.file, stdin_text)
    _, iso = catalog.realize(doc)
    return doc, iso, [doc.labels[j] for j in iso.complement_indices]


def _emit(payload, text_lines, fmt):
    if fmt == "json":
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    return "\n".join(text_lines) + "\n"


def _cmd_validate(args, stdin_text):
    doc, iso, _ = _model(args, stdin_text)
    report = validate(iso.L)
    payload = {
        "ok": report.ok,
        "antisymmetry_failures": report.antisymmetry_failures,
        "jacobi_failures": report.jacobi_failures,
    }
    lines = [f"name: {doc.name}", f"dim: {doc.dim}", f"ok: {str(report.ok).lower()}"]
    lines += [f"antisymmetry violated at pair {p}" for p in report.antisymmetry_failures]
    lines += [f"jacobi violated at triple {t}" for t in report.jacobi_failures]
    return (0 if report.ok else 1), _emit(payload, lines, args.format)


def _cmd_invariants(args, stdin_text):
    _, iso, qlabels = _model(args, stdin_text)
    inv = invariant_bivectors(iso)
    words = wedge_words(qlabels)
    # basis vector t is R / R_P for row (P, R) of the space, printed off its nonzeros
    pretty = [format_terms(words, sorted(R.items()), R[P]) for P, R in inv.rows]
    payload = {
        "dim": inv.dim,
        "basis": pretty,
        "source": {"infinitesimal": iso.h_basis.dim > 0, "discrete": len(iso.generators) > 0},
    }
    if args.format == "json":
        # the dense coordinates are read only by JSON output
        payload["basis_coords"] = _coords(inv.rows, len(words))
    lines = [f"dim {inv.dim}"] + [f"  {p}" for p in pretty]
    return 0, _emit(payload, lines, args.format)


def _cmd_ybe(args, stdin_text):
    from .ybe import Bivector

    _, iso, qlabels = _model(args, stdin_text)
    r = Bivector(iso, parse_bivector_expr(args.r, qlabels))
    nonzero = [
        {"triple": [qlabels[a] + "*" for a in abc], "value": str(val)}
        for abc, val in r.tensor.nonzero_entries()
    ]
    payload = {
        "r": format_terms(wedge_words(qlabels), r.nz, r.d),
        "r_matrix": not nonzero,
        "nonzero": nonzero,
    }
    lines = [f"not an r-matrix: {len(nonzero)} nonzero entries" if nonzero else "r-matrix"]
    lines += [f"  [[r,r]]({', '.join(e['triple'])}) = {e['value']}" for e in nonzero]
    return 0, _emit(payload, lines, args.format)


def _cmd_scan(args, stdin_text):
    from .ybe import Bivector, is_r_matrix

    _, iso, qlabels = _model(args, stdin_text)
    inv = invariant_bivectors(iso)
    extra = [parse_bivector_expr(text, qlabels, "--candidate") for text in args.candidate or []]
    words = wedge_words(qlabels)
    # basis vector t is R / R_P for row (P, R) of the space, and the sum of
    # two is (e R + d S) / (d e): both lie in the invariant span
    basis = [(R, R[P]) for P, R in inv.rows]
    sums = (
        ({k: e * R.get(k, 0) + d * S.get(k, 0) for k in R.keys() | S.keys()}, d * e)
        for t, (R, d) in enumerate(basis)
        for S, e in basis[t + 1:]
    )

    def scanned(kind, r, invariant):
        # a row keeps its text and flags, not its bivector
        text = format_terms(words, r.nz, r.d)
        return {"kind": kind, "bivector": text, "invariant": invariant, "is_r_matrix": is_r_matrix(r)}

    out_rows = [scanned("basis", Bivector.of_ints(iso, *b), True) for b in basis]
    out_rows += [scanned("sum", Bivector.of_ints(iso, *b), True) for b in sums]
    out_rows += [scanned("candidate", Bivector(iso, c), inv.contains(c)) for c in extra]
    payload = {"rows": out_rows}
    lines = [f"{len(out_rows)} candidates"]
    for row in out_rows:
        flag = "r-matrix" if row["is_r_matrix"] else "not an r-matrix"
        invflag = "invariant" if row["invariant"] else "NOT invariant"
        lines.append(f"  [{row['kind']}] {row['bivector']}: {invflag}, {flag}")
    return 0, _emit(payload, lines, args.format)


def _cmd_leaf(args, stdin_text):
    from .foliation import leaf_cocycle, leaf_decomposition
    from .ybe import Bivector

    doc, iso, qlabels = _model(args, stdin_text)
    r = Bivector(iso, parse_bivector_expr(args.r, qlabels))
    data = leaf_cocycle(r)
    dec = leaf_decomposition(r)
    # frame vector t is R / R_P for row (P, R), and omega_r is blockdiag(0_h, N / d) on it
    frame_pretty = [format_terms(doc.labels, sorted(R.items()), R[P]) for P, R in data.rows]
    (N, d), m = r.omega, len(data.rows)
    omega = [["0"] * m] * (m - len(N)) + [["0"] * (m - len(N)) + [_ratio(x, d) for x in row] for row in N]
    payload = {
        "a_dim": m,
        "frame": frame_pretty,
        "omega": omega,
        "radical_equals_h": True,
        "reductive": dec.reductive,
        "symmetric": dec.symmetric,
    }
    if args.format == "json":
        payload["frame_coords"] = _coords(data.rows, doc.dim)
    lines = [f"a_r: dim {m}"] + [f"  {p}" for p in frame_pretty] + ["omega_r on that frame:"]
    lines += ["  [" + ", ".join(row) + "]" for row in omega] + ["radical equals h: true"]
    lines.append(f"decomposition: reductive {str(dec.reductive).lower()}, "
                 f"symmetric {str(dec.symmetric).lower()}")
    return 0, _emit(payload, lines, args.format)


def _entries(stars, items, d):
    """One {eta, xi, value} record per basis pair (a, c) with a nonzero covector nz / d."""
    return [
        {"eta": stars[a], "xi": stars[c], "value": format_terms(stars, nz, d)} for a, c, nz in items if nz
    ]


def _entry_lines(title, symbol, entries):
    if not entries:
        return [f"{title}: 0"]
    return [f"{title}:"] + [f"  {symbol}({e['eta']}, {e['xi']}) = {e['value']}" for e in entries]


def _cmd_connection(args, stdin_text):
    from .connections import build_connection, poisson_compat
    from .ybe import Bivector, require_r_matrix

    _, iso, qlabels = _model(args, stdin_text)
    require_reductive(iso)
    r = Bivector(iso, parse_bivector_expr(args.r, qlabels))
    require_r_matrix(r)
    b = build_connection(args.kind, r)
    stars = [lab + "*" for lab in qlabels]
    # b is N / d and the torsion T / den: both print off their integer tables
    b_nz = ((a, c, nz) for a, plane in enumerate(b.N) for c, nz in enumerate(plane))
    b_entries = _entries(stars, b_nz, b.d)
    T, R, den, _ = b.tables
    t_nz = ((a, c, [(k, x) for k, x in enumerate(v) if x]) for (a, c), v in T.items())
    t_entries = _entries(stars, t_nz, den)
    curved = [[stars[a], stars[c]] for a, c in R]
    compat = poisson_compat(b)
    payload = {
        "kind": args.kind,
        "b": b_entries,
        "torsion_zero": not t_entries,
        "torsion": t_entries,
        "curvature_zero": not curved,
        "curvature_nonzero_pairs": curved,
        "poisson_compatible": compat,
    }
    lines = [f"connection: {args.kind}"]
    lines += _entry_lines("b", "b", b_entries) + _entry_lines("torsion", "T", t_entries)
    lines.append(f"curvature zero: {str(not curved).lower()}")
    lines += [f"  R({eta}, {xi}) != 0" for eta, xi in curved]
    lines.append(f"poisson compatible: {str(compat).lower()}")
    return 0, _emit(payload, lines, args.format)


def _cmd_example(args, stdin_text):
    params = {}
    if args.n is not None:
        params["n"] = args.n
    if args.of is not None:
        params["of"] = args.of
    doc = catalog.builtin(args.name, params)
    return 0, catalog.emit(doc)


# argparse takes a value that starts with - for an option, so a bivector
# with a leading minus has to be attached with =
_R_HELP = 'bivector, e.g. "(e1-e2)^e3"; write --r=-u1^v1 for a leading minus'


# parse_args leaves no state on the parser, so one parser serves every call
@functools.cache
def _build_parser():
    parser = _Parser(prog="lieps", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(handler=handler)
        p.add_argument("--format", choices=("text", "json"), default="text")
        return p

    p = add("validate", _cmd_validate, help="check antisymmetry and Jacobi")
    p.add_argument("file")

    p = add("invariants", _cmd_invariants, help="invariant bivector space")
    p.add_argument("file")

    p = add("ybe", _cmd_ybe, help="Yang-Baxter tensor of a bivector")
    p.add_argument("file")
    p.add_argument("--r", required=True, help=_R_HELP)

    p = add("scan", _cmd_scan, help="r-matrix scan over simple candidates")
    p.add_argument("file")
    p.add_argument("--candidate", action="append",
                   help="extra bivector to test; write --candidate=-u1^v1 for a leading minus")

    p = add("leaf", _cmd_leaf, help="leaf algebra and cocycle of an r-matrix")
    p.add_argument("file")
    p.add_argument("--r", required=True, help=_R_HELP)

    p = add("connection", _cmd_connection, help="invariant contravariant connection")
    p.add_argument("file")
    p.add_argument("--r", required=True, help=_R_HELP)
    p.add_argument("--kind", required=True,
                   choices=("canonical", "natural", "left_symmetric", "fedosov"))

    p = add("example", _cmd_example, help="emit a builtin document as JSON")
    p.add_argument("name")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--of", default=None, help="base builtin for double")

    parser.commands = sub.choices  # the sub-parser of each command, by name
    return parser


def run_cli(argv, stdin_text=None):
    """Dispatch a CLI invocation; returns (exit_code, stdout, stderr).

    A known command's arguments go straight to its sub-parser, as the top
    parser would hand them on; its leftover strings are refused by the top
    parser, in parse_args's words.  No command, an unknown one, and an
    option before it are parsed by the top parser.
    """
    parser = _build_parser()
    sub = parser.commands.get(argv[0]) if argv else None
    cap_out = io.StringIO()
    cap_err = io.StringIO()
    try:
        with redirect_stdout(cap_out), redirect_stderr(cap_err):
            if sub is None:
                args = parser.parse_args(argv)
            else:
                args, extra = sub.parse_known_args(argv[1:])
                if extra:
                    parser.error(f"unrecognized arguments: {' '.join(extra)}")
                args.command = argv[0]
    except _Usage as e:
        return 2, cap_out.getvalue(), cap_err.getvalue() + str(e) + "\n"
    except SystemExit as e:  # --help lands here
        return int(e.code or 0), cap_out.getvalue(), cap_err.getvalue()
    try:
        code, out = args.handler(args, stdin_text)
        return code, out, ""
    except DocumentError as e:
        return 2, "", f"parse error: {e}\n"
    except LiepsError as e:
        return 1, "", f"error: {e}\n"


def main():
    code, out, err = run_cli(sys.argv[1:])
    if out:
        sys.stdout.write(out)
    if err:
        sys.stderr.write(err)
    return code


if __name__ == "__main__":
    sys.exit(main())
