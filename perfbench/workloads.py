"""Workload definitions: the fixed job lists and the seeded input generators.

Every job is one ``lieps.cli.run_cli(argv, document_text)`` call, exactly
what a user runs with the document piped on standard input.  The program
receives only JSON documents and ``--r`` text.  The benchmark builds those
inputs with its own plain-Fraction code (or with ``lieps example``, the
user's way to get a built-in document), so changing the program cannot
change the inputs.

Why each workload exists, and which layer metric should move which
end-to-end metric on it, is written down in ``perfbench/README.md``.
"""

from __future__ import annotations

import json
import random
from collections import namedtuple
from fractions import Fraction

DEFAULT_SEED = 0

# ---------------------------------------------------------------------------
# small exact helpers of the benchmark's own; they must not call lieps, so
# that a change to the program cannot change the inputs it is given


def rank(vectors) -> int:
    rows = [list(v) for v in vectors]
    r = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(r + 1, len(rows)):
            if rows[i][c] != 0:
                f = rows[i][c] / rows[r][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        r += 1
    return r


def inverse(m):
    """Gauss-Jordan inverse of a square Fraction matrix, or None if singular."""
    n = len(m)
    aug = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(m)]
    for c in range(n):
        piv = next((i for i in range(c, n) if aug[i][c] != 0), None)
        if piv is None:
            return None
        aug[c], aug[piv] = aug[piv], aug[c]
        p = aug[c][c]
        aug[c] = [x / p for x in aug[c]]
        for i in range(n):
            if i != c and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[c])]
    return [row[n:] for row in aug]


def matvec(m, v):
    return [sum((a * b for a, b in zip(row, v)), Fraction(0)) for row in m]


def greedy_complement(dim, subalgebra) -> list:
    """The documented default complement: scan e_1..e_n, keep what adds rank."""
    span = [list(v) for v in subalgebra]
    chosen = []
    for j in range(dim):
        e = [Fraction(int(t == j)) for t in range(dim)]
        if rank(span + [e]) > rank(span):
            span.append(e)
            chosen.append(j)
    return chosen


def quotient_labels(doc: dict) -> list:
    dim = doc["dim"]
    labels = doc.get("labels") or [f"e{t + 1}" for t in range(dim)]
    sub = [[Fraction(x) for x in v] for v in doc.get("subalgebra", [])]
    return [labels[j] for j in greedy_complement(dim, sub)]


def bivector_text(coords, qlabels) -> str:
    """``--r`` text of wedge coordinates over the quotient basis."""
    n = len(qlabels)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    out = []
    for (i, j), c in zip(pairs, coords):
        if c == 0:
            continue
        mag = abs(c)
        term = f"{qlabels[i]}^{qlabels[j]}" if mag == 1 else f"{mag}*{qlabels[i]}^{qlabels[j]}"
        if not out:
            out.append(term if c > 0 else f"-{term}")
        else:
            out.append(f"{'+' if c > 0 else '-'} {term}")
    return " ".join(out)


def combine(coeffs, basis) -> list:
    coords = [Fraction(0)] * len(basis[0])
    for c, b in zip(coeffs, basis):
        for t, x in enumerate(b):
            coords[t] += c * Fraction(x)
    return coords


# ---------------------------------------------------------------------------
# jobs


# one CLI invocation; ``key`` names it in digests and oracle reports
Job = namedtuple("Job", "key argv text")


def _example(cli, name, n=None, of=None):
    argv = ["example", name]
    if n is not None:
        argv += ["--n", str(n)]
    if of is not None:
        argv += ["--of", of]
    code, out, err = cli.run_cli(argv)
    if code != 0:
        raise RuntimeError(f"lieps {' '.join(argv)} failed: {err.strip()}")
    return out


def _doc_name(name, n=None, of=None):
    if of:
        return f"{name}({of}({n}))"
    return f"{name}({n})" if n is not None else name


class StaticWorkload:
    """A fixed job list; the seed only permutes the order of the documents."""

    seeded_inputs = False

    def __init__(self, docs, commands):
        self.docs = docs
        self.commands = commands

    def setup(self, cli, seed):
        groups = []
        for spec in self.docs:
            text = _example(cli, *spec)
            name = _doc_name(*spec)
            groups.append([Job(f"{name} {cmd}", [cmd, "-"], text) for cmd in self.commands])
        random.Random(seed).shuffle(groups)
        self.jobs = [job for group in groups for job in group]
        self.oracle_cases = []

    def run_pass(self, runner):
        for job in self.jobs:
            runner.run(job)


class RMatrixWorkload(StaticWorkload):
    """ybe, leaf and the four connections for one seed-drawn r per document.

    r is an integer combination of the invariant basis, coefficients drawn
    from the seed, redrawn until ``lieps ybe`` calls it an r-matrix.
    """

    seeded_inputs = True
    kinds = ("canonical", "natural", "left_symmetric", "fedosov")

    def __init__(self, docs):
        self.docs = docs

    def setup(self, cli, seed):
        rng = random.Random(seed)
        groups = []
        self.oracle_cases = []
        for spec in self.docs:
            text = _example(cli, *spec)
            name = _doc_name(*spec)
            code, out, err = cli.run_cli(["invariants", "-", "--format", "json"], text)
            if code != 0:
                raise RuntimeError(f"invariants of {name} failed: {err.strip()}")
            basis = json.loads(out)["basis_coords"]
            qlabels = quotient_labels(json.loads(text))
            for _ in range(100):
                coeffs = [rng.choice((-3, -2, -1, 1, 2, 3)) for _ in basis]
                coords = combine(coeffs, basis)
                r_text = bivector_text(coords, qlabels)
                code, out, _ = cli.run_cli(["ybe", "-", f"--r={r_text}"], text)
                if code == 0 and out == "r-matrix\n":
                    break
            else:
                raise RuntimeError(f"no r-matrix drawn for {name}")
            jobs = [
                Job(f"{name} ybe", ["ybe", "-", f"--r={r_text}"], text),
                Job(f"{name} leaf", ["leaf", "-", f"--r={r_text}"], text),
            ]
            jobs += [
                Job(f"{name} connection {kind}",
                    ["connection", "-", f"--r={r_text}", "--kind", kind], text)
                for kind in self.kinds
            ]
            groups.append(jobs)
            self.oracle_cases.append(
                {"key": f"{name} ybe", "text": text, "coords": coords, "r_matrix": True}
            )
        rng.shuffle(groups)
        self.jobs = [job for group in groups for job in group]


# ---------------------------------------------------------------------------
# random-dense: quotients built like the acceptance sweep, base families and
# direct sums pushed through a random rational change of basis

_Q = Fraction


def _v(*xs):
    return tuple(_Q(x) for x in xs)


# family: (dim, {(i, j): {k: c}}, h options as tuples of basis vectors)
_BASE = {
    "abelian3": (3, {}, ((), (_v(1, 0, 0),), (_v(1, 0, 0), _v(0, 1, 0)))),
    "heis": (3, {(0, 1): {2: _Q(1)}}, ((), (_v(0, 0, 1),), (_v(1, 0, 0), _v(0, 0, 1)))),
    "iso11": (3, {(0, 2): {0: _Q(1)}, (1, 2): {1: _Q(-1)}},
              ((), (_v(1, 0, 0),), (_v(0, 1, 0),))),
    "sl2": (3, {(0, 1): {1: _Q(2)}, (0, 2): {2: _Q(-2)}, (1, 2): {0: _Q(1)}},
            ((), (_v(0, 1, 0),), (_v(1, 0, 0),), (_v(1, 0, 0), _v(0, 1, 0)))),
    "so3": (3, {(0, 1): {2: _Q(1)}, (1, 2): {0: _Q(1)}, (0, 2): {1: _Q(-1)}},
            ((), (_v(1, 0, 0),))),
    "solv2": (2, {(0, 1): {0: _Q(1)}}, ((), (_v(1, 0),))),
}


def _direct_sum(a, b):
    da, bra, ha = a
    db, brb, hb = b
    brackets = {k: dict(v) for k, v in bra.items()}
    for (i, j), coeffs in brb.items():
        brackets[(da + i, da + j)] = {da + k: c for k, c in coeffs.items()}
    opts = tuple(
        tuple(v + (_Q(0),) * db for v in oa) + tuple((_Q(0),) * da + v for v in ob)
        for oa in ha
        for ob in hb
    )
    return (da + db, brackets, opts)


_FAMILIES = dict(_BASE)
for _a, _b in (("solv2", "solv2"), ("heis", "solv2"), ("sl2", "solv2"), ("heis", "heis")):
    _FAMILIES[f"{_a}+{_b}"] = _direct_sum(_BASE[_a], _BASE[_b])

# one stratum per (family, h option); instances cycle through them so that
# every seed draws the same mix and only the change of basis and r differ
STRATA = tuple((name, h) for name in sorted(_FAMILIES) for h in range(len(_FAMILIES[name][2])))


def _bracket(dim, table, x, y):
    out = [_Q(0)] * dim
    for (i, j), coeffs in table.items():
        c = x[i] * y[j] - x[j] * y[i]
        if c:
            for k, v in coeffs.items():
                out[k] += c * v
    return out


def random_document(rng, index) -> dict:
    """A transported quotient of the index-th stratum as a JSON document."""
    family, h_opt = STRATA[index % len(STRATA)]
    dim, table, h_options = _FAMILIES[family]
    while True:
        T = [[_Q(rng.randint(-2, 2)) for _ in range(dim)] for _ in range(dim)]
        Tinv = inverse(T)
        if Tinv is not None:
            break
    cols = [[T[r][c] for r in range(dim)] for c in range(dim)]
    brackets = []
    for i in range(dim):
        for j in range(i + 1, dim):
            w = matvec(Tinv, _bracket(dim, table, cols[i], cols[j]))
            coeffs = {str(k): str(c) for k, c in enumerate(w) if c != 0}
            if coeffs:
                brackets.append({"i": i, "j": j, "coeffs": coeffs})
    doc = {"name": f"rd{index}-{family}", "dim": dim, "brackets": brackets}
    sub = [matvec(Tinv, v) for v in h_options[h_opt]]
    if sub:
        doc["subalgebra"] = [[str(x) for x in v] for v in sub]
    return doc


class RandomDenseWorkload:
    """validate, invariants, ybe --r, then leaf --r when r is an r-matrix.

    The jobs of one instance form a closed-loop pipeline: r is drawn from
    the invariant basis that the ``invariants`` job printed, and ``leaf`` runs
    only when ``ybe`` answered "r-matrix".  Coefficients come from a
    per-instance generator, so every pass sends the same inputs.
    """

    seeded_inputs = True

    def __init__(self, count):
        self.count = count

    def setup(self, cli, seed):
        rng = random.Random(seed)
        self.instances = []
        for index in range(self.count):
            doc = random_document(rng, index)
            self.instances.append({
                "name": doc["name"],
                "text": json.dumps(doc, sort_keys=True),
                "qlabels": quotient_labels(doc),
                "r_seed": rng.getrandbits(64),
            })
        self.oracle_cases = []

    def run_pass(self, runner):
        record = not self.oracle_cases
        for inst in self.instances:
            name, text = inst["name"], inst["text"]
            if runner.run(Job(f"{name} validate", ["validate", "-"], text)) is None:
                continue
            out = runner.run(Job(f"{name} invariants",
                                 ["invariants", "-", "--format", "json"], text))
            if out is None:
                continue
            basis = json.loads(out)["basis_coords"]
            if not basis:
                continue
            rng = random.Random(inst["r_seed"])
            coeffs = [_Q(rng.randint(-3, 3), rng.randint(1, 2)) for _ in basis]
            if all(c == 0 for c in coeffs):
                coeffs[0] = _Q(1)
            coords = combine(coeffs, basis)
            r_text = bivector_text(coords, inst["qlabels"])
            out = runner.run(Job(f"{name} ybe", ["ybe", "-", f"--r={r_text}"], text))
            if out is None:
                continue
            is_r = out == "r-matrix\n"
            if record:
                self.oracle_cases.append(
                    {"key": f"{name} ybe", "text": text, "coords": coords, "r_matrix": is_r}
                )
            if is_r:
                runner.run(Job(f"{name} leaf", ["leaf", "-", f"--r={r_text}"], text))


WORKLOADS = {
    "scan": lambda: StaticWorkload(
        docs=[("heisenberg", 1), ("heisenberg", 2), ("heisenberg", 3),
              ("double", 1, "heisenberg"), ("double", 2, "heisenberg"),
              ("so4_grassmann",), ("iso11",), ("gl_sym", 2), ("gl_sym", 3)],
        commands=("validate", "invariants", "scan"),
    ),
    "rmatrix": lambda: RMatrixWorkload(
        docs=[("heisenberg", 2), ("heisenberg", 3), ("so4_grassmann",),
              ("double", 2, "heisenberg")],
    ),
    "wide": lambda: StaticWorkload(
        docs=[("heisenberg", 5), ("heisenberg", 6), ("abelian", 16), ("gl_sym", 4)],
        commands=("validate", "invariants"),
    ),
    "random-dense": lambda: RandomDenseWorkload(count=88),
}
