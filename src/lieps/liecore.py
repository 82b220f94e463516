"""Finite-dimensional Lie algebras over Q and isotropy quotients.

A Lie algebra is its table of structure constants over a fixed basis, stored
once, sparse and in integers over one denominator: nz[i][j] lists the
nonzero n_ijk of [e_i, e_j] and c_ijk = n_ijk / den.  Every bracket,
ad-matrix, Jacobi and automorphism evaluation iterates over that table in
int arithmetic, so its cost follows the nonzero products and no Fraction is
built until a result leaves the kernel: a bracket or ad-matrix scales each
argument by the lcm of its denominators and divides once per nonzero output
entry, and a zero test (Jacobi, antisymmetry, automorphism) never divides.
One normaliser, lie_algebra_of_terms, builds every table, from
make_lie_algebra and from the document parser alike.

An isotropy model packages a subalgebra h together with an explicit linear
model of the quotient g/h: a projection q and a section s built from
standard basis vectors, both read off one integer elimination of the rows
of h (`complement_projection`), which the model keeps and builds q and s
from on first use.  (g/h)* is identified with the annihilator h° of
h inside g* through q^T; h° is not stored, since eta lies in it exactly when
<eta, u> = 0 for every h-basis vector u.

Each exact table has one sparse integer form.  A linear map is a `Generator`
N / d, the nonzeros of each column of N, applied by column_product: a
discrete generator, q, and each operator of the model's `action` on g/h
(ad-bar q ad_u s from the brackets of u with the complement vectors, q A s).
A bilinear table lists the nonzeros of table(e_i, e_j) at nz[i][j]: the
structure constants and `m_table`, the m-bracket on the quotient basis, read
by _sparse_bracket and ad_rows.  The automorphism check reads A = N / d
through its moved columns S, those with N e_m != d e_m: the S x S block for
singularity, and only the pairs meeting S, directly or through
`LieAlgebra.pairs_into`, for the brackets.  How `action` moves a bivector
is one rule, invariants.wedge2_image; this module has only the wedge basis.
"""

from __future__ import annotations

from functools import cache, cached_property
from fractions import Fraction
from math import gcd, lcm
from typing import NamedTuple

from .errors import (
    GeneratorMovesH,
    NoSolution,
    NotAnAutomorphism,
    NotASubalgebra,
    NotInH,
    NotReductive,
)
from .exact import Mat, Subspace, _rref_int_rows, from_ints, mat_lincomb, to_ints


class Frozen:
    """An immutable value: __init__ writes its fields straight into __dict__.

    Assigning or deleting an attribute raises AttributeError; a cached_property
    writes __dict__ directly, so a cached view still fills in.  Equality and
    hashing read the fields named in _fields, in order, between instances of
    one class, and never a cached view.
    """

    __slots__ = ()
    _fields = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _key(self) -> tuple:
        d = self.__dict__
        return tuple(d[f] for f in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        fields = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._key()))
        return f"{type(self).__name__}({fields})"


class LieAlgebra(Frozen):
    """dim, labels, and nz[i][j] = ((k, n_ijk), ...), the nonzeros of den [e_i, e_j], k increasing.

    c_ijk = n_ijk / den.  The constructor checks that the constants are ints
    over a positive int den; _trusted wraps a table the normaliser has just made.
    """

    _fields = ("dim", "labels", "nz", "den")

    def __init__(self, dim: int, labels: tuple, nz: tuple, den: int = 1):
        if len(labels) != dim or len(nz) != dim:
            raise ValueError(f"labels and structure constants must have length {dim}")
        if type(den) is not int or den <= 0:
            raise ValueError(f"den must be a positive int, got {den!r}")
        if any(type(c) is not int for row in nz for terms in row for _, c in terms):
            raise ValueError("structure constants must be ints over den")
        self.__dict__.update(dim=dim, labels=labels, nz=nz, den=den)

    @classmethod
    def _trusted(cls, dim, labels, nz, den) -> "LieAlgebra":
        """Wrap dim labels and dim rows of int constants over a positive int den, not checked again."""
        L = object.__new__(cls)
        L.__dict__.update(dim=dim, labels=labels, nz=nz, den=den)
        return L

    @cached_property
    def pairs_into(self) -> tuple:
        """pairs_into[k] lists the pairs (i, j), i < j, whose nz[i][j] has an e_k-term, in order."""
        out = [[] for _ in range(self.dim)]
        for i, row in enumerate(self.nz):
            for j in range(i + 1, self.dim):
                for k, _ in row[j]:
                    out[k].append((i, j))
        return tuple(out)


def make_lie_algebra(dim, brackets, labels=None) -> LieAlgebra:
    """Build an algebra from sparse brackets given on pairs i < j.

    `brackets` maps (i, j) with i < j to {k: coefficient}; the table is
    completed antisymmetrically by lie_algebra_of_terms, which the document
    parser calls too.  Ints and Fractions are taken as they are; anything
    else goes through Fraction once.  Jacobi is not checked here; run
    validate for a full report.
    """
    if labels is None:
        labels = tuple(f"e{i + 1}" for i in range(dim))
    terms = []
    for (i, j), coeffs in brackets.items():
        if not (0 <= i < j < dim):
            raise ValueError(f"bracket key ({i}, {j}) must satisfy 0 <= i < j < dim")
        for k, v in coeffs.items():
            if not 0 <= k < dim:
                raise ValueError(f"coefficient index {k} out of range for dim {dim}")
            if not isinstance(v, (int, Fraction)):
                v = Fraction(v)
            terms.append((i, j, k, v.numerator, v.denominator))
    return lie_algebra_of_terms(dim, labels, terms)


def lie_algebra_of_terms(dim, labels, terms) -> LieAlgebra:
    """The algebra with c_ijk = p / q for each term (i, j, k, p, q), i < j, q > 0, once each.

    The table is completed antisymmetrically and zero terms are dropped.
    den = D / gcd(D, all D p / q), D = lcm of the q, is the least common
    denominator, so equal brackets give equal algebras ("2/4" and "1/2" alike).
    """
    labels = tuple(map(str, labels))
    if len(labels) != dim:
        raise ValueError(f"labels and structure constants must have length {dim}")
    # sorted by (i, j, k), so each row comes out with k increasing
    terms = sorted([term for term in terms if term[3]])
    den = _least_den([term[3:] for term in terms])
    nz = [[[] for _ in range(dim)] for _ in range(dim)]
    for i, j, k, p, q in terms:
        v = p * den // q
        nz[i][j].append((k, v))
        nz[j][i].append((k, -v))
    return LieAlgebra._trusted(dim, labels, tuple(tuple(map(tuple, row)) for row in nz), den)


def _least_den(pairs) -> int:
    """The least common denominator of the rationals p / q, q > 0, of the (p, q) pairs."""
    D = lcm(*[q for _, q in pairs])
    return D // gcd(D, *[p * (D // q) for p, q in pairs])


class Generator(NamedTuple):
    """A linear map A = N / d: cols[j] lists the nonzeros (i, N_ij) of column j of N, d least.

    The form of a discrete generator, q, r_# and, with d not reduced, each
    operator of IsotropyModel.action; column_product applies it.
    """

    cols: tuple
    d: int

    @classmethod
    def of_entries(cls, n, entries) -> "Generator":
        """The n x n generator with A_ij = p / q, q > 0, per nonzero entry (i, j, p, q) in row order."""
        d = _least_den([e[2:] for e in entries])
        cols = [[] for _ in range(n)]
        for i, j, p, q in entries:
            cols[j].append((i, p * d // q))
        return cls(tuple(map(tuple, cols)), d)

    @classmethod
    def of_matrix(cls, A) -> "Generator":
        """The form of a square Mat, or of a list of rows of rationals, read once."""
        A = A if isinstance(A, Mat) else Mat(A)
        if A.rows != A.cols:
            raise NotAnAutomorphism("generator has the wrong shape")
        return cls.of_entries(A.rows, [
            (i, j, x.numerator, x.denominator) for i, row in enumerate(A.entries) for j, x in enumerate(row) if x
        ])

    def rows(self, m=None) -> list:
        """The m rows {j: N_ij} of N, m = len(cols) unless given, transposed once from its columns."""
        out = [{} for _ in range(len(self.cols) if m is None else m)]
        for j, col in enumerate(self.cols):
            for i, x in col:
                out[i][j] = x
        return out

    @property
    def mat(self) -> Mat:
        """A as a Fraction matrix: a view for reconstruct_r and the oracles."""
        n = len(self.cols)
        return Mat.from_ints([[row.get(j, 0) for j in range(n)] for row in self.rows()], self.d)


def column_product(cols, xs) -> dict:
    """N x as {i: value}, zeros kept, from the nonzeros (j, x_j) of x and (i, N_ij) of the columns of N."""
    out = {}
    for j, x in xs:
        for i, y in cols[j]:
            out[i] = out.get(i, 0) + x * y
    return out


def _sparse_bracket(nz, xs, ys) -> dict:
    """table(x, y) as {k: value} from the nonzero (index, coefficient) pairs of x and y.

    nz[i][j] lists the nonzeros (k, n_ijk) of table(e_i, e_j): LieAlgebra.nz, m_table or a connection's N.
    """
    out = {}
    for i, xi in xs:
        nzi = nz[i]
        for j, yj in ys:
            terms = nzi[j]
            if terms:
                xy = xi * yj
                for k, c in terms:
                    out[k] = out.get(k, 0) + xy * c
    return out


def _nonzeros(x) -> tuple:
    return tuple((i, xi) for i, xi in enumerate(x) if xi)


def bracket(L: LieAlgebra, x, y) -> tuple:
    """[x, y] of two rational vectors, through one integer sparse bracket."""
    xs, dx = to_ints(_nonzeros(x))
    ys, dy = to_ints(_nonzeros(y))
    out = _sparse_bracket(L.nz, xs, ys)
    return from_ints([out.get(k, 0) for k in range(L.dim)], L.den * dx * dy)


def ad_rows(nz, xs, n) -> list:
    """The n rows of table(x, .), column j = sum_i x_i nz[i][j], for a table nz as in _sparse_bracket."""
    rows = [[0] * n for _ in range(n)]
    for i, xi in xs:
        for j, terms in enumerate(nz[i]):
            for k, c in terms:
                rows[k][j] += xi * c
    return rows


def ad_matrix(L: LieAlgebra, x) -> Mat:
    """Matrix of ad_x = [x, -] in the defining basis (columns are images)."""
    xs, dx = to_ints(_nonzeros(x))
    return Mat.from_ints(ad_rows(L.nz, xs, L.dim), L.den * dx)


def structure_constants(space: Subspace, br, error) -> dict:
    """Bracket table {(i, j): coordinates of br(b_i, b_j)}, i < j, of a subalgebra.

    b is the RREF basis of space and the coordinates are taken in it;
    error(i, j) is the exception raised when br(b_i, b_j) leaves the space.
    """
    b = space.basis
    out = {}
    for i in range(space.dim):
        for j in range(i + 1, space.dim):
            try:
                out[i, j] = space.coords_of(br(b[i], b[j]))
            except NoSolution:
                raise error(i, j) from None
    return out


class Report(NamedTuple):
    ok: bool
    antisymmetry_failures: tuple  # pairs (i, j) with c[i][j] != -c[j][i]
    jacobi_failures: tuple  # triples (i, j, k) with nonzero jacobiator


def _jacobi_failures(L: LieAlgebra) -> tuple:
    """Triples i < j < k with a nonzero jacobiator, from the nonzeros of c.

    The jacobiator of (i, j, k) is the sum over the rotations (t, a, b) of
    (i, j, k) of [e_t, [e_a, e_b]], whose l-component is
    sum_m c[a][b][m] c[t][m][l].  Each nonzero product is visited once, from
    the inner pair and the outer index t, and credited to the sorted triple
    when (t, a, b) is a rotation of it: for a < b the inner pair is (a, b)
    when t lies outside [a, b] and (b, a) when a < t < b, so each unordered
    pair is visited once.  The sums are taken over the integers n = den c: a
    zero test does not depend on the scale.
    """
    n = L.dim
    nz = L.nz
    # m -> outer indices t with a nonzero [e_t, e_m], and those terms
    outer = [[(t, nz[t][m]) for t in range(n) if nz[t][m]] for m in range(n)]
    sums = {}
    for a in range(n):
        for b in range(a + 1, n):
            for m, cab in nz[a][b]:
                for t, terms in outer[m]:
                    if t < a or t > b:
                        acc = sums.setdefault((t, a, b) if t < a else (a, b, t), {})
                        for l, ctm in terms:
                            acc[l] = acc.get(l, 0) + cab * ctm
            for m, cba in nz[b][a]:
                for t, terms in outer[m]:
                    if a < t < b:
                        acc = sums.setdefault((a, t, b), {})
                        for l, ctm in terms:
                            acc[l] = acc.get(l, 0) + cba * ctm
    return tuple(sorted(key for key, acc in sums.items() if any(acc.values())))


def validate(L: LieAlgebra) -> Report:
    """Antisymmetry and Jacobi of the integer table, failures listed by index."""
    n = L.dim
    nz = L.nz
    anti = [
        (i, j)
        for i in range(n)
        for j in range(i, n)
        if nz[i][j] != tuple((k, -x) for k, x in nz[j][i])
    ]
    jac = _jacobi_failures(L)
    return Report(not anti and not jac, tuple(anti), jac)


class IsotropyModel(Frozen):
    """Quotient model g/h with a preferred standard-basis complement.

    h_basis.rows is the integer elimination of h in the natural column
    order, which the model checks, `action` and the reductive flag read;
    h_rows is its elimination in the complement order, which picked the
    complement (_complement_rows); on first use the model builds off it

    q_matrix : (n-k) x n projection onto quotient coordinates, zero on h
    s_matrix : n x (n-k) section, columns are the complement standard vectors

    q^T identifies a quotient covector with its representative in the
    annihilator h° of h, the working model of (g/h)*.

    The integer columns of q, the isotropy action on g/h (`action`, its one
    form), the reductive and symmetric flags and the integer m-bracket table
    m_table are derived once; validate reads none.
    """

    # h_rows is derived from h_basis and the complement, so equality leaves it out
    _fields = ("L", "h_basis", "complement_indices", "generators")

    def __init__(self, L: LieAlgebra, h_basis: Subspace, complement_indices: tuple, h_rows: tuple,
                 generators: tuple = ()):
        # generators: of Generator, each checked by make_isotropy
        self.__dict__.update(
            L=L, h_basis=h_basis, complement_indices=complement_indices, h_rows=h_rows, generators=generators
        )

    @cached_property
    def discrete_generators(self) -> tuple:
        """The generators as Fraction matrices: a view for reconstruct_r and the oracles."""
        return tuple(A.mat for A in self.generators)

    @property
    def quotient_dim(self) -> int:
        return len(self.complement_indices)

    @cached_property
    def _q_columns(self) -> Generator:
        """q = Q / d as a Generator: cols[k] lists the nonzeros (t, Q_tk).

        q e_j = eps_t for the t-th complement vector e_j, and
        q e_P = -sum_t (R_{j_t} / R_P) eps_t for each row (P, R) of h_rows.
        R is primitive and vanishes off P and the complement, so d = lcm |R_P|
        is the least common denominator of q.
        """
        pos = {j: t for t, j in enumerate(self.complement_indices)}
        d = lcm(*(R[P] for P, R in self.h_rows))
        cols = [[(pos[k], d)] if k in pos else [] for k in range(self.L.dim)]
        for P, R in self.h_rows:
            f = d // R[P]
            cols[P] = [(pos[i], -x * f) for i, x in R.items() if i != P]
        return Generator(cols, d)

    @cached_property
    def q_matrix(self) -> Mat:
        q, n = self._q_columns, self.L.dim
        rows = q.rows(self.quotient_dim)
        return Mat._trusted(tuple(from_ints([row.get(k, 0) for k in range(n)], q.d) for row in rows), n)

    @cached_property
    def s_matrix(self) -> Mat:
        e = Mat.identity(self.L.dim).entries
        return Mat.from_cols([e[j] for j in self.complement_indices], self.L.dim)

    @cached_property
    def m_table(self) -> tuple:
        """(mu, D): [e_j, e_t]_m = sum_i mu[j][t][i] / D e_i on the quotient basis, D = dq den.

        A bilinear table like LieAlgebra.nz: mu[j][t] lists the nonzeros
        (i, mu_jti) of column t of the integer q ad(e_j) s, e_j the j-th
        complement vector, which is what _quotient_ints returns.
        """
        comp = self.complement_indices
        mu = tuple(self._quotient_ints(self.L.nz[j][t] for t in comp) for j in comp)
        return mu, self._q_columns.d * self.L.den

    def m_ad_ints(self, xs) -> list:
        """Integer rows N of [x, .]_m = N / (dx D), x = sum_j (x_j / dx) e_j, xs its nonzeros (j, x_j).

        For x = r_# eps_a it is the l-operator L[a] of r.
        """
        return ad_rows(self.m_table[0], xs, self.quotient_dim)

    def _complement_brackets(self, xs) -> list:
        """cols[t] lists the (k, int) of den [x, e_j], e_j the t-th complement vector, x = sum x_i e_i."""
        nz = self.L.nz
        return [_sparse_bracket(nz, xs, ((j, 1),)).items() for j in self.complement_indices]

    def _quotient_ints(self, images) -> tuple:
        """The columns of nonzeros of dq q M s, from the pairs (k, v) of the images of s under M."""
        qcols = self._q_columns.cols
        return tuple(tuple((i, x) for i, x in column_product(qcols, v).items() if x) for v in images)

    @cached_property
    def action(self) -> tuple:
        """The isotropy action on g/h, one Generator N / d per generator of it.

        First ad-bar_u = q ad_u s, N = dq den q ad_R s and d = dq den R_P, for
        each h-basis vector u = R / R_P, (P, R) a row of h; ad_u maps h to h,
        so ad-bar_u does not depend on the section.  Then q A s, N = dq q N_A s
        and d = dq dA, for each discrete generator A = N_A / dA; only the
        columns A moves go through q, and the t-th complement vector e_j off
        them maps to the unit column dq dA eps_t.  These d are not reduced
        against N.
        """
        dq, comp = self._q_columns.d, self.complement_indices
        out = [
            Generator(self._quotient_ints(self._complement_brackets(R.items())), dq * self.L.den * R[P])
            for P, R in self.h_basis.rows
        ]
        for A in self.generators:
            S, d = _moved_columns(A), dq * A.d
            moved = iter(self._quotient_ints(A.cols[j] for j in comp if j in S))
            out.append(Generator(tuple(next(moved) if j in S else ((t, d),) for t, j in enumerate(comp)), d))
        return tuple(out)

    @cached_property
    def reductive(self) -> bool:
        """[h, m] in m for the declared complement m = s(g/h).

        m is spanned by the complement standard vectors, so a vector lies in
        m iff it vanishes off the complement indices; the condition is read
        off the integer brackets [R, e_j] of each integer row R of h.
        """
        comp = set(self.complement_indices)
        return all(
            k in comp or not v
            for _, R in self.h_basis.rows
            for col in self._complement_brackets(R.items())
            for k, v in col
        )

    @cached_property
    def symmetric(self) -> bool:
        """[m, m] in h for the declared complement m = s(g/h): m_table is zero.

        h = ker q, so this is every m-bracket q[e_j, e_t] of two complement
        vectors vanishing; then [[r,r]] = 0 for every r (yang_baxter_tensor).
        """
        return not any(any(cols) for cols in self.m_table[0])


def require_reductive(iso: IsotropyModel) -> None:
    """NotReductive unless the declared complement is h-stable, [h, m] in m."""
    if not iso.reductive:
        raise NotReductive("the declared complement is not h-stable")


def _check_subalgebra(L: LieAlgebra, h: Subspace):
    # den [R_i, R_j] of two integer rows of h is a nonzero multiple of [b_i, b_j]
    # for the basis b = R / R_P; only a failure builds the Fraction witness
    rows = h.rows
    for i, j in wedge2_space(h.dim):
        if h.residual(_sparse_bracket(L.nz, rows[i][1].items(), rows[j][1].items())):
            b = h.basis
            raise NotASubalgebra(
                f"[h{i + 1}, h{j + 1}] leaves the would-be subalgebra",
                witness=(b[i], b[j], bracket(L, b[i], b[j])),
            )


def _moved_columns(A: Generator) -> set:
    """The columns m that A = N / d moves, N e_m != d e_m; every other column of N is d e_m.

    A column not spelled as the tuple ((m, d),) counts as moved, which costs
    its readers time, not correctness.
    """
    cols, d = A
    return {m for m, col in enumerate(cols) if col != ((m, d),)}


def _check_automorphism(L: LieAlgebra, A: Generator, h: Subspace):
    # A = N / dA; N e_m = dA e_m off the moved columns S, so the singular and bracket tests read S alone
    cols, dA = A
    if len(cols) != L.dim:
        raise NotAnAutomorphism("generator has the wrong shape")
    S = _moved_columns(A)
    # N is singular exactly when its S x S block is
    if len(_rref_int_rows([{i: a for i, a in cols[m] if i in S} for m in S], L.dim)[1]) < len(S):
        raise NotAnAutomorphism("generator is singular")
    nz = L.nz
    # a pair off S whose bracket has no e_m-term, m in S, passes: both sides are dA^2 [e_i, e_j]
    pairs = _pairs_meeting(S, L.dim).union(*(L.pairs_into[m] for m in S))
    # both sides below are dA^2 den times [A e_i, A e_j] and A[e_i, e_j]
    for i, j in sorted(pairs):
        # den [N e_i, N e_j] - dA N (den [e_i, e_j]), from nonzeros only
        diff = _sparse_bracket(nz, cols[i], cols[j])
        for k, a in column_product(cols, nz[i][j]).items():
            diff[k] = diff.get(k, 0) - dA * a
        if any(diff.values()):
            raise NotAnAutomorphism(
                f"A[e{i + 1}, e{j + 1}] != [Ae{i + 1}, Ae{j + 1}]"
            )
    # A h lies in h exactly when the image N R of each integer row R of h does
    for _, R in h.rows:
        if h.residual(column_product(cols, R.items())):
            raise GeneratorMovesH("generator does not preserve the isotropy subalgebra")


def _complement_rows(space: Subspace, indices=None) -> tuple:
    """(indices, rows): complement_projection in ints, one (P, R) per pivot P.

    R = {i: R_i} holds the nonzeros of a primitive integer row; column P of
    the projection is R / R_P.
    """
    n = space.ambient
    if indices is None:
        order = tuple(range(n - 1, -1, -1))
    else:
        indices = tuple(indices)
        if any(not 0 <= j < n for j in indices):
            raise ValueError(f"complement indices must lie in 0..{n - 1}")
        taken = set(indices)
        if len(taken) != len(indices) or len(indices) != n - space.dim:
            raise ValueError("the standard vectors do not complete the subspace to a basis")
        order = tuple(j for j in range(n) if j not in taken) + indices
    rows = [{k: R[j] for k, j in enumerate(order) if j in R} for _, R in space.rows]
    red, pivots = _rref_int_rows(rows, n) if rows else ((), [])
    if indices is None:
        on_space = {order[p] for p in pivots}
        indices = tuple(j for j in range(n) if j not in on_space)
    elif pivots != list(range(space.dim)):
        raise ValueError("the standard vectors do not complete the subspace to a basis")
    return indices, tuple((order[p], {order[k]: x for k, x in row.items()}) for row, p in zip(red, pivots))


def complement_projection(space: Subspace, indices=None) -> tuple:
    """(indices, proj): standard vectors e_j completing `space`, and the projection along them.

    proj is the n x n projection onto space along span(e_j, j in indices),
    found by one elimination of the basis of space with its pivots on the
    columns P off the complement: the reduced rows b_p satisfy b_p[p'] = 1
    if p = p' and 0 otherwise on P, so proj x = sum_p x_p b_p, column p of
    proj is b_p and the complement columns are zero.

    With no indices the columns are taken in reverse order.  The greedy scan
    keeps e_j when it lies outside space + span(e_0, ..., e_{j-1}), which
    happens exactly when j is not a pivot of that reduction, so the same
    elimination picks the complement.  Explicit indices put the columns off
    them first, and complete the space exactly when the pivots come first.
    Raises ValueError unless they are distinct, in range and complete space
    to a basis of the ambient.  The elimination is _complement_rows, which
    make_isotropy keeps as the model's h_rows.
    """
    n = space.ambient
    indices, rows = _complement_rows(space, indices)
    proj = [[Fraction(0)] * n for _ in range(n)]
    for P, R in rows:
        for i, x in R.items():
            proj[i][P] = Fraction(x, R[P])
    return indices, Mat._trusted(tuple(map(tuple, proj)), n)


def make_isotropy(L: LieAlgebra, h_vectors, discrete_generators=None, complement_indices=None) -> IsotropyModel:
    """Package a subalgebra h with an explicit quotient model.

    The complement is scanned greedily through the standard basis unless
    explicit indices are supplied; either way the chosen standard vectors
    must complete a basis of g together with h, else ValueError.  q and s
    are built on first use.  A generator (a Generator, a Mat or rows) is read
    into its integer form once, which the automorphism check and `action` share.
    """
    n = L.dim
    h = Subspace.from_vectors(n, h_vectors)
    _check_subalgebra(L, h)

    complement_indices, h_rows = _complement_rows(h, complement_indices)

    gens = []
    for A in discrete_generators or ():
        A = A if isinstance(A, Generator) else Generator.of_matrix(A)
        _check_automorphism(L, A, h)
        gens.append(A)

    return IsotropyModel(
        L=L,
        h_basis=h,
        complement_indices=complement_indices,
        h_rows=h_rows,
        generators=tuple(gens),
    )


def induced_ad_bar(iso: IsotropyModel, u) -> Mat:
    """Matrix of the quotient action ad-bar_u = q ad_u s for u in h.

    Well defined because h is a subalgebra: ad_u maps h to h, so the result
    does not depend on the choice of section.  It is linear in u: the
    ad-bars of the model's action combined by the coordinates of u in the
    basis of h.
    """
    try:
        bars = [op.mat for op in iso.action[: iso.h_basis.dim]]
        return mat_lincomb(iso.h_basis.coords_of(u), bars, iso.quotient_dim)
    except NoSolution:
        raise NotInH("ad-bar is only defined for elements of the isotropy subalgebra") from None


def induced_map(iso: IsotropyModel, A: Mat) -> Mat:
    """Quotient matrix q A s of an h-preserving A, by Fraction products: the oracle of `action`."""
    return iso.q_matrix @ A @ iso.s_matrix


def covector_to_ann(iso: IsotropyModel, alpha) -> tuple:
    """Identify a quotient covector with its annihilator representative q^T a."""
    return iso.q_matrix.apply_T(alpha)


def ann_to_covector(iso: IsotropyModel, eta) -> tuple:
    """Inverse identification h° -> (g/h)*, eta -> s^T eta."""
    return iso.s_matrix.apply_T(eta)


def m_bracket(iso: IsotropyModel, x, y) -> tuple:
    """The m-bracket [x, y]_m = q[s x, s y] of two quotient vectors; the oracle of m_table."""
    return iso.q_matrix @ bracket(iso.L, iso.s_matrix @ x, iso.s_matrix @ y)


@cache
def wedge2_space(dim) -> tuple:
    """Index pairs (i, j), i < j, in lexicographic order: the wedge basis."""
    return tuple((i, j) for i in range(dim) for j in range(i + 1, dim))


def _pairs_meeting(S, n) -> set:
    """The wedge pairs (i, j), i < j < n, with i or j in S."""
    return {(min(m, j), max(m, j)) for m in S for j in range(n) if j != m}
