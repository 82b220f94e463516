"""Bivectors, lifts, the bracket on the annihilator, and the Yang-Baxter tensor.

A bivector r on g/h is stored by its wedge coordinates, ints over one
denominator; its sharp map, <beta, r_# alpha> = r(alpha, beta), is read off
them as the Generator R / d_r (Bivector.r_sharp; r_mat is its Fraction
view).  Its obstruction tensor [[r,r]] is read off the quotient, with
C[a][b] = [eps_a, eps_b]_r on m*:

    [[r,r]](eps_a, eps_b, eps_c) = <eps_c, r_# C[a][b] - [r_# eps_a, r_# eps_b]_m>,

the defect of r_# as a morphism from [.,.]_r to the m-bracket q[s x, s y].
Its vanishing is the invariant-Poisson condition, and bivectors passing it
are r-matrices.  The l-operators, the table C and the tensor are integer
contractions of R with the one m-bracket table of the model
(IsotropyModel.m_table).  The l-operators L[a] = l_{eps_a^#} exist only
in that integer form (Bivector.int_tables, the pair (L, d_c)), built on the
support X of r_# and only for their readers; each forms C from them, the
tensor once per pair in X.  l_operator(r, alpha) is the m-ad of r_# alpha.
The leaf frame reads r_sharp, the h part of action_moves and m_table alone.

The h° route is the independent oracle: over a lift r-tilde of r to g
(`canonical_lift`, `sharp`), the bracket on h° (`hcirc_bracket`,
`quotient_hcirc`) and the cyclic Schouten sum (`schouten_oracle`) give the
same tensor on annihilator triples, for any lift when r is invariant.
Sign convention: the bracket on h° is

    [eta, xi]_r = ad(xi^#)^T eta - ad(eta^#)^T xi

which is the unique orientation matching the cyclic Schouten oracle

    [[r,r]](eta, xi, eps) = -<eta,[xi^#,eps^#]> - <xi,[eps^#,eta^#]>
                            - <eps,[eta^#,xi^#]>

term by term; the oracle is the arbiter and the agreement is frozen in tests.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, partial
from math import gcd
from typing import NamedTuple

from .errors import JacobiFailure, NotAnRMatrix, NotInAnnihilator
from .exact import (
    Mat,
    Subspace,
    dot,
    from_ints,
    int_vectors,
    inverse_ints,
    to_ints,
    vec,
    vsub,
)
from .invariants import fixed_quotient_covectors
from .liecore import (
    Frozen,
    Generator,
    IsotropyModel,
    LieAlgebra,
    _sparse_bracket,
    ad_matrix,
    ann_to_covector,
    bracket,
    column_product,
    covector_to_ann,
    make_lie_algebra,
    structure_constants,
    validate,
    wedge2_space,
)


class Bivector(Frozen):
    """A bivector on g/h: its wedge coordinates N_k / d, nz the nonzeros (k, N_k), k increasing, d least.

    Bivector(iso, coords) reads any rational sequence, one per pair of
    wedge2_space, ints kept as they are, and of_ints an integer row over a
    denominator.  Derived once, on first use, and shared by every check of
    the bivector: r_# as a Generator (r_sharp), and its Fraction view r_mat;
    the l-operators (int_tables), which the tensor, mstar_bracket and the
    connection builders read; the tensor; and Im r_#, omega_r on it and the
    q-brackets of the leaf frame, in ints (image, omega, image_brackets).
    """

    _fields = ("iso", "nz", "d")

    def __init__(self, iso: IsotropyModel, coords):
        coords = [x if type(x) is int else Fraction(x) for x in coords]
        m = len(wedge2_space(iso.quotient_dim))
        if len(coords) != m:
            raise ValueError(f"expected {m} wedge coordinates, got {len(coords)}")
        nz, d = to_ints((k, c) for k, c in enumerate(coords) if c)
        self.__dict__.update(iso=iso, nz=nz, d=d)

    @classmethod
    def of_ints(cls, iso: IsotropyModel, row, d) -> "Bivector":
        """The bivector with wedge coordinates row[k] / d, row a {pair index: int} dict, d > 0."""
        g = gcd(d, *row.values())
        r = object.__new__(cls)
        r.__dict__.update(iso=iso, nz=tuple((k, x // g) for k, x in sorted(row.items()) if x), d=d // g)
        return r

    @cached_property
    def r_mat(self) -> Mat:
        """r_sharp.mat: r_# as a skew Fraction matrix, read by the oracles and the Nomizu dictionary."""
        return self.r_sharp.mat

    @cached_property
    def tensor(self) -> "YBTensor":
        """[[r,r]] on the quotient covector basis."""
        return yang_baxter_tensor(self)

    @cached_property
    def r_sharp(self) -> Generator:
        """r_# = R / d_r, d_r = d: pair k = (i, j) puts (j, N_k) in column i and (i, -N_k) in column j."""
        n = self.iso.quotient_dim
        pairs = wedge2_space(n)
        R = [[] for _ in range(n)]
        for k, c in self.nz:
            i, j = pairs[k]
            R[i].append((j, c))
            R[j].append((i, -c))
        return Generator(R, self.d)

    @cached_property
    def image(self) -> Subspace:
        """Im r_# in quotient coordinates, the span of the integer columns of R = d_r r_#."""
        return Subspace._of_rows(self.iso.quotient_dim, [dict(col) for col in self.r_sharp.cols])

    @cached_property
    def omega(self) -> tuple:
        """(N, e): omega_r(w_i, w_j) = <xi_j, w_i> = N_ij / e, r_# xi_j = w_j, on the RREF basis w of Im r_#.

        It is B^-1, B = r_#[P, P] on the pivots P of Im r_#: W = (w_j) has
        W[P] = I, so r_# = W K with K = r_#[P, :], and omega_r(r_# alpha, r_# beta)
        = <beta, r_# alpha> reads K^T Omega K = r_#^T, whose block P x P is
        B^T Omega B = B^T.  B is invertible: x on P with B x = 0 has r_# x =
        W B x = 0, so x annihilates Im r_#, and <x, w_i> = x_i.  Any xi_j will
        do, since ker r_# annihilates Im r_# (r_# is skew).  Off the basis
        omega_r is the bilinear combination of this matrix.  B = R[P, P] / d_r
        is inverted in ints, over the least denominator e.
        """
        P = self.image.pivots
        rows = self.r_sharp.rows()
        return inverse_ints([[rows[i].get(j, 0) for j in P] for i in P], self.d)

    @cached_property
    def image_brackets(self) -> tuple:
        """(A, M), the q-brackets of the leaf frame {h-basis u} + {s w}, w the RREF basis of Im r_#.

        With w_j = R_j / R_j[P_j] for the rows (P_j, R_j) of Im r_#:
        A[t][j] = q[u_t, s w_j] = ad-bar_{u_t} w_j, the column product of
        X = N in the model's action_moves with the nonzeros of R_j on the
        columns X holds (the others are zero); M[i, j] = q[s w_i, s w_j] =
        [w_i, w_j]_m for i < j, the m_table contracted with R_i and R_j.
        Each is an integer vector over one denominator, tested once against
        the rows of Im r_# (the leaf layer's one membership test) and given
        by its Im r_#-coordinates x / e, its pivot entries, as (x, e), or None off Im r_#.
        """
        im = self.image

        def coords(v, e):
            return None if im.residual(v) else (tuple(v.get(p, 0) for p in im.pivots), e)

        A = tuple(
            tuple(coords(column_product(X, [(j, x) for j, x in R.items() if j in X]), d * R[P]) for P, R in im.rows)
            for X, d in self.iso.action_moves[: self.iso.h_basis.dim]
        )
        mu, D = self.iso.m_table
        M = {}
        for i, j in wedge2_space(im.dim):
            (Pi, Ri), (Pj, Rj) = im.rows[i], im.rows[j]
            M[i, j] = coords(_sparse_bracket(mu, Ri.items(), Rj.items()), D * Ri[Pi] * Rj[Pj])
        return A, M

    @cached_property
    def int_tables(self) -> tuple:
        """(L, d_c): the l-operators L[a] = l_{eps_a^#} over d_c = d_r D, r_# = R / d_r (r_sharp).

        L[a] = sum_j R_ja mu[j] contracts column a of R with the model's
        m_table (mu, D), so L[a] / d_c = q ad(s r_# eps_a) s, with L[a][c] its
        row c.  It is built on the support X = {a : r_# eps_a != 0}; off X,
        L[a] = 0.  C[a][c] = row a of L[c] minus row c of L[a], [eps_a, eps_c]_r
        = C[a][c] / d_c, is formed from L where it is read.  Only the tensor,
        the connection builders and tables, and mstar_bracket read L.
        """
        n = self.iso.quotient_dim
        R, dr = self.r_sharp
        zero = [[0] * n] * n
        return [self.iso.m_ad_ints(col) if col else zero for col in R], dr * self.iso.m_table[1]


def make_bivector(iso: IsotropyModel, coords) -> Bivector:
    return Bivector(iso, coords)


def _covector(alpha, n) -> tuple:
    alpha = vec(alpha)
    if len(alpha) != n:
        raise ValueError(f"shape mismatch: covector of length {len(alpha)} on m* of dim {n}")
    return alpha


def l_operator(r: Bivector, alpha) -> Mat:
    """l_{alpha^#}: m -> m, u -> [alpha^#, u]_m, on any model: the m-ad of r_# alpha.

    With alpha = x / d and r_# = R / d_r, r_# alpha = R x / (d d_r), and its
    m-ad is m_ad_ints(R x) over d d_r D.
    """
    iso = r.iso
    (x,), d = int_vectors([_covector(alpha, iso.quotient_dim)])
    R, dr = r.r_sharp
    return Mat.from_ints(iso.m_ad_ints(column_product(R, x).items()), d * dr * iso.m_table[1])


def mstar_bracket(r: Bivector, alpha, beta) -> tuple:
    """[alpha, beta]_r on m*, on any model.

    With alpha = x / d and beta = y / d it is sum_{a,c} x_a y_c C[a][c] / (d^2 d_c),
    C[a][c] = row a of L[c] minus row c of L[a] over r.int_tables.  It is
    independent of the h° code path; the agreement of the two routes under
    alpha -> q^T alpha is a tested theorem, not reused code.
    """
    n = r.iso.quotient_dim
    (x, y), d = int_vectors((_covector(alpha, n), _covector(beta, n)))
    L, dc = r.int_tables
    out = [sum(xa * yc * (L[c][a][k] - L[a][c][k]) for a, xa in x for c, yc in y) for k in range(n)]
    return from_ints(out, d * d * dc)


class Lift(Frozen):
    """A lift of the bivector to g: rt_mat is skew n x n on all of g with q rt q^T = r."""

    _fields = ("bivector", "rt_mat")

    def __init__(self, bivector: Bivector, rt_mat: Mat):
        iso = bivector.iso
        n = iso.L.dim
        if rt_mat.rows != n or not rt_mat.is_skew():
            raise ValueError(f"lift matrix must be skew {n} x {n}")
        if iso.q_matrix @ rt_mat @ iso.q_matrix.T != bivector.r_mat:
            raise ValueError("not a lift: q rt q^T differs from r")
        self.__dict__.update(bivector=bivector, rt_mat=rt_mat)


def canonical_lift(r: Bivector) -> Lift:
    """The section-supported lift s r s^T; a lift because q s = id."""
    s = r.iso.s_matrix
    return Lift(r, s @ r.r_mat @ s.T)


def sharp(lift: Lift, eta) -> tuple:
    """eta^# with <xi, eta^#> = r-tilde(eta, xi), for any ambient covector."""
    return lift.rt_mat @ vec(eta)


def _require_ann(iso: IsotropyModel, eta, name):
    """NotInAnnihilator unless <eta, u> = 0 for every h-basis vector u."""
    if any(dot(eta, u) for u in iso.h_basis.basis):
        raise NotInAnnihilator(f"{name} does not annihilate the isotropy subalgebra")


def hcirc_bracket(lift: Lift, eta, xi) -> tuple:
    """The bracket [eta, xi]_r on h°; the result annihilates h again."""
    iso = lift.bivector.iso
    eta = vec(eta)
    xi = vec(xi)
    _require_ann(iso, eta, "eta")
    _require_ann(iso, xi, "xi")
    ad_eta = ad_matrix(iso.L, sharp(lift, eta))
    ad_xi = ad_matrix(iso.L, sharp(lift, xi))
    return vsub(ad_xi.apply_T(eta), ad_eta.apply_T(xi))


class YBTensor(Frozen):
    """Obstruction tensor over the canonical h° basis eta_t = q^T eps_t.

    Only the nonzero entries are stored, as {(a, b, c): value} in
    lexicographic order of the index triple; an absent triple is zero.
    """

    _fields = ("dim", "values")

    def __init__(self, dim: int, values: dict):
        self.__dict__.update(dim=dim, values=values)

    def is_zero(self) -> bool:
        return not self.values

    def nonzero_entries(self) -> tuple:
        return tuple(self.values.items())

    def __getitem__(self, abc):
        return self.values.get(tuple(abc), Fraction(0))


def yang_baxter_tensor(r: Bivector) -> YBTensor:
    """[[r,r]](eps_a, eps_b, eps_c) = <eps_c, r_# C[a][b] - [r_# eps_a, r_# eps_b]_m>.

    C[a][b] = [eps_a, eps_b]_r is row a of L[b] minus row b of L[a] for the
    l-operators L of r.int_tables.  This is the h° formula
    <eta_c, hcirc(eta_a, eta_b)^# - [eta_a^#, eta_b^#]> over the canonical
    lift, on any pair and for any r: with eta_t = q^T eps_t, x_t = s r_# eps_t
    and q s = id, s^T hcirc(eta_a, eta_b) = C[a][b] and q[x_a, x_b] =
    [r_# eps_a, r_# eps_b]_m, which is L[a] r_# eps_b for the l-operator
    L[a] = q ad(x_a) s.

    Entries are read in integers (r_# = R / d_r of r.r_sharp, L and C over d_c = d_r D):
    entry c of the defect of (a, b) is sum_t R_ct C[a][b]_t - sum_t L[a][c][t]
    R_tb over d_r d_c, and a Fraction is built only for a nonzero entry.
    Each entry is the totally antisymmetric cyclic Schouten sum, so one
    ordering of a triple gives the other five by sign.  Off the support
    X = {a : r_# eps_a != 0}, L[a] = 0, and C[a][b] = 0 for b off X too, so
    an entry is nonzero only when two indices lie in X: one defect per pair
    a < b in X is read, at every c off X and at the c > b in X.  A zero
    m_table (iso.symmetric) makes L and the tensor zero; no L[a] is built.
    schouten_oracle evaluates all n^3 entries over a lift on g, on purpose,
    as the independent check.
    """
    n = r.iso.quotient_dim
    if r.iso.symmetric:
        return YBTensor(n, {})
    R, dr = r.r_sharp
    L, dc = r.int_tables
    X = [a for a in range(n) if R[a]]
    den = dr * dc
    values = {}
    for s, a in enumerate(X):
        La = L[a]
        for b in X[s + 1:]:
            Cab = [x - y for x, y in zip(L[b][a], La[b])]
            Rb = R[b]
            for c in range(n):
                # row c of the skew R is column c negated, empty off X; a triple in X is read once
                Rc, Lac = R[c], La[c]
                if (c <= b) if Rc else not any(Lac):
                    continue
                v = sum(x * Cab[t] for t, x in Rc) + sum(Lac[t] * y for t, y in Rb)
                if v:
                    v = Fraction(-v, den)
                    values[a, b, c] = values[b, c, a] = values[c, a, b] = v
                    values[b, a, c] = values[a, c, b] = values[c, b, a] = -v
    return YBTensor(n, dict(sorted(values.items())))


def schouten_oracle(lift: Lift) -> YBTensor:
    """Cyclic-sum form of the same tensor; independent code path."""
    iso = lift.bivector.iso
    etas = iso.q_matrix.entries  # eta_t = q^T eps_t, the canonical basis of h°
    n = len(etas)
    xs = [sharp(lift, eta) for eta in etas]
    br = {(a, b): bracket(iso.L, xs[a], xs[b]) for a in range(n) for b in range(n)}

    def entry(a, b, c):
        return -dot(etas[a], br[(b, c)]) - dot(etas[b], br[(c, a)]) - dot(etas[c], br[(a, b)])

    triples = ((a, b, c) for a in range(n) for b in range(n) for c in range(n))
    return YBTensor(n, {abc: v for abc in triples if (v := entry(*abc)) != 0})


def is_r_matrix(r: Bivector) -> bool:
    return r.tensor.is_zero()


def require_r_matrix(r: Bivector):
    """Raise NotAnRMatrix unless [[r,r]] vanishes."""
    if not is_r_matrix(r):
        raise NotAnRMatrix("the Yang-Baxter tensor does not vanish")


def quotient_hcirc(r: Bivector, alpha, beta, lift: Lift = None) -> tuple:
    """[alpha, beta]_r in quotient covector coordinates.

    Transports through the identification (g/h)* ~ h°: alpha -> q^T alpha,
    bracket upstairs, then back by s^T.
    """
    iso = r.iso
    if lift is None:
        lift = canonical_lift(r)
    eta = covector_to_ann(iso, alpha)
    xi = covector_to_ann(iso, beta)
    return ann_to_covector(iso, hcirc_bracket(lift, eta, xi))


class FixedSpaceLieAlgebra(NamedTuple):
    """The Lie algebra ((h°)^H, [.,.]_r) of an r-matrix, with its morphism.

    basis holds quotient covector coordinates of the RREF basis of (h°)^H;
    algebra is the verified bracket table in that basis.
    """

    bivector: Bivector
    basis: tuple
    algebra: LieAlgebra


def fixed_space_lie_algebra(r: Bivector) -> FixedSpaceLieAlgebra:
    """Bracket table of [.,.]_r on (h°)^H with Jacobi and morphism checks.

    [f, g]_r is mstar_bracket and the m-bracket [r_# f, r_# g]_m is
    l_{f^#} r_# g with l_{f^#} = l_operator(r, f), so the integer tables of
    the bivector give both sides; quotient_hcirc stays the
    independent h° route.  The checks guard theorems that must hold for
    genuine r-matrices; a failure is surfaced as JacobiFailure rather than
    repaired.
    """
    require_r_matrix(r)
    fixed = fixed_quotient_covectors(r.iso)
    d = fixed.dim
    table = structure_constants(
        fixed,
        partial(mstar_bracket, r),
        lambda i, j: JacobiFailure("bracket of fixed covectors leaves the fixed subspace"),
    )
    algebra = make_lie_algebra(
        d, {ij: dict(enumerate(cs)) for ij, cs in table.items()}, [f"a{i + 1}" for i in range(d)]
    )
    report = validate(algebra)
    if not report.ok:
        raise JacobiFailure(f"Jacobi fails on triples {report.jacobi_failures}")

    # morphism: q(sharp) intertwines [.,.]_r with the m-bracket on the
    # fixed vectors
    sharps = [r.r_mat @ f for f in fixed.basis]
    for f in fixed.basis:
        l_f = l_operator(r, f)
        for g, sharp_g in zip(fixed.basis, sharps):
            if r.r_mat @ mstar_bracket(r, f, g) != l_f @ sharp_g:
                raise JacobiFailure("sharp is not a morphism onto the fixed vectors")

    return FixedSpaceLieAlgebra(bivector=r, basis=fixed.basis, algebra=algebra)
