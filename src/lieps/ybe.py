"""Bivectors, lifts, the bracket on the annihilator, and the Yang-Baxter tensor.

A bivector r on g/h is stored by its wedge coordinates; its sharp map,
<beta, r_# alpha> = r(alpha, beta), is read off them as ints R / d_r.  Its
obstruction tensor [[r,r]] is read off the quotient, with C[a][b] =
[eps_a, eps_b]_r the bracket table on the m* basis:

    [[r,r]](eps_a, eps_b, eps_c) = <eps_c, r_# C[a][b] - [r_# eps_a, r_# eps_b]_m>,

the defect of r_# as a morphism from [.,.]_r to the m-bracket q[s x, s y].
Its vanishing is the invariant-Poisson condition, and bivectors passing it
are r-matrices.  The l-operators, the table C and the tensor are integer
contractions of R with the one m-bracket table of the model
(IsotropyModel.m_table).  The l-operators and C exist only in that integer
form (Bivector.int_tables); l_operator and mstar_bracket contract them with
covectors and build a Fraction only for a returned entry.

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

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial
from itertools import combinations

from .errors import JacobiFailure, NotAnRMatrix, NotInAnnihilator
from .exact import (
    Mat,
    Subspace,
    dot,
    from_ints,
    int_vectors,
    inverse,
    to_ints,
    vec,
    vsub,
)
from .invariants import bivector_matrix_from_coords, fixed_quotient_covectors
from .liecore import (
    IsotropyModel,
    LieAlgebra,
    ad_matrix,
    ann_to_covector,
    bracket,
    covector_to_ann,
    make_lie_algebra,
    structure_constants,
    validate,
    wedge2_space,
)


@dataclass(frozen=True)
class Bivector:
    """A bivector on g/h, stored by its wedge coordinates over wedge2_space.

    Derived once, on first use, and kept on the instance, so every check
    that asks about the same bivector shares them: the integer tables of r
    (int_tables), the one form of its l-operators and [.,.]_r table, which
    the Yang-Baxter tensor, l_operator, mstar_bracket and the four
    connections read; the tensor; Im r_#, omega_r on it, and the
    Im r_#-coordinates of the q-brackets of the leaf frame h + s(Im r_#)
    (image, omega, image_brackets); and r_mat, a view for the oracles.
    """

    iso: IsotropyModel
    coords: tuple  # rational wedge coordinates, one per pair (i, j), i < j

    def __post_init__(self):
        m = len(wedge2_space(self.iso.quotient_dim))
        if len(self.coords) != m:
            raise ValueError(f"expected {m} wedge coordinates, got {len(self.coords)}")

    @cached_property
    def r_mat(self) -> Mat:
        """r_# as a skew Fraction matrix, read by the oracles and the Nomizu dictionary."""
        return bivector_matrix_from_coords(self.iso.quotient_dim, self.coords)

    @cached_property
    def tensor(self) -> "YBTensor":
        """[[r,r]] on the quotient covector basis."""
        return yang_baxter_tensor(self)

    @cached_property
    def image(self) -> Subspace:
        """Im r_# in quotient coordinates, the span of the integer columns of R = d_r r_#."""
        return Subspace._of_rows(self.iso.quotient_dim, [dict(col) for col in self.int_tables[0]])

    @cached_property
    def omega(self) -> Mat:
        """omega_r(w_i, w_j) = <xi_j, w_i> for any r_# xi_j = w_j, on the RREF basis w of Im r_#.

        It is B^-1, B = r_#[P, P] on the pivots P of Im r_#: W = (w_j) has
        W[P] = I, so r_# = W K with K = r_#[P, :], and omega_r(r_# alpha, r_# beta)
        = <beta, r_# alpha> reads K^T Omega K = r_#^T, whose block P x P is
        B^T Omega B = B^T.  B is invertible: x on P with B x = 0 has r_# x =
        W B x = 0, so x annihilates Im r_#, and <x, w_i> = x_i.  Any xi_j will
        do, since ker r_# annihilates Im r_# (r_# is skew).  Off the basis
        omega_r is the bilinear combination of this matrix.
        """
        R, _, _, dr, _ = self.int_tables
        P = self.image.pivots
        cols = [dict(R[j]) for j in P]
        return inverse(Mat.from_ints([[col.get(i, 0) for col in cols] for i in P], dr))

    @cached_property
    def image_brackets(self) -> tuple:
        """(A, M), the q-brackets of the leaf frame {h-basis u} + {s w}, w the RREF basis of Im r_#.

        A[t][j] = q[u_t, s w_j] = ad-bar_{u_t} w_j, off the model's action;
        M[i, j] = q[s w_i, s w_j] = [w_i, w_j]_m for i < j, off its m_table.
        Each is an integer vector over one denominator, tested once against
        the rows of Im r_# (the leaf layer's one membership test) and given
        by its Im r_#-coordinates, its pivot entries, or None off Im r_#.
        """
        iso = self.iso
        im = self.image

        def coords(op, row):
            (N, dn), (P, R) = op, row
            v = [sum(x[t] * y for t, y in R.items()) for x in N]
            if im.residual(dict(enumerate(v))):
                return None
            return from_ints([v[p] for p in im.pivots], dn * R[P])

        A = tuple(tuple(coords(op, row) for row in im.rows) for op in iso.action[: iso.h_basis.dim])
        ads = [(iso.m_ad_ints(R.items()), iso.m_table[1] * R[P]) for P, R in im.rows]
        return A, {(i, j): coords(ads[i], im.rows[j]) for i, j in wedge2_space(im.dim)}

    @cached_property
    def int_tables(self) -> tuple:
        """(R, L, C, d_r, d_c): r_# = R / d_r, and the ints L, C over d_c = d_r D.

        R[a] lists the nonzeros (j, R_ja) of column a in row order: pair
        (i, j) of coords, c / d_r, puts (j, c) in column i and (i, -c) in
        column j.  L[a] = sum_j R_ja mu[j] contracts column a with the
        model's m_table (mu, D), so L[a] / d_c = q ad(s r_# eps_a) s, with
        L[a][c] its row c.  C[a][c] = row a of L[c] minus row c of L[a], so
        C[a][c] / d_c = [eps_a, eps_c]_r.  yang_baxter_tensor, l_operator,
        mstar_bracket and the connection builders read these ints.
        """
        n = self.iso.quotient_dim
        ints, dr = to_ints((ij, c) for ij, c in zip(wedge2_space(n), self.coords) if c)
        R = [[] for _ in range(n)]
        for (i, j), c in ints:
            R[i].append((j, c))
            R[j].append((i, -c))
        L = [self.iso.m_ad_ints(col) for col in R]
        C = [[[x - y for x, y in zip(L[c][a], L[a][c])] for c in range(n)] for a in range(n)]
        return R, L, C, dr, dr * self.iso.m_table[1]


def make_bivector(iso: IsotropyModel, coords) -> Bivector:
    return Bivector(iso, vec(coords))


def _covector(alpha, n) -> tuple:
    alpha = vec(alpha)
    if len(alpha) != n:
        raise ValueError(f"shape mismatch: covector of length {len(alpha)} on m* of dim {n}")
    return alpha


def l_operator(r: Bivector, alpha) -> Mat:
    """l_{alpha^#}: m -> m, u -> [alpha^#, u]_m, on any model.

    With alpha = x / d it is sum_a x_a L[a] / (d d_c) over r.int_tables.
    """
    n = r.iso.quotient_dim
    (x,), d = int_vectors([_covector(alpha, n)])
    _, L, _, _, dc = r.int_tables
    rows = [[sum(xa * L[a][i][t] for a, xa in x) for t in range(n)] for i in range(n)]
    return Mat.from_ints(rows, d * dc)


def mstar_bracket(r: Bivector, alpha, beta) -> tuple:
    """[alpha, beta]_r on m*, on any model.

    With alpha = x / d and beta = y / d it is sum_{a,c} x_a y_c C[a][c] / (d^2 d_c)
    over r.int_tables.  Independent of the h° code path; the agreement of the
    two routes under alpha -> q^T alpha is a tested theorem, not reused code.
    """
    n = r.iso.quotient_dim
    (x, y), d = int_vectors((_covector(alpha, n), _covector(beta, n)))
    _, _, C, _, dc = r.int_tables
    out = [sum(xa * yc * C[a][c][k] for a, xa in x for c, yc in y) for k in range(n)]
    return from_ints(out, d * d * dc)


@dataclass(frozen=True)
class Lift:
    bivector: Bivector
    rt_mat: Mat  # skew n x n on all of g

    def __post_init__(self):
        iso = self.bivector.iso
        n = iso.L.dim
        if self.rt_mat.rows != n or not self.rt_mat.is_skew():
            raise ValueError(f"lift matrix must be skew {n} x {n}")
        projected = iso.q_matrix @ self.rt_mat @ iso.q_matrix.T
        if projected != self.bivector.r_mat:
            raise ValueError("not a lift: q rt q^T differs from r")


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


@dataclass(frozen=True)
class YBTensor:
    """Obstruction tensor over the canonical h° basis eta_t = q^T eps_t.

    Only the nonzero entries are stored, as {(a, b, c): value} in
    lexicographic order of the index triple; an absent triple is zero.
    """

    dim: int
    values: dict

    def is_zero(self) -> bool:
        return not self.values

    def nonzero_entries(self) -> tuple:
        return tuple(self.values.items())

    def __getitem__(self, abc):
        return self.values.get(tuple(abc), Fraction(0))


def yang_baxter_tensor(r: Bivector) -> YBTensor:
    """[[r,r]](eps_a, eps_b, eps_c) = <eps_c, r_# C[a][b] - [r_# eps_a, r_# eps_b]_m>.

    C is the [.,.]_r table of r.int_tables.  This is the h° formula
    <eta_c, hcirc(eta_a, eta_b)^# - [eta_a^#, eta_b^#]> over the canonical
    lift, on any pair and for any r: with eta_t = q^T eps_t, x_t = s r_# eps_t
    and q s = id, s^T hcirc(eta_a, eta_b) = C[a][b] and q[x_a, x_b] =
    [r_# eps_a, r_# eps_b]_m, which is L[a] r_# eps_b for the l-operator
    L[a] = q ad(x_a) s.

    Entries are read in integers off r.int_tables (r_# = R / d_r, L and C
    over d_c = d_r D): entry c of the defect is sum_t R_ct C[a][b]_t - sum_t L[a][c][t]
    R_tb over d_r d_c, and a Fraction is built only for a nonzero entry.
    One defect per pair a < b gives the entries with c > b; the other
    orderings of each triple are filled by sign, since each entry is the
    totally antisymmetric cyclic Schouten sum, and entries with a repeated
    index are zero.  schouten_oracle evaluates all n^3 entries of that sum
    over a lift on g, on purpose, as the independent check.
    """
    R, L, C, dr, dc = r.int_tables
    n = len(R)
    den = dr * dc
    values = {}
    for a in range(n):
        # the last b leaves no c > b to read
        for b in range(a + 1, n - 1):
            Cab, Rb = C[a][b], R[b]
            for c in range(b + 1, n):
                # R is skew, so row c of R is column c negated
                Lac = L[a][c]
                v = sum(x * Cab[t] for t, x in R[c]) + sum(Lac[t] * y for t, y in Rb)
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


def is_restricted_r_matrix(r: Bivector) -> bool:
    """Yang-Baxter condition restricted to triples from (h°)^H.

    Weaker than is_r_matrix in general; the two coincide for trivial
    isotropy and can differ when the fixed space is small.  A fixed
    covector f is q^T f = sum_a f_a eta_a in h°, and [[r,r]] is trilinear,
    so on fixed f, g, k it is sum v f_a g_b k_c over the nonzero entries of
    the cached tensor.  The tensor is totally antisymmetric, so triples of
    distinct basis covectors suffice.
    """
    entries = r.tensor.nonzero_entries()
    return not any(
        sum(v * f[a] * g[b] * k[c] for (a, b, c), v in entries if f[a] and g[b] and k[c])
        for f, g, k in combinations(fixed_quotient_covectors(r.iso).basis, 3)
    )


@dataclass(frozen=True)
class FixedSpaceLieAlgebra:
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
