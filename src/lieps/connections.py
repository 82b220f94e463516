"""Invariant contravariant connections on a reductive homogeneous space.

On a reductive pair g = h + m, an invariant contravariant connection is a
bilinear map b: m* x m* -> m*.  This module provides the bracket [.,.]_r on
m*, the four distinguished connection builders, torsion, curvature, Poisson
compatibility, equivariance checks, the F-connection/Nomizu dictionary, and
the connection induced on the symplectic leaf through the base point.  The
Yang-Baxter condition itself, r_# carrying [.,.]_r to the m-bracket, is
read off the same bracket table by ybe.yang_baxter_tensor.

A ConnectionMap carries its bivector r, and through r.iso the model, so
every function on a connection takes the connection alone; building one
raises NotReductive unless the declared complement is h-stable.  The
l-operators and [.,.]_r need no reductivity and take the bivector.

Throughout, covectors live in complement coordinates: m* vectors are plain
tuples over the quotient basis, and sharps are realized through the section.

Every quantity here is bilinear in two per-bivector tables, built once on
the Bivector and shared by all checks on it: the n l-operators
L[a] = l_{eps_a^#} and the bracket table C[a][c] = [eps_a, eps_c]_r, both
integer contractions of r with the model's m-bracket table
(Bivector.int_tables, ints over d_r D).  The four builders are one integer
rule over them, b(eps_a, eps_c) = (alpha C[a][c] - beta L[a][c]) / (k d_r D)
with (alpha, beta, k) fixed by the kind; torsion and curvature read the
Fraction table C, and Poisson compatibility is one matrix identity
r_# M_a + M_a^T r_# = 0 per basis covector eps_a.  Values on general
covectors are the bilinear combinations.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import ClosureFailure, NotAnFConnection
from .exact import Mat, bilinear, from_ints, inverse, kernel, mat_lincomb, solve, vec, vsub
from .foliation import _coords_matrix
from .liecore import bracket, complement_projection, require_reductive
from .ybe import Bivector, require_r_matrix


def _covector(alpha, n) -> tuple:
    alpha = vec(alpha)
    if len(alpha) != n:
        raise ValueError(f"shape mismatch: covector of length {len(alpha)} on m* of dim {n}")
    return alpha


def l_operator(r: Bivector, alpha) -> Mat:
    """The operator l_{alpha^#}: m -> m, u -> [alpha^#, u]_m, on any model."""
    n = r.iso.quotient_dim
    return mat_lincomb(_covector(alpha, n), r.l_operators, n)


def mstar_bracket(r: Bivector, alpha, beta) -> tuple:
    """[alpha, beta]_r on m*: transpose of l against the other argument, on any model.

    Read off the table [eps_a, eps_c]_r = L[c]^T eps_a - L[a]^T eps_c of the
    bivector.  Independent of the h° code path; the agreement of the two
    routes under the identification alpha -> q^T alpha is a tested theorem,
    not reused code.
    """
    n = r.iso.quotient_dim
    return bilinear(r.mstar_table, _covector(alpha, n), _covector(beta, n), n)


@dataclass(frozen=True)
class ConnectionMap:
    """Bilinear b: m* x m* -> m* as a dense array over the m* basis.

    r is the bivector the connection is built from; its model r.iso must be
    reductive, else NotReductive.
    """

    r: Bivector
    b: tuple  # b[a][c] = b(eps_a, eps_c), a covector tuple

    def __post_init__(self):
        require_reductive(self.r.iso)

    @property
    def dim(self) -> int:
        return len(self.b)

    @cached_property
    def mats(self) -> tuple:
        """M_a with M_a gamma = b(eps_a, gamma); column c of M_a is b[a][c]."""
        n = self.dim
        return tuple(Mat.from_cols(plane, n) for plane in self.b)

    def apply(self, alpha, beta) -> tuple:
        n = self.dim
        return bilinear(self.b, _covector(alpha, n), _covector(beta, n), n)

    def matrix_for(self, eta) -> Mat:
        """M_eta with M_eta gamma = b(eta, gamma); columns are b(eta, eps_c)."""
        n = self.dim
        return mat_lincomb(_covector(eta, n), self.mats, n)

    def is_zero(self) -> bool:
        return all(x == 0 for plane in self.b for row in plane for x in row)


# kind -> (alpha, beta, k) of b(eps_a, eps_c) = (alpha C[a][c] - beta L[a][c]) / (k d_r D)
_KINDS = {
    "canonical": (0, 0, 1),
    "natural": (1, 0, 2),
    "left_symmetric": (0, 1, 1),
    "fedosov": (1, 1, 3),
}


def build_connection(kind, r: Bivector) -> ConnectionMap:
    """The four distinguished invariant contravariant connections.

    canonical:      b = 0
    natural:        b(eta, xi) = (1/2)[eta, xi]_r
    left_symmetric: b(eta, xi) = -xi o l_{eta^#}
    fedosov:        b(eta, xi) = (1/3)([eta, xi]_r - xi o l_{eta^#})

    On basis covectors [eta, xi]_r is C[a][c] and xi o l_{eta^#} is row c of
    L[a], both ints over d_r D in r.int_tables, so every kind is
    b(eps_a, eps_c) = (alpha C[a][c] - beta L[a][c]) / (k d_r D), one
    Fraction per entry.
    """
    if kind not in _KINDS:
        raise ValueError(f"unknown connection kind {kind!r}")
    alpha, beta, k = _KINDS[kind]
    _, L, C, dr = r.int_tables
    d = k * dr * r.iso.m_table[1]

    def entry(Cac, Lac):
        return from_ints([alpha * x - beta * y for x, y in zip(Cac, Lac)], d)

    b = tuple(tuple(map(entry, Ca, La)) for Ca, La in zip(C, L))
    return ConnectionMap(r=r, b=b)


def torsion(b: ConnectionMap, eta, xi) -> tuple:
    """T(eta, xi) = b(eta, xi) - b(xi, eta) - [eta, xi]_r.

    On basis covectors: b[a][c] - b[c][a] - C[a][c].
    """
    n = b.dim
    eta = _covector(eta, n)
    xi = _covector(xi, n)
    return vsub(
        vsub(bilinear(b.b, eta, xi, n), bilinear(b.b, xi, eta, n)),
        bilinear(b.r.mstar_table, eta, xi, n),
    )


def curvature(b: ConnectionMap, eta, xi) -> Mat:
    """R(eta, xi) = [M_eta, M_xi] - M_{[eta,xi]_r} as an operator on m*.

    On basis covectors: M_a M_c - M_c M_a - sum_t C[a][c]_t M_t.
    """
    n = b.dim
    eta = _covector(eta, n)
    xi = _covector(xi, n)
    m_eta = mat_lincomb(eta, b.mats, n)
    m_xi = mat_lincomb(xi, b.mats, n)
    m_br = mat_lincomb(bilinear(b.r.mstar_table, eta, xi, n), b.mats, n)
    return m_eta @ m_xi - m_xi @ m_eta - m_br


def poisson_compat_failures(b: ConnectionMap) -> tuple:
    """Basis triples violating r(b(eta,xi),eps) + r(xi, b(eta,eps)) = 0.

    With eta, xi, eps = eps_a, eps_c, eps_d the value is entry (d, c) of
    r_# M_a + M_a^T r_#, M_a the matrix with columns b[a][c]: entry d of
    r_# b[a][c] plus <b[a][d], r_# eps_c>.  Triples are listed in (a, c, d)
    order with their nonzero values.
    """
    n = b.dim
    R = b.r.r_mat
    bad = []
    for a, M in enumerate(b.mats):
        S = (R @ M + M.T @ R).entries
        bad.extend(((a, c, d), S[d][c]) for c in range(n) for d in range(n) if S[d][c])
    return tuple(bad)


def poisson_compat(b: ConnectionMap) -> bool:
    return not poisson_compat_failures(b)


def ad_invariance_check(b: ConnectionMap) -> bool:
    """Equivariance of b under the isotropy action on m*.

    Infinitesimal for the connected part: with N = (ad-bar_u)^T,
    b(N eta, xi) + b(eta, N xi) = N b(eta, xi); and for each discrete
    generator the group form with P = (induced(A)^{-1})^T.  On eta = eps_a
    these read M_{N eps_a} + M_a N = N M_a and M_{P eps_a} P = P M_a, column
    c being the identity at xi = eps_c.
    """
    iso = b.r.iso
    n = b.dim
    mats = b.mats
    for ad_bar in iso.ad_bars:
        N = ad_bar.T
        for a in range(n):
            if b.matrix_for(N.col(a)) + mats[a] @ N != N @ mats[a]:
                return False
    for A in iso.generator_maps:
        P = inverse(A).T
        for a in range(n):
            if b.matrix_for(P.col(a)) @ P != P @ mats[a]:
                return False
    return True


def is_f_connection(b: ConnectionMap) -> bool:
    """True when b_eta = 0 for every eta in the kernel of the sharp map of b.r."""
    for kappa in kernel(b.r.r_mat).basis:
        if not b.matrix_for(kappa).is_zero():
            return False
    return True


@dataclass(frozen=True)
class NomizuMap:
    """Invariant covariant connection data: mu: m x m -> m.

    psi[t] is the matrix of mu_{e_t} (left argument the t-th standard basis
    vector of m); the map vanishes on the chosen complement of Im(r_#).
    """

    r: Bivector
    psi: tuple  # of Mat

    def operator_for(self, x) -> Mat:
        n = len(self.psi)
        return mat_lincomb(_covector(x, n), self.psi, n)


def f_connection_to_nomizu(b: ConnectionMap) -> NomizuMap:
    """mu_w = (b_{eta_w})^T for w in Im(r_#), zero on the greedy complement.

    eta_w is any solution of r_# eta = w; F-connections make the choice
    irrelevant since kernel directions act by zero.
    """
    if not is_f_connection(b):
        raise NotAnFConnection("b_eta must vanish for eta in ker(sharp)")
    r = b.r
    n = b.dim
    _, proj = complement_projection(r.image)
    psi = []
    for t in range(n):
        w = proj.col(t)
        if all(x == 0 for x in w):
            psi.append(Mat.zero(n, n))
            continue
        eta = solve(r.r_mat, w)
        psi.append(b.matrix_for(eta).T)
    return NomizuMap(r=r, psi=tuple(psi))


def nomizu_to_contravariant(psi: NomizuMap) -> ConnectionMap:
    """b(eta, xi) = (psi_{eta^#})^T xi, the transpose dictionary, r = psi.r.

    On basis covectors b[a][c] is row c of psi applied to column a of r_#.
    """
    R = psi.r.r_mat
    b = tuple(psi.operator_for(R.col(a)).entries for a in range(len(psi.psi)))
    return ConnectionMap(r=psi.r, b=b)


@dataclass(frozen=True)
class LeafConnection:
    """The induced covariant connection on the leaf direction Im(r_#).

    br[i][j] is b^r(w_i, w_j) in quotient coordinates, for the RREF basis
    w of Im(r_#); flat is None when the contravariant curvature is nonzero
    (the flatness criterion then does not apply).
    """

    r: Bivector
    basis: tuple
    br: tuple
    torsionless: bool
    symplectic: bool
    fedosov: bool
    flat: object  # bool or None


def induced_leaf_connection(b: ConnectionMap, complement_indices=None) -> LeafConnection:
    """b^r(u, v) = (b(eta_u, eta_v))^#, r = b.r, with eta_v read off the pairing.

    <eta_v, u> = omega_r(v, proj(u)) where proj is the projection onto
    Im(r_#) along the chosen complement inside m; the result does not
    depend on that choice, which the tests verify by swapping complements.
    """
    r = b.r
    require_r_matrix(r)
    iso = r.iso
    n = b.dim
    im = r.image
    d = im.dim
    _, proj = complement_projection(im, complement_indices)

    # <eta_{w_i}, e_a> = omega_r(w_i, proj(e_a)) = (omega P)[i][a], column a
    # of P holding the Im(r_#)-coordinates of proj(e_a): its entries at the
    # pivots of the RREF basis w
    omega = r.omega
    etas = (omega @ Mat([proj[p] for p in im.pivots], n)).entries
    br = tuple(
        tuple(tuple(r.r_mat @ b.apply(etas[i], etas[j])) for j in range(d)) for i in range(d)
    )
    # B[i] holds the Im(r_#)-coordinates of b^r(w_i, w_j) in column j
    leaves = ClosureFailure("b^r must land in the leaf direction")
    B = [_coords_matrix(im, row, leaves) for row in br]

    M = r.image_brackets[1]
    torsionless = all(vsub(br[i][j], br[j][i]) == M[i][j] for i in range(d) for j in range(d))
    # omega_r(b^r(w_i, w_j), w_k) + omega_r(w_j, b^r(w_i, w_k)) is entry
    # (j, k) of B_i^T omega + omega B_i
    symplectic = all((Bi.T @ omega + omega @ Bi).is_zero() for Bi in B)

    eps = Mat.identity(n).entries
    curvature_zero = all(
        curvature(b, eps[a], eps[c]).is_zero()
        for a in range(n)
        for c in range(a + 1, n)
    )
    flat = None
    if curvature_zero:

        def h_component(x, y):
            z = bracket(iso.L, iso.s_matrix @ x, iso.s_matrix @ y)
            return vsub(z, iso.s_matrix @ (iso.q_matrix @ z))

        flat = all(
            all(
                x == 0
                for x in bracket(iso.L, h_component(im.basis[i], im.basis[j]), iso.s_matrix @ im.basis[k])
            )
            for i in range(d)
            for j in range(d)
            for k in range(d)
        )

    return LeafConnection(
        r=r,
        basis=im.basis,
        br=br,
        torsionless=torsionless,
        symplectic=symplectic,
        fedosov=torsionless and symplectic,
        flat=flat,
    )
