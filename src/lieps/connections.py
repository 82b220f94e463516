"""Invariant contravariant connections on a reductive homogeneous space.

On a reductive pair g = h + m, an invariant contravariant connection is a
bilinear map b: m* x m* -> m*.  This module provides the bracket [.,.]_r on
m*, the reductive Yang-Baxter criterion, the four distinguished connection
builders, torsion, curvature, Poisson compatibility, equivariance checks,
the F-connection/Nomizu dictionary, and the connection induced on the
symplectic leaf through the base point.

Throughout, covectors live in complement coordinates: m* vectors are plain
tuples over the quotient basis, and sharps are realized through the section.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import ClosureFailure, NotAnFConnection, NotReductive
from .exact import Mat, Subspace, dot, inverse, kernel, solve, vec, vsub, zero_vec
from .foliation import _coords_matrix, _omega_matrix
from .liecore import (
    IsotropyModel,
    LieAlgebra,
    ad_matrix,
    bracket,
    greedy_complement,
    induced_ad_bar,
    induced_map,
    is_reductive_complement,
    m_bracket,
)
from .ybe import Bivector, require_r_matrix


@dataclass(frozen=True)
class ReductivePair:
    L: LieAlgebra
    iso: IsotropyModel
    symmetric: bool

    def __post_init__(self):
        if not is_reductive_complement(self.iso):
            raise NotReductive("the declared complement is not h-stable")

    @property
    def dim_m(self) -> int:
        return self.iso.quotient_dim


def make_reductive_pair(L: LieAlgebra, iso: IsotropyModel) -> ReductivePair:
    n = L.dim
    e = Mat.identity(n).entries
    symmetric = all(
        iso.h_basis.contains(bracket(L, e[i], e[j]))
        for i in iso.complement_indices
        for j in iso.complement_indices
    )
    return ReductivePair(L=L, iso=iso, symmetric=symmetric)


def is_symmetric(pair: ReductivePair) -> bool:
    return pair.symmetric


def sharp_m(iso: IsotropyModel, r: Bivector, alpha) -> tuple:
    """alpha^# realized in g through the section: s(r_# alpha)."""
    return iso.s_matrix @ (r.r_mat @ vec(alpha))


def l_operator(pair: ReductivePair, r: Bivector, alpha) -> Mat:
    """The operator l_{alpha^#}: m -> m, u -> [alpha^#, u]_m."""
    iso = pair.iso
    return induced_map(iso, ad_matrix(pair.L, sharp_m(iso, r, alpha)))


def mstar_bracket(pair: ReductivePair, r: Bivector, alpha, beta) -> tuple:
    """[alpha, beta]_r on m*: transpose of l against the other argument.

    Independent of the h° code path; the agreement of the two routes under
    the identification alpha -> q^T alpha is a tested theorem, not reused
    code.
    """
    alpha = vec(alpha)
    beta = vec(beta)
    la = l_operator(pair, r, alpha)
    lb = l_operator(pair, r, beta)
    return vsub(lb.apply_T(alpha), la.apply_T(beta))


def check_reductive_r_matrix(pair: ReductivePair, r: Bivector) -> bool:
    """Sharp intertwines [.,.]_r with [.,.]_m on all m*-basis pairs."""
    n = pair.dim_m
    eps = Mat.identity(n).entries
    for a in range(n):
        for b in range(a + 1, n):
            lhs = r.r_mat @ mstar_bracket(pair, r, eps[a], eps[b])
            if lhs != m_bracket(pair.iso, r.r_mat.col(a), r.r_mat.col(b)):
                return False
    return True


@dataclass(frozen=True)
class ConnectionMap:
    """Bilinear b: m* x m* -> m* as a dense array over the m* basis."""

    pair: ReductivePair
    r: Bivector
    b: tuple  # b[a][c] = b(eps_a, eps_c), a covector tuple

    @property
    def dim(self) -> int:
        return len(self.b)

    def apply(self, alpha, beta) -> tuple:
        alpha = vec(alpha)
        beta = vec(beta)
        n = self.dim
        out = zero_vec(n)
        for a, ca in enumerate(alpha):
            if ca == 0:
                continue
            for c, cc in enumerate(beta):
                if cc == 0:
                    continue
                out = tuple(x + ca * cc * y for x, y in zip(out, self.b[a][c]))
        return out

    def matrix_for(self, eta) -> Mat:
        """M_eta with M_eta gamma = b(eta, gamma); columns are b(eta, eps_c)."""
        eta = vec(eta)
        n = self.dim
        cols = []
        for c in range(n):
            col = zero_vec(n)
            for a, ca in enumerate(eta):
                if ca != 0:
                    col = tuple(x + ca * y for x, y in zip(col, self.b[a][c]))
            cols.append(col)
        return Mat.from_cols(cols)

    def is_zero(self) -> bool:
        return all(x == 0 for plane in self.b for row in plane for x in row)


def _connection_from_rule(pair, r, rule) -> ConnectionMap:
    n = pair.dim_m
    eps = Mat.identity(n).entries
    b = tuple(tuple(tuple(rule(eps[a], eps[c])) for c in range(n)) for a in range(n))
    return ConnectionMap(pair=pair, r=r, b=b)


def build_connection(kind, pair: ReductivePair, r: Bivector) -> ConnectionMap:
    """The four distinguished invariant contravariant connections.

    canonical:      b = 0
    natural:        b(eta, xi) = (1/2)[eta, xi]_r
    left_symmetric: b(eta, xi) = -xi o l_{eta^#}
    fedosov:        b(eta, xi) = (1/3)([eta, xi]_r - xi o l_{eta^#})
    """
    half = Fraction(1, 2)
    third = Fraction(1, 3)
    if kind == "canonical":
        rule = lambda a, c: zero_vec(pair.dim_m)
    elif kind == "natural":
        rule = lambda a, c: tuple(half * x for x in mstar_bracket(pair, r, a, c))
    elif kind == "left_symmetric":
        rule = lambda a, c: tuple(-x for x in l_operator(pair, r, a).apply_T(c))
    elif kind == "fedosov":

        def rule(a, c):
            br = mstar_bracket(pair, r, a, c)
            lc = l_operator(pair, r, a).apply_T(c)
            return tuple(third * (x - y) for x, y in zip(br, lc))

    else:
        raise ValueError(f"unknown connection kind {kind!r}")
    return _connection_from_rule(pair, r, rule)


def torsion(pair: ReductivePair, r: Bivector, b: ConnectionMap, eta, xi) -> tuple:
    """T(eta, xi) = b(eta, xi) - b(xi, eta) - [eta, xi]_r."""
    return vsub(vsub(b.apply(eta, xi), b.apply(xi, eta)), mstar_bracket(pair, r, eta, xi))


def curvature(pair: ReductivePair, r: Bivector, b: ConnectionMap, eta, xi) -> Mat:
    """R(eta, xi) = [M_eta, M_xi] - M_{[eta,xi]_r} as an operator on m*."""
    m_eta = b.matrix_for(eta)
    m_xi = b.matrix_for(xi)
    m_br = b.matrix_for(mstar_bracket(pair, r, eta, xi))
    return m_eta @ m_xi - m_xi @ m_eta - m_br


def poisson_compat_failures(pair: ReductivePair, r: Bivector, b: ConnectionMap) -> tuple:
    """Basis triples violating r(b(eta,xi),eps) + r(xi, b(eta,eps)) = 0."""
    n = pair.dim_m
    eps = Mat.identity(n).entries
    bad = []
    for a in range(n):
        for c in range(n):
            lead = r.r_mat @ b.apply(eps[a], eps[c])
            for d in range(n):
                val = lead[d] + dot(b.apply(eps[a], eps[d]), r.r_mat @ eps[c])
                if val != 0:
                    bad.append(((a, c, d), val))
    return tuple(bad)


def poisson_compat(pair: ReductivePair, r: Bivector, b: ConnectionMap) -> bool:
    return not poisson_compat_failures(pair, r, b)


def ad_invariance_check(b: ConnectionMap, pair: ReductivePair) -> bool:
    """Equivariance of b under the isotropy action on m*.

    Infinitesimal for the connected part: with N = (ad-bar_u)^T,
    b(N eta, xi) + b(eta, N xi) = N b(eta, xi); and for each discrete
    generator the group form with P = (induced(A)^{-1})^T.
    """
    iso = pair.iso
    n = pair.dim_m
    eps = Mat.identity(n).entries
    for u in iso.h_basis.basis:
        N = induced_ad_bar(pair.L, iso, u).T
        for a in range(n):
            for c in range(n):
                lhs = tuple(
                    x + y
                    for x, y in zip(b.apply(N @ eps[a], eps[c]), b.apply(eps[a], N @ eps[c]))
                )
                if lhs != N @ b.apply(eps[a], eps[c]):
                    return False
    for A in iso.discrete_generators:
        P = inverse(induced_map(iso, A)).T
        for a in range(n):
            for c in range(n):
                if b.apply(P @ eps[a], P @ eps[c]) != P @ b.apply(eps[a], eps[c]):
                    return False
    return True


def is_f_connection(b: ConnectionMap, r: Bivector) -> bool:
    """True when b_eta = 0 for every eta in the kernel of the sharp map."""
    for kappa in kernel(r.r_mat).basis:
        if not b.matrix_for(kappa).is_zero():
            return False
    return True


def _projector_onto(space: Subspace, complement_indices) -> Mat:
    """Projection of the ambient space onto `space` along the complement."""
    ambient = space.ambient
    e = Mat.identity(ambient).entries
    cols = [list(v) for v in space.basis] + [e[j] for j in complement_indices]
    B = Mat.from_cols(cols)
    Binv = inverse(B)
    d = space.dim
    sel = Mat([[Fraction(i == j and i < d) for j in range(ambient)] for i in range(ambient)])
    return B @ sel @ Binv


@dataclass(frozen=True)
class NomizuMap:
    """Invariant covariant connection data: mu: m x m -> m.

    psi[t] is the matrix of mu_{e_t} (left argument the t-th standard basis
    vector of m); the map vanishes on the chosen complement of Im(r_#).
    """

    pair: ReductivePair
    r: Bivector
    psi: tuple  # of Mat

    def operator_for(self, x) -> Mat:
        x = vec(x)
        n = len(self.psi)
        out = Mat.zero(n, n)
        for t, c in enumerate(x):
            if c != 0:
                out = out + self.psi[t].scale(c)
        return out


def f_connection_to_nomizu(b: ConnectionMap, r: Bivector) -> NomizuMap:
    """mu_w = (b_{eta_w})^T for w in Im(r_#), zero on the greedy complement.

    eta_w is any solution of r_# eta = w; F-connections make the choice
    irrelevant since kernel directions act by zero.
    """
    if not is_f_connection(b, r):
        raise NotAnFConnection("b_eta must vanish for eta in ker(sharp)")
    pair = b.pair
    n = pair.dim_m
    im = r.image
    vidx = greedy_complement(im)
    proj = _projector_onto(im, vidx)
    e = Mat.identity(n).entries
    psi = []
    for t in range(n):
        w = proj @ e[t]
        if all(x == 0 for x in w):
            psi.append(Mat.zero(n, n))
            continue
        eta = solve(r.r_mat, w)
        psi.append(b.matrix_for(eta).T)
    return NomizuMap(pair=pair, r=r, psi=tuple(psi))


def nomizu_to_contravariant(psi: NomizuMap, r: Bivector) -> ConnectionMap:
    """b(eta, xi) = (psi_{eta^#})^T xi, the transpose dictionary."""
    pair = psi.pair

    def rule(a, c):
        op = psi.operator_for(r.r_mat @ vec(a))
        return op.apply_T(c)

    return _connection_from_rule(pair, r, rule)


@dataclass(frozen=True)
class LeafConnection:
    """The induced covariant connection on the leaf direction Im(r_#).

    br[i][j] is b^r(w_i, w_j) in quotient coordinates, for the RREF basis
    w of Im(r_#); flat is None when the contravariant curvature is nonzero
    (the flatness criterion then does not apply).
    """

    pair: ReductivePair
    r: Bivector
    basis: tuple
    br: tuple
    torsionless: bool
    symplectic: bool
    fedosov: bool
    flat: object  # bool or None


def induced_leaf_connection(
    pair: ReductivePair, r: Bivector, b: ConnectionMap, complement_indices=None
) -> LeafConnection:
    """b^r(u, v) = (b(eta_u, eta_v))^#, with eta_v solved from the pairing.

    <eta_v, u> = omega_r(v, proj(u)) where proj is the projection onto
    Im(r_#) along the chosen complement inside m; the result does not
    depend on that choice, which the tests verify by swapping complements.
    """
    require_r_matrix(r)
    iso = pair.iso
    n = pair.dim_m
    im = r.image
    d = im.dim
    if complement_indices is None:
        complement_indices = greedy_complement(im)
    else:
        complement_indices = tuple(complement_indices)
        span = Subspace.from_vectors(
            n, list(im.basis) + [Mat.identity(n).entries[j] for j in complement_indices]
        )
        if span.dim != n or d + len(complement_indices) != n:
            raise ValueError("complement indices do not complete Im(r_#) to m")
    proj = _projector_onto(im, complement_indices)

    # <eta_v, e_a> = omega_r(v, proj(e_a)) = <xi_a, v> with r_# xi_a = proj(e_a):
    # row a of X is xi_a, so eta_v = X v
    X = Mat([solve(r.r_mat, w) if any(w) else zero_vec(n) for w in proj.T.entries], n)
    etas = [X @ w for w in im.basis]
    br = tuple(
        tuple(tuple(r.r_mat @ b.apply(etas[i], etas[j])) for j in range(d)) for i in range(d)
    )
    # B[i] holds the Im(r_#)-coordinates of b^r(w_i, w_j) in column j
    leaves = ClosureFailure("b^r must land in the leaf direction")
    B = [_coords_matrix(im, row, leaves) for row in br]

    torsionless = all(
        vsub(br[i][j], br[j][i]) == m_bracket(iso, im.basis[i], im.basis[j])
        for i in range(d)
        for j in range(d)
    )
    # omega_r(b^r(w_i, w_j), w_k) + omega_r(w_j, b^r(w_i, w_k)) is entry
    # (j, k) of B_i^T omega + omega B_i
    omega = _omega_matrix(r, im.basis)
    symplectic = all((Bi.T @ omega + omega @ Bi).is_zero() for Bi in B)

    eps = Mat.identity(n).entries
    curvature_zero = all(
        curvature(pair, r, b, eps[a], eps[c]).is_zero()
        for a in range(n)
        for c in range(a + 1, n)
    )
    flat = None
    if curvature_zero:

        def h_component(x, y):
            z = bracket(pair.L, iso.s_matrix @ x, iso.s_matrix @ y)
            return vsub(z, iso.s_matrix @ (iso.q_matrix @ z))

        flat = all(
            all(
                x == 0
                for x in bracket(pair.L, h_component(im.basis[i], im.basis[j]), iso.s_matrix @ im.basis[k])
            )
            for i in range(d)
            for j in range(d)
            for k in range(d)
        )

    return LeafConnection(
        pair=pair,
        r=r,
        basis=im.basis,
        br=br,
        torsionless=torsionless,
        symplectic=symplectic,
        fedosov=torsionless and symplectic,
        flat=flat,
    )
