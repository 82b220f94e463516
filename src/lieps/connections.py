"""Invariant contravariant connections on a reductive homogeneous space.

On a reductive pair g = h + m, an invariant contravariant connection is a
bilinear map b: m* x m* -> m*.  This module provides the four distinguished
connection builders, torsion, curvature, Poisson
compatibility, equivariance checks, the F-connection/Nomizu dictionary, and
the connection induced on the symplectic leaf through the base point.  The
Yang-Baxter condition itself, r_# carrying [.,.]_r to the m-bracket, is
read off the same bracket table by ybe.yang_baxter_tensor.

A ConnectionMap carries its bivector r, and through r.iso the model, so
every function on a connection takes the connection alone; building one
raises NotReductive unless the declared complement is h-stable.  The
l-operators and [.,.]_r need no reductivity; l_operator and mstar_bracket
live in ybe and are imported here.

Throughout, covectors live in complement coordinates: m* vectors are plain
tuples over the quotient basis, and sharps are realized through the section.

Every quantity here is bilinear in two per-bivector integer tables over
d_c = d_r D: the l-operators L[a] = l_{eps_a^#} (Bivector.int_tables) and
the bracket table C[a][c] = [eps_a, eps_c]_r, row a of L[c] minus row c
of L[a], formed from them where it is read.  The four builders are one
integer rule over them.  A ConnectionMap is stored as ints N over one
denominator d: the builders write N directly, and a map given by rational
entries is scaled once by ConnectionMap.from_entries.  N is a bilinear
table like the structure constants: liecore._sparse_bracket and ad_rows
read b(eta, xi) and M_eta off it.  Torsion, curvature and Poisson
compatibility are integer contractions of N, C and r_# (Bivector.r_sharp),
and a Fraction is built only for a value that is returned or printed.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

from .errors import NotAnFConnection
from .exact import Mat, from_ints, int_vectors, inverse, kernel, mat_lincomb, solve, vsub
from .liecore import (
    Frozen,
    _sparse_bracket,
    ad_rows,
    bracket,
    column_product,
    complement_projection,
    induced_ad_bar,
    induced_map,
    require_reductive,
    wedge2_space,
)
from .ybe import Bivector, _covector, l_operator, mstar_bracket, require_r_matrix


def _add(out, base, cols, v, f):
    """out[base + i] += f x y over the nonzeros (k, x) of v and (i, y) of cols[k]."""
    for k, x in v:
        x *= f
        for i, y in cols[k]:
            out[base + i] += x * y


class ConnectionMap(Frozen):
    """Bilinear b: m* x m* -> m*, stored in ints as b = N / d over one denominator.

    r is the bivector the connection is built from; its model r.iso must be
    reductive, else NotReductive.  Rational entries come in through
    from_entries, and the dense Fraction array b is a view for the oracles.
    """

    _fields = ("r", "N", "d")

    def __init__(self, r: Bivector, N: list, d: int):
        # N[a][c] lists the nonzeros (k, x) of d b(eps_a, eps_c)
        require_reductive(r.iso)
        self.__dict__.update(r=r, N=N, d=d)

    @classmethod
    def from_entries(cls, r: Bivector, b) -> "ConnectionMap":
        """The map with b[a][c] = b(eps_a, eps_c), a covector of rationals."""
        n = len(b)
        nz, d = int_vectors([v for plane in b for v in plane])
        return cls(r, [nz[a * n:(a + 1) * n] for a in range(n)], d)

    @property
    def dim(self) -> int:
        return len(self.N)

    @cached_property
    def b(self) -> tuple:
        """b[a][c] = b(eps_a, eps_c), a covector of Fractions: row c of M_{eps_a}^T."""
        return tuple(self.matrix_for(e).T.entries for e in Mat.identity(self.dim).entries)

    def apply(self, alpha, beta) -> tuple:
        """b(alpha, beta) = sum_a,c x_a y_c N[a][c] / (d e^2) for alpha, beta = x / e, y / e."""
        n = self.dim
        (x, y), e = int_vectors((_covector(alpha, n), _covector(beta, n)))
        out = _sparse_bracket(self.N, x, y)
        return from_ints([out.get(k, 0) for k in range(n)], self.d * e * e)

    def matrix_for(self, eta) -> Mat:
        """M_eta with M_eta gamma = b(eta, gamma).

        With eta = x / e, column c is sum_a eta_a b[a][c] = sum_a x_a N[a][c] / (d e).
        """
        n = self.dim
        (x,), e = int_vectors([_covector(eta, n)])
        return Mat.from_ints(ad_rows(self.N, x, n), self.d * e)

    def is_zero(self) -> bool:
        return not any(v for plane in self.N for v in plane)

    @cached_property
    def tables(self) -> tuple:
        """(T, R, d d_c, d^2 d_c): torsion and curvature on the basis pairs a < c, in ints.

        With b = N / d, [.,.]_r = C / d_c (d_c = d_r D) and N_a the integer
        matrix with columns N[a][c]: d d_c T[a, c] = d_c (N[a][c] - N[c][a]) - d C[a][c]
        and d^2 d_c R[a, c] = d_c (N_a N_c - N_c N_a) - d sum_t C[a][c]_t N_t, flat
        with entry (i, j) at j n + i.  Both are skew; only nonzero pairs are kept.
        """
        N, d = self.N, self.d
        L, dc = self.r.int_tables
        n = self.dim
        cols = [[N[k][j] for k in range(n)] for j in range(n)]
        T, R = {}, {}
        for a, c in wedge2_space(n):
            Cac = [x - y for x, y in zip(L[c][a], L[a][c])]
            t = [-d * x for x in Cac]
            for k, x in N[a][c]:
                t[k] += dc * x
            for k, x in N[c][a]:
                t[k] -= dc * x
            br = [(k, x) for k, x in enumerate(Cac) if x]
            v = [0] * (n * n)
            for j in range(n):
                _add(v, j * n, N[a], N[c][j], dc)
                _add(v, j * n, N[c], N[a][j], -dc)
                _add(v, j * n, cols[j], br, -d)
            if any(t):
                T[a, c] = t
            if any(v):
                R[a, c] = v
        return T, R, d * dc, d * d * dc


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
    L[a], both ints over d_r D off r.int_tables, so every kind is
    b(eps_a, eps_c) = (alpha C[a][c] - beta L[a][c]) / (k d_r D), written
    as N over d = k d_r D with no Fraction.
    """
    if kind not in _KINDS:
        raise ValueError(f"unknown connection kind {kind!r}")
    alpha, beta, k = _KINDS[kind]
    L, dc = r.int_tables

    def entry(a, c):
        v = [alpha * (x - y) - beta * y for x, y in zip(L[c][a], L[a][c])]
        return [(t, x) for t, x in enumerate(v) if x]

    N = [[entry(a, c) for c in range(len(L))] for a in range(len(L))]
    return ConnectionMap(r, N, k * dc)


def _skew_sum(table, den, eta, xi, n, size) -> tuple:
    """(v, den d^2): sum of (eta_a xi_c - eta_c xi_a) table[a, c] over its pairs, eta and xi over d."""
    (x, y), d = int_vectors((_covector(eta, n), _covector(xi, n)))
    x, y = dict(x), dict(y)
    out = [0] * size
    for (a, c), v in table.items():
        w = x.get(a, 0) * y.get(c, 0) - x.get(c, 0) * y.get(a, 0)
        if w:
            out = [s + w * z for s, z in zip(out, v)]
    return out, den * d * d


def torsion(b: ConnectionMap, eta, xi) -> tuple:
    """T(eta, xi) = b(eta, xi) - b(xi, eta) - [eta, xi]_r, read off b.tables."""
    T, _, den, _ = b.tables
    return from_ints(*_skew_sum(T, den, eta, xi, b.dim, b.dim))


def curvature(b: ConnectionMap, eta, xi) -> Mat:
    """R(eta, xi) = [M_eta, M_xi] - M_{[eta,xi]_r} on m*, read off b.tables."""
    n = b.dim
    _, R, _, den = b.tables
    v, den = _skew_sum(R, den, eta, xi, n, n * n)
    return Mat.from_ints([v[i::n] for i in range(n)], den)


def poisson_compat_failures(b: ConnectionMap) -> tuple:
    """Basis triples violating r(b(eta,xi),eps) + r(xi, b(eta,eps)) = 0.

    With eta, xi, eps = eps_a, eps_c, eps_d the value is entry (d, c) of
    r_# M_a + M_a^T r_#, M_a the matrix with columns b[a][c].  With r_# = R / d_r
    skew, b = N / d and P[c] = R N[a][c], that entry is (P[c][d] - P[d][c]) / (d_r d).
    Triples are listed in (a, c, d) order with their nonzero values.
    """
    n = b.dim
    R, dr = b.r.r_sharp
    bad = []
    for a, plane in enumerate(b.N):
        P = [[0] * n for _ in plane]
        for p, v in zip(P, plane):
            _add(p, 0, R, v, 1)
        bad.extend(
            ((a, c, d), Fraction(P[c][d] - P[d][c], dr * b.d))
            for c in range(n)
            for d in range(n)
            if P[c][d] != P[d][c]
        )
    return tuple(bad)


def poisson_compat(b: ConnectionMap) -> bool:
    return not poisson_compat_failures(b)


def ad_invariance_check(b: ConnectionMap) -> bool:
    """Equivariance of b under the isotropy action on m*.

    Infinitesimal for the connected part: with N = (ad-bar_u)^T,
    b(N eta, xi) + b(eta, N xi) = N b(eta, xi); and for each discrete
    generator the group form with P = (induced(A)^{-1})^T.  On eta = eps_a
    these read M_{N eps_a} + M_a N = N M_a and M_{P eps_a} P = P M_a, column
    c being the identity at xi = eps_c, with ad-bar_u and induced(A) read off
    their definitions q ad_u s (induced_ad_bar) and q A s (induced_map).
    """
    iso = b.r.iso
    n = b.dim
    mats = [b.matrix_for(e) for e in Mat.identity(n).entries]
    for u in iso.h_basis.basis:
        N = induced_ad_bar(iso, u).T
        if any(b.matrix_for(N.col(a)) + mats[a] @ N != N @ mats[a] for a in range(n)):
            return False
    for A in iso.discrete_generators:
        P = inverse(induced_map(iso, A)).T
        if any(b.matrix_for(P.col(a)) @ P != P @ mats[a] for a in range(n)):
            return False
    return True


def is_f_connection(b: ConnectionMap) -> bool:
    """True when b_eta = 0 for every eta in the kernel of the sharp map of b.r."""
    for kappa in kernel(b.r.r_mat).basis:
        if not b.matrix_for(kappa).is_zero():
            return False
    return True


class NomizuMap(NamedTuple):
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
    return ConnectionMap.from_entries(psi.r, b)


class LeafConnection(NamedTuple):
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
    omega = Mat.from_ints(*r.omega)
    etas = (omega @ Mat([proj[p] for p in im.pivots], n)).entries

    def sharp(v):
        # r_# v = R x / (d_r e) for v = x / e, off the integer columns R / d_r of r_#
        (x,), e = int_vectors([v])
        out = column_product(r.r_sharp.cols, x)
        return from_ints([out.get(i, 0) for i in range(n)], r.d * e)

    br = tuple(tuple(sharp(b.apply(etas[i], etas[j])) for j in range(d)) for i in range(d))
    # B[i] holds the Im(r_#)-coordinates of b^r(w_i, w_j) in column j: its
    # pivot entries, since b^r = r_# b(eta, eta') lies in Im(r_#)
    B = [Mat([[v[p] for v in row] for p in im.pivots], d) for row in br]

    # [w_i, w_j]_m in Im(r_#)-coordinates x / e; the torsion is skew, so pairs i < j decide it
    M = {ij: c and from_ints(*c) for ij, c in r.image_brackets[1].items()}
    torsionless = all(vsub(B[i].col(j), B[j].col(i)) == c for (i, j), c in M.items())
    # omega_r(b^r(w_i, w_j), w_k) + omega_r(w_j, b^r(w_i, w_k)) is entry
    # (j, k) of B_i^T omega + omega B_i
    symplectic = all((Bi.T @ omega + omega @ Bi).is_zero() for Bi in B)

    flat = None
    if not b.tables[1]:

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
