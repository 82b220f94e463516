"""Leaf algebra and leaf cocycle of an r-matrix, and the inverse construction.

Every r-matrix determines the subalgebra a_r = q^{-1}(Im r_#) tangent to the
symplectic leaf through the base point, together with a 2-cocycle omega_r on
a_r whose radical is exactly h.  Conversely a pair (a, omega) with those
properties reconstructs the r-matrix; both directions are exact and the
roundtrip is the identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    ClosureFailure,
    IllDefined,
    NoSolution,
    NotACocycle,
    NotAnRMatrix,
    NotClosed,
    NotInvariant,
    NotReductive,
    RadicalMismatch,
)
from .exact import Mat, Subspace, column_space, dot, inverse, kernel, solve, vadd
from .liecore import IsotropyModel, bracket, induced_ad_bar, is_reductive_complement
from .ybe import Bivector, is_r_matrix


@dataclass(frozen=True)
class LeafData:
    """The pair (a_r, omega_r) extracted from an r-matrix.

    omega is indexed by the RREF basis of a_basis (so reconstruction needs
    no side channel); frame and frame_omega present the same form on the
    basis {h RREF basis} + {lifted Im(r_#) RREF basis}, which makes the
    direct-sum decomposition visible.
    """

    a_basis: Subspace
    omega: Mat
    h_ref: IsotropyModel
    frame: tuple
    frame_omega: Mat


def _require_r_matrix(r: Bivector):
    if not is_r_matrix(r):
        raise NotAnRMatrix("the Yang-Baxter tensor does not vanish")


def _lifted_im_basis(r: Bivector):
    im = column_space(r.r_mat)
    return im, tuple(r.iso.s_matrix @ v for v in im.basis)


def leaf_algebra(r: Bivector) -> Subspace:
    """a_r = q^{-1}(Im r_#) = h + s(Im r_#); verified bracket-closed."""
    _require_r_matrix(r)
    iso = r.iso
    _, lifted = _lifted_im_basis(r)
    a = Subspace.from_vectors(iso.L.dim, list(iso.h_basis.basis) + list(lifted))
    for u in iso.h_basis.basis:
        if not a.contains(u):
            raise ClosureFailure("a_r must contain the isotropy subalgebra")
    for i in range(a.dim):
        for j in range(i + 1, a.dim):
            w = bracket(iso.L, a.basis[i], a.basis[j])
            if not a.contains(w):
                raise ClosureFailure(
                    f"[b{i + 1}, b{j + 1}] leaves a_r; this contradicts the "
                    "leaf-algebra theorem for r-matrices"
                )
    return a


def _omega_value(r: Bivector, qx, qy) -> Fraction:
    # omega(x, y) = r(eta, xi) with r_# eta = q x, r_# xi = q y,
    # which unwinds to <xi, q x> for any particular solution xi
    xi = solve(r.r_mat, qy)
    return dot(xi, qx)


def leaf_cocycle(r: Bivector) -> LeafData:
    """omega_r on a_r by solving r_# against quotient projections.

    Well-definedness, the cocycle identity, and Rad = h are re-verified
    rather than assumed; failures indicate bugs and are raised loudly.
    """
    _require_r_matrix(r)
    iso = r.iso
    a = leaf_algebra(r)

    # well-definedness: particular solutions differ by ker r_#, which must
    # pair to zero against every q(a) vector
    ker = kernel(r.r_mat)
    qa = [iso.q_matrix @ v for v in a.basis]
    for kvec in ker.basis:
        for qx in qa:
            if dot(kvec, qx) != 0:
                raise IllDefined("omega depends on the particular solution")

    omega = Mat([[_omega_value(r, qa[i], qa[j]) for j in range(a.dim)] for i in range(a.dim)])
    # a non-skew omega is a NotACocycle from the check below
    _check_cocycle(iso.L, a, omega, error=NotACocycle)
    rad = _radical(a, omega)
    if rad != iso.h_basis:
        raise RadicalMismatch("Rad(omega_r) differs from the isotropy subalgebra")

    im, lifted = _lifted_im_basis(r)
    frame = tuple(iso.h_basis.basis) + lifted
    qf = [iso.q_matrix @ v for v in frame]
    frame_omega = Mat(
        [[_omega_value(r, qf[i], qf[j]) for j in range(len(frame))] for i in range(len(frame))]
    )
    return LeafData(a_basis=a, omega=omega, h_ref=iso, frame=frame, frame_omega=frame_omega)


def _omega_on(a: Subspace, omega: Mat, x, y) -> Fraction:
    cx = a.coords_of(x)
    cy = a.coords_of(y)
    acc = Fraction(0)
    for i, ci in enumerate(cx):
        if ci == 0:
            continue
        row = omega.row(i)
        for j, cj in enumerate(cy):
            if cj != 0:
                acc += ci * cj * row[j]
    return acc


def _check_cocycle(L, a: Subspace, omega: Mat, error):
    if not omega.is_skew() or omega.rows != a.dim:
        raise error("omega must be a skew matrix on the a-basis")
    for i in range(a.dim):
        for j in range(i + 1, a.dim):
            bij = bracket(L, a.basis[i], a.basis[j])
            if not a.contains(bij):
                raise error("cocycle identity needs a bracket-closed domain")
            for k in range(j + 1, a.dim):
                bjk = bracket(L, a.basis[j], a.basis[k])
                bki = bracket(L, a.basis[k], a.basis[i])
                total = (
                    _omega_on(a, omega, bij, a.basis[k])
                    + _omega_on(a, omega, bjk, a.basis[i])
                    + _omega_on(a, omega, bki, a.basis[j])
                )
                if total != 0:
                    raise error(f"cocycle identity fails on basis triple ({i}, {j}, {k})")


def _radical(a: Subspace, omega: Mat) -> Subspace:
    rad_coords = kernel(omega)
    vecs = []
    for k in rad_coords.basis:
        x = (Fraction(0),) * a.ambient
        for c, b in zip(k, a.basis):
            if c != 0:
                x = vadd(x, tuple(c * t for t in b))
        vecs.append(x)
    return Subspace.from_vectors(a.ambient, vecs)


def reconstruct_r(L, iso: IsotropyModel, a_basis, omega) -> Bivector:
    """Invert the leaf correspondence: (a, omega) back to the r-matrix.

    Checks run in a fixed order: bracket closure, the cocycle identity,
    Rad(omega) = h, then invariance under the declared isotropy action.
    The sharp map is iota (descended omega)^{-1} iota* on the image of a
    in the quotient.
    """
    a = a_basis if isinstance(a_basis, Subspace) else Subspace.from_vectors(L.dim, a_basis)
    omega = omega if isinstance(omega, Mat) else Mat(omega)

    for i in range(a.dim):
        for j in range(i + 1, a.dim):
            if not a.contains(bracket(L, a.basis[i], a.basis[j])):
                raise NotClosed(f"[b{i + 1}, b{j + 1}] leaves a")

    _check_cocycle(L, a, omega, error=NotACocycle)

    if _radical(a, omega) != iso.h_basis:
        raise RadicalMismatch("Rad(omega) must equal the isotropy subalgebra")

    for u in iso.h_basis.basis:
        for i in range(a.dim):
            w = bracket(L, u, a.basis[i])
            if not a.contains(w):
                raise NotInvariant("a is not stable under the isotropy subalgebra")
            for j in range(a.dim):
                lhs = _omega_on(a, omega, w, a.basis[j])
                rhs = _omega_on(a, omega, a.basis[i], bracket(L, u, a.basis[j]))
                if lhs + rhs != 0:
                    raise NotInvariant("omega is not infinitesimally invariant")
    for A in iso.discrete_generators:
        images = [A @ v for v in a.basis]
        for w in images:
            if not a.contains(w):
                raise NotInvariant("a is not stable under a discrete generator")
        for i in range(a.dim):
            for j in range(a.dim):
                if _omega_on(a, omega, images[i], images[j]) != omega[i][j]:
                    raise NotInvariant("omega is not invariant under a discrete generator")

    # descend omega to a/h: basis of q(a), lifted back into a for evaluation
    qa_space = Subspace.from_vectors(iso.quotient_dim, [iso.q_matrix @ v for v in a.basis])
    d = qa_space.dim
    if d == 0:
        return Bivector(iso, Mat.zero(iso.quotient_dim, iso.quotient_dim))
    qa_mat = Mat.from_cols([iso.q_matrix @ v for v in a.basis])
    lifts = []
    for w in qa_space.basis:
        try:
            coeff = solve(qa_mat, w)
        except NoSolution:  # unreachable: w lies in the column space
            raise
        x = (Fraction(0),) * L.dim
        for c, b in zip(coeff, a.basis):
            if c != 0:
                x = vadd(x, tuple(c * t for t in b))
        lifts.append(x)
    omega_bar = Mat([[_omega_on(a, omega, lifts[i], lifts[j]) for j in range(d)] for i in range(d)])
    try:
        omega_bar_inv = inverse(omega_bar)
    except ValueError:
        raise RadicalMismatch("descended omega is singular on a/h") from None
    iota = Mat.from_cols([list(w) for w in qa_space.basis])
    r_mat = iota @ omega_bar_inv @ iota.T
    return Bivector(iso, r_mat)


@dataclass(frozen=True)
class LeafDecomposition:
    h_part: Subspace
    im_part: Subspace
    reductive: bool
    symmetric: bool


def leaf_decomposition(r: Bivector) -> LeafDecomposition:
    """a_r = h + s(Im r_#) with h-stability and symmetry flags.

    reductive: the quotient image Im(r_#) is stable under every ad-bar_u;
    symmetric: additionally [Im, Im] lands back in h.
    """
    _require_r_matrix(r)
    iso = r.iso
    im, lifted = _lifted_im_basis(r)
    im_part = Subspace.from_vectors(iso.L.dim, lifted)

    reductive = all(
        im.contains(induced_ad_bar(iso.L, iso, u) @ v)
        for u in iso.h_basis.basis
        for v in im.basis
    )
    symmetric = all(
        iso.h_basis.contains(bracket(iso.L, x, y)) for x in lifted for y in lifted
    )
    return LeafDecomposition(
        h_part=iso.h_basis, im_part=im_part, reductive=reductive, symmetric=symmetric
    )


def w_omega_pair(r: Bivector):
    """(W, omega_W) on a reductive pair: W = Im(r_#) in m with restricted omega.

    Verifies that W is closed under the m-bracket [x, y]_m = q[s x, s y] and
    that the cyclic cocycle identity holds on all W-basis triples; both are
    consequences of the correspondence theorem and failures are surfaced.
    """
    iso = r.iso
    if not is_reductive_complement(iso):
        raise NotReductive("the declared complement is not h-stable")
    _require_r_matrix(r)

    W = column_space(r.r_mat)
    wb = W.basis
    d = W.dim
    omega_W = Mat([[_omega_value(r, wb[i], wb[j]) for j in range(d)] for i in range(d)])

    def m_bracket(x, y):
        return iso.q_matrix @ bracket(iso.L, iso.s_matrix @ x, iso.s_matrix @ y)

    mb = {}
    for i in range(d):
        for j in range(d):
            z = m_bracket(wb[i], wb[j])
            if not W.contains(z):
                raise ClosureFailure("[W, W]_m leaves W")
            mb[(i, j)] = z

    def omega_w(x, y):
        cx = W.coords_of(x)
        cy = W.coords_of(y)
        acc = Fraction(0)
        for i, ci in enumerate(cx):
            for j, cj in enumerate(cy):
                if ci != 0 and cj != 0:
                    acc += ci * cj * omega_W[i][j]
        return acc

    for i in range(d):
        for j in range(d):
            for k in range(d):
                total = (
                    omega_w(mb[(i, j)], wb[k])
                    + omega_w(mb[(k, i)], wb[j])
                    + omega_w(mb[(j, k)], wb[i])
                )
                if total != 0:
                    raise NotACocycle("the cyclic identity fails on W")

    return W, omega_W
