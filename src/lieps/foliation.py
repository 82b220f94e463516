"""Leaf algebra and leaf cocycle of an r-matrix, and the inverse construction.

Every r-matrix determines the subalgebra a_r = q^{-1}(Im r_#) tangent to the
symplectic leaf through the base point, together with a 2-cocycle omega_r on
a_r whose radical is exactly h.  Conversely a pair (a, omega) with those
properties reconstructs the r-matrix; both directions are exact and the
roundtrip is the identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from .errors import (
    ClosureFailure,
    IllDefined,
    NoSolution,
    NotACocycle,
    NotClosed,
    NotInvariant,
    NotReductive,
    RadicalMismatch,
)
from .exact import Mat, Subspace, dot, inverse, kernel, solve, zero_vec
from .invariants import invariance_rows
from .liecore import IsotropyModel, bracket, m_bracket, structure_constants
from .ybe import Bivector, require_r_matrix


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
    frame: tuple
    frame_omega: Mat


def _lifted_im_basis(r: Bivector) -> tuple:
    return tuple(r.iso.s_matrix @ v for v in r.image.basis)


def _coords_matrix(space: Subspace, vectors, error) -> Mat:
    """Columns: the coordinates of each vector in the RREF basis of space.

    Raises `error` when a vector lies outside the space.
    """
    try:
        return Mat.from_cols([space.coords_of(v) for v in vectors], space.dim)
    except NoSolution:
        raise error from None


def _check_cocycle(C: dict, omega: Mat, dim: int, error):
    """Raise error unless omega is a skew 2-cocycle for the constants C.

    C comes from structure_constants on a dim-dimensional algebra.  The
    cyclic sum omega([b_i,b_j],b_k) + omega([b_j,b_k],b_i) +
    omega([b_k,b_i],b_j) is totally antisymmetric for skew omega, so triples
    i < j < k suffice, and omega(z, b_k) = -<coordinates of z, row k of omega>.
    """
    if omega.rows != dim or not omega.is_skew():
        raise error("omega must be a skew matrix on the a-basis")
    for (i, j), cij in C.items():
        for k in range(j + 1, dim):
            if dot(cij, omega[k]) + dot(C[j, k], omega[i]) - dot(C[i, k], omega[j]):
                raise error(f"cocycle identity fails on basis triple ({i}, {j}, {k})")


def _not_invariant(r: Bivector):
    """NotInvariant naming the first generator whose invariance rows r fails, or None."""
    h = r.iso.h_basis
    coords = r.coords
    for t, rows in enumerate(invariance_rows(r.iso)):
        if any(sum(x * coords[k] for k, x in row.items()) for row in rows):
            what = (
                f"h-basis vector ({', '.join(str(x) for x in h.basis[t])})"
                if t < h.dim
                else f"discrete generator ad_generators[{t - h.dim}]"
            )
            return NotInvariant(f"r is not invariant: the {what} moves it")
    return None


def _leaf_structure(r: Bivector):
    """a_r = q^{-1}(Im r_#) = h + s(Im r_#) with its structure constants.

    The theorem that a_r is closed holds for invariant r-matrices, so a
    bracket leaving a_r is reported as NotInvariant when r is not invariant,
    and as a bug otherwise.
    """
    require_r_matrix(r)
    iso = r.iso
    a = Subspace.from_vectors(iso.L.dim, iso.h_basis.basis + _lifted_im_basis(r))
    for u in iso.h_basis.basis:
        if not a.contains(u):
            raise ClosureFailure("a_r must contain the isotropy subalgebra")
    C = structure_constants(
        a,
        partial(bracket, iso.L),
        lambda i, j: _not_invariant(r) or ClosureFailure(
            f"[b{i + 1}, b{j + 1}] leaves a_r; this contradicts the "
            "leaf-algebra theorem for r-matrices"
        ),
    )
    return a, C


def leaf_algebra(r: Bivector) -> Subspace:
    """a_r = q^{-1}(Im r_#) = h + s(Im r_#); verified bracket-closed."""
    return _leaf_structure(r)[0]


def leaf_cocycle(r: Bivector) -> LeafData:
    """omega_r on a_r, pulled back from r.omega on Im r_# along q.

    omega_r(x, y) = r.omega(q x, q y), so on the RREF basis of a_r it is
    P^T omega P, P holding the Im r_#-coordinates of q(a_i).  The cocycle
    identity and Rad = h are re-verified rather than assumed; failures
    indicate bugs and are raised loudly.
    """
    iso = r.iso
    a, C = _leaf_structure(r)

    # well-definedness: particular solutions of r_# xi = q x differ by
    # ker r_#, which pairs to zero against q x exactly when q x lies in
    # Im r_# = (ker r_#)°
    P = _coords_matrix(
        r.image,
        [iso.q_matrix @ v for v in a.basis],
        IllDefined("omega depends on the particular solution"),
    )
    omega = P.T @ r.omega @ P
    # a non-skew omega is a NotACocycle from the check below
    _check_cocycle(C, omega, a.dim, NotACocycle)
    if _radical(a, omega) != iso.h_basis:
        raise RadicalMismatch("Rad(omega_r) differs from the isotropy subalgebra")

    # q kills h and q s = id, so on the frame omega_r is blockdiag(0_h, omega)
    k, d = iso.h_basis.dim, r.image.dim
    frame = iso.h_basis.basis + _lifted_im_basis(r)
    frame_omega = Mat(
        [zero_vec(k + d)] * k + [zero_vec(k) + row for row in r.omega.entries], k + d
    )
    return LeafData(a_basis=a, omega=omega, frame=frame, frame_omega=frame_omega)


def _radical(a: Subspace, omega: Mat) -> Subspace:
    rad_coords = kernel(omega).basis
    vecs = Mat(rad_coords, a.dim) @ Mat(a.basis, a.ambient)
    return Subspace.from_vectors(a.ambient, vecs.entries)


def reconstruct_r(L, iso: IsotropyModel, a_basis, omega) -> Bivector:
    """Invert the leaf correspondence: (a, omega) back to the r-matrix.

    Checks run in a fixed order: bracket closure, the cocycle identity,
    Rad(omega) = h, then invariance under the declared isotropy action.
    The sharp map is iota (descended omega)^{-1} iota* on the image of a
    in the quotient.
    """
    a = a_basis if isinstance(a_basis, Subspace) else Subspace.from_vectors(L.dim, a_basis)
    omega = omega if isinstance(omega, Mat) else Mat(omega)

    C = structure_constants(
        a, partial(bracket, L), lambda i, j: NotClosed(f"[b{i + 1}, b{j + 1}] leaves a")
    )
    _check_cocycle(C, omega, a.dim, NotACocycle)

    if _radical(a, omega) != iso.h_basis:
        raise RadicalMismatch("Rad(omega) must equal the isotropy subalgebra")

    # invariance on a-coordinates: M holds the images of the a-basis
    for u in iso.h_basis.basis:
        M = _coords_matrix(
            a,
            [bracket(L, u, b) for b in a.basis],
            NotInvariant("a is not stable under the isotropy subalgebra"),
        )
        if not (M.T @ omega + omega @ M).is_zero():
            raise NotInvariant("omega is not infinitesimally invariant")
    for A in iso.discrete_generators:
        M = _coords_matrix(
            a,
            [A @ b for b in a.basis],
            NotInvariant("a is not stable under a discrete generator"),
        )
        if M.T @ omega @ M != omega:
            raise NotInvariant("omega is not invariant under a discrete generator")

    # descend omega to a/h: K holds the a-coordinates of lifts of the basis of q(a)
    qa = [iso.q_matrix @ v for v in a.basis]
    qa_space = Subspace.from_vectors(iso.quotient_dim, qa)
    if qa_space.dim == 0:
        return Bivector(iso, Mat.zero(iso.quotient_dim, iso.quotient_dim))
    qa_mat = Mat.from_cols(qa)
    K = Mat.from_cols([solve(qa_mat, w) for w in qa_space.basis])
    try:
        omega_bar_inv = inverse(K.T @ omega @ K)
    except ValueError:
        raise RadicalMismatch("descended omega is singular on a/h") from None
    iota = Mat.from_cols(qa_space.basis)
    return Bivector(iso, iota @ omega_bar_inv @ iota.T)


@dataclass(frozen=True)
class LeafDecomposition:
    reductive: bool
    symmetric: bool


def leaf_decomposition(r: Bivector) -> LeafDecomposition:
    """a_r = h + s(Im r_#) with h-stability and symmetry flags.

    reductive: the quotient image Im(r_#) is stable under every ad-bar_u;
    symmetric: additionally [Im, Im] lands back in h.
    """
    require_r_matrix(r)
    iso = r.iso
    im = r.image
    lifted = _lifted_im_basis(r)

    reductive = all(im.contains(ad_bar @ v) for ad_bar in iso.ad_bars for v in im.basis)
    symmetric = all(
        iso.h_basis.contains(bracket(iso.L, x, y)) for x in lifted for y in lifted
    )
    return LeafDecomposition(reductive=reductive, symmetric=symmetric)


def w_omega_pair(r: Bivector):
    """(W, omega_W) on a reductive pair: W = Im(r_#) in m with restricted omega.

    Verifies that W is closed under the m-bracket [x, y]_m = q[s x, s y] and
    that the cyclic cocycle identity holds on all W-basis triples; both are
    consequences of the correspondence theorem and failures are surfaced.
    """
    iso = r.iso
    if not iso.reductive:
        raise NotReductive("the declared complement is not h-stable")
    require_r_matrix(r)

    W = r.image
    omega_W = r.omega
    C = structure_constants(
        W, partial(m_bracket, iso), lambda i, j: ClosureFailure("[W, W]_m leaves W")
    )
    _check_cocycle(C, omega_W, W.dim, NotACocycle)
    return W, omega_W
