"""Leaf algebra and leaf cocycle of an r-matrix, and the inverse construction.

The leaf through the base point is the homogeneous symplectic space of
(a_r, omega_r): a_r = q^{-1}(Im r_#) = h + s(Im r_#) and omega_r(x, y) =
omega(q x, q y), a 2-cocycle with radical h.  The r-matrix is first checked
invariant by invariants._not_invariant, the rule of the invariant solve
applied to r's nonzeros.  All of it, the leaf flags and
(W, omega) are read in ints off the rows of h and of Im r_#, the
Im r_#-coordinates of the q-brackets of the frame h + s(Im r_#),
Bivector.image_brackets, since q kills h, and Bivector.omega.  Conversely a
pair (a, omega) reconstructs the r-matrix on Fraction matrices through its
own g-brackets; both directions are exact and the roundtrip is the identity.
"""

from __future__ import annotations

from functools import cached_property, partial
from operator import mul
from typing import NamedTuple

from .errors import (
    ClosureFailure,
    NoSolution,
    NotACocycle,
    NotClosed,
    NotInvariant,
    RadicalMismatch,
)
from .exact import Mat, Subspace, dot, from_ints, inverse, kernel, solve, zero_vec
from .invariants import _not_invariant, bivector_coords_from_matrix
from .liecore import Frozen, IsotropyModel, bracket, require_reductive, structure_constants, wedge2_space
from .ybe import Bivector, make_bivector, require_r_matrix


class LeafData(Frozen):
    """(a_r, omega_r) of a checked r-matrix r, in ints on the frame h + s(Im r_#).

    rows[t] = (P, R) is frame vector t, R / R[P]: the integer rows of h, then those of Im r_#
    placed at the complement indices (the lifts s w).  It is a basis of a_r, as q s = id, and on
    it omega_r is blockdiag(0_h, r.omega).  Fraction views for the oracles: frame and
    frame_omega on the frame, and omega on a_basis, the RREF basis of a_r.
    """

    _fields = ("r", "rows")

    def __init__(self, r: Bivector, rows: tuple):
        self.__dict__.update(r=r, rows=rows)

    @cached_property
    def frame(self) -> tuple:
        n = self.r.iso.L.dim
        return tuple(from_ints([R.get(j, 0) for j in range(n)], R[P]) for P, R in self.rows)

    @cached_property
    def frame_omega(self) -> Mat:
        (N, e), m = self.r.omega, len(self.rows)
        k = m - len(N)
        return Mat.from_ints([[0] * m] * k + [[0] * k + list(row) for row in N], e)

    @cached_property
    def a_basis(self) -> Subspace:
        return Subspace._of_rows(self.r.iso.L.dim, [R for _, R in self.rows])

    @cached_property
    def omega(self) -> Mat:
        """P^T r.omega P, P holding the Im r_#-coordinates of q(a_i), its entries at the pivots of Im r_#."""
        iso = self.r.iso
        n = iso.L.dim
        P = Mat([iso.q_matrix[p] for p in self.r.image.pivots], n) @ Mat.from_cols(self.a_basis.basis, n)
        return P.T @ Mat.from_ints(*self.r.omega) @ P


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

    C maps each pair i < j to the coordinates of [b_i, b_j], from
    structure_constants.  The cyclic sum omega([b_i,b_j],b_k) +
    omega([b_j,b_k],b_i) + omega([b_k,b_i],b_j) is totally antisymmetric for
    skew omega, so triples i < j < k suffice, and omega(z, b_k) =
    -<coordinates of z, row k of omega>.
    """
    if omega.rows != dim or not omega.is_skew():
        raise error("omega must be a skew matrix on the a-basis")
    for (i, j), cij in C.items():
        for k in range(j + 1, dim):
            if dot(cij, omega[k]) + dot(C[j, k], omega[i]) - dot(C[i, k], omega[j]):
                raise error(f"cocycle identity fails on basis triple ({i}, {j}, {k})")


def _check_frame(r: Bivector, k: int, closure):
    """Raise closure unless the frame is closed, NotACocycle unless blockdiag(0_k, r.omega) is a cocycle on it.

    On the frame {u_t, t < k} + {s w_j}, k = 0 or dim h, the brackets mod h C[a, b] are A[t][j] and
    M[i, j] of r.image_brackets, x / e or None off a_r, and zero on two u_t.  With r.omega = N / d,
    the cyclic sum of _check_cocycle is read in ints times the e of its terms.
    """
    A, M = r.image_brackets
    C = {(t, k + j): c for t, row in enumerate(A[:k]) for j, c in enumerate(row)}
    C.update(((k + i, k + j), c) for (i, j), c in M.items())
    if None in C.values():
        raise closure
    N, _ = r.omega
    d = len(N)
    if any(N[i][j] != -N[j][i] for i in range(d) for j in range(i, d)):
        raise NotACocycle("omega must be a skew matrix on the a-basis")
    w = lambda x, a: sum(map(mul, x, N[a - k])) if a >= k else 0  # x . row a of the frame omega
    for (a, b), (x, e) in C.items():
        for c in range(b + 1, k + d):
            (y, f), (z, g) = C[b, c], C[a, c]
            if f * g * w(x, c) + e * g * w(y, a) != e * f * w(z, b):
                raise NotACocycle(f"cocycle identity fails on basis triple ({a}, {b}, {c})")


def leaf_algebra(r: Bivector) -> Subspace:
    """a_r = q^{-1}(Im r_#) = h + s(Im r_#); verified bracket-closed."""
    return leaf_cocycle(r).a_basis


def leaf_cocycle(r: Bivector) -> LeafData:
    """(a_r, omega_r) of an invariant r-matrix, checked in ints on the frame h + s(Im r_#).

    On the frame omega_r is blockdiag(0_h, r.omega), so a_r is closed when
    the q-brackets lie in Im r_#, the cocycle identity needs the brackets
    only mod h, and Rad omega_r = h + s(ker r.omega) is h when r.omega has
    full rank.  These hold for invariant r-matrices; failures are bugs.
    """
    require_r_matrix(r)
    if moved := _not_invariant(r):
        raise moved
    iso = r.iso
    _check_frame(r, iso.h_basis.dim, ClosureFailure("a bracket leaves a_r, against the leaf-algebra theorem"))
    N, _ = r.omega
    if Subspace._of_rows(len(N), [dict(enumerate(row)) for row in N]).dim < len(N):
        raise RadicalMismatch("Rad(omega_r) differs from the isotropy subalgebra")
    comp = iso.complement_indices
    lifts = tuple((comp[P], {comp[j]: x for j, x in R.items()}) for P, R in r.image.rows)
    return LeafData(r, iso.h_basis.rows + lifts)


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
        return make_bivector(iso, zero_vec(len(wedge2_space(iso.quotient_dim))))
    qa_mat = Mat.from_cols(qa)
    K = Mat.from_cols([solve(qa_mat, w) for w in qa_space.basis])
    try:
        omega_bar_inv = inverse(K.T @ omega @ K)
    except ValueError:
        raise RadicalMismatch("descended omega is singular on a/h") from None
    iota = Mat.from_cols(qa_space.basis)
    return make_bivector(iso, bivector_coords_from_matrix(iota @ omega_bar_inv @ iota.T))


class LeafDecomposition(NamedTuple):
    reductive: bool
    symmetric: bool


def leaf_decomposition(r: Bivector) -> LeafDecomposition:
    """The flags of a_r = h + s(Im r_#), read off r.image_brackets.

    reductive: Im r_# is stable under every ad-bar_u (no A entry is None),
    the closure condition of a_r on the h x Im pairs, so it is true on
    every leaf that leaf_cocycle accepts; symmetric: [s Im, s Im] lies in
    h = ker q, that is the m-brackets of Im r_# vanish.
    """
    require_r_matrix(r)
    A, M = r.image_brackets
    return LeafDecomposition(
        reductive=all(c is not None for row in A for c in row),
        symmetric=not any(c is None or any(c[0]) for c in M.values()),
    )


def w_omega_pair(r: Bivector):
    """(W, omega_W) on a reductive pair: W = Im(r_#) in m with restricted omega.

    Verifies in ints, off the m-brackets of r.image_brackets, that W is
    closed under [x, y]_m = q[s x, s y] and that the cyclic cocycle identity
    holds on all W-basis triples; both are consequences of the
    correspondence theorem and failures are surfaced.
    """
    require_reductive(r.iso)
    require_r_matrix(r)
    _check_frame(r, 0, ClosureFailure("[W, W]_m leaves W"))
    return r.image, Mat.from_ints(*r.omega)
