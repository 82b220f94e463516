"""Invariant bivectors and fixed subspaces under the isotropy action.

A bivector on the quotient g/h lives in wedge-square coordinates indexed by
the lexicographic pairs (i, j), i < j.  Invariance under the connected part
of the isotropy group is the kernel condition of the derivation action of
each ad-bar_u; invariance under explicit discrete generators is the fixed
condition of the wedge-square action of each induced matrix, both in ints off
the Generators of iso.action, transposed once into sparse rows; their columns
are the rows of the transposes the fixed covectors read.  A generator's rows
are read off where it differs from the identity, so they cost what it moves.
The invariance rows are a stream of blocks, built as the kernel reads them,
so a solve whose kernel is zero early builds none of the later blocks.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain

from .exact import Mat, Subspace, kernel_of_rows, vec
from .liecore import IsotropyModel, minus_scalar, wedge2_derivation_rows, wedge2_moved_rows, wedge2_space


def bivector_matrix_from_coords(dim, coords) -> Mat:
    """Skew matrix of the bivector with the given wedge coordinates.

    The component convention: for r = e_i ^ e_j the matrix has +1 in row j,
    column i, so that the sharp map is plain matrix-vector multiplication
    and <beta, r_# alpha> = r(alpha, beta).
    """
    pairs = wedge2_space(dim)
    coords = vec(coords)
    if len(coords) != len(pairs):
        raise ValueError(f"expected {len(pairs)} wedge coordinates, got {len(coords)}")
    m = [[Fraction(0)] * dim for _ in range(dim)]
    for (i, j), c in zip(pairs, coords):
        m[j][i] = c
        m[i][j] = -c
    # the rows already hold Fractions, and the matrix is skew by construction
    return Mat._trusted(tuple(map(tuple, m)), dim)


def bivector_coords_from_matrix(r_mat: Mat) -> tuple:
    """Wedge coordinates of a skew matrix; inverse of the builder above."""
    if not r_mat.is_skew():
        raise ValueError("bivector matrix must be skew")
    return tuple(r_mat[j][i] for i, j in wedge2_space(r_mat.rows))


def invariance_rows(iso: IsotropyModel):
    """Sparse integer rows of the invariance conditions, one block per operator of iso.action, built as read.

    Block t < dim h is the derivation block of N = d ad-bar_u for the t-th
    h-basis vector u (connected part): its kernel is the bivectors u kills.
    Each later block holds the nonzero rows of N^N - d^2 I = d^2 (A^A - I)
    for one discrete generator A = N / d, in order, built from N - dI on the
    pairs it moves (wedge2_moved_rows): its kernel is the bivectors A fixes,
    and the identity gives an empty block.  A block is built only when the
    one before it has been read.
    """
    k = iso.h_basis.dim
    for t, op in enumerate(iso.action):
        yield wedge2_derivation_rows(op.rows()) if t < k else wedge2_moved_rows(op.rows(), op.d)


def invariant_bivectors(iso: IsotropyModel) -> Subspace:
    """Bivectors on g/h fixed by the full declared isotropy action, in wedge-square coordinates.

    The common kernel of every block of invariance_rows, streamed into
    kernel_of_rows: once the kernel is zero, no further block is built.
    """
    return kernel_of_rows(chain.from_iterable(invariance_rows(iso)), len(wedge2_space(iso.quotient_dim)))


def fixed_quotient_covectors(iso: IsotropyModel) -> Subspace:
    """Covectors of (g/h)* fixed by the isotropy action: the space (h deg)^H.

    In quotient coordinates a covector is fixed iff it kills every ad-bar_u
    image and is fixed by the transpose of each induced generator matrix: in
    ints, the rows of N^T, the columns of N, per ad-bar N / d of iso.action and
    N^T - d I per generator.
    """
    k = iso.h_basis.dim
    rows = []
    for t, (cols, d) in enumerate(iso.action):
        rows += map(dict, cols) if t < k else minus_scalar(cols, d)
    return kernel_of_rows(rows, iso.quotient_dim)
