"""Invariant bivectors and fixed subspaces under the isotropy action.

A bivector on the quotient g/h lives in wedge-square coordinates indexed by
the lexicographic pairs (i, j), i < j.  Bivector.r_mat, the skew matrix of
r_#, holds the coordinate c of (i, j) at (j, i) and -c at (i, j).  How an
operator N / d of the isotropy action moves a bivector is one rule,
wedge2_image, on one sparse wedge, add_wedge: the derivation N^1 + 1^N for
an h-basis vector (the connected part), and N^N - d^2 I for a discrete
generator, read off E = N - dI so that it costs what the generator moves.
Every reader takes the operator's moved part X (N or E) from
iso.action_moves, where a discrete generator's E holds only the columns it
moves, so nothing here scans a whole operator for them.  The invariant
solve's rows are the images of single pairs under the transposed operators,
one call of the rule per operator, streamed block by block into the kernel,
so a solve whose kernel is zero early builds no later block; _not_invariant
reads the image of one bivector, and the `--r` reader sums its terms with
add_wedge.  The fixed covectors read the columns of X.
"""

from __future__ import annotations

from functools import cache
from itertools import chain

from .errors import NotInvariant
from .exact import Mat, Subspace, kernel_of_rows
from .liecore import IsotropyModel, _pairs_meeting, wedge2_space


def bivector_coords_from_matrix(r_mat: Mat) -> tuple:
    """Wedge coordinates of a skew matrix, c = r_mat[j][i] at the pair (i, j): the inverse of Bivector.r_mat."""
    if not r_mat.is_skew():
        raise ValueError("bivector matrix must be skew")
    return tuple(r_mat[j][i] for i, j in wedge2_space(r_mat.rows))


@cache
def _wedge_index(n) -> dict:
    return {pair: t for t, pair in enumerate(wedge2_space(n))}


def add_wedge(image, index, u, v, c) -> None:
    """Add c u ^ v to image {pair index: value}; u and v list the nonzeros (k, x) of two vectors.

    index is _wedge_index(n).  u ^ v holds u_k v_l - u_l v_k at the pair
    (k, l), k < l, so it costs nnz(u) nnz(v).
    """
    for a, x in u:
        for b, y in v:
            if a < b:
                t = index[a, b]
                image[t] = image.get(t, 0) + c * x * y
            elif a > b:
                t = index[b, a]
                image[t] = image.get(t, 0) - c * x * y


def wedge2_image(X, d, derivation, n, bivectors) -> list:
    """The nonzeros {pair index: value} of the image of each bivector under an n x n operator N / d.

    A bivector is listed by its terms (i, j, c), i < j: sum c e_i ^ e_j.  X
    maps a column to its nonzeros (k, x) in the operator's moved part, and
    a column X lacks is zero.  The derivation of an h-basis operator, X = N,
    sends e_i ^ e_j to X e_i ^ e_j + e_i ^ X e_j.  A discrete generator,
    X = E = N - dI, moves it by N^N - d^2 I: d (X e_i ^ e_j + e_i ^ X e_j) +
    X e_i ^ X e_j, so a column the generator does not move costs nothing.
    """
    index = _wedge_index(n)
    s = 1 if derivation else d
    images = []
    for terms in bivectors:
        image = {}
        for i, j, c in terms:
            x, y = X.get(i), X.get(j)
            if x:
                add_wedge(image, index, x, ((j, s),), c)
            if y:
                add_wedge(image, index, ((i, s),), y, c)
            if x and y and not derivation:
                add_wedge(image, index, x, y, c)
        images.append({t: v for t, v in image.items() if v})
    return images


def invariance_block(X, d, derivation, n) -> tuple:
    """The nonzero rows {pair index: value} of the invariance condition of one operator N / d, moved part X.

    Row (i, j) of the action on the wedge square is the wedge of rows i and
    j of N: the wedge2_image of e_i ^ e_j under the transpose, whose moved
    part is the rows of X, read off the columns X holds.  For a discrete
    generator only the pairs that meet a nonzero row of E are taken.
    """
    rows = {}
    for j, col in X.items():
        for i, x in col:
            rows.setdefault(i, []).append((j, x))
    pairs = wedge2_space(n) if derivation else _pairs_meeting(rows, n)
    return tuple(filter(None, wedge2_image(rows, d, derivation, n, [((i, j, 1),) for i, j in pairs])))


def invariance_rows(iso: IsotropyModel):
    """The invariance_block of each operator (X, d) of iso.action_moves in turn, built as read.

    Block t < dim h is that of the derivation N = d ad-bar_u for the t-th
    h-basis vector u: its kernel is the bivectors u kills.  Each later block,
    d^2 (A^A - I) for a discrete generator A = N / d, has for kernel the
    bivectors A fixes; the identity gives an empty block.
    """
    k, n = iso.h_basis.dim, iso.quotient_dim
    for t, (X, d) in enumerate(iso.action_moves):
        yield invariance_block(X, d, t < k, n)


def _not_invariant(r):
    """NotInvariant naming the first operator (X, d) of iso.action_moves that moves the Bivector r, or None.

    The wedge2_image of r's nonzeros under each operator in turn: d r in
    ints, since a zero test does not see the scale.
    """
    iso = r.iso
    h = iso.h_basis
    n = iso.quotient_dim
    pairs = wedge2_space(n)
    terms = [(*pairs[p], c) for p, c in r.nz]
    for t, (X, d) in enumerate(iso.action_moves):
        derivation = t < h.dim
        if wedge2_image(X, d, derivation, n, (terms,))[0]:
            what = (
                f"h-basis vector ({', '.join(str(x) for x in h.basis[t])})"
                if derivation
                else f"discrete generator ad_generators[{t - h.dim}]"
            )
            return NotInvariant(f"r is not invariant: the {what} moves it")
    return None


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
    ints, the rows of N^T and N^T - d I, the columns of the moved part X of
    each ad-bar and each generator N / d of iso.action_moves.
    """
    return kernel_of_rows([dict(col) for X, _ in iso.action_moves for col in X.values()], iso.quotient_dim)
