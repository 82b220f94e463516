"""Invariant bivectors and fixed subspaces under the isotropy action.

A bivector on the quotient g/h lives in wedge-square coordinates indexed by
the lexicographic pairs (i, j), i < j.  Bivector.r_mat, the skew matrix of
r_#, holds the coordinate c of (i, j) at (j, i) and -c at (i, j).  How an
operator N / d of iso.action moves a bivector is one rule, wedge2_image, on
one sparse wedge, add_wedge: the derivation N^1 + 1^N for an h-basis vector
(the connected part), and N^N - d^2 I for a discrete generator, read off E =
N - dI so that it costs what the generator moves.  The invariant solve's
rows are the images of single pairs under the transposed operators, streamed
block by block into the kernel, so a solve whose kernel is zero early builds
no later block; _not_invariant reads the image of one bivector, and the
`--r` reader sums its terms with add_wedge.  The fixed covectors read the
operators' columns.
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


def moved_part(cols, d, derivation) -> list:
    """The nonzeros (k, x) of each column of the part X of an operator N / d that moves, from those of N.

    X = N for an h-basis operator, which acts by a derivation, and cols are
    returned as they are; X = E = N - dI for a discrete generator, so a
    column it does not move is empty.
    """
    if derivation:
        return cols
    out = []
    for j, col in enumerate(cols):
        col = dict(col)
        if x := col.pop(j, 0) - d:
            col[j] = x
        out.append(col.items())
    return out


def wedge2_image(cols, d, derivation, terms) -> dict:
    """The nonzeros {pair index: value} of the image of sum c e_i ^ e_j, terms (i, j, c), i < j, under N / d.

    cols lists the nonzeros (k, x) of each column of the operator's
    moved_part X.  The derivation of an h-basis operator, X = N, sends
    e_i ^ e_j to X e_i ^ e_j + e_i ^ X e_j.  A discrete generator, X = E =
    N - dI, moves it by N^N - d^2 I: d (X e_i ^ e_j + e_i ^ X e_j) +
    X e_i ^ X e_j, so a column the generator does not move costs nothing.
    """
    index = _wedge_index(len(cols))
    s = 1 if derivation else d
    image = {}
    for i, j, c in terms:
        x, y = cols[i], cols[j]
        if x:
            add_wedge(image, index, x, ((j, s),), c)
        if y:
            add_wedge(image, index, ((i, s),), y, c)
        if x and y and not derivation:
            add_wedge(image, index, x, y, c)
    return {t: v for t, v in image.items() if v}


def invariance_block(op, derivation) -> tuple:
    """The nonzero rows {pair index: value} of the invariance condition of one operator op = N / d.

    Row (i, j) of the action on the wedge square is the wedge of rows i and
    j of N: the wedge2_image of e_i ^ e_j under the transpose, for a
    discrete generator only on the pairs that meet a nonzero row of E.
    """
    rows = moved_part([row.items() for row in op.rows()], op.d, derivation)
    n = len(rows)
    pairs = wedge2_space(n) if derivation else sorted(_pairs_meeting([i for i, row in enumerate(rows) if row], n))
    return tuple(filter(None, (wedge2_image(rows, op.d, derivation, ((i, j, 1),)) for i, j in pairs)))


def invariance_rows(iso: IsotropyModel):
    """The invariance_block of each operator of iso.action in turn, built as read.

    Block t < dim h is that of the derivation N = d ad-bar_u for the t-th
    h-basis vector u: its kernel is the bivectors u kills.  Each later block,
    d^2 (A^A - I) for a discrete generator A = N / d, has for kernel the
    bivectors A fixes; the identity gives an empty block.
    """
    k = iso.h_basis.dim
    for t, op in enumerate(iso.action):
        yield invariance_block(op, t < k)


def _not_invariant(r):
    """NotInvariant naming the first operator N / d of iso.action that moves the Bivector r, or None.

    The wedge2_image of r's nonzeros under each operator in turn: d r in
    ints, since a zero test does not see the scale.
    """
    iso = r.iso
    h = iso.h_basis
    pairs = wedge2_space(iso.quotient_dim)
    terms = [(*pairs[p], c) for p, c in r.nz]
    for t, (cols, d) in enumerate(iso.action):
        derivation = t < h.dim
        if wedge2_image(moved_part(cols, d, derivation), d, derivation, terms):
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
    ints, the rows of N^T and N^T - d I, the columns of the moved_part of each
    ad-bar and each generator N / d of iso.action.
    """
    k = iso.h_basis.dim
    rows = []
    for t, (cols, d) in enumerate(iso.action):
        rows += map(dict, moved_part(cols, d, t < k))
    return kernel_of_rows(rows, iso.quotient_dim)
