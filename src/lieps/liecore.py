"""Finite-dimensional Lie algebras over Q and isotropy quotients.

A Lie algebra is its table of structure constants over a fixed basis, stored
sparse: nz[i][j] lists the nonzero coefficients of [e_i, e_j], and every
bracket, ad-matrix, Jacobi and automorphism evaluation iterates over it, so
its cost follows the nonzero products.  An isotropy model packages a
subalgebra h together with an explicit linear model of the quotient g/h: a
projection q, a section s built from standard basis vectors, and the
annihilator h° of h inside g*, which is how (g/h)* is represented
downstream.  The model also keeps the action of the isotropy on g/h, off
which every invariant object is read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, partial
from fractions import Fraction

from .errors import GeneratorMovesH, NoSolution, NotAnAutomorphism, NotASubalgebra, NotInH
from .exact import Mat, Subspace, inverse, kernel, rref, vec


@dataclass(frozen=True)
class LieAlgebra:
    dim: int
    labels: tuple
    nz: tuple  # nz[i][j] = ((k, c_ijk), ...): the nonzeros of [e_i, e_j], k increasing

    def __post_init__(self):
        if len(self.labels) != self.dim or len(self.nz) != self.dim:
            raise ValueError(f"labels and structure constants must have length {self.dim}")


def make_lie_algebra(dim, brackets, labels=None) -> LieAlgebra:
    """Build an algebra from sparse brackets given on pairs i < j.

    `brackets` maps (i, j) with i < j to {k: coefficient}; the table is
    completed antisymmetrically, zero coefficients are dropped and every
    other pair is zero.  Jacobi is not checked here; run validate for a full
    report.
    """
    if labels is None:
        labels = tuple(f"e{i + 1}" for i in range(dim))
    labels = tuple(str(x) for x in labels)
    nz = [[()] * dim for _ in range(dim)]
    for (i, j), coeffs in brackets.items():
        if not (0 <= i < j < dim):
            raise ValueError(f"bracket key ({i}, {j}) must satisfy 0 <= i < j < dim")
        terms = []
        for k, v in coeffs.items():
            if not 0 <= k < dim:
                raise ValueError(f"coefficient index {k} out of range for dim {dim}")
            v = Fraction(v)
            if v:
                terms.append((k, v))
        terms.sort()
        nz[i][j] = tuple(terms)
        nz[j][i] = tuple((k, -v) for k, v in terms)
    return LieAlgebra(dim, labels, tuple(tuple(row) for row in nz))


def _sparse_bracket(nz, xs, ys) -> dict:
    """[x, y] as {k: value} from the nonzero (index, coefficient) pairs of x and y."""
    out = {}
    for i, xi in xs:
        nzi = nz[i]
        for j, yj in ys:
            terms = nzi[j]
            if terms:
                xy = xi * yj
                for k, c in terms:
                    out[k] = out.get(k, 0) + xy * c
    return out


def _nonzeros(x) -> tuple:
    return tuple((i, xi) for i, xi in enumerate(x) if xi)


def bracket(L: LieAlgebra, x, y) -> tuple:
    out = _sparse_bracket(L.nz, _nonzeros(vec(x)), _nonzeros(vec(y)))
    zero = Fraction(0)
    return tuple(out.get(k, zero) for k in range(L.dim))


def ad_matrix(L: LieAlgebra, x) -> Mat:
    """Matrix of ad_x = [x, -] in the defining basis (columns are images)."""
    x = vec(x)
    n = L.dim
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i, xi in enumerate(x):
        if not xi:
            continue
        for j, terms in enumerate(L.nz[i]):
            for k, c in terms:
                rows[k][j] += xi * c
    return Mat(rows, n)


def structure_constants(space: Subspace, br, error) -> dict:
    """Bracket table {(i, j): coordinates of br(b_i, b_j)}, i < j, of a subalgebra.

    b is the RREF basis of space and the coordinates are taken in it;
    error(i, j) is the exception raised when br(b_i, b_j) leaves the space.
    """
    b = space.basis
    out = {}
    for i in range(space.dim):
        for j in range(i + 1, space.dim):
            try:
                out[i, j] = space.coords_of(br(b[i], b[j]))
            except NoSolution:
                raise error(i, j) from None
    return out


@dataclass(frozen=True)
class Report:
    ok: bool
    antisymmetry_failures: tuple  # pairs (i, j) with c[i][j] != -c[j][i]
    jacobi_failures: tuple  # triples (i, j, k) with nonzero jacobiator


def _jacobi_failures(L: LieAlgebra) -> tuple:
    """Triples i < j < k with a nonzero jacobiator, from the nonzeros of c.

    The jacobiator of (i, j, k) is the sum over the rotations (t, a, b) of
    (i, j, k) of [e_t, [e_a, e_b]], whose l-component is
    sum_m c[a][b][m] c[t][m][l].  Each nonzero product is visited once, from
    the inner pair (a, b) and the outer index t, and credited to the sorted
    triple when (t, a, b) is a rotation of it.
    """
    n = L.dim
    nz = L.nz
    # m -> outer indices t with a nonzero [e_t, e_m], and those terms
    outer = [[(t, nz[t][m]) for t in range(n) if nz[t][m]] for m in range(n)]
    sums = {}
    for a in range(n):
        for b in range(n):
            for m, cab in nz[a][b]:
                for t, terms in outer[m]:
                    if t < a < b or a < b < t or b < t < a:
                        key = tuple(sorted((t, a, b)))
                        acc = sums.setdefault(key, {})
                        for l, ctm in terms:
                            acc[l] = acc.get(l, 0) + cab * ctm
    return tuple(sorted(key for key, acc in sums.items() if any(acc.values())))


def validate(L: LieAlgebra) -> Report:
    n = L.dim
    nz = L.nz
    anti = [
        (i, j)
        for i in range(n)
        for j in range(i, n)
        if nz[i][j] != tuple((k, -x) for k, x in nz[j][i])
    ]
    jac = _jacobi_failures(L)
    return Report(not anti and not jac, tuple(anti), jac)


@dataclass(frozen=True)
class IsotropyModel:
    """Quotient model g/h with a preferred standard-basis complement.

    q_matrix : (n-k) x n projection onto quotient coordinates
    s_matrix : n x (n-k) section, columns are the complement standard vectors
    ann_basis : annihilator h° in g*, the working model of (g/h)*

    The action of the isotropy on g/h (ad_bars, generator_maps) and the
    reductive flag are derived once, on first use, and kept on the model.
    """

    L: LieAlgebra
    h_basis: Subspace
    complement_indices: tuple
    q_matrix: Mat
    s_matrix: Mat
    ann_basis: Subspace
    discrete_generators: tuple = field(default=())

    @property
    def quotient_dim(self) -> int:
        return len(self.complement_indices)

    @cached_property
    def _ad_sections(self) -> tuple:
        """ad_u s for each h-basis vector u: the brackets of u with the complement."""
        s = self.s_matrix
        return tuple(ad_matrix(self.L, u) @ s for u in self.h_basis.basis)

    @cached_property
    def ad_bars(self) -> tuple:
        """ad-bar_u = q ad_u s, the quotient action of each h-basis vector u.

        One ad-matrix per basis vector; ad-bar is linear in u, and it is well
        defined because ad_u maps h to h, so it does not depend on the section.
        """
        q = self.q_matrix
        return tuple(q @ m for m in self._ad_sections)

    @cached_property
    def generator_maps(self) -> tuple:
        """q A s, the quotient action of each discrete generator A."""
        return tuple(induced_map(self, A) for A in self.discrete_generators)

    @cached_property
    def reductive(self) -> bool:
        """[h, m] in m for the declared complement m = s(g/h).

        A vector lies in m iff it equals s q of itself, so the condition is
        ad_u s = s ad-bar_u for every h-basis vector u.
        """
        s = self.s_matrix
        return all(s @ bar == m for bar, m in zip(self.ad_bars, self._ad_sections))


def _check_subalgebra(L: LieAlgebra, h: Subspace):
    b = h.basis
    structure_constants(
        h,
        partial(bracket, L),
        lambda i, j: NotASubalgebra(
            f"[h{i + 1}, h{j + 1}] leaves the would-be subalgebra",
            witness=(b[i], b[j], bracket(L, b[i], b[j])),
        ),
    )


def _check_automorphism(L: LieAlgebra, A: Mat, h: Subspace):
    if A.rows != L.dim or A.cols != L.dim:
        raise NotAnAutomorphism("generator has the wrong shape")
    try:
        inverse(A)
    except ValueError:
        raise NotAnAutomorphism("generator is singular") from None
    nz = L.nz
    cols = [_nonzeros(col) for col in A.T.entries]
    for i in range(L.dim):
        for j in range(i + 1, L.dim):
            # [A e_i, A e_j] - A[e_i, e_j], from nonzeros only
            diff = _sparse_bracket(nz, cols[i], cols[j])
            for m, c in nz[i][j]:
                for k, a in cols[m]:
                    diff[k] = diff.get(k, 0) - c * a
            if any(diff.values()):
                raise NotAnAutomorphism(
                    f"A[e{i + 1}, e{j + 1}] != [Ae{i + 1}, Ae{j + 1}]"
                )
    for v in h.basis:
        if not h.contains(A @ v):
            raise GeneratorMovesH("generator does not preserve the isotropy subalgebra")


def greedy_complement(space: Subspace) -> tuple:
    """Standard-basis indices completing `space` to the ambient, scanned greedily.

    The scan keeps e_j when it lies outside space + span(e_0, ..., e_{j-1}).
    That happens exactly when column j is not a pivot of the basis reduced
    with its columns in reverse order, so one elimination gives the answer.
    """
    n = space.ambient
    if not space.dim:
        return tuple(range(n))
    _, pivots = rref(Mat([v[::-1] for v in space.basis]))
    taken = {n - 1 - p for p in pivots}
    return tuple(j for j in range(n) if j not in taken)


def completed_frame_inverse(space: Subspace, indices) -> Mat:
    """Inverse of the frame whose columns are the RREF basis of space, then e_j.

    Row t of the result gives the t-th frame coordinate of a vector: the
    first space.dim rows its coordinates along space, the rest those along
    the standard vectors e_j, j in indices.  Raises ValueError unless those
    standard vectors complete space to a basis of the ambient.
    """
    n = space.ambient
    if any(not 0 <= j < n for j in indices):
        raise ValueError(f"complement indices must lie in 0..{n - 1}")
    e = Mat.identity(n).entries
    try:
        return inverse(Mat.from_cols(list(space.basis) + [e[j] for j in indices], n))
    except ValueError:
        raise ValueError("the standard vectors do not complete the subspace to a basis") from None


def make_isotropy(L: LieAlgebra, h_vectors, discrete_generators=None, complement_indices=None) -> IsotropyModel:
    """Package a subalgebra h with an explicit quotient model.

    The complement is scanned greedily through the standard basis unless
    explicit indices are supplied; either way the chosen standard vectors
    must complete a basis of g together with h.
    """
    n = L.dim
    h = Subspace.from_vectors(n, h_vectors)
    _check_subalgebra(L, h)

    if complement_indices is None:
        complement_indices = greedy_complement(h)
    else:
        complement_indices = tuple(complement_indices)
    # rows past the h-coordinates are the coordinates along the complement
    q_matrix = Mat(completed_frame_inverse(h, complement_indices).entries[h.dim :], n)
    e = Mat.identity(n).entries
    s_matrix = Mat.from_cols([e[j] for j in complement_indices], n)

    ann = kernel(Mat(h.basis)) if h.dim > 0 else Subspace.full(n)

    gens = []
    if discrete_generators:
        for A in discrete_generators:
            A = A if isinstance(A, Mat) else Mat(A)
            _check_automorphism(L, A, h)
            gens.append(A)

    return IsotropyModel(
        L=L,
        h_basis=h,
        complement_indices=complement_indices,
        q_matrix=q_matrix,
        s_matrix=s_matrix,
        ann_basis=ann,
        discrete_generators=tuple(gens),
    )


def induced_ad_bar(L: LieAlgebra, iso: IsotropyModel, u) -> Mat:
    """Matrix of the quotient action ad-bar_u = q ad_u s for u in h.

    Well defined because h is a subalgebra: ad_u maps h to h, so the result
    does not depend on the choice of section.
    """
    u = vec(u)
    if not iso.h_basis.contains(u):
        raise NotInH("ad-bar is only defined for elements of the isotropy subalgebra")
    return iso.q_matrix @ ad_matrix(L, u) @ iso.s_matrix


def induced_map(iso: IsotropyModel, A: Mat) -> Mat:
    """Quotient matrix q A s of an h-preserving operator A."""
    return iso.q_matrix @ A @ iso.s_matrix


def covector_to_ann(iso: IsotropyModel, alpha) -> tuple:
    """Identify a quotient covector with its annihilator representative q^T a."""
    return iso.q_matrix.apply_T(alpha)


def ann_to_covector(iso: IsotropyModel, eta) -> tuple:
    """Inverse identification h° -> (g/h)*, eta -> s^T eta."""
    return iso.s_matrix.apply_T(eta)


def m_bracket(iso: IsotropyModel, x, y) -> tuple:
    """The m-bracket [x, y]_m = q[s x, s y] of two quotient vectors."""
    return iso.q_matrix @ bracket(iso.L, iso.s_matrix @ x, iso.s_matrix @ y)


def wedge2_space(dim) -> tuple:
    """Index pairs (i, j), i < j, in lexicographic order: the wedge basis."""
    return tuple((i, j) for i in range(dim) for j in range(i + 1, dim))


def _wedge_rows(A: Mat, terms) -> tuple:
    """Wedge-square rows built from the sparse rows a of a square A.

    terms(a, i, j) lists vector pairs (u, v) whose wedges u ^ v, summed, give
    row (i, j); (u ^ v) has entry u_k v_l - u_l v_k at the pair (k, l), so
    each wedge costs nnz(u) * nnz(v).
    """
    if A.rows != A.cols:
        raise ValueError("wedge-square needs a square operator")
    a = A.sparse_rows()
    pairs = wedge2_space(A.rows)
    index = {pair: t for t, pair in enumerate(pairs)}
    out = []
    for i, j in pairs:
        row = {}
        for u, v in terms(a, i, j):
            for k, x in u.items():
                for l, y in v.items():
                    if k < l:
                        t = index[k, l]
                        row[t] = row.get(t, 0) + x * y
                    elif k > l:
                        t = index[l, k]
                        row[t] = row.get(t, 0) - x * y
        out.append({t: v for t, v in row.items() if v})
    return tuple(out)


def wedge2_action_rows(A: Mat) -> tuple:
    """Rows of the wedge-square action of A as {pair index: value} dicts.

    Row (i, j) is (row i of A) ^ (row j of A).
    """
    return _wedge_rows(A, lambda a, i, j: ((a[i], a[j]),))


def wedge2_derivation_rows(B: Mat) -> tuple:
    """Rows of the derivation extension of B as {pair index: value} dicts.

    Row (i, j) is b_i ^ e_j + e_i ^ b_j for the rows b of B: the t-linear
    part of (e_i + t b_i) ^ (e_j + t b_j), i.e. of the action of I + tB.
    """
    return _wedge_rows(B, lambda b, i, j: ((b[i], {j: 1}), ({i: 1}, b[j])))
