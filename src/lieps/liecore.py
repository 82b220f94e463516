"""Finite-dimensional Lie algebras over Q and isotropy quotients.

A Lie algebra is a dense structure-constant table c[i][j][k] over a fixed
basis.  An isotropy model packages a subalgebra h together with an explicit
linear model of the quotient g/h: a projection q, a section s built from
standard basis vectors, and the annihilator h° of h inside g*, which is how
(g/h)* is represented downstream.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import GeneratorMovesH, NotAnAutomorphism, NotASubalgebra, NotInH
from .exact import Mat, Subspace, inverse, kernel, vec, zero_vec


@dataclass(frozen=True)
class LieAlgebra:
    dim: int
    labels: tuple
    c: tuple  # c[i][j][k] = coefficient of e_k in [e_i, e_j]

    def __post_init__(self):
        assert len(self.labels) == self.dim
        assert len(self.c) == self.dim


def make_lie_algebra(dim, brackets, labels=None) -> LieAlgebra:
    """Build an algebra from sparse brackets given on pairs i < j.

    `brackets` maps (i, j) with i < j to {k: coefficient}; the table is
    completed antisymmetrically and everything else is zero.  Jacobi is not
    checked here; run validate for a full report.
    """
    if labels is None:
        labels = tuple(f"e{i + 1}" for i in range(dim))
    labels = tuple(str(x) for x in labels)
    c = [[[Fraction(0)] * dim for _ in range(dim)] for _ in range(dim)]
    for (i, j), coeffs in brackets.items():
        if not (0 <= i < j < dim):
            raise ValueError(f"bracket key ({i}, {j}) must satisfy 0 <= i < j < dim")
        for k, v in coeffs.items():
            if not 0 <= k < dim:
                raise ValueError(f"coefficient index {k} out of range for dim {dim}")
            v = Fraction(v)
            c[i][j][k] = v
            c[j][i][k] = -v
    frozen = tuple(tuple(tuple(row) for row in plane) for plane in c)
    return LieAlgebra(dim, labels, frozen)


def bracket(L: LieAlgebra, x, y) -> tuple:
    x = vec(x)
    y = vec(y)
    out = [Fraction(0)] * L.dim
    for i, xi in enumerate(x):
        if xi == 0:
            continue
        for j, yj in enumerate(y):
            if yj == 0:
                continue
            cij = L.c[i][j]
            for k in range(L.dim):
                if cij[k] != 0:
                    out[k] += xi * yj * cij[k]
    return tuple(out)


def ad_matrix(L: LieAlgebra, x) -> Mat:
    """Matrix of ad_x = [x, -] in the defining basis (columns are images)."""
    x = vec(x)
    cols = []
    for j in range(L.dim):
        col = [Fraction(0)] * L.dim
        for i, xi in enumerate(x):
            if xi == 0:
                continue
            for k in range(L.dim):
                col[k] += xi * L.c[i][j][k]
        cols.append(col)
    return Mat.from_cols(cols)


@dataclass(frozen=True)
class Report:
    ok: bool
    antisymmetry_failures: tuple  # pairs (i, j) with c[i][j] != -c[j][i]
    jacobi_failures: tuple  # triples (i, j, k) with nonzero jacobiator


def validate(L: LieAlgebra) -> Report:
    anti = []
    for i in range(L.dim):
        for j in range(i, L.dim):
            if any(L.c[i][j][k] != -L.c[j][i][k] for k in range(L.dim)):
                anti.append((i, j))
    jac = []
    e = Mat.identity(L.dim).entries
    for i in range(L.dim):
        for j in range(i + 1, L.dim):
            for k in range(j + 1, L.dim):
                d1 = bracket(L, e[i], bracket(L, e[j], e[k]))
                d2 = bracket(L, e[j], bracket(L, e[k], e[i]))
                d3 = bracket(L, e[k], bracket(L, e[i], e[j]))
                if any(a + b + c != 0 for a, b, c in zip(d1, d2, d3)):
                    jac.append((i, j, k))
    return Report(not anti and not jac, tuple(anti), tuple(jac))


@dataclass(frozen=True)
class IsotropyModel:
    """Quotient model g/h with a preferred standard-basis complement.

    q_matrix : (n-k) x n projection onto quotient coordinates
    s_matrix : n x (n-k) section, columns are the complement standard vectors
    ann_basis : annihilator h° in g*, the working model of (g/h)*
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


def _check_subalgebra(L: LieAlgebra, h: Subspace):
    for a in range(h.dim):
        for b in range(a + 1, h.dim):
            w = bracket(L, h.basis[a], h.basis[b])
            if not h.contains(w):
                raise NotASubalgebra(
                    f"[h{a + 1}, h{b + 1}] leaves the would-be subalgebra",
                    witness=(h.basis[a], h.basis[b], w),
                )


def _check_automorphism(L: LieAlgebra, A: Mat, h: Subspace):
    if A.rows != L.dim or A.cols != L.dim:
        raise NotAnAutomorphism("generator has the wrong shape")
    try:
        inverse(A)
    except ValueError:
        raise NotAnAutomorphism("generator is singular") from None
    e = Mat.identity(L.dim).entries
    for i in range(L.dim):
        for j in range(i + 1, L.dim):
            lhs = A @ bracket(L, e[i], e[j])
            rhs = bracket(L, A.col(i), A.col(j))
            if lhs != rhs:
                raise NotAnAutomorphism(
                    f"A[e{i + 1}, e{j + 1}] != [Ae{i + 1}, Ae{j + 1}]"
                )
    for v in h.basis:
        if not h.contains(A @ v):
            raise GeneratorMovesH("generator does not preserve the isotropy subalgebra")


def make_isotropy(L: LieAlgebra, h_vectors, discrete_generators=None, complement_indices=None) -> IsotropyModel:
    """Package a subalgebra h with an explicit quotient model.

    The complement is scanned greedily through the standard basis unless
    explicit indices are supplied; either way the chosen standard vectors
    must complete a basis of g together with h.
    """
    n = L.dim
    h = Subspace.from_vectors(n, h_vectors)
    _check_subalgebra(L, h)

    e = Mat.identity(n).entries
    if complement_indices is None:
        chosen = []
        span = h
        for j in range(n):
            if span.dim == n:
                break
            if not span.contains(e[j]):
                chosen.append(j)
                span = span.sum(Subspace.from_vectors(n, [e[j]]))
        complement_indices = tuple(chosen)
    else:
        complement_indices = tuple(complement_indices)
        span = Subspace.from_vectors(n, list(h.basis) + [e[j] for j in complement_indices])
        if span.dim != n or h.dim + len(complement_indices) != n:
            raise ValueError("complement indices do not complete a basis with h")

    # columns: h basis first, then the complement standard vectors
    P = Mat.from_cols([list(v) for v in h.basis] + [e[j] for j in complement_indices])
    Pinv = inverse(P)
    q_matrix = Mat(Pinv.entries[h.dim :], n)
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


def project_vector(iso: IsotropyModel, x) -> tuple:
    """Quotient coordinates q x of an ambient vector."""
    return iso.q_matrix @ vec(x)


def lift_vector(iso: IsotropyModel, xbar) -> tuple:
    """Section s applied to quotient coordinates."""
    return iso.s_matrix @ vec(xbar)


def is_reductive_complement(iso: IsotropyModel) -> bool:
    """True when the declared complement m is stable under the h-action.

    [h, m] ⊆ m in realized form: for every h-basis u and complement vector
    e_j, the bracket has no h-component, i.e. it equals s q of itself.
    """
    n = iso.L.dim
    e = Mat.identity(n).entries
    for u in iso.h_basis.basis:
        for j in iso.complement_indices:
            w = bracket(iso.L, u, e[j])
            if tuple(w) != iso.s_matrix @ (iso.q_matrix @ w):
                return False
    return True


def wedge2_space(dim) -> tuple:
    """Index pairs (i, j), i < j, in lexicographic order: the wedge basis."""
    return tuple((i, j) for i in range(dim) for j in range(i + 1, dim))


def wedge2_action(A: Mat) -> Mat:
    """Action of an operator on wedge-square coordinates, e_i^e_j basis."""
    assert A.rows == A.cols
    pairs = wedge2_space(A.rows)
    a = A.entries
    return Mat(
        [
            [a[i][k] * a[j][l] - a[i][l] * a[j][k] for (k, l) in pairs]
            for (i, j) in pairs
        ]
    )


def wedge2_derivation(B: Mat) -> Mat:
    """Derivation extension of an operator to wedge-square coordinates."""
    assert B.rows == B.cols
    pairs = wedge2_space(B.rows)
    b = B.entries

    def entry(i, j, k, l):
        v = Fraction(0)
        if j == l:
            v += b[i][k]
        if i == k:
            v += b[j][l]
        if j == k:
            v -= b[i][l]
        if i == l:
            v -= b[j][k]
        return v

    return Mat([[entry(i, j, k, l) for (k, l) in pairs] for (i, j) in pairs])
