"""Shared test fixtures: catalog instances, r-matrix enumeration, a seeded
generator of randomized quotient instances, and plain dense oracles for the
sparse code paths and the per-bivector tables."""

import io
import random
import re
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from itertools import combinations
from fractions import Fraction as QQ
from functools import cached_property
from math import lcm

from lieps import catalog, cli
from lieps.exact import (
    Mat,
    Subspace,
    dot,
    from_ints,
    int_vectors,
    inverse,
    kernel,
    solve,
    vsub,
    zero_vec,
)
from lieps.invariants import _not_invariant, fixed_quotient_covectors, invariant_bivectors
from lieps.errors import (
    ClosureFailure,
    DocumentError,
    GeneratorMovesH,
    LiepsError,
    NotACocycle,
    NotAnAutomorphism,
    RadicalMismatch,
)
from lieps.exact import _rref_int_rows
from lieps.liecore import (
    Generator,
    _sparse_bracket,
    ad_matrix,
    bracket,
    covector_to_ann,
    induced_map,
    make_isotropy,
    make_lie_algebra,
    wedge2_space,
)
from lieps.foliation import _check_cocycle
from lieps.ybe import (
    YBTensor,
    canonical_lift,
    hcirc_bracket,
    is_r_matrix,
    make_bivector,
    require_r_matrix,
    sharp,
)

CATALOG_ENTRIES = (
    ("abelian-3", "abelian", {"n": 3}),
    ("heisenberg-1", "heisenberg", {"n": 1}),
    ("heisenberg-2", "heisenberg", {"n": 2}),
    ("iso11", "iso11", None),
    ("gl-sym-2", "gl_sym", {"n": 2}),
    ("so4-grassmann", "so4_grassmann", None),
    ("double-heisenberg-1", "double", {"of": "heisenberg", "n": 1}),
)


def instance(name, params=None):
    return catalog.realize(catalog.builtin(name, params))


def catalog_instances():
    out = []
    for tag, name, params in CATALOG_ENTRIES:
        L, iso = instance(name, params)
        out.append((tag, L, iso))
    return out


def invariant_candidates(iso):
    """Invariant-space basis vectors plus their pairwise sums, nonzero only."""
    basis = list(invariant_bivectors(iso).basis)
    cands = list(basis)
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            cands.append(tuple(x + y for x, y in zip(basis[i], basis[j])))
    return [c for c in cands if any(x != 0 for x in c)]


def catalog_r_matrices():
    """(tag, L, iso, r) for every enumerated catalog r-matrix."""
    out = []
    for tag, L, iso in catalog_instances():
        for c in invariant_candidates(iso):
            r = make_bivector(iso, c)
            if is_r_matrix(r):
                out.append((tag, L, iso, r))
    return out


# ---------------------------------------------------------------------------
# randomized instances: small base families with known subalgebras, pushed
# through a random rational change of basis

# family: (dim, brackets, tuple of h-options, each a tuple of basis vectors)
_V = lambda *xs: tuple(QQ(x) for x in xs)

BASE_FAMILIES = {
    "abelian3": (3, {}, ((), (_V(1, 0, 0),), (_V(1, 0, 0), _V(0, 1, 0)))),
    "heis": (3, {(0, 1): {2: QQ(1)}}, ((), (_V(0, 0, 1),), (_V(1, 0, 0), _V(0, 0, 1)))),
    "iso11": (
        3,
        {(0, 2): {0: QQ(1)}, (1, 2): {1: QQ(-1)}},
        ((), (_V(1, 0, 0),), (_V(0, 1, 0),)),
    ),
    "sl2": (
        3,
        {(0, 1): {1: QQ(2)}, (0, 2): {2: QQ(-2)}, (1, 2): {0: QQ(1)}},
        ((), (_V(0, 1, 0),), (_V(1, 0, 0),), (_V(1, 0, 0), _V(0, 1, 0))),
    ),
    "so3": (
        3,
        {(0, 1): {2: QQ(1)}, (1, 2): {0: QQ(1)}, (0, 2): {1: QQ(-1)}},
        ((), (_V(1, 0, 0),)),
    ),
    "solv2": (2, {(0, 1): {0: QQ(1)}}, ((), (_V(1, 0),))),
}


def _direct_sum(fam_a, fam_b):
    da, bra, ha = fam_a
    db, brb, hb = fam_b
    brackets = {k: dict(v) for k, v in bra.items()}
    for (i, j), coeffs in brb.items():
        brackets[(da + i, da + j)] = {da + k: c for k, c in coeffs.items()}
    pad_a = lambda v: v + (QQ(0),) * db
    pad_b = lambda v: (QQ(0),) * da + v
    h_opts = []
    for opt_a in ha:
        for opt_b in hb:
            h_opts.append(tuple(pad_a(v) for v in opt_a) + tuple(pad_b(v) for v in opt_b))
    return (da + db, brackets, tuple(h_opts))


SUM_FAMILIES = {
    "solv2+solv2": _direct_sum(BASE_FAMILIES["solv2"], BASE_FAMILIES["solv2"]),
    "heis+solv2": _direct_sum(BASE_FAMILIES["heis"], BASE_FAMILIES["solv2"]),
    "sl2+solv2": _direct_sum(BASE_FAMILIES["sl2"], BASE_FAMILIES["solv2"]),
    "heis+heis": _direct_sum(BASE_FAMILIES["heis"], BASE_FAMILIES["heis"]),
}

ALL_FAMILIES = dict(BASE_FAMILIES, **SUM_FAMILIES)


def _random_gl(rng, n):
    while True:
        m = Mat(tuple(tuple(QQ(rng.randint(-2, 2)) for _ in range(n)) for _ in range(n)))
        try:
            return m, inverse(m)
        except ValueError:
            continue


def _transport_algebra(rng, dim, brackets):
    """Conjugate the structure constants by a random basis change."""
    L0 = make_lie_algebra(dim, brackets)
    T, Tinv = _random_gl(rng, dim)
    cols = [T.col(i) for i in range(dim)]
    new_brackets = {}
    for i in range(dim):
        for j in range(i + 1, dim):
            w = Tinv @ bracket(L0, cols[i], cols[j])
            coeffs = {k: w[k] for k in range(dim) if w[k] != 0}
            if coeffs:
                new_brackets[(i, j)] = coeffs
    return make_lie_algebra(dim, new_brackets), T, Tinv


def random_instances(seed, count):
    """Yield (label, L, iso, r_coords) with r drawn from the invariant space.

    Skips draws whose invariant space is zero; h is a transported known
    subalgebra, so closedness is guaranteed by construction.
    """
    rng = random.Random(seed)
    names = sorted(ALL_FAMILIES)
    produced = 0
    while produced < count:
        name = rng.choice(names)
        dim, brackets, h_options = ALL_FAMILIES[name]
        L, T, Tinv = _transport_algebra(rng, dim, brackets)
        h_vecs = [tuple(Tinv @ v) for v in rng.choice(h_options)]
        iso = make_isotropy(L, h_vecs)
        inv = invariant_bivectors(iso)
        if inv.dim == 0:
            continue
        coeffs = [QQ(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(inv.dim)]
        if all(c == 0 for c in coeffs):
            coeffs[0] = QQ(1)
        coords = [QQ(0)] * len(inv.basis[0])
        for c, bv in zip(coeffs, inv.basis):
            for t in range(len(coords)):
                coords[t] += c * bv[t]
        produced += 1
        yield f"{name}#{produced}", L, iso, tuple(coords)


# families with known h-preserving automorphisms: the lattice generators
# I + ad_x of heis (ad_x^2 = 0, and every h option contains [g, g] or lies
# in the center), the iso11 catalog generator e3 -> e3 + (e1 - e2) / 2,
# which fixes e1 and e2, and on sl2+solv2, whose h options are coordinate
# subspaces, E -> 2E, F -> F / 2 on sl2 and e2 -> e1 + e2 on solv2
GENERATOR_FAMILIES = {
    "heis": (
        Mat(((1, 0, 0), (0, 1, 0), (0, 1, 1))),
        Mat(((1, 0, 0), (0, 1, 0), (-1, 0, 1))),
    ),
    "iso11": (Mat(((1, 0, QQ(1, 2)), (0, 1, QQ(-1, 2)), (0, 0, 1))),),
    "sl2+solv2": (
        Mat(
            (
                (1, 0, 0, 0, 0),
                (0, 2, 0, 0, 0),
                (0, 0, QQ(1, 2), 0, 0),
                (0, 0, 0, 1, 0),
                (0, 0, 0, 0, 1),
            )
        ),
        Mat(
            (
                (1, 0, 0, 0, 0),
                (0, 1, 0, 0, 0),
                (0, 0, 1, 0, 0),
                (0, 0, 0, 1, 1),
                (0, 0, 0, 0, 1),
            )
        ),
    ),
}


def random_generator_instance(seed):
    """(label, L, iso, r_coords): a family of GENERATOR_FAMILIES with its generators.

    The algebra, h and each generator A are pushed through one random
    rational change of basis T (A -> T^-1 A T), so h is in general not
    spanned by coordinate vectors and A has denominators; r is an arbitrary
    rational bivector on the quotient, in general not invariant.
    """
    rng = random.Random(seed)
    name = rng.choice(sorted(GENERATOR_FAMILIES))
    dim, brackets, h_options = ALL_FAMILIES[name]
    L, T, Tinv = _transport_algebra(rng, dim, brackets)
    h_vecs = [tuple(Tinv @ v) for v in rng.choice(h_options)]
    gens = [Tinv @ A @ T for A in GENERATOR_FAMILIES[name]]
    iso = make_isotropy(L, h_vecs, discrete_generators=rng.sample(gens, rng.randint(1, len(gens))))
    m = iso.quotient_dim
    coords = tuple(QQ(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(m * (m - 1) // 2))
    return f"{name}#{seed}", L, iso, coords


def count_calls(monkeypatch, owner, name):
    """Arguments of every call to owner.name, a class or module attribute, which still runs.

    A module function is replaced under every lieps alias of it as well, so
    calls through `from .exact import solve` count.  On
    IsotropyModel._quotient_ints the arguments are (model, images), one per
    integer operator taken through q: each operator of the action and each
    q ad(e_j) s of the m_table; on exact._rref_int_rows, one per elimination.
    """
    calls = []
    real = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("lieps") and getattr(module, name, None) is real:
            monkeypatch.setattr(module, name, counted)
    return calls


def count_cached(monkeypatch, cls, name):
    """Instances on which the cached_property cls.name is computed, which still runs."""
    calls = []
    real = cls.__dict__[name].func

    def counted(self):
        calls.append(self)
        return real(self)

    prop = cached_property(counted)
    prop.__set_name__(cls, name)
    monkeypatch.setattr(cls, name, prop)
    return calls


def random_lift_perturbation(rng, iso, rt_mat):
    """rt + sum of (y x^T - x y^T) with x in h: another lift of the same r."""
    n = rt_mat.rows
    out = [list(row) for row in rt_mat.entries]
    h_basis = list(iso.h_basis.basis)
    if not h_basis:
        return rt_mat
    for _ in range(rng.randint(1, 3)):
        x = h_basis[rng.randrange(len(h_basis))]
        y = [QQ(rng.randint(-2, 2)) for _ in range(n)]
        for i in range(n):
            for j in range(n):
                out[i][j] += y[i] * x[j] - x[i] * y[j]
    return Mat(tuple(tuple(row) for row in out))


# ---------------------------------------------------------------------------
# dense oracles: the straightforward loops the sparse paths replaced


def gauss_jordan_oracle(rows):
    """Plain-Fraction Gauss-Jordan, no fraction-free tricks.

    Independent of the production kernel; used to cross-check rref.
    """
    rows = [[QQ(x) for x in r] for r in rows]
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        p = next((i for i in range(r, nrows) if rows[i][c] != 0), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        piv = rows[r][c]
        rows[r] = [x / piv for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots


def span_oracle(vectors) -> tuple:
    """(basis, pivots): the RREF basis of the span of the vectors, by gauss_jordan_oracle."""
    red, pivots = gauss_jordan_oracle(vectors) if vectors else ([], [])
    return tuple(tuple(r) for r in red[: len(pivots)]), tuple(pivots)


def span_coords_oracle(basis, pivots, v):
    """Coordinates of v in the RREF basis of span_oracle, or None when v lies outside the span."""
    coords = tuple(QQ(v[p]) for p in pivots)
    rest = [QQ(x) for x in v]
    for c, row in zip(coords, basis):
        rest = [x - c * y for x, y in zip(rest, row)]
    return None if any(rest) else coords


def kernel_oracle(rows, ncols):
    """Canonical RREF basis of the nullspace, by Gauss-Jordan twice."""
    red, pivots = gauss_jordan_oracle(rows) if rows else ([], [])
    vecs = []
    for f in range(ncols):
        if f in pivots:
            continue
        v = [QQ(0)] * ncols
        v[f] = QQ(1)
        for t, p in enumerate(pivots):
            v[p] = -red[t][f]
        vecs.append(v)
    if not vecs:
        return ()
    basis, piv = gauss_jordan_oracle(vecs)
    return tuple(tuple(r) for r in basis[: len(piv)])


def greedy_complement_scan(space: Subspace) -> tuple:
    """The one-vector-at-a-time greedy scan: keep e_j when it adds rank."""
    n = space.ambient
    e = Mat.identity(n).entries
    chosen = []
    span = space
    for j in range(n):
        if span.dim == n:
            break
        if not span.contains(e[j]):
            chosen.append(j)
            span = Subspace.from_vectors(n, list(span.basis) + [e[j]])
    return tuple(chosen)


def dense_table(L):
    """The dense table c[i][j][k] = coefficient of e_k in [e_i, e_j], from L.nz and L.den."""
    n = L.dim
    c = [[[QQ(0)] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            for k, x in L.nz[i][j]:
                c[i][j][k] = QQ(x, L.den)
    return c


def nz_of_table(c):
    """(nz, den) of a raw dense table: nz[i][j] = ((k, den c_ijk), ...), all ints.

    den is the lcm of the denominators of the nonzero entries.  Both halves
    are kept as given, so a table that is not antisymmetric still reaches
    validate.
    """
    den = 1
    for ci in c:
        for cij in ci:
            for x in cij:
                den = lcm(den, QQ(x).denominator)
    nz = tuple(
        tuple(tuple((k, int(QQ(x) * den)) for k, x in enumerate(cij) if x) for cij in ci)
        for ci in c
    )
    return nz, den


def dense_validate(L):
    """(antisymmetry failures, Jacobi failures) by the dense triple loops."""
    n = L.dim
    c = dense_table(L)
    anti = tuple(
        (i, j)
        for i in range(n)
        for j in range(i, n)
        if any(c[i][j][k] != -c[j][i][k] for k in range(n))
    )

    def br(x, y):
        out = [QQ(0)] * n
        for i in range(n):
            for j in range(n):
                if x[i] and y[j]:
                    for k in range(n):
                        out[k] += x[i] * y[j] * c[i][j][k]
        return out

    e = Mat.identity(n).entries
    jac = []
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                d1 = br(e[i], br(e[j], e[k]))
                d2 = br(e[j], br(e[k], e[i]))
                d3 = br(e[k], br(e[i], e[j]))
                if any(a + b + z != 0 for a, b, z in zip(d1, d2, d3)):
                    jac.append((i, j, k))
    return anti, tuple(jac)


def dense_is_automorphism(L, A: Mat) -> bool:
    """A[e_i, e_j] == [A e_i, A e_j] for every i < j, by the dense triple loops."""
    n = L.dim
    c = dense_table(L)
    a = A.entries
    for i in range(n):
        for j in range(i + 1, n):
            lhs = [sum((a[k][m] * c[i][j][m] for m in range(n)), QQ(0)) for k in range(n)]
            rhs = [
                sum(
                    (a[p][i] * a[q][j] * c[p][q][k] for p in range(n) for q in range(n)),
                    QQ(0),
                )
                for k in range(n)
            ]
            if lhs != rhs:
                return False
    return True


def check_automorphism_all_pairs(L, A, h):
    """The automorphism check by every pair i < j and the full n x n elimination of N.

    The oracle of liecore._check_automorphism, which reads the moved columns
    alone: same exceptions, same messages, same first failing pair.
    """
    cols, dA = A
    if len(cols) != L.dim:
        raise NotAnAutomorphism("generator has the wrong shape")
    if len(_rref_int_rows([dict(c) for c in cols], L.dim)[1]) < L.dim:
        raise NotAnAutomorphism("generator is singular")
    nz = L.nz
    for i in range(L.dim):
        for j in range(i + 1, L.dim):
            diff = _sparse_bracket(nz, cols[i], cols[j])
            for m, c in nz[i][j]:
                c *= dA
                for k, a in cols[m]:
                    diff[k] = diff.get(k, 0) - c * a
            if any(diff.values()):
                raise NotAnAutomorphism(f"A[e{i + 1}, e{j + 1}] != [Ae{i + 1}, Ae{j + 1}]")
    for _, R in h.rows:
        image = {}
        for j, y in R.items():
            for i, a in cols[j]:
                image[i] = image.get(i, 0) + y * a
        if h.residual(image):
            raise GeneratorMovesH("generator does not preserve the isotropy subalgebra")


def jacobi_failures_all_ordered_pairs(L) -> tuple:
    """Jacobi failures by every ordered inner pair (a, b).

    The oracle of liecore._jacobi_failures, which visits each unordered pair once.
    """
    n = L.dim
    nz = L.nz
    outer = [[(t, nz[t][m]) for t in range(n) if nz[t][m]] for m in range(n)]
    sums = {}
    for a in range(n):
        for b in range(n):
            for m, cab in nz[a][b]:
                for t, terms in outer[m]:
                    if t < a < b or a < b < t or b < t < a:
                        acc = sums.setdefault(tuple(sorted((t, a, b))), {})
                        for l, ctm in terms:
                            acc[l] = acc.get(l, 0) + cab * ctm
    return tuple(sorted(key for key, acc in sums.items() if any(acc.values())))


def dense_wedge2_action(A: Mat) -> Mat:
    pairs = wedge2_space(A.rows)
    a = A.entries
    return Mat(
        [[a[i][k] * a[j][l] - a[i][l] * a[j][k] for (k, l) in pairs] for (i, j) in pairs],
        len(pairs),
    )


def dense_wedge2_derivation(B: Mat) -> Mat:
    pairs = wedge2_space(B.rows)
    b = B.entries

    def entry(i, j, k, l):
        v = QQ(0)
        if j == l:
            v += b[i][k]
        if i == k:
            v += b[j][l]
        if j == k:
            v -= b[i][l]
        if i == l:
            v -= b[j][k]
        return v

    return Mat([[entry(i, j, k, l) for (k, l) in pairs] for (i, j) in pairs], len(pairs))


def dense_invariant_bivectors(iso) -> Subspace:
    """Kernel of the stacked dense blocks, derivations then A^A - I, by kernel_oracle."""
    nwedge = len(wedge2_space(iso.quotient_dim))
    eye = Mat.identity(nwedge)
    rows = []
    for bar in dense_ad_bars(iso):
        rows += dense_wedge2_derivation(bar).entries
    for A in iso.discrete_generators:
        rows += (dense_wedge2_action(induced_map(iso, A)) - eye).entries
    return Subspace.from_vectors(nwedge, kernel_oracle(rows, nwedge))


# ---------------------------------------------------------------------------
# fixed subspaces of explicit operators, given as matrices: the general form
# of invariants.fixed_quotient_covectors, which reads the model's action


def fixed_vectors(ambient_dim, infinitesimal=(), discrete=()) -> Subspace:
    """Common kernel of the infinitesimal operators and A - id for each A, by kernel_oracle."""
    eye = Mat.identity(ambient_dim)
    rows = []
    for M in infinitesimal:
        rows += (M if isinstance(M, Mat) else Mat(M)).entries
    for A in discrete:
        rows += ((A if isinstance(A, Mat) else Mat(A)) - eye).entries
    return Subspace.from_vectors(ambient_dim, kernel_oracle(rows, ambient_dim))


def fixed_covectors(ambient_dim, infinitesimal=(), discrete=()) -> Subspace:
    """Fixed covectors: the same computation on the transposed operators."""
    return fixed_vectors(
        ambient_dim,
        [(M if isinstance(M, Mat) else Mat(M)).T for M in infinitesimal],
        [(A if isinstance(A, Mat) else Mat(A)).T for A in discrete],
    )


# ---------------------------------------------------------------------------
# the isotropy action by the per-pair loops the cached model properties
# replaced: one bracket per (h-basis, complement) or (complement, complement)
# pair, and one ad-bar per (h-basis, image) pair


def dense_ad_bars(iso) -> tuple:
    """Column j of ad-bar_u is q [u, e_j] for the j-th complement vector e_j."""
    e = Mat.identity(iso.L.dim).entries
    return tuple(
        Mat.from_cols([iso.q_matrix @ bracket(iso.L, u, e[j]) for j in iso.complement_indices])
        for u in iso.h_basis.basis
    )


def expanded_action(iso) -> tuple:
    """Each operator (X, d) of iso.action_moves as a Generator N / d: N = X on h, N = X + dI for a generator."""
    k, m = iso.h_basis.dim, iso.quotient_dim
    out = []
    for t, (X, d) in enumerate(iso.action_moves):
        cols = [dict(X.get(j, ())) for j in range(m)]
        for j, col in enumerate(cols if t >= k else ()):
            col[j] = col.get(j, 0) + d
        out.append(Generator(tuple(tuple((i, x) for i, x in col.items() if x) for col in cols), d))
    return tuple(out)


def dense_generator_maps(iso) -> tuple:
    """Column j of the induced map is q A e_j for the j-th complement vector e_j."""
    return tuple(
        Mat.from_cols([iso.q_matrix @ A.col(j) for j in iso.complement_indices])
        for A in iso.discrete_generators
    )


def dense_first_mover(iso, r):
    """Index of the first generator that moves r, in the order of the invariance blocks, or None.

    h-basis vector t moves r when B r + r B^T != 0 for B its ad-bar, and
    discrete generator t, index dim h + t, when A r A^T != r for A = q A s,
    on the sharp matrix of r.
    """
    R = r.r_mat
    for t, B in enumerate(dense_ad_bars(iso)):
        if not (B @ R + R @ B.T).is_zero():
            return t
    for t, A in enumerate(iso.discrete_generators):
        A = induced_map(iso, A)
        if A @ R @ A.T != R:
            return iso.h_basis.dim + t
    return None


def dense_is_reductive_complement(iso) -> bool:
    """[u, e_j] has no h-component for every h-basis u and complement e_j."""
    e = Mat.identity(iso.L.dim).entries
    for u in iso.h_basis.basis:
        for j in iso.complement_indices:
            w = bracket(iso.L, u, e[j])
            if tuple(w) != iso.s_matrix @ (iso.q_matrix @ w):
                return False
    return True


def dense_is_symmetric_complement(iso) -> bool:
    """[e_i, e_j] lies in h for every pair of complement vectors."""
    e = Mat.identity(iso.L.dim).entries
    return all(
        iso.h_basis.contains(bracket(iso.L, e[i], e[j]))
        for i in iso.complement_indices
        for j in iso.complement_indices
    )


def dense_leaf_reductive(r) -> bool:
    """Im r_# is stable under ad-bar_u, each ad-bar from dense_ad_bars."""
    return all(r.image.contains(bar @ v) for bar in dense_ad_bars(r.iso) for v in r.image.basis)


def dense_leaf_symmetric(r) -> bool:
    """[s x, s y] lies in h for every pair of Im r_# basis vectors, one g-bracket per pair."""
    iso = r.iso
    lifted = [iso.s_matrix @ w for w in r.image.basis]
    return all(iso.h_basis.contains(bracket(iso.L, x, y)) for x in lifted for y in lifted)


def is_restricted_r_matrix(r) -> bool:
    """Yang-Baxter condition restricted to triples from (h°)^H.

    Weaker than is_r_matrix in general; the two coincide for trivial
    isotropy and can differ when the fixed space is small.  A fixed
    covector f is q^T f = sum_a f_a eta_a in h°, and [[r,r]] is trilinear,
    so on fixed f, g, k it is sum v f_a g_b k_c over the nonzero entries of
    the cached tensor.  The tensor is totally antisymmetric, so triples of
    distinct basis covectors suffice.
    """
    entries = r.tensor.nonzero_entries()
    return not any(
        sum(v * f[a] * g[b] * k[c] for (a, b, c), v in entries if f[a] and g[b] and k[c])
        for f, g, k in combinations(fixed_quotient_covectors(r.iso).basis, 3)
    )


def restricted_r_matrix_oracle(r) -> bool:
    """[[r,r]] on (h°)^H, one h° bracket per pair of fixed covectors.

    Re-derives <eps, [eta, xi]_r^# - [eta^#, xi^#]> over the canonical
    lift for every ordered pair and every third fixed covector.
    """
    iso = r.iso
    lift = canonical_lift(r)
    etas = [covector_to_ann(iso, a) for a in fixed_quotient_covectors(iso).basis]
    xs = [sharp(lift, eta) for eta in etas]
    for a, eta in enumerate(etas):
        for b, xi in enumerate(etas):
            d = vsub(sharp(lift, hcirc_bracket(lift, eta, xi)), bracket(iso.L, xs[a], xs[b]))
            if any(dot(eps, d) for eps in etas):
                return False
    return True


def dense_yang_baxter_tensor(r) -> YBTensor:
    """[[r,r]] by the dense loop the tensor over the support of r_# replaced.

    R and d_r come from the Fraction matrix r_mat, every l-operator L[a] is
    built, C[a][b] = row a of L[b] minus row b of L[a] is laid out for every
    pair, and one defect per pair a < b is read at every c > b, the other
    orderings filled by sign.
    """
    iso = r.iso
    R, dr = int_vectors(r.r_mat.T.entries)
    n = len(R)
    L = [iso.m_ad_ints(col) for col in R]
    C = [[[x - y for x, y in zip(L[c][a], L[a][c])] for c in range(n)] for a in range(n)]
    den = dr * dr * iso.m_table[1]
    values = {}
    for a in range(n):
        for b in range(a + 1, n):
            for c in range(b + 1, n):
                v = sum(x * C[a][b][t] for t, x in R[c]) + sum(L[a][c][t] * y for t, y in R[b])
                if v:
                    v = QQ(-v, den)
                    values[a, b, c] = values[b, c, a] = values[c, a, b] = v
                    values[b, a, c] = values[a, c, b] = values[c, b, a] = -v
    return YBTensor(n, dict(sorted(values.items())))


def omega_solve_oracle(r) -> Mat:
    """omega_r(w_i, w_j) = <xi_j, w_i> with r_# xi_j = w_j, one solve per basis vector w_j.

    w is the RREF basis of the span of the columns of r_#, by span_oracle.
    """
    m = r.r_mat.rows
    w, _ = span_oracle([r.r_mat.col(j) for j in range(m)])
    xis = [solve(r.r_mat, y) for y in w]
    return Mat([[dot(xi, x) for xi in xis] for x in w], len(w))


# ---------------------------------------------------------------------------
# the leaf data by the Fraction-matrix route that foliation.leaf_cocycle took
# before the frame, omega_r and their checks read the integer tables of r


@dataclass(frozen=True)
class ReferenceLeafData:
    a_basis: Subspace
    omega: Mat
    frame: tuple
    frame_omega: Mat


def reference_omega(r) -> Mat:
    """Bivector.omega as it was: the Fraction inverse of r_#[P, P], P the pivots of Im r_#."""
    R, dr = r.r_sharp
    P = r.image.pivots
    cols = [dict(R[j]) for j in P]
    return inverse(Mat.from_ints([[col.get(i, 0) for col in cols] for i in P], dr))


def _reference_frame_constants(r, k, error) -> dict:
    """foliation._frame_constants as it was, on the Fraction view of r.image_brackets."""
    A, M = r.image_brackets
    view = lambda c: None if c is None else from_ints(*c)
    d = r.image.dim
    out = {}
    for a, b in wedge2_space(k + d):
        c = zero_vec(d) if b < k else view(A[a][b - k]) if a < k else view(M[a - k, b - k])
        if c is None:
            raise error
        out[a, b] = zero_vec(k) + c
    return out


def reference_leaf_cocycle(r) -> ReferenceLeafData:
    """foliation.leaf_cocycle as it was, with the omega_r and frame constants it read.

    The frame is h_basis.basis and the s_matrix lifts of the Fraction basis
    of Im r_#; the cocycle identity runs on Fraction constants through
    foliation._check_cocycle, the radical test is a kernel of the Fraction
    omega_r, a_r is eliminated from the frame again, and omega_r on it is
    P^T omega_r P by Mat products.  The new LeafData views must equal its
    fields, and it must raise what leaf_cocycle raises.
    """
    require_r_matrix(r)
    moved = _not_invariant(r)
    if moved:
        raise moved
    iso = r.iso
    im = r.image
    omega_r = reference_omega(r)
    k, d = iso.h_basis.dim, im.dim
    frame = iso.h_basis.basis + tuple(iso.s_matrix @ w for w in im.basis)
    frame_omega = Mat(
        [zero_vec(k + d)] * k + [zero_vec(k) + row for row in omega_r.entries], k + d
    )
    closure = ClosureFailure("a bracket leaves a_r, against the leaf-algebra theorem")
    C = _reference_frame_constants(r, k, closure)
    _check_cocycle(C, frame_omega, k + d, NotACocycle)
    if kernel(omega_r).dim:
        raise RadicalMismatch("Rad(omega_r) differs from the isotropy subalgebra")

    n = iso.L.dim
    a = Subspace.from_vectors(n, frame)
    P = Mat([iso.q_matrix[p] for p in im.pivots], n) @ Mat.from_cols(a.basis, n)
    return ReferenceLeafData(a_basis=a, omega=P.T @ omega_r @ P, frame=frame, frame_omega=frame_omega)


def omega_eval(a: Subspace, omega, x, y):
    """omega(x, y) for x, y in a, from their coordinates in the RREF basis of a."""
    cx = a.coords_of(x)
    cy = a.coords_of(y)
    return sum(cx[i] * cy[j] * omega[i][j] for i in range(a.dim) for j in range(a.dim))


def dense_is_cocycle(L, a: Subspace, omega) -> bool:
    """Skew omega whose cyclic sum vanishes on every basis triple of a, all d^3."""
    b = a.basis
    if not omega.is_skew():
        return False
    return all(
        omega_eval(a, omega, bracket(L, b[i], b[j]), b[k])
        + omega_eval(a, omega, bracket(L, b[j], b[k]), b[i])
        + omega_eval(a, omega, bracket(L, b[k], b[i]), b[j])
        == 0
        for i in range(a.dim)
        for j in range(a.dim)
        for k in range(a.dim)
    )


# ---------------------------------------------------------------------------
# per-pair connection formulas: every l-operator is rebuilt from the
# ad-matrix of its own sharp on each call, with plain Fraction sums, as the
# oracle for the per-bivector l-operator and [.,.]_r tables


def _plain_matmul(A, B):
    return [
        [sum((A[i][k] * B[k][j] for k in range(len(B))), QQ(0)) for j in range(len(B[0]))]
        for i in range(len(A))
    ]


def dense_l_operator(iso, r, alpha) -> Mat:
    """l_{alpha^#} = q ad(s r_# alpha) s from one ad-matrix of alpha's sharp."""
    n = iso.quotient_dim
    R = r.r_mat.entries
    s = iso.s_matrix.entries
    sharp = [sum((R[i][a] * QQ(alpha[a]) for a in range(n)), QQ(0)) for i in range(n)]
    x = [sum((s[k][i] * sharp[i] for i in range(n)), QQ(0)) for k in range(len(s))]
    return induced_map(iso, ad_matrix(iso.L, x))


def dense_l_operators(r) -> tuple:
    """q ad_matrix(s r_# eps_a) s for every basis covector eps_a: the Fraction route of L[a]."""
    basis = Mat.identity(r.iso.quotient_dim).entries
    return tuple(dense_l_operator(r.iso, r, eps) for eps in basis)


def _transpose_apply(M: Mat, v):
    return tuple(sum((M.entries[i][j] * QQ(v[i]) for i in range(M.rows)), QQ(0)) for j in range(M.cols))


def dense_mstar_bracket(iso, r, alpha, beta) -> tuple:
    """[alpha, beta]_r = l_beta^T alpha - l_alpha^T beta."""
    lb = _transpose_apply(dense_l_operator(iso, r, beta), alpha)
    la = _transpose_apply(dense_l_operator(iso, r, alpha), beta)
    return tuple(x - y for x, y in zip(lb, la))


def reductive_r_matrix_oracle(iso, r) -> bool:
    """r_# [eps_a, eps_b]_r = [r_# eps_a, r_# eps_b]_m on every basis pair a < b.

    The r-bracket comes from dense_mstar_bracket and the m-bracket
    q[s x, s y] from the dense structure-constant table, with plain Fraction
    sums, as the oracle for the tensor read off the bracket table.
    """
    n = iso.quotient_dim
    R = r.r_mat.entries
    s = iso.s_matrix.entries
    q = iso.q_matrix.entries
    c = dense_table(iso.L)
    g = iso.L.dim

    def apply(M, v):
        return [sum((M[i][k] * QQ(v[k]) for k in range(len(v))), QQ(0)) for i in range(len(M))]

    def m_bracket(x, y):
        sx, sy = apply(s, x), apply(s, y)
        z = [
            sum((sx[i] * sy[j] * c[i][j][k] for i in range(g) for j in range(g)), QQ(0))
            for k in range(g)
        ]
        return apply(q, z)

    eps = [tuple(QQ(i == j) for j in range(n)) for i in range(n)]
    sharps = [apply(R, e) for e in eps]
    return all(
        apply(R, dense_mstar_bracket(iso, r, eps[a], eps[b])) == m_bracket(sharps[a], sharps[b])
        for a in range(n)
        for b in range(a + 1, n)
    )


def dense_connection(kind, iso, r) -> tuple:
    """b[a][c] of the four builders, each entry from its own rule."""
    n = iso.quotient_dim
    eps = [tuple(QQ(i == j) for j in range(n)) for i in range(n)]

    def rule(a, c):
        if kind == "canonical":
            return (QQ(0),) * n
        br = dense_mstar_bracket(iso, r, eps[a], eps[c])
        lc = _transpose_apply(dense_l_operator(iso, r, eps[a]), eps[c])
        if kind == "natural":
            return tuple(QQ(1, 2) * x for x in br)
        if kind == "left_symmetric":
            return tuple(-x for x in lc)
        return tuple(QQ(1, 3) * (x - y) for x, y in zip(br, lc))

    return tuple(tuple(rule(a, c) for c in range(n)) for a in range(n))


def dense_apply(b, alpha, beta) -> tuple:
    """b(alpha, beta) = sum_{a,c} alpha_a beta_c b[a][c]."""
    n = len(b)
    terms = [
        (QQ(alpha[a]) * QQ(beta[c]), b[a][c])
        for a in range(n)
        for c in range(n)
        if alpha[a] and beta[c]
    ]
    return tuple(sum((x * v[k] for x, v in terms), QQ(0)) for k in range(n))


def dense_torsion(iso, r, b, eta, xi) -> tuple:
    br = dense_mstar_bracket(iso, r, eta, xi)
    return tuple(
        x - y - z for x, y, z in zip(dense_apply(b, eta, xi), dense_apply(b, xi, eta), br)
    )


def dense_curvature(iso, r, b, eta, xi) -> Mat:
    """[M_eta, M_xi] - M_{[eta,xi]_r} with M_eta gamma = b(eta, gamma)."""
    n = len(b)
    eps = [tuple(QQ(i == j) for j in range(n)) for i in range(n)]

    def m(v):
        cols = [dense_apply(b, v, eps[c]) for c in range(n)]
        return [[cols[j][i] for j in range(n)] for i in range(n)]

    me, mx, mb = m(eta), m(xi), m(dense_mstar_bracket(iso, r, eta, xi))
    ex, xe = _plain_matmul(me, mx), _plain_matmul(mx, me)
    return Mat([[ex[i][j] - xe[i][j] - mb[i][j] for j in range(n)] for i in range(n)], n)


def dense_poisson_compat_failures(r, b) -> tuple:
    """The n^3 loop: r(b(eps_a, eps_c), eps_d) + r(eps_c, b(eps_a, eps_d)) != 0."""
    n = len(b)
    eps = [tuple(QQ(i == j) for j in range(n)) for i in range(n)]
    R = r.r_mat.entries

    def sharp(v):
        return [sum((R[i][k] * v[k] for k in range(n)), QQ(0)) for i in range(n)]

    sharps = [sharp(e) for e in eps]
    bad = []
    for a in range(n):
        for c in range(n):
            lead = sharp(dense_apply(b, eps[a], eps[c]))
            for d in range(n):
                other = dense_apply(b, eps[a], eps[d])
                val = lead[d] + sum((x * y for x, y in zip(other, sharps[c])), QQ(0))
                if val != 0:
                    bad.append(((a, c, d), val))
    return tuple(bad)


# ---------------------------------------------------------------------------
# the readers of a job's input as they were: the whole argv through the top
# parser, the --r grammar in Fractions, and the invariance test by rows


def reference_run_cli(argv, stdin_text=None):
    """cli.run_cli as it was: every argv goes through the top parser's parse_args."""
    parser = cli._build_parser()
    cap_out = io.StringIO()
    cap_err = io.StringIO()
    try:
        with redirect_stdout(cap_out), redirect_stderr(cap_err):
            args = parser.parse_args(argv)
    except cli._Usage as e:
        return 2, cap_out.getvalue(), cap_err.getvalue() + str(e) + "\n"
    except SystemExit as e:  # --help lands here
        return int(e.code or 0), cap_out.getvalue(), cap_err.getvalue()
    try:
        code, out = args.handler(args, stdin_text)
        return code, out, ""
    except DocumentError as e:
        return 2, "", f"parse error: {e}\n"
    except LiepsError as e:
        return 1, "", f"error: {e}\n"


class _ReferenceExprError(Exception):
    pass


_REFERENCE_TOKEN = re.compile(r"(?P<num>\d+(?:/\d*)?)|(?P<label>\w+)|(?P<op>[-+*^()])|(?P<bad>\S)")


def _reference_tokenize(text):
    tokens = []
    for m in _REFERENCE_TOKEN.finditer(text):
        kind, tok = m.lastgroup, m.group()
        if kind == "num":
            num, slash, den = tok.partition("/")
            if slash and not den:
                raise _ReferenceExprError(f"bad rational near {text[m.start():]!r}")
            if slash and int(den) == 0:
                raise _ReferenceExprError(f"zero denominator in {tok!r}")
            tokens.append(("num", QQ(int(num), int(den or 1))))
        elif kind == "label" and catalog.is_label(tok):
            tokens.append(("label", tok))
        elif kind == "op":
            tokens.append((tok, tok))
        else:
            raise _ReferenceExprError(f"unexpected character {tok[0]!r}")
    tokens.append(("end", None))
    return tokens


class _ReferenceExprParser:
    """The recursive-descent --r parser as it was, on Fraction coordinates."""

    def __init__(self, text, labels):
        self.tokens = _reference_tokenize(text)
        self.pos = 0
        self.labels = {lab: t for t, lab in enumerate(labels)}

    def peek(self):
        return self.tokens[self.pos][0]

    def take(self, kind=None):
        tk, val = self.tokens[self.pos]
        if kind is not None and tk != kind:
            raise _ReferenceExprError(f"expected {kind}, found {tk}")
        self.pos += 1
        return val

    def terms(self, term):
        out = []
        while True:
            sign = -1 if self.peek() == "-" else 1
            if self.peek() in ("+", "-"):
                self.take()
            coeff = QQ(1)
            if self.peek() == "num":
                coeff = self.take()
                if self.peek() == "*":
                    self.take()
            out.append((sign * coeff, term()))
            if self.peek() not in ("+", "-"):
                return out

    def vector(self):
        tk = self.peek()
        if tk == "label":
            lab = self.take()
            if lab not in self.labels:
                raise _ReferenceExprError(
                    f"unknown label {lab!r}; expected one of {sorted(self.labels)}"
                )
            return {self.labels[lab]: QQ(1)}
        if tk == "(":
            self.take("(")
            v = {}
            for c, part in self.terms(self.vector):
                for t, x in part.items():
                    v[t] = v.get(t, 0) + c * x
            self.take(")")
            return v
        raise _ReferenceExprError("expected a basis label or a parenthesized combination")

    def wedge(self):
        u = self.vector()
        self.take("^")
        return u, self.vector()

    def bivector(self):
        pairs = wedge2_space(len(self.labels))
        index = {p: t for t, p in enumerate(pairs)}
        coords = [QQ(0)] * len(pairs)
        if [tk for tk, _ in self.tokens] == ["num", "end"] and self.tokens[0][1] == 0:
            return tuple(coords)
        if self.peek() == "end":
            raise _ReferenceExprError("empty bivector expression")
        for c, (u, v) in self.terms(self.wedge):
            for i, x in u.items():
                for j, y in v.items():
                    if i < j:
                        coords[index[(i, j)]] += c * x * y
                    elif i > j:
                        coords[index[(j, i)]] -= c * x * y
        if self.peek() != "end":
            raise _ReferenceExprError("expected + or - between terms")
        return tuple(coords)


def reference_parse_bivector_expr(text, labels, option="--r") -> tuple:
    """cli.parse_bivector_expr as it was: Fraction coordinates, every word checked by catalog.is_label."""
    try:
        return _ReferenceExprParser(text or "", labels).bivector()
    except _ReferenceExprError as e:
        raise DocumentError(option, str(e)) from None
