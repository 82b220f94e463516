import random
from itertools import combinations, islice
from fractions import Fraction as QQ
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import (
    ALL_FAMILIES,
    _transport_algebra,
    catalog_instances,
    check_automorphism_all_pairs,
    count_calls,
    catalog_r_matrices,
    dense_ad_bars,
    dense_generator_maps,
    dense_is_automorphism,
    dense_is_reductive_complement,
    dense_is_symmetric_complement,
    dense_leaf_reductive,
    dense_table,
    dense_validate,
    dense_wedge2_action,
    dense_wedge2_derivation,
    expanded_action,
    gauss_jordan_oracle,
    greedy_complement_scan,
    instance,
    jacobi_failures_all_ordered_pairs,
    nz_of_table,
    random_generator_instance,
    random_instances,
    span_coords_oracle,
    span_oracle,
)
from lieps import catalog, exact
from lieps.errors import (
    GeneratorMovesH,
    NotAnAutomorphism,
    NotASubalgebra,
    NotInH,
    NotReductive,
)
from lieps.exact import Mat, Subspace, inverse, kernel_of_rows, mat_lincomb, zero_vec
from lieps.foliation import leaf_decomposition
from lieps.invariants import invariance_block, invariance_rows, wedge2_image
from lieps.liecore import (
    Generator,
    LieAlgebra,
    _check_automorphism,
    _check_subalgebra,
    _jacobi_failures,
    ad_matrix,
    bracket,
    covector_to_ann,
    ann_to_covector,
    complement_projection,
    induced_ad_bar,
    induced_map,
    make_isotropy,
    moved_part,
    make_lie_algebra,
    require_reductive,
    validate,
    wedge2_space,
)
from lieps.ybe import is_r_matrix, make_bivector


def V(*xs):
    return tuple(QQ(x) for x in xs)


# ---------------------------------------------------------------------------
# construction and validation


def test_make_lie_algebra_defaults_and_completion():
    L = make_lie_algebra(3, {(0, 1): {2: QQ(1)}})
    assert L.labels == ("e1", "e2", "e3")
    c = dense_table(L)
    assert c[0][1][2] == 1
    assert c[1][0][2] == -1
    assert all(x == 0 for x in c[2][2])


def test_make_lie_algebra_rejects_bad_keys():
    with pytest.raises(ValueError):
        make_lie_algebra(2, {(1, 0): {0: QQ(1)}})
    with pytest.raises(ValueError):
        make_lie_algebra(2, {(0, 2): {0: QQ(1)}})
    with pytest.raises(ValueError):
        make_lie_algebra(2, {(0, 1): {5: QQ(1)}})


def test_bracket_and_ad_matrix_heisenberg():
    L, _ = instance("heisenberg", {"n": 1})
    u, v, w = Mat.identity(3).entries
    assert bracket(L, u, v) == w
    assert bracket(L, v, u) == tuple(-x for x in w)
    assert bracket(L, u, w) == V(0, 0, 0)
    ad_u = ad_matrix(L, u)
    assert ad_u @ v == w
    assert ad_u @ u == V(0, 0, 0)


def test_validate_ok_on_catalog():
    for name, params in [
        ("heisenberg", {"n": 2}),
        ("iso11", None),
        ("gl_sym", {"n": 3}),
        ("so4_grassmann", None),
        ("double", {"of": "heisenberg", "n": 1}),
    ]:
        L, _ = instance(name, params)
        report = validate(L)
        assert report.ok, (name, report)


def test_validate_reports_jacobi_failure():
    L = make_lie_algebra(3, {(0, 1): {0: QQ(1)}, (0, 2): {2: QQ(1)}})
    report = validate(L)
    assert not report.ok
    assert (0, 1, 2) in report.jacobi_failures
    assert report.antisymmetry_failures == ()


def test_validate_reports_antisymmetry_failure():
    # built by hand: c[0][1] = c[1][0] = e1, skew fails at the pair (0, 1)
    c = ((V(0, 0), V(1, 0)), (V(1, 0), V(0, 0)))
    L = LieAlgebra(2, ("a", "b"), *nz_of_table(c))
    report = validate(L)
    assert not report.ok
    assert (0, 1) in report.antisymmetry_failures


# ---------------------------------------------------------------------------
# isotropy models


def test_isotropy_projection_section_identities():
    for name, params in [("gl_sym", {"n": 2}), ("so4_grassmann", None)]:
        L, iso = instance(name, params)
        n, k = L.dim, iso.h_basis.dim
        assert iso.quotient_dim == n - k
        # q(s(x)) = x and q kills h
        assert iso.q_matrix @ iso.s_matrix == Mat.identity(n - k)
        for u in iso.h_basis.basis:
            assert all(x == 0 for x in iso.q_matrix @ u)


def test_covector_identifications_roundtrip():
    L, iso = instance("gl_sym", {"n": 2})
    m = iso.quotient_dim
    for a in range(m):
        alpha = tuple(QQ(1) if t == a else QQ(0) for t in range(m))
        eta = covector_to_ann(iso, alpha)
        # annihilates h
        for u in iso.h_basis.basis:
            assert sum(x * y for x, y in zip(eta, u)) == 0
        assert ann_to_covector(iso, eta) == alpha


def test_greedy_complement_skips_dependent_columns():
    L = make_lie_algebra(3, {})
    iso = make_isotropy(L, [V(1, 1, 0)])
    # e0 lies outside h, e1 inside h + span(e0), e2 outside h + span(e0, e1)
    assert complement_projection(iso.h_basis)[0] == iso.complement_indices == (0, 2)
    assert iso.q_matrix @ iso.s_matrix == Mat.identity(2)


def test_not_a_subalgebra_witness():
    L, _ = instance("heisenberg", {"n": 1})
    with pytest.raises(NotASubalgebra) as info:
        make_isotropy(L, [V(1, 0, 0), V(0, 1, 0)])
    assert info.value.witness == (V(1, 0, 0), V(0, 1, 0), V(0, 0, 1))


def test_check_subalgebra_raises_exactly_when_a_dense_bracket_leaves_h():
    # each model's h, and h with one basis vector moved by a standard vector
    rng = random.Random(19)
    checked = {True: 0, False: 0}
    for _, L, iso, _ in random_instances(seed=19, count=16):
        basis = list(iso.h_basis.basis)
        spaces = [basis]
        for t in range(len(basis)):
            moved = list(basis[t])
            moved[rng.randrange(L.dim)] += rng.choice([-1, 1, QQ(1, 3)])
            spaces.append(basis[:t] + [tuple(moved)] + basis[t + 1:])
        for vectors in spaces:
            b, pivots = span_oracle(vectors)
            leaves = any(
                span_coords_oracle(b, pivots, bracket(L, x, y)) is None
                for x, y in combinations(b, 2)
            )
            try:
                _check_subalgebra(L, Subspace.from_vectors(L.dim, vectors))
                raised = False
            except NotASubalgebra:
                raised = True
            assert raised == leaves
            checked[raised] += 1
    assert checked[True] and checked[False]


def test_generator_must_be_automorphism():
    L, _ = instance("heisenberg", {"n": 1})
    bad = Mat(((QQ(1), QQ(0), QQ(0)), (QQ(0), QQ(1), QQ(0)), (QQ(0), QQ(0), QQ(2))))
    with pytest.raises(NotAnAutomorphism):
        make_isotropy(L, [], discrete_generators=[bad])


def test_generator_must_preserve_h():
    L = make_lie_algebra(2, {})
    swap = Mat(((QQ(0), QQ(1)), (QQ(1), QQ(0))))
    with pytest.raises(GeneratorMovesH):
        make_isotropy(L, [V(1, 0)], discrete_generators=[swap])


def test_induced_ad_bar_requires_h_member():
    L, iso = instance("gl_sym", {"n": 2})
    with pytest.raises(NotInH):
        induced_ad_bar(iso, V(1, 0, 0, 0))


def test_induced_ad_bar_matches_direct_computation():
    L, iso = instance("gl_sym", {"n": 2})
    for u in iso.h_basis.basis:
        expected = iso.q_matrix @ ad_matrix(L, u) @ iso.s_matrix
        assert induced_ad_bar(iso, u) == expected


def test_reductive_complement_flags():
    _, iso_gl = instance("gl_sym", {"n": 2})
    assert iso_gl.reductive
    L, _ = instance("iso11")
    iso_bad = make_isotropy(L, [V(1, 0, 0)])
    assert iso_bad.complement_indices == (1, 2)
    assert not iso_bad.reductive


# ---------------------------------------------------------------------------
# the isotropy action kept on the model, against the per-pair loops


def _isotropy_models():
    """Catalog models, transported random ones and the non-reductive iso(1,1)."""
    out = [(tag, iso, []) for tag, _, iso in catalog_instances()]
    for tag, _, iso, r in catalog_r_matrices():
        out.append((tag, iso, [r]))
    for tag, _, iso, coords in random_instances(seed=11, count=12):
        r = make_bivector(iso, coords)
        out.append((tag, iso, [r] if is_r_matrix(r) else []))
    L, _ = instance("iso11")
    out.append(("iso11-h=e1", make_isotropy(L, [V(1, 0, 0)]), []))
    # heisenberg n=2 over h = span{u1 + u2}, m = span{u1, v1, v2, w}: the
    # r-matrix u1^v2 is not invariant and its image is not h-stable
    L = make_lie_algebra(5, {(0, 2): {4: 1}, (1, 3): {4: 1}}, ("u1", "u2", "v1", "v2", "w"))
    iso = make_isotropy(L, [V(1, 1, 0, 0, 0)])
    rs = [make_bivector(iso, V(*(int(t == k) for t in range(6)))) for k in (1, 2)]
    out.append(("heisenberg-2-h=u1+u2", iso, rs))
    return out


def test_cached_isotropy_action_matches_per_pair_loops():
    reductive_seen = set()
    flags_seen = set()
    leaf_reductive_seen = set()
    for tag, iso, rs in _isotropy_models():
        k = iso.h_basis.dim
        ops = tuple(op.mat for op in expanded_action(iso))
        assert ops[:k] == dense_ad_bars(iso), tag
        assert ops[k:] == dense_generator_maps(iso), tag
        assert iso.reductive == dense_is_reductive_complement(iso), tag
        reductive_seen.add(iso.reductive)
        # [m, m] in h off the m-bracket table, on non-reductive models too
        assert iso.symmetric == dense_is_symmetric_complement(iso), tag
        flags_seen.add((iso.reductive, iso.symmetric))
        if not iso.reductive:
            with pytest.raises(NotReductive):
                require_reductive(iso)
        for r in rs:
            flag = leaf_decomposition(r).reductive
            assert flag == dense_leaf_reductive(r), tag
            leaf_reductive_seen.add(flag)
    assert reductive_seen == leaf_reductive_seen == {True, False}
    assert flags_seen == {(True, True), (True, False), (False, True), (False, False)}


def test_heisenberg_generators_are_nilpotent_exponentials():
    # each declared generator is Ad(exp x) = I + ad_x for a lattice direction
    for n in (1, 2):
        L, iso = instance("heisenberg", {"n": n})
        cands = []
        for k in list(range(2 * n)) + [2 * n]:
            x = tuple(QQ(1) if t == k else QQ(0) for t in range(L.dim))
            A = ad_matrix(L, x)
            assert (A @ A).is_zero()
            cands.append(Mat.identity(L.dim) + A)
        for g in iso.discrete_generators:
            assert any(g == c for c in cands)


# ---------------------------------------------------------------------------
# complement changes: transition maps between two models of the same quotient


def _two_complement_models():
    # heisenberg(1) + a 1-dim center, h spanned by w + z; both complements valid
    L = make_lie_algebra(4, {(0, 1): {2: QQ(1)}}, labels=("u", "v", "w", "z"))
    h = [V(0, 0, 1, 1)]
    iso_a = make_isotropy(L, h, complement_indices=(0, 1, 2))
    iso_b = make_isotropy(L, h, complement_indices=(0, 1, 3))
    return L, iso_a, iso_b


def test_complement_transition_is_invertible():
    L, iso_a, iso_b = _two_complement_models()
    C = iso_b.q_matrix @ iso_a.s_matrix
    Cinv = iso_a.q_matrix @ iso_b.s_matrix
    assert C @ Cinv == Mat.identity(3)
    assert Cinv @ C == Mat.identity(3)


def test_induced_map_conjugates_under_complement_change():
    L, iso_a, iso_b = _two_complement_models()
    C = iso_b.q_matrix @ iso_a.s_matrix
    Cinv = iso_a.q_matrix @ iso_b.s_matrix
    # Ad(exp u) = I + ad_u preserves h (w + z is central)
    A = Mat.identity(4) + ad_matrix(L, V(1, 0, 0, 0))
    assert induced_map(iso_b, A) == C @ induced_map(iso_a, A) @ Cinv


# ---------------------------------------------------------------------------
# wedge-square functor


def test_wedge2_space_is_lexicographic():
    assert wedge2_space(4) == ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


small_entries = st.fractions(min_value=-3, max_value=3, max_denominator=2)


def _square(n):
    return st.lists(
        st.lists(small_entries, min_size=n, max_size=n), min_size=n, max_size=n
    ).map(lambda rows: Mat(tuple(tuple(r) for r in rows)))


def _wedge2_by_rule(A: Mat, derivation: bool) -> Mat:
    """The action of the square A on the wedge square as a Mat, column (i, j) the rule's image of e_i ^ e_j.

    wedge2_image reads A = N / d through its moved part, the columns of N or of E = N - dI (moved_part);
    its image is d times that of the derivation, or d^2 times that of A^A - I.
    """
    cols, d = Generator.of_matrix(A)
    X = dict(enumerate(cols)) if derivation else moved_part(Generator(cols, d))
    pairs = wedge2_space(A.rows)
    images = wedge2_image(X, d, derivation, A.rows, [((i, j, 1),) for i, j in pairs])
    M = Mat.from_ints([[image.get(t, 0) for image in images] for t in range(len(pairs))], d if derivation else d**2)
    return M if derivation else M + Mat.identity(len(pairs))


@given(_square(3), _square(3))
def test_wedge2_action_is_functorial(A, B):
    assert _wedge2_by_rule(A @ B, False) == dense_wedge2_action(A) @ dense_wedge2_action(B)


def test_wedge2_action_identity():
    # the identity moves no column: every image is zero, and its invariance block is empty
    assert _wedge2_by_rule(Mat.identity(4), False) == Mat.identity(6)
    assert invariance_block(moved_part(Generator.of_matrix(Mat.identity(4))), 1, False, 4) == ()


@given(_square(3))
def test_wedge2_derivation_is_linearization(B):
    # the action of I + tB is quadratic in t; its odd part isolates the
    # derivation exactly
    eye = Mat.identity(3)
    plus = dense_wedge2_action(eye + B)
    minus = dense_wedge2_action(eye - B)
    assert _wedge2_by_rule(B, True) == (plus - minus).scale(QQ(1, 2))


# mostly zero, sometimes sparse-but-larger squares: the rule reads only
# nonzeros, so the zero pattern is what needs exercising
sparse_entries = st.one_of(st.just(QQ(0)), st.just(QQ(0)), small_entries)


def _sparse_square(n):
    return st.lists(
        st.lists(sparse_entries, min_size=n, max_size=n), min_size=n, max_size=n
    ).map(lambda rows: Mat(tuple(tuple(r) for r in rows)))


def _sparse_square_and_terms(n):
    """A sparse n x n square and a few terms ((i, j), c) of a sparse combination of the wedge basis."""
    pairs = wedge2_space(n)
    terms = st.lists(st.tuples(st.sampled_from(pairs), st.integers(-3, 3)), max_size=4) if pairs else st.just([])
    return st.tuples(_sparse_square(n), terms)


@given(st.integers(0, 5).flatmap(_sparse_square_and_terms))
# d = 2 with N_00 = 3 != d, a moved off-diagonal entry and an unmoved column; the identity
@example((Mat([[QQ(3, 2), QQ(1, 2), 0], [0, 1, 0], [0, 0, 1]]), [((0, 1), 1), ((0, 2), -2), ((1, 2), 3)]))
@example((Mat.identity(4), [((0, 1), 2), ((2, 3), -1)]))
def test_sparse_wedge2_blocks_match_dense_formulas(case):
    A, terms = case
    assert _wedge2_by_rule(A, False) == dense_wedge2_action(A)
    assert _wedge2_by_rule(A, True) == dense_wedge2_derivation(A)
    # the image of sum c e_i ^ e_j is the dense block applied to its coordinates
    cols, d = Generator.of_matrix(A)
    moves = {True: dict(enumerate(cols)), False: moved_part(Generator(cols, d))}
    pairs = wedge2_space(A.rows)
    x = [sum(c for p, c in terms if p == pair) for pair in pairs]
    blocks = (
        (True, dense_wedge2_derivation(A), d),
        (False, dense_wedge2_action(A) - Mat.identity(len(pairs)), d**2),
    )
    for derivation, dense, scale in blocks:
        (image,) = wedge2_image(moves[derivation], d, derivation, A.rows, [[(i, j, c) for (i, j), c in terms]])
        assert image == {t: scale * y for t, y in enumerate(dense @ x) if y}


# ---------------------------------------------------------------------------
# the sparse structure table against the dense triple loops, on tables that
# need not be antisymmetric or satisfy Jacobi


@st.composite
def raw_tables(draw):
    rng = draw(st.randoms(use_true_random=False))
    n = rng.randint(1, 5)
    density = rng.choice([0.1, 0.3, 0.6])

    def entry():
        return QQ(rng.randint(-3, 3), rng.randint(1, 2)) if rng.random() < density else QQ(0)

    if rng.random() < 0.5:
        # an arbitrary table, built directly: antisymmetry usually fails too
        c = tuple(
            tuple(tuple(entry() for _ in range(n)) for _ in range(n)) for _ in range(n)
        )
        return LieAlgebra(n, tuple(f"e{i + 1}" for i in range(n)), *nz_of_table(c))
    brackets = {}
    for i in range(n):
        for j in range(i + 1, n):
            coeffs = {k: entry() for k in range(n)}
            brackets[(i, j)] = {k: v for k, v in coeffs.items() if v}
    return make_lie_algebra(n, brackets)


@settings(max_examples=100, deadline=None)
@given(raw_tables())
def test_sparse_validate_matches_dense_triple_loop(L):
    anti, jac = dense_validate(L)
    rep = validate(L)
    assert rep.antisymmetry_failures == anti
    assert rep.jacobi_failures == jac
    assert rep.ok == (not anti and not jac)


@settings(max_examples=60, deadline=None)
@given(raw_tables(), st.randoms(use_true_random=False))
def test_sparse_bracket_and_ad_matrix_read_c(L, rng):
    n = L.dim
    c = dense_table(L)
    x = tuple(QQ(rng.randint(-2, 2)) for _ in range(n))
    y = tuple(QQ(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(n))
    dense = tuple(
        sum((x[i] * y[j] * c[i][j][k] for i in range(n) for j in range(n)), QQ(0))
        for k in range(n)
    )
    assert bracket(L, x, y) == dense
    assert ad_matrix(L, x) @ y == dense


def test_validate_reports_failures_of_a_raw_table():
    # c[0][1] = e3 with c[1][0] = 0: one antisymmetry failure, no triple
    zero = (QQ(0),) * 3
    c = [[list(zero) for _ in range(3)] for _ in range(3)]
    c[0][1][2] = QQ(1)
    L = LieAlgebra(3, ("a", "b", "c"), *nz_of_table(c))
    rep = validate(L)
    assert rep.antisymmetry_failures == ((0, 1),)
    assert rep.jacobi_failures == ()
    # the sparse table keeps c as given, not an antisymmetric completion
    assert L.nz[0][1] == ((2, 1),) and L.nz[1][0] == () and L.den == 1


@st.composite
def bracket_maps(draw):
    """Sparse brackets on pairs i < j, zero coefficients and empty maps included."""
    rng = draw(st.randoms(use_true_random=False))
    n = rng.randint(1, 6)
    brackets = {}
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.6:
                ks = rng.sample(range(n), rng.randint(0, n))
                brackets[(i, j)] = {k: QQ(rng.randint(-3, 3), rng.randint(1, 3)) for k in ks}
    return n, brackets


@settings(max_examples=150, deadline=None)
@given(bracket_maps())
def test_make_lie_algebra_matches_dense_then_derive(case):
    # the dense table completed antisymmetrically, then read entry by entry
    n, brackets = case
    c = [[[QQ(0)] * n for _ in range(n)] for _ in range(n)]
    for (i, j), coeffs in brackets.items():
        for k, v in coeffs.items():
            c[i][j][k] = v
            c[j][i][k] = -v
    L = make_lie_algebra(n, brackets)
    assert (L.nz, L.den) == nz_of_table(c)


def test_equal_brackets_give_equal_algebras():
    # den is the lcm of the coefficient denominators, whatever form they came in
    a = make_lie_algebra(3, {(0, 1): {2: QQ(1, 2)}, (0, 2): {1: QQ(-2, 3)}})
    b = make_lie_algebra(3, {(0, 2): {1: "-4/6"}, (0, 1): {2: QQ(3, 6), 0: 0}})
    assert a == b
    assert a.den == 6
    assert a.nz[0][1] == ((2, 3),) and a.nz[1][0] == ((2, -3),)
    assert a.nz[0][2] == ((1, -4),) and a.nz[2][0] == ((1, 4),)
    c = make_lie_algebra(2, {(0, 1): {0: 1}})
    assert c == make_lie_algebra(2, {(0, 1): {0: QQ(1)}}) and c.den == 1


@pytest.mark.parametrize(
    "nz, den",
    [
        ((((), ((1, QQ(1)),)), ((), ())), 1),  # a Fraction coefficient
        ((((), ((1, 1.0),)), ((), ())), 1),
        ((((), ((1, True),)), ((), ())), 1),
        ((((), ((1, 1),)), ((), ())), 0),
        ((((), ((1, 1),)), ((), ())), -2),
        ((((), ((1, 1),)), ((), ())), QQ(2)),
    ],
)
def test_direct_table_needs_ints_over_a_positive_int_den(nz, den):
    with pytest.raises(ValueError):
        LieAlgebra(2, ("a", "b"), nz, den)


# families whose derived algebra acts nilpotently, so exp(ad_x) for x in
def _check_generator(L, A: Mat, h):
    """_check_automorphism on the integer form of the Fraction matrix A."""
    _check_automorphism(L, Generator.of_matrix(A), h)


# [g, g] is a finite sum: a rational automorphism of the transported algebra
_SOLVABLE = sorted(name for name in ALL_FAMILIES if "sl2" not in name and "so3" not in name)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**20))
def test_induced_ad_bar_is_q_ad_s_on_transported_quotients(seed):
    _, L, iso, _ = next(random_instances(seed, 1))
    for u in iso.h_basis.basis:
        assert induced_ad_bar(iso, u) == iso.q_matrix @ ad_matrix(L, u) @ iso.s_matrix


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**20))
def test_check_automorphism_matches_dense_on_rational_generators(seed):
    # a solvable family pushed through a random rational change of basis
    rng = random.Random(seed)
    dim, brackets, _ = ALL_FAMILIES[rng.choice(_SOLVABLE)]
    L, _, _ = _transport_algebra(rng, dim, brackets)
    n = L.dim
    e = Mat.identity(n).entries
    x = [QQ(0)] * n
    for _ in range(2):
        i, j = rng.randrange(n), rng.randrange(n)
        c = QQ(rng.randint(-3, 3), rng.randint(1, 3))
        x = [a + c * b for a, b in zip(x, bracket(L, e[i], e[j]))]
    M = ad_matrix(L, x)
    A, term = Mat.identity(n), Mat.identity(n)
    for k in range(1, n + 1):
        term = (term @ M).scale(QQ(1, k))
        A = A + term
    assert term.is_zero()
    if rng.random() < 0.6:
        rows = [list(row) for row in A.entries]
        rows[rng.randrange(n)][rng.randrange(n)] += QQ(rng.choice([-2, -1, 1, 2]), rng.randint(1, 3))
        A = Mat(rows)
    try:
        inverse(A)
    except ValueError:
        with pytest.raises(NotAnAutomorphism, match="singular"):
            _check_generator(L, A, Subspace.zero(n))
        return
    if dense_is_automorphism(L, A):
        _check_generator(L, A, Subspace.zero(n))
    else:
        with pytest.raises(NotAnAutomorphism):
            _check_generator(L, A, Subspace.zero(n))


GENERATOR_ALGEBRAS = [
    instance(name, params)
    for name, params in [
        ("heisenberg", {"n": 1}),
        ("heisenberg", {"n": 2}),
        ("heisenberg", {"n": 3}),
        ("iso11", None),
    ]
]


@st.composite
def generator_candidates(draw):
    """(L, A): a product of catalog generators of L, perhaps with one entry moved."""
    rng = draw(st.randoms(use_true_random=False))
    L, iso = rng.choice(GENERATOR_ALGEBRAS)
    A = Mat.identity(L.dim)
    for _ in range(rng.randint(1, 3)):
        A = A @ rng.choice(iso.discrete_generators)
    if rng.random() < 0.7:
        rows = [list(row) for row in A.entries]
        p, q = rng.randrange(L.dim), rng.randrange(L.dim)
        rows[p][q] += QQ(rng.choice([-2, -1, 1, 2]), rng.randint(1, 3))
        A = Mat(rows)
    return L, A


@settings(max_examples=150, deadline=None)
@given(generator_candidates())
def test_check_automorphism_matches_dense_triple_loop(case):
    L, A = case
    try:
        inverse(A)
    except ValueError:
        with pytest.raises(NotAnAutomorphism, match="singular"):
            _check_generator(L, A, Subspace.zero(L.dim))
        return
    if dense_is_automorphism(L, A):
        _check_generator(L, A, Subspace.zero(L.dim))
    else:
        with pytest.raises(NotAnAutomorphism):
            _check_generator(L, A, Subspace.zero(L.dim))


@st.composite
def moved_generators(draw):
    """(L, h, A): a model of random_generator_instance and a generator A = I + E on its algebra.

    E moves no column (the identity), is a product of the model's own
    generators, perhaps with one entry moved, moves one or several columns
    at random, or makes the block of the moved columns singular.
    """
    rng = draw(st.randoms(use_true_random=False))
    _, L, iso, _ = random_generator_instance(rng.randrange(2**20))
    n = L.dim
    kind = rng.choice(("identity", "model", "one", "several", "singular"))
    A = Mat.identity(n)
    if kind == "model":
        for _ in range(rng.randint(1, 2)):
            A = A @ rng.choice(iso.discrete_generators)
    rows = [list(row) for row in A.entries]
    count = {"identity": 0, "model": rng.randint(0, 1), "one": 1}.get(kind, min(n, rng.randint(2, 3)))
    moved = rng.sample(range(n), count)
    for m in moved:
        for i in rng.sample(range(n), rng.randint(1, 2)):
            rows[i][m] += QQ(rng.choice([-2, -1, 1, 2]), rng.randint(1, 3))
    if kind == "singular" and moved:
        # a zero column, or a moved column copied onto another
        src, dst = moved[0], moved[-1]
        for row in rows:
            row[dst] = row[src] if src != dst else QQ(0)
    return L, iso.h_basis, Generator.of_matrix(Mat(rows))


def _outcome(check, L, A, h):
    """(type, message) of what check raises on A, or None when it passes."""
    try:
        check(L, A, h)
    except (NotAnAutomorphism, GeneratorMovesH) as e:
        return type(e), str(e)
    return None


# generators that move a column m with N_mm = 0, so E_mm = -d: the swap on abelian 2, the
# automorphism u <-> v, w -> -w of heisenberg n=1, and u <-> v alone, which is none
ZERO_DIAGONAL = [
    (make_lie_algebra(2, {}), Subspace.zero(2), Generator.of_matrix(Mat([[0, 1], [1, 0]]))),
    (catalog.heisenberg(1).algebra, Subspace.zero(3), Generator.of_matrix(Mat([[0, 1, 0], [1, 0, 0], [0, 0, -1]]))),
    (catalog.heisenberg(1).algebra, Subspace.zero(3), Generator.of_matrix(Mat([[0, 1, 0], [1, 0, 0], [0, 0, 1]]))),
]


@settings(max_examples=150, deadline=None)
@given(moved_generators())
@example(ZERO_DIAGONAL[0])
@example(ZERO_DIAGONAL[1])
@example(ZERO_DIAGONAL[2])
def test_moved_columns_check_raises_what_the_all_pairs_check_raises(case):
    # singular S x S block, first failing pair and the h test: same exception, same message
    L, h, A = case
    assert _outcome(_check_automorphism, L, A, h) == _outcome(check_automorphism_all_pairs, L, A, h)


def _all_pairs_invariance_rows(A: Generator) -> tuple:
    """The nonzero rows of N^N - d^2 I, A = N / d, by the dense minors of every pair of rows of N."""
    cols, d = A
    N = [[0] * len(cols) for _ in cols]
    for j, col in enumerate(cols):
        for i, x in col:
            N[i][j] = x
    eye = Mat.identity(len(wedge2_space(len(cols))))
    return tuple(row for row in (dense_wedge2_action(Mat(N)) - eye.scale(d * d)).sparse_rows() if row)


@settings(max_examples=150, deadline=None)
@given(moved_generators())
@example((make_lie_algebra(3, {}), Subspace.zero(3), Generator.of_matrix(Mat.identity(3).scale(-1))))
@example(ZERO_DIAGONAL[0])
@example(ZERO_DIAGONAL[1])
def test_moved_rows_are_the_nonzero_rows_of_the_all_pairs_block(case):
    # on the integer form N / d of I + E itself, any E: same rows, so the same kernel
    _, _, A = case
    cols, d = A
    n = len(cols)
    moved, oracle = invariance_block(moved_part(A), d, False, n), _all_pairs_invariance_rows(A)
    assert moved == oracle
    nwedge = len(wedge2_space(n))
    assert kernel_of_rows(moved, nwedge) == kernel_of_rows(oracle, nwedge)
    # on these algebras of dim 3 and 5, N^N = d^2 I exactly when N = +-dI: the identity
    # gives no rows, and so does -I, which a product of a model's generators can be
    assert (moved == ()) == any(all(dict(col) == {j: s} for j, col in enumerate(cols)) for s in (d, -d))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**20))
def test_invariance_blocks_read_the_moved_rows_of_each_generator(seed):
    _, _, iso, _ = random_generator_instance(seed)
    k = iso.h_basis.dim
    nwedge = len(wedge2_space(iso.quotient_dim))
    for block, A in zip(islice(invariance_rows(iso), k, None), expanded_action(iso)[k:], strict=True):
        oracle = _all_pairs_invariance_rows(A)
        assert block == oracle
        assert kernel_of_rows(block, nwedge) == kernel_of_rows(oracle, nwedge)


def test_action_moves_holds_the_nonzero_columns_of_each_operator():
    # each operator of the isotropy action is (X, d): X holds the nonzero
    # columns of N = d ad-bar_u, or of E = N - dI for a discrete generator;
    # d = dq den R_P per row (P, R) of h and dq dA per discrete generator
    # A = N_A / dA, not reduced against X: on sl2+solv2#5 they share 33, 22
    # and 2 with it, as with N, since gcd(d, E) = gcd(d, N)
    shared = []
    for seed in range(12):
        tag, L, iso, _ = random_generator_instance(seed)
        m, dq = iso.quotient_dim, iso._q_columns.d
        dens = [dq * L.den * R[P] for P, R in iso.h_basis.rows] + [dq * A.d for A in iso.generators]
        assert [d for _, d in iso.action_moves] == dens, tag
        for X, _ in iso.action_moves:
            assert all(0 <= j < m and col for j, col in X.items()), tag
            assert all(x and 0 <= i < m for col in X.values() for i, x in col), tag
        shared.append(tuple(gcd(d, *(x for col in X.values() for _, x in col)) for X, d in iso.action_moves))
    assert shared[5] == (33, 22, 2)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**20), st.randoms(use_true_random=False))
def test_induced_ad_bar_is_linear_on_transported_h(seed, rng):
    # u a rational combination of the h basis of a transported model, with
    # denominators and a non-coordinate h: q ad_u s is the same combination
    # of the h part of action_moves, and u plus a complement vector is not in h
    _, L, iso, _ = random_generator_instance(seed)
    k, m = iso.h_basis.dim, iso.quotient_dim
    cs = [QQ(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(k)]
    u = tuple(sum((c * b[i] for c, b in zip(cs, iso.h_basis.basis)), QQ(0)) for i in range(L.dim))
    ops = expanded_action(iso)[:k]
    assert induced_ad_bar(iso, u) == mat_lincomb(cs, [op.mat for op in ops], m)
    if m:
        j = rng.choice(iso.complement_indices)
        outside = tuple(x + QQ(int(i == j), rng.randint(1, 3)) for i, x in enumerate(u))
        with pytest.raises(NotInH):
            induced_ad_bar(iso, outside)


@settings(max_examples=150, deadline=None)
@given(raw_tables())
def test_jacobi_unordered_pairs_match_the_ordered_pair_loop(L):
    # half of the tables are direct LieAlgebra tables, antisymmetric or not
    assert _jacobi_failures(L) == jacobi_failures_all_ordered_pairs(L)


@pytest.mark.parametrize("seed", range(4))
def test_jacobi_unordered_pairs_match_on_models(seed):
    algebras = [L for _, L, _ in catalog_instances()] + [L for _, L, _, _ in random_instances(seed, 6)]
    for L in algebras + [catalog.builtin("gl_sym", {"n": 3}).algebra]:
        assert _jacobi_failures(L) == jacobi_failures_all_ordered_pairs(L)


# ---------------------------------------------------------------------------
# one elimination gives the greedy complement and the projection along it


@st.composite
def subspaces(draw):
    rng = draw(st.randoms(use_true_random=False))
    n = rng.randint(0, 7)
    vecs = [
        [QQ(rng.randint(-2, 2)) if rng.random() < 0.4 else QQ(0) for _ in range(n)]
        for _ in range(rng.randint(0, n + 1))
    ]
    return Subspace.from_vectors(n, vecs)


@settings(max_examples=150, deadline=None)
@given(subspaces())
def test_greedy_complement_matches_the_scan(space):
    assert complement_projection(space)[0] == greedy_complement_scan(space)


def _frame_inverse_oracle(space, indices) -> Mat:
    """Inverse of the frame [RREF basis of space | e_j, j in indices], by plain Gauss-Jordan on [F | I]."""
    n = space.ambient
    e = Mat.identity(n).entries
    frame = Mat.from_cols(list(space.basis) + [e[j] for j in indices], n)
    red, pivots = gauss_jordan_oracle([row + e[i] for i, row in enumerate(frame.entries)])
    assert pivots == list(range(n))
    return Mat([row[n:] for row in red], n)


def _completes(space, indices) -> bool:
    n = space.ambient
    if any(not 0 <= j < n for j in indices) or len(set(indices)) != len(indices):
        return False
    e = Mat.identity(n).entries
    spanned = Subspace.from_vectors(n, list(space.basis) + [e[j] for j in indices])
    return len(indices) == n - space.dim and spanned.dim == n


@settings(max_examples=150, deadline=None)
@given(subspaces(), st.data())
def test_complement_projection_splits_along_standard_vectors(space, data):
    n = space.ambient
    permuted = tuple(data.draw(st.permutations(range(n))))[: n - space.dim]
    raw = tuple(data.draw(st.lists(st.integers(0, n), max_size=n + 1)))
    for given_indices in (None, permuted, raw):
        if given_indices is not None and not _completes(space, given_indices):
            with pytest.raises(ValueError):
                complement_projection(space, given_indices)
            continue
        indices, proj = complement_projection(space, given_indices)
        assert given_indices in (None, indices)
        assert proj @ proj == proj
        assert Subspace.from_vectors(n, proj.T.entries) == space
        for j in indices:
            assert proj.col(j) == zero_vec(n)
        # any subspace is a subalgebra of the abelian algebra
        iso = make_isotropy(make_lie_algebra(n, {}), space.basis, complement_indices=indices)
        q = iso.q_matrix
        for u in space.basis:
            assert q @ u == zero_vec(len(indices))
        assert q @ iso.s_matrix == Mat.identity(len(indices))
        assert q.entries == _frame_inverse_oracle(space, indices).entries[space.dim :]


@pytest.mark.parametrize(
    "name, params, eliminations",
    [
        ("so4_grassmann", None, 2),
        ("gl_sym", {"n": 3}, 2),
        ("double", {"of": "heisenberg", "n": 2}, 2),
        ("abelian", {"n": 3}, 0),
    ],
)
def test_model_build_runs_one_elimination_per_frame(monkeypatch, name, params, eliminations):
    # one for the RREF basis of h and one for the complement and projection;
    # none when h = 0, and no frame inverse or kernel in either case
    doc = catalog.builtin(name, params)
    assert not doc.ad_generators
    calls = count_calls(monkeypatch, exact, "_rref_int_rows")
    frames = [count_calls(monkeypatch, exact, f) for f in ("inverse", "kernel")]
    _, iso = catalog.realize(doc)
    assert (iso.h_basis.dim > 0) == (eliminations > 0)
    assert len(calls) == eliminations
    assert frames == [[], []]
