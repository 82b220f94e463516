import random
from fractions import Fraction as QQ

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    catalog_instances,
    catalog_r_matrices,
    dense_apply,
    dense_connection,
    dense_curvature,
    dense_l_operator,
    dense_mstar_bracket,
    dense_poisson_compat_failures,
    dense_torsion,
    instance,
    invariant_candidates,
    random_instances,
    reductive_r_matrix_oracle,
)
from lieps.connections import (
    ConnectionMap,
    NomizuMap,
    ad_invariance_check,
    build_connection,
    curvature,
    f_connection_to_nomizu,
    is_f_connection,
    induced_leaf_connection,
    l_operator,
    mstar_bracket,
    nomizu_to_contravariant,
    poisson_compat,
    poisson_compat_failures,
    torsion,
)
from lieps.errors import NotAnFConnection, NotAnRMatrix, NotReductive
from lieps.exact import Mat, from_ints
from lieps.invariants import invariant_bivectors
from lieps.liecore import complement_projection, induced_ad_bar, make_isotropy
from lieps.liecore import wedge2_space
from lieps.ybe import make_bivector, quotient_hcirc


def V(*xs):
    return tuple(QQ(x) for x in xs)


def _basis(n):
    return Mat.identity(n).entries


# ---------------------------------------------------------------------------
# reductive pairs


def test_reductive_flags_on_catalog():
    for name, params, symmetric in [
        ("gl_sym", {"n": 2}, True),
        ("so4_grassmann", None, True),
        ("double", {"of": "heisenberg", "n": 1}, True),
        ("heisenberg", {"n": 1}, False),
        ("iso11", None, False),
    ]:
        L, iso = instance(name, params)
        assert iso.reductive, name
        assert iso.symmetric == symmetric, name


def test_nontrivial_isotropy_with_central_brackets_is_symmetric():
    # m = span{v1, w} brackets to zero, and zero lies in every subalgebra
    L, _ = instance("heisenberg", {"n": 1})
    iso = make_isotropy(L, [V(1, 0, 0)], complement_indices=(1, 2))
    assert iso.reductive
    assert iso.symmetric


def test_non_reductive_isotropy_is_rejected():
    L, _ = instance("iso11")
    iso = make_isotropy(L, [V(1, 0, 0)])
    assert not iso.reductive
    with pytest.raises(NotReductive):
        build_connection("canonical", make_bivector(iso, V(0)))


# ---------------------------------------------------------------------------
# the m*-bracket and the reductive r-matrix criterion


def test_mstar_bracket_vanishes_on_symmetric_pair_invariants():
    L, iso = instance("so4_grassmann")
    for coords in invariant_candidates(iso):
        r = make_bivector(iso, coords)
        for eta in _basis(4):
            for xi in _basis(4):
                assert mstar_bracket(r, eta, xi) == V(0, 0, 0, 0)


def test_mstar_bracket_zero_bivector():
    L, iso = instance("iso11")
    r0 = make_bivector(iso, V(0, 0, 0))
    assert mstar_bracket(r0, V(1, 0, 0), V(0, 1, 0)) == V(0, 0, 0)


def test_mstar_bracket_agrees_with_annihilator_route():
    for tag, L, iso, r in catalog_r_matrices():
        n = iso.quotient_dim
        for eta in _basis(n):
            for xi in _basis(n):
                assert mstar_bracket(r, eta, xi) == quotient_hcirc(r, eta, xi), tag


def test_enabling_identity_for_torsionless_builders():
    # eta . l_{xi#} - xi . l_{eta#} equals the bracket on every basis pair
    cases = list(catalog_r_matrices())
    L, iso = instance("iso11")
    cases.append(("iso11-e1e3", L, iso, make_bivector(iso, V(0, 1, 0))))
    for tag, L, iso, r in cases:
        n = iso.quotient_dim
        for eta in _basis(n):
            for xi in _basis(n):
                lhs = tuple(
                    a - b
                    for a, b in zip(
                        l_operator(r, xi).apply_T(eta),
                        l_operator(r, eta).apply_T(xi),
                    )
                )
                assert lhs == quotient_hcirc(r, eta, xi), tag


def test_bracket_is_infinitesimally_equivariant():
    # [N eta, xi]_r + [eta, N xi]_r = N [eta, xi]_r for N the coadjoint
    # action of h
    for name, params in [
        ("gl_sym", {"n": 2}),
        ("so4_grassmann", None),
        ("double", {"of": "heisenberg", "n": 1}),
    ]:
        L, iso = instance(name, params)
        n = iso.quotient_dim
        for coords in invariant_bivectors(iso).basis:
            r = make_bivector(iso, coords)
            for u in iso.h_basis.basis:
                ab = induced_ad_bar(iso, u)
                for eta in _basis(n):
                    for xi in _basis(n):
                        lhs = tuple(
                            a + b
                            for a, b in zip(
                                mstar_bracket(r, ab.apply_T(eta), xi),
                                mstar_bracket(r, eta, ab.apply_T(xi)),
                            )
                        )
                        assert lhs == tuple(ab.apply_T(mstar_bracket(r, eta, xi)))


def test_reductive_r_matrix_criterion_matches_tensor_route():
    # the tensor is the defect of r_# as a morphism of brackets, so it
    # vanishes exactly when the per-pair criterion holds: on the invariant
    # candidates and on random skew r of the catalog quotients, and on
    # invariant r of random quotients by a non-coordinate h
    from lieps.ybe import is_r_matrix

    rng = random.Random(20261018)
    cases = []
    for tag, L, iso in catalog_instances():
        m = iso.quotient_dim * (iso.quotient_dim - 1) // 2
        cases += [(tag, iso, coords) for coords in invariant_candidates(iso)]
        cases += [(tag, iso, [QQ(rng.randint(-2, 2)) for _ in range(m)]) for _ in range(3)]
    cases += [(label, iso, coords) for label, _, iso, coords in random_instances(seed=11, count=20)]
    seen = set()
    for tag, iso, coords in cases:
        r = make_bivector(iso, coords)
        verdict = is_r_matrix(r)
        assert reductive_r_matrix_oracle(iso, r) == verdict, (tag, coords)
        seen.add(verdict)
    assert seen == {True, False}


def test_reductive_r_matrix_criterion_frozen_cases():
    from lieps.ybe import is_r_matrix

    L, iso = instance("iso11")
    for coords, verdict in ((V(0, 1, -1), False), (V(0, 0, 0), True)):
        r = make_bivector(iso, coords)
        assert is_r_matrix(r) is verdict
        assert reductive_r_matrix_oracle(iso, r) is verdict


# ---------------------------------------------------------------------------
# the four builders


def _iso11_e1e3():
    L, iso = instance("iso11")
    return make_bivector(iso, V(0, 1, 0))


def test_fedosov_values_frozen():
    r = _iso11_e1e3()
    b = build_connection("fedosov", r)
    e = _basis(3)
    assert b.apply(e[0], e[0]) == V(QQ(1, 3), 0, 0)
    assert b.apply(e[0], e[1]) == V(0, QQ(-2, 3), 0)
    assert b.apply(e[0], e[2]) == V(0, 0, QQ(-1, 3))
    assert b.apply(e[1], e[0]) == V(0, QQ(1, 3), 0)
    assert b.apply(e[2], e[0]) == V(0, 0, QQ(2, 3))
    others = [(1, 1), (1, 2), (2, 1), (2, 2)]
    for a, c in others:
        assert b.apply(e[a], e[c]) == V(0, 0, 0)


def test_canonical_is_zero_and_natural_is_half_bracket():
    for tag, L, iso, r in catalog_r_matrices():
        n = iso.quotient_dim
        zero = build_connection("canonical", r)
        assert zero.is_zero(), tag
        natural = build_connection("natural", r)
        for eta in _basis(n):
            for xi in _basis(n):
                half = tuple(QQ(1, 2) * x for x in mstar_bracket(r, eta, xi))
                assert natural.apply(eta, xi) == half, tag


def test_natural_vanishes_on_symmetric_pair():
    L, iso = instance("so4_grassmann")
    r = make_bivector(iso, V(1, 1, 0, 0, 1, 1))
    assert build_connection("natural", r).is_zero()


def test_left_symmetric_formula():
    r = _iso11_e1e3()
    b = build_connection("left_symmetric", r)
    for eta in _basis(3):
        for xi in _basis(3):
            expected = tuple(-x for x in l_operator(r, eta).apply_T(xi))
            assert b.apply(eta, xi) == expected


def test_unknown_kind_rejected():
    r = _iso11_e1e3()
    with pytest.raises(ValueError):
        build_connection("bogus", r)


# ---------------------------------------------------------------------------
# torsion, curvature, compatibility


def test_torsionless_builders_on_catalog():
    for tag, L, iso, r in catalog_r_matrices():
        n = iso.quotient_dim
        for kind in ("natural", "left_symmetric", "fedosov"):
            b = build_connection(kind, r)
            for i in range(n):
                for j in range(n):
                    assert torsion(b, _basis(n)[i], _basis(n)[j]) == tuple(
                        [QQ(0)] * n
                    ), (tag, kind)


def test_canonical_torsion_is_minus_bracket():
    for tag, L, iso, r in catalog_r_matrices():
        n = iso.quotient_dim
        b = build_connection("canonical", r)
        for eta in _basis(n):
            for xi in _basis(n):
                expected = tuple(-x for x in mstar_bracket(r, eta, xi))
                assert torsion(b, eta, xi) == expected, tag


def test_canonical_curvature_vanishes():
    for tag, L, iso, r in catalog_r_matrices():
        n = iso.quotient_dim
        b = build_connection("canonical", r)
        for eta in _basis(n):
            for xi in _basis(n):
                assert curvature(b, eta, xi).is_zero(), tag


def test_fedosov_curvature_can_be_nonzero():
    r = _iso11_e1e3()
    b = build_connection("fedosov", r)
    e = _basis(3)
    assert not curvature(b, e[0], e[2]).is_zero()


def test_fedosov_poisson_compatibility():
    r = _iso11_e1e3()
    assert poisson_compat(build_connection("fedosov", r))
    for tag, L, iso, r in catalog_r_matrices():
        assert poisson_compat(build_connection("fedosov", r)), tag
        zero = build_connection("canonical", r)
        assert poisson_compat(zero), tag


entries27 = st.lists(
    st.fractions(min_value=-2, max_value=2, max_denominator=2), min_size=27, max_size=27
)


@given(entries27)
@settings(max_examples=25, deadline=None)
def test_torsion_is_antisymmetric_for_any_b(flat):
    r = _iso11_e1e3()
    b3 = tuple(
        tuple(tuple(flat[9 * a + 3 * c + k] for k in range(3)) for c in range(3))
        for a in range(3)
    )
    b = ConnectionMap.from_entries(r, b3)
    e = _basis(3)
    for i in range(3):
        for j in range(3):
            tij = torsion(b, e[i], e[j])
            tji = torsion(b, e[j], e[i])
            assert tuple(tij) == tuple(-x for x in tji)


# ---------------------------------------------------------------------------
# equivariance


def test_builders_are_equivariant_on_invariant_r_matrices():
    for tag, L, iso, r in catalog_r_matrices():
        for kind in ("canonical", "natural", "left_symmetric", "fedosov"):
            b = build_connection(kind, r)
            assert ad_invariance_check(b), (tag, kind)


def test_equivariance_fails_for_non_invariant_r():
    # e1 wedge e3 solves Yang-Baxter but is not fixed by the discrete
    # generator, and the fedosov connection inherits the defect
    r = _iso11_e1e3()
    b = build_connection("fedosov", r)
    assert not ad_invariance_check(b)


def test_equivariance_fails_for_arbitrary_b():
    L, iso = instance("heisenberg", {"n": 1})
    r = make_bivector(iso, V(0, 1, 0))
    z = V(0, 0, 0)
    b3 = [[z, z, z], [z, z, z], [z, z, z]]
    b3[1][2] = V(1, 0, 0)
    b = ConnectionMap.from_entries(r, b3)
    assert not ad_invariance_check(b)


def test_equivariance_fails_on_the_infinitesimal_equation_alone():
    # so4_grassmann has h = so2 x so2 and no discrete generator, so only
    # the ad-bar equation can refuse b(eps_1, eps_2) = eps_1; the natural
    # connection of the invariant r = e1^e2 + e3^e4 passes it
    _, iso = instance("so4_grassmann", None)
    assert iso.h_basis.dim == 2 and not iso.discrete_generators
    r = make_bivector(iso, V(1, 0, 0, 0, 0, 1))
    z = V(0, 0, 0, 0)
    b4 = [[z] * 4 for _ in range(4)]
    b4[0][1] = V(1, 0, 0, 0)
    assert not ad_invariance_check(ConnectionMap.from_entries(r, b4))
    assert ad_invariance_check(build_connection("natural", r))


# ---------------------------------------------------------------------------
# F-connections and Nomizu maps


def test_heisenberg_fedosov_is_f_connection_with_frozen_value():
    L, iso = instance("heisenberg", {"n": 1})
    r = make_bivector(iso, V(0, 1, 0))
    b = build_connection("fedosov", r)
    e = _basis(3)
    assert b.apply(e[2], e[2]) == V(0, QQ(1, 3), 0)
    nonzero = [
        (a, c) for a in range(3) for c in range(3) if b.apply(e[a], e[c]) != V(0, 0, 0)
    ]
    assert nonzero == [(2, 2)]
    assert is_f_connection(b)
    psi = f_connection_to_nomizu(b)
    back = nomizu_to_contravariant(psi)
    assert back.b == b.b


def test_nomizu_roundtrip_on_catalog_fedosov():
    for tag, L, iso, r in catalog_r_matrices():
        b = build_connection("fedosov", r)
        if not is_f_connection(b):
            continue
        psi = f_connection_to_nomizu(b)
        assert nomizu_to_contravariant(psi).b == b.b, tag


def test_non_f_connection_rejected():
    L, iso = instance("heisenberg", {"n": 1})
    r = make_bivector(iso, V(0, 1, 0))
    z = V(0, 0, 0)
    b3 = [[z, z, z], [z, z, z], [z, z, z]]
    b3[1][2] = V(1, 0, 0)  # v1* direction lies in the kernel of the sharp map
    b = ConnectionMap.from_entries(r, b3)
    assert not is_f_connection(b)
    with pytest.raises(NotAnFConnection):
        f_connection_to_nomizu(b)


# ---------------------------------------------------------------------------
# the induced connection on the leaf directions


def test_so4_leaf_connection_flags():
    L, iso = instance("so4_grassmann")
    r = make_bivector(iso, V(1, 1, 0, 0, 1, 1))
    b = build_connection("fedosov", r)
    lc = induced_leaf_connection(b)
    assert lc.torsionless
    assert lc.symplectic
    assert lc.fedosov
    assert lc.flat is False
    swapped = induced_leaf_connection(b, complement_indices=(1, 3))
    assert swapped.basis == lc.basis
    assert swapped.br == lc.br
    assert (swapped.torsionless, swapped.symplectic, swapped.fedosov, swapped.flat) == (
        lc.torsionless,
        lc.symplectic,
        lc.fedosov,
        lc.flat,
    )


def test_leaf_connection_reads_r_sharp_off_the_integer_tables():
    # b^r = r_# b(eta, eta') from the integer columns R / d_r of r_#: the
    # Fraction matrix r_mat is not built, and the values are those of r_mat @ v
    L, iso = instance("so4_grassmann")
    r = make_bivector(iso, V(1, 1, 0, 0, 1, 1))
    b = build_connection("fedosov", r)
    lc = induced_leaf_connection(b)
    assert "r_mat" not in r.__dict__
    n, im = b.dim, r.image
    _, proj = complement_projection(im)
    etas = (Mat.from_ints(*r.omega) @ Mat([proj[p] for p in im.pivots], n)).entries
    assert lc.br == tuple(
        tuple(tuple(r.r_mat @ b.apply(ei, ej)) for ej in etas) for ei in etas
    )


@pytest.mark.parametrize("bad", [(0, 3), (1,), (1, 3, 0), (1, 1), (1, 4)])
def test_leaf_connection_rejects_a_complement_that_does_not_complete_the_image(bad):
    # Im r_# = span{e1 - e4, e2 + e3}: e1, e4 span a plane meeting it, and
    # the others are too few, too many, repeated or out of range
    L, iso = instance("so4_grassmann")
    r = make_bivector(iso, V(1, 1, 0, 0, 1, 1))
    b = build_connection("fedosov", r)
    with pytest.raises(ValueError):
        induced_leaf_connection(b, complement_indices=bad)


def test_heisenberg_leaf_connection_is_flat():
    L, iso = instance("heisenberg", {"n": 1})
    r = make_bivector(iso, V(0, 1, 0))
    b = build_connection("fedosov", r)
    lc = induced_leaf_connection(b)
    assert lc.torsionless and lc.symplectic and lc.fedosov
    assert lc.flat is True


def test_leaf_connection_requires_r_matrix():
    L, iso = instance("iso11")
    s = make_bivector(iso, V(0, 1, -1))
    b = build_connection("canonical", s)
    with pytest.raises(NotAnRMatrix):
        induced_leaf_connection(b)


# ---------------------------------------------------------------------------
# the fixed-space product induced by the left-symmetric connection


def test_left_symmetric_product_on_fixed_covectors():
    L, iso = instance("iso11")
    r = make_bivector(iso, V(1, 0, 0))  # e1 wedge e2, an invariant r-matrix
    b = build_connection("left_symmetric", r)
    x1 = V(1, 1, 0)
    x2 = V(0, 0, 1)
    assert b.apply(x1, x1) == V(0, 0, 2)  # x1 . x1 = 2 x2
    assert b.apply(x1, x2) == V(0, 0, 0)
    assert b.apply(x2, x1) == V(0, 0, 0)
    assert b.apply(x2, x2) == V(0, 0, 0)


# ---------------------------------------------------------------------------
# the per-bivector tables against the per-pair formulas


def _reductive_catalog_pairs():
    out = []
    for tag, L, iso in catalog_instances():
        if iso.reductive:
            out.append((tag, iso))
    return out


REDUCTIVE_PAIRS = _reductive_catalog_pairs()
small_rationals = st.fractions(min_value=-3, max_value=3, max_denominator=3)


def _sparse_vector(data, n):
    # about half the entries zero, the way basis-heavy inputs look
    return tuple(
        data.draw(st.one_of(st.just(QQ(0)), small_rationals)) for _ in range(n)
    )


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_connection_tables_match_per_pair_formulas(data):
    # arbitrary skew r (mostly neither invariant nor an r-matrix) and
    # arbitrary rational alpha, beta: every quantity equals its oracle exactly
    tag, iso = data.draw(st.sampled_from(REDUCTIVE_PAIRS))
    n = iso.quotient_dim
    r = make_bivector(iso, _sparse_vector(data, len(wedge2_space(n))))
    alpha = _sparse_vector(data, n)
    beta = _sparse_vector(data, n)
    assert l_operator(r, alpha) == dense_l_operator(iso, r, alpha), tag
    assert mstar_bracket(r, alpha, beta) == dense_mstar_bracket(iso, r, alpha, beta), tag
    for kind in ("canonical", "natural", "left_symmetric", "fedosov"):
        b = build_connection(kind, r)
        assert b.b == dense_connection(kind, iso, r), (tag, kind)
        assert b.apply(alpha, beta) == dense_apply(b.b, alpha, beta), (tag, kind)
        assert torsion(b, alpha, beta) == dense_torsion(iso, r, b.b, alpha, beta)
        assert curvature(b, alpha, beta) == dense_curvature(iso, r, b.b, alpha, beta)
        assert poisson_compat_failures(b) == dense_poisson_compat_failures(r, b.b)


# catalog r-matrices, and the iso11 bivector e1^e3 - e2^e3, which is not one
BIVECTORS = tuple((tag, r) for tag, _, _, r in catalog_r_matrices()) + (
    ("iso11 e1^e3 - e2^e3", make_bivector(instance("iso11")[1], V(0, 1, -1))),
)
mixed_rationals = st.fractions(min_value=-3, max_value=3, max_denominator=6)


def _mixed_vector(data, size):
    # about half the entries zero, denominators up to 6
    entry = st.one_of(st.just(QQ(0)), mixed_rationals)
    return tuple(data.draw(st.lists(entry, min_size=size, max_size=size)))


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_integer_tables_match_dense_oracles_on_any_rational_b(data):
    # the integer form is read off b itself, not off the k d_r D of
    # build_connection: a drawn table with mixed denominators, and the
    # transpose dictionary of a drawn Nomizu map (an F-connection), over
    # r-matrices and arbitrary skew r, give exactly the dense oracles' values
    if data.draw(st.booleans()):
        tag, r = data.draw(st.sampled_from(BIVECTORS))
    else:
        tag, iso = data.draw(st.sampled_from(REDUCTIVE_PAIRS))
        r = make_bivector(iso, _mixed_vector(data, len(wedge2_space(iso.quotient_dim))))
    iso = r.iso
    n = iso.quotient_dim
    e = _basis(n)
    flat = _mixed_vector(data, n ** 3)
    drawn = tuple(tuple(flat[n * (n * a + c):n * (n * a + c + 1)] for c in range(n)) for a in range(n))
    flat = _mixed_vector(data, n ** 3)
    psi = tuple(Mat([flat[n * (n * t + i):n * (n * t + i + 1)] for i in range(n)], n) for t in range(n))
    entered = ConnectionMap.from_entries(r, drawn)
    for b in (entered, nomizu_to_contravariant(NomizuMap(r=r, psi=psi))):
        for a in range(n):
            for c in range(n):
                assert torsion(b, e[a], e[c]) == dense_torsion(iso, r, b.b, e[a], e[c]), tag
                assert curvature(b, e[a], e[c]) == dense_curvature(iso, r, b.b, e[a], e[c]), tag
        eta, xi = _mixed_vector(data, n), _mixed_vector(data, n)
        assert torsion(b, eta, xi) == dense_torsion(iso, r, b.b, eta, xi), tag
        assert curvature(b, eta, xi) == dense_curvature(iso, r, b.b, eta, xi), tag
        assert poisson_compat_failures(b) == dense_poisson_compat_failures(r, b.b), tag
        # b(eta, xi) and M_eta, whose column c is sum_a eta_a b[a][c]
        assert b.apply(eta, xi) == dense_apply(b.b, eta, xi), tag
        cols = [[sum((eta[a] * b.b[a][c][k] for a in range(n)), QQ(0)) for k in range(n)] for c in range(n)]
        assert b.matrix_for(eta) == Mat.from_cols(cols, n), tag


def _table_values(b):
    """b.tables as Fractions: the ints depend on the denominator each door picks."""
    T, R, dt, dr = b.tables
    torsion_values = {ac: from_ints(v, dt) for ac, v in T.items()}
    return torsion_values, {ac: from_ints(v, dr) for ac, v in R.items()}


def test_the_two_connection_doors_agree():
    # build_connection writes N over k d_r D; from_entries scales the
    # Fraction entries over their own lcm.  Every reading agrees
    for tag, _, iso, r in catalog_r_matrices():
        e = _basis(iso.quotient_dim)
        pairs = [(x, y) for x in e for y in e]
        for kind in ("canonical", "natural", "left_symmetric", "fedosov"):
            built = build_connection(kind, r)
            entered = ConnectionMap.from_entries(r, built.b)
            assert _table_values(entered) == _table_values(built), (tag, kind)
            assert poisson_compat_failures(entered) == poisson_compat_failures(built), (tag, kind)
            for x, y in pairs:
                assert torsion(entered, x, y) == torsion(built, x, y), (tag, kind)
                assert curvature(entered, x, y) == curvature(built, x, y), (tag, kind)
                assert entered.apply(x, y) == built.apply(x, y), (tag, kind)


def test_l_operator_and_mstar_bracket_need_no_reductive_model():
    # both read the bivector's tables, which every model has; a connection
    # on such a model is refused.  Besides the basis, the covectors include
    # rationals with mixed denominators and the zero covector
    rng = random.Random(5)
    seen = 0
    for tag, _, iso, coords in random_instances(seed=5, count=30):
        if iso.reductive:
            continue
        seen += 1
        r = make_bivector(iso, coords)
        n = iso.quotient_dim
        mixed = [tuple(QQ(rng.randint(-3, 3), rng.randint(1, 6)) for _ in range(n)) for _ in range(2)]
        covectors = _basis(n) + tuple(mixed) + ((QQ(0),) * n,)
        for alpha in covectors:
            assert l_operator(r, alpha) == dense_l_operator(iso, r, alpha), tag
            for beta in covectors:
                assert mstar_bracket(r, alpha, beta) == dense_mstar_bracket(iso, r, alpha, beta), tag
        with pytest.raises(NotReductive):
            build_connection("natural", r)
        with pytest.raises(NotReductive):
            ConnectionMap.from_entries(r, dense_connection("natural", iso, r))
    assert seen > 0
