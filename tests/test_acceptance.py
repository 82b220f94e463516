"""End-to-end acceptance checks, one test per criterion.

Each test is self-contained and states its own timing budget where one
applies.  Run with `pytest -v tests/test_acceptance.py` to get a pass/fail
line per criterion.
"""

import random
import time
from fractions import Fraction as QQ

from helpers import catalog_r_matrices, instance, random_instances, random_lift_perturbation
from lieps.connections import (
    build_connection,
    curvature,
    induced_leaf_connection,
    l_operator,
    poisson_compat,
    torsion,
)
from lieps.exact import Mat, Subspace, rref
from lieps.foliation import leaf_algebra, leaf_cocycle, reconstruct_r
from lieps.invariants import invariant_bivectors
from lieps.liecore import bracket, validate, wedge2_space
from lieps.ybe import (
    Lift,
    canonical_lift,
    fixed_space_lie_algebra,
    is_r_matrix,
    make_bivector,
    quotient_hcirc,
    schouten_oracle,
    yang_baxter_tensor,
)


def V(*xs):
    return tuple(QQ(x) for x in xs)


def test_criterion_1_heisenberg_families():
    t0 = time.monotonic()
    for n in (1, 2):
        L, iso = instance("heisenberg", {"n": n})
        inv = invariant_bivectors(iso)
        assert inv.dim == 2 * n
        # every invariant bivector wedges a (u, v)-combination against w
        dim = 2 * n + 1
        w_index = 2 * n
        pairs = wedge2_space(dim)
        for v in inv.basis:
            support = [pairs[t] for t, c in enumerate(v) if c != 0]
            assert support, "invariant basis vector must be nonzero"
            assert all(j == w_index for _, j in support)
        basis = list(inv.basis)
        for v in basis:
            assert is_r_matrix(make_bivector(iso, v))
        for i in range(len(basis)):
            for j in range(i + 1, len(basis)):
                summed = tuple(x + y for x, y in zip(basis[i], basis[j]))
                assert is_r_matrix(make_bivector(iso, summed))
    assert time.monotonic() - t0 < 1.0


def test_criterion_2_iso11_obstruction():
    t0 = time.monotonic()
    L, iso = instance("iso11")
    inv = invariant_bivectors(iso)
    assert inv.dim == 2
    assert inv.contains(V(1, 0, 0))  # e1 ^ e2
    assert inv.contains(V(0, 1, -1))  # (e1 - e2) ^ e3
    assert is_r_matrix(make_bivector(iso, V(1, 0, 0)))
    s = make_bivector(iso, V(0, 1, -1))
    assert not is_r_matrix(s)
    tensor = yang_baxter_tensor(s)
    value = tensor[(0, 1, 2)]
    assert value == 2 or value == -2
    oracle = schouten_oracle(canonical_lift(s))
    assert tensor.values == oracle.values
    assert time.monotonic() - t0 < 1.0


def test_criterion_3_grassmannian_leaf():
    t0 = time.monotonic()
    L, iso = instance("so4_grassmann")
    inv = invariant_bivectors(iso)
    assert inv.dim == 2
    r = make_bivector(iso, V(1, 1, 0, 0, 1, 1))  # (e1 - e4) ^ (e2 + e3)
    assert is_r_matrix(r)
    a = leaf_algebra(r)
    assert a.dim == 4
    expected = Subspace.from_vectors(
        6,
        [
            V(1, 0, 0, 0, 0, 0),  # F12
            V(0, 1, 0, 0, 0, 0),  # F34
            V(0, 0, 1, 0, 0, -1),  # e1 - e4
            V(0, 0, 0, 1, 1, 0),  # e2 + e3
        ],
    )
    assert a == expected
    data = leaf_cocycle(r)
    rebuilt = reconstruct_r(L, iso, data.a_basis, data.omega)
    assert rebuilt.r_mat == r.r_mat
    # the radical of omega is exactly h: h sits inside it and the rank
    # leaves no room for anything else
    for u in iso.h_basis.basis:
        cu = data.a_basis.coords_of(u)
        assert all(x == 0 for x in data.omega @ cu)
    rank = len(rref(data.omega)[1])
    assert data.a_basis.dim - rank == iso.h_basis.dim
    assert time.monotonic() - t0 < 1.0


def test_criterion_4_symmetric_quotients_of_gl():
    t0 = time.monotonic()
    expected = {2: 1, 3: 0, 4: 0}
    for n, dim in expected.items():
        L, iso = instance("gl_sym", {"n": n})
        assert invariant_bivectors(iso).dim == dim, n
    assert time.monotonic() - t0 < 30.0


def test_criterion_5_randomized_oracle_agreement():
    rng = random.Random(20260819)
    count = 0
    for label, L, iso, coords in random_instances(seed=97, count=200):
        r = make_bivector(iso, coords)
        lift = canonical_lift(r)
        tensor = yang_baxter_tensor(r)
        oracle = schouten_oracle(lift)
        assert tensor.values == oracle.values, label
        perturbed = Lift(r, random_lift_perturbation(rng, iso, lift.rt_mat))
        assert schouten_oracle(perturbed).values == tensor.values, label
        count += 1
    assert count >= 200


def test_criterion_6_leaf_data_roundtrips():
    for tag, L, iso, r in catalog_r_matrices():
        data = leaf_cocycle(r)
        rebuilt = reconstruct_r(L, iso, data.a_basis, data.omega)
        assert rebuilt.r_mat == r.r_mat, tag
        again = leaf_cocycle(rebuilt)
        assert again.a_basis == data.a_basis, tag
        assert again.omega == data.omega, tag


def test_criterion_7_connection_families():
    for tag, L, iso, r in catalog_r_matrices():
        n = iso.quotient_dim
        eps = Mat.identity(n).entries
        natural = build_connection("natural", r)
        fedosov = build_connection("fedosov", r)
        canonical = build_connection("canonical", r)
        for a in range(n):
            for c in range(n):
                eta, xi = eps[a], eps[c]
                zero = tuple([QQ(0)] * n)
                assert torsion(natural, eta, xi) == zero, tag
                assert torsion(fedosov, eta, xi) == zero, tag
                assert curvature(canonical, eta, xi).is_zero(), tag
                lhs = tuple(
                    p - q
                    for p, q in zip(
                        l_operator(r, xi).apply_T(eta),
                        l_operator(r, eta).apply_T(xi),
                    )
                )
                assert lhs == quotient_hcirc(r, eta, xi), tag
        assert poisson_compat(fedosov), tag


def test_criterion_8_fixed_space_lie_algebras():
    for tag, L, iso, r in catalog_r_matrices():
        fixed = fixed_space_lie_algebra(r)
        assert fixed.algebra.dim == len(fixed.basis), tag
        assert validate(fixed.algebra).ok, tag


def test_criterion_9_grassmannian_fedosov_on_leaf():
    L, iso = instance("so4_grassmann")
    r = make_bivector(iso, V(1, 1, 0, 0, 1, 1))
    b = build_connection("fedosov", r)
    lc = induced_leaf_connection(b)
    swapped = induced_leaf_connection(b, complement_indices=(1, 3))
    assert swapped.basis == lc.basis
    assert swapped.br == lc.br
    assert lc.torsionless
    assert lc.symplectic
    assert lc.fedosov
    # flatness holds exactly when the isotropy part of [u, v] acts
    # trivially on the frame; here it does not
    frame = list(lc.basis)
    s, q = iso.s_matrix, iso.q_matrix
    should_be_flat = True
    for u in frame:
        for v in frame:
            z = bracket(L, u, v)
            z_h = tuple(a - b2 for a, b2 in zip(z, s @ (q @ z)))
            for w in frame:
                if any(x != 0 for x in bracket(L, z_h, w)):
                    should_be_flat = False
    assert should_be_flat is False
    assert lc.flat is should_be_flat
