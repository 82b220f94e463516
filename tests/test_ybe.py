import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction as QQ
from functools import partial
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    catalog_instances,
    catalog_r_matrices,
    count_calls,
    dense_ad_bars,
    dense_l_operators,
    dense_yang_baxter_tensor,
    dense_table,
    instance,
    invariant_candidates,
    is_restricted_r_matrix,
    random_instances,
    random_lift_perturbation,
    omega_solve_oracle,
    restricted_r_matrix_oracle,
    span_coords_oracle,
)
from lieps.errors import NotAnRMatrix, NotInAnnihilator
from lieps.exact import Mat, Subspace, from_ints, int_vectors
from lieps.invariants import (
    bivector_coords_from_matrix,
    fixed_quotient_covectors,
    invariant_bivectors,
)
from lieps.liecore import (
    IsotropyModel,
    m_bracket,
    make_isotropy,
    make_lie_algebra,
    structure_constants,
    validate,
    wedge2_space,
)
from lieps.ybe import (
    Bivector,
    Lift,
    canonical_lift,
    fixed_space_lie_algebra,
    hcirc_bracket,
    is_r_matrix,
    l_operator,
    make_bivector,
    mstar_bracket,
    quotient_hcirc,
    schouten_oracle,
    sharp,
    yang_baxter_tensor,
)


def V(*xs):
    return tuple(QQ(x) for x in xs)


def _poincare():
    L, iso = instance("iso11")
    return L, iso, make_bivector(iso, V(0, 1, -1))


# ---------------------------------------------------------------------------
# the flat-space bivector: matrices, sharps, brackets


def test_bivector_matrix_frozen():
    _, _, s = _poincare()
    assert s.r_mat.entries == (V(0, 0, -1), V(0, 0, 1), V(1, -1, 0))
    assert (s.nz, s.d) == (((1, 1), (2, -1)), 1)


def test_sharp_values_frozen():
    _, _, s = _poincare()
    lift = canonical_lift(s)
    assert sharp(lift, V(1, 0, 0)) == V(0, 0, 1)
    assert sharp(lift, V(0, 1, 0)) == V(0, 0, -1)
    assert sharp(lift, V(0, 0, 1)) == V(-1, 1, 0)


def test_hcirc_bracket_frozen():
    # h = 0, so ambient covectors are their own annihilator coordinates
    _, _, s = _poincare()
    lift = canonical_lift(s)
    assert hcirc_bracket(lift, V(1, 0, 0), V(0, 1, 0)) == V(1, -1, 0)
    assert hcirc_bracket(lift, V(0, 1, 0), V(1, 0, 0)) == V(-1, 1, 0)


def test_hcirc_bracket_rejects_covectors_outside_annihilator():
    L, iso = instance("gl_sym", {"n": 2})
    inv = invariant_bivectors(iso)
    lift = canonical_lift(make_bivector(iso, inv.basis[0]))
    with pytest.raises(NotInAnnihilator):
        hcirc_bracket(lift, V(0, 0, 0, 1), V(1, 0, 0, 0))


def test_hcirc_bracket_lands_in_annihilator():
    # quotient of heisenberg(2) by its center: bracket values keep
    # annihilating h
    L, _ = instance("heisenberg", {"n": 2})
    iso = make_isotropy(L, [V(0, 0, 0, 0, 1)])
    inv = invariant_bivectors(iso)
    r = make_bivector(iso, inv.basis[0])
    lift = canonical_lift(r)
    ann = [tuple(row) for row in iso.q_matrix.entries]
    w = V(0, 0, 0, 0, 1)
    for eta in ann:
        for xi in ann:
            out = hcirc_bracket(lift, eta, xi)
            assert sum(a * b for a, b in zip(out, w)) == 0


def test_quotient_hcirc_matches_ambient_route():
    _, iso, s = _poincare()
    lift = canonical_lift(s)
    m = iso.quotient_dim
    for a in range(m):
        for b in range(m):
            alpha = tuple(QQ(1) if t == a else QQ(0) for t in range(m))
            beta = tuple(QQ(1) if t == b else QQ(0) for t in range(m))
            eta = iso.q_matrix.apply_T(alpha)
            xi = iso.q_matrix.apply_T(beta)
            ambient = hcirc_bracket(lift, eta, xi)
            assert quotient_hcirc(s, alpha, beta) == tuple(
                iso.s_matrix.apply_T(ambient)
            )


# ---------------------------------------------------------------------------
# the Yang-Baxter tensor


def test_poincare_tensor_and_oracle():
    _, _, s = _poincare()
    t = yang_baxter_tensor(s)
    assert t[(0, 1, 2)] == 2
    assert not t.is_zero()
    assert not is_r_matrix(s)
    oracle = schouten_oracle(canonical_lift(s))
    assert t.values == oracle.values


def test_poincare_dichotomy():
    _, iso, _ = _poincare()
    assert is_r_matrix(make_bivector(iso, V(1, 0, 0)))


two_rationals = st.fractions(min_value=-6, max_value=6, max_denominator=4)


@given(two_rationals, two_rationals)
@settings(max_examples=60)
def test_two_parameter_family(lam, mu):
    _, iso, _ = _poincare()
    r = make_bivector(iso, (lam, mu, -mu))
    t = yang_baxter_tensor(r)
    assert t[(0, 1, 2)] == 2 * mu * mu
    assert is_r_matrix(r) == (mu == 0)


def test_tensor_is_totally_antisymmetric():
    _, _, s = _poincare()
    t = yang_baxter_tensor(s)
    n = t.dim
    for a, b, c in itertools.product(range(n), repeat=3):
        base = t[(a, b, c)]
        assert t[(b, a, c)] == -base
        assert t[(a, c, b)] == -base
        assert t[(c, b, a)] == -base


_QUOTIENTS = [
    ("heisenberg-2/u1", make_isotropy(instance("heisenberg", {"n": 2})[0], [V(1, 0, 0, 0, 0)])),
    ("so4-grassmann", instance("so4_grassmann")[1]),
    ("double-heisenberg-1", instance("double", {"of": "heisenberg", "n": 1})[1]),
    # every proper subalgebra of iso(1,1) leaves a 2-dim quotient, where
    # each entry repeats an index; h = 0 keeps a nonzero 3-form in play
    ("iso11", instance("iso11")[1]),
]


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_tensor_matches_oracle_off_the_invariant_space(data):
    # arbitrary skew coordinates, mostly non-invariant: the antisymmetric
    # fill in yang_baxter_tensor must still agree with the dense cyclic sum
    tag, iso = data.draw(st.sampled_from(_QUOTIENTS))
    m = iso.quotient_dim
    coords = data.draw(
        st.lists(
            st.fractions(min_value=-3, max_value=3, max_denominator=3),
            min_size=m * (m - 1) // 2,
            max_size=m * (m - 1) // 2,
        )
    )
    r = make_bivector(iso, coords)
    assert yang_baxter_tensor(r).values == schouten_oracle(canonical_lift(r)).values, tag


def _support_models():
    """Catalog models, their algebras over h = 0, and random transported quotients."""
    models = []
    for tag, L, iso in catalog_instances():
        models += [(tag, iso), (f"{tag}/h=0", make_isotropy(L, []))]
    return models + [(label, iso) for label, _, iso, _ in random_instances(41, 40)]


_SUPPORT_MODELS = _support_models()


def test_support_models_hold_symmetric_and_other_pairs():
    assert {iso.symmetric for _, iso in _SUPPORT_MODELS} == {True, False}


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_tensor_over_the_support_matches_the_dense_loop(data):
    # the tensor reads one defect per pair a < b in the support X of r_#,
    # and none on a symmetric pair; the dense loop builds every L[a] and
    # every C[a][b].  r has every rank: zero, one wedge x ^ y, a few sparse
    # coordinates, all coordinates, or a sum of wedges; an invariant r is
    # drawn off the invariant basis, the others are in general not invariant
    tag, iso = data.draw(st.sampled_from(_SUPPORT_MODELS))
    m = iso.quotient_dim
    pairs = wedge2_space(m)
    q = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    vector = st.lists(q, min_size=m, max_size=m)
    shape = data.draw(st.sampled_from(["zero", "wedge", "sparse", "dense", "wedges", "invariant"]))
    coords = [QQ(0)] * len(pairs)
    if shape in ("wedge", "wedges"):
        count = 1 if shape == "wedge" else data.draw(st.integers(2, m // 2 + 2))
        for x, y in data.draw(st.lists(st.tuples(vector, vector), min_size=count, max_size=count)):
            coords = [c + x[i] * y[j] - x[j] * y[i] for c, (i, j) in zip(coords, pairs)]
    elif shape == "sparse" and pairs:
        for k in data.draw(st.lists(st.integers(0, len(pairs) - 1), min_size=1, max_size=3)):
            coords[k] = data.draw(q)
    elif shape == "dense":
        coords = data.draw(st.lists(q, min_size=len(pairs), max_size=len(pairs)))
    elif shape == "invariant":
        for v in invariant_bivectors(iso).basis:
            c = data.draw(q)
            coords = [x + c * y for x, y in zip(coords, v)]
    r = make_bivector(iso, coords)
    t = yang_baxter_tensor(r)
    assert t.nonzero_entries() == dense_yang_baxter_tensor(r).nonzero_entries(), (tag, shape)
    assert t.values == schouten_oracle(canonical_lift(r)).values, (tag, shape)


def _contraction_models():
    """_QUOTIENTS, random transported quotients, and quotients with m = 0, 1 and 2."""
    L, _ = instance("heisenberg", {"n": 1})
    # e1 acts diagonally on e2 and e3, so [e1, e2]_m = e2 / 3 modulo h = span{e3}
    third = make_lie_algebra(3, {(0, 1): {1: QQ(1, 3)}, (0, 2): {2: QQ(2)}})
    return (
        _QUOTIENTS
        + [(label, iso) for label, _, iso, _ in random_instances(31, 12)]
        + [
            ("heisenberg-1/h=g", make_isotropy(L, Mat.identity(3).entries)),
            ("heisenberg-1/u1,w", make_isotropy(L, [V(1, 0, 0), V(0, 0, 1)])),
            ("heisenberg-1/w", make_isotropy(L, [V(0, 0, 1)])),
            ("third/e3", make_isotropy(third, [V(0, 0, 1)])),
        ]
    )


_CONTRACTION_MODELS = _contraction_models()


def test_contraction_models_cover_small_quotients():
    dims = {iso.quotient_dim for _, iso in _CONTRACTION_MODELS}
    assert {0, 1, 2} <= dims


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_int_tables_match_the_fraction_route(data):
    # the l-operators, the [.,.]_r table and the leaf-frame m-brackets are
    # integer contractions of r with the model's m_table; the oracle builds
    # them in Fractions, one ad-matrix per basis covector and one m_bracket
    # per pair, for arbitrary skew coordinates, mostly not invariant
    tag, iso = data.draw(st.sampled_from(_CONTRACTION_MODELS))
    m = iso.quotient_dim
    coords = data.draw(
        st.lists(
            st.fractions(min_value=-3, max_value=3, max_denominator=3),
            min_size=m * (m - 1) // 2,
            max_size=m * (m - 1) // 2,
        )
    )
    r = make_bivector(iso, coords)
    ls = dense_l_operators(r)
    eps = Mat.identity(m).entries
    assert tuple(l_operator(r, e) for e in eps) == ls, tag
    for a in range(m):
        for c in range(m):
            expected = tuple(x - y for x, y in zip(ls[c][a], ls[a][c]))
            assert mstar_bracket(r, eps[a], eps[c]) == expected, (tag, a, c)
    # the leaf-frame brackets are Im r_#-coordinates x / e, None off Im r_#
    w = r.image.basis
    coords = partial(span_coords_oracle, w, r.image.pivots)
    A, M = r.image_brackets
    view = lambda c: None if c is None else from_ints(*c)
    assert tuple(tuple(map(view, row)) for row in A) == tuple(
        tuple(coords(bar @ x) for x in w) for bar in dense_ad_bars(iso)
    ), tag
    assert {ij: view(c) for ij, c in M.items()} == {
        (i, j): coords(m_bracket(iso, w[i], w[j])) for i, j in wedge2_space(len(w))
    }, tag
    assert yang_baxter_tensor(r).values == schouten_oracle(canonical_lift(r)).values, tag


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_omega_matches_the_solve_oracle(data):
    # r = sum_t x_t ^ y_t over up to m / 2 + 1 random pairs has every rank
    # from 0 to full, and is in general neither invariant nor an r-matrix
    tag, iso = data.draw(st.sampled_from(_CONTRACTION_MODELS))
    m = iso.quotient_dim
    vector = st.lists(
        st.fractions(min_value=-3, max_value=3, max_denominator=3), min_size=m, max_size=m
    )
    pairs = data.draw(st.lists(st.tuples(vector, vector), max_size=m // 2 + 1))
    r_mat = Mat(
        [
            [sum((y[i] * x[j] - x[i] * y[j] for x, y in pairs), QQ(0)) for j in range(m)]
            for i in range(m)
        ],
        m,
    )
    r = make_bivector(iso, bivector_coords_from_matrix(r_mat))
    assert Mat.from_ints(*r.omega) == omega_solve_oracle(r), tag


_RANDOM_MODELS = tuple((tag, iso) for tag, _, iso, _ in random_instances(seed=21, count=12))


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_coordinate_route_matches_the_matrix_route(data):
    # R / d_r, its view r_mat, Im r_# and omega_r are read off the wedge
    # coordinates; the skew Fraction matrix of r built in the test, scaled
    # to ints, its row span and the solve oracle are the matrix route.
    # r = sum_t x_t ^ y_t over up to m / 2 + 1 random pairs has every rank
    # from 0 to full
    tag, iso = data.draw(st.sampled_from(_RANDOM_MODELS))
    m = iso.quotient_dim
    vector = st.lists(
        st.fractions(min_value=-3, max_value=3, max_denominator=3), min_size=m, max_size=m
    )
    pairs = data.draw(st.lists(st.tuples(vector, vector), max_size=m // 2 + 1))
    r_mat = Mat(
        [[sum((y[i] * x[j] - x[i] * y[j] for x, y in pairs), QQ(0)) for j in range(m)] for i in range(m)], m
    )
    r = make_bivector(iso, bivector_coords_from_matrix(r_mat))
    assert r.r_sharp == int_vectors(r_mat.T.entries), tag
    assert r.r_mat == r_mat, tag
    assert r.image == Subspace.from_vectors(m, r_mat.entries), tag
    assert Mat.from_ints(*r.omega) == omega_solve_oracle(r), tag


def test_lift_independence_on_catalog():
    rng = random.Random(20260819)
    for tag, L, iso, r in [
        (t, L, i, make_bivector(i, c))
        for t, L, i in catalog_instances()
        for c in invariant_candidates(i)[:3]
    ]:
        lift = canonical_lift(r)
        other = Lift(r, random_lift_perturbation(rng, iso, lift.rt_mat))
        assert yang_baxter_tensor(r).values == schouten_oracle(other).values, tag
        assert schouten_oracle(lift).values == schouten_oracle(other).values, tag


def test_lift_must_project_to_r():
    _, iso, s = _poincare()
    bad = Mat(((QQ(0), QQ(1), QQ(0)), (QQ(-1), QQ(0), QQ(0)), (QQ(0), QQ(0), QQ(0))))
    with pytest.raises(ValueError):
        Lift(s, bad)


def test_bivector_must_be_skew():
    # a matrix enters only through bivector_coords_from_matrix, which checks
    # that it is skew; a Bivector holds one wedge coordinate per pair i < j
    _, iso = instance("heisenberg", {"n": 1})
    bad = Mat(((QQ(1), QQ(0), QQ(0)), (QQ(0), QQ(0), QQ(0)), (QQ(0), QQ(0), QQ(0))))
    with pytest.raises(ValueError, match="skew"):
        bivector_coords_from_matrix(bad)
    with pytest.raises(ValueError, match="expected 3 wedge coordinates, got 2"):
        Bivector(iso, V(1, 0))
    with pytest.raises(ValueError, match="expected 3 wedge coordinates, got 4"):
        make_bivector(iso, V(1, 0, 0, 0))


def test_lift_must_be_skew():
    # s r s^T plus a symmetric part that q kills: it projects to r, but it
    # is not skew
    _, iso = instance("double", {"of": "heisenberg", "n": 1})
    r = make_bivector(iso, V(1, 0, 0))
    rt = [list(row) for row in canonical_lift(r).rt_mat.entries]
    rt[0][0] += 1  # d_u1 spans part of h, so q rt q^T is unchanged
    with pytest.raises(ValueError, match="skew"):
        Lift(r, Mat(rt))


def test_bivector_skew_check_survives_optimize_flag():
    # python -O strips asserts; the skew check at the matrix door and the
    # length check of the coordinates must not be ones
    script = (
        "from lieps.catalog import builtin, realize\n"
        "from lieps.exact import Mat\n"
        "from lieps.ybe import Bivector\n"
        "_, iso = realize(builtin('heisenberg', {'n': 1}))\n"
        "from lieps.invariants import bivector_coords_from_matrix\n"
        "try:\n"
        "    Bivector(iso, (1, 0))\n"
        "except ValueError:\n"
        "    print('rejected')\n"
        "try:\n"
        "    bivector_coords_from_matrix(Mat([[0, 1], [1, 0]]))\n"
        "except ValueError:\n"
        "    print('rejected')\n"
        # shape checks: without them zip truncates silently
        "from lieps.exact import dot, inverse, solve\n"
        "from lieps.liecore import LieAlgebra\n"
        "m = Mat([[1, 2]])\n"
        "cases = [\n"
        "    lambda: dot((1, 2), (1, 2, 3)),\n"
        "    lambda: m + Mat([[1, 2], [3, 4]]),\n"
        "    lambda: m - Mat([[1], [2]]),\n"
        "    lambda: m @ Mat([[1, 2]]),\n"
        "    lambda: m @ (1, 2, 3),\n"
        "    lambda: m.apply_T((1, 2)),\n"
        "    lambda: inverse(m),\n"
        "    lambda: solve(m, (1, 2)),\n"
        "    lambda: Bivector(iso, (1, 2)),\n"
        "    lambda: LieAlgebra(2, ('a',), ((), ())),\n"
        "]\n"
        "for case in cases:\n"
        "    try:\n"
        "        print('accepted', case())\n"
        "    except ValueError:\n"
        "        print('rejected')\n"
    )
    src = str(Path(__import__("lieps").__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["rejected"] * 12


def test_canonical_lift_supported_on_complement_coordinates():
    L, iso = instance("gl_sym", {"n": 2})
    inv = invariant_bivectors(iso)
    lift = canonical_lift(make_bivector(iso, inv.basis[0]))
    k = 3  # index of the isotropy direction
    assert all(lift.rt_mat[k][j] == 0 for j in range(4))
    assert all(lift.rt_mat[j][k] == 0 for j in range(4))


def test_symmetric_pairs_make_every_invariant_bivector_an_r_matrix():
    for name, params in [("gl_sym", {"n": 2}), ("so4_grassmann", None)]:
        _, iso = instance(name, params)
        for coords in invariant_candidates(iso):
            assert is_r_matrix(make_bivector(iso, coords)), (name, coords)


# ---------------------------------------------------------------------------
# restricted vanishing and the fixed-space Lie algebra


def test_restricted_is_weaker_than_full():
    _, iso, s = _poincare()
    assert is_restricted_r_matrix(s)
    assert not is_r_matrix(s)
    r = make_bivector(iso, V(1, 0, 0))
    assert is_restricted_r_matrix(r)
    assert is_r_matrix(r)


def test_restricted_matches_the_per_pair_oracle():
    # catalog quotients and the same algebras over h = 0, where the fixed
    # space is everything and the restricted condition is the full one
    rng = random.Random(11)
    seen = set()
    for tag, L, iso in catalog_instances():
        for model in (iso, make_isotropy(L, [])):
            m = model.quotient_dim * (model.quotient_dim - 1) // 2
            for _ in range(4):
                r = make_bivector(model, [QQ(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(m)])
                verdict = is_restricted_r_matrix(r)
                assert verdict == restricted_r_matrix_oracle(r), tag
                seen.add(verdict)
    assert seen == {True, False}


def test_fixed_space_lie_algebra_poincare():
    _, iso, _ = _poincare()
    r = make_bivector(iso, V(1, 0, 0))
    out = fixed_space_lie_algebra(r)
    assert out.algebra.dim == 2
    assert validate(out.algebra).ok
    # abelian: all structure constants vanish
    assert all(
        x == 0 for plane in dense_table(out.algebra) for row in plane for x in row
    )


def test_fixed_space_lie_algebra_requires_r_matrix():
    _, _, s = _poincare()
    with pytest.raises(NotAnRMatrix):
        fixed_space_lie_algebra(s)


def test_fixed_space_lie_algebra_on_catalog_r_matrices():
    for name, params in [("heisenberg", {"n": 1}), ("so4_grassmann", None)]:
        _, iso = instance(name, params)
        for coords in invariant_candidates(iso):
            r = make_bivector(iso, coords)
            if not is_r_matrix(r):
                continue
            out = fixed_space_lie_algebra(r)
            assert validate(out.algebra).ok


def test_fixed_space_lie_algebra_matches_the_hcirc_route():
    # the table read off mstar_bracket against the h° bracket of quotient_hcirc,
    # on the catalog r-matrices and, for non-abelian fixed-space algebras, on
    # r-matrices of the small catalog algebras over h = 0
    cases = [(tag, iso, r) for tag, _, iso, r in catalog_r_matrices()]
    for tag, L, _ in catalog_instances():
        if L.dim <= 4:
            iso0 = make_isotropy(L, [])
            rs = (make_bivector(iso0, c) for c in invariant_candidates(iso0))
            cases += [(f"{tag}-h=0", iso0, r) for r in rs if is_r_matrix(r)]
    nonzero = 0
    for tag, iso, r in cases:
        out = fixed_space_lie_algebra(r)
        fixed = fixed_quotient_covectors(iso)
        assert out.basis == fixed.basis, tag
        table = structure_constants(fixed, partial(quotient_hcirc, r), pytest.fail)
        d = fixed.dim
        expected = make_lie_algebra(
            d, {ij: dict(enumerate(cs)) for ij, cs in table.items()}, [f"a{i + 1}" for i in range(d)]
        )
        assert out.algebra == expected, tag
        nonzero += any(any(row) for row in out.algebra.nz)
    assert nonzero  # some fixed-space algebra is not abelian


def test_fixed_space_lie_algebra_builds_the_model_tables_once(monkeypatch):
    # the integer tables of the bivector serve the tensor, the table and
    # the morphism check, and the fixed covectors read the model's action:
    # over the candidate scan and the algebra together the quotient kernel
    # runs once per lattice generator and once per m_table column, with
    # no operator per basis covector and no ad-matrix per pair of fixed
    # covectors
    _, iso = instance("heisenberg", {"n": 2})
    calls = count_calls(monkeypatch, IsotropyModel, "_quotient_ints")
    coords = next(c for c in invariant_candidates(iso) if is_r_matrix(make_bivector(iso, c)))
    r = make_bivector(iso, coords)
    out = fixed_space_lie_algebra(r)
    assert out.algebra.dim > 0
    assert len(r.int_tables[0]) == iso.quotient_dim == 5
    assert (iso.h_basis.dim, len(iso.discrete_generators)) == (0, 5)
    assert len(calls) == 5 + 5


# ---------------------------------------------------------------------------
# well-definedness under a change of complement


def test_tensor_transforms_correctly_under_complement_change():
    # heisenberg(1) + a line, h = span{w + 2z}; the transition between the
    # two complements is diag(1, 1, -2), which separates C^T from C^{-T}
    L = make_lie_algebra(4, {(0, 1): {2: QQ(1)}}, labels=("u", "v", "w", "z"))
    h = [V(0, 0, 1, 2)]
    iso_a = make_isotropy(L, h, complement_indices=(0, 1, 2))
    iso_b = make_isotropy(L, h, complement_indices=(0, 1, 3))
    C = iso_b.q_matrix @ iso_a.s_matrix
    assert C @ (iso_a.q_matrix @ iso_b.s_matrix) == Mat.identity(3)
    rng = random.Random(5)
    pairs = ((0, 1), (0, 2), (1, 2))
    for _ in range(10):
        coords_a = tuple(QQ(rng.randint(-3, 3)) for _ in pairs)
        r_a = make_bivector(iso_a, coords_a)
        r_b = make_bivector(
            iso_b, bivector_coords_from_matrix(C @ r_a.r_mat @ C.T)
        )
        t_a = yang_baxter_tensor(r_a)
        t_b = yang_baxter_tensor(r_b)
        assert is_r_matrix(r_a) == is_r_matrix(r_b)
        # covectors pull back through C^T, so the model-B tensor at the
        # standard covectors expands the model-A tensor at the rows of C
        basis = Mat.identity(3).entries
        for a, b, c in itertools.product(range(3), repeat=3):
            pa, pb, pc = (C.apply_T(basis[x]) for x in (a, b, c))
            lhs = sum(
                xa * xb * xc * t_a[(i, j, k)]
                for i, xa in enumerate(pa)
                for j, xb in enumerate(pb)
                for k, xc in enumerate(pc)
            )
            assert lhs == t_b[(a, b, c)]
