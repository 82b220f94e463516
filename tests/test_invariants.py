import json
from fractions import Fraction as QQ

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    dense_ad_bars,
    dense_first_mover,
    dense_generator_maps,
    dense_invariant_bivectors,
    expanded_action,
    fixed_covectors,
    fixed_vectors,
    instance,
    random_generator_instance,
    random_instances,
)
from lieps.catalog import builtin, emit
from lieps.cli import run_cli
from lieps.errors import NotInvariant
from lieps.exact import Mat, kernel
from lieps.foliation import leaf_cocycle
from lieps.invariants import (
    _not_invariant,
    bivector_coords_from_matrix,
    fixed_quotient_covectors,
    invariant_bivectors,
)
from lieps.liecore import induced_ad_bar, induced_map, make_isotropy, wedge2_space
from lieps.ybe import is_r_matrix, make_bivector


def V(*xs):
    return tuple(QQ(x) for x in xs)


# ---------------------------------------------------------------------------
# coordinate conventions


@given(st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=3), min_size=6, max_size=6))
def test_bivector_coordinate_roundtrip(coords):
    # r_mat holds the coordinate c of the pair (i, j) as +c at (j, i) and -c
    # at (i, j), on abelian 4 with h = 0
    coords = tuple(coords)
    m = make_bivector(instance("abelian", {"n": 4})[1], coords).r_mat
    assert m.is_skew()
    for (i, j), c in zip(wedge2_space(4), coords):
        assert (m[j][i], m[i][j]) == (c, -c)
    assert bivector_coords_from_matrix(m) == coords


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**20))
def test_bivector_coords_read_r_mat_back_on_transported_models(seed):
    # q, h and the generators have denominators here; r_mat is a view of
    # r_sharp, and bivector_coords_from_matrix gives r's coordinates back
    tag, _, iso, coords = random_generator_instance(seed)
    assert bivector_coords_from_matrix(make_bivector(iso, coords).r_mat) == coords, tag


def test_bivector_coords_reject_non_skew_matrix():
    with pytest.raises(ValueError, match="skew"):
        bivector_coords_from_matrix(Mat([[0, 1], [1, 0]]))


def test_bivector_matrix_sign_convention():
    # r = e1 wedge e2 pairs covectors as r(e1*, e2*) = 1, and the matrix of
    # the sharp map sends e1* to e2
    m = make_bivector(instance("abelian", {"n": 2})[1], (QQ(1),)).r_mat
    assert m @ V(1, 0) == V(0, 1)
    assert m @ V(0, 1) == V(-1, 0)


# ---------------------------------------------------------------------------
# frozen invariant spaces


def _source(name, params):
    """The constraint families the invariants payload reports as imposed."""
    code, out, err = run_cli(["invariants", "-", "--format", "json"], emit(builtin(name, params)))
    assert code == 0, err
    return json.loads(out)["source"]


def test_heisenberg_invariants():
    for n in (1, 2):
        _, iso = instance("heisenberg", {"n": n})
        inv = invariant_bivectors(iso)
        assert inv.dim == 2 * n
        # basis is u_i wedge w, v_i wedge w: the pairs involving the center
        dim_q = 2 * n + 1
        pairs = wedge2_space(dim_q)
        expected = []
        for k in range(2 * n):
            coords = [QQ(0)] * len(pairs)
            coords[pairs.index((k, 2 * n))] = QQ(1)
            expected.append(tuple(coords))
        assert inv.basis == tuple(expected)
        assert _source("heisenberg", {"n": n}) == {"infinitesimal": False, "discrete": True}


def test_iso11_invariants():
    _, iso = instance("iso11")
    inv = invariant_bivectors(iso)
    assert inv.basis == (V(1, 0, 0), V(0, 1, -1))


def test_gl_sym_invariants():
    _, iso = instance("gl_sym", {"n": 2})
    inv = invariant_bivectors(iso)
    assert inv.basis == (V(0, 1, -1),)
    assert _source("gl_sym", {"n": 2}) == {"infinitesimal": True, "discrete": False}


def test_so4_invariants():
    _, iso = instance("so4_grassmann")
    inv = invariant_bivectors(iso)
    assert inv.basis == (V(1, 0, 0, 0, 0, 1), V(0, 1, 0, 0, 1, 0))


def test_double_invariants():
    _, iso = instance("double", {"of": "heisenberg", "n": 1})
    inv = invariant_bivectors(iso)
    assert inv.basis == (V(0, 1, 0), V(0, 0, 1))


def test_discrete_constraints_are_weaker_than_none():
    # dropping the generators of iso11 enlarges the invariant space to all of
    # wedge-square
    L, iso = instance("iso11")
    free = make_isotropy(L, [])
    assert invariant_bivectors(free).dim == 3
    assert invariant_bivectors(iso).dim == 2


# ---------------------------------------------------------------------------
# fixed vectors and covectors


def test_iso11_fixed_covectors():
    L, iso = instance("iso11")
    fc = fixed_quotient_covectors(iso)
    assert fc.basis == (V(1, 1, 0), V(0, 0, 1))
    # pairing invariance: <eta, gamma x> = <eta, x> for every fixed eta
    gamma = iso.discrete_generators[0]
    for eta in fc.basis:
        for x in Mat.identity(3).entries:
            lhs = sum(a * b for a, b in zip(eta, gamma @ x))
            assert lhs == sum(a * b for a, b in zip(eta, x))


def test_gl_sym_fixed_covectors_is_trace_line():
    _, iso = instance("gl_sym", {"n": 2})
    fc = fixed_quotient_covectors(iso)
    assert fc.basis == (V(1, 1, 0),)


def test_fixed_vectors_vs_covectors_transpose():
    A = Mat(((QQ(1), QQ(1)), (QQ(0), QQ(1))))
    assert fixed_vectors(2, discrete=(A,)).basis == (V(1, 0),)
    assert fixed_covectors(2, discrete=(A,)).basis == (V(0, 1),)


def test_fixed_vectors_infinitesimal():
    N = Mat(((QQ(0), QQ(1)), (QQ(0), QQ(0))))
    assert fixed_vectors(2, infinitesimal=(N,)).basis == (V(1, 0),)


# ---------------------------------------------------------------------------
# the coadjoint compatibility identity for invariant bivectors


@pytest.mark.parametrize(
    "name, params",
    [("gl_sym", {"n": 2}), ("so4_grassmann", None), ("double", {"of": "heisenberg", "n": 1})],
)
def test_invariant_r_intertwines_coadjoint_and_adjoint(name, params):
    # for h-invariant r: (ad-bar_u^T alpha)^# = -ad-bar_u(alpha^#)
    L, iso = instance(name, params)
    inv = invariant_bivectors(iso)
    m = iso.quotient_dim
    for coords in inv.basis:
        r_mat = make_bivector(iso, coords).r_mat
        for u in iso.h_basis.basis:
            ab = induced_ad_bar(iso, u)
            for a in range(m):
                alpha = tuple(QQ(1) if t == a else QQ(0) for t in range(m))
                lhs = r_mat @ ab.apply_T(alpha)
                rhs = tuple(-x for x in (ab @ (r_mat @ alpha)))
                assert tuple(lhs) == rhs


# ---------------------------------------------------------------------------
# the sparse invariant solve against the dense stacked blocks it replaced

BUILTINS_WITH_ISOTROPY = [
    ("heisenberg", {"n": 1}),
    ("heisenberg", {"n": 2}),
    ("heisenberg", {"n": 3}),
    ("iso11", None),
    ("so4_grassmann", None),
    ("gl_sym", {"n": 2}),
    ("gl_sym", {"n": 3}),
    ("double", {"of": "heisenberg", "n": 1}),
    ("double", {"of": "heisenberg", "n": 2}),
    ("double", {"of": "iso11"}),
    ("double", {"of": "gl_sym", "n": 2}),
]


def _dense_fixed(n, infinitesimal, discrete):
    eye = Mat.identity(n)
    rows = [r for M in infinitesimal for r in M.entries]
    rows += [r for A in discrete for r in (A - eye).entries]
    return kernel(Mat(rows, n))


def _check_against_dense(iso):
    assert invariant_bivectors(iso) == dense_invariant_bivectors(iso)
    ads = dense_ad_bars(iso)
    gens = [induced_map(iso, A) for A in iso.discrete_generators]
    n = iso.quotient_dim
    assert fixed_vectors(n, ads, gens) == _dense_fixed(n, ads, gens)
    assert fixed_quotient_covectors(iso) == fixed_covectors(n, ads, gens)


@pytest.mark.parametrize("name,params", BUILTINS_WITH_ISOTROPY)
def test_sparse_invariant_solve_matches_dense_on_builtins(name, params):
    _, iso = instance(name, params)
    assert iso.h_basis.dim > 0 or iso.discrete_generators
    _check_against_dense(iso)


def test_sparse_invariant_solve_matches_dense_on_random_quotients():
    for _, _, iso, _ in random_instances(seed=4242, count=40):
        _check_against_dense(iso)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**20))
def test_transported_generators_match_the_dense_oracles(seed):
    # random_instances carries no generator; here h and the generators are
    # transported, so q and the generators have denominators and the
    # generator blocks of the invariant solve are scaled by them
    tag, _, iso, coords = random_generator_instance(seed)
    assert iso.discrete_generators, tag
    _check_against_dense(iso)
    k = iso.h_basis.dim
    ops = tuple(op.mat for op in expanded_action(iso))
    assert ops[:k] == dense_ad_bars(iso), tag
    assert ops[k:] == dense_generator_maps(iso), tag
    r = make_bivector(iso, coords)
    t = dense_first_mover(iso, r)
    h = iso.h_basis
    if t is None:
        assert _not_invariant(r) is None, tag
        return
    what = (
        f"h-basis vector ({', '.join(str(x) for x in h.basis[t])})"
        if t < h.dim
        else f"discrete generator ad_generators[{t - h.dim}]"
    )
    message = f"r is not invariant: the {what} moves it"
    assert str(_not_invariant(r)) == message, tag
    if is_r_matrix(r):
        with pytest.raises(NotInvariant) as caught:
            leaf_cocycle(r)
        assert str(caught.value) == message, tag


def test_transported_generators_cover_denominators_and_every_mover():
    # the draws above reach q and generators with denominators, an r that
    # an h-basis vector moves, one that a generator moves on h != 0, and an
    # invariant one
    draws = [random_generator_instance(seed)[2:] for seed in range(60)]
    assert any(x.denominator > 1 for iso, _ in draws for row in iso.q_matrix.entries for x in row)
    gens = [A for iso, _ in draws for A in iso.discrete_generators]
    assert any(x.denominator > 1 for A in gens for row in A.entries for x in row)
    movers = set()
    for iso, coords in draws:
        t = dense_first_mover(iso, make_bivector(iso, coords))
        k = iso.h_basis.dim
        movers.add(None if t is None else "h" if t < k else "generator" if k else "generator, h = 0")
    assert movers == {None, "h", "generator", "generator, h = 0"}
