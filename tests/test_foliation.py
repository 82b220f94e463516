import json
from fractions import Fraction as QQ
from functools import cache, partial
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    CATALOG_ENTRIES,
    catalog_r_matrices,
    dense_first_mover,
    dense_is_cocycle,
    dense_leaf_reductive,
    dense_leaf_symmetric,
    instance,
    omega_eval,
    random_generator_instance,
    random_instances,
    reference_leaf_cocycle,
)
from lieps.errors import (
    ClosureFailure,
    LiepsError,
    NotACocycle,
    NotAnRMatrix,
    NotClosed,
    NotInvariant,
    NotReductive,
    RadicalMismatch,
)
from lieps.exact import Mat, Subspace, rref
from lieps.catalog import parse, realize
from lieps.cli import parse_bivector_expr, run_cli
from lieps.foliation import (
    _check_cocycle,
    leaf_algebra,
    leaf_cocycle,
    leaf_decomposition,
    reconstruct_r,
    w_omega_pair,
)
from lieps.invariants import _not_invariant, bivector_coords_from_matrix, invariant_bivectors
from lieps.liecore import (
    bracket,
    complement_projection,
    make_isotropy,
    make_lie_algebra,
    structure_constants,
    wedge2_space,
)
from lieps.ybe import is_r_matrix, make_bivector


def V(*xs):
    return tuple(QQ(x) for x in xs)


# ---------------------------------------------------------------------------
# frozen leaf data


def test_heisenberg_leaf_frozen():
    L, iso = instance("heisenberg", {"n": 1})
    r = make_bivector(iso, V(0, 1, 0))  # u1 wedge w
    a = leaf_algebra(r)
    assert a.basis == (V(1, 0, 0), V(0, 0, 1))
    data = leaf_cocycle(r)
    assert data.a_basis == a
    assert data.omega.entries == ((QQ(0), QQ(1)), (QQ(-1), QQ(0)))
    assert reconstruct_r(L, iso, data.a_basis, data.omega).r_mat == r.r_mat


def test_so4_leaf_frozen():
    L, iso = instance("so4_grassmann")
    r = make_bivector(iso, V(1, 1, 0, 0, 1, 1))  # (e1 - e4) wedge (e2 + e3)
    data = leaf_cocycle(r)
    assert data.a_basis.dim == 4
    expected = Subspace.from_vectors(
        6,
        [V(1, 0, 0, 0, 0, 0), V(0, 1, 0, 0, 0, 0), V(0, 0, 1, 0, 0, -1), V(0, 0, 0, 1, 1, 0)],
    )
    assert data.a_basis == expected
    # presentation: h basis first, then lifted image directions
    assert data.frame[:2] == (V(1, 0, 0, 0, 0, 0), V(0, 1, 0, 0, 0, 0))
    assert data.frame[2:] == (V(0, 0, 1, 0, 0, -1), V(0, 0, 0, 1, 1, 0))
    assert data.frame_omega[2][3] == 1
    assert data.frame_omega[3][2] == -1
    dec = leaf_decomposition(r)
    assert dec.reductive and dec.symmetric


def test_leaf_flags_match_the_g_bracket_oracles():
    rs = [r for *_, r in catalog_r_matrices()]
    for _, L, iso, coords in random_instances(7, 30):
        r = make_bivector(iso, coords)
        if is_r_matrix(r):
            rs.append(r)
    symmetric_seen = set()
    for r in rs:
        dec = leaf_decomposition(r)
        assert dec.reductive == dense_leaf_reductive(r)
        assert dec.symmetric == dense_leaf_symmetric(r)
        symmetric_seen.add(dec.symmetric)
    assert symmetric_seen == {True, False}


def test_leaf_checks_surface_a_broken_bracket_table_or_omega():
    # all hold by theorem for invariant r-matrices, so the integer tables of
    # r are forced: omega_r = N / d, and the frame brackets x / e or None
    L, iso = instance("heisenberg", {"n": 1})
    r = make_bivector(iso, V(0, 1, 0))  # u1 wedge w, Im r_# = span{u1, w}
    assert r.omega == (((0, 1), (-1, 0)), 1)
    r.__dict__["omega"] = (((0, 0), (0, 0)), 1)
    with pytest.raises(RadicalMismatch, match="^Rad"):
        leaf_cocycle(r)
    r = make_bivector(iso, V(0, 1, 0))
    A, M = r.image_brackets
    r.__dict__["image_brackets"] = (A, {(0, 1): None})
    with pytest.raises(ClosureFailure):
        leaf_cocycle(r)
    # so4_grassmann: h of dim 2 acts on Im r_# with trace 0, which the
    # cocycle identity on (u_0, s w_0, s w_1) reads; a traced ad-bar breaks it
    L, iso = instance("so4_grassmann")
    r = make_bivector(iso, V(1, 1, 0, 0, 1, 1))
    A, M = r.image_brackets
    assert A[0] == (((0, -1), 1), ((1, 0), 1))
    r.__dict__["image_brackets"] = ((((1, -1), 1), A[0][1]), A[1]), M
    with pytest.raises(NotACocycle, match=r"^cocycle identity fails on basis triple \(0, 2, 3\)$"):
        leaf_cocycle(r)
    r = make_bivector(iso, V(1, 1, 0, 0, 1, 1))
    r.__dict__["omega"] = (((0, 1), (1, 0)), 1)
    with pytest.raises(NotACocycle, match="^omega must be a skew matrix"):
        leaf_cocycle(r)


@cache
def _leaf_bivectors():
    """Catalog r-matrices, the r-matrices among random_instances draws, and bivectors the leaf refuses."""
    rs = [r for *_, r in catalog_r_matrices()]
    rs += [r for _, _, iso, c in random_instances(29, 40) if is_r_matrix(r := make_bivector(iso, c))]
    _, iso11 = instance("iso11")
    _, heis2 = instance("heisenberg", {"n": 2})
    rs.append(make_bivector(iso11, V(0, 1, -1)))  # not an r-matrix
    rs.append(make_bivector(heis2, parse_bivector_expr("u1^u2", heis2.L.labels)))  # not invariant
    rs += [make_bivector(iso, c) for _, _, iso, c in map(random_generator_instance, range(8))]
    return rs


def _leaf_outcome(leaf, r):
    """The four views of leaf(r), or the type and message of what it raised."""
    try:
        data = leaf(r)
    except LiepsError as e:
        return type(e), str(e)
    return data.a_basis, data.omega, data.frame, data.frame_omega


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_leaf_data_matches_the_fraction_route(data):
    # a nonzero rational multiple of an r-matrix is one, and invariant when
    # it is; each route reads its own copy of the bivector
    r = data.draw(st.sampled_from(_leaf_bivectors()))
    c = data.draw(st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool))
    coords = [c * x for x in bivector_coords_from_matrix(r.r_mat)]
    new = _leaf_outcome(leaf_cocycle, make_bivector(r.iso, coords))
    assert new == _leaf_outcome(reference_leaf_cocycle, make_bivector(r.iso, coords))


def test_leaf_refusals_match_the_fraction_route():
    # every refusal in the pool, the two pinned ones among them, is the
    # same error with the same message on both routes
    kinds = set()
    for r in _leaf_bivectors():
        outcome = _leaf_outcome(leaf_cocycle, r)
        if not isinstance(outcome[0], Subspace):
            assert outcome == _leaf_outcome(reference_leaf_cocycle, r)
            kinds.add(outcome[0])
    assert kinds == {NotAnRMatrix, NotInvariant}


def test_leaf_dimension_formula():
    for tag, L, iso, r in catalog_r_matrices():
        rank = len(rref(r.r_mat)[1])
        assert leaf_algebra(r).dim == iso.h_basis.dim + rank, tag


def test_roundtrip_both_directions():
    for tag, L, iso, r in catalog_r_matrices():
        data = leaf_cocycle(r)
        rebuilt = reconstruct_r(L, iso, data.a_basis, data.omega)
        assert rebuilt.r_mat == r.r_mat, tag
        again = leaf_cocycle(rebuilt)
        assert again.a_basis == data.a_basis, tag
        assert again.omega == data.omega, tag


def test_omega_is_ad_invariant_for_h():
    # omega([u,x], y) + omega(x, [u,y]) = 0 for u in h, x, y in a_r
    for name, params in [("so4_grassmann", None), ("gl_sym", {"n": 2})]:
        L, iso = instance(name, params)
        inv = invariant_bivectors(iso)
        r = make_bivector(iso, inv.basis[0])
        data = leaf_cocycle(r)
        a, omega = data.a_basis, data.omega
        for u in iso.h_basis.basis:
            for x in a.basis:
                for y in a.basis:
                    lhs = omega_eval(a, omega, bracket(L, u, x), y)
                    rhs = omega_eval(a, omega, x, bracket(L, u, y))
                    assert lhs + rhs == 0


@cache
def _leaves():
    """(L, a_r, omega_r) for the catalog r-matrices, one per distinct a_r."""
    out = {}
    for tag, L, _, r in catalog_r_matrices():
        out.setdefault((tag, leaf_algebra(r)), (L, leaf_cocycle(r).omega))
    return [(L, a, omega) for (_, a), (L, omega) in out.items()]


def _accepts(C, omega, dim):
    try:
        _check_cocycle(C, omega, dim, NotACocycle)
    except NotACocycle:
        return False
    return True


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_structure_constant_cocycle_check_matches_dense_cyclic_sum(data):
    L, a, leaf_omega = data.draw(st.sampled_from(_leaves()))
    d = a.dim
    # a multiple of the leaf cocycle plus a sparse skew integer perturbation,
    # so both cocycles and non-cocycles are drawn, and now and then a
    # diagonal entry that makes omega not skew
    t = data.draw(st.integers(-2, 2))
    rows = [[t * leaf_omega[i][j] for j in range(d)] for i in range(d)]
    for i in range(d):
        for j in range(i + 1, d):
            x = data.draw(st.sampled_from((0, 0, 0, 1, -1, 2)))
            rows[i][j] += x
            rows[j][i] -= x
    rows[0][0] += data.draw(st.sampled_from((0, 0, 0, 0, 1)))
    omega = Mat(rows, d)
    C = structure_constants(a, partial(bracket, L), lambda i, j: AssertionError("not closed"))
    assert _accepts(C, omega, d) == dense_is_cocycle(L, a, omega)


# ---------------------------------------------------------------------------
# reconstruction error taxonomy, in declaration order


def test_reconstruct_rejects_non_closed_subspace():
    L, iso = instance("heisenberg", {"n": 1})
    a = [V(1, 0, 0), V(0, 1, 0)]  # [u1, v1] = w escapes
    omega = Mat(((QQ(0), QQ(1)), (QQ(-1), QQ(0))))
    with pytest.raises(NotClosed):
        reconstruct_r(L, iso, a, omega)


def test_reconstruct_rejects_non_cocycle():
    # iso11 + a line; omega pairing e1 with the new central direction breaks
    # the cyclic identity on (e1, e3, e4)
    L = make_lie_algebra(4, {(0, 2): {0: QQ(1)}, (1, 2): {1: QQ(-1)}})
    iso = make_isotropy(L, [])
    a = [V(1, 0, 0, 0), V(0, 1, 0, 0), V(0, 0, 1, 0), V(0, 0, 0, 1)]
    omega = Mat.zero(4, 4) + Mat(
        tuple(
            tuple(
                QQ(1) if (i, j) == (0, 3) else QQ(-1) if (i, j) == (3, 0) else QQ(0)
                for j in range(4)
            )
            for i in range(4)
        )
    )
    with pytest.raises(NotACocycle):
        reconstruct_r(L, iso, a, omega)


def test_reconstruct_rejects_radical_mismatch():
    L, iso = instance("heisenberg", {"n": 1})
    a = [V(1, 0, 0), V(0, 1, 0), V(0, 0, 1)]
    rows = [[QQ(0)] * 3 for _ in range(3)]
    rows[0][1], rows[1][0] = QQ(1), QQ(-1)
    omega = Mat(tuple(tuple(r) for r in rows))
    # cyclic identity holds, but the radical is span{w}, not h = 0
    with pytest.raises(RadicalMismatch):
        reconstruct_r(L, iso, a, omega)


def test_reconstruct_rejects_non_invariant_pair():
    L, iso = instance("iso11")
    a = [V(1, 0, 0), V(0, 0, 1)]  # closed: [e1, e3] = e1
    omega = Mat(((QQ(0), QQ(1)), (QQ(-1), QQ(0))))
    with pytest.raises(NotInvariant):
        reconstruct_r(L, iso, a, omega)


# ---------------------------------------------------------------------------
# the reductive W picture


def test_so4_w_omega_pair_frozen():
    _, iso = instance("so4_grassmann")
    r = make_bivector(iso, V(1, 1, 0, 0, 1, 1))
    W, omega_W = w_omega_pair(r)
    assert W.basis == (V(1, 0, 0, -1), V(0, 1, 1, 0))
    assert omega_W.entries == ((QQ(0), QQ(1)), (QQ(-1), QQ(0)))


def test_double_w_omega_pair():
    L, iso = instance("double", {"of": "heisenberg", "n": 1})
    inv = invariant_bivectors(iso)
    r = make_bivector(iso, inv.basis[0])
    W, omega_W = w_omega_pair(r)
    assert W.basis == (V(1, 0, 0), V(0, 0, 1))
    assert omega_W.entries == ((QQ(0), QQ(1)), (QQ(-1), QQ(0)))
    # the transported subspace is abelian inside the quotient bracket shadow:
    # representatives bracket into h
    s = iso.s_matrix
    for x in W.basis:
        for y in W.basis:
            amb = bracket(L, s @ x, s @ y)
            assert iso.h_basis.contains(amb)


def test_w_omega_pair_requires_reductive():
    L, _ = instance("iso11")
    iso_bad = make_isotropy(L, [V(1, 0, 0)])
    r = make_bivector(iso_bad, (QQ(1),))
    with pytest.raises(NotReductive):
        w_omega_pair(r)


def test_w_omega_pair_requires_r_matrix():
    _, iso = instance("iso11")
    s = make_bivector(iso, V(0, 1, -1))
    with pytest.raises(NotAnRMatrix):
        w_omega_pair(s)


def test_leaf_requires_r_matrix():
    _, iso = instance("iso11")
    s = make_bivector(iso, V(0, 1, -1))
    with pytest.raises(NotAnRMatrix):
        leaf_algebra(s)
    with pytest.raises(NotAnRMatrix):
        leaf_cocycle(s)


def test_not_invariant_names_the_generator_that_moves_r():
    # heisenberg n=2 has h = 0 and the lattice generators u_i -> u_i - w,
    # v_i -> v_i + w, in that order, then the identity
    L, iso = instance("heisenberg", {"n": 2})
    inv = invariant_bivectors(iso)
    for text, moved in [("u1^u2", 0), ("u2^v1", 1), ("v1^v2", 2), ("u1^w", None)]:
        coords = parse_bivector_expr(text, L.labels)
        err = _not_invariant(make_bivector(iso, coords))
        assert (err is None) == inv.contains(coords), text
        if moved is None:
            assert err is None
        else:
            assert isinstance(err, NotInvariant)
            assert str(err) == (
                f"r is not invariant: the discrete generator ad_generators[{moved}] moves it"
            )


_CATALOG_MODELS = {tag: instance(name, params)[1] for tag, name, params in CATALOG_ENTRIES}


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_not_invariant_matches_the_row_check(data):
    # the operator check of r's nonzeros against the dense Fraction check
    # B R + R B^T, A R A^T != R of each operator in order, on the catalog and
    # on transported models, whose h is no coordinate subspace and whose
    # generators have denominators; r is an integer combination of the
    # invariant basis, perhaps plus a rational bivector drawn at random
    if data.draw(st.booleans()):
        iso = _CATALOG_MODELS[data.draw(st.sampled_from(sorted(_CATALOG_MODELS)))]
        m = len(wedge2_space(iso.quotient_dim))
        noise = [QQ(data.draw(st.integers(-3, 3)), data.draw(st.integers(1, 3))) for _ in range(m)]
    else:
        _, _, iso, noise = random_generator_instance(data.draw(st.integers(0, 2**20)))
    basis = invariant_bivectors(iso).basis
    coeffs = [data.draw(st.integers(-3, 3)) for _ in basis]
    scale = data.draw(st.sampled_from((0, 0, 1, QQ(1, 2))))
    coords = [sum((c * v[k] for c, v in zip(coeffs, basis)), QQ(0)) + scale * noise[k] for k in range(len(noise))]
    r = make_bivector(iso, coords)
    got, t = _not_invariant(r), dense_first_mover(iso, r)
    assert (got is None) == (t is None) == (scale == 0 or invariant_bivectors(iso).contains(coords))
    if t is not None:
        h = iso.h_basis
        what = (
            f"h-basis vector ({', '.join(str(x) for x in h.basis[t])})"
            if t < h.dim
            else f"discrete generator ad_generators[{t - h.dim}]"
        )
        assert str(got) == f"r is not invariant: the {what} moves it"


def test_not_invariant_sees_a_generator_that_moves_r_by_its_wedge_square_alone():
    # A = [[1, 1], [2, 1]] on abelian 2: E = A - I has trace 0, so
    # d (E^1 + 1^E) sends e1^e2 to 0, and E^E = det E e1^e2 = -2 e1^e2 alone
    # moves it; A r A^T = det A r = -r
    text = json.dumps({"dim": 2, "ad_generators": [[["1", "1"], ["2", "1"]]]})
    _, iso = realize(parse(text))
    r = make_bivector(iso, (1,))
    message = "r is not invariant: the discrete generator ad_generators[0] moves it"
    assert dense_first_mover(iso, r) == 0
    assert str(_not_invariant(r)) == message
    assert invariant_bivectors(iso).dim == 0
    assert run_cli(["invariants", "-"], text) == (0, "dim 0\n", "")
    assert run_cli(["leaf", "-", "--r=e1^e2"], text) == (1, "", f"error: {message}\n")


# ---------------------------------------------------------------------------
# ambient well-definedness under a change of complement


def test_leaf_algebra_is_complement_independent():
    L = make_lie_algebra(4, {(0, 1): {2: QQ(1)}}, labels=("u", "v", "w", "z"))
    h = [V(0, 0, 1, 2)]
    iso_a = make_isotropy(L, h, complement_indices=(0, 1, 2))
    iso_b = make_isotropy(L, h, complement_indices=(0, 1, 3))
    C = iso_b.q_matrix @ iso_a.s_matrix
    r_a = make_bivector(iso_a, V(0, 1, 0))
    r_b = make_bivector(iso_b, bivector_coords_from_matrix(C @ r_a.r_mat @ C.T))
    assert leaf_algebra(r_a) == leaf_algebra(r_b)


def _other_complement_model(L, iso):
    """The same h with the last admissible complement, in lexicographic order, other than iso's."""
    h = iso.h_basis
    for indices in reversed(list(combinations(range(L.dim), L.dim - h.dim))):
        if indices != iso.complement_indices:
            try:
                complement_projection(h, indices)
            except ValueError:
                continue
            return make_isotropy(L, h.basis, complement_indices=indices)
    return None


def test_answers_on_invariant_r_do_not_depend_on_the_complement():
    # a nonzero h is a transported subalgebra, not a coordinate subspace, so
    # it has a second admissible complement; r moves to it by T = q2 s1
    compared = 0
    for label, L, iso_a, coords in random_instances(23, 30):
        iso_b = _other_complement_model(L, iso_a)
        if iso_b is None:
            continue
        T = iso_b.q_matrix @ iso_a.s_matrix
        r_a = make_bivector(iso_a, coords)
        r_b = make_bivector(iso_b, bivector_coords_from_matrix(T @ r_a.r_mat @ T.T))
        assert invariant_bivectors(iso_a).dim == invariant_bivectors(iso_b).dim, label
        assert is_r_matrix(r_a) == is_r_matrix(r_b), label
        if is_r_matrix(r_a):
            assert leaf_algebra(r_a).dim == leaf_algebra(r_b).dim, label
            dec_a, dec_b = leaf_decomposition(r_a), leaf_decomposition(r_b)
            assert (dec_a.reductive, dec_a.symmetric) == (dec_b.reductive, dec_b.symmetric), label
            compared += 1
    assert compared
