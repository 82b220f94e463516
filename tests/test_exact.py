from fractions import Fraction as F
from math import gcd, lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    count_calls,
    gauss_jordan_oracle,
    instance,
    kernel_oracle,
    span_coords_oracle,
    span_oracle,
)
from lieps.errors import NoSolution
from lieps.exact import (
    Mat,
    Subspace,
    _rref_int_rows,
    dot,
    inverse,
    kernel,
    kernel_of_rows,
    rref,
    solve,
)


rationals = st.fractions(min_value=-20, max_value=20, max_denominator=12)


@st.composite
def matrices(draw, max_dim=6):
    r = draw(st.integers(1, max_dim))
    c = draw(st.integers(1, max_dim))
    return Mat([[draw(rationals) for _ in range(c)] for _ in range(r)])


def test_rref_fixed_examples():
    r, p = rref(Mat.identity(3))
    assert r == Mat.identity(3) and p == [0, 1, 2]

    r, p = rref(Mat([[0, 0], [0, 0]]))
    assert r == Mat.zero(2, 2) and p == []

    r, p = rref(Mat([[2, 4], [1, 2]]))
    assert r == Mat([[1, 2], [0, 0]]) and p == [0]

    # skipped column between pivots
    r, p = rref(Mat([[1, 1, 0], [1, 1, 1]]))
    assert r == Mat([[1, 1, 0], [0, 0, 1]]) and p == [0, 2]


def test_solve_free_variables_zeroed():
    assert solve(Mat([[1, 1]]), [2]) == (F(2), F(0))


def test_solve_no_solution():
    with pytest.raises(NoSolution):
        solve(Mat([[1, 1], [1, 1]]), [1, 2])


def test_solve_unique():
    assert solve(Mat([[2, 0], [0, 3]]), [4, 6]) == (F(2), F(2))


def test_kernel_fixed():
    assert kernel(Mat.identity(4)).dim == 0
    assert kernel(Mat.zero(2, 3)) == Subspace.full(3)
    k = kernel(Mat([[1, 1]]))
    # canonical basis, not the raw free-column vector (-1, 1)
    assert k.basis == ((F(1), F(-1)),)


def test_inverse():
    m = Mat([[2, 1], [1, 1]])
    assert inverse(m) @ m == Mat.identity(2)
    with pytest.raises(ValueError):
        inverse(Mat([[1, 1], [1, 1]]))


def test_empty_matrices_keep_their_shape():
    wide = Mat([], 3)  # 0 x 3
    tall = Mat.from_cols([], 3)  # 3 x 0
    assert (wide.rows, wide.cols) == (0, 3)
    assert (tall.rows, tall.cols) == (3, 0)
    assert (wide.T.rows, wide.T.cols) == (3, 0)
    assert (tall.T.rows, tall.T.cols) == (0, 3)
    assert ((wide @ tall).rows, (wide @ tall).cols) == (0, 0)
    assert ((tall @ wide).rows, (tall @ wide).cols) == (3, 3)
    assert (tall @ wide).is_zero()
    assert wide @ (1, 2, 3) == ()
    assert Mat.zero(0, 2).cols == 2
    assert (wide + wide).cols == (-wide).cols == (wide - wide).cols == wide.scale(2).cols == 3


def test_dot_skips_zeros_and_stays_exact():
    out = dot((F(0), F(1, 3), F(2), F(-1)), (F(5), F(3, 2), F(0), F(1, 4)))
    assert out == F(1, 4)
    assert isinstance(out, F)
    assert isinstance(dot((F(0),), (F(0),)), F)


def test_subspace_equality_is_basis_equality():
    a = Subspace.from_vectors(3, [[1, 0, 1], [0, 1, 1]])
    b = Subspace.from_vectors(3, [[1, 1, 2], [1, -1, 0]])
    assert a == b
    assert a.basis == b.basis


# entries with denominators up to 10^12 on top of the small ones
wide_rationals = st.one_of(
    rationals, st.builds(F, st.integers(-10**12, 10**12), st.integers(1, 10**12))
)


@st.composite
def spanning_sets(draw, max_dim=6):
    """(n, vectors): zero, repeated, dependent and negative-leading vectors in Q^n."""
    n = draw(st.integers(1, max_dim))
    vectors = []
    for _ in range(draw(st.integers(0, max_dim))):
        kind = draw(st.sampled_from(["zero", "repeat", "combination", "negative", "free"]))
        if kind == "zero":
            v = [F(0)] * n
        elif kind == "repeat" and vectors:
            v = draw(st.sampled_from(vectors))
        elif kind == "combination" and vectors:
            cs = [draw(wide_rationals) for _ in vectors]
            v = [sum((c * u[k] for c, u in zip(cs, vectors)), F(0)) for k in range(n)]
        else:
            v = [draw(wide_rationals) for _ in range(n)]
            if kind == "negative":
                # the leading entry, and so the leading integer, is negative
                lead = next((k for k, x in enumerate(v) if x), draw(st.integers(0, n - 1)))
                v[lead] = -abs(v[lead]) or F(-1)
        vectors.append(tuple(v))
    return n, vectors


@settings(max_examples=150, deadline=None)
@given(spanning_sets(), st.data())
def test_subspace_matches_fraction_oracle(case, data):
    n, vectors = case
    space = Subspace.from_vectors(n, vectors)
    basis, pivots = span_oracle(vectors)
    assert (space.basis, space.pivots, space.dim) == (basis, pivots, len(pivots))

    cs = data.draw(st.lists(wide_rationals, min_size=len(vectors), max_size=len(vectors)))
    member = tuple(sum((c * v[k] for c, v in zip(cs, vectors)), F(0)) for k in range(n))
    other = tuple(data.draw(st.lists(wide_rationals, min_size=n, max_size=n)))
    for v in (member, other):
        coords = span_coords_oracle(basis, pivots, v)
        assert space.contains(v) == (coords is not None)
        if coords is None:
            with pytest.raises(NoSolution):
                space.coords_of(v)
        else:
            assert space.coords_of(v) == coords

    # another spanning set of the same space, and one of a space that may differ
    same = Subspace.from_vectors(n, [member] + vectors[::-1])
    assert same == space and hash(same) == hash(space)
    assert (Subspace.from_vectors(n, vectors + [other]) == space) == space.contains(other)


@settings(max_examples=120, deadline=None)
@given(matrices())
def test_rref_matches_fraction_oracle(m):
    red, pivots = rref(m)
    expect_rows, expect_pivots = gauss_jordan_oracle(m.entries)
    assert pivots == expect_pivots
    assert red == Mat(expect_rows)


@settings(max_examples=80, deadline=None)
@given(matrices())
def test_rref_idempotent(m):
    red, pivots = rref(m)
    again, pivots2 = rref(red)
    assert again == red and pivots2 == pivots


@settings(max_examples=80, deadline=None)
@given(matrices())
def test_rref_deterministic(m):
    assert rref(m) == rref(Mat(m.entries))


def test_integer_kernel_stays_integral():
    # gcd-scaled updates must stay in Z and leave every returned row with a
    # nonzero pivot; a truncating division would also show up as a wrong
    # rref through the Fraction oracle above
    m = [{0: 3, 1: 1, 2: 4}, {0: 1, 1: 5, 2: 9}, {}, {0: 2, 1: 6, 2: 5}, {0: 6, 1: 2, 2: 8}]
    rows, piv = _rref_int_rows(m, 3)
    assert piv == [0, 1, 2]
    assert len(rows) == 3
    for t, c in enumerate(piv):
        assert all(isinstance(x, int) and x != 0 for x in rows[t].values())
        assert rows[t][c] > 0
        assert all(p not in rows[t] for p in piv if p != c)


@st.composite
def int_row_systems(draw):
    """(rows, ncols): {column: int} rows in the shapes the kernel meets.

    Sparse single-nonzero rows over up to 300 columns with repeats (the
    invariance rows of heisenberg), small dense systems with entries up to
    2^40, combinations of a few base rows (rank 0 up to full), and full-rank
    triangular systems in a shuffled order; every shape mixes in negative
    leading entries, explicit zero entries and empty rows.
    """
    rng = draw(st.randoms(use_true_random=False))
    shape = draw(st.sampled_from(("sparse", "dense", "combination", "triangular")))
    ncols = rng.randint(0, 300 if shape == "sparse" else 7)
    bound = 2**40 if shape == "dense" else 9

    def entry():
        return rng.choice((-1, 1)) * rng.randint(1, bound)

    if not ncols:
        rows = [{} for _ in range(rng.randint(0, 3))]
    elif shape == "sparse":
        cols = rng.sample(range(ncols), rng.randint(1, min(ncols, 40)))
        rows = [{rng.choice(cols): entry()} for _ in range(rng.randint(1, 120))]
    elif shape == "dense":
        rows = [
            {j: entry() for j in range(ncols) if rng.random() < 0.8} for _ in range(rng.randint(1, 8))
        ]
    elif shape == "combination":
        base = [{j: entry() for j in range(ncols) if rng.random() < 0.5} for _ in range(rng.randint(0, ncols))]
        rows = []
        for _ in range(rng.randint(1, 10)):
            row = {}
            for b in base:
                w = rng.randint(-2, 2)
                for j, x in b.items():
                    row[j] = row.get(j, 0) + w * x
            rows.append(row)
    else:
        rows = [{j: entry() for j in range(i, ncols) if j == i or rng.random() < 0.5} for i in range(ncols)]
        rng.shuffle(rows)
    for _ in range(rng.randint(0, 3)):
        rows.insert(rng.randint(0, len(rows)), {})
    for row in rows:
        if ncols and rng.random() < 0.2:
            row[rng.randrange(ncols)] = 0
    return rows, ncols


def oracle_int_rref(rows):
    """(rows, pivots): the primitive integer RREF of {column: int} rows by the plain-Fraction gauss_jordan_oracle.

    Each row is densified over the columns the rows hold (a column no row
    holds is never a pivot and stays zero), and each pivot row is scaled by
    the lcm of its denominators and divided by its content; its leading
    entry, 1 in the RREF, stays positive.
    """
    support = sorted({j for r in rows for j, x in r.items() if x})
    red, pivots = gauss_jordan_oracle([[F(r.get(j, 0)) for j in support] for r in rows]) if support else ([], [])
    out = []
    for row in red[: len(pivots)]:
        d = lcm(*(x.denominator for x in row))
        ints = [int(x * d) for x in row]
        g = gcd(*ints)
        out.append({support[k]: x // g for k, x in enumerate(ints) if x})
    return out, [support[p] for p in pivots]


@settings(max_examples=150, deadline=None)
@given(int_row_systems())
def test_bucketed_kernel_matches_reference_kernel(system):
    rows, ncols = system
    before = [dict(r) for r in rows]
    expect = oracle_int_rref(rows)
    assert _rref_int_rows(rows, ncols) == expect
    assert rows == before


@pytest.mark.parametrize("name, n", [("heisenberg", 6), ("heisenberg", 10), ("gl_sym", 4)])
def test_bucketed_kernel_matches_reference_on_invariance_rows(name, n):
    from lieps.invariants import invariance_rows
    from lieps.liecore import wedge2_space

    _, iso = instance(name, {"n": n})
    rows = [row for block in invariance_rows(iso) for row in block]
    ncols = len(wedge2_space(iso.quotient_dim))
    assert _rref_int_rows(rows, ncols) == oracle_int_rref(rows)


@settings(max_examples=80, deadline=None)
@given(matrices())
def test_kernel_annihilates(m):
    k = kernel(m)
    for v in k.basis:
        assert all(x == 0 for x in m @ v)


@settings(max_examples=80, deadline=None)
@given(matrices())
def test_rank_nullity(m):
    _, pivots = rref(m)
    assert len(pivots) + kernel(m).dim == m.cols


@settings(max_examples=80, deadline=None)
@given(matrices())
def test_entries_stay_reduced_fractions(m):
    red, _ = rref(m)
    for row in red.entries:
        for x in row:
            assert isinstance(x, F)
            # Fraction normalizes on construction; make sure nothing bypassed it
            assert F(x.numerator, x.denominator) == x and x.denominator > 0


@settings(max_examples=60, deadline=None)
@given(matrices(max_dim=5))
def test_solve_consistency(m):
    # build a reachable rhs, solve, verify
    x = tuple(F(i + 1, 2) for i in range(m.cols))
    b = m @ x
    got = solve(m, b)
    assert m @ got == tuple(b)


# ---------------------------------------------------------------------------
# the sparse kernel on the shapes the invariant solve produces: tall,
# mostly zero, rank-deficient, with denominators, repeated and zero rows

@st.composite
def tall_sparse_matrices(draw):
    # a drawn Random builds the whole matrix: one hypothesis draw per cell
    # would dominate the run time at 40 x 8
    rng = draw(st.randoms(use_true_random=False))
    c = rng.randint(1, 8)

    def entry():
        if rng.random() < 0.7:
            return F(0)
        return F(rng.randint(-20, 20), rng.randint(1, 12))

    nrows = rng.randint(1, 40)
    if rng.random() < 0.5:
        rows = [[entry() for _ in range(c)] for _ in range(nrows)]
    else:
        # rank at most k < c: sparse combinations of k sparse base rows
        base = [[entry() for _ in range(c)] for _ in range(rng.randint(0, c - 1))]
        rows = []
        for _ in range(nrows):
            row = [F(0)] * c
            for b in base:
                w = entry()
                if w:
                    row = [x + w * y for x, y in zip(row, b)]
            rows.append(row)
    for _ in range(rng.randint(0, 4)):
        src = rows[rng.randrange(len(rows))]
        scale = rng.choice([F(1), F(-2), F(3, 7), F(0)])
        rows.insert(rng.randint(0, len(rows)), [scale * x for x in src])
    if rng.random() < 0.3:
        # a column no row reaches: free in every kernel, with its unit vector
        f = rng.randrange(c)
        rows = [r[:f] + [F(0)] + r[f + 1:] for r in rows]
    if rng.random() < 0.3:
        rows.insert(rng.randint(0, len(rows)), [F(0)] * c)
    return Mat(rows, c)


@settings(max_examples=60, deadline=None)
@given(tall_sparse_matrices())
def test_sparse_rref_matches_fraction_oracle(m):
    red, pivots = rref(m)
    expect_rows, expect_pivots = gauss_jordan_oracle(m.entries)
    assert pivots == expect_pivots
    assert red == Mat(expect_rows)


@settings(max_examples=60, deadline=None)
@given(tall_sparse_matrices())
# the second row cuts the vector the first row made: the kernel is (-1, -1, 1)
@example(Mat([[1, 0, 1], [0, 1, 1]]))
@example(Mat([[2, 0, 1], [0, 3, F(1, 2)]]))
def test_sparse_kernel_matches_fraction_oracle(m):
    assert kernel(m).basis == kernel_oracle(m.entries, m.cols)


@settings(max_examples=60, deadline=None)
@given(tall_sparse_matrices(), st.booleans())
# the second row cuts the vector the first row made: the kernel is (-1, -1, 1)
@example(Mat([[1, 0, 1], [0, 1, 1]]), False)
@example(Mat([[2, 0, 1], [0, 3, F(1, 2)]]), True)
def test_kernel_of_rows_matches_dense_kernel(m, as_ints):
    rows = []
    for r in m.entries:
        # a row of zeros is handed over holding its zero entries
        row = {j: x for j, x in enumerate(r) if x} or dict(enumerate(r))
        if as_ints:
            # integer scalings of the same rows, given as plain ints
            lcm = 1
            for x in row.values():
                lcm = lcm * x.denominator // gcd(lcm, x.denominator)
            row = {j: int(x * lcm) for j, x in row.items()}
        rows.append(row)
    # the oracle eliminates the dense rows with plain Fractions, apart from
    # the integer kernel cut that kernel_of_rows and kernel(m) share
    got = kernel_of_rows(rows, m.cols)
    assert got.basis == kernel_oracle(m.entries, m.cols)
    assert got.ambient == m.cols


def test_full_subspace_is_the_canonical_identity():
    for n in (0, 1, 4):
        full = Subspace.full(n)
        assert full == Subspace.from_vectors(n, Mat.identity(n).entries)
        assert full.pivots == tuple(range(n))
    assert kernel_of_rows([], 3) == Subspace.full(3)
    assert kernel_of_rows([{}, {1: 0}], 2) == Subspace.full(2)


@st.composite
def row_streams(draw):
    """(rows, ncols): {column: value} rows as a stream meets them.

    A few base rows of ints or Fractions, each repeated as it is and as
    integer and rational multiples of itself, shuffled among empty rows and
    rows of explicit zeros; ncols may be 0.
    """
    rng = draw(st.randoms(use_true_random=False))
    ncols = rng.randint(0, 7)

    def entry():
        x = rng.randint(-6, 6)
        return F(x, rng.randint(1, 4)) if rng.random() < 0.3 else x

    base = [{j: entry() for j in range(ncols) if rng.random() < 0.5} for _ in range(rng.randint(0, 8))]
    rows = []
    for row in base:
        rows.append(row)
        for _ in range(rng.randint(0, 2)):
            c = rng.choice((-1, 2, -3, F(1, 2), F(-2, 3)))
            rows.append({j: c * x for j, x in row.items()})
    for _ in range(rng.randint(0, 3)):
        rows.append({})
        if ncols:
            rows.append({rng.randrange(ncols): 0})
    rng.shuffle(rows)
    return rows, ncols


def _dense(rows, ncols):
    return [[row.get(j, 0) for j in range(ncols)] for row in rows]


@settings(max_examples=150, deadline=None)
@given(row_streams())
@example(([{0: 1, 1: 1}, {0: 2, 1: 2}, {1: F(1, 2)}, {}, {1: 0}], 3))
@example(([{}, {}], 0))
def test_kernel_of_a_row_stream_matches_the_fraction_oracle(system):
    rows, ncols = system
    before = [dict(r) for r in rows]
    got = kernel_of_rows((row for row in rows), ncols)
    assert got.basis == kernel_oracle(_dense(rows, ncols), ncols)
    assert got.ambient == ncols
    assert rows == before


class _ReadTooFar(Exception):
    pass


@settings(max_examples=80, deadline=None)
@given(row_streams())
@example(([{0: 1, 1: 1}, {0: 1, 1: -1}, {2: F(1, 2)}], 3))
def test_kernel_of_rows_stops_reading_once_the_kernel_is_zero(system):
    rows, ncols = system
    # the unit rows close the stream, so some prefix has a zero kernel
    rows = rows + [{j: 1} for j in range(ncols)]
    stop = next(p for p in range(len(rows) + 1) if not kernel_oracle(_dense(rows[:p], ncols), ncols))

    def stream():
        yield from rows[:stop]
        raise _ReadTooFar

    assert kernel_of_rows(stream(), ncols) == Subspace.zero(ncols)


def test_rows_without_a_nonzero_build_no_kernel_index(monkeypatch):
    from lieps import exact

    built = count_calls(monkeypatch, exact, "_unit_kernel")
    assert kernel_of_rows(iter([{}, {0: 0}, {1: F(0)}]), 4) == Subspace.full(4)
    assert kernel_of_rows(iter(()), 4) == Subspace.full(4)
    assert built == []
    units = Mat.identity(4).entries
    assert kernel_of_rows(iter([{}, {2: F(1, 3)}]), 4) == Subspace.from_vectors(4, units[:2] + units[3:])
    assert built == [(4,)]


@settings(max_examples=60, deadline=None)
@given(tall_sparse_matrices(), st.randoms(use_true_random=False))
def test_sparse_matmul_matches_entry_sums(a, rng):
    cols = rng.randint(0, 5)

    def entry():
        return F(rng.randint(-3, 3), rng.randint(1, 4)) if rng.random() < 0.4 else F(0)

    b = Mat([[entry() for _ in range(cols)] for _ in range(a.cols)], cols)
    expect = [
        [sum((a[i][t] * b[t][j] for t in range(a.cols)), F(0)) for j in range(cols)]
        for i in range(a.rows)
    ]
    got = a @ b
    assert got == Mat(expect, cols)
    assert (got.rows, got.cols) == (a.rows, cols)


def _all_fractions(m):
    return all(type(x) is F for row in m.entries for x in row)


def test_mat_operations_return_fraction_entries():
    # Mat's own operations build their results without re-coercion; inputs
    # built from ints must still come out as Fractions everywhere
    a = Mat([[1, 0, 2], [0, -3, 1]])
    b = Mat([[2, 1], [0, 0], [-1, 4]])
    c = Mat([[0, 5, 1], [1, 1, 0]])
    results = {
        "matmul": a @ b,
        "add": a + c,
        "sub": a - c,
        "neg": -a,
        "scale int": a.scale(3),
        "scale zero": a.scale(0),
        "T": a.T,
        "from_cols": Mat.from_cols([(1, 2), (0, 3), (4, 0)]),
        "identity": Mat.identity(3),
        "zero": Mat.zero(2, 3),
        "inverse": inverse(Mat([[2, 1], [1, 1]])),
    }
    for name, m in results.items():
        assert _all_fractions(m), name
    assert all(type(x) is F for x in a @ (1, 2, 3))
    assert (a @ b).entries == ((0, 9), (-1, 4))
    assert Mat.from_cols([(1, 2), (0, 3), (4, 0)]) == Mat([[1, 0, 4], [2, 3, 0]])
    with pytest.raises(ValueError):
        Mat([[1, 2], [3]])
    with pytest.raises(ValueError):
        Mat.from_cols([(1, 2), (3,)])
