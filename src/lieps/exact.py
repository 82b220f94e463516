"""Exact rational linear algebra over Q.

Dense matrices of fractions.Fraction, reduced row echelon form as the
canonical normal form, subspaces stored by their integer RREF rows so
equality is a syntactic check, their Fraction bases a view built on first
use.  Everything is immutable and deterministic; there is no floating point
anywhere.

Inside, the hot loops run on integers over one common denominator:
`to_ints` scales rationals by the lcm of their denominators, and `from_ints`
(or `Mat.from_ints`) turns integers over a denominator back into Fractions
at the edge.  Elimination runs on sparse integer rows: each rational row is
scaled into a {column: int} dict of its nonzeros and handed to the one
fraction-free kernel `_rref_int_rows`.  Its cost follows the nonzeros, not
the shape: the rows wait in buckets by leading column, so the step at
column c touches only the rows that lead there (bucket[c] is exactly the
set of rows holding c, since every waiting row leads at c or later), and
one back-substitution from the last pivot up clears each pivot row at the
later pivots it holds.  The RREF is unique, so this order of work changes
no output.  `kernel_of_rows` reads such rows as a stream and keeps the
kernel rather than the row space: integer vectors, the unit vectors once a
nonzero row arrives, each row cutting only the vectors it meets and a
redundant row cutting none, so a constraint system assembled from its
nonzeros never becomes a dense matrix and the rows after the kernel is zero
are never read.  Every integer row update, in the elimination, the kernel
cut and a subspace's membership test, is the one `_cancel`.  The structure
constants of `liecore` are stored in the same integer form.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import NoSolution

QQ = Fraction


def vec(xs) -> tuple:
    """Coerce a sequence into a tuple of Fractions."""
    return tuple(x if isinstance(x, Fraction) else Fraction(x) for x in xs)


def to_ints(pairs) -> tuple:
    """Integer form of (key, rational) pairs over their common denominator.

    Returns (((key, d x), ...), d) with d the lcm of the denominators; ints
    count as rationals with denominator 1.
    """
    pairs = tuple(pairs)
    d = 1
    for _, x in pairs:
        q = x.denominator
        if q != 1:
            d = lcm(d, q)
    return tuple((k, x.numerator * (d // x.denominator)) for k, x in pairs), d


def from_ints(values, d) -> tuple:
    """The Fractions v / d of integers v over one positive denominator d."""
    zero = Fraction(0)
    return tuple(Fraction(v, d) if v else zero for v in values)


def int_vectors(vectors) -> tuple:
    """(nz, d): the vectors are N / d over one denominator d; nz[s] lists the nonzeros (k, N_sk).

    On the rows of M.T it gives the integer columns of M.
    """
    ints, d = to_ints(((s, k), x) for s, v in enumerate(vectors) for k, x in enumerate(v) if x)
    nz = [[] for _ in vectors]
    for (s, k), x in ints:
        nz[s].append((k, x))
    return nz, d


def dot(a, b) -> Fraction:
    if len(a) != len(b):
        raise ValueError(f"shape mismatch: dot of lengths {len(a)} and {len(b)}")
    acc = Fraction(0)
    for x, y in zip(a, b):
        # most entries on the hot path are zero; skip their products
        if x and y:
            acc += x * y
    return acc


def vsub(a, b) -> tuple:
    return tuple(x - y if y else x for x, y in zip(a, b))


def zero_vec(n) -> tuple:
    return (Fraction(0),) * n


class Mat:
    """Immutable dense rational matrix.

    Parameters
    ----------
    entries : iterable of rows
        Row-major grid; every entry is coerced to Fraction.
    cols : int, optional
        Column count; needed only when there are no rows, so that a 0 x n
        matrix keeps its shape.
    """

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries, cols=None):
        rows = tuple(vec(r) for r in entries)
        self.entries = rows
        self.rows = len(rows)
        self.cols = len(rows[0]) if rows else (cols or 0)
        for r in rows:
            if len(r) != self.cols:
                raise ValueError("ragged rows")

    @classmethod
    def _trusted(cls, rows, cols) -> "Mat":
        """Wrap rows that are already equal-length tuples of Fractions.

        Used by Mat's own operations and by builders of Fraction rows, so
        their entries are not coerced and their shape is not checked again.
        """
        m = object.__new__(cls)
        m.entries = rows
        m.rows = len(rows)
        m.cols = cols
        return m

    @classmethod
    def identity(cls, n) -> "Mat":
        one, zero = Fraction(1), Fraction(0)
        return cls._trusted(
            tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n)), n
        )

    @classmethod
    def zero(cls, r, c) -> "Mat":
        return cls._trusted(((Fraction(0),) * c,) * r, c)

    @classmethod
    def from_cols(cls, cols, rows=None) -> "Mat":
        """Matrix with the given columns; rows sizes an empty column list."""
        cols = [vec(c) for c in cols]
        if not cols:
            return cls._trusted(((),) * (rows or 0), 0)
        n = len(cols[0])
        if any(len(c) != n for c in cols):
            raise ValueError("ragged columns")
        return cls._trusted(tuple(zip(*cols)), len(cols))

    @classmethod
    def from_ints(cls, rows, d) -> "Mat":
        """The matrix N / d of equal-length integer rows N over one denominator d."""
        rows = tuple(from_ints(r, d) for r in rows)
        return cls._trusted(rows, len(rows[0]) if rows else 0)

    def sparse_rows(self) -> tuple:
        """Rows as {column: value} dicts of their nonzero entries."""
        return tuple({j: x for j, x in enumerate(r) if x} for r in self.entries)

    def __getitem__(self, i):
        return self.entries[i]

    def col(self, j) -> tuple:
        return tuple(r[j] for r in self.entries)

    @property
    def T(self) -> "Mat":
        if not self.entries:
            return Mat._trusted(((),) * self.cols, 0)
        return Mat._trusted(tuple(zip(*self.entries)), self.rows)

    def __eq__(self, other):
        return isinstance(other, Mat) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __add__(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in +")
        # adding a zero keeps the entry; the hot path is mostly zeros
        add = (tuple(x + y if y else x for x, y in zip(r, s)) for r, s in zip(self.entries, other.entries))
        return Mat._trusted(tuple(add), self.cols)

    def __sub__(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in -")
        return Mat._trusted(tuple(map(vsub, self.entries, other.entries)), self.cols)

    def __neg__(self):
        return Mat._trusted(tuple(tuple(-x for x in r) for r in self.entries), self.cols)

    def scale(self, c) -> "Mat":
        c = Fraction(c)
        return Mat._trusted(tuple(tuple(c * x for x in r) for r in self.entries), self.cols)

    def __matmul__(self, other):
        if isinstance(other, Mat):
            if self.cols != other.rows:
                raise ValueError(f"shape mismatch: {self.cols} columns @ {other.rows} rows")
            # row i of the product sums x * (row k of other) over the nonzeros
            # x = self[i][k], so only nonzero products are formed
            other_rows = other.sparse_rows()
            out = []
            for r in self.entries:
                acc = [Fraction(0)] * other.cols
                for k, x in enumerate(r):
                    if x:
                        for j, y in other_rows[k].items():
                            acc[j] += x * y
                out.append(tuple(acc))
            return Mat._trusted(tuple(out), other.cols)
        # vector on the right
        v = vec(other)
        if self.cols != len(v):
            raise ValueError(f"shape mismatch: {self.cols} columns @ length {len(v)}")
        return tuple(dot(r, v) for r in self.entries)

    def apply_T(self, v) -> tuple:
        """Multiply the transpose by a vector without materializing it."""
        v = vec(v)
        if self.rows != len(v):
            raise ValueError(f"shape mismatch: {self.rows} rows @ length {len(v)}")
        return tuple(dot(self.col(j), v) for j in range(self.cols))

    def is_zero(self) -> bool:
        return all(x == 0 for r in self.entries for x in r)

    def is_skew(self) -> bool:
        return self.rows == self.cols and all(
            self.entries[i][j] == -self.entries[j][i]
            for i in range(self.rows)
            for j in range(i, self.cols)
        )

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in r) for r in self.entries)
        return f"Mat[{self.rows}x{self.cols}: {body}]"


def mat_lincomb(coeffs, mats, n) -> Mat:
    """sum_a coeffs[a] mats[a] of n x n matrices; a lone unit coefficient returns its matrix."""
    out = None
    for x, m in zip(coeffs, mats):
        if x:
            term = m if x == 1 else m.scale(x)
            out = term if out is None else out + term
    return Mat.zero(n, n) if out is None else out


def _primitive(row):
    content = gcd(*row.values())
    if content > 1:
        return {j: x // content for j, x in row.items()}
    return row


def _cancel(row, f, other, e):
    """(e/g) row - (f/g) other with g = gcd(e, f), made primitive.

    The one row update of the module: when a linear form takes the value f
    on row and e on other, it vanishes on the result.  Values never leave Z.
    """
    g = gcd(e, f)
    a = e // g
    b = f // g
    out = {j: a * x for j, x in row.items()}
    for j, y in other.items():
        v = out.get(j, 0) - b * y
        if v:
            out[j] = v
        else:
            del out[j]
    return _primitive(out)


def _eliminate(row, piv_row, c):
    """row with its entry in column c cleared against piv_row, made primitive."""
    return _cancel(row, row[c], piv_row, piv_row[c])


def _rref_int_rows(m, ncols):
    """Sparse integer Gauss-Jordan on {column: int} rows: (rows, pivots).

    Zero entries and all-zero rows are dropped up front, and each row is
    filed in the bucket of its leading (smallest) column.

    Forward pass, c = 0, 1, ...: every bucket before c has been emptied, its
    pivot kept and its other rows cleared at that column and filed again
    further on, so every row still waiting leads at c or later.  A row
    holding c therefore leads at c: the rows holding column c are exactly
    bucket[c], and no other row is looked at.  The pivot is the row of
    bucket[c] with the fewest nonzeros, to limit fill-in, negated if it
    leads negative.  Each other row of the bucket is updated,
    row <- (piv/g) row - (f/g) pivrow with g = gcd(piv, f), and divided by
    its content, so values never leave Z and every row stays primitive; it
    then leads after c and is filed again by its new leading column, or
    dropped if it vanished.  Each row carries its own scale, so a row not
    holding c is left as it is; the one-step scheme of Bareiss (1968,
    Math. Comp. 22) shares the previous pivot as a divisor across all rows,
    so it must rescale every row at every pivot.

    Back-substitution, from the last pivot up: a pivot row is cleared only
    at the later pivot columns it holds, found through the pivot -> row
    map, against rows already fully reduced.  Such a row is zero at every
    other pivot column, so clearing one column never brings back an entry
    in another, and one pass over the row's own nonzeros suffices.

    Returned row t has its leading entry in column pivots[t] and zeros in
    every other pivot column; dividing it by that entry yields RREF row t.
    Every update scales a row by piv/g > 0, so the rows are the unique
    primitive integer form of the RREF, with positive leading entries: the
    pivot choices change only the intermediate integers.  Only the
    rank-many pivot rows come back.
    """
    buckets = {}
    for r in m:
        r = {j: x for j, x in r.items() if x}
        if r:
            buckets.setdefault(min(r), []).append(_primitive(r))
    reduced = []
    pivots = []
    for c in range(ncols):
        if not buckets:
            break
        bucket = buckets.pop(c, None)
        if bucket is None:
            continue
        first = bucket[0] if len(bucket) == 1 else min(bucket, key=len)
        piv_row = {j: -x for j, x in first.items()} if first[c] < 0 else first
        for row in bucket:
            if row is not first:
                row = _eliminate(row, piv_row, c)
                if row:
                    buckets.setdefault(min(row), []).append(row)
        reduced.append(piv_row)
        pivots.append(c)
    # where maps the pivots after t to their rows, each already fully reduced
    where = {}
    for t in range(len(pivots) - 1, -1, -1):
        row = reduced[t]
        for P in [j for j in row if j in where]:
            row = _eliminate(row, reduced[where[P]], P)
        reduced[t] = row
        where[pivots[t]] = t
    return reduced, pivots


def rref(m: Mat):
    """Reduced row echelon form.

    Returns (Mat, pivot_columns): the RREF basis of the row space, then
    zero rows.  The RREF is unique, so the result does not depend on
    pivot-row choices.
    """
    space = Subspace._of_rows(m.cols, m.sparse_rows())
    zeros = (zero_vec(m.cols),) * (m.rows - space.dim)
    return Mat._trusted(space.basis + zeros, m.cols), list(space.pivots)


def inverse(m: Mat) -> Mat:
    """Exact inverse, m scaled to ints and inverted by inverse_ints; raises ValueError on a singular input."""
    n = m.rows
    if n != m.cols:
        raise ValueError(f"inverse of a non-square {n}x{m.cols} matrix")
    ints, d = to_ints(enumerate(x for row in m.entries for x in row))
    return Mat.from_ints(*inverse_ints([[x for _, x in ints[i * n:(i + 1) * n]] for i in range(n)], d))


def inverse_ints(rows, d) -> tuple:
    """(N, e): the inverse N / e of the square integer matrix rows / d, e > 0 least; ValueError if singular.

    Row t of the elimination of [rows | I] is c_t e_t, then c_t times row t of rows^-1.
    """
    n = len(rows)
    aug = [{**{j: x for j, x in enumerate(row) if x}, n + i: 1} for i, row in enumerate(rows)]
    red, pivots = _rref_int_rows(aug, 2 * n)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    e = lcm(*(R[t] for t, R in enumerate(red)))
    N = [[d * R.get(n + j, 0) * (e // R[t]) for j in range(n)] for t, R in enumerate(red)]
    g = gcd(e, *(x for row in N for x in row))
    return tuple(tuple(x // g for x in row) for row in N), e // g


class Subspace:
    """Subspace of Q^n stored by its integer RREF rows.

    rows[t] = (P, R), pivots P increasing, holds the nonzeros {column: int}
    of the primitive row R of _rref_int_rows, with R[P] > 0; R / R[P] is row
    t of the RREF basis.  That form is unique for the space, so two
    subspaces are equal iff their rows are.  The Fraction basis is a view
    of the rows, built on first use; membership and coordinates are one
    integer residual test against the rows.
    """

    __slots__ = ("ambient", "rows", "_basis")

    def __init__(self, ambient, rows):
        # trusted constructor; use from_vectors for raw input
        self.ambient = ambient
        self.rows = rows
        self._basis = None

    @classmethod
    def _of_rows(cls, ambient, rows) -> "Subspace":
        """The span of sparse {column: value} rows; rows holding a non-int are scaled to ints first."""
        if not rows:
            return cls(ambient, ())
        if any(type(x) is not int for r in rows for x in r.values()):
            rows = [dict(to_ints(r.items())[0]) for r in rows]
        red, pivots = _rref_int_rows(rows, ambient)
        return cls(ambient, tuple(zip(pivots, red)))

    @classmethod
    def from_vectors(cls, ambient, vectors) -> "Subspace":
        """The span of vectors of ints and Fractions; integer vectors are eliminated as they stand."""
        vectors = list(vectors)
        if any(len(v) != ambient for v in vectors):
            raise ValueError("ambient mismatch")
        return cls._of_rows(ambient, [{k: x for k, x in enumerate(v) if x} for v in vectors])

    @classmethod
    def full(cls, ambient) -> "Subspace":
        # the unit rows are already the canonical form
        return cls(ambient, tuple((j, {j: 1}) for j in range(ambient)))

    @classmethod
    def zero(cls, ambient) -> "Subspace":
        return cls(ambient, ())

    @property
    def basis(self) -> tuple:
        if self._basis is None:
            self._basis = tuple(
                from_ints([R.get(k, 0) for k in range(self.ambient)], R[P]) for P, R in self.rows
            )
        return self._basis

    @property
    def pivots(self) -> tuple:
        return tuple(P for P, _ in self.rows)

    @property
    def dim(self) -> int:
        return len(self.rows)

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.ambient == other.ambient
            and self.rows == other.rows
        )

    def __hash__(self):
        # equal subspaces share their pivots
        return hash((self.ambient, self.pivots))

    def residual(self, row) -> dict:
        """A {column: int} row cleared at each pivot P by _eliminate against R.

        R vanishes at the other pivots, so one pass clears them all, and the
        residual is empty exactly when the row lies in the space.
        """
        row = {j: x for j, x in row.items() if x}
        for P, R in self.rows:
            if P in row:
                row = _eliminate(row, R, P)
        return row

    def contains(self, v) -> bool:
        v = vec(v)
        if len(v) != self.ambient:
            raise ValueError("ambient mismatch")
        return not self.residual(dict(to_ints((k, x) for k, x in enumerate(v) if x)[0]))

    def coords_of(self, v) -> tuple:
        """Coefficients of v in the RREF basis, its pivot entries; NoSolution if v is outside."""
        v = vec(v)
        if not self.contains(v):
            raise NoSolution("vector outside subspace")
        return tuple(v[p] for p in self.pivots)

    def __repr__(self):
        return f"Subspace(dim {self.dim} of Q^{self.ambient})"


def _unit_kernel(ncols):
    """The unit vectors of Q^ncols keyed by their column, and the column -> keys index of their supports."""
    return {j: {j: 1} for j in range(ncols)}, {j: {j} for j in range(ncols)}


def kernel_of_rows(rows, ncols) -> Subspace:
    """RREF basis of {x in Q^ncols : sum_j row[j] x_j = 0 for every row}.

    rows is any iterable of {column: value} dicts of rationals (absent
    entries are zero), read one at a time; a row holding a non-int is
    scaled to ints on its own.  The kernel itself is kept and cut, not the
    row space: integer vectors, the unit vectors once the first nonzero row
    arrives, with an index from each column to the vectors holding it.  A
    row is dotted only with the vectors its nonzeros meet; if every dot is
    zero it is redundant and costs nothing more.  Otherwise the hit vector
    k0 with the fewest nonzeros (ties to the smaller key) is dropped, and
    each other hit vector k with dot s becomes _cancel(k, s, k0, s0): the
    vectors stay independent and span the kernel of the rows read so far.
    Once none is left the kernel is zero and no further row is read (on
    Q^0, no row at all).  The survivors go to the unique RREF of
    Subspace._of_rows, so the result does not depend on the order of the
    rows or of the work.
    """
    if not ncols:
        return Subspace.zero(0)
    vecs = None
    for row in rows:
        if not all(type(x) is int for x in row.values()):
            row = dict(to_ints(row.items())[0])
        if vecs is None:
            if not any(row.values()):
                continue
            vecs, index = _unit_kernel(ncols)
        dots = {}
        for j, x in row.items():
            if x:
                for t in index[j]:
                    dots[t] = dots.get(t, 0) + x * vecs[t][j]
        hit = [t for t, s in dots.items() if s]
        if not hit:
            continue
        t0 = hit[0] if len(hit) == 1 else min(hit, key=lambda t: (len(vecs[t]), t))
        k0 = vecs.pop(t0)
        s0 = dots[t0]
        for j in k0:
            index[j].discard(t0)
        for t in hit:
            if t != t0:
                k = vecs[t]
                vecs[t] = cut = _cancel(k, dots[t], k0, s0)
                for j in cut.keys() - k.keys():
                    index[j].add(t)
                for j in k.keys() - cut.keys():
                    index[j].discard(t)
        if not vecs:
            return Subspace.zero(ncols)
    if vecs is None:
        return Subspace.full(ncols)
    return Subspace._of_rows(ncols, list(vecs.values()))


def kernel(m: Mat) -> Subspace:
    """RREF basis of the nullspace {x : m @ x = 0}."""
    return kernel_of_rows(m.sparse_rows(), m.cols)


def solve(m: Mat, b):
    """One particular solution of m @ x = b, free variables zeroed.

    Raises NoSolution when b is outside the column space.
    """
    b = vec(b)
    if len(b) != m.rows:
        raise ValueError(f"shape mismatch: {m.rows} rows, right-hand side of length {len(b)}")
    aug = Mat._trusted(tuple(r + (bb,) for r, bb in zip(m.entries, b)), m.cols + 1)
    red, pivots = rref(aug)
    if m.cols in pivots:
        raise NoSolution("right-hand side outside column space")
    x = [Fraction(0)] * m.cols
    for t, p in enumerate(pivots):
        x[p] = red.entries[t][m.cols]
    return tuple(x)
