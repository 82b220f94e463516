"""Sparse integer Gauss-Jordan kernel.

Rows are dicts {column: int}; zero entries and all-zero rows are dropped up
front.  At each pivot only the rows with a nonzero entry f in the
pivot column are updated,

    row <- (piv/g)*row - (f/g)*pivrow,    g = gcd(piv, f),

and each updated row is then divided by its content (the gcd of its
entries).  Values never leave Z and every row stays primitive, which keeps
them small.

Skipping the rows whose multiplier f is zero is exact because each row
carries its own scale.  The one-step scheme of Bareiss (1968, Math. Comp. 22)
shares one divisor, the previous pivot, across all rows, so there every row
must be rescaled at every pivot for the next division to stay exact.  Here
nothing is shared: a row with a zero in the pivot column is already reduced
against that pivot and is left as it is.

The caller scales away denominators first and divides each returned row by
its own pivot entry to reach the RREF, which is unique, so the pivot-row
choice (the candidate with the fewest nonzeros, to limit fill-in) changes
only the intermediate integers, never the result.
"""

from math import gcd


def _primitive(row):
    content = gcd(*row.values())
    if content > 1:
        return {j: x // content for j, x in row.items()}
    return row


def _eliminate(row, piv_row, c):
    """row with its entry in column c cleared against piv_row, made primitive."""
    piv = piv_row[c]
    f = row[c]
    g = gcd(piv, f)
    a = piv // g
    b = f // g
    out = {j: a * x for j, x in row.items()}
    for j, y in piv_row.items():
        v = out.get(j, 0) - b * y
        if v:
            out[j] = v
        else:
            del out[j]
    return _primitive(out)


def rref_int_rows(m, ncols):
    """Reduce sparse integer rows, returning (rows, pivots).

    Returned row t is a {column: int} dict with its leading entry in column
    pivots[t] and zeros in every other pivot column; dividing it by that
    entry yields RREF row t.  Only the rank-many pivot rows come back.
    """
    work = []
    for r in m:
        r = {j: x for j, x in r.items() if x}
        if r:
            work.append(_primitive(r))
    reduced = []
    pivots = []
    for c in range(ncols):
        if not work:
            break
        p = -1
        for i, row in enumerate(work):
            if c in row and (p < 0 or len(row) < len(work[p])):
                p = i
        if p < 0:
            continue
        piv_row = work.pop(p)
        rest = []
        for row in work:
            if c in row:
                row = _eliminate(row, piv_row, c)
                if not row:
                    continue
            rest.append(row)
        work = rest
        for t, row in enumerate(reduced):
            if c in row:
                reduced[t] = _eliminate(row, piv_row, c)
        reduced.append(piv_row)
        pivots.append(c)
    return reduced, pivots
