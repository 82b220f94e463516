from lieps._rref_py import rref_int_rows


def test_pure_python_kernel_stays_integral():
    # gcd-scaled updates must stay in Z and leave every returned row with a
    # nonzero pivot; a truncating division would also show up as a wrong
    # rref through the Fraction oracle in test_exact
    m = [{0: 3, 1: 1, 2: 4}, {0: 1, 1: 5, 2: 9}, {}, {0: 2, 1: 6, 2: 5}, {0: 6, 1: 2, 2: 8}]
    rows, piv = rref_int_rows(m, 3)
    assert piv == [0, 1, 2]
    assert len(rows) == 3
    for t, c in enumerate(piv):
        assert all(isinstance(x, int) and x != 0 for x in rows[t].values())
        assert rows[t][c] != 0
        assert all(p not in rows[t] for p in piv if p != c)
