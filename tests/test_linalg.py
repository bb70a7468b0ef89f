from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bdmlab import linalg


def matmul(a, b):
    """Plain exact matrix product: the oracle for `solve` and `invert`."""
    return [[sum(a[i][k] * b[k][j] for k in range(len(b)))
             for j in range(len(b[0]))] for i in range(len(a))]


# -- the oracle: Fraction Bareiss over [M | I], as linalg did it before it
# -- took int rows and carried the identity implicitly

def fraction_invert(matrix):
    """M^-1 as lists of Fractions: each row of [M | I] scaled to ints,
    Bareiss over all its columns, then one integer back-substitution per
    column of I."""
    n = len(matrix)
    rhs = [[int(i == j) for j in range(n)] for i in range(n)]
    rows = []
    for row, b in zip(matrix, rhs):
        row = [Fraction(x) for x in list(row) + list(b)]
        den = 1
        for x in row:
            den = den * x.denominator // gcd(den, x.denominator)
        rows.append([x.numerator * (den // x.denominator) for x in row])
    prev, pivots = 1, []
    for c in range(n):
        r = len(pivots)
        pr = next((i for i in range(r, n) if rows[i][c] != 0), None)
        if pr is None:
            raise linalg.SingularMatrixError("matrix is singular")
        rows[r], rows[pr] = rows[pr], rows[r]
        piv = rows[r][c]
        for i in range(r + 1, n):
            ric = rows[i][c]
            rows[i] = [(piv * rows[i][j] - ric * rows[r][j]) // prev
                       for j in range(len(rows[i]))]
        pivots.append((r, c))
        prev = piv
    det = prev
    cols = []
    for k in range(len(rhs[0])):
        scaled = [0] * n
        for r, c in pivots:
            scaled[c] = det * rows[r][n + k]
        for r, c in reversed(pivots):
            s = scaled[c] - sum(rows[r][j] * scaled[j] for j in range(c + 1, n))
            scaled[c] = s // rows[r][c]
        cols.append([Fraction(x, det) for x in scaled])
    return [list(row) for row in zip(*cols)]


def rank(matrix):
    """Rank by Fraction row reduction: the oracle for the dimension of
    `nullspace` and for singular systems."""
    rows = [[Fraction(x) for x in row] for row in matrix]
    r = 0
    for c in range(len(rows[0]) if rows else 0):
        p = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        for i in range(r + 1, len(rows)):
            f = rows[i][c] / rows[r][c]
            rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
    return r


def as_fractions(scaled):
    """A `Scaled` matrix as Fractions."""
    den = scaled.denominator
    return [[Fraction(x, den) for x in row] for row in scaled]


def assert_reduced(scaled):
    """Ints over a positive denominator that shares no factor with all of
    them."""
    entries = [x for row in scaled for x in row] if isinstance(
        scaled[0], list) else list(scaled)
    assert all(type(x) is int for x in entries)
    assert type(scaled.denominator) is int and scaled.denominator > 0
    assert gcd(scaled.denominator, *entries) == 1


def test_solve_exact():
    A = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(3)]]
    X = linalg.solve(A)
    assert X == [[3, -1], [-1, 2]] and X.denominator == 5
    assert as_fractions(X) == fraction_invert(A)


def test_invert_roundtrip():
    A = [[Fraction(1), Fraction(2), Fraction(3)],
         [Fraction(0), Fraction(1), Fraction(4)],
         [Fraction(5), Fraction(6), Fraction(0)]]
    inv = linalg.invert(A)
    assert matmul(A, as_fractions(inv)) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert inv == [[-24, 18, 5], [20, -15, -4], [-5, 4, 1]]
    assert inv.denominator == 1


def test_invert_scaled_rows():
    # a row may be ints over its own denominator: M = [[1/2, 1/2], [0, 1/3]]
    rows = [linalg.Scaled([1, 1], 2), linalg.Scaled([0, 1], 3)]
    inv = linalg.invert(rows)
    assert inv == [[2, -3], [0, 3]] and inv.denominator == 1
    # `Scaled` compares as a list, so compare the values
    assert as_fractions(inv) == as_fractions(linalg.invert(
        [[Fraction(1, 2), Fraction(1, 2)], [0, Fraction(1, 3)]]))


def test_singular_raises():
    with pytest.raises(linalg.SingularMatrixError):
        linalg.solve([[1, 2], [2, 4]])


@pytest.mark.parametrize("call", [
    lambda: linalg.invert([[1, 2, 3], [4, 5, 6]]),
    lambda: linalg.invert([[1, 2], [3, 4], [5, 6]]),
    lambda: linalg.solve([[1, 2, 3], [4, 5, 6]]),
    lambda: linalg.solve([[1, 2], [3, 4], [5, 6]]),
    lambda: linalg.invert([]),
], ids=["invert-2x3", "invert-3x2", "solve-2x3", "solve-3x2", "invert-empty"])
def test_non_square_raises(call):
    # a 2 x 3 matrix used to give the inverse of its first two columns,
    # and a 3 x 2 one an IndexError
    with pytest.raises(ValueError) as info:
        call()
    assert not isinstance(info.value, linalg.SingularMatrixError)


def test_nullspace_simple():
    # x + y + z = 0 has a 2-dimensional solution space
    basis = linalg.nullspace([[1, 1, 1]])
    assert len(basis) == 2
    for vec in basis:
        assert sum(vec) == 0


def test_nullspace_full_rank_is_empty():
    assert linalg.nullspace([[1, 0], [0, 1]]) == []


def test_nullspace_deterministic_and_exact():
    M = [[Fraction(1, 3), Fraction(2, 7), Fraction(1)],
         [Fraction(2, 3), Fraction(4, 7), Fraction(2)]]
    b1 = linalg.nullspace(M)
    b2 = linalg.nullspace(M)
    assert b1 == b2
    for vec in b1:
        assert all(isinstance(x, Fraction) for x in vec)
        for row in M:
            assert sum(r * v for r, v in zip(row, vec)) == 0


def test_rank():
    assert rank([[1, 2], [2, 4], [1, 0]]) == 2


# -- integer back-substitution against the defining equations ---------------------

rationals = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4))


@st.composite
def matrices(draw, square=False):
    nrows = draw(st.integers(1, 6))
    ncols = nrows if square else draw(st.integers(1, 7))
    rows = [draw(st.lists(rationals, min_size=ncols, max_size=ncols))
            for _ in range(nrows)]
    if nrows > 1 and draw(st.booleans()):
        # a dependent row makes rank deficiency common
        rows[-1] = [2 * a - b for a, b in zip(rows[0], rows[1])]
    return rows


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_nullspace_property(M):
    ncols = len(M[0])
    basis = linalg.nullspace(M)
    assert len(basis) == ncols - rank(M)
    for vec in basis:
        assert all(isinstance(x, Fraction) for x in vec)
        for row in M:
            assert sum(r * v for r, v in zip(row, vec)) == 0


@settings(max_examples=200, deadline=None)
@given(matrices(square=True))
def test_solve_property(M):
    n = len(M)
    if rank(M) < n:
        with pytest.raises(linalg.SingularMatrixError):
            linalg.solve(M)
        return
    X = linalg.solve(M)
    assert matmul(M, as_fractions(X)) == [[int(i == j) for j in range(n)]
                                          for i in range(n)]
    assert isinstance(X, linalg.Scaled)
    assert_reduced(X)


# -- solve and invert against the Fraction oracle --------------------------------

integers = st.integers(-9, 9)


@st.composite
def square_matrices(draw, entries):
    """Square matrices with the cases the integer core must handle: zero
    leading pivots (rows must be swapped), rows with a common content, a
    negated row (both signs of the determinant) and dependent rows."""
    n = draw(st.integers(1, 6))
    M = [draw(st.lists(entries, min_size=n, max_size=n)) for _ in range(n)]
    if n > 1 and draw(st.booleans()):
        M[0][0] = 0
        if n > 2 and draw(st.booleans()):
            M[1][0] = 0
    if draw(st.booleans()):
        i = draw(st.integers(0, n - 1))
        k = draw(st.integers(2, 12))
        M[i] = [k * x for x in M[i]]
    if draw(st.booleans()):
        M[0] = [-x for x in M[0]]
    if n > 1 and draw(st.integers(0, 3)) == 0:
        M[-1] = [a + 2 * b for a, b in zip(M[0], M[1])]
    return M


def check_against_oracle(M):
    n = len(M)
    try:
        want = fraction_invert(M)
    except linalg.SingularMatrixError:
        with pytest.raises(linalg.SingularMatrixError):
            linalg.invert(M)
        return
    inv = linalg.invert(M)
    assert isinstance(inv, linalg.Scaled)
    assert_reduced(inv)
    assert as_fractions(inv) == want
    den = inv.denominator
    assert matmul(M, inv) == [[den * (i == j) for j in range(n)]
                              for i in range(n)]


@settings(max_examples=300, deadline=None)
@given(square_matrices(integers))
def test_integer_matrices_match_oracle(M):
    check_against_oracle(M)


@settings(max_examples=300, deadline=None)
@given(square_matrices(rationals))
def test_rational_matrices_match_oracle(M):
    check_against_oracle(M)


@pytest.mark.parametrize("M", [
    [[5]], [[-3]], [[Fraction(-2, 3)]], [[0]],
    [[0, 1], [1, 0]],                       # zero leading pivot, det -1
    [[2, 4], [6, 8]],                       # rows with content 2 and 2
    [[0, 0, 1], [0, 2, 0], [3, 0, 0]],      # two swaps, det -6
    [[0, 0, 1], [0, 0, 2], [1, 1, 1]],      # singular after a swap
    [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 4), Fraction(-1, 5)]],
])
def test_edge_cases_match_oracle(M):
    check_against_oracle(M)
