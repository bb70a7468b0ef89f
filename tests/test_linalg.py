from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bdmlab import linalg


def test_solve_exact():
    A = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(3)]]
    x = linalg.solve(A, [Fraction(5), Fraction(10)])
    assert x == [Fraction(1), Fraction(3)]


def test_solve_matrix_rhs():
    A = [[2, 0], [0, 4]]
    X = linalg.solve(A, [[1, 2], [4, 8]])
    assert X == [[Fraction(1, 2), Fraction(1)], [Fraction(1), Fraction(2)]]


def test_invert_roundtrip():
    A = [[Fraction(1), Fraction(2), Fraction(3)],
         [Fraction(0), Fraction(1), Fraction(4)],
         [Fraction(5), Fraction(6), Fraction(0)]]
    inv = linalg.invert(A)
    assert linalg.matmul(A, inv) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_singular_raises():
    with pytest.raises(linalg.SingularMatrixError):
        linalg.solve([[1, 2], [2, 4]], [1, 1])


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
    assert linalg.rank([[1, 2], [2, 4], [1, 0]]) == 2


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
    assert len(basis) == ncols - linalg.rank(M)
    for vec in basis:
        assert all(isinstance(x, Fraction) for x in vec)
        for row in M:
            assert sum(r * v for r, v in zip(row, vec)) == 0


@settings(max_examples=200, deadline=None)
@given(matrices(square=True), st.data())
def test_solve_property(M, data):
    n = len(M)
    rhs = [data.draw(st.lists(rationals, min_size=2, max_size=2))
           for _ in range(n)]
    if linalg.rank(M) < n:
        with pytest.raises(linalg.SingularMatrixError):
            linalg.solve(M, rhs)
        return
    X = linalg.solve(M, rhs)
    assert linalg.matmul(M, X) == rhs
    x = linalg.solve(M, [r[0] for r in rhs])
    assert x == [r[0] for r in X]
    assert all(isinstance(v, Fraction) for v in x)
