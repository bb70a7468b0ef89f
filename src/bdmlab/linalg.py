"""Exact linear algebra over rationals.

All routines work on lists of lists of Fractions (or ints).  Elimination is
fraction-free in the forward pass: rows are scaled to integers and reduced
with Bareiss updates, so intermediate entries stay integral and exact.
Pivoting is deterministic: first nonzero column, lowest row.
"""

from fractions import Fraction
from math import gcd


class SingularMatrixError(ValueError):
    """Raised when a solve/inversion hits a rank-deficient matrix."""


def _integer_rows(matrix):
    """Scale each row by the lcm of its denominators; returns int rows."""
    out = []
    for row in matrix:
        row = [Fraction(x) for x in row]
        scale = 1
        for x in row:
            scale = scale * x.denominator // gcd(scale, x.denominator)
        out.append([int(x * scale) for x in row])
    return out


def _bareiss_echelon(rows, ncols):
    """In-place fraction-free forward elimination.

    Returns the pivot list [(row, col), ...].  Entries below each pivot are
    zeroed; rows keep integer entries throughout.
    """
    pivots = []
    prev = 1
    r = 0
    nrows = len(rows)
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if rows[i][c] != 0), None)
        if pr is None:
            continue
        if pr != r:
            rows[r], rows[pr] = rows[pr], rows[r]
        piv = rows[r][c]
        for i in range(r + 1, nrows):
            ric = rows[i][c]
            rows[i] = [(piv * rows[i][j] - ric * rows[r][j]) // prev
                       for j in range(len(rows[i]))]
        pivots.append((r, c))
        prev = piv
        r += 1
        if r == nrows:
            break
    return pivots


def _last_pivot(rows, pivots):
    """The last Bareiss pivot: up to sign, the determinant of the pivot rows
    and columns of the integer system, so det * x is integral for every
    solution x of that square system (Cramer's rule)."""
    if not pivots:
        return 1
    r, c = pivots[-1]
    return rows[r][c]


def _back_substitute(rows, pivots, scaled, ncols):
    """Integer back-substitution on the echelon rows, in place.

    On entry `scaled` holds det times the right-hand side at each pivot
    column and det times the fixed free unknowns; on exit it holds det
    times the solution.  Every division is exact because det * x is
    integral.
    """
    for r, c in reversed(pivots):
        row = rows[r]
        s = scaled[c] - sum(row[j] * scaled[j] for j in range(c + 1, ncols))
        scaled[c] = s // row[c]


def nullspace(matrix, ncols=None):
    """Basis of {x : M x = 0} as lists of Fractions.

    Deterministic: one basis vector per free column, in column order, scaled
    so its free-column entry is 1.
    """
    if not matrix:
        raise ValueError("empty constraint matrix; pass ncols for no-op")
    if ncols is None:
        ncols = len(matrix[0])
    rows = _integer_rows(matrix)
    pivots = _bareiss_echelon(rows, ncols)
    pivot_cols = [c for _, c in pivots]
    free_cols = [c for c in range(ncols) if c not in pivot_cols]
    det = _last_pivot(rows, pivots)
    basis = []
    for f in free_cols:
        scaled = [0] * ncols
        scaled[f] = det
        _back_substitute(rows, pivots, scaled, ncols)
        basis.append([Fraction(x, det) for x in scaled])
    return basis


def solve(matrix, rhs):
    """Solve M x = b exactly for square nonsingular M.

    `rhs` may be a vector or a list of columns (matrix with n rows); returns
    the solution in the same shape.
    """
    n = len(matrix)
    vector_rhs = rhs and not isinstance(rhs[0], (list, tuple))
    cols = [[x] for x in rhs] if vector_rhs else [list(r) for r in rhs]
    nrhs = len(cols[0])
    aug = [list(matrix[i]) + list(cols[i]) for i in range(n)]
    rows = _integer_rows(aug)
    pivots = _bareiss_echelon(rows, n)
    if len(pivots) < n:
        raise SingularMatrixError("matrix is singular")
    det = _last_pivot(rows, pivots)
    sol_cols = []
    for k in range(nrhs):
        scaled = [0] * n
        for r, c in pivots:
            scaled[c] = det * rows[r][n + k]
        _back_substitute(rows, pivots, scaled, n)
        sol_cols.append([Fraction(x, det) for x in scaled])
    if vector_rhs:
        return sol_cols[0]
    return [list(row) for row in zip(*sol_cols)]


def invert(matrix):
    """Exact inverse of a square rational matrix."""
    n = len(matrix)
    eye = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    return solve(matrix, eye)


def matmul(a, b):
    """Plain exact matrix product (small matrices only)."""
    return [[sum(a[i][k] * b[k][j] for k in range(len(b)))
             for j in range(len(b[0]))] for i in range(len(a))]


def rank(matrix, ncols=None):
    if not matrix:
        return 0
    if ncols is None:
        ncols = len(matrix[0])
    rows = _integer_rows(matrix)
    return len(_bareiss_echelon(rows, ncols))
