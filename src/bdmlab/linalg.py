"""Exact linear algebra in integers.

Every routine runs one fraction-free elimination on int rows.  A row may
hold ints and Fractions, or be a `Scaled` row of ints over its own
denominator; it is scaled to ints once and divided by its content.  An
update touches only the live columns right of the pivot, since the
entries to its left are already zero, and leaves a row alone where it is
zero under the pivot.  An updated row is divided by its content, so it is
the primitive part of the row that Bareiss elimination (Math. Comp. 22,
1968) holds at that step: no entry exceeds the minor Bareiss would hold,
and on DOF matrices, whose Bareiss rows share most of their bits, the
entries stay far smaller.  Pivoting is deterministic: first nonzero
column, then the first row, in input order, that is not a pivot yet.

Back-substitution runs in integers against every right-hand side in one
pass, each unknown as ints over its own denominator in lowest terms.
`solve` eliminates M against the identity, which gives M^-1 as ints over
one positive denominator in lowest terms, a `Scaled`; `invert` returns
it.  The identity is never built: of its columns, a row stores only
those it can be nonzero in (see `_echelon`).  `nullspace` returns
Fractions.
"""

from fractions import Fraction
from math import gcd, lcm


class SingularMatrixError(ValueError):
    """Raised when a solve/inversion hits a rank-deficient matrix."""


class Scaled(list):
    """Ints, or rows of ints, over one positive `denominator`.  It compares
    as a list: equality ignores the denominator."""

    __slots__ = ("denominator",)

    def __init__(self, items, denominator):
        super().__init__(items)
        self.denominator = denominator


def over_common_denominator(values):
    """(numerators, denominator): the rationals `values` as ints over the
    lcm of their denominators."""
    values = list(values)
    dens = [x.denominator for x in values]
    den = lcm(*dens)
    return [x.numerator * (den // d) for x, d in zip(values, dens)], den


def _integer_rows(matrix):
    """(rows, scales): each row as ints divided by their content, so that
    matrix[i] == rows[i] / scales[i] with scales[i] > 0."""
    rows, scales = [], []
    for row in matrix:
        nums, den = over_common_denominator(row)
        den *= getattr(row, "denominator", 1)
        g = gcd(den, *nums)
        rows.append([x // g for x in nums])
        scales.append(den // g)
    return rows, scales


def _echelon(rows, ncols, identity=False):
    """Fraction-free forward elimination of the int `rows` over their first
    `ncols` columns, keeping every row primitive.

    Returns the pivots in elimination order as (col, row, index): `row`
    holds the pivot, then the columns right of it, then the right-hand
    side; `index` is the row's position in `rows`.  A row that is not a
    pivot yet is kept from the current column on.

    With `identity`, the rows carry the identity as their right-hand side,
    its columns in the order the rows become pivots.  Only the columns
    that can be nonzero are stored: a row holds those of the pivots so far,
    then its own, so the t-th pivot row ends in right-hand-side columns
    0..t.  An update puts in the zeros the two rows hold in each other's
    own column.
    """
    rows = [(i, [*row, 1] if identity else row) for i, row in enumerate(rows)]
    pivots = []
    for c in range(ncols):
        k = next((k for k, (_, row) in enumerate(rows) if row[0]), None)
        if k is None:
            rows = [(i, row[1:]) for i, row in rows]
            continue
        index, pivot = rows.pop(k)
        piv = pivot[0]
        tail = [*pivot[1:], 0] if identity else pivot[1:]
        updated = []
        for i, row in rows:
            ric = row[0]
            new = [*row[1:-1], 0, row[-1]] if identity else row[1:]
            if ric:
                new = [piv * a - ric * b for a, b in zip(new, tail)]
                g = gcd(*new)
                if g > 1:
                    new = [a // g for a in new]
            updated.append((i, new))
        pivots.append((c, pivot, index))
        rows = updated
        if not rows:
            break
    return pivots


def lowest_terms(nums, den):
    """(nums, den) divided by their gcd."""
    g = gcd(den, *nums)
    return [x // g for x in nums], den // g


def _back_substitute(pivots, ncols, width, x):
    """Back-substitution in integers against `width` right-hand sides at
    once.

    x[j] is (nums, den): unknown j is nums[k] / den in right-hand side k.
    Free unknowns are set on entry; each pivot unknown is filled in, over
    the lcm of the denominators it depends on times its pivot, in lowest
    terms.
    """
    for c, row, _ in reversed(pivots):
        terms = [(a, x[j]) for j, a in enumerate(row[1:ncols - c], c + 1) if a]
        common = lcm(*(den for _, (_, den) in terms))
        rhs = row[ncols - c:]
        acc = [common * b for b in rhs] + [0] * (width - len(rhs))
        for a, (nums, den) in terms:
            f = a * (common // den)
            acc = [s - f * v for s, v in zip(acc, nums)]
        x[c] = lowest_terms(acc, row[0] * common)


def solve(matrix):
    """M^-1 for a square nonsingular M, as int rows over one positive
    denominator in lowest terms (a `Scaled`)."""
    n = len(matrix)
    if not n or any(len(row) != n for row in matrix):
        raise ValueError("solve needs a nonempty square matrix")
    rows, scales = _integer_rows(matrix)
    pivots = _echelon(rows, n, identity=True)
    if len(pivots) < n:
        raise SingularMatrixError("matrix is singular")
    x = [None] * n
    _back_substitute(pivots, n, n, x)
    # M = rows / scales, so M^-1 is rows^-1 with column i times scales[i];
    # rows^-1 came with its columns in pivot order
    position = [0] * n
    for t, (_, _, i) in enumerate(pivots):
        position[i] = t
    x = [([xc[t] * s for t, s in zip(position, scales)], d) for xc, d in x]
    den = lcm(*(d for _, d in x))
    flat, den = lowest_terms([v * (den // d) for xc, d in x for v in xc], den)
    return Scaled([flat[i:i + n] for i in range(0, n * n, n)], den)


def invert(matrix):
    """M^-1 for a square nonsingular M: `solve`, called through the module
    so that a wrapper of `solve` sees every inversion."""
    return solve(matrix)


def nullspace(matrix):
    """Basis of {x : M x = 0} as lists of Fractions.

    Deterministic: one basis vector per free column, in column order, scaled
    so its free-column entry is 1.
    """
    if not matrix:
        raise ValueError("empty constraint matrix")
    ncols = len(matrix[0])
    pivots = _echelon(_integer_rows(matrix)[0], ncols)
    pivot_cols = {c for c, _, _ in pivots}
    free = [c for c in range(ncols) if c not in pivot_cols]
    x = [None] * ncols
    for k, f in enumerate(free):
        x[f] = ([int(j == k) for j in range(len(free))], 1)
    _back_substitute(pivots, ncols, len(free), x)
    return [[Fraction(nums[k], den) for nums, den in x]
            for k in range(len(free))]
