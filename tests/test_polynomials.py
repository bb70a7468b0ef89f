from fractions import Fraction

import numpy as np
import pytest

from bdmlab.estimates import _divergence
from bdmlab.polynomials import (Polynomial, VectorPoly, integrate_reference,
                                monomial_indices)
from bdmlab.spaces import scaled_field

from test_moments import dot

F = Fraction
x1 = Polynomial.variable(2, 0)
x2 = Polynomial.variable(2, 1)


def evaluate(p, point):
    """The polynomial p at a point (exact for Fraction coordinates), or
    vectorized at an (m, dim) float array."""
    if isinstance(point, np.ndarray) and point.ndim == 2:
        vals = np.zeros(point.shape[0])
        for a, c in p.terms.items():
            term = np.full(point.shape[0], float(c))
            for i, ai in enumerate(a):
                if ai:
                    term *= point[:, i] ** ai
            vals += term
        return vals
    acc = 0
    for a, c in p.terms.items():
        t = c
        for i, ai in enumerate(a):
            if ai:
                t = t * point[i] ** ai
        acc = acc + t
    return acc


def test_monomial_indices_counts():
    assert len(monomial_indices(2, 1)) == 3
    assert len(monomial_indices(3, 2)) == 10
    assert len(monomial_indices(3, 4)) == 35


def test_arithmetic_stays_rational():
    p = (x1 + 2 * x2) * (x1 - F(1, 3))
    assert all(isinstance(c, Fraction) for c in p.terms.values())
    assert p.terms[(1, 0)] == -F(1, 3)
    assert p.terms[(2, 0)] == 1
    assert p.terms[(1, 1)] == 2


def test_zero_terms_dropped():
    p = x1 - x1
    assert p.is_zero()
    assert (x1 * 0).terms == {}


def test_diff():
    p = x1 ** 2
    assert p.diff(0) == 2 * x1
    assert p.diff(1).is_zero()


def test_divergence_of_paper_field():
    X = [Polynomial.variable(3, i) for i in range(3)]
    u = VectorPoly([X[0] * X[2], -X[1] * X[2], Polynomial.zero(3)])
    assert _divergence(scaled_field(u), 3).comps == [[0] * 4]


def test_pow():
    assert (x1 + x2) ** 2 == x1 ** 2 + 2 * x1 * x2 + x2 ** 2


def test_compose_affine_square():
    p = x1 ** 2 + x2
    # substitute x = (t2, t1 + 1)
    q = p.compose_affine([[0, 1], [1, 0]], [0, 1])
    t1 = Polynomial.variable(2, 0)
    t2 = Polynomial.variable(2, 1)
    assert q == t2 ** 2 + t1 + 1


def test_compose_affine_changes_dimension():
    p3 = Polynomial.monomial(3, (1, 1, 0))
    # restrict to the line x = (t, 1 - t, 0)
    q = p3.compose_affine([[1], [-1], [0]], [0, 1, 0])
    assert q.dim == 1
    t = Polynomial.variable(1, 0)
    assert q == t * (1 - t)


def test_eval_scalar_and_vectorized():
    p = 2 * x1 ** 2 + x2
    assert evaluate(p, (F(1, 2), F(3))) == F(7, 2)
    pts = np.array([[0.5, 3.0], [1.0, 0.0]])
    np.testing.assert_allclose(evaluate(p, pts), [3.5, 2.0])


def test_integrate_reference_monomials():
    assert integrate_reference(Polynomial.constant(2, F(1))) == F(1, 2)
    assert integrate_reference(x1) == F(1, 6)
    assert integrate_reference(x1 * x2) == F(1, 24)
    p3 = Polynomial.monomial(3, (1, 1, 1))
    assert integrate_reference(p3) == F(1, 720)


def test_vectorpoly_dot_and_eval():
    v = VectorPoly([x1, x2])
    assert dot(v, (F(2), F(3))) == 2 * x1 + 3 * x2
    assert dot(v, v) == x1 ** 2 + x2 ** 2
    assert tuple(evaluate(p, (F(1), F(2))) for p in v.comps) == (1, 2)


def test_vectorpoly_dim_mismatch():
    with pytest.raises(ValueError):
        VectorPoly([x1, Polynomial.variable(3, 0)])
