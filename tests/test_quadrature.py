import math
from fractions import Fraction

import numpy as np
import pytest

from bdmlab.geometry import Simplex, reference_simplex
from bdmlab.polynomials import Polynomial, integrate_reference, monomial_indices
from bdmlab.quadrature import map_rule, simplex_rule
from bdmlab.spaces import integrate_poly


def rule_monomial_check(dim, degree):
    """Max abs error of the rule against the exact monomial integrals,
    over all monomials up to `degree`."""
    pts, wts = simplex_rule(dim, degree)
    worst = 0.0
    for alpha in monomial_indices(dim, degree):
        approx = float(np.dot(wts, np.prod(pts ** np.array(alpha), axis=1)))
        exact = float(integrate_reference(Polynomial.monomial(dim, alpha)))
        worst = max(worst, abs(approx - exact))
    return worst


def integrate(f, simplex, degree):
    phys, wts = map_rule(simplex, degree)
    return float(np.dot(wts, f(phys)))


@pytest.mark.parametrize("dim", [1, 2, 3])
# 16 is the doubled rule 2 * stokes.QUAD_DEGREE of the Stokes layer elements
@pytest.mark.parametrize("degree", [0, 1, 2, 3, 5, 8, 12, 16])
def test_rules_exact_for_all_monomials(dim, degree):
    assert rule_monomial_check(dim, degree) < 1e-14


def test_degree2_rule_matches_exact_cross_term():
    pts, wts = simplex_rule(2, 2)
    approx = float(np.dot(wts, pts[:, 0] * pts[:, 1]))
    exact = integrate_poly(Polynomial.monomial(2, (1, 1)),
                           reference_simplex(2))
    assert abs(approx - float(exact)) < 1e-15
    assert exact == Fraction(1, 24)


def test_weights_positive_and_sum_to_volume():
    for dim, vol in [(2, 0.5), (3, 1 / 6)]:
        pts, wts = simplex_rule(dim, 6)
        assert np.all(wts > 0)
        assert abs(wts.sum() - vol) < 1e-14


def test_exp_converges_with_degree():
    # int over the unit triangle of exp(-x1) = 1/e
    tri = reference_simplex(2)
    f = lambda p: np.exp(-p[:, 0])
    errs = [abs(integrate(f, tri, deg) - 1.0 / math.e)
            for deg in (2, 6, 10, 16)]
    assert errs == sorted(errs, reverse=True) or errs[-1] < 1e-15
    assert errs[-1] < 1e-13


def test_affine_pullback():
    s = Simplex(((0, 0), (2, 0), (0, 3)))
    val = integrate(lambda p: np.ones(len(p)), s, 1)
    assert abs(val - 3.0) < 1e-14


def test_negative_degree_rejected():
    with pytest.raises(ValueError):
        simplex_rule(2, -1)
    with pytest.raises(ValueError):
        map_rule(reference_simplex(2), -2)
