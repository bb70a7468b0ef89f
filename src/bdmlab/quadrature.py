"""Collapsed (Duffy-style) tensor Gauss rules on reference simplices.

The degree argument is a guarantee: the rule integrates every polynomial up
to that total degree exactly on the reference simplex.  Non-polynomial
fields are integrated by affine pullback onto the reference element.
"""

from functools import lru_cache

import numpy as np


@lru_cache(maxsize=None)
def gauss_01(n):
    """n-point Gauss-Legendre rule on [0, 1]."""
    if n < 1:
        raise ValueError("need at least one point")
    x, w = np.polynomial.legendre.leggauss(n)
    return (x + 1.0) / 2.0, w / 2.0


@lru_cache(maxsize=None)
def simplex_rule(dim, degree):
    """Points (m, dim) and weights (m,) on the unit reference simplex.

    A tensor Gauss rule on the unit cube, collapsed onto the simplex by
    x_i = u_i prod_{j<i} (1 - u_j) with Jacobian prod_i (1 - u_i)^(dim-1-i).
    The Jacobian raises the per-direction polynomial degree by up to
    dim - 1, hence the padded point count.
    """
    if degree < 0:
        raise ValueError("degree must be >= 0")
    u, wu = gauss_01((degree + dim) // 2 + 1)
    U = np.meshgrid(*[u] * dim, indexing="ij")
    W = np.meshgrid(*[wu] * dim, indexing="ij")
    points = []
    for i in range(dim):
        x = U[i]
        for Uj in U[:i]:
            x = x * (1.0 - Uj)
        points.append(x.ravel())
    weights = W[0]
    for Wi in W[1:]:
        weights = weights * Wi
    for i in range(dim - 1):
        weights = weights * (1.0 - U[i]) ** (dim - 1 - i)
    return np.column_stack(points), weights.ravel()


def map_rule(simplex, degree):
    """Rule on a physical simplex: points (m, d), weights including |det J|."""
    pts, wts = simplex_rule(simplex.dim, degree)
    A, b = simplex.chart()
    A = np.array([[float(x) for x in row] for row in A])
    b = np.array([float(x) for x in b])
    phys = pts @ A.T + b
    return phys, wts * abs(float(np.linalg.det(A)))

