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

    The Duffy collapse raises the per-direction polynomial degree by up to
    dim - 1 (Jacobian factors), hence the padded point count.
    """
    if degree < 0:
        raise ValueError("degree must be >= 0")
    n = (degree + dim) // 2 + 1
    if dim == 1:
        x, w = gauss_01(n)
        return x.reshape(-1, 1), w.copy()
    if dim == 2:
        u, wu = gauss_01(n)
        v, wv = gauss_01(n)
        U, V = np.meshgrid(u, v, indexing="ij")
        WU, WV = np.meshgrid(wu, wv, indexing="ij")
        x = U
        y = V * (1.0 - U)
        w = WU * WV * (1.0 - U)
        return np.column_stack([x.ravel(), y.ravel()]), w.ravel()
    if dim == 3:
        u, wu = gauss_01(n)
        v, wv = gauss_01(n)
        t, wt = gauss_01(n)
        U, V, T = np.meshgrid(u, v, t, indexing="ij")
        WU, WV, WT = np.meshgrid(wu, wv, wt, indexing="ij")
        x = U
        y = V * (1.0 - U)
        z = T * (1.0 - U) * (1.0 - V)
        w = WU * WV * WT * (1.0 - U) ** 2 * (1.0 - V)
        return np.column_stack([x.ravel(), y.ravel(), z.ravel()]), w.ravel()
    raise ValueError("unsupported dimension")


def map_rule(simplex, degree):
    """Rule on a physical simplex: points (m, d), weights including |det J|."""
    pts, wts = simplex_rule(simplex.dim, degree)
    A, b = simplex.chart()
    A = np.array([[float(x) for x in row] for row in A])
    b = np.array([float(x) for x in b])
    phys = pts @ A.T + b
    return phys, wts * abs(float(np.linalg.det(A)))

