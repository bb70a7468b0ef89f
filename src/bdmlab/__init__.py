"""Verification lab for Brezzi-Douglas-Marini interpolation on anisotropic
simplices: exact interpolation in both DOF conventions, element regularity
diagnostics, estimate/counterexample sweeps, and a Shishkin-mesh Stokes
study with divergence-free velocities."""

__version__ = "0.1.0"

from .geometry import (AffineMap, DegenerateSimplexError, RegularityReport,
                       Simplex, classify_to_reference_family, facet_normals,
                       max_angle, reference_simplex, rvp_report, t_bar_simplex)
from .polynomials import Polynomial, VectorPoly
from .bdm import (BDMElement, UnisolvenceError, build_element,
                  structural_lemma_check)
from .spaces import (SpaceBasis, basis_nk, basis_pk, basis_pk_vector,
                     basis_qk, basis_sk, integrate_poly)

__all__ = [
    "AffineMap", "BDMElement", "DegenerateSimplexError", "Polynomial",
    "RegularityReport", "Simplex", "SpaceBasis", "UnisolvenceError",
    "VectorPoly", "basis_nk", "basis_pk", "basis_pk_vector", "basis_qk",
    "basis_sk", "build_element", "classify_to_reference_family",
    "facet_normals", "integrate_poly", "max_angle", "reference_simplex",
    "rvp_report", "structural_lemma_check", "t_bar_simplex",
]
