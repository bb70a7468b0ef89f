"""Verification lab for Brezzi-Douglas-Marini interpolation on anisotropic
simplices: exact interpolation in both DOF conventions, estimate and
counterexample sweeps over element families, and a Shishkin-mesh Stokes
study with divergence-free velocities.  Import the submodules
(`bdmlab.bdm`, `bdmlab.geometry`, ...) directly; the package itself loads
none of them."""

__version__ = "0.1.0"
