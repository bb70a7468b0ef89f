"""The order-k Brezzi-Douglas-Marini interpolation operator on a simplex.

Two degree-of-freedom conventions are supported:

* ``nedelec``: facet normal moments against P_k of the facet, plus interior
  moments against N_{k-1} = P_{k-2}^d + S_{k-1} (empty for k = 1);
* ``bdm_original``: the same facet moments, plus moments against gradients
  of P_{k-1} (constants excluded) and against the divergence-free
  zero-normal-trace space Q_k.

The basis of P_k^d is monomial, so every DOF is a fixed linear functional
on monomial coefficients: a sum of coefficient times a cached moment of the
element's `MomentTable`.  Facet moments are taken in a facet chart against
the scaled outward normal, which makes them equal to the physical surface
moments while keeping every number rational; the Vandermonde matrix and
the interpolation of a polynomial field of any degree are dot products with
the same table, exact on rational simplices.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import mul

import numpy as np

from . import linalg
from .geometry import Simplex, piola_push, reference_simplex, t_bar_simplex
# integrate_poly and integrate_reference stay importable by name from this
# module: perfbench/tracing.py rebinds them here.
from .polynomials import (Polynomial, VectorPoly,  # noqa: F401
                          integrate_reference, monomial_indices)
from .quadrature import simplex_rule
from .spaces import (basis_nk, basis_pk, basis_pk_vector, basis_qk,  # noqa: F401
                     integrate_poly, moment_table)

VARIANTS = ("nedelec", "bdm_original")


class UnisolvenceError(RuntimeError):
    """The assembled DOF system is singular (bug trap for valid simplices)."""


@dataclass(frozen=True)
class FacetMoment:
    """v -> int_ref (v o chart) . m  t^alpha dt  on facet `facet`."""

    facet: int
    alpha: tuple

    def apply(self, el, v: VectorPoly):
        table, i, alpha, k = el.moments, self.facet, self.alpha, el.order
        total = Fraction(0)
        for p, mc in zip(v.comps, table.normals[i]):
            if mc != 0:
                total += mc * sum(c * table.facet(i, a, alpha, k)
                                  for a, c in p.terms.items())
        return total

    def apply_quad(self, el, f, degree):
        pts, wts = simplex_rule(el.simplex.dim - 1, degree)
        matrix, origin = el.simplex.facet_chart(self.facet)
        A = np.array([[float(x) for x in row] for row in matrix])
        b = np.array([float(x) for x in origin])
        phys = pts @ A.T + b
        m = np.array([float(x) for x in el.simplex.scaled_facet_normal(self.facet)])
        vals = np.asarray(f(phys), dtype=float)  # (npts, d)
        mono = np.prod(pts ** np.array(self.alpha), axis=1)
        return float(np.dot(wts, (vals @ m) * mono))


@dataclass(frozen=True)
class InteriorMoment:
    """v -> int_T v . weight dx."""

    weight: VectorPoly
    label: str

    def apply(self, el, v: VectorPoly):
        return el.moments.integrate(v.dot(self.weight))

    def apply_quad(self, el, f, degree):
        pts, wts = simplex_rule(el.simplex.dim, degree)
        A, b = el.simplex.chart()
        An = np.array([[float(x) for x in row] for row in A])
        bn = np.array([float(x) for x in b])
        phys = pts @ An.T + bn
        vals = np.asarray(f(phys), dtype=float)
        wvals = np.column_stack([p.eval(phys) for p in self.weight.comps])
        scale = abs(float(np.linalg.det(An)))
        return float(np.dot(wts, np.sum(vals * wvals, axis=1))) * scale


def _dof_functionals(simplex, k, variant):
    d = simplex.dim
    dofs = []
    for facet in range(d + 1):
        for alpha in monomial_indices(d - 1, k):
            dofs.append(FacetMoment(facet, alpha))
    if variant == "nedelec":
        for z in basis_nk(d, k - 1):
            dofs.append(InteriorMoment(z, "nk"))
    else:
        for z in basis_pk(d, k - 1):
            grad = VectorPoly([z.diff(i) for i in range(d)])
            if all(p.is_zero() for p in grad.comps):
                continue  # the constant's gradient carries no condition
            dofs.append(InteriorMoment(grad, "grad"))
        for z in basis_qk(simplex, k):
            dofs.append(InteriorMoment(z, "qk"))
    return tuple(dofs)


class BDMElement:
    """Assembled, invertible DOF system for P_k^d on one simplex."""

    def __init__(self, simplex: Simplex, order: int, variant: str = "nedelec"):
        if order < 1:
            raise ValueError("order must be >= 1")
        if variant not in VARIANTS:
            raise ValueError(f"unknown variant {variant!r}")
        self.simplex = simplex
        self.order = order
        self.variant = variant
        self.moments = moment_table(simplex)
        self._monomials = monomial_indices(simplex.dim, order)
        basis = basis_pk_vector(simplex.dim, order)
        self.dofs = _dof_functionals(simplex, order, variant)
        if len(self.dofs) != basis.dim:
            raise UnisolvenceError(
                f"{len(self.dofs)} functionals for a {basis.dim}-dim space")
        vandermonde = [[dof.apply(self, b) for b in basis] for dof in self.dofs]
        try:
            inverse = linalg.invert(vandermonde)
        except linalg.SingularMatrixError as exc:
            raise UnisolvenceError("singular DOF system") from exc
        # the inverse as integers over one common denominator, so that
        # applying it to DOF values is integer arithmetic
        self._denominator = lcm(*(x.denominator for row in inverse for x in row))
        self._inverse = [[x.numerator * (self._denominator // x.denominator)
                          for x in row] for row in inverse]
        self._inverse_float = None

    @property
    def ndofs(self):
        return len(self.dofs)

    def dof_values(self, v: VectorPoly):
        return [dof.apply(self, v) for dof in self.dofs]

    def dof_values_quad(self, f, degree):
        return [dof.apply_quad(self, f, degree) for dof in self.dofs]

    def field_from_dofs(self, values):
        exact = all(isinstance(x, (Fraction, int)) for x in values)
        d = self.simplex.dim
        if exact:
            scale = lcm(*(x.denominator for x in values))
            scaled = [x.numerator * (scale // x.denominator) for x in values]
            den = self._denominator * scale
            coeffs = [Fraction(sum(map(mul, row, scaled)), den)
                      for row in self._inverse]
        else:
            if self._inverse_float is None:
                # int / int rounds once, exactly as float(Fraction) does
                self._inverse_float = np.array(
                    [[x / self._denominator for x in row] for row in self._inverse])
            coeffs = (self._inverse_float @ np.asarray(values, dtype=float)).tolist()
        # the basis is component-major: one block of monomial coefficients
        # per component
        n = len(self._monomials)
        return VectorPoly([Polynomial(d, dict(zip(self._monomials,
                                                  coeffs[j * n:(j + 1) * n])))
                           for j in range(d)])

    def interpolate(self, v, quad_degree=None) -> VectorPoly:
        """Interpolant in P_k^d; exact for polynomial fields.  Callables go
        through quadrature of the given degree (default 2k + 4)."""
        if isinstance(v, VectorPoly):
            return self.field_from_dofs(self.dof_values(v))
        if quad_degree is None:
            quad_degree = 2 * self.order + 4
        return self.field_from_dofs(self.dof_values_quad(v, quad_degree))


def build_element(simplex, k, variant="nedelec") -> BDMElement:
    return BDMElement(simplex, k, variant)


@dataclass(frozen=True)
class PiolaReport:
    commutes: bool
    max_abs_diff: float


def commutes_with_piola(el_ref: BDMElement, el_phys: BDMElement, amap,
                        v_ref: VectorPoly) -> PiolaReport:
    """Compare the Piola push of the reference interpolant with the physical
    interpolant of the Piola-pushed field, coefficient by coefficient."""
    if el_ref.order != el_phys.order or el_ref.variant != el_phys.variant:
        raise ValueError("elements must share order and variant")
    lhs = piola_push(amap, el_ref.interpolate(v_ref))
    rhs = el_phys.interpolate(piola_push(amap, v_ref))
    diff = lhs - rhs
    worst = 0.0
    for p in diff.comps:
        for c in p.terms.values():
            worst = max(worst, abs(float(c)))
    return PiolaReport(commutes=(lhs == rhs), max_abs_diff=worst)


def structural_lemma_check(el: BDMElement, axis: int, f: Polynomial) -> bool:
    """Single-component input f(x_without_axis) e_axis on a reference
    element: the interpolant must keep the other components zero and its
    `axis` component free of the axis variable."""
    d = el.simplex.dim
    if el.variant != "nedelec":
        raise ValueError("structural lemma applies to the nedelec variant")
    refs = [reference_simplex(d).vertices]
    if d == 3:
        refs.append(t_bar_simplex().vertices)
    if el.simplex.vertices not in refs:
        raise ValueError("element must live on a reference simplex")
    if any(a[axis] != 0 for a in f.terms):
        raise ValueError("f must not depend on the selected axis variable")
    comps = [Polynomial.zero(d) for _ in range(d)]
    comps[axis] = f
    result = el.interpolate(VectorPoly(comps))
    for j in range(d):
        if j != axis and not result.comps[j].is_zero():
            return False
    return all(a[axis] == 0 for a in result.comps[axis].terms)
