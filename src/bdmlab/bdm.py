"""The order-k Brezzi-Douglas-Marini interpolation operator on a simplex.

Two degree-of-freedom conventions are supported:

* ``nedelec``: facet normal moments against P_k of the facet, plus interior
  moments against N_{k-1} = P_{k-2}^d + S_{k-1} (empty for k = 1);
* ``bdm_original``: the same facet moments, plus moments against gradients
  of P_{k-1} (constants excluded) and against the divergence-free
  zero-normal-trace space Q_k.

The basis of P_k^d is monomial, so every DOF is a fixed linear functional
on monomial coefficients: one row of ints per component over one
denominator, read off the element's `MomentTable` (a facet table row times
the scaled normal, or an interior row cached per table).  Facet moments
are taken in a facet chart against the scaled outward normal, which makes
them equal to the physical surface moments while keeping every number
rational.  `dof_values` scales a field of any degree once to ints over
one denominator and applies each DOF as an integer dot product.

The interpolant's coefficients are the inverse DOF (Vandermonde) matrix
applied to the DOF values, held as int rows over one denominator.  The
two variants get it differently:

* ``nedelec`` commutes with the contravariant Piola map, so one reference
  element per (d, k), built from its own DOF matrix on
  `reference_simplex(d)` the first time it is needed and then cached, is
  mapped onto each simplex in integer arithmetic (`_mapped_inverse`);
* ``bdm_original`` does not (its Q_k moments do not map), so each element
  inverts its own DOF matrix, the DOF rows at degree k.

Simplex vertices are Fractions, so the element and every interpolant of a
rational field are exact, and both ways give the same Fractions.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import mul

import numpy as np

from . import linalg
from .geometry import (AffineMap, Simplex, piola_push, reference_simplex,
                       t_bar_simplex)
from .linalg import quotient
# integrate_poly and integrate_reference stay importable by name from this
# module: perfbench/tracing.py rebinds them here.
from .polynomials import (Polynomial, VectorPoly,  # noqa: F401
                          composed_monomials, integrate_reference,
                          monomial_indices)
from .quadrature import simplex_rule
from .spaces import (basis_nk, basis_pk, basis_qk, integrate_poly,  # noqa: F401
                     moment_table, scaled_field)

VARIANTS = ("nedelec", "bdm_original")


class UnisolvenceError(RuntimeError):
    """The assembled DOF system is singular (bug trap for valid simplices)."""


@dataclass(frozen=True)
class FacetMoment:
    """v -> int_ref (v o chart) . m  t^alpha dt  on facet `facet`: per
    component, one integer dot product with the facet table's row for
    alpha, weighted by that component of the int scaled normal m."""

    facet: int
    alpha: tuple

    def _table_row(self, el, degree):
        rows, den = el.moments.facet(self.facet, degree, el.order)
        normal, normal_den = el.moments.normals[self.facet]
        return rows[self.alpha], normal, den * normal_den

    def rows(self, el, degree):
        """(rows, den): the DOF's value on v is sum_c dot(rows[c], v_c) /
        den, v_c the coefficients of component c in graded order up to
        `degree`."""
        row, normal, den = self._table_row(el, degree)
        return [[m * x for x in row] for m in normal], den

    def apply(self, el, v):
        f = scaled_field(v)
        row, normal, den = self._table_row(el, f.degree)
        total = sum(m * sum(map(mul, comp, row))
                    for m, comp in zip(normal, f.comps) if m)
        return quotient(total, den * f.denominator)

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
    """v -> int_T v . weight dx: rows[c][a] = sum_b weight_c,b int_T x^(a+b)."""

    weight: VectorPoly
    label: str
    _rows: dict = field(default_factory=dict, compare=False, repr=False)

    def rows(self, el, degree):
        """(rows, den) as for `FacetMoment.rows`; cached per moment table at
        the highest field degree asked for, since graded order makes the
        rows for a lower degree a prefix."""
        cached = self._rows.get(el.moments)
        if cached is None or cached[0] < degree:
            cached = self._rows[el.moments] = (
                degree, *el.moments.weighted_rows(self.weight, degree))
        return cached[1:]

    def apply(self, el, v):
        f = scaled_field(v)
        rows, den = self.rows(el, f.degree)
        total = sum(sum(map(mul, comp, row)) for comp, row in zip(f.comps, rows))
        return quotient(total, den * f.denominator)

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
        n = len(self._monomials)
        self.dofs = _dof_functionals(simplex, order, variant)
        if len(self.dofs) != simplex.dim * n:
            raise UnisolvenceError(f"{len(self.dofs)} functionals for a "
                                   f"{simplex.dim * n}-dim space")
        # the inverse DOF matrix as int rows over one common denominator, so
        # that applying it to DOF values is integer arithmetic
        if variant == "nedelec" and simplex != reference_simplex(simplex.dim):
            self._inverse, self._denominator = _mapped_inverse(
                simplex, _reference_element(simplex.dim, order))
        else:
            self._inverse, self._denominator = self._vandermonde_inverse()
        self._inverse_float = None

    def _vandermonde_inverse(self):
        """(rows, den): the inverse of the element's own DOF matrix, as int
        rows over one denominator.  The basis is the component-major
        monomial basis of P_k^d, so that matrix is the DOF rows at degree
        k, each passed as ints over its own denominator."""
        n = len(self._monomials)
        vandermonde = []
        for dof in self.dofs:
            rows, den = dof.rows(self, self.order)
            vandermonde.append(linalg.Scaled(
                [x for row in rows for x in row[:n]], den))
        try:
            inverse = linalg.invert(vandermonde)
        except linalg.SingularMatrixError as exc:
            raise UnisolvenceError("singular DOF system") from exc
        return inverse, inverse.denominator

    @property
    def ndofs(self):
        return len(self.dofs)

    def dof_values(self, v: VectorPoly):
        f = scaled_field(v)
        return [dof.apply(self, f) for dof in self.dofs]

    def dof_values_quad(self, f, degree):
        return [dof.apply_quad(self, f, degree) for dof in self.dofs]

    def field_from_dofs(self, values):
        exact = all(isinstance(x, (Fraction, int)) for x in values)
        d = self.simplex.dim
        if exact:
            scaled, scale = linalg.over_common_denominator(values)
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


@lru_cache(maxsize=None)
def _reference_element(dim, order):
    """The `nedelec` element on reference_simplex(dim), built from its own
    DOF matrix the first time a (dim, order) is asked for: every other
    `nedelec` element is mapped from it."""
    return BDMElement(reference_simplex(dim), order)


def _mapped_inverse(simplex, ref):
    """(rows, den): the inverse DOF matrix of the `nedelec` element on
    `simplex`, mapped from the reference element `ref`.

    F(xh) = B xh + b takes reference vertex i to vertex i of the simplex,
    J = det B, and the contravariant Piola map P w = J^-1 B (w o F^-1)
    carries the reference element onto this one:

    * facet charts and scaled normals are affine-covariant (m = |J| B^-T
      mh), so each facet DOF of P w is sign(J) times that of w;
    * an interior weight z pulls back to B^T (z o F), and N_{k-1} is
      invariant under this map.

    Hence V^-1 = sign(J) M Vh^-1 C^-1: M is P on monomial coefficients,
    and C^-1 is the identity on facet DOFs and holds, on interior DOFs,
    the basis_nk coordinates of B^-T (zh o F^-1).  A member of basis_nk
    is 1 at its last nonzero entry and 0 at that of every other member
    (the monomials of P_{k-2}^d, and S_{k-1}'s nullspace vectors at their
    free columns), so those coordinates are read off, not solved for.
    Everything is ints over one denominator, divided by their gcd at the
    end, so the rows are those the element's own DOF matrix would give.
    """
    d, k = simplex.dim, ref.order
    *vertices, origin = simplex.vertices
    amap = AffineMap(tuple(tuple(v[r] - origin[r] for v in vertices)
                           for r in range(d)), origin)
    inv = amap.inverse()
    composed, D = composed_monomials((inv.matrix, inv.offset), k)
    # Q[g][j] = D^k times the coefficient of x^g in xh^a o F^-1, a the
    # j-th monomial
    n = len(composed)
    Q = [[0] * n for _ in range(n)]
    for j, (a, P) in enumerate(composed.items()):
        scale = D ** (k - sum(a))
        for g, x in enumerate(P):
            Q[g][j] = x * scale

    def push(comps, mix):
        """Component r of sum_c mix[r][c] (Q comps[c]): a field's int
        coefficients composed with F^-1 (times D^k), then mixed."""
        composed_comps = [[sum(map(mul, row, comp)) for row in Q]
                          for comp in comps]
        return [[sum(map(mul, mix_row, column))
                 for column in zip(*composed_comps)] for mix_row in mix]

    # C^-1 on interior DOFs, times Dc: B^-T is (D B^-1)^T / D, so the
    # pushed weight zh is over zh.denominator D^(k+1)
    nf = (d + 1) * len(monomial_indices(d - 1, k))
    weights = [scaled_field(dof.weight) for dof in ref.dofs[nf:]]
    pivots = [max((c, j) for c, comp in enumerate(z.comps)
                  for j, x in enumerate(comp) if x) for z in weights]
    inverse_transposed = [[int(row[r] * D) for row in inv.matrix]
                          for r in range(d)]
    lcm_den = lcm(*(z.denominator for z in weights))
    coords = []
    for z in weights:
        pushed = push(z.comps, inverse_transposed)
        coords.append([pushed[c][j] * (lcm_den // z.denominator)
                       for c, j in pivots])
    Dc = lcm_den * D ** (k + 1)
    # Vh^-1 C^-1, its facet columns still to be multiplied by Dc: they go
    # through M as the reference's small ints
    product = [row[:nf] + [sum(map(mul, row[nf:], column))
                           for column in zip(*coords)]
               for row in ref._inverse]
    # M applied to each column: B (as ints over B_den) on the components
    nums, B_den = linalg.over_common_denominator(
        x for row in amap.matrix for x in row)
    B = [nums[r * d:(r + 1) * d] for r in range(d)]
    columns = [[x for comp in push([column[c * n:(c + 1) * n]
                                    for c in range(d)], B) for x in comp]
               for column in zip(*product)]
    # sign(J) / J == 1 / |J|
    J = amap.det()
    den = abs(J.numerator) * B_den * D ** k * ref._denominator * Dc
    scales = [J.denominator * Dc] * nf + [J.denominator] * len(coords)
    rows = [list(map(mul, row, scales)) for row in zip(*columns)]
    g = gcd(den, *(x for row in rows for x in row))
    return [[x // g for x in row] for row in rows], den // g


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
