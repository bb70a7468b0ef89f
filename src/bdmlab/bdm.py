"""The order-k Brezzi-Douglas-Marini interpolation operator on a simplex.

Two degree-of-freedom conventions are supported:

* ``nedelec``: facet normal moments against P_k of the facet, plus interior
  moments against N_{k-1} = P_{k-2}^d + S_{k-1} (empty for k = 1);
* ``bdm_original``: the same facet moments, plus moments against gradients
  of P_{k-1} (constants excluded) and against the divergence-free
  zero-normal-trace space Q_k.

The basis of P_k^d is monomial, so every DOF is a fixed linear functional
on monomial coefficients: one row of ints per component, read off the
reference element's `MomentTable` (a facet table row times the scaled
normal, or the weighted rows of an interior moment) and cached with the
other DOFs' rows over one denominator per field degree.  Facet moments are
taken in a facet chart against the scaled outward normal, which makes them
equal to the surface moments while keeping every number rational.
`interpolate` scales a field of any degree once to ints over one
denominator, and `dof_values` applies each DOF as an integer dot product.

Only the `nedelec` element on `reference_simplex(d)` has DOF rows: it
inverts its own DOF (Vandermonde) matrix, as int rows over one
denominator, and one per (d, k) is cached (`_reference_element`).  Every
other element interpolates in the reference frame through the
contravariant Piola map P w = J^-1 B (w o F^-1) of its affine map F
(`_Piola`): it pulls the field back, wh = P^-1 v = J B^-1 (v o F),
applies the reference element's DOFs and inverse to wh, and pushes the
result forward, all in integers over one denominator.  It builds no table
of its own, so it costs a Piola map per element and a composition per
field.  `nedelec` commutes with P, so its interpolant is P Ih P^-1 v.

`bdm_original` has no DOFs here: the variants share the facet moments,
and N_{k-1} contains the gradients of P_{k-1}, so Pi_orig v - Pi_ned v
is the L2(T) projection of v - Pi_ned v onto Q_k(T).  P maps the
reference Q_k onto Q_k(T), and int_T Pa . Pb = |J|^-1 int_T^ a . G b, G
= B^T B (Kirby, SMAI J. Comput. Math. 4, 2018, for this view of a
non-affine-equivalent element): the element is the `nedelec` one plus
the G-weighted projection of wh - Ih wh onto the reference Q_k
(`_project`); at k = 1, Q_1 = {0}.

Simplex vertices are Fractions, so every interpolant of a rational field
is exact: the one the DOF matrix of the simplex itself gives, Fraction
for Fraction.  There is no floating-point path: `interpolate --mode float`
prints this interpolant with each coefficient rounded by `float()`, which
rounds correctly, so every printed coefficient is within half an ulp.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain, zip_longest
from math import gcd, lcm
from operator import mul

from . import linalg
from .geometry import (Simplex, adjugate, determinant, reference_simplex,
                       t_bar_simplex)
from .linalg import over_common_denominator
# integrate_poly, integrate_reference and simplex_rule stay importable by
# name from this module, though it calls none of them: perfbench/tracing.py
# rebinds them here, and its self-test requires that they exist.
from .polynomials import (Polynomial, VectorPoly,  # noqa: F401
                          compose, composed_monomials, composition_table,
                          integrate_reference, monomial_indices)
from .quadrature import simplex_rule  # noqa: F401
from .spaces import (ScaledField, basis_nk, basis_qk,  # noqa: F401
                     integrate_poly, moment_table, scaled_field)

VARIANTS = ("nedelec", "bdm_original")


class UnisolvenceError(RuntimeError):
    """The assembled DOF system is singular (bug trap for valid simplices)."""


def _moment_apply(dof, el, w):
    """(num, den): the DOF's value on the ScaledField w is num / den, both
    ints: its row of the element's `_dof_rows` against w's coefficients."""
    rows, den = el._dof_rows(w.degree)
    return (sum(map(mul, rows[el._positions[dof]], chain(*w.comps))),
            den * w.denominator)


def _dots(rows, w):
    """Each row against the coefficients of the ScaledField w, in the
    component-major order of `_dof_rows`."""
    flat = list(chain(*w.comps))
    return [sum(map(mul, row, flat)) for row in rows]


@dataclass(frozen=True)
class FacetMoment:
    """v -> int_ref (v o chart) . m  t^alpha dt  on facet `facet`: per
    component, the facet table's row for alpha, weighted by that component
    of the int scaled normal m."""

    facet: int
    alpha: tuple

    def rows(self, el, degree):
        """(rows, den): the DOF's value on v is sum_c dot(rows[c], v_c) /
        den, v_c the coefficients of component c in graded order up to
        `degree`."""
        rows, (normal, normal_den), den = el.moments.facet(
            self.facet, degree, el.order)
        return [[m * x for x in rows[self.alpha]] for m in normal], \
            den * normal_den

    apply = _moment_apply


@dataclass(frozen=True, eq=False)
class InteriorMoment:
    """v -> int_T v . weight dx: rows[c][a] = sum_b weight_c,b int_T x^(a+b).
    Hashed by identity: the reference element's `_positions` are keyed by
    the DOFs."""

    weight: VectorPoly

    def rows(self, el, degree):
        """(rows, den) as for `FacetMoment.rows`."""
        return el.moments.weighted_rows(self.weight, degree)

    apply = _moment_apply


def _dof_functionals(dim, k):
    """The `nedelec` DOFs of order k: the facet moments, then the moments
    against N_{k-1}."""
    facets = [FacetMoment(facet, alpha) for facet in range(dim + 1)
              for alpha in monomial_indices(dim - 1, k)]
    return tuple(facets + [InteriorMoment(z) for z in basis_nk(dim, k - 1)])


class BDMElement:
    """Assembled, invertible DOF system for P_k^d on one simplex."""

    def __init__(self, simplex: Simplex, order: int, variant: str = "nedelec"):
        """A `nedelec` element on `reference_simplex(dim)` inverts its own
        DOF matrix; any other element shares that reference element's DOFs
        and inverse, and a `bdm_original` one of order > 1 inverts the r x
        r Gram matrix of `_project`."""
        if order < 1:
            raise ValueError("order must be >= 1")
        if variant not in VARIANTS:
            raise ValueError(f"unknown variant {variant!r}")
        d = simplex.dim
        self.simplex = simplex
        self.order = order
        self.variant = variant
        self._monomials = monomial_indices(d, order)
        self._reference, self._piola = self, None
        if simplex != reference_simplex(d):
            self._piola = _Piola(simplex, order)
        if self._piola or variant != "nedelec":
            ref = self._reference = _reference_element(d, order, "nedelec")
            self.dofs, self._inverse = ref.dofs, ref._inverse
        else:
            self.moments = moment_table(simplex)
            self._rows = {}     # degree -> `_dof_rows`
            self.dofs = _dof_functionals(d, order)
            self._positions = {dof: i for i, dof in enumerate(self.dofs)}
            n = len(self._monomials)
            if len(self.dofs) != d * n:
                raise UnisolvenceError(f"{len(self.dofs)} functionals for a "
                                       f"{d * n}-dim space")
            # the DOF matrix in the component-major monomial basis is the
            # DOF rows at degree k, inverted to int rows over one denominator
            rows, den = self._dof_rows(order)
            try:
                self._inverse = linalg.invert(
                    [linalg.Scaled(row, den) for row in rows])
            except linalg.SingularMatrixError as exc:
                raise UnisolvenceError("singular DOF system") from exc
        self._gram_inverse = None
        if variant == "bdm_original" and order > 1:
            # Gram_G = sum G[c][c'] M_cc' (G = I on the reference simplex)
            self._metric = (self._piola.gram if self._piola else
                            [[int(i == j) for j in range(d)] for i in range(d)])
            terms = list(zip(chain(*self._metric), _qk(d, order).blocks))
            r = range(len(terms[0][1]))
            self._gram_inverse = linalg.invert(
                [[sum(g * M[l][j] for g, M in terms) for j in r] for l in r])

    @property
    def ndofs(self):
        return len(self.dofs)

    def _dof_rows(self, degree):
        """(rows, den) of a reference element: each DOF's rows at `degree`,
        component-major in one list, over one denominator, so the DOF's
        value on a field is the dot product with its coefficients over den.
        Cached per degree."""
        if degree not in self._rows:
            rows = [dof.rows(self, degree) for dof in self.dofs]
            den = lcm(*(den for _, den in rows))
            self._rows[degree] = [
                [x * (den // r_den) for row in r for x in row]
                for r, r_den in rows], den
        return self._rows[degree]

    def dof_values(self, w):
        """The reference DOF values of w, a ScaledField on the reference
        simplex, as ints over one denominator in lowest terms (a
        `linalg.Scaled`): the reference `_dof_rows` against w, on the
        reference simplex through each DOF's `apply` (the `bdm.moment_apply`
        span of perfbench), whose denominators all equal den times w's."""
        ref = self._reference
        rows, den = ref._dof_rows(w.degree)
        if self._piola is None:
            nums = [dof.apply(ref, w)[0] for dof in self.dofs]
        else:
            nums = _dots(rows, w)
        return linalg.Scaled(*linalg.lowest_terms(nums, den * w.denominator))

    def field_from_dofs(self, values, w=None):
        """The member of P_k^d with these DOF values, a `linalg.Scaled` as
        `dof_values` gives them: the reference inverse and the Piola push
        applied in integers, with `_project` in between for a `bdm_original`
        element given w, the field the values were taken from."""
        coeffs = [sum(map(mul, row, values)) for row in self._inverse]
        den = values.denominator * self._inverse.denominator
        if w is not None and self._gram_inverse is not None:
            coeffs, den = self._project(w, coeffs, den)
        # the basis is component-major: one block of monomial coefficients
        # per component
        d, n = self.simplex.dim, len(self._monomials)
        comps = [coeffs[c * n:(c + 1) * n] for c in range(d)]
        piola = self._piola
        if piola is not None:
            comps = piola.push(comps)
            den *= piola.den
        return VectorPoly([Polynomial(d, {
            a: Fraction(x, den) for a, x in zip(self._monomials, comp) if x})
            for comp in comps])

    def _project(self, w, coeffs, den):
        """(coeffs, den) of ph + qh: ph = coeffs / den, the `nedelec`
        interpolant of w, and qh = sum_l c_l zh_l, the projection of the
        remainder w - ph onto the reference Q_k weighted by G: Gram_G c =
        b, b_l = int_T^ (w - ph) . G zh_l."""
        n, qk = len(self._monomials), _qk(self.simplex.dim, self.order)
        degree = max(w.degree, self.order)
        # w - ph over w.denominator * den, graded order up to `degree`
        rest = [[x * den - y * w.denominator for x, y in zip_longest(
            comp, coeffs[c * n:(c + 1) * n], fillvalue=0)]
            for c, comp in enumerate(w.comps)]
        if not any(map(any, rest)):
            return coeffs, den
        rows, rows_den = qk._dof_rows(degree)
        b = _dots(rows, ScaledField(_mix(self._metric, rest), 1, degree))
        y = [sum(map(mul, row, b)) for row in self._gram_inverse]
        # Z_l = s zh_l, so c_l = qk.den s y_l / (rows_den w.denominator den
        # Gram_G^-1.denominator), and qh is qk.den sum_l y_l Z_l over that
        scale = rows_den * w.denominator * self._gram_inverse.denominator
        return [x * scale + qk.den * sum(map(mul, y, column))
                for x, column in zip(coeffs, qk.columns)], den * scale

    def interpolate(self, v: VectorPoly) -> VectorPoly:
        """The interpolant of the polynomial field v in P_k^d, exact."""
        w, piola = scaled_field(v), self._piola
        if piola is not None:
            w = piola.pull(w)
        return self.field_from_dofs(self.dof_values(w), w)


def build_element(simplex, k, variant="nedelec") -> BDMElement:
    """The element of order k on `simplex`; on the reference simplex, the
    cached reference element itself."""
    if simplex == reference_simplex(simplex.dim):
        return _reference_element(simplex.dim, k, variant)
    return BDMElement(simplex, k, variant)


@lru_cache(maxsize=None)
def _reference_element(dim, order, variant):
    """The element on reference_simplex(dim), built the first time a (dim,
    order, variant) is asked for.  Every other element interpolates through
    the `nedelec` one, the `bdm_original` one included."""
    return BDMElement(reference_simplex(dim), order, variant)


def _mix(mix, comps):
    """Component r of sum_c mix[r][c] comps[c], comps as coefficient lists."""
    return [[sum(map(mul, mix_row, column)) for column in zip(*comps)]
            for mix_row in mix]


class _Piola:
    """The affine map F(xh) = B xh + b taking reference vertex i to vertex
    i of `simplex`, with J = det B, and the contravariant Piola map P w =
    J^-1 B (w o F^-1) in integers.

    * `pull` gives sign(J) P^-1 v = |J| B^-1 (v o F).  x^a o F is P_a(xh)
      / Ds^|a|, P_a the int coefficients of (Bs xh + bs)^a (the vertices as
      ints over Ds, `composed_monomials`), so a component of degree q
      composes to sum_a v_a Ds^(q-|a|) P_a over Ds^q, the
      `composition_table` of degree q.
    * `push(w)` / den is sign(J) P w for the int coefficients w of a field
      of degree <= k, so it undoes the sign of `pull`.  With F^-1 = (Ds
      adj(Bs) x - adj(Bs) bs) / det(Bs) over the common denominator D,
      composing with F^-1 times D^k scales x^a by D^(k-|a|), and mix / den
      is B sign(J) / (J B_den D^k), B held as int rows over B_den.
    * `gram` is G = B^T B times B_den^2, as ints."""

    def __init__(self, simplex, k):
        d, Ds = simplex.dim, simplex.denominator
        *vertices, origin = simplex.scaled_vertices
        Bs = [[v[r] - origin[r] for v in vertices] for r in range(d)]
        det, adj = determinant(Bs), adjugate(Bs)
        sign = 1 if det > 0 else -1
        offset = [-sum(map(mul, row, origin)) for row in adj]
        common = sign * gcd(det, *(x * Ds for row in adj for x in row),
                            *offset)
        D = det // common
        backward, _ = composed_monomials(
            ([[x * Ds // common for x in row] for row in adj],
             [x // common for x in offset]), k)
        self._backward = composition_table(backward, D, k, d)
        common = gcd(Ds, *(x for row in Bs for x in row))
        B_den = Ds // common
        B = [[x // common for x in row] for row in Bs]
        # sign(J) / J == 1 / |J|
        J = Fraction(det, Ds ** d)
        self.mix = [[x * J.denominator for x in row] for row in B]
        self.den = abs(J.numerator) * B_den * D ** k
        self.gram = [[sum(B[a][c] * B[a][c2] for a in range(d))
                      for c2 in range(d)] for c in range(d)]
        # |J| B^-1 is sign(J) adj(Bs) / Ds^(d-1)
        self._unmix = [[sign * x for x in row] for row in adj]
        self._chart, self._Ds = (Bs, origin), Ds
        self._forward = None, -1, []    # composed, its degree, its table

    def pull(self, v):
        """sign(J) P^-1 v for a ScaledField v, as a ScaledField of its
        degree."""
        d, Ds = len(self._unmix), self._Ds
        composed, degree, table = self._forward
        if v.degree > degree:
            composed, _ = composed_monomials(self._chart, v.degree, composed)
            degree, table = v.degree, composition_table(composed, Ds,
                                                         v.degree, d)
            self._forward = composed, degree, table
        return ScaledField(_mix(self._unmix, compose(
            table[:len(v.comps[0])], v.comps)),
            v.denominator * Ds ** (degree + d - 1), v.degree)

    def push(self, comps):
        """sum_c mix[r][c] (comps[c] o F^-1 times D^k) per component r."""
        return _mix(self.mix, compose(self._backward, comps))


class _Qk:
    """The reference Q_k of (dim, order): its basis zh_l as ScaledFields
    Z_l = s zh_l over 1 (one int s > 0) and their coefficients by position
    (`columns`), their integer component Gram blocks (int_T^ Z_l,c Z_l',c'
    = blocks[c dim + c'][l][l'] / den) and, as a reference element has its
    DOF rows, the rows of each Z_l moment."""

    def __init__(self, dim, order):
        self.moments, self._rows = moment_table(reference_simplex(dim)), {}
        positions = monomial_indices(dim, order)
        n = len(positions)
        nums, _ = over_common_denominator(
            p.terms.get(a, 0) for z in basis_qk(reference_simplex(dim), order)
            for p in z.comps for a in positions)
        comps = [nums[i:i + n] for i in range(0, len(nums), n)]
        self.basis = [ScaledField(comps[l:l + dim], 1, order)
                      for l in range(0, len(comps), dim)]
        self.columns = list(zip(*(chain(*z.comps) for z in self.basis)))
        self.dofs = [InteriorMoment(z) for z in self.basis]
        rows, self.den = self._dof_rows(order)
        self.blocks = [[[sum(map(mul, z.comps[c], row[c2 * n:(c2 + 1) * n]))
                         for row in rows] for z in self.basis]
                       for c in range(dim) for c2 in range(dim)]

    _dof_rows = BDMElement._dof_rows


@lru_cache(maxsize=None)
def _qk(dim, order):
    """The `_Qk` of (dim, order), built the first time it is asked for."""
    return _Qk(dim, order)


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
