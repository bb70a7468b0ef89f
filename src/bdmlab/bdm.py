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
`dof_values` scales a field of any degree once to ints over one
denominator and applies each DOF as an integer dot product.

Only the element on `reference_simplex(d)` has DOF rows: it inverts its
own DOF (Vandermonde) matrix, as int rows over one denominator, and one
per (d, k, variant) is cached (`_reference_element`).  Every other element
interpolates in the reference frame through the contravariant Piola map P
w = J^-1 B (w o F^-1) of its affine map F (`_Piola`): it pulls the field
back, wh = P^-1 v = J B^-1 (v o F), applies the reference element's DOFs
and inverse to wh, and pushes the result forward, all in integers over one
denominator.  It builds no table of its own, so it costs a Piola map per
element and a composition per field.  The variants differ only in the last
DOFs:

* ``nedelec`` commutes with P, so the interpolant is P Ih P^-1 v;
* ``bdm_original`` does not: its r = dim Q_k moments are taken against G
  zh on the reference simplex, G = B^T B, and each element turns them
  into reference Q_k values with the inverse of one r x r system Sh and
  the rows Kh that couple them to the other DOFs (`_correction`).

Simplex vertices are Fractions, so every interpolant of a rational field
is exact: the one the element's own DOF matrix gives, Fraction for
Fraction.  There is no floating-point path: `interpolate --mode float`
prints this interpolant with each coefficient rounded by `float()`, which
rounds correctly, so every printed coefficient is within half an ulp.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from math import comb, gcd, lcm
from operator import add, mul

from . import linalg
from .geometry import (Simplex, adjugate, determinant, reference_simplex,
                       t_bar_simplex)
# integrate_poly, integrate_reference and simplex_rule stay importable by
# name from this module, though it calls none of them: perfbench/tracing.py
# rebinds them here, and its self-test requires that they exist.
from .polynomials import (Polynomial, VectorPoly,  # noqa: F401
                          composed_monomials, integrate_reference,
                          monomial_indices)
from .quadrature import simplex_rule  # noqa: F401
from .spaces import (ScaledField, basis_nk, basis_pk, basis_qk,  # noqa: F401
                     integrate_poly, moment_table, scaled_field)

VARIANTS = ("nedelec", "bdm_original")


class UnisolvenceError(RuntimeError):
    """The assembled DOF system is singular (bug trap for valid simplices)."""


def _moment_apply(dof, el, v):
    """(num, den): the DOF's value on v is num / den, both ints: its row
    of the element's `_dof_rows` against v's coefficients."""
    f = scaled_field(v)
    rows, den = el._dof_rows(f.degree)
    return (sum(map(mul, rows[el._positions[dof]], chain(*f.comps))),
            den * f.denominator)


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
    label: str

    def rows(self, el, degree):
        """(rows, den) as for `FacetMoment.rows`."""
        return el.moments.weighted_rows(self.weight, degree)

    apply = _moment_apply


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
        """An element on `reference_simplex(dim)` inverts its own DOF
        matrix; any other interpolates through the reference element of its
        (dim, order, variant) and shares its DOFs and inverse."""
        if order < 1:
            raise ValueError("order must be >= 1")
        if variant not in VARIANTS:
            raise ValueError(f"unknown variant {variant!r}")
        self.simplex = simplex
        self.order = order
        self.variant = variant
        self._monomials = monomial_indices(simplex.dim, order)
        self._reference, self._piola = self, None
        self._kh, self._tden, self._sh_inverse = [], 1, None
        if simplex != reference_simplex(simplex.dim):
            ref = self._reference = _reference_element(simplex.dim, order,
                                                       variant)
            self.dofs, self._inverse = ref.dofs, ref._inverse
            self._piola = _Piola(simplex, order)
            if variant == "bdm_original" and order > 1:
                self._kh, self._tden, self._sh_inverse = _correction(
                    self._piola, ref)
        else:
            self.moments = moment_table(simplex)
            self._rows = {}     # degree -> `_dof_rows`
            self.dofs = _dof_functionals(simplex, order, variant)
            self._positions = {dof: i for i, dof in enumerate(self.dofs)}
            n = len(self._monomials)
            if len(self.dofs) != simplex.dim * n:
                raise UnisolvenceError(f"{len(self.dofs)} functionals for a "
                                       f"{simplex.dim * n}-dim space")
            # the DOF matrix in the component-major monomial basis is the
            # DOF rows at degree k, inverted to int rows over one denominator
            rows, den = self._dof_rows(order)
            try:
                self._inverse = linalg.invert(
                    [linalg.Scaled(row, den) for row in rows])
            except linalg.SingularMatrixError as exc:
                raise UnisolvenceError("singular DOF system") from exc
        # the DOFs from `_split` on are the Q_k moments the correction weighs
        self._split = len(self.dofs) - len(self._kh)

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

    def dof_values(self, v: VectorPoly):
        """The element's DOF values of v as ints over one denominator, in
        lowest terms (a `linalg.Scaled`): on a reference element each DOF's
        `apply` (the `bdm.moment_apply` span of perfbench); on a mapped one
        the reference `_dof_rows` against w, v pulled back to the reference
        simplex, and for the Q_k DOFs of a mapped `bdm_original` element
        against G w (see `_correction`)."""
        f, piola = scaled_field(v), self._piola
        if piola is None:
            values = [dof.apply(self, f) for dof in self.dofs]
            den = lcm(*(den for _, den in values))
            nums = [num * (den // d) for num, d in values]
        else:
            w = piola.pull(f)
            rows, den = self._reference._dof_rows(w.degree)
            den *= w.denominator
            nums = _dots(rows[:self._split], w)
            if self._split < len(rows):
                nums += _dots(rows[self._split:], piola.weigh(w))
        return linalg.Scaled(*linalg.lowest_terms(nums, den))

    def field_from_dofs(self, values):
        """The member of P_k^d with these DOF values, a `linalg.Scaled` as
        `dof_values` gives them: the `bdm_original` correction, the
        reference inverse and the Piola push applied right to left in
        integers."""
        y, den = values, values.denominator * self._inverse.denominator
        if self._kh:
            # the reference Q_k values Sh^-1 (Tden t - Kh u) from the values
            # u below the split and the G-weighted ones t
            u, inverse = y[:self._split], self._sh_inverse
            rhs = [self._tden * t - sum(map(mul, row, u))
                   for row, t in zip(self._kh, y[self._split:])]
            y = [inverse.denominator * x for x in u] + [
                sum(map(mul, row, rhs)) for row in inverse]
            den *= inverse.denominator
        coeffs = [sum(map(mul, row, y)) for row in self._inverse]
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

    def interpolate(self, v: VectorPoly) -> VectorPoly:
        """The interpolant of the polynomial field v in P_k^d, exact."""
        return self.field_from_dofs(self.dof_values(v))


def build_element(simplex, k, variant="nedelec") -> BDMElement:
    """The element of order k on `simplex`; on the reference simplex, the
    cached reference element itself."""
    if simplex == reference_simplex(simplex.dim):
        return _reference_element(simplex.dim, k, variant)
    return BDMElement(simplex, k, variant)


@lru_cache(maxsize=None)
def _reference_element(dim, order, variant):
    """The element on reference_simplex(dim), built the first time a (dim,
    order, variant) is asked for: every other element of that kind
    interpolates through it."""
    return BDMElement(reference_simplex(dim), order, variant)


def _mix(mix, comps):
    """Component r of sum_c mix[r][c] comps[c], comps as coefficient lists."""
    return [[sum(map(mul, mix_row, column)) for column in zip(*comps)]
            for mix_row in mix]


def _table(composed, D, degree):
    """The map on coefficients that composes a field of degree <= `degree`
    with an affine chart, times D^degree: the P_a of `composed_monomials`
    as columns, scaled by D^(degree - |a|), and row g the coefficient of
    t^g.  P_a has degree |a|, so a row is (start, entries) from the first
    column of degree |g|, in graded order."""
    columns = [(P, D ** (degree - sum(a))) for a, P in composed.items()]
    dim = len(next(iter(composed)))
    return [(start, [P[g] * s for P, s in columns[start:]]) for g, start in
            enumerate(comb(sum(a) - 1 + dim, dim) for a in composed)]


def _compose(table, comps):
    """Each component's coefficients mapped by the `_table`."""
    return [[sum(map(mul, row, comp[start:])) for start, row in table]
            for comp in comps]


class _Piola:
    """The affine map F(xh) = B xh + b taking reference vertex i to vertex
    i of `simplex`, with J = det B, and the contravariant Piola map P w =
    J^-1 B (w o F^-1) in integers.

    * `pull` gives sign(J) P^-1 v = |J| B^-1 (v o F).  x^a o F is P_a(xh)
      / Ds^|a|, P_a the int coefficients of (Bs xh + bs)^a (the vertices as
      ints over Ds, `composed_monomials`), so a component of degree q
      composes to sum_a v_a Ds^(q-|a|) P_a over Ds^q.
    * `push(w)` / den is sign(J) P w for the int coefficients w of a field
      of degree <= k, so it undoes the sign of `pull`.  With F^-1 = (Ds
      adj(Bs) x - adj(Bs) bs) / det(Bs) over the common denominator D,
      composing with F^-1 times D^k scales x^a by D^(k-|a|), and mix / den
      is B sign(J) / (J B_den D^k), B held as int rows over B_den.
    * `gram` is G = B^T B times B_den^2, as ints (`weigh`)."""

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
        self._backward = _table(backward, D, k)
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
            degree, table = v.degree, _table(composed, Ds, v.degree)
            self._forward = composed, degree, table
        return ScaledField(_mix(self._unmix, _compose(
            table[:len(v.comps[0])], v.comps)),
            v.denominator * Ds ** (degree + d - 1), v.degree)

    def weigh(self, w):
        """G w, for a pulled-back ScaledField w."""
        return ScaledField(_mix(self.gram, w.comps), w.denominator, w.degree)

    def push(self, comps):
        """sum_c mix[r][c] (comps[c] o F^-1 times D^k) per component r."""
        return _mix(self.mix, _compose(self._backward, comps))


@lru_cache(maxsize=None)
def _qk_tables(dim, order):
    """(U, Tden) for the `bdm_original` reference element of (dim, order):
    for a symmetric G, row l of the functional wh -> int_T^ wh . (G zh_l)
    times Vh^-1 is sum_{c <= c'} G[c][c'] U[c, c'][l] / Tden, zh_l the
    element's Q_k weights.

    With H_l the weighted rows of zh_l and T[c, c'][l][j] = sum_a
    H_l[c'][a] Vh^-1[c n + a][j], U[c, c] = T[c, c] and U[c, c'] =
    T[c, c'] + T[c', c]."""
    ref = _reference_element(dim, order, "bdm_original")
    n = len(ref._monomials)
    rows, hden = ref._dof_rows(order)
    H = [[row[c * n:(c + 1) * n] for c in range(dim)]
         for row, dof in zip(rows, ref.dofs)
         if getattr(dof, "label", "") == "qk"]
    blocks = [ref._inverse[c * n:(c + 1) * n] for c in range(dim)]
    T = {(c, c2): [[sum(map(mul, h[c2], column))
                    for column in zip(*blocks[c])] for h in H]
         for c in range(dim) for c2 in range(dim)}
    U = {(c, c2): T[c, c2] if c == c2 else
         [list(map(add, a, b)) for a, b in zip(T[c, c2], T[c2, c])]
         for c in range(dim) for c2 in range(c, dim)}
    return U, hden * ref._inverse.denominator


def _correction(piola, ref):
    """(Kh, Tden, Sh^-1): the factors that turn a mapped `bdm_original`
    element's values into reference DOF values.

    With v = P wh and its interpolant P ph, the facet and gradient moments
    of P w are sign(J) times those of w against the pulled-back facet
    polynomials and gradients, which span the same spaces.  P maps Qh_k
    onto Q_k(T), and the moment of P w against P zh is |J|^-1 int_T^ w .
    (G zh).  So ph has the reference facet and gradient values u of wh,
    and G ph the reference Q_k values t of G wh (Kirby, SMAI J. Comput.
    Math. 4, 2018, for this view of a non-affine-equivalent element).
    With Yh(w) = int_T^ (G w) . zh_l and Yh Vh^-1 = [Kh | Sh] / Tden (from
    `_qk_tables`), Sh r x r, the reference Q_k values of ph are Sh^-1 (Tden
    t - Kh u)."""
    U, Tden = _qk_tables(ref.simplex.dim, ref.order)
    terms = [(piola.gram[c][c2], rows) for (c, c2), rows in U.items()]
    r, N = len(terms[0][1]), len(ref._inverse)
    m = N - r
    S = [[sum(g * rows[l][j] for g, rows in terms) for j in range(N)]
         for l in range(r)]
    return ([row[:m] for row in S], Tden,
            linalg.invert([row[m:] for row in S]))


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
