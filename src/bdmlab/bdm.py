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
the scaled normal, or an interior row the element caches).  DOFs hold no
state, so elements share them.  Facet moments are taken in a facet chart
against the scaled outward normal, which makes them equal to the physical
surface moments while keeping every number rational.  `dof_values` scales
a field of any degree once to ints over one denominator and applies each
DOF as an integer dot product.

The interpolant's coefficients are the inverse DOF (Vandermonde) matrix
V^-1 applied to the DOF values, which `dof_values` returns as ints over
one denominator.  An element on `reference_simplex(d)` inverts its own
DOF matrix, as int rows over one denominator; one per (d, k, variant) is
cached (`_reference_element`).  Every other element is mapped from it
with the contravariant Piola map and forms no V^-1 of its own: it keeps
the factors of V^-1 = sign(J) M Vh^-1 L (`_mapping`) and applies them to
each field's DOF values in integers.  The variants differ only in L:

* ``nedelec`` commutes with Piola, so L is read off, with no elimination;
* ``bdm_original`` does not, but only its r = dim Q_k moments fail to
  map.  Its Q_k weights are the pushed reference basis, which spans
  Q_k(T), and L holds an exact rank-r correction: one r x r system is
  eliminated per element.

Simplex vertices are Fractions, so every interpolant of a rational field
is exact: the one the element's own DOF matrix gives, Fraction for
Fraction.  On a tetrahedron with 15-digit decimal vertices, a d = 3
`nedelec` element of order 6 builds and interpolates once in 0.17 s; it
took 4.2 s when it formed V^-1 (one core of a shared 2-core VM).
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, isfinite, lcm
from operator import add, mul

import numpy as np

from . import linalg
from .geometry import (Simplex, adjugate, determinant, reference_simplex,
                       t_bar_simplex)
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
        """(num, den): the DOF's value on v is num / den, both ints."""
        f = scaled_field(v)
        row, normal, den = self._table_row(el, f.degree)
        total = sum(m * sum(map(mul, comp, row))
                    for m, comp in zip(normal, f.comps) if m)
        return total, den * f.denominator

    def apply_quad(self, el, f, degree):
        pts, wts = simplex_rule(el.simplex.dim - 1, degree)
        A, b = (np.array(x, dtype=float)
                for x in el.simplex.facet_chart(self.facet))
        phys = pts @ A.T + b
        m = np.array(el.simplex.scaled_facet_normal(self.facet), dtype=float)
        vals = np.asarray(f(phys), dtype=float)  # (npts, d)
        mono = np.prod(pts ** np.array(self.alpha), axis=1)
        return float(np.dot(wts, (vals @ m) * mono))


@dataclass(frozen=True, eq=False)
class InteriorMoment:
    """v -> int_T v . weight dx: rows[c][a] = sum_b weight_c,b int_T x^(a+b).
    Hashed by identity: it keys the element's row cache."""

    weight: VectorPoly
    label: str

    def rows(self, el, degree):
        """(rows, den) as for `FacetMoment.rows`; cached on the element at
        the highest field degree asked for.  Graded order makes the rows for
        a lower degree a prefix, so a higher degree extends the cached rows
        (rescaled to the new denominator) by its new monomials only."""
        cached = el._rows.get(self)
        if cached is None:
            cached = el._rows[self] = (
                degree, *el.moments.weighted_rows(self.weight, degree))
        elif cached[0] < degree:
            _, old, old_den = cached
            new, den = el.moments.weighted_rows(self.weight, degree,
                                                len(old[0]))
            scale = den // old_den
            cached = el._rows[self] = (degree, [
                [x * scale for x in head] + tail
                for head, tail in zip(old, new)], den)
        return cached[1:]

    def apply(self, el, v):
        """(num, den) as for `FacetMoment.apply`."""
        f = scaled_field(v)
        rows, den = self.rows(el, f.degree)
        total = sum(sum(map(mul, comp, row)) for comp, row in zip(f.comps, rows))
        return total, den * f.denominator

    def apply_quad(self, el, f, degree):
        pts, wts = simplex_rule(el.simplex.dim, degree)
        A, b = (np.array(x, dtype=float) for x in el.simplex.chart())
        phys = pts @ A.T + b
        vals = np.asarray(f(phys), dtype=float)
        wvals = np.column_stack([p.eval(phys) for p in self.weight.comps])
        scale = abs(float(np.linalg.det(A)))
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
        """An element on `reference_simplex(dim)` inverts its own DOF
        matrix; any other is mapped from the reference element of its
        (dim, order, variant) and shares its inverse (see `_mapping`)."""
        if order < 1:
            raise ValueError("order must be >= 1")
        if variant not in VARIANTS:
            raise ValueError(f"unknown variant {variant!r}")
        self.simplex = simplex
        self.order = order
        self.variant = variant
        self.moments = moment_table(simplex)
        self._monomials = monomial_indices(simplex.dim, order)
        self._rows = {}     # InteriorMoment -> (degree, rows, den)
        if simplex == reference_simplex(simplex.dim):
            self.dofs = _dof_functionals(simplex, order, variant)
            n = len(self._monomials)
            if len(self.dofs) != simplex.dim * n:
                raise UnisolvenceError(f"{len(self.dofs)} functionals for a "
                                       f"{simplex.dim * n}-dim space")
            # the DOF matrix in the component-major monomial basis is the
            # DOF rows at degree k, inverted to int rows over one denominator
            vandermonde = []
            for dof in self.dofs:
                rows, den = dof.rows(self, order)
                vandermonde.append(linalg.Scaled(
                    [x for row in rows for x in row[:n]], den))
            try:
                self._inverse = linalg.invert(vandermonde)
            except linalg.SingularMatrixError as exc:
                raise UnisolvenceError("singular DOF system") from exc
            self._piola = None
        else:
            ref = _reference_element(simplex.dim, order, variant)
            self._inverse = ref._inverse
            self.dofs, self._piola, lower, self._lower_den = _mapping(
                simplex, ref)
            # each row of L as (first nonzero column, the row from there
            # to its last nonzero entry): most of a row is zeros
            self._lower = []
            for row in lower:
                nonzero = [j for j, x in enumerate(row) if x] or [0]
                self._lower.append((nonzero[0],
                                    row[nonzero[0]:nonzero[-1] + 1]))

    @property
    def ndofs(self):
        return len(self.dofs)

    def dof_values(self, v: VectorPoly):
        """The DOF values of v as ints over one denominator, in lowest
        terms (a `linalg.Scaled`)."""
        f = scaled_field(v)
        values = [dof.apply(self, f) for dof in self.dofs]
        den = lcm(*(den for _, den in values))
        return linalg.Scaled(*linalg.lowest_terms(
            [num * (den // d) for num, d in values], den))

    def field_from_dofs(self, values):
        """The member of P_k^d with these DOF values (a `linalg.Scaled`, or
        ints, Fractions or floats): V^-1 = sign(J) M Vh^-1 L applied right
        to left in integers (see `_mapping`).  A float enters as the
        Fraction it is, and the coefficients are rounded once, at the end."""
        exact = isinstance(values, linalg.Scaled) or all(
            isinstance(x, (Fraction, int)) for x in values)
        if not isinstance(values, linalg.Scaled):
            if not exact and not all(map(isfinite, values)):
                raise ValueError("DOF values must be finite")
            values = linalg.Scaled(*linalg.over_common_denominator(
                map(Fraction, values)))
        y, den = values, values.denominator * self._inverse.denominator
        piola = self._piola
        if piola is not None:
            # L y times Dc: the facet values, then the rows below them
            Dc, nf = self._lower_den, len(y) - len(self._lower)
            y = [Dc * x for x in y[:nf]] + [sum(map(mul, row, y[start:]))
                                            for start, row in self._lower]
            den *= piola.den * Dc
        coeffs = [sum(map(mul, row, y)) for row in self._inverse]
        # the basis is component-major: one block of monomial coefficients
        # per component
        d, n = self.simplex.dim, len(self._monomials)
        comps = [coeffs[c * n:(c + 1) * n] for c in range(d)]
        if piola is not None:
            comps = piola.push(comps, piola.mix)
        return VectorPoly([Polynomial(d, {
            a: Fraction(x, den) if exact else x / den
            for a, x in zip(self._monomials, comp) if x}) for comp in comps])

    def interpolate(self, v, quad_degree=None) -> VectorPoly:
        """Interpolant in P_k^d; exact for polynomial fields.  Callables go
        through quadrature of the given degree (default 2k + 4)."""
        if isinstance(v, VectorPoly):
            return self.field_from_dofs(self.dof_values(v))
        if quad_degree is None:
            quad_degree = 2 * self.order + 4
        return self.field_from_dofs([dof.apply_quad(self, v, quad_degree)
                                     for dof in self.dofs])


def build_element(simplex, k, variant="nedelec") -> BDMElement:
    """The element of order k on `simplex`; on the reference simplex, the
    cached reference element itself."""
    if simplex == reference_simplex(simplex.dim):
        return _reference_element(simplex.dim, k, variant)
    return BDMElement(simplex, k, variant)


@lru_cache(maxsize=None)
def _reference_element(dim, order, variant):
    """The element on reference_simplex(dim), built the first time a (dim,
    order, variant) is asked for: every other element of that kind is
    mapped from it."""
    return BDMElement(reference_simplex(dim), order, variant)


class _Piola:
    """The affine map F(xh) = B xh + b taking reference vertex i to vertex
    i of `simplex`, in integers up to degree k.

    Q[g][j] is D^k times the coefficient of x^g in xh^a o F^-1, a the j-th
    monomial (D the common denominator of F^-1 = (Ds adj(Bs) x - adj(Bs)
    bs) / det(Bs), from the int vertices over Ds, and `inverse` the int
    rows of D B^-1); B is held as int rows over B_den.  With J = det B,
    sign(J) P w is `push(w, mix)` / den (P as in `_mapping`)."""

    def __init__(self, simplex, k):
        d, Ds = simplex.dim, simplex.denominator
        *vertices, origin = simplex.scaled_vertices
        Bs = [[v[r] - origin[r] for v in vertices] for r in range(d)]
        det, adj = determinant(Bs), adjugate(Bs)
        offset = [-sum(map(mul, row, origin)) for row in adj]
        common = gcd(det, *(x * Ds for row in adj for x in row), *offset)
        common *= 1 if det > 0 else -1
        self.D = det // common
        self.inverse = [[x * Ds // common for x in row] for row in adj]
        composed, _ = composed_monomials(
            (self.inverse, [x // common for x in offset]), k)
        n = len(composed)
        self.Q = [[0] * n for _ in range(n)]
        for j, (a, P) in enumerate(composed.items()):
            scale = self.D ** (k - sum(a))
            for g, x in enumerate(P):
                self.Q[g][j] = x * scale
        common = gcd(Ds, *(x for row in Bs for x in row))
        self.B_den = Ds // common
        self.B = [[x // common for x in row] for row in Bs]
        # sign(J) / J == 1 / |J|, so mix / den is B sign(J) / (J B_den D^k)
        J = Fraction(det, Ds ** d)
        self.mix = [[x * J.denominator for x in row] for row in self.B]
        self.den = abs(J.numerator) * self.B_den * self.D ** k

    def push(self, comps, mix):
        """Component r of sum_c mix[r][c] (Q comps[c]): a field's int
        coefficients composed with F^-1 (times D^k), then mixed."""
        composed_comps = [[sum(map(mul, row, comp)) for row in self.Q]
                          for comp in comps]
        return [[sum(map(mul, mix_row, column))
                 for column in zip(*composed_comps)] for mix_row in mix]


def _mapping(simplex, ref):
    """(dofs, piola, lower, Dc): the DOFs of the element on `simplex` and
    the factors of its inverse DOF matrix, mapped from the reference
    element `ref` of the same order and variant.

    The contravariant Piola map P w = J^-1 B (w o F^-1) (see `_Piola`)
    carries P_k^d onto itself; M is P on monomial coefficients.  Facet
    charts and scaled normals are affine-covariant (m = |J| B^-T mh), so
    each facet DOF of P w is sign(J) times that of w.  Then V^-1 = sign(J)
    M Vh^-1 L, where L is the identity on facet DOFs and the rows `lower`
    / Dc of the interior variant's block (`_nedelec_block`,
    `_bdm_original_block`) below them.  No product is formed: the element
    keeps the reference's Vh^-1, and `BDMElement.field_from_dofs` applies L,
    Vh^-1 and sign(J) M to each field's DOF values in turn.  Forming the
    N x N product took most of a mapped build: at k = 5 on the 15-digit
    tetrahedron, a `nedelec` build takes 0.03 s, and took 1.1 s with it.
    The DOFs are the reference's, except for the `bdm_original` Q_k
    moments, whose weights are pushed onto `simplex`.
    """
    d, k = simplex.dim, ref.order
    piola = _Piola(simplex, k)
    nf = (d + 1) * len(monomial_indices(d - 1, k))
    if nf == len(ref.dofs):     # k = 1: facet DOFs only
        return ref.dofs, piola, [], 1
    if ref.variant == "nedelec":
        return (ref.dofs, piola, *_nedelec_block(piola, ref, nf))
    lower, Dc, qk = _bdm_original_block(piola, ref, nf)
    return ref.dofs[:len(ref.dofs) - len(qk)] + qk, piola, lower, Dc


def _nedelec_block(piola, ref, nf):
    """(block, Dc) for `nedelec`: an interior weight z pulls back to B^T (z
    o F), and N_{k-1} is invariant under this map, so L holds, on interior
    DOFs, the basis_nk coordinates of B^-T (zh o F^-1) (times Dc).  A
    member of basis_nk is 1 at its last nonzero entry and 0 at that of
    every other member (the monomials of P_{k-2}^d, and S_{k-1}'s nullspace
    vectors at their free columns), so those coordinates are read off, not
    solved for."""
    k, D = ref.order, piola.D
    scaled = [scaled_field(dof.weight) for dof in ref.dofs[nf:]]
    pivots = [max((c, j) for c, comp in enumerate(z.comps)
                  for j, x in enumerate(comp) if x) for z in scaled]
    # B^-T is (D B^-1)^T / D, so the pushed weight zh is over
    # zh.denominator D^(k+1)
    inverse_transposed = list(zip(*piola.inverse))
    lcm_den = lcm(*(z.denominator for z in scaled))
    block = []
    for z in scaled:
        pushed = piola.push(z.comps, inverse_transposed)
        block.append([0] * nf + [pushed[c][j] * (lcm_den // z.denominator)
                                 for c, j in pivots])
    return block, lcm_den * D ** (k + 1)


@lru_cache(maxsize=None)
def _qk_tables(dim, order):
    """(zh, U, Tden) for the `bdm_original` reference element of (dim,
    order): its Q_k weights zh_l as ScaledFields, and the tables that give
    Yh Vh^-1 for any map: for a symmetric G, row l of the functional
    wh -> int_T^ wh . (G zh_l) times Vh^-1 is sum_{c <= c'} G[c][c']
    U[c, c'][l] / Tden.

    With H_l the weighted rows of zh_l and T[c, c'][l][j] = sum_a
    H_l[c'][a] Vh^-1[c n + a][j], U[c, c] = T[c, c] and U[c, c'] =
    T[c, c'] + T[c', c]."""
    ref = _reference_element(dim, order, "bdm_original")
    n = len(ref._monomials)
    qk = [dof for dof in ref.dofs if getattr(dof, "label", "") == "qk"]
    H = [dof.rows(ref, order) for dof in qk]
    hden = lcm(*(den for _, den in H))
    H = [[[x * (hden // den) for x in row[:n]] for row in rows]
         for rows, den in H]
    blocks = [ref._inverse[c * n:(c + 1) * n] for c in range(dim)]
    T = {(c, c2): [[sum(map(mul, h[c2], column))
                    for column in zip(*blocks[c])] for h in H]
         for c in range(dim) for c2 in range(dim)}
    U = {(c, c2): T[c, c2] if c == c2 else
         [list(map(add, a, b)) for a, b in zip(T[c, c2], T[c2, c])]
         for c in range(dim) for c2 in range(c, dim)}
    return ([scaled_field(dof.weight) for dof in qk], U,
            hden * ref._inverse.denominator)


def _bdm_original_block(piola, ref, nf):
    """(block, Dc, qk) for `bdm_original`, whose Q_k moments do not commute
    with P (Kirby, SMAI J. Comput. Math. 4, 2018, for this view of a
    non-affine-equivalent element); qk are the element's Q_k DOFs.

    * Gradient DOFs: the moment of P w against grad x^b is sign(J) times
      that of w against grad (x^b o F), so V_g M = sign(J) C_g Vh_g, and
      C_g^-1[g][b] is the coefficient of x^b in xh^g o F^-1 (constants
      dropped), read off Q.
    * Q_k: P maps Qh_k onto Q_k(T), and the interpolant depends on that
      space, not on a basis of it, so the Q_k weights are the pushed
      reference basis J P zh_l = B (zh_l o F^-1).  The moment of P w
      against it is sign(J) int_T^ w . (B^T B zh_l) = J Yh(w), with Yh(w)
      := |J|^-1 int_T^ w . (B^T B zh), and Yh Vh^-1 = [Kh | Sh] with Sh
      r x r, r = dim Q_k (from `_qk_tables`).

    V M Vh^-1 = diag(sign(J) I, sign(J) C_g, J I) [[I, 0], [Kh, Sh]], so in
    V^-1 = sign(J) M Vh^-1 L the rows of L below the facet DOFs are
    [0, C_g^-1, 0] and [-Sh^-1 Kh_f, -Sh^-1 Kh_g C_g^-1, Sh^-1 / |J|], and
    only Sh is eliminated.
    """
    d, k = ref.simplex.dim, ref.order
    zh, U, Tden = _qk_tables(d, k)
    r, N = len(zh), len(ref._inverse)
    m = N - r
    Dk = piola.D ** k
    # C_g^-1 times D^k
    grad = range(1, m - nf + 1)
    Cg = [[piola.Q[b][g] for b in grad] for g in grad]
    # [Kh | Sh] times |J| B_den^2 Tden, with G = B^T B times B_den^2
    B = piola.B
    G = [[sum(B[a][c] * B[a][c2] for a in range(d)) for c2 in range(d)]
         for c in range(d)]
    terms = [(G[c][c2], rows) for (c, c2), rows in U.items()]
    S = [[sum(g * rows[l][j] for g, rows in terms) for j in range(N)]
         for l in range(r)]
    # Sh_int = S[:, m:] is Sh times |J| B_den^2 Tden, so X = [A | E] / sden
    # with A / sden = Sh^-1 Kh and E / sden = Sh_int^-1
    X = linalg.solve([row[m:] for row in S],
                     [row[:m] + [int(i == l) for i in range(r)]
                      for l, row in enumerate(S)])
    # L below the facet rows, over Dc = sden D^k; Sh^-1 / |J| is B_den^2
    # Tden E / sden
    sden = X.denominator
    block = [[0] * nf + [x * sden for x in row] + [0] * r for row in Cg]
    for row in X:
        block.append([-x * Dk for x in row[:nf]]
                     + [-sum(map(mul, row[nf:m], column))
                        for column in zip(*Cg)]
                     + [x * piola.B_den ** 2 * Tden * Dk for x in row[m:]])
    # J P zh_l: `push` gives it times B_den D^k zh_l.denominator
    monomials = monomial_indices(d, k)
    qk = tuple(InteriorMoment(VectorPoly([Polynomial(d, {
        a: Fraction(x, piola.B_den * Dk * z.denominator)
        for a, x in zip(monomials, comp) if x})
        for comp in piola.push(z.comps, B)]), "qk") for z in zh)
    return block, sden * Dk, qk


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
