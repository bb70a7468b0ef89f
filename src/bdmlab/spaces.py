"""Bases for the polynomial spaces behind the interpolation operator, and
exact integration over simplices through per-simplex monomial-moment tables.

The constrained spaces (divergence-free with vanishing normal trace, and
the p . x == 0 space S_k) are computed literally as nullspaces of their
defining linear constraints over exact rationals.  N_k = P_{k-1}^d + S_k
needs no elimination of its own: p . x == 0 couples only coefficients of
one total degree, so each nullspace vector of S_k is homogeneous, and the
ones below degree k already lie in P_{k-1}^d.

Exact integrals are integer arithmetic: a moment table holds its entries
as ints over one denominator, and a polynomial or field is scaled once to
ints over the lcm of its coefficients' denominators, so each integral is
one integer dot product and one Fraction.  The integral of a product,
an L2 norm squared included, is a quadratic form in the two factors'
coefficients: the product is never formed.
"""

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from math import comb, factorial
from operator import add, mul

from . import linalg
from .linalg import over_common_denominator
from .polynomials import (Polynomial, VectorPoly, composed_monomials,
                          integrate_reference, monomial_indices,
                          monomial_positions, raised_positions)


# ---------------------------------------------------------------------------
# numbers over one denominator

# A polynomial field as ints over one denominator: component c has
# coefficient comps[c][j] / denominator on the j-th monomial of graded
# order, |a| <= degree.
ScaledField = namedtuple("ScaledField", "comps denominator degree")


def scaled_field(v):
    """A VectorPoly, or a Polynomial as a one-component field, as a
    ScaledField over the lcm of its coefficients' denominators (returned
    unchanged if it already is one)."""
    if isinstance(v, ScaledField):
        return v
    terms = [p.terms for p in getattr(v, "comps", (v,))]
    degree = max(map(sum, chain.from_iterable(terms)), default=0)
    positions = monomial_positions(v.dim, degree)
    nums, den = over_common_denominator(
        chain.from_iterable(t.values() for t in terms))
    nums = iter(nums)
    comps = []
    for t in terms:
        dense = [0] * len(positions)
        for j, x in zip(map(positions.__getitem__, t), nums):
            dense[j] = x
        comps.append(dense)
    return ScaledField(comps, den, degree)


# ---------------------------------------------------------------------------
# integer moments

@lru_cache(maxsize=None)
def _reference_moments(nvars, degree):
    """(R, F): int_ref t^g dt == R[j] / F for the j-th monomial g of graded
    order, |g| <= degree, with F = (degree + nvars)!, so every R[j] is
    g! F / (|g| + nvars)!, an int."""
    F = factorial(degree + nvars)
    return [(integrate_reference(Polynomial.monomial(nvars, g)) * F).numerator
            for g in monomial_indices(nvars, degree)], F


@lru_cache(maxsize=None)
def _shift_positions(nvars, degree, shift_degree):
    """cols[i][j]: the position of g_j + b_i among the monomials up to
    degree + shift_degree, g_j the j-th monomial with |g_j| <= degree and
    b_i the i-th with |b_i| <= shift_degree (graded order)."""
    positions = monomial_positions(nvars, degree + shift_degree)
    gammas = monomial_indices(nvars, degree)
    return [[positions[tuple(map(add, g, b))] for g in gammas]
            for b in monomial_indices(nvars, shift_degree)]


class MomentTable:
    """Exact monomial moments on one simplex, filled on first use, as ints
    over one denominator per table.

    Every exact integral the DOF functionals and the norms need is a linear
    functional on monomial coefficients, so it reduces to an integer dot
    product against two kinds of moment:

    * `volume(n)`: int_T x^a dx for |a| <= n, behind `weighted_rows` and
      ``integrate(f, g)``;
    * `facet(i, n, m)`: int_ref (x^a o chart_i) t^alpha dt on facet i, in
      the chart of `Simplex.facet_chart`, for |a| <= n and |alpha| <= m.

    Volume moments come from the vertices v_i alone (Baldoni et al., Math.
    Comp. 80, 2011): int_T x^a dx == |det| a! / (|a| + d)! h_a, with h_a
    the coefficient of xi^a in prod_i 1 / (1 - <xi, v_i>).  The factors
    are multiplied in one at a time, in ints (the vertices scaled by their
    common denominator D), so each h_a is a few products of lower-degree
    ones.  A facet moment composes x^a with the chart in ints
    (`composed_monomials`) and dots the result with a cached table of int
    reference moments g! F / (|g| + d)!.

    A miss rebuilds the volume table from scratch up to the new degree and
    replaces the old one.  Facet moments serve the DOF rows of the two
    reference simplices only, which their elements cache per degree: each
    (i, n, m) is computed from scratch and kept.  |det| is computed once.
    """

    __slots__ = ("dim", "_simplex", "_det", "_volume", "_facet")

    def __init__(self, simplex):
        self.dim = simplex.dim
        self._simplex = simplex
        self._det = abs(simplex.edge_det()).as_integer_ratio()
        self._volume = (-1, [], 1)
        self._facet = {}

    def volume(self, degree):
        """(V, den): int_T x^a dx == V[j] / den for the j-th monomial a of
        graded order; V covers at least |a| <= degree."""
        n, V, den = self._volume
        if degree > n:
            D = self._simplex.denominator
            raised = raised_positions(self.dim, degree)
            # multiplying h by 1 / (1 - <xi, w>) in place, in graded order:
            # h_a gains w_k h_(a - e_k) for each k, and h_(a - e_k) is final
            # by the time a is reached
            h = [1] + [0] * (comb(degree + self.dim, self.dim) - 1)
            for w in self._simplex.scaled_vertices:
                for j in range(len(raised[0])):
                    x = h[j]
                    if x:
                        for k, wk in enumerate(w):
                            h[raised[k][j]] += wk * x
            R, F = _reference_moments(self.dim, degree)
            det, det_den = self._det
            V = [det * r * x * D ** (degree - sum(a)) for a, r, x in
                 zip(monomial_positions(self.dim, degree), R, h)]
            den = det_den * F * D ** degree
            self._volume = degree, V, den
        return V, den

    def facet(self, i, degree, alpha_degree):
        """(rows, normal, den): int_ref (x^a o chart_i) t^alpha dt ==
        rows[alpha][j] / den for the j-th monomial a of graded order, |a| <=
        degree and |alpha| <= alpha_degree.  `normal` is the facet's scaled
        outward normal as (ints, denominator)."""
        key = i, degree, alpha_degree
        if key not in self._facet:
            composed, D = composed_monomials(self._simplex.facet_chart(i),
                                             degree)
            R, F = _reference_moments(self.dim - 1, degree + alpha_degree)
            scaled = [(P, D ** (degree - sum(a))) for a, P in composed.items()]
            rows = {alpha: [sum(map(mul, P, map(R.__getitem__, col))) * s
                            for P, s in scaled] for alpha, col in zip(
                monomial_indices(self.dim - 1, alpha_degree),
                _shift_positions(self.dim - 1, degree, alpha_degree))}
            self._facet[key] = rows, over_common_denominator(
                self._simplex.scaled_facet_normal(i)), F * D ** degree
        return self._facet[key]

    def weighted_rows(self, weight, degree):
        """(rows, den) with int_T v . weight dx == sum_c dot(rows[c], v_c)
        / den for every field v of degree <= `degree`, v_c the coefficients
        of component c in graded order: rows[c][a] = sum_b w_c,b V[a + b].
        `weight` is anything `scaled_field` takes."""
        w = scaled_field(weight)
        V, den = self.volume(degree + w.degree)
        cols = _shift_positions(self.dim, degree, w.degree)
        rows = []
        for comp in w.comps:
            terms = [(x, col) for x, col in zip(comp, cols) if x]
            if not terms:
                rows.append([0] * len(cols[0]))
                continue
            ws = [x for x, _ in terms]
            rows.append([sum(map(mul, ws, map(V.__getitem__, positions)))
                         for positions in zip(*(col for _, col in terms))])
        return rows, w.denominator * den

    def integrate(self, f: VectorPoly, g: VectorPoly):
        """Exact int_T f . g dx, never forming the product: sum_c sum_{a,b}
        f_c,a g_c,b V[a + b], with g's `weighted_rows` against f scaled
        once to ints (and g is not scaled again when it is f)."""
        fs = scaled_field(f)
        rows, den = self.weighted_rows(fs if g is f else g, fs.degree)
        total = sum(sum(map(mul, comp, row))
                    for comp, row in zip(fs.comps, rows, strict=True))
        return Fraction(total, den * fs.denominator)


@lru_cache(maxsize=8)
def moment_table(simplex):
    """The MomentTable of a simplex, shared through a small LRU cache.

    Entries depend on the vertices only, so sharing a table cannot change a
    result."""
    return MomentTable(simplex)


def integrate_poly(f, simplex, g=None):
    """Exact int_T f g dx over a simplex (f . g for fields); g defaults to
    1.  The product is never formed (`MomentTable.integrate`)."""
    if g is None:
        g = Polynomial.constant(f.dim, 1)
    return moment_table(simplex).integrate(f, g)


def basis_pk(dim, k):
    """Monomial basis of scalar P_k in graded lexicographic order."""
    return tuple(Polynomial.monomial(dim, a) for a in monomial_indices(dim, k))


def basis_pk_vector(dim, k):
    """Component-major vector monomial basis of P_k^d."""
    return tuple(VectorPoly([p if c == comp else Polynomial.zero(dim)
                             for c in range(dim)])
                 for comp in range(dim) for p in basis_pk(dim, k))


def _vector_unknowns(dim, k):
    return [(comp, a) for comp in range(dim) for a in monomial_indices(dim, k)]


def _vectors_to_fields(vectors, unknowns, dim):
    fields = []
    for vec in vectors:
        terms = [{} for _ in range(dim)]
        for x, (comp, a) in zip(vec, unknowns):
            if x != 0:
                terms[comp][a] = x
        fields.append(VectorPoly([Polynomial(dim, t) for t in terms]))
    return tuple(fields)


def basis_sk(dim, k):
    """Basis of {p in P_k^d : p . x == 0}, via an exact nullspace."""
    if k < 0:
        return ()
    unknowns = _vector_unknowns(dim, k)
    rows_index = monomial_positions(dim, k + 1)
    matrix = [[0] * len(unknowns) for _ in rows_index]
    for col, (comp, a) in enumerate(unknowns):
        target = a[:comp] + (a[comp] + 1,) + a[comp + 1:]
        matrix[rows_index[target]][col] = 1
    null = linalg.nullspace(matrix)
    return _vectors_to_fields(null, unknowns, dim)


def basis_nk(dim, k):
    """Basis of N_k = P_{k-1}^d + S_k: the monomial basis of P_{k-1}^d,
    then the members of S_k of degree k."""
    if k <= 0:
        return ()
    top = tuple(z for z in basis_sk(dim, k)
                if max(p.degree for p in z.comps) == k)
    return basis_pk_vector(dim, k - 1) + top


def basis_qk(simplex, k):
    """Basis of {z in P_k^d : div z = 0, z . n = 0 on every facet}, via an
    exact nullspace."""
    if k < 1:
        return ()
    dim = simplex.dim
    unknowns = _vector_unknowns(dim, k)
    # divergence coefficients vanish
    div_index = monomial_positions(dim, k - 1)
    rows = [[Fraction(0)] * len(unknowns) for _ in div_index]
    for col, (comp, a) in enumerate(unknowns):
        if a[comp] > 0:
            b = a[:comp] + (a[comp] - 1,) + a[comp + 1:]
            rows[div_index[b]][col] = Fraction(a[comp])
    # normal trace vanishes identically on each facet (in the facet chart)
    facet_index = monomial_positions(dim - 1, k)
    for i in range(dim + 1):
        matrix, origin = simplex.facet_chart(i)
        m = simplex.scaled_facet_normal(i)
        facet_rows = [[Fraction(0)] * len(unknowns) for _ in facet_index]
        composed_cache = {}
        for col, (comp, a) in enumerate(unknowns):
            if m[comp] == 0:
                continue
            if a not in composed_cache:
                composed_cache[a] = Polynomial.monomial(dim, a).compose_affine(
                    matrix, origin)
            for ta, tc in composed_cache[a].terms.items():
                facet_rows[facet_index[ta]][col] += tc * m[comp]
        rows.extend(facet_rows)
    null = linalg.nullspace(rows)
    return _vectors_to_fields(null, unknowns, dim)

