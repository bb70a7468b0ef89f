"""Bases for the polynomial spaces behind the interpolation operator, and
exact integration over simplices through per-simplex monomial-moment tables.

The constrained spaces (divergence-free with vanishing normal trace, and
the p . x == 0 space) are computed literally as nullspaces of their
defining linear constraints over exact rationals.

Exact integrals are integer arithmetic: a moment table holds its entries
as ints over one denominator, and a polynomial or field is scaled once to
ints over the lcm of its coefficients' denominators, so each integral is
one integer dot product and one Fraction.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial
from operator import add, mul

from . import linalg
from .linalg import over_common_denominator
from .polynomials import (Polynomial, VectorPoly, integrate_reference,
                          monomial_indices)


@dataclass(frozen=True)
class SpaceBasis:
    kind: str
    order: int
    members: tuple

    @property
    def dim(self):
        return len(self.members)

    def __iter__(self):
        return iter(self.members)


# ---------------------------------------------------------------------------
# numbers over one denominator

def quotient(num, den):
    """num / den: a Fraction for an int numerator, else num's own type."""
    return Fraction(num, den) if isinstance(num, int) else num / den


@lru_cache(maxsize=None)
def _monomial_positions(dim, degree):
    """{a: position of x^a in graded order} for |a| <= degree.  Graded
    order makes the monomials of a lower degree a prefix, so a coefficient
    vector of degree n pairs term by term with any longer table row."""
    return {a: j for j, a in enumerate(monomial_indices(dim, degree))}


class ScaledField:
    """A polynomial field as ints over one denominator: component c has
    coefficient comps[c][j] / denominator on the j-th monomial of graded
    order, |a| <= degree."""

    __slots__ = ("comps", "denominator", "degree")

    def __init__(self, v: VectorPoly):
        self.degree = max(p.degree for p in v.comps)
        positions = _monomial_positions(v.dim, self.degree)
        nums, self.denominator = over_common_denominator(
            c for p in v.comps for c in p.terms.values())
        nums = iter(nums)
        self.comps = []
        for p in v.comps:
            dense = [0] * len(positions)
            for a in p.terms:
                dense[positions[a]] = next(nums)
            self.comps.append(dense)


def scaled_field(v):
    """`v` as a ScaledField (returned unchanged if it already is one)."""
    return v if isinstance(v, ScaledField) else ScaledField(v)


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
def _shifted_reference_moments(nvars, degree, shift_degree):
    """(rows, F): rows[b][j] / F == int_ref t^(g_j + b) dt for |g_j| <=
    degree and every |b| <= shift_degree."""
    R, F = _reference_moments(nvars, degree + shift_degree)
    positions = _monomial_positions(nvars, degree + shift_degree)
    gammas = monomial_indices(nvars, degree)
    return {b: [R[positions[tuple(map(add, g, b))]] for g in gammas]
            for b in monomial_indices(nvars, shift_degree)}, F


@lru_cache(maxsize=None)
def _raised_positions(nvars, degree):
    """raised[k][j]: position of t_k times the j-th monomial, |g_j| < degree."""
    positions = _monomial_positions(nvars, degree)
    return [[positions[g[:k] + (g[k] + 1,) + g[k + 1:]]
             for g in monomial_indices(nvars, degree - 1)]
            for k in range(nvars)]


def _composed_monomials(chart, degree):
    """({a: P_a}, D) with x^a o chart == P_a(t) / D^|a| for |a| <= degree.

    D is the common denominator of the chart's entries, so each P_a has int
    coefficients (dense over the monomials of t up to |a|, graded order):
    P_a is one lower-degree P times one scaled chart coordinate.  A float
    chart gives float P_a over D = 1."""
    matrix, origin = chart
    dim, nvars = len(matrix), len(matrix[0])
    nums, D = over_common_denominator([x for row in matrix for x in row]
                                      + list(origin))
    linear = [nums[j * nvars:(j + 1) * nvars] for j in range(dim)]
    offset = nums[dim * nvars:]
    raised = _raised_positions(nvars, degree) if degree else []
    zero = (0,) * dim
    composed = {zero: [1]}
    for a in monomial_indices(dim, degree):
        if a == zero:
            continue
        j = next(j for j, aj in enumerate(a) if aj)
        lower = composed[a[:j] + (a[j] - 1,) + a[j + 1:]]
        P = [0] * comb(sum(a) + nvars, nvars)
        b, A = offset[j], linear[j]
        for pos, c in enumerate(lower):
            if c:
                P[pos] += c * b
                for k in range(nvars):
                    P[raised[k][pos]] += c * A[k]
        composed[a] = P
    return composed, D


class MomentTable:
    """Exact monomial moments on one simplex, filled on first use, as ints
    over one denominator per table.

    Every exact integral the DOF functionals and the norms need is a linear
    functional on monomial coefficients, so it reduces to an integer dot
    product against two kinds of moment:

    * `volume(n)`: int_T x^a dx for |a| <= n, behind ``integrate(p)`` and
      `weighted_rows`;
    * `facet(i, n, m)`: int_ref (x^a o chart_i) t^alpha dt on facet i, in
      the chart of `Simplex.facet_chart`, for |a| <= n and |alpha| <= m.

    Each monomial goes through the chart with int coefficients
    (`_composed_monomials`), and each entry is the dot product of those
    with a cached table of int reference moments g! F / (|g| + d)!.  A
    miss refills the whole table up to the missing degree.  Charts, the
    scaled facet normals (as ints over one denominator, `normals`) and
    |det| are computed once.  A float-vertex simplex goes through the same
    code with float entries over denominator 1.
    """

    __slots__ = ("dim", "normals", "_chart", "_det", "_facet_charts",
                 "_volume", "_facet")

    def __init__(self, simplex):
        self.dim = simplex.dim
        self._chart = simplex.chart()
        self._det = over_common_denominator([abs(simplex.edge_det())])
        self._facet_charts = [simplex.facet_chart(i) for i in range(self.dim + 1)]
        self.normals = [over_common_denominator(simplex.scaled_facet_normal(i))
                        for i in range(self.dim + 1)]
        self._volume = (-1, [], 1)
        self._facet = [(-1, -1, {}, 1)] * (self.dim + 1)

    def volume(self, degree):
        """(V, den): int_T x^a dx == V[j] / den for the j-th monomial a of
        graded order; V covers at least |a| <= degree."""
        n, V, den = self._volume
        if degree > n:
            n = degree
            composed, D = _composed_monomials(self._chart, n)
            R, F = _reference_moments(self.dim, n)
            (det,), det_den = self._det
            V = [det * sum(map(mul, P, R)) * D ** (n - sum(a))
                 for a, P in composed.items()]
            den = det_den * F * D ** n
            self._volume = n, V, den
        return V, den

    def facet(self, i, degree, alpha_degree):
        """(rows, den): int_ref (x^a o chart_i) t^alpha dt == rows[alpha][j]
        / den for the j-th monomial a of graded order; covers at least |a|
        <= degree and |alpha| <= alpha_degree."""
        n, m, rows, den = self._facet[i]
        if degree > n or alpha_degree > m:
            n, m = max(n, degree), max(m, alpha_degree)
            composed, D = _composed_monomials(self._facet_charts[i], n)
            shifted, F = _shifted_reference_moments(self.dim - 1, n, m)
            scales = [D ** (n - sum(a)) for a in composed]
            rows = {alpha: [sum(map(mul, P, moments)) * s
                            for P, s in zip(composed.values(), scales)]
                    for alpha, moments in shifted.items()}
            den = F * D ** n
            self._facet[i] = n, m, rows, den
        return rows, den

    def weighted_rows(self, weight: VectorPoly, degree):
        """(rows, den) with int_T v . weight dx == sum_c dot(rows[c], v_c)
        / den for every field v of degree <= `degree`, v_c the coefficients
        of component c in graded order: rows[c][a] = sum_b w_c,b V[a + b]."""
        wdeg = max(p.degree for p in weight.comps)
        V, den = self.volume(degree + wdeg)
        positions = _monomial_positions(self.dim, degree + wdeg)
        nums, wden = over_common_denominator(
            c for p in weight.comps for c in p.terms.values())
        nums = iter(nums)
        rows = []
        for p in weight.comps:
            terms = [(b, next(nums)) for b in p.terms]
            rows.append([sum(w * V[positions[tuple(map(add, a, b))]]
                             for b, w in terms)
                         for a in _monomial_positions(self.dim, degree)])
        return rows, wden * den

    def integrate(self, p: Polynomial):
        """Exact int_T p dx."""
        V, den = self.volume(p.degree)
        positions = _monomial_positions(self.dim, p.degree)
        nums, pden = over_common_denominator(p.terms.values())
        total = sum(map(mul, nums, [V[positions[a]] for a in p.terms]))
        return quotient(total, pden * den)


@lru_cache(maxsize=8)
def _cached_table(simplex, exact):
    return MomentTable(simplex)


def moment_table(simplex):
    """The MomentTable of a simplex, shared through a small LRU cache.

    Entries depend on the vertices only, so sharing a table cannot change a
    result; an exact simplex and a float one with equal vertices get
    separate tables, since they compute in different number types."""
    return _cached_table(simplex, simplex.exact)


def integrate_poly(p: Polynomial, simplex):
    """Exact integral of a polynomial over a simplex."""
    return moment_table(simplex).integrate(p)


def basis_pk(dim, k):
    """Monomial basis of scalar P_k in graded lexicographic order."""
    if k < 0:
        return SpaceBasis("Pk", k, ())
    members = tuple(Polynomial.monomial(dim, a) for a in monomial_indices(dim, k))
    return SpaceBasis("Pk", k, members)


def basis_pk_vector(dim, k):
    """Component-major vector monomial basis of P_k^d."""
    if k < 0:
        return SpaceBasis("Pk_vec", k, ())
    members = []
    scalars = monomial_indices(dim, k)
    for comp in range(dim):
        for a in scalars:
            comps = [Polynomial.zero(dim) for _ in range(dim)]
            comps[comp] = Polynomial.monomial(dim, a)
            members.append(VectorPoly(comps))
    return SpaceBasis("Pk_vec", k, tuple(members))


def _vector_unknowns(dim, k):
    return [(comp, a) for comp in range(dim) for a in monomial_indices(dim, k)]


def _vectors_to_fields(vectors, unknowns, dim):
    fields = []
    for vec in vectors:
        comps = [Polynomial.zero(dim) for _ in range(dim)]
        for x, (comp, a) in zip(vec, unknowns):
            if x != 0:
                comps[comp] = comps[comp] + Polynomial.monomial(dim, a, x)
        fields.append(VectorPoly(comps))
    return fields


def basis_sk(dim, k):
    """Basis of {p in P_k^d : p . x == 0}, via an exact nullspace."""
    if k < 0:
        return SpaceBasis("Sk", k, ())
    unknowns = _vector_unknowns(dim, k)
    rows_index = {a: r for r, a in enumerate(monomial_indices(dim, k + 1))}
    matrix = [[Fraction(0)] * len(unknowns) for _ in rows_index]
    for col, (comp, a) in enumerate(unknowns):
        target = list(a)
        target[comp] += 1
        matrix[rows_index[tuple(target)]][col] = Fraction(1)
    null = linalg.nullspace(matrix, ncols=len(unknowns))
    return SpaceBasis("Sk", k, tuple(_vectors_to_fields(null, unknowns, dim)))


def basis_nk(dim, k):
    """Basis of P_{k-1}^d + S_k: concatenation reduced to a maximal
    independent subset (the two spans overlap below the top degree)."""
    if k <= 0:
        return SpaceBasis("Nk", k, ())
    candidates = list(basis_pk_vector(dim, k - 1)) + list(basis_sk(dim, k))
    unknowns = _vector_unknowns(dim, k)
    col_of = {ua: i for i, ua in enumerate(unknowns)}
    kept = []
    echelon = {}  # pivot column -> normalized row
    for cand in candidates:
        vec = [Fraction(0)] * len(unknowns)
        for comp, poly in enumerate(cand.comps):
            for a, c in poly.terms.items():
                vec[col_of[(comp, a)]] = Fraction(c)
        for piv, row in echelon.items():
            if vec[piv] != 0:
                f = vec[piv]
                vec = [x - f * y for x, y in zip(vec, row)]
        piv = next((i for i, x in enumerate(vec) if x != 0), None)
        if piv is None:
            continue
        f = vec[piv]
        echelon[piv] = [x / f for x in vec]
        kept.append(cand)
    return SpaceBasis("Nk", k, tuple(kept))


def basis_qk(simplex, k):
    """Basis of {z in P_k^d : div z = 0, z . n = 0 on every facet}."""
    if k < 1:
        return SpaceBasis("Qk", k, ())
    dim = simplex.dim
    unknowns = _vector_unknowns(dim, k)
    rows = []
    # divergence coefficients vanish
    div_index = {a: r for r, a in enumerate(monomial_indices(dim, k - 1))}
    div_rows = [[Fraction(0)] * len(unknowns) for _ in div_index]
    for col, (comp, a) in enumerate(unknowns):
        if a[comp] > 0:
            b = list(a)
            b[comp] -= 1
            div_rows[div_index[tuple(b)]][col] = Fraction(a[comp])
    rows.extend(div_rows)
    # normal trace vanishes identically on each facet (in the facet chart)
    for i in range(dim + 1):
        matrix, origin = simplex.facet_chart(i)
        m = simplex.scaled_facet_normal(i)
        facet_index = {a: r for r, a in enumerate(monomial_indices(dim - 1, k))}
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
    null = linalg.nullspace(rows, ncols=len(unknowns))
    return SpaceBasis("Qk", k, tuple(_vectors_to_fields(null, unknowns, dim)))


def facet_polynomial_count(dim, k):
    """dim P_k on a (d-1)-simplex facet."""
    return len(monomial_indices(dim - 1, k))
