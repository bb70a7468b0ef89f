"""Bases for the polynomial spaces behind the interpolation operator, and
exact integration over simplices through per-simplex monomial-moment tables.

The constrained spaces (divergence-free with vanishing normal trace, and
the p . x == 0 space) are computed literally as nullspaces of their
defining linear constraints over exact rationals.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import linalg
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


class MomentTable:
    """Exact monomial moments on one simplex, filled on first use.

    Every exact integral the DOF functionals and the norms need is a linear
    functional on monomial coefficients, so it reduces to a dot product
    against two kinds of moment:

    * int_T x^a dx, behind ``integrate(p)``;
    * ``facet(i, a, alpha, degree)``: int_ref (x^a o chart_i) t^alpha dt on
      facet i, in the chart of `Simplex.facet_chart`.

    Charts, scaled facet normals and |det| are computed once.  Each table
    is filled by total degree: a miss fills every monomial up to the
    missing degree at once.  Only the scalar moments are kept.
    """

    __slots__ = ("dim", "normals", "_chart", "_scale", "_facet_charts",
                 "_volume", "_volume_degree", "_facet", "_facet_degrees")

    def __init__(self, simplex):
        self.dim = simplex.dim
        self._chart = simplex.chart()
        self._scale = abs(simplex.edge_det())
        self._facet_charts = [simplex.facet_chart(i) for i in range(self.dim + 1)]
        self.normals = [simplex.scaled_facet_normal(i)
                        for i in range(self.dim + 1)]
        self._volume = {}
        self._volume_degree = -1
        self._facet = {}
        self._facet_degrees = [(-1, -1)] * (self.dim + 1)

    def _composed_monomials(self, chart, degree):
        """(a, x^a o chart) for every |a| <= degree, in graded order.  Each
        is one lower-degree composition times one composed coordinate,
        which is far cheaper than composing every monomial from scratch."""
        matrix, origin = chart
        coords = [Polynomial.variable(self.dim, j).compose_affine(matrix, origin)
                  for j in range(self.dim)]
        zero = (0,) * self.dim
        composed = {zero: Polynomial.constant(len(matrix[0]), Fraction(1))}
        for a in monomial_indices(self.dim, degree):
            if a != zero:
                j = next(j for j, aj in enumerate(a) if aj)
                composed[a] = composed[a[:j] + (a[j] - 1,) + a[j + 1:]] * coords[j]
            yield a, composed[a]

    def integrate(self, p: Polynomial):
        """Exact int_T p dx."""
        if p.degree > self._volume_degree:
            self._volume_degree = p.degree
            for a, composed in self._composed_monomials(self._chart, p.degree):
                self._volume[a] = integrate_reference(composed) * self._scale
        total = Fraction(0)
        for a, c in p.terms.items():
            total += c * self._volume[a]
        return total

    def facet(self, i, a, alpha, degree):
        """int_ref (x^a o chart_i) t^alpha dt.  A miss fills every |a| and
        every |alpha| up to `degree`, or as far as the missing entry
        needs."""
        try:
            return self._facet[i, a, alpha]
        except KeyError:
            pass
        n, m = self._facet_degrees[i]
        n, m = max(n, degree, sum(a)), max(m, degree, sum(alpha))
        self._facet_degrees[i] = n, m
        betas = monomial_indices(self.dim - 1, m)
        for b, restricted in self._composed_monomials(self._facet_charts[i], n):
            for beta in betas:
                self._facet[i, b, beta] = integrate_reference(
                    restricted * Polynomial.monomial(self.dim - 1, beta))
        return self._facet[i, a, alpha]


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
