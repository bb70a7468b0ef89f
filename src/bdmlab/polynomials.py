"""Multivariate polynomial algebra in monomial form.

Coefficients are whatever number type is supplied (Fraction on every exact
path, float in the rounded interpolant `interpolate --mode float` prints);
arithmetic never converts, so a computation started in rationals stays
exact.  Composition with an affine chart takes rationals only: it runs in
ints over one denominator.  Terms map a multi-index tuple to its
coefficient; zero coefficients are never stored.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import islice, product
from math import comb, factorial
from operator import mul

from .linalg import over_common_denominator


def grlex_key(alpha):
    return (sum(alpha), alpha)


@lru_cache(maxsize=None)
def monomial_indices(dim, degree):
    """All multi-indices |alpha| <= degree in graded lexicographic order."""
    return tuple(sorted((a for a in product(range(degree + 1), repeat=dim)
                         if sum(a) <= degree), key=grlex_key))


@lru_cache(maxsize=None)
def monomial_positions(dim, degree):
    """{a: position of x^a in graded order} for |a| <= degree.  Graded
    order makes the monomials of a lower degree a prefix, so a coefficient
    vector of degree n pairs term by term with any longer table row."""
    return {a: j for j, a in enumerate(monomial_indices(dim, degree))}


@lru_cache(maxsize=None)
def raised_positions(nvars, degree):
    """raised[k][j]: position of t_k times the j-th monomial, |g_j| < degree."""
    positions = monomial_positions(nvars, degree)
    return [[positions[g[:k] + (g[k] + 1,) + g[k + 1:]]
             for g in monomial_indices(nvars, degree - 1)]
            for k in range(nvars)]


def composed_monomials(chart, degree, composed=None):
    """({a: P_a}, D) with x^a o chart == P_a(t) / D^|a| for |a| <= degree.

    `chart` is (A, b), the map t -> A t + b.  D is the common denominator
    of the chart's entries, so each P_a has int coefficients (dense over
    the monomials of t up to |a|, graded order): P_a is one lower-degree P
    times one scaled chart coordinate.  P_a does not depend on `degree`,
    so `composed`, the dict of an earlier call on the same chart, is
    extended in place by the monomials it lacks."""
    matrix, origin = chart
    dim, nvars = len(matrix), len(matrix[0])
    nums, D = over_common_denominator([x for row in matrix for x in row]
                                      + list(origin))
    linear = [nums[j * nvars:(j + 1) * nvars] for j in range(dim)]
    offset = nums[dim * nvars:]
    raised = raised_positions(nvars, degree) if degree else []
    if not composed:
        composed = {(0,) * dim: [1]}
    # graded order: the monomials `composed` holds are a prefix
    for a in islice(monomial_positions(dim, degree), len(composed), None):
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


def composition_table(composed, D, degree, nvars):
    """The map on coefficients that composes a polynomial of degree <=
    `degree` with an affine chart of `nvars` parameters, times D^degree:
    the P_a of `composed_monomials` as columns, scaled by D^(degree - |a|),
    and row g the coefficient of t^g.  P_a has degree |a|, so a row is
    (start, entries) from the first column of degree |g|, in graded
    order."""
    columns = [(P, D ** (degree - sum(a))) for a, P in composed.items()]
    dim = len(next(iter(composed)))
    return [(start, [P[g] * s for P, s in columns[start:]]) for g, start in
            enumerate(comb(sum(t) - 1 + dim, dim)
                      for t in monomial_indices(nvars, degree))]


def compose(table, comps):
    """Each component's coefficients mapped by a `composition_table`."""
    return [[sum(map(mul, row, comp[start:])) for start, row in table]
            for comp in comps]


class Polynomial:
    __slots__ = ("dim", "terms")

    def __init__(self, dim, terms=None):
        self.dim = dim
        self.terms = {}
        if terms:
            for alpha, c in terms.items():
                if c != 0:
                    self.terms[tuple(alpha)] = c

    @staticmethod
    def zero(dim):
        return Polynomial(dim)

    @staticmethod
    def constant(dim, c):
        return Polynomial(dim, {(0,) * dim: c})

    @staticmethod
    def variable(dim, i):
        alpha = [0] * dim
        alpha[i] = 1
        return Polynomial(dim, {tuple(alpha): Fraction(1)})

    @staticmethod
    def monomial(dim, alpha, c=Fraction(1)):
        return Polynomial(dim, {tuple(alpha): c})

    @property
    def degree(self):
        return max((sum(a) for a in self.terms), default=0)

    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(self.dim, other)
        terms = dict(self.terms)
        for a, c in other.terms.items():
            s = terms.get(a, 0) + c
            if s == 0:
                terms.pop(a, None)
            else:
                terms[a] = s
        return Polynomial(self.dim, terms)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(self.dim, {a: -c for a, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(self.dim, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            if other == 0:
                return Polynomial(self.dim)
            return Polynomial(self.dim, {a: c * other for a, c in self.terms.items()})
        terms = {}
        for a, ca in self.terms.items():
            for b, cb in other.terms.items():
                key = tuple(x + y for x, y in zip(a, b))
                s = terms.get(key, 0) + ca * cb
                if s == 0:
                    terms.pop(key, None)
                else:
                    terms[key] = s
        return Polynomial(self.dim, terms)

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        return Polynomial(self.dim, {a: c / scalar for a, c in self.terms.items()})

    def __pow__(self, n):
        result = Polynomial.constant(self.dim, Fraction(1))
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return self.terms == {} and other == 0 or \
                self.terms == {(0,) * self.dim: other}
        return self.dim == other.dim and self.terms == other.terms

    def __hash__(self):
        return hash((self.dim, frozenset(self.terms.items())))

    def diff(self, axis):
        terms = {}
        for a, c in self.terms.items():
            if a[axis] == 0:
                continue
            b = list(a)
            b[axis] -= 1
            terms[tuple(b)] = c * a[axis]
        return Polynomial(self.dim, terms)

    def compose_affine(self, matrix, offset):
        """p(A t + b) as a polynomial in t.

        `matrix` has self.dim rows; the number of columns sets the dimension
        of the result, so a 3-variable polynomial restricted to a 2-parameter
        facet chart comes out as a 2-variable polynomial.  With p's
        coefficients as ints over den, p o chart is their image under the
        `composition_table` of degree n, the degree of p, over den D^n.
        """
        n, nvars = self.degree, len(matrix[0])
        composed, D = composed_monomials((matrix, offset), n)
        # `composed` holds the monomials up to n in graded order
        nums, den = over_common_denominator(self.terms.get(a, 0)
                                            for a in composed)
        (total,) = compose(composition_table(composed, D, n, nvars), [nums])
        den *= D ** n
        return Polynomial(nvars, {t: Fraction(x, den) for t, x in zip(
            monomial_indices(nvars, n), total) if x})

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: grlex_key(kv[0]))

    def __repr__(self):
        if not self.terms:
            return "0"
        names = ["x1", "x2", "x3", "x4"][: self.dim]
        parts = []
        for a, c in self.sorted_terms():
            mono = "*".join(
                f"{names[i]}^{ai}" if ai > 1 else names[i]
                for i, ai in enumerate(a) if ai
            )
            parts.append(f"{c}" if not mono else f"{c}*{mono}")
        return " + ".join(parts)


class VectorPoly:
    """A d-component polynomial field; components share the variable count."""

    __slots__ = ("comps",)

    def __init__(self, comps):
        comps = tuple(comps)
        if len({p.dim for p in comps}) > 1:
            raise ValueError("components must share dimension")
        self.comps = comps

    @staticmethod
    def zero(n, dim):
        return VectorPoly([Polynomial.zero(dim) for _ in range(n)])

    @property
    def dim(self):
        return self.comps[0].dim

    def __getitem__(self, i):
        return self.comps[i]

    def __add__(self, other):
        return VectorPoly([a + b for a, b in zip(self.comps, other.comps)])

    def __sub__(self, other):
        return VectorPoly([a - b for a, b in zip(self.comps, other.comps)])

    def __mul__(self, scalar):
        return VectorPoly([p * scalar for p in self.comps])

    __rmul__ = __mul__

    def __neg__(self):
        return VectorPoly([-p for p in self.comps])

    def __eq__(self, other):
        return isinstance(other, VectorPoly) and self.comps == other.comps

    def __hash__(self):
        return hash(self.comps)

    def diff(self, axis):
        return VectorPoly([p.diff(axis) for p in self.comps])

    def __repr__(self):
        return "(" + ", ".join(repr(p) for p in self.comps) + ")"


def integrate_reference(p):
    """Exact integral over the unit simplex {t_i >= 0, sum t_i <= 1}.

    Uses the monomial formula  int t^alpha = (prod alpha_i!) / (|alpha|+d)!.
    """
    total = Fraction(0)
    d = p.dim
    for a, c in p.terms.items():
        num = 1
        for ai in a:
            num *= factorial(ai)
        total += Fraction(num, factorial(sum(a) + d)) * c
    return total
