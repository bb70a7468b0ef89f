"""Numerical verification of the stability and interpolation estimates:
norm evaluators, the two right-hand-side forms (directional/regular-vertex
and diameter/maximum-angle), parametrized element families and the named
sweeps over them, and ratio sweeps with a boundedness verdict.

Counterexample identities run in exact rational arithmetic; the derivative
aggregates that involve absolute values go through quadrature.
"""

import csv
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, perm, prod
from operator import add

import numpy as np

from .bdm import build_element
from .geometry import Simplex
from .polynomials import (Polynomial, VectorPoly, composed_monomials,
                          monomial_indices, monomial_positions)
from .quadrature import map_rule
from .spaces import ScaledField, integrate_poly, moment_table, scaled_field

RATIO_SPREAD_CAP = 10.0  # bounded/diverging decision threshold
# a bounded series has stopped growing: the last step of the paper's
# diverging families is 1.6 or more, that of the bounded ones about 1
RATIO_STEP_CAP = 1.25


# ---------------------------------------------------------------------------
# norms and derivative aggregates

def l2_norm_sq(f, simplex):
    """Exact squared L2 norm of a Polynomial or VectorPoly, as the quadratic
    form of `integrate_poly` with f as both factors."""
    return integrate_poly(f, simplex, f)


def l2_norm(f, simplex):
    return math.sqrt(float(l2_norm_sq(f, simplex)))


def multi_indices_of_order(dim, m):
    return [a for a in monomial_indices(dim, m) if sum(a) == m]


@lru_cache(maxsize=None)
def _derivative_map(dim, degree, m):
    """[(sources, factors)] per multi-index beta of order m, in graded
    order: coefficient j of D^beta p, for p of degree `degree`, is
    factors[j] times coefficient sources[j] of p (monomials in graded
    order, |g_j| <= degree - m, and D^beta x^(g + beta) == (g + beta)! /
    g! x^g)."""
    positions = monomial_positions(dim, degree)
    out = []
    for beta in multi_indices_of_order(dim, m):
        lifted = [tuple(map(add, g, beta))
                  for g in monomial_indices(dim, degree - m)]
        out.append(([positions[a] for a in lifted],
                    [prod(map(perm, a, beta)) for a in lifted]))
    return out


class _NormRule:
    """The degree-12 rule on one simplex, and the values at its points of
    the monomials |g| <= n in graded order (one column each), recomputed
    when a higher n is asked for."""

    __slots__ = ("points", "weights", "_values")

    def __init__(self, simplex):
        self.points, self.weights = map_rule(simplex, 12)
        self._values = np.ones((len(self.weights), 1))

    def monomials(self, n):
        dim = self.points.shape[1]
        count = comb(n + dim, dim)
        if self._values.shape[1] < count:
            powers = self.points.T[:, None, :] ** np.arange(n + 1)[:, None]
            values = np.ones((count, len(self.weights)))
            for axis, column in enumerate(
                    np.array(monomial_indices(dim, n)).T):
                values *= powers[axis][column]
            self._values = values.T
        return self._values[:, :count]


@lru_cache(maxsize=4)
def _norm_rule(simplex):
    """The `_NormRule` of a simplex, shared through a small LRU cache."""
    return _NormRule(simplex)


def abs_derivative_sum_norm(f, simplex, m):
    """L2 norm of x -> sum of |all order-m coordinate derivatives| of f,
    summed over components for vector fields (a degree-12 rule; the
    absolute values make the integrand non-polynomial).

    f is scaled once to ints; a cached integer map per (dim, degree, m)
    gives the coefficients of every order-m derivative, each rounded once
    to a float, and all of them are evaluated at the rule's points in one
    product with the rule's monomial table."""
    fs = scaled_field(f)
    if m > fs.degree:
        return 0.0
    den = fs.denominator
    derivatives = [[comp[j] * x / den for j, x in zip(sources, factors)]
                   for comp in fs.comps for sources, factors in
                   _derivative_map(simplex.dim, fs.degree, m)]
    rule = _norm_rule(simplex)
    values = rule.monomials(fs.degree - m) @ np.array(derivatives).T
    total = np.abs(values, out=values).sum(axis=1)
    return math.sqrt(float(np.dot(rule.weights, total * total)))


def _frame_derivative_norms(fs, simplex, directions, order):
    """{alpha: ||D^alpha v||} over |alpha| == order, v as the ScaledField
    fs and D^alpha = prod_i (directions[i] . grad)^alpha_i.

    D^alpha is sum_beta c_beta d^beta, c_beta the coefficient of t^beta in
    prod_i (l_i . t)^alpha_i (`composed_monomials`: ints over Dl^order)
    and d^beta the cached integer map of `_derivative_map`.  Each squared
    norm is exact (`MomentTable.integrate`), rounded once."""
    dim, n = simplex.dim, fs.degree - order
    if n < 0:
        return dict.fromkeys(multi_indices_of_order(dim, order), 0.0)
    composed, Dl = composed_monomials((directions, [0] * dim), order)
    partials = _derivative_map(dim, fs.degree, order)
    norms = {}
    for alpha in multi_indices_of_order(dim, order):
        # the coefficients of degree `order`, graded as the betas are
        weights = composed[alpha][comb(order - 1 + dim, dim):]
        comps = []
        for comp in fs.comps:
            out = [0] * comb(n + dim, dim)
            for w, (sources, factors) in zip(weights, partials):
                if w:
                    out = [x + w * f * comp[s]
                           for x, s, f in zip(out, sources, factors)]
            comps.append(out)
        f = ScaledField(comps, fs.denominator * Dl ** order, n)
        norms[alpha] = math.sqrt(float(moment_table(simplex).integrate(f, f)))
    return norms


def _divergence(fs, dim):
    """div v from v as the ScaledField fs, in ints (d/dx_d comes first),
    as a one-component ScaledField."""
    total = [0] * comb(fs.degree - 1 + dim, dim)
    for comp, (sources, factors) in zip(reversed(fs.comps),
                                        _derivative_map(dim, fs.degree, 1)):
        total = [x + f * comp[s] for x, s, f in zip(total, sources, factors)]
    return ScaledField([total], fs.denominator, fs.degree - 1)


# ---------------------------------------------------------------------------
# right-hand sides of the estimates

def rvp_terms(v, simplex, directions, sizes, m):
    """Labeled terms  h^alpha ||D^alpha_l v||  over |alpha| = m+1, plus the
    h_T^{m+1} ||D^m div v|| divergence term."""
    fs = scaled_field(v)
    norms = _frame_derivative_norms(fs, simplex, directions, m + 1)
    terms = []
    for alpha, norm in norms.items():
        h_alpha = prod((float(hi) ** ai for hi, ai in zip(sizes, alpha)),
                       start=1.0)
        terms.append(("h^" + "".join(map(str, alpha)), h_alpha * norm))
    div = _divergence(fs, simplex.dim)
    terms.append((f"hT^{m + 1}*div", 0.0 if not any(div.comps[0]) else
                  simplex.diameter() ** (m + 1)
                  * abs_derivative_sum_norm(div, simplex, m)))
    return terms


def rhs_mac(v, simplex, m):
    """Maximum-angle form: h_T^{m+1} ||D^{m+1} v|| with the absolute-sum
    derivative convention."""
    h_t = simplex.diameter()
    return [(f"hT^{m + 1}*D{m + 1}v",
             h_t ** (m + 1) * abs_derivative_sum_norm(v, simplex, m + 1))]


def stability_lhs(v, el):
    return l2_norm(el.interpolate(v), el.simplex)

def stability_rhs_rvp(v, simplex, directions, sizes):
    terms = [("l2", l2_norm(v, simplex))]
    fs = scaled_field(v)
    norms = _frame_derivative_norms(fs, simplex, directions, 1)
    for j, hj in enumerate(sizes):
        e_j = tuple(int(i == j) for i in range(simplex.dim))
        terms.append((f"h{j + 1}*dl{j + 1}", float(hj) * norms[e_j]))
    div = _divergence(fs, simplex.dim)
    terms.append(("hT*div", 0.0 if not any(div.comps[0])
                  else simplex.diameter() * l2_norm(div, simplex)))
    return terms


def stability_rhs_mac(v, simplex):
    terms = [("l2", l2_norm(v, simplex))]
    h_t = simplex.diameter()
    for j in range(simplex.dim):
        terms.append((f"hT*dx{j + 1}", h_t * l2_norm(v.diff(j), simplex)))
    return terms


# ---------------------------------------------------------------------------
# element families

@dataclass(frozen=True)
class ElementFamily:
    make: callable          # params tuple -> Simplex
    frame: callable = None  # params tuple -> (directions, sizes) or None


def tstar_simplex(h):
    return Simplex(((-1, 0), (1, 0), (0, h)))


def t1_simplex(*hs):
    if len(hs) == 2:
        h1, h2 = hs
        return Simplex(((0, 0), (h1, 0), (0, h2)))
    h1, h2, h3 = hs
    return Simplex(((0, 0, 0), (h1, 0, 0), (0, h2, 0), (0, 0, h3)))


def weaker_example_tet(h1, h2, h3):
    """Rotated second-family tetrahedron used by the 3D counterexample."""
    return Simplex(((0, 0, 0), (h1, 0, 0), (0, 0, h3), (0, h2, h3)))


def _axes(dim):
    return tuple(tuple(Fraction(int(i == j)) for j in range(dim)) for i in range(dim))


TSTAR_FAMILY = ElementFamily(lambda p: tstar_simplex(p[0]))
T1_FAMILY = ElementFamily(lambda p: t1_simplex(*p),
                          frame=lambda p: (_axes(len(p)), tuple(p)))
WEAKER_FAMILY = ElementFamily(lambda p: weaker_example_tet(*p),
                              frame=lambda p: (_axes(3), tuple(p)))


@dataclass(frozen=True)
class SweepPreset:
    """A named sweep: one estimate of one field over a family, at the grid
    point `point(j)` for each exponent j."""
    family: ElementFamily
    estimate: str
    k: int
    m: int
    pow_min: int            # first exponent of the CLI's default grid
    point: callable         # exponent -> element parameters
    field: callable         # seed -> field
    seeded: bool = False    # whether `field` reads its seed

    def run(self, pows, k=None, seed=0):
        return sweep(self.family, self.field(seed), self.estimate,
                     [self.point(j) for j in pows], k=k or self.k, m=self.m)


SWEEP_PRESETS = {
    "counterexample-2d": SweepPreset(
        TSTAR_FAMILY, "stability_mac", k=1, m=None, pow_min=1,
        point=lambda j: (Fraction(1, 2 ** j),),
        field=lambda seed: VectorPoly([Polynomial.zero(2),
                                       Polynomial.variable(2, 0) ** 2])),
    "counterexample-3d": SweepPreset(
        WEAKER_FAMILY, "interpolation_rvp", k=1, m=0, pow_min=1,
        point=lambda j: (1, 1, 2 ** j),
        field=lambda seed: VectorPoly([
            Polynomial.variable(3, 0) * Polynomial.variable(3, 2),
            -Polynomial.variable(3, 1) * Polynomial.variable(3, 2),
            Polynomial.zero(3)])),
    "rvp-bounded": SweepPreset(
        T1_FAMILY, "interpolation_rvp", k=1, m=1, pow_min=0,
        point=lambda j: (1, 1, 10 ** j),
        field=lambda seed: random_divfree_field(3, random.Random(seed)),
        seeded=True),
}


# ---------------------------------------------------------------------------
# sweeps

@dataclass
class EstimateReport:
    estimate_id: str
    element_params: tuple
    lhs: float
    rhs_terms: list

    @property
    def rhs_total(self):
        return sum(v for _, v in self.rhs_terms)

    @property
    def ratio(self):
        total = self.rhs_total
        return self.lhs / total if total else math.inf


@dataclass
class SweepResult:
    estimate_id: str
    reports: list
    verdict: str


def evaluate_estimate(estimate_id, simplex, v, k, m=None, frame=None):
    """One (element, field) evaluation of a named estimate; returns
    (lhs, labeled rhs terms)."""
    el = build_element(simplex, k)
    if estimate_id == "stability_mac":
        return stability_lhs(v, el), stability_rhs_mac(v, simplex)
    if estimate_id == "stability_rvp":
        directions, sizes = frame
        return stability_lhs(v, el), stability_rhs_rvp(v, simplex, directions, sizes)
    if estimate_id == "interpolation_mac":
        if m is None:
            raise ValueError("interpolation estimates need m")
        err = v - el.interpolate(v)
        return l2_norm(err, simplex), rhs_mac(v, simplex, m)
    if estimate_id == "interpolation_rvp":
        if m is None or frame is None:
            raise ValueError("regular-vertex form needs m and a frame")
        directions, sizes = frame
        err = v - el.interpolate(v)
        return l2_norm(err, simplex), rvp_terms(v, simplex, directions, sizes, m)
    raise ValueError(f"unknown estimate {estimate_id!r}")


def ratio_verdict(ratios):
    """'diverging' for monotone growth past 10x, 'bounded' for spread
    under 10x once the growth has stopped (the last step under
    RATIO_STEP_CAP), otherwise 'inconclusive'.  A single ratio has no
    spread or growth to measure: fewer than two are 'inconclusive'."""
    if len(ratios) < 2:
        return "inconclusive"
    finite = [r for r in ratios if r > 0]
    if not finite:
        return "bounded"
    increasing = all(b > a for a, b in zip(ratios, ratios[1:]))
    # growth counts from the first positive ratio: an exactly interpolated
    # field gives a leading 0
    if increasing and ratios[-1] / finite[0] > RATIO_SPREAD_CAP:
        return "diverging"
    if (max(finite) / min(finite) < RATIO_SPREAD_CAP and len(finite) == len(ratios)
            and ratios[-1] < RATIO_STEP_CAP * ratios[-2]):
        return "bounded"
    return "inconclusive"


def sweep(family: ElementFamily, v, estimate_id, grid, k=1,
          m=None) -> SweepResult:
    """Evaluate an estimate of the field `v` over a parameter grid.

    The frame (directions and size parameters) comes from the family when
    it has one.  Reports keep the per-term breakdown for the CSV export.
    """
    reports = []
    for params in grid:
        params = tuple(params)
        simplex = family.make(params)
        frame = family.frame(params) if family.frame else None
        lhs, terms = evaluate_estimate(estimate_id, simplex, v, k, m=m,
                                       frame=frame)
        reports.append(EstimateReport(estimate_id, params, lhs, terms))
    return SweepResult(estimate_id, reports, ratio_verdict(
        [r.ratio for r in reports]))


def sweep_to_csv(result: SweepResult, path):
    """CSV with one row per grid point: params, lhs, rhs terms, ratio,
    verdict.  Floats are written with repr so identical runs are
    byte-identical."""
    nparams = len(result.reports[0].element_params) if result.reports else 0
    term_labels = [lbl for lbl, _ in result.reports[0].rhs_terms] if result.reports else []
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["estimate_id"]
                        + [f"h{i + 1}" for i in range(nparams)]
                        + ["lhs"] + term_labels + ["ratio", "verdict"])
        for r in result.reports:
            writer.writerow([r.estimate_id]
                            + [_fmt(p) for p in r.element_params]
                            + [_fmt(r.lhs)]
                            + [_fmt(v) for _, v in r.rhs_terms]
                            + [_fmt(r.ratio), result.verdict])


def _fmt(x):
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    return repr(float(x))


# ---------------------------------------------------------------------------
# random test data

def random_polynomial(dim, degree, rng):
    terms = {}
    for alpha in monomial_indices(dim, degree):
        c = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
        if c:
            terms[alpha] = c
    return Polynomial(dim, terms)


def random_divfree_field(degree, rng):
    """Curl of three random potentials in 3D: exactly divergence-free by
    construction."""
    phi = [random_polynomial(3, degree + 1, rng) for _ in range(3)]
    return VectorPoly([
        phi[2].diff(1) - phi[1].diff(2),
        phi[0].diff(2) - phi[2].diff(0),
        phi[1].diff(0) - phi[0].diff(1),
    ])

