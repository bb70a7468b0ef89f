"""Numerical verification of the stability and interpolation estimates:
norm evaluators, the two right-hand-side forms (directional/regular-vertex
and diameter/maximum-angle), parametrized element families, and ratio
sweeps with a boundedness verdict.

Counterexample identities run in exact rational arithmetic; the derivative
aggregates that involve absolute values go through quadrature.
"""

import csv
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import linalg
from .bdm import build_element
from .geometry import Simplex
from .polynomials import Polynomial, VectorPoly, monomial_indices
from .quadrature import map_rule
from .spaces import basis_pk, integrate_poly

RATIO_SPREAD_CAP = 10.0  # bounded/diverging decision threshold
MAC_RATIO_CAP = 100.0    # absolute cap used by the 100-random-element check


# ---------------------------------------------------------------------------
# norms and derivative aggregates

def l2_norm_sq(f, simplex):
    """Exact squared L2 norm of a Polynomial or VectorPoly."""
    if isinstance(f, VectorPoly):
        return integrate_poly(f.dot(f), simplex)
    return integrate_poly(f * f, simplex)


def l2_norm(f, simplex):
    return math.sqrt(float(l2_norm_sq(f, simplex)))


def l2_component_norms(v: VectorPoly, simplex):
    """Norm broken over components."""
    return [math.sqrt(float(l2_norm_sq(p, simplex))) for p in v.comps]


def l2_norm_quad(f, simplex, degree):
    """Quadrature L2 norm of a callable taking (m, d) points."""
    pts, wts = map_rule(simplex, degree)
    vals = np.asarray(f(pts), dtype=float)
    if vals.ndim == 2:
        vals = np.sum(vals * vals, axis=1)
    else:
        vals = vals * vals
    return math.sqrt(float(np.dot(wts, vals)))


def multi_indices_of_order(dim, m):
    return [a for a in monomial_indices(dim, m) if sum(a) == m]


def derivative(poly, beta):
    out = poly
    for axis, times in enumerate(beta):
        for _ in range(times):
            out = out.diff(axis)
    return out


def directional_derivative(field, alpha, directions):
    """D^alpha along the given direction vectors (iterated, they commute)."""
    out = field
    for i, times in enumerate(alpha):
        for _ in range(times):
            out = out.directional_diff(directions[i])
    return out


def abs_derivative_sum_norm(f, simplex, m, degree=12):
    """L2 norm of x -> sum of |all order-m coordinate derivatives| of f,
    summed over components for vector fields (quadrature; the absolute
    values make the integrand non-polynomial)."""
    comps = f.comps if isinstance(f, VectorPoly) else (f,)
    dim = comps[0].dim
    derivs = [derivative(p, beta) for p in comps
              for beta in multi_indices_of_order(dim, m)]
    pts, wts = map_rule(simplex, degree)
    total = np.zeros(len(wts))
    for dp in derivs:
        total += np.abs(dp.eval(pts))
    return math.sqrt(float(np.dot(wts, total * total)))


# ---------------------------------------------------------------------------
# right-hand sides of the estimates

def rvp_terms(v, simplex, directions, sizes, m):
    """Labeled terms  h^alpha ||D^alpha_l v||  over |alpha| = m+1, plus the
    h_T^{m+1} ||D^m div v|| divergence term."""
    dim = simplex.dim
    terms = []
    for alpha in multi_indices_of_order(dim, m + 1):
        h_alpha = 1.0
        for hi, ai in zip(sizes, alpha):
            h_alpha *= float(hi) ** ai
        dv = directional_derivative(v, alpha, directions)
        label = "h^" + "".join(map(str, alpha))
        terms.append((label, h_alpha * l2_norm(dv, simplex)))
    div = v.divergence()
    h_t = simplex.diameter()
    if div.is_zero():
        div_term = 0.0
    else:
        div_term = h_t ** (m + 1) * abs_derivative_sum_norm(div, simplex, m)
    terms.append((f"hT^{m + 1}*div", div_term))
    return terms


def rhs_rvp(v, report, m):
    """Regular-vertex form of the error bound; needs a first-family report."""
    if report.family != "T1":
        raise ValueError("regular-vertex right-hand side needs family T1")
    return rvp_terms(v, report.simplex, report.directions, report.size_params, m)


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
    for j, (lj, hj) in enumerate(zip(directions, sizes)):
        terms.append((f"h{j + 1}*dl{j + 1}",
                      float(hj) * l2_norm(v.directional_diff(lj), simplex)))
    div = v.divergence()
    terms.append(("hT*div", 0.0 if div.is_zero()
                  else simplex.diameter() * l2_norm(div, simplex)))
    return terms


def stability_rhs_mac(v, simplex):
    terms = [("l2", l2_norm(v, simplex))]
    h_t = simplex.diameter()
    for j in range(simplex.dim):
        terms.append((f"hT*dx{j + 1}", h_t * l2_norm(v.diff(j), simplex)))
    return terms


# ---------------------------------------------------------------------------
# polynomial projection (the concrete Bramble-Hilbert companion)

def poly_project(v, simplex, m):
    """L2-orthogonal projection onto P_m (componentwise for vector fields),
    solved exactly from the Gram system."""
    scalars = basis_pk(simplex.dim, m)
    gram = [[integrate_poly(a * b, simplex) for b in scalars] for a in scalars]
    if isinstance(v, VectorPoly):
        comps = []
        for p in v.comps:
            rhs = [integrate_poly(p * b, simplex) for b in scalars]
            coeffs = linalg.solve(gram, rhs)
            w = Polynomial.zero(simplex.dim)
            for c, b in zip(coeffs, scalars):
                w = w + b * c
            comps.append(w)
        return VectorPoly(comps)
    rhs = [integrate_poly(v * b, simplex) for b in scalars]
    coeffs = linalg.solve(gram, rhs)
    w = Polynomial.zero(simplex.dim)
    for c, b in zip(coeffs, scalars):
        w = w + b * c
    return w


# ---------------------------------------------------------------------------
# element families

@dataclass(frozen=True)
class ElementFamily:
    kind: str
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


def t2_simplex(h1, h2, h3):
    return Simplex(((0, 0, 0), (h1, h2, 0), (0, h2, 0), (0, 0, h3)))


def weaker_example_tet(h1, h2, h3):
    """Rotated second-family tetrahedron used by the 3D counterexample."""
    return Simplex(((0, 0, 0), (h1, 0, 0), (0, 0, h3), (0, h2, h3)))


def _axes(dim):
    return tuple(tuple(Fraction(int(i == j)) for j in range(dim)) for i in range(dim))


TSTAR_FAMILY = ElementFamily("Tstar", lambda p: tstar_simplex(p[0]))
T1_FAMILY = ElementFamily("T1", lambda p: t1_simplex(*p),
                          frame=lambda p: (_axes(len(p)), tuple(p)))
T2_FAMILY = ElementFamily("T2", lambda p: t2_simplex(*p))
WEAKER_FAMILY = ElementFamily("T2rot", lambda p: weaker_example_tet(*p),
                              frame=lambda p: (_axes(3), tuple(p)))


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

    @property
    def ratios(self):
        return [r.ratio for r in self.reports]


def evaluate_estimate(estimate_id, simplex, v, k, m=None, frame=None,
                      variant="nedelec"):
    """One (element, field) evaluation of a named estimate; returns
    (lhs, labeled rhs terms)."""
    el = build_element(simplex, k, variant)
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
    under 10x, otherwise 'inconclusive'."""
    finite = [r for r in ratios if r > 0]
    if not finite:
        return "bounded"
    increasing = all(b > a for a, b in zip(ratios, ratios[1:]))
    # growth counts from the first positive ratio: an exactly interpolated
    # field gives a leading 0
    if increasing and ratios[-1] / finite[0] > RATIO_SPREAD_CAP:
        return "diverging"
    if max(finite) / min(finite) < RATIO_SPREAD_CAP and len(finite) == len(ratios):
        return "bounded"
    return "inconclusive"


def sweep(family: ElementFamily, field_gen, estimate_id, grid, k=1, m=None,
          variant="nedelec") -> SweepResult:
    """Evaluate an estimate over a parameter grid.

    `field_gen(simplex, params)` supplies the test field per grid point; the
    frame (directions and size parameters) comes from the family when it has
    one.  Reports keep the per-term breakdown for the CSV export.
    """
    reports = []
    for params in grid:
        params = tuple(params)
        simplex = family.make(params)
        frame = family.frame(params) if family.frame else None
        v = field_gen(simplex, params)
        lhs, terms = evaluate_estimate(estimate_id, simplex, v, k, m=m,
                                       frame=frame, variant=variant)
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

def random_polynomial(dim, degree, rng, scale=6):
    terms = {}
    for alpha in monomial_indices(dim, degree):
        c = Fraction(rng.randint(-scale, scale), rng.randint(1, 3))
        if c:
            terms[alpha] = c
    return Polynomial(dim, terms)


def random_field(dim, degree, rng):
    return VectorPoly([random_polynomial(dim, degree, rng) for _ in range(dim)])


def random_divfree_field(dim, degree, rng):
    """Curl of a random potential: exactly divergence-free by construction."""
    if dim == 2:
        psi = random_polynomial(2, degree + 1, rng)
        return VectorPoly([psi.diff(1), -psi.diff(0)])
    phi = [random_polynomial(3, degree + 1, rng) for _ in range(3)]
    return VectorPoly([
        phi[2].diff(1) - phi[1].diff(2),
        phi[0].diff(2) - phi[2].diff(0),
        phi[1].diff(0) - phi[0].diff(1),
    ])


def random_mac_simplex(dim, rng, angle_cap=2.6, coord_range=3):
    """Random integer-coordinate simplex satisfying the angle cap."""
    from .geometry import DegenerateSimplexError, max_angle

    while True:
        verts = tuple(tuple(rng.randint(-coord_range, coord_range)
                            for _ in range(dim)) for _ in range(dim + 1))
        try:
            s = Simplex(verts)
        except DegenerateSimplexError:
            continue
        if abs(s.edge_det()) < 1:
            continue
        if max_angle(s) <= angle_cap:
            return s
