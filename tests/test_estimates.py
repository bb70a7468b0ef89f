import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bdmlab import linalg
from bdmlab.bdm import build_element
from bdmlab.estimates import (SWEEP_PRESETS, T1_FAMILY, TSTAR_FAMILY,
                              WEAKER_FAMILY, abs_derivative_sum_norm,
                              evaluate_estimate,
                              l2_norm, l2_norm_sq, multi_indices_of_order,
                              random_divfree_field,
                              random_polynomial, ratio_verdict, rhs_mac,
                              rvp_terms, stability_lhs, stability_rhs_mac,
                              stability_rhs_rvp, sweep, sweep_to_csv,
                              t1_simplex, tstar_simplex, weaker_example_tet)
from bdmlab.geometry import DegenerateSimplexError, Simplex, max_angle
from bdmlab.polynomials import Polynomial, VectorPoly, monomial_indices
from bdmlab.quadrature import map_rule
from bdmlab.spaces import basis_pk, integrate_poly

from test_moments import (AffineMap, divergence, fields, piola_push,
                          polynomials, rationals, simplices)
from test_polynomials import evaluate

F = Fraction

# absolute cap on the maximum-angle interpolation ratio over random
# angle-capped simplices
MAC_RATIO_CAP = 100.0


def x(dim, i):
    return Polynomial.variable(dim, i)


def random_field(dim, degree, rng):
    return VectorPoly([random_polynomial(dim, degree, rng) for _ in range(dim)])


def random_mac_simplex(dim, rng):
    """Random simplex with integer coordinates in [-3, 3] and every angle
    at most 2.6 (the maximum angle condition)."""
    while True:
        verts = tuple(tuple(rng.randint(-3, 3)
                            for _ in range(dim)) for _ in range(dim + 1))
        try:
            s = Simplex(verts)
        except DegenerateSimplexError:
            continue
        if abs(s.edge_det()) < 1:
            continue
        if max_angle(s) <= 2.6:
            return s


# -- norms ---------------------------------------------------------------------

@pytest.mark.parametrize("h", [F(1), F(1, 2), F(1, 8), F(1, 64)])
def test_counterexample_norm_identities(h):
    ts = tstar_simplex(h)
    v = VectorPoly([Polynomial.zero(2), x(2, 0) ** 2])
    iv = build_element(ts, 1).interpolate(v)
    assert l2_norm_sq(iv, ts) == F(1, 24) / h + h / 24
    assert l2_norm_sq(v, ts) == h / 15
    assert l2_norm_sq(v.diff(0), ts) == F(2, 3) * h


def test_zero_norm():
    assert l2_norm(VectorPoly.zero(2, 2), tstar_simplex(F(1))) == 0.0


def test_abs_derivative_sum_matches_plain_norm_for_single_term():
    # with one derivative and no sign change the abs-sum norm is the norm
    s = t1_simplex(F(1), F(1))
    p = x(2, 0)
    got = abs_derivative_sum_norm(p, s, 1)
    assert abs(got - l2_norm(Polynomial.constant(2, F(1)), s)) < 1e-13


def derivative(poly, beta):
    out = poly
    for axis, times in enumerate(beta):
        for _ in range(times):
            out = out.diff(axis)
    return out


def abs_derivative_sum_norm_oracle(f, simplex, m):
    """The same norm term by term: each derivative differentiated in
    Fractions and evaluated at the points of the degree-12 rule."""
    comps = f.comps if isinstance(f, VectorPoly) else (f,)
    dim = comps[0].dim
    betas = [a for a in monomial_indices(dim, m) if sum(a) == m]
    pts, wts = map_rule(simplex, 12)
    total = np.zeros(len(wts))
    for p in comps:
        for beta in betas:
            total += np.abs(evaluate(derivative(p, beta), pts))
    return math.sqrt(float(np.dot(wts, total * total)))


@st.composite
def norm_cases(draw):
    """A random rational simplex, a scalar or vector field of degree <= 4
    with rational coefficients, and a derivative order up to degree + 1."""
    dim = draw(st.integers(2, 3))
    simplex = draw(simplices(dim))
    degree = draw(st.integers(0, 4))
    comps = [draw(polynomials(dim, degree))
             for _ in range(draw(st.sampled_from([1, dim])))]
    f = comps[0] if len(comps) == 1 else VectorPoly(comps)
    return f, simplex, draw(st.integers(0, degree + 1))


@settings(max_examples=60, deadline=None)
@given(norm_cases())
def test_abs_derivative_sum_norm_matches_per_term_oracle(case):
    f, simplex, m = case
    got = abs_derivative_sum_norm(f, simplex, m)
    want = abs_derivative_sum_norm_oracle(f, simplex, m)
    assert abs(got - want) <= 1e-13 * want


# -- right-hand sides ------------------------------------------------------------

def test_rhs_rvp_divergence_term_vanishes_for_curl():
    rng = random.Random(2)
    v = random_divfree_field(2, rng)
    params = (F(1), F(2), F(3))
    terms = rvp_terms(v, T1_FAMILY.make(params), *T1_FAMILY.frame(params), 0)
    div_label, div_val = terms[-1]
    assert div_label.endswith("div")
    assert div_val == 0.0


def directional_derivative(field, alpha, directions):
    """D^alpha along the given direction vectors, differentiated in
    Fractions one direction at a time (they commute)."""
    out = field
    for direction, times in zip(directions, alpha):
        for _ in range(times):
            out = VectorPoly([sum((p.diff(i) * li
                                   for i, li in enumerate(direction) if li),
                                  Polynomial.zero(p.dim)) for p in out.comps])
    return out


def rvp_terms_oracle(v, simplex, directions, sizes, m):
    """`rvp_terms` with every derivative taken in Fractions."""
    terms = []
    for alpha in multi_indices_of_order(simplex.dim, m + 1):
        h_alpha = 1.0
        for hi, ai in zip(sizes, alpha):
            h_alpha *= float(hi) ** ai
        dv = directional_derivative(v, alpha, directions)
        terms.append(("h^" + "".join(map(str, alpha)),
                      h_alpha * l2_norm(dv, simplex)))
    div = divergence(v)
    terms.append((f"hT^{m + 1}*div", 0.0 if div.is_zero() else
                  simplex.diameter() ** (m + 1)
                  * abs_derivative_sum_norm(div, simplex, m)))
    return terms


def rotation(q):
    """A rotation with rational entries, whose rows are a frame's
    directions: for q = (a, b), the Pythagorean-triple rotation by (a^2 -
    b^2, 2ab) / (a^2 + b^2); for q = (a, b, c, d), the rotation of the
    integer quaternion q."""
    if len(q) == 2:
        a, b = q
        rows = [[a * a - b * b, -2 * a * b], [2 * a * b, a * a - b * b]]
    else:
        a, b, c, d = q
        rows = [[a * a + b * b - c * c - d * d, 2 * (b * c - a * d),
                 2 * (b * d + a * c)],
                [2 * (b * c + a * d), a * a - b * b + c * c - d * d,
                 2 * (c * d - a * b)],
                [2 * (b * d - a * c), 2 * (c * d + a * b),
                 a * a - b * b - c * c + d * d]]
    n = sum(x * x for x in q)
    return tuple(tuple(F(x, n) for x in row) for row in rows)


@st.composite
def frames(draw, dim):
    """Axes (in any order), a rational rotation, or non-unit rational
    vectors, with positive rational sizes."""
    kind = draw(st.sampled_from(["axes", "rotation", "vectors"]))
    if kind == "axes":
        order = draw(st.permutations(range(dim)))
        directions = tuple(tuple(int(i == j) for j in range(dim))
                           for i in order)
    elif kind == "rotation":
        directions = rotation(draw(st.tuples(
            *[st.integers(-5, 5)] * (2 if dim == 2 else 4)).filter(any)))
    else:
        directions = tuple(tuple(draw(rationals) for _ in range(dim))
                           for _ in range(dim))
    sizes = tuple(draw(st.builds(F, st.integers(1, 10 ** 6),
                                 st.integers(1, 9))) for _ in range(dim))
    return directions, sizes


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 3]).flatmap(lambda d: st.tuples(
    simplices(d), st.integers(0, 4).flatmap(lambda n: fields(d, n)),
    frames(d), st.integers(0, 2))))
def test_rvp_terms_match_fraction_derivatives(case):
    # the integer derivatives take d/dx_a from a map that lists e_d first:
    # a swapped pair of axes changes the terms of a generic field
    simplex, v, (directions, sizes), m = case
    assert rvp_terms(v, simplex, directions, sizes, m) == rvp_terms_oracle(
        v, simplex, directions, sizes, m)
    # the stability form takes its first derivatives the same way
    _, *terms, (_, div_term) = stability_rhs_rvp(v, simplex, directions, sizes)
    for j, (_, value) in enumerate(terms):
        e_j = tuple(int(i == j) for i in range(simplex.dim))
        dv = directional_derivative(v, e_j, directions)
        assert value == float(sizes[j]) * l2_norm(dv, simplex)
    div = divergence(v)
    assert div_term == (0.0 if div.is_zero()
                        else simplex.diameter() * l2_norm(div, simplex))


def test_rvp_terms_weaker_example_display_chain():
    # normalized by ||x3||, the |alpha| = 1 terms are exactly h1, h2 and
    # sqrt((h1^2 + h2^2)/3)
    for h1, h2, h3 in [(1, 1, 1), (2, 3, 5)]:
        tet = weaker_example_tet(F(h1), F(h2), F(h3))
        u = VectorPoly([x(3, 0) * x(3, 2), -x(3, 1) * x(3, 2),
                        Polynomial.zero(3)])
        axes = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
        terms = rvp_terms(u, tet, axes, (h1, h2, h3), 0)
        normalizer = l2_norm(VectorPoly([x(3, 2), Polynomial.zero(3),
                                         Polynomial.zero(3)]), tet)
        vals = {label: v / normalizer for label, v in terms[:3]}
        assert abs(vals["h^100"] - h1) < 1e-12
        assert abs(vals["h^010"] - h2) < 1e-12
        assert abs(vals["h^001"] - math.sqrt((h1 ** 2 + h2 ** 2) / 3)) < 1e-12
        assert terms[3][1] == 0.0  # divergence-free


def test_rhs_mac_zero_for_constant():
    s = tstar_simplex(F(1))
    v = VectorPoly([Polynomial.constant(2, F(2)), Polynomial.constant(2, F(1))])
    ((_, val),) = rhs_mac(v, s, 0)
    assert val < 1e-14


def test_rhs_mac_scaling_homogeneity():
    # same field on a doubled element, top-order derivatives constant:
    # the right-hand side picks up 2^{m+1} * 2^{d/2}
    v = VectorPoly([Polynomial.zero(2), x(2, 0) ** 2])
    s1 = tstar_simplex(F(1))
    s2 = tstar_simplex(F(2))
    s2 = s2.__class__(tuple(tuple(2 * c for c in vert)
                            for vert in tstar_simplex(F(1)).vertices))
    ((_, v1),) = rhs_mac(v, s1, 1)
    ((_, v2),) = rhs_mac(v, s2, 1)
    assert abs(v2 / v1 - 2 ** 2 * 2 ** 1) < 1e-10


# -- stability evaluations --------------------------------------------------------

def test_stability_constant_field_ratio_below_one():
    s = t1_simplex(F(2), F(3))
    el = build_element(s, 1)
    v = VectorPoly([Polynomial.constant(2, F(1)), Polynomial.constant(2, F(2))])
    lhs = stability_lhs(v, el)
    rhs = sum(val for _, val in stability_rhs_mac(v, s))
    assert lhs <= rhs + 1e-14


def test_stability_rvp_bounded_on_stretched_t1():
    rng = random.Random(5)
    v = random_field(3, 3, rng)
    ratios = []
    for eta in [1, 10 ** 2, 10 ** 4, 10 ** 6]:
        params = (F(1), F(1), F(eta))
        s = T1_FAMILY.make(params)
        el = build_element(s, 1)
        lhs = stability_lhs(v, el)
        rhs = sum(val for _, val in
                  stability_rhs_rvp(v, s, *T1_FAMILY.frame(params)))
        ratios.append(lhs / rhs)
    assert max(ratios) / min(ratios) < 10


# -- projection -------------------------------------------------------------------

def poly_project(v, simplex, m):
    """L2-orthogonal projection onto P_m (componentwise for vector fields),
    solved exactly from the Gram system."""
    scalars = basis_pk(simplex.dim, m)
    inverse = linalg.invert([[integrate_poly(a, simplex, b) for b in scalars]
                             for a in scalars])

    def project(p):
        rhs = [integrate_poly(p, simplex, b) for b in scalars]
        w = Polynomial.zero(simplex.dim)
        for row, b in zip(inverse, scalars):
            c = sum(x * r for x, r in zip(row, rhs))
            w = w + b * (c / inverse.denominator)
        return w

    if isinstance(v, VectorPoly):
        return VectorPoly([project(p) for p in v.comps])
    return project(v)


def test_poly_project_reproduces_members():
    s = tstar_simplex(F(1, 2))
    v = VectorPoly([x(2, 0) + 1, 2 * x(2, 1)])
    assert poly_project(v, s, 1) == v


def test_poly_project_mean_value():
    from bdmlab.geometry import reference_simplex
    tri = reference_simplex(2)
    v = VectorPoly([Polynomial.zero(2), x(2, 0) ** 2])
    w = poly_project(v, tri, 0)
    assert w == VectorPoly([Polynomial.zero(2),
                            Polynomial.constant(2, F(1, 6))])


def test_poly_project_orthogonality():
    s = tstar_simplex(F(1, 4))
    v = VectorPoly([x(2, 0) ** 3, x(2, 1) ** 2])
    w = poly_project(v, s, 1)
    resid = v - w
    for z in basis_pk(2, 1):
        for comp in resid.comps:
            assert integrate_poly(comp * z, s) == 0


# -- sweeps -----------------------------------------------------------------------

def test_verdict_rules():
    assert ratio_verdict([1, 2, 4, 8, 16, 32]) == "diverging"
    assert ratio_verdict([1.0, 1.1, 0.9, 1.05]) == "bounded"
    assert ratio_verdict([1, 100, 1]) == "inconclusive"
    assert ratio_verdict([0.0, 0.0]) == "bounded"
    # one ratio measures no spread: it used to read as 'bounded'
    assert ratio_verdict([5.0]) == "inconclusive"


def test_verdict_needs_the_growth_to_stop():
    # the paper's diverging families read 'bounded' on a short grid, whose
    # spread was under 10x though every step grew: no window of them may
    # read 'bounded', while the bounded family's default grid still does
    for name in ("counterexample-2d", "counterexample-3d"):
        ratios = [r.ratio for r in SWEEP_PRESETS[name].run(range(1, 41)).reports]
        for i in range(len(ratios) - 1):
            for j in range(i + 2, len(ratios) + 1):
                assert ratio_verdict(ratios[i:j]) != "bounded", (name, i, j)
    preset = SWEEP_PRESETS["rvp-bounded"]
    for seed in range(10):
        pows = range(preset.pow_min, 11)
        assert preset.run(pows, seed=seed).verdict == "bounded", seed


def test_verdict_leading_zero_ratio():
    # exact interpolation of the first field gives a zero first ratio; the
    # monotone test used to divide by it
    assert ratio_verdict([0.0, 1.0, 2.0]) == "inconclusive"
    assert ratio_verdict([0.0, 1.0, 20.0]) == "diverging"


def test_sweep_counterexample_2d_diverges():
    v = VectorPoly([Polynomial.zero(2), x(2, 0) ** 2])
    grid = [(F(1, 2 ** j),) for j in range(1, 11)]
    result = sweep(TSTAR_FAMILY, v, "stability_mac", grid, k=1)
    assert result.verdict == "diverging"
    ratios = [r.ratio for r in result.reports]
    assert all(b > a for a, b in zip(ratios, ratios[1:]))


def test_sweep_counterexample_3d_diverges():
    u = VectorPoly([x(3, 0) * x(3, 2), -x(3, 1) * x(3, 2), Polynomial.zero(3)])
    grid = [(1, 1, 2 ** j) for j in range(0, 11)]
    result = sweep(WEAKER_FAMILY, u, "interpolation_rvp",
                   grid, k=1, m=0)
    assert result.verdict == "diverging"


def test_sweep_t1_bounded_for_divfree_fields():
    rng = random.Random(7)
    v = random_divfree_field(3, rng)
    grid = [(1, 1, 10 ** j) for j in range(0, 7)]
    result = sweep(T1_FAMILY, v, "interpolation_rvp",
                   grid, k=1, m=1)
    assert result.verdict == "bounded"


def test_projection_gives_zero_lhs():
    v = VectorPoly([x(2, 0), x(2, 1) + 1])
    lhs, terms = evaluate_estimate("interpolation_mac", tstar_simplex(F(1)),
                                   v, k=1, m=1)
    assert lhs < 1e-14
    assert all(val >= 0 for _, val in terms)


def test_rvp_ratio_invariance_scaling_and_relabeling():
    rng = random.Random(13)
    v = random_divfree_field(2, rng)
    s = t1_simplex(F(1), F(2), F(5))
    axes = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    sizes = (1, 2, 5)
    lhs, terms = evaluate_estimate("interpolation_rvp", s, v, k=1, m=1,
                                   frame=(axes, sizes))
    ratio = lhs / sum(val for _, val in terms)
    # uniform scaling: same field pulled to the doubled element
    s2 = t1_simplex(F(2), F(4), F(10))
    amap = AffineMap(((2, 0, 0), (0, 2, 0), (0, 0, 2)), (0, 0, 0))
    v2 = piola_push(amap, v)
    lhs2, terms2 = evaluate_estimate("interpolation_rvp", s2, v2, k=1, m=1,
                                     frame=(axes, (2, 4, 10)))
    ratio2 = lhs2 / sum(val for _, val in terms2)
    assert abs(ratio - ratio2) < 1e-10
    # relabeling the directions permutes the labeled terms only
    perm_axes = (axes[2], axes[0], axes[1])
    perm_sizes = (5, 1, 2)
    lhs3, terms3 = evaluate_estimate("interpolation_rvp", s, v, k=1, m=1,
                                     frame=(perm_axes, perm_sizes))
    assert abs(lhs3 - lhs) < 1e-14
    assert abs(sum(val for _, val in terms3)
               - sum(val for _, val in terms)) < 1e-10


def test_mac_ratios_bounded_random_simplices():
    rng = random.Random(17)
    for dim in (2, 3):
        for _ in range(10):
            s = random_mac_simplex(dim, rng)
            for k in (1, 2):
                v = random_field(dim, k + 1, rng)
                for m in range(k + 1):
                    lhs, terms = evaluate_estimate("interpolation_mac", s, v,
                                                   k=k, m=m)
                    rhs = sum(val for _, val in terms)
                    assert lhs <= MAC_RATIO_CAP * rhs


def test_sweep_csv_deterministic(tmp_path):
    v = VectorPoly([Polynomial.zero(2), x(2, 0) ** 2])
    grid = [(F(1, 2 ** j),) for j in range(1, 5)]
    result = sweep(TSTAR_FAMILY, v, "stability_mac", grid, k=1)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    sweep_to_csv(result, p1)
    sweep_to_csv(result, p2)
    assert p1.read_bytes() == p2.read_bytes()
    header = p1.read_text().splitlines()[0]
    assert header.startswith("estimate_id,h1,lhs")
    assert header.endswith("ratio,verdict")
