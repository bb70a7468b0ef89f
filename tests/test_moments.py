"""The DOF functionals and integrate_poly against a compose-then-integrate
oracle, on random rational triangles and tetrahedra."""

from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bdmlab.bdm import FacetMoment, InteriorMoment, build_element
from bdmlab.geometry import DegenerateSimplexError, Simplex
from bdmlab.polynomials import (Polynomial, VectorPoly, integrate_reference,
                                monomial_indices)
from bdmlab.spaces import MomentTable, integrate_poly

rationals = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))


@st.composite
def simplices(draw, dim):
    verts = tuple(tuple(draw(rationals) for _ in range(dim))
                  for _ in range(dim + 1))
    try:
        return Simplex(verts)
    except DegenerateSimplexError:
        assume(False)


@st.composite
def polynomials(draw, dim, degree):
    return Polynomial(dim, {a: draw(rationals)
                            for a in monomial_indices(dim, degree)})


def fields(dim, degree):
    return st.lists(polynomials(dim, degree), min_size=dim,
                    max_size=dim).map(VectorPoly)


# -- the oracle: compose the whole integrand through the chart, then integrate

def integrate_oracle(p, simplex):
    A, b = simplex.chart()
    return integrate_reference(p.compose_affine(A, b)) * abs(simplex.edge_det())


def facet_moment_oracle(simplex, facet, alpha, v):
    matrix, origin = simplex.facet_chart(facet)
    normal_trace = v.compose_affine(matrix, origin).dot(
        simplex.scaled_facet_normal(facet))
    return integrate_reference(
        normal_trace * Polynomial.monomial(simplex.dim - 1, alpha))


def element_stub(simplex, order):
    """What the functionals read from an element: a fresh table and k."""
    return SimpleNamespace(simplex=simplex, order=order,
                           moments=MomentTable(simplex))


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 3).flatmap(
    lambda d: st.tuples(simplices(d), polynomials(d, 4))))
def test_integrate_poly_matches_oracle(case):
    simplex, p = case
    assert integrate_poly(p, simplex) == integrate_oracle(p, simplex)
    assert MomentTable(simplex).integrate(p) == integrate_oracle(p, simplex)


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 3).flatmap(
    lambda d: st.tuples(simplices(d), st.integers(1, 3), fields(d, 3))))
def test_facet_moments_match_oracle(case):
    simplex, k, v = case
    el = element_stub(simplex, k)
    d = simplex.dim
    for facet in range(d + 1):
        # highest degree first, so lower-degree entries come from its fill
        for alpha in reversed(monomial_indices(d - 1, k)):
            dof = FacetMoment(facet, alpha)
            assert dof.apply(el, v) == facet_moment_oracle(simplex, facet,
                                                           alpha, v)


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 3).flatmap(
    lambda d: st.tuples(simplices(d), fields(d, 2), fields(d, 3))))
def test_interior_moments_match_oracle(case):
    simplex, weight, v = case
    dof = InteriorMoment(weight, "test")
    assert dof.apply(element_stub(simplex, 1), v) == integrate_oracle(
        v.dot(weight), simplex)


@pytest.mark.parametrize("variant", ["nedelec", "bdm_original"])
@pytest.mark.parametrize("dim,k", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2),
                                   (3, 3)])
def test_projection_property_random_simplices(dim, k, variant):
    examples = 1 if (dim, k) == (3, 3) else 4

    @settings(max_examples=examples, deadline=None)
    @given(simplices(dim), fields(dim, k))
    def check(simplex, v):
        el = build_element(simplex, k, variant)
        assert el.interpolate(v) == v

    check()
