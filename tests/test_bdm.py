import random
from fractions import Fraction

import numpy as np
import pytest

from bdmlab.bdm import build_element, structural_lemma_check
from bdmlab.geometry import Simplex, reference_simplex, t_bar_simplex
from bdmlab.polynomials import Polynomial, VectorPoly, integrate_reference
from bdmlab.spaces import basis_pk

from test_estimates import poly_project, random_field, random_mac_simplex
from test_moments import (AffineMap, commutes_with_piola, compose_field,
                          divergence, dot, map_simplex, original_functionals,
                          physical_dof_values, physical_element)

F = Fraction


def x(dim, i):
    return Polynomial.variable(dim, i)


# -- DOF counts ---------------------------------------------------------------

def test_dof_counts_triangle_k1():
    for variant in ("nedelec", "bdm_original"):
        el = build_element(reference_simplex(2), 1, variant)
        assert el.ndofs == 6
        assert all(d.__class__.__name__ == "FacetMoment" for d in el.dofs)


def test_dof_counts_tet_k2_nedelec():
    el = build_element(reference_simplex(3), 2, "nedelec")
    facet = sum(d.__class__.__name__ == "FacetMoment" for d in el.dofs)
    assert (facet, el.ndofs - facet) == (24, 6)
    assert el.ndofs == 30


def test_dof_counts_triangle_k2_original():
    # the element has no DOF functionals of its own; the oracle has them
    facets, grads, qk = original_functionals(reference_simplex(2), 2)
    assert (len(facets), len(grads), len(qk)) == (9, 2, 1)
    assert build_element(reference_simplex(2), 2, "bdm_original").ndofs == 12


def test_order_zero_rejected():
    with pytest.raises(ValueError):
        build_element(reference_simplex(2), 0)


# -- golden interpolants (published values) -----------------------------------

def test_golden_k2_nedelec():
    tri = reference_simplex(2)
    v = VectorPoly([Polynomial.zero(2), x(2, 0) ** 3])
    iv = build_element(tri, 2, "nedelec").interpolate(v)
    assert iv == VectorPoly([
        Polynomial.zero(2),
        F(1, 20) - F(3, 5) * x(2, 0) + F(3, 2) * x(2, 0) ** 2])


def test_golden_k2_original():
    tri = reference_simplex(2)
    x1, x2 = x(2, 0), x(2, 1)
    v = VectorPoly([Polynomial.zero(2), x1 ** 3])
    iv = build_element(tri, 2, "bdm_original").interpolate(v)
    assert iv == VectorPoly([
        F(3, 140) * x1 * (1 - x1 - 2 * x2),
        F(1, 20) - F(3, 5) * x1 + F(3, 2) * x1 ** 2
        - F(3, 140) * x2 * (1 - 2 * x1 - x2)])


@pytest.mark.parametrize("hs", [(1, 1, 1), (2, 3, 5), (F(1, 2), 1, F(7, 3))])
def test_golden_k1_weaker_example_tet(hs):
    h1, h2, h3 = (F(h) for h in hs)
    tet = Simplex(((0, 0, 0), (h1, 0, 0), (0, 0, h3), (0, h2, h3)))
    u = VectorPoly([x(3, 0) * x(3, 2), -x(3, 1) * x(3, 2), Polynomial.zero(3)])
    iu = build_element(tet, 1).interpolate(u)
    assert iu == VectorPoly([
        F(2, 5) * h3 * x(3, 0),
        -F(3, 5) * h3 * x(3, 1),
        h3 * (Polynomial.constant(3, -h3 / 10) + F(1, 5) * x(3, 2))])


@pytest.mark.parametrize("h", [F(1), F(1, 2), F(1, 8)])
def test_golden_k1_tstar(h):
    ts = Simplex(((-1, 0), (1, 0), (0, h)))
    v = VectorPoly([Polynomial.zero(2), x(2, 0) ** 2])
    iv = build_element(ts, 1).interpolate(v)
    assert iv == VectorPoly([x(2, 0) / (2 * h),
                             -x(2, 1) / (2 * h) + F(1, 3)])


# -- structural properties -----------------------------------------------------

def test_projection_property_small():
    rng = random.Random(11)
    for dim, k in [(2, 1), (2, 2), (3, 1)]:
        s = random_mac_simplex(dim, rng)
        el = build_element(s, k)
        for _ in range(3):
            w = random_field(dim, k, rng)
            assert el.interpolate(w) == w


def test_interpolant_reproduces_dof_values():
    # the DOFs of the simplex itself, not the reference DOFs the element
    # applies to pulled-back fields
    rng = random.Random(14)
    s = random_mac_simplex(3, rng)
    el = build_element(s, 2)
    v = random_field(3, 4, rng)
    physical = physical_element(s, 2, "nedelec")
    assert physical_dof_values(physical, el.interpolate(v)) == \
        physical_dof_values(physical, v)


def test_variant_agreement_k1():
    rng = random.Random(3)
    s = random_mac_simplex(2, rng)
    v = random_field(2, 3, rng)
    a = build_element(s, 1, "nedelec").interpolate(v)
    b = build_element(s, 1, "bdm_original").interpolate(v)
    assert a == b


def test_facet_flux_preservation_exact():
    rng = random.Random(9)
    s = random_mac_simplex(2, rng)
    el = build_element(s, 2)
    v = random_field(2, 4, rng)
    err = v - el.interpolate(v)
    for i in range(3):
        chart = s.facet_chart(i)
        m = s.scaled_facet_normal(i)
        restricted = dot(compose_field(err, *chart), m)
        for z in basis_pk(1, 2):
            assert integrate_reference(restricted * z) == 0


def test_divergence_compatibility():
    # div(I v) equals the L2 projection of div v onto P_{k-1}
    rng = random.Random(21)
    for dim, k in [(2, 1), (2, 2), (3, 1), (3, 2)]:
        s = random_mac_simplex(dim, rng)
        el = build_element(s, k)
        v = random_field(dim, k + 1, rng)
        lhs = divergence(el.interpolate(v))
        rhs = poly_project(divergence(v), s, k - 1)
        assert lhs == rhs


def test_interpolant_independent_of_vertex_ordering():
    # relabeling vertices changes the facet charts (hence the DOF values)
    # but only mixes each facet block invertibly
    rng = random.Random(4)
    verts = ((0, 0), (3, 1), (1, 2))
    v = random_field(2, 2, rng)
    base = build_element(Simplex(verts), 2).interpolate(v)
    for perm in [(1, 2, 0), (2, 0, 1), (0, 2, 1)]:
        el = build_element(Simplex(tuple(verts[i] for i in perm)), 2)
        assert el.interpolate(v) == base


# -- float vertices --------------------------------------------------------------

# binary fractions: each float is the decimal it prints as and its own value
FLOAT_VERTICES = [
    ((0.0, 0.0), (1.0, 0.0), (0.0, 0.5)),
    ((0.25, -0.5), (1.5, 0.125), (-0.75, 2.0)),
    ((0.5, 0.0, -0.25), (1.0, 0.75, 0.0), (-0.5, 0.5, 0.125), (0.25, 0.25, 1.5)),
]


def check_float_element(vertices, k, variant):
    """A float vertex is the decimal it prints as: the simplex equals the
    one on the Fractions of those decimals, and both interpolate alike."""
    floats = Simplex(vertices)
    decimals = Simplex(tuple(tuple(F(repr(c)) for c in v) for v in vertices))
    assert floats == decimals == Simplex(np.array(vertices))
    assert all(type(c) is F for v in floats.vertices for c in v)
    v = random_field(floats.dim, k + 1, random.Random(f"{vertices}{k}"))
    got = build_element(floats, k, variant).interpolate(v)
    assert all(type(c) is F for p in got.comps for c in p.terms.values())
    assert got == build_element(decimals, k, variant).interpolate(v)


@pytest.mark.parametrize("variant", ["nedelec", "bdm_original"])
@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("vertices", FLOAT_VERTICES)
def test_float_vertices_match_rational_element(vertices, k, variant):
    check_float_element(vertices, k, variant)


# one-decimal vertices are not binary fractions: each float's binary value
# differs from the decimal, and the simplex takes the decimal
DECIMAL_CASES = [
    (((0.1, 0.2), (1.3, 0.1), (0.2, 1.1)), 2),
    (((-0.3, 0.7), (0.9, -0.2), (0.4, 1.6)), 2),
    (((0.5, 0.5), (2.1, 0.3), (1.2, 1.9)), 2),
    (((0.1, 0.2), (1.3, 0.1), (0.2, 1.1)), 3),
    (((0.1, 0.2, 0.3), (1.3, 0.1, -0.2), (0.2, 1.1, 0.4), (0.3, -0.1, 1.2)), 2),
    (((-0.4, 0.1, 0.6), (0.9, 0.3, 0.1), (0.2, 1.4, -0.3), (0.5, 0.7, 1.1)), 2),
]


@pytest.mark.parametrize("vertices,k", DECIMAL_CASES)
def test_decimal_vertices_bdm_original(vertices, k):
    binary = tuple(tuple(F(c) for c in v) for v in vertices)
    assert Simplex(vertices).vertices != binary
    check_float_element(vertices, k, "bdm_original")


# -- Piola commuting ------------------------------------------------------------

def test_commutes_identity():
    ref = reference_simplex(2)
    amap = AffineMap(((1, 0), (0, 1)), (0, 0))
    el = build_element(ref, 2)
    v = random_field(2, 3, random.Random(2))
    rep = commutes_with_piola(el, el, amap, v)
    assert rep.commutes


@pytest.mark.parametrize("k", [1, 2])
def test_commutes_diagonal_3d(k):
    ref = reference_simplex(3)
    amap = AffineMap(((2, 0, 0), (0, 3, 0), (0, 0, 5)), (0, 0, 0))
    phys = map_simplex(amap, ref)
    el_ref = build_element(ref, k)
    el_phys = build_element(phys, k)
    v = random_field(3, 3, random.Random(6))
    assert commutes_with_piola(el_ref, el_phys, amap, v).commutes


def test_commutes_general_affine_nedelec():
    ref = reference_simplex(2)
    amap = AffineMap(((2, 1), (1, 3)), (1, -2))
    phys = map_simplex(amap, ref)
    v = random_field(2, 3, random.Random(7))
    rep = commutes_with_piola(build_element(ref, 2),
                              build_element(phys, 2), amap, v)
    assert rep.commutes


def test_commutes_original_variant_recorded():
    # the original-DOF variant is recorded, not asserted, under
    # non-axis-aligned maps; the report must carry a finite discrepancy
    ref = reference_simplex(2)
    amap = AffineMap(((2, 1), (1, 3)), (0, 0))
    phys = map_simplex(amap, ref)
    v = random_field(2, 3, random.Random(12))
    rep = commutes_with_piola(build_element(ref, 2, "bdm_original"),
                              build_element(phys, 2, "bdm_original"), amap, v)
    assert rep.max_abs_diff >= 0.0
    assert isinstance(rep.commutes, bool)


def test_commutes_rejects_mismatched_order():
    ref = reference_simplex(2)
    amap = AffineMap(((1, 0), (0, 1)), (0, 0))
    with pytest.raises(ValueError):
        commutes_with_piola(build_element(ref, 1), build_element(ref, 2),
                            amap, random_field(2, 1, random.Random(0)))


# -- structural lemma ------------------------------------------------------------

def test_structural_lemma_published_cases():
    tri = reference_simplex(2)
    el = build_element(tri, 2)
    assert structural_lemma_check(el, 1, Polynomial.monomial(2, (3, 0)))

    tet = reference_simplex(3)
    el3 = build_element(tet, 1)
    assert structural_lemma_check(el3, 0, Polynomial.monomial(3, (0, 1, 1)))

    tbar = t_bar_simplex()
    elb = build_element(tbar, 1)
    assert structural_lemma_check(elb, 2, Polynomial.monomial(3, (1, 1, 0)))


def test_structural_lemma_rejects_wrong_element():
    el = build_element(Simplex(((0, 0), (2, 0), (0, 2))), 1)
    with pytest.raises(ValueError):
        structural_lemma_check(el, 0, Polynomial.monomial(2, (0, 1)))


def test_structural_lemma_rejects_axis_dependence():
    el = build_element(reference_simplex(2), 1)
    with pytest.raises(ValueError):
        structural_lemma_check(el, 0, Polynomial.monomial(2, (1, 0)))


def test_structural_lemma_fails_for_original_variant_k2():
    # the published example: the original DOFs break the structure
    el = build_element(reference_simplex(2), 2, "bdm_original")
    with pytest.raises(ValueError):
        structural_lemma_check(el, 1, Polynomial.monomial(2, (3, 0)))
