"""Polynomial.compose_affine, the DOF functionals and integrate_poly against
a substitute-then-integrate oracle that shares no code with the moment
tables, the mapped elements of both variants against the inverse of their
own DOF matrix, mapped `bdm_original` interpolants against Q_k moments
taken against basis_qk(T), and the invariants of the interpolant
(projection, Piola commuting, vertex relabelling), on random rational
triangles and tetrahedra."""

from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bdmlab import bdm, linalg
from bdmlab.bdm import FacetMoment, InteriorMoment, build_element
from bdmlab.geometry import (AffineMap, DegenerateSimplexError, Simplex,
                             reference_simplex, t_bar_simplex)
from bdmlab.polynomials import (Polynomial, VectorPoly, integrate_reference,
                                monomial_indices)
from bdmlab.spaces import MomentTable, basis_qk, integrate_poly

from test_linalg import fraction_invert, rank

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


@st.composite
def charts(draw, dim, nvars):
    """An affine map t -> A t + b from nvars variables to dim (A may be
    singular: composition does not need an inverse)."""
    matrix = tuple(tuple(draw(rationals) for _ in range(nvars))
                   for _ in range(dim))
    return matrix, tuple(draw(rationals) for _ in range(dim))


# -- the oracle: substitute the chart into the whole integrand, then integrate

def dot(v, w):
    """sum_c v_c w_c as one Polynomial, with Polynomial products: w is a
    VectorPoly or a constant vector."""
    return sum((p * w_c for p, w_c in zip(v.comps, w)), Polynomial.zero(v.dim))


def substitute(p, matrix, offset):
    """p(A t + b) by plain substitution, sum_a c_a prod_i (A_i t + b_i)^a_i,
    with Polynomial products and powers only."""
    nvars = len(matrix[0])
    coords = [Polynomial.constant(nvars, b_i)
              + sum((Polynomial.variable(nvars, j) * a_ij
                     for j, a_ij in enumerate(row)), Polynomial.zero(nvars))
              for row, b_i in zip(matrix, offset)]
    powers = {}
    out = Polynomial.zero(nvars)
    for a, c in p.terms.items():
        term = Polynomial.constant(nvars, c)
        for i, a_i in enumerate(a):
            if (i, a_i) not in powers:
                powers[i, a_i] = coords[i] ** a_i
            term = term * powers[i, a_i]
        out = out + term
    return out


def integrate_oracle(p, simplex):
    A, b = simplex.chart()
    return integrate_reference(substitute(p, A, b)) * abs(simplex.edge_det())


def facet_moment_oracle(simplex, facet, v):
    """alpha -> the moment of v's normal trace against t^alpha on the
    facet, with the trace substituted once."""
    matrix, origin = simplex.facet_chart(facet)
    normal_trace = dot(VectorPoly([substitute(p, matrix, origin)
                                   for p in v.comps]),
                       simplex.scaled_facet_normal(facet))
    return lambda alpha: integrate_reference(
        normal_trace * Polynomial.monomial(simplex.dim - 1, alpha))


def element_stub(simplex, order):
    """What the functionals read from an element: a fresh table, k and an
    empty row cache."""
    return SimpleNamespace(simplex=simplex, order=order,
                           moments=MomentTable(simplex), _rows={})


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 3).flatmap(lambda d: st.tuples(
    st.integers(0, 5).flatmap(lambda n: polynomials(d, n)),
    st.sampled_from([d, d - 1]).flatmap(lambda m: charts(d, m)))))
def test_compose_affine_matches_substitution(case):
    p, (matrix, offset) = case
    assert p.compose_affine(matrix, offset) == substitute(p, matrix, offset)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 3).flatmap(
    lambda d: st.tuples(simplices(d), polynomials(d, 4))))
def test_integrate_poly_matches_oracle(case):
    simplex, p = case
    assert integrate_poly(p, simplex) == integrate_oracle(p, simplex)
    one = VectorPoly([Polynomial.constant(simplex.dim, 1)])
    assert MomentTable(simplex).integrate(VectorPoly([p]), one) == \
        integrate_oracle(p, simplex)


@st.composite
def factor_pairs(draw):
    """A simplex and two fields of degree <= 5, both scalar (one
    component) or both with d components; either may be the zero field."""
    dim = draw(st.integers(2, 3))
    ncomp = draw(st.sampled_from([1, dim]))

    def factor():
        degree = draw(st.integers(0, 5))
        return draw(st.one_of(
            st.just(VectorPoly.zero(ncomp, dim)),
            st.lists(polynomials(dim, degree), min_size=ncomp,
                     max_size=ncomp).map(VectorPoly)))

    return draw(simplices(dim)), factor(), factor()


@settings(max_examples=40, deadline=None)
@given(factor_pairs())
def test_integrate_poly_two_factors_matches_product(case):
    # the quadratic form against the integral of the formed product
    simplex, f, g = case
    expected = integrate_poly(dot(f, g), simplex)
    assert integrate_poly(f, simplex, g) == expected
    if f.ncomp == 1:
        assert integrate_poly(f.comps[0], simplex, g.comps[0]) == expected


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 3).flatmap(
    lambda d: st.tuples(simplices(d), st.integers(1, 3), fields(d, 3))))
def test_facet_moments_match_oracle(case):
    simplex, k, v = case
    el = element_stub(simplex, k)
    d = simplex.dim
    for facet in range(d + 1):
        oracle = facet_moment_oracle(simplex, facet, v)
        # highest degree first, so lower-degree entries come from its fill
        for alpha in reversed(monomial_indices(d - 1, k)):
            assert Fraction(*FacetMoment(facet, alpha).apply(el, v)) == \
                oracle(alpha)


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 3).flatmap(
    lambda d: st.tuples(simplices(d), fields(d, 2), fields(d, 3))))
def test_interior_moments_match_oracle(case):
    simplex, weight, v = case
    dof = InteriorMoment(weight, "test")
    assert Fraction(*dof.apply(element_stub(simplex, 1), v)) == \
        integrate_oracle(dot(v, weight), simplex)


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 3).flatmap(simplices))
def test_grown_moment_tables_equal_fresh_ones(simplex):
    # a miss grows the table; the entries must be those a fresh table
    # fills at the final degree, int for int over the same denominator
    grown, fresh = MomentTable(simplex), MomentTable(simplex)
    for degree in (3, 4, 6):
        grown.volume(degree)
    assert grown.volume(6) == fresh.volume(6)
    for i in range(simplex.dim + 1):
        # both degrees grow, then alpha alone, then the field degree alone
        for degree, alpha_degree in ((2, 1), (3, 2), (3, 3), (4, 3)):
            grown.facet(i, degree, alpha_degree)
        assert grown.facet(i, 4, 3) == fresh.facet(i, 4, 3)


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 3).flatmap(
    lambda d: st.tuples(simplices(d), fields(d, 2))))
def test_interior_rows_extend_their_prefix(case):
    # rows cached at a lower degree, extended after the table has grown,
    # equal the rows computed at the higher degree from scratch
    simplex, weight = case
    dof = InteriorMoment(weight, "test")
    el = element_stub(simplex, 1)
    dof.rows(el, 1)
    el.moments.volume(7)
    rows, den = dof.rows(el, 4)
    fresh_rows, fresh_den = dof.rows(element_stub(simplex, 1), 4)
    assert [[Fraction(x, den) for x in row] for row in rows] == \
        [[Fraction(x, fresh_den) for x in row] for row in fresh_rows]


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


# -- invariants of the interpolant, checked with exact equality


def map_simplex(amap, s):
    """The image of the simplex s under the affine map."""
    return Simplex(tuple(amap.apply(v) for v in s.vertices))


def piola_push(amap: AffineMap, v: VectorPoly) -> VectorPoly:
    """Contra-variant Piola transform of a polynomial field:
    v(F(xt)) = (det J)^-1 J vt(xt), returned as a polynomial in x."""
    inv = amap.inverse()
    pulled = [p.compose_affine(inv.matrix, inv.offset) for p in v.comps]
    det = amap.det()
    d = amap.dim
    comps = []
    for i in range(d):
        acc = Polynomial(d)
        for j in range(d):
            if amap.matrix[i][j] != 0:
                acc = acc + pulled[j] * amap.matrix[i][j]
        comps.append(acc / det)
    return VectorPoly(comps)


@dataclass(frozen=True)
class PiolaReport:
    commutes: bool
    max_abs_diff: float


def commutes_with_piola(el_ref, el_phys, amap, v_ref) -> PiolaReport:
    """Compare the Piola push of the reference interpolant with the physical
    interpolant of the Piola-pushed field, coefficient by coefficient."""
    if el_ref.order != el_phys.order or el_ref.variant != el_phys.variant:
        raise ValueError("elements must share order and variant")
    lhs = piola_push(amap, el_ref.interpolate(v_ref))
    rhs = el_phys.interpolate(piola_push(amap, v_ref))
    diff = lhs - rhs
    worst = 0.0
    for p in diff.comps:
        for c in p.terms.values():
            worst = max(worst, abs(float(c)))
    return PiolaReport(commutes=(lhs == rhs), max_abs_diff=worst)


@st.composite
def affine_maps(draw, dim):
    matrix = tuple(tuple(draw(rationals) for _ in range(dim))
                   for _ in range(dim))
    try:
        return AffineMap(matrix, tuple(draw(rationals) for _ in range(dim)))
    except ValueError:      # singular
        assume(False)


@pytest.mark.parametrize("dim,k", [(2, 1), (2, 2), (3, 1), (3, 2)])
def test_piola_commutes_nedelec_random_affine_maps(dim, k):
    el_ref = build_element(reference_simplex(dim), k)

    @settings(max_examples=8 if dim == 2 else 4, deadline=None)
    @given(affine_maps(dim), fields(dim, k + 1))
    def check(amap, v):
        el_phys = build_element(map_simplex(amap, el_ref.simplex), k)
        assert commutes_with_piola(el_ref, el_phys, amap, v).commutes

    check()


@pytest.mark.parametrize("variant", ["nedelec", "bdm_original"])
@pytest.mark.parametrize("dim,k", [(2, 1), (2, 2), (3, 1), (3, 2)])
def test_interpolant_invariant_under_vertex_relabelling(dim, k, variant):
    @settings(max_examples=6 if dim == 2 else 3, deadline=None)
    @given(simplices(dim), st.permutations(range(dim + 1)), fields(dim, k + 1))
    def check(simplex, perm, v):
        relabelled = Simplex(tuple(simplex.vertices[i] for i in perm))
        assert (build_element(relabelled, k, variant).interpolate(v)
                == build_element(simplex, k, variant).interpolate(v))

    check()


# -- mapped elements against the direct build


def direct_inverse(el):
    """The inverse of the element's own DOF matrix (its DOF rows at degree
    k), by exact inversion in Fractions: the direct build a mapped element
    must reproduce exactly."""
    n = len(monomial_indices(el.simplex.dim, el.order))
    vandermonde = []
    for dof in el.dofs:
        rows, den = dof.rows(el, el.order)
        vandermonde.append([Fraction(x, den) for row in rows for x in row[:n]])
    return fraction_invert(vandermonde)


def coefficients(v, degree):
    """The coefficients of a field of degree <= `degree`, component-major
    in graded order: its coordinates in the element's basis."""
    return [p.coeff(a) for p in v.comps
            for a in monomial_indices(v.dim, degree)]


def assert_inverts_its_dof_matrix(el):
    """field_from_dofs on the j-th unit DOF vector is column j of the
    direct inverse, for every j: the element's inverse is that matrix."""
    inverse = direct_inverse(el)
    for j in range(el.ndofs):
        unit = [int(i == j) for i in range(el.ndofs)]
        assert coefficients(el.field_from_dofs(unit), el.order) == \
            [row[j] for row in inverse]


def assert_matches_direct_build(simplex, k, variant="nedelec"):
    el = build_element(simplex, k, variant)
    if variant == "bdm_original":
        # the mapped Q_k weights are a basis of the simplex's Q_k: they add
        # nothing to the span of basis_qk, and there are as many
        qk = basis_qk(simplex, k).members
        weights = [dof.weight for dof in el.dofs
                   if getattr(dof, "label", "") == "qk"]
        assert len(weights) == len(qk)
        assert rank([coefficients(z, k) for z in [*weights, *qk]]) == len(qk)
    assert_inverts_its_dof_matrix(el)


@pytest.mark.parametrize("dim,k", [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1),
                                   (3, 2), (3, 3)])
def test_mapped_nedelec_inverse_matches_direct_build(dim, k):
    # both variants are mapped from their reference element
    examples = {(2, 4): 1, (3, 3): 2}.get((dim, k), 6)

    @settings(max_examples=examples, deadline=None)
    @given(simplices(dim))
    def check(simplex):
        # the simplex and its mirror image: both orientations of F
        v = simplex.vertices
        mirrored = Simplex((v[1], v[0]) + v[2:])
        assert (simplex.edge_det() > 0) != (mirrored.edge_det() > 0)
        for s in (simplex, mirrored):
            for variant in bdm.VARIANTS:
                assert_matches_direct_build(s, k, variant)

    check()


def canonical_interpolant(el, v):
    """The interpolant of `v` in the old `bdm_original` convention: Q_k
    moments against basis_qk(T), the DOF matrix inverted in Fractions.  It
    shares only the facet and gradient functionals with `el`."""
    simplex, k = el.simplex, el.order
    stub = element_stub(simplex, k)
    dofs = [dof for dof in el.dofs if getattr(dof, "label", "") != "qk"]
    dofs += [InteriorMoment(z, "qk") for z in basis_qk(simplex, k)]
    n = len(monomial_indices(simplex.dim, k))
    vandermonde = []
    for dof in dofs:
        rows, den = dof.rows(stub, k)
        vandermonde.append([Fraction(x, den) for row in rows for x in row[:n]])
    values = [Fraction(*dof.apply(stub, v)) for dof in dofs]
    coeffs = [sum(map(mul, row, values)) for row in fraction_invert(vandermonde)]
    return VectorPoly([Polynomial(simplex.dim, dict(zip(
        monomial_indices(simplex.dim, k), coeffs[c * n:(c + 1) * n])))
        for c in range(simplex.dim)])


@pytest.mark.parametrize("dim,k", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2),
                                   (3, 3)])
def test_mapped_bdm_original_matches_canonical_convention(dim, k):
    # the interpolant depends on Q_k(T), not on its basis: weights pushed
    # from the reference element give what basis_qk(T) gives
    @settings(max_examples=1 if (dim, k) == (3, 3) else 3, deadline=None)
    @given(simplices(dim), fields(dim, k + 1))
    def check(simplex, v):
        w = simplex.vertices
        for s in (simplex, Simplex((w[1], w[0]) + w[2:])):
            el = build_element(s, k, "bdm_original")
            assert el.interpolate(v) == canonical_interpolant(el, v)

    check()


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("simplex", [reference_simplex(2), reference_simplex(3),
                                     t_bar_simplex()])
def test_reference_elements_match_direct_build(simplex, k):
    assert_matches_direct_build(simplex, k)


@pytest.mark.parametrize("dim,k", [(2, 1), (2, 2), (3, 1), (3, 2)])
def test_inverted_elements_match_oracle(dim, k):
    # the elements that invert their own DOF matrix are the reference
    # elements of both variants; every other element is mapped from one
    for variant in bdm.VARIANTS:
        assert_inverts_its_dof_matrix(bdm._reference_element(dim, k, variant))

    @settings(max_examples=4 if dim == 2 else 2, deadline=None)
    @given(simplices(dim))
    def check(simplex):
        el = build_element(simplex, k, "bdm_original")
        assert_inverts_its_dof_matrix(el)

    check()


def test_bdm_original_build_inverts_without_fractions(monkeypatch):
    made = []
    inside = []
    new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        if inside:
            made.append(args)
        return new(cls, *args, **kwargs)

    solve = linalg.solve
    sizes = []

    def watched_solve(matrix, *args):
        sizes.append(len(matrix))
        inside.append(True)
        try:
            return solve(matrix, *args)
        finally:
            inside.pop()

    tet = Simplex(((0, 0, 0), (Fraction(3, 2), Fraction(1, 7), 0),
                   (Fraction(1, 5), Fraction(5, 3), Fraction(1, 9)),
                   (Fraction(1, 4), Fraction(-1, 3), Fraction(7, 5))))
    # `invert` is `solve`: this watches the reference element's inverse,
    # built on first use, and the mapped element's r x r system
    bdm._reference_element.cache_clear()
    bdm._qk_tables.cache_clear()
    monkeypatch.setattr(Fraction, "__new__", counting_new)
    monkeypatch.setattr(linalg, "solve", watched_solve)
    bdm.BDMElement(tet, 2, "bdm_original")
    monkeypatch.undo()
    assert sizes == [30, 3] and made == []


def test_mapped_builds_invert_only_the_reference_element(monkeypatch):
    # linalg.invert is linalg.solve with no right-hand side, so an inversion
    # shows in both lists
    sizes = {"invert": [], "solve": []}
    for name in sizes:
        def counting(matrix, *args, _name=name, _fn=getattr(linalg, name)):
            sizes[_name].append(len(matrix))
            return _fn(matrix, *args)
        monkeypatch.setattr(linalg, name, counting)
    bdm._reference_element.cache_clear()
    bdm._qk_tables.cache_clear()
    tets = [Simplex(((0, 0, 0), (Fraction(3, 2), Fraction(1, 7), 0),
                     (Fraction(1, 5), Fraction(5, 3), Fraction(1, 9)),
                     (Fraction(1, 4), Fraction(-1, 3), Fraction(7, 5)))),
            Simplex(((1, 0, 2), (0, 3, 1), (2, 2, 0), (1, 1, 1))),
            t_bar_simplex()]
    build_element(tets[0], 2)
    # the reference element, built on first use
    assert sizes == {"invert": [30], "solve": [30]}
    for tet in tets[1:]:
        build_element(tet, 2)
    assert sizes == {"invert": [30], "solve": [30]}
    # bdm_original: its reference element, then per mapped element only
    # the r x r system Sh of the correction, r = dim Q_2 = 3
    for name in sizes:
        sizes[name].clear()
    for tet in tets:
        build_element(tet, 2, "bdm_original")
    assert sizes == {"invert": [30], "solve": [30] + [3] * len(tets)}


@pytest.mark.parametrize("variant", bdm.VARIANTS)
@pytest.mark.parametrize("dim,k", [(2, 1), (2, 3), (3, 1), (3, 2)])
def test_mapped_elements_share_the_reference_inverse(dim, k, variant):
    # a mapped element applies its factors to each field: it holds no
    # inverse DOF matrix of its own
    ref = bdm._reference_element(dim, k, variant)

    @settings(max_examples=3, deadline=None)
    @given(simplices(dim))
    def check(simplex):
        assert build_element(simplex, k, variant)._inverse is ref._inverse

    check()


def test_repeated_reference_builds_invert_nothing(monkeypatch):
    for variant in bdm.VARIANTS:
        build_element(reference_simplex(3), 2, variant)
    sizes = []
    invert = linalg.invert

    def counting_invert(matrix):
        sizes.append(len(matrix))
        return invert(matrix)

    monkeypatch.setattr(linalg, "invert", counting_invert)
    for simplex in (reference_simplex(3), Simplex(((1, 0, 0), (0, 1, 0),
                                                   (0, 0, 1), (0, 0, 0)))):
        for variant in bdm.VARIANTS:
            el = build_element(simplex, 2, variant)
            ref = bdm._reference_element(3, 2, variant)
            assert el.dofs is ref.dofs and el._inverse is ref._inverse
    assert sizes == []


@pytest.mark.parametrize("variant", bdm.VARIANTS)
def test_reference_row_cache_holds_only_its_own_rows(variant):
    # mapped elements share the reference's interior DOFs, but each caches
    # the rows it reads itself: the reference's cache must not grow, or it
    # would keep rows alive per mapped element
    ref = bdm._reference_element(2, 3, variant)
    ref.interpolate(VectorPoly([Polynomial.variable(2, 0) ** 4,
                                Polynomial.variable(2, 1)]))
    before = dict(ref._rows)
    v = VectorPoly([Polynomial.variable(2, 1) ** 5, Polynomial.constant(2, 1)])
    for i in range(3):
        el = build_element(Simplex(((0, 0), (i + 1, 1), (Fraction(1, 3), 2))),
                           3, variant)
        el.interpolate(v)
        assert set(el._rows) <= set(el.dofs)
    assert ref._rows == before
    assert set(before) <= set(ref.dofs)
