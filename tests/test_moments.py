"""Polynomial.compose_affine, the DOF functionals and integrate_poly against
a substitute-then-integrate oracle that shares no code with the moment
tables; the reference-frame interpolant of both variants against the
physical-DOF oracle (the DOFs of the simplex itself, Q_k moments against
basis_qk(T), and the inverse of their DOF matrix); and the invariants of
the interpolant (projection, Piola commuting, vertex relabelling), on
random rational triangles and tetrahedra."""

from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bdmlab import bdm, linalg
from bdmlab.bdm import FacetMoment, InteriorMoment, build_element
from bdmlab.geometry import (DegenerateSimplexError, Simplex, adjugate,
                             determinant, reference_simplex, t_bar_simplex)
from bdmlab.polynomials import (Polynomial, VectorPoly, integrate_reference,
                                monomial_indices)
from bdmlab.spaces import (MomentTable, basis_pk, basis_qk, integrate_poly,
                           scaled_field)

from test_linalg import fraction_invert

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


def divergence(v):
    """sum_i d v_i / dx_i, differentiated in Fractions."""
    return sum((p.diff(i) for i, p in enumerate(v.comps)),
               Polynomial.zero(v.dim))


def coeff(p, alpha):
    """The coefficient of x^alpha in p (zero terms are not stored)."""
    return p.terms.get(alpha, 0)


def compose_field(v, matrix, offset):
    """v(A t + b), componentwise, by `Polynomial.compose_affine`."""
    return VectorPoly([p.compose_affine(matrix, offset) for p in v.comps])


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
    """What a functional's rows read from an element: a fresh table and
    k; and a cache of rows for `dof_value`."""
    return SimpleNamespace(simplex=simplex, order=order,
                           moments=MomentTable(simplex), row_cache={})


def dof_value(dof, el, v):
    """The DOF's value on v from its rows on the element's tables."""
    f = scaled_field(v)
    key = dof, f.degree
    if key not in el.row_cache:
        el.row_cache[key] = dof.rows(el, f.degree)
    rows, den = el.row_cache[key]
    return Fraction(sum(sum(map(mul, comp, row))
                        for comp, row in zip(f.comps, rows)),
                    den * f.denominator)


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
    if len(f.comps) == 1:
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
            assert dof_value(FacetMoment(facet, alpha), el, v) == \
                oracle(alpha)


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 3).flatmap(
    lambda d: st.tuples(simplices(d), fields(d, 2), fields(d, 3))))
def test_interior_moments_match_oracle(case):
    simplex, weight, v = case
    dof = InteriorMoment(weight)
    assert dof_value(dof, element_stub(simplex, 1), v) == \
        integrate_oracle(dot(v, weight), simplex)


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 3).flatmap(simplices))
def test_grown_moment_tables_equal_fresh_ones(simplex):
    # a miss grows the volume table; the entries must be those a fresh
    # table fills at the final degree, int for int over the same
    # denominator.  Facet entries are kept per (i, degree, alpha degree):
    # the ones computed first must not change a later one
    grown, fresh = MomentTable(simplex), MomentTable(simplex)
    for degree in (3, 4, 6):
        grown.volume(degree)
    assert grown.volume(6) == fresh.volume(6)
    for i in range(simplex.dim + 1):
        for degree, alpha_degree in ((2, 1), (3, 2), (3, 3), (4, 3)):
            grown.facet(i, degree, alpha_degree)
        assert grown.facet(i, 4, 3) == fresh.facet(i, 4, 3)


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 3).flatmap(
    lambda d: st.tuples(simplices(d), fields(d, 2))))
def test_interior_rows_extend_their_prefix(case):
    # rows read at a lower degree, then at a higher one after the table has
    # grown, equal the rows computed at the higher degree from scratch
    simplex, weight = case
    dof = InteriorMoment(weight)
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


@dataclass(frozen=True)
class AffineMap:
    """x = J xtilde + x0, with Fraction entries."""

    matrix: tuple
    offset: tuple

    def __post_init__(self):
        object.__setattr__(self, "matrix",
                           tuple(tuple(map(Fraction, r)) for r in self.matrix))
        object.__setattr__(self, "offset", tuple(map(Fraction, self.offset)))
        if self.det() == 0:
            raise ValueError("affine map must be nonsingular")

    @property
    def dim(self):
        return len(self.offset)

    def det(self):
        return determinant(self.matrix)

    def apply(self, point):
        return tuple(sum(map(mul, row, point)) + b
                     for row, b in zip(self.matrix, self.offset))

    def inverse(self):
        det = self.det()
        inv = [[x / det for x in row] for row in adjugate(self.matrix)]
        ioff = [-sum(map(mul, row, self.offset)) for row in inv]
        return AffineMap(inv, ioff)


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


# -- mapped elements against the physical-DOF oracle


def dof_matrix(el, dofs):
    """The DOF matrix of `dofs` on P_k^d, k = el.order, from the tables
    `el` holds: their rows at degree k, in Fractions."""
    n = len(monomial_indices(el.simplex.dim, el.order))
    matrix = []
    for dof in dofs:
        rows, den = dof.rows(el, el.order)
        matrix.append([Fraction(x, den) for row in rows for x in row[:n]])
    return matrix


def direct_inverse(el):
    """The inverse of a reference element's own DOF matrix, by exact
    inversion in Fractions."""
    return fraction_invert(dof_matrix(el, el.dofs))


def coefficients(v, degree):
    """The coefficients of a field of degree <= `degree`, component-major
    in graded order: its coordinates in the element's basis."""
    return [coeff(p, a) for p in v.comps
            for a in monomial_indices(v.dim, degree)]


def assert_inverts_its_dof_matrix(el):
    """field_from_dofs on the j-th unit DOF vector is column j of the
    direct inverse, for every j: the element's inverse is that matrix."""
    inverse = direct_inverse(el)
    for j in range(el.ndofs):
        unit = linalg.Scaled([int(i == j) for i in range(el.ndofs)], 1)
        assert coefficients(el.field_from_dofs(unit), el.order) == \
            [row[j] for row in inverse]


def original_functionals(simplex, k):
    """The `bdm_original` DOFs of order k on `simplex` itself, as three
    tuples: the facet moments, the moments against the gradients of
    P_{k-1} (constants excluded) and those against basis_qk(simplex)."""
    d = simplex.dim
    facets = tuple(FacetMoment(facet, alpha) for facet in range(d + 1)
                   for alpha in monomial_indices(d - 1, k))
    grads = []
    for z in basis_pk(d, k - 1):
        grad = VectorPoly([z.diff(i) for i in range(d)])
        if not all(p.is_zero() for p in grad.comps):
            grads.append(InteriorMoment(grad))
    return facets, tuple(grads), tuple(
        InteriorMoment(z) for z in basis_qk(simplex, k))


def physical_element(simplex, k, variant):
    """(stub, dofs, inverse): the DOFs of order k on `simplex` itself (for
    `bdm_original`, with Q_k moments against basis_qk(simplex)), the
    simplex's own moment tables, and the inverse of their DOF matrix in
    Fractions.  The physical-DOF path that an element, which interpolates
    in the reference frame and builds `bdm_original` from `nedelec`, must
    reproduce."""
    stub = element_stub(simplex, k)
    if variant == "nedelec":
        dofs = bdm._dof_functionals(simplex.dim, k)
    else:
        dofs = sum(original_functionals(simplex, k), ())
    return stub, dofs, fraction_invert(dof_matrix(stub, dofs))


def physical_dof_values(physical, v):
    stub, dofs, _ = physical
    f = scaled_field(v)
    return [dof_value(dof, stub, f) for dof in dofs]


def oracle_interpolant(physical, v):
    """The member of P_k^d with the physical DOF values of v."""
    stub, _, inverse = physical
    values = physical_dof_values(physical, v)
    coeffs = [sum(map(mul, row, values)) for row in inverse]
    d, k = stub.simplex.dim, stub.order
    n = len(monomial_indices(d, k))
    return VectorPoly([Polynomial(d, dict(zip(
        monomial_indices(d, k), coeffs[c * n:(c + 1) * n])))
        for c in range(d)])


def assert_matches_direct_build(simplex, k, variant="nedelec"):
    """The element of `simplex` is its interpolation operator on
    P_{k+1}^d: the `nedelec` reference element inverts its own DOF matrix,
    and any other element leaves, for each monomial field e of degree k +
    1, an error e - I e on which every physical DOF vanishes (the physical
    DOF matrix is invertible, so I e is the oracle's interpolant; on P_k^d
    both are the identity, see the projection tests)."""
    el = build_element(simplex, k, variant)
    if el is bdm._reference_element(simplex.dim, k, "nedelec"):
        assert_inverts_its_dof_matrix(el)
        return
    physical = physical_element(simplex, k, variant)
    d = simplex.dim
    for c in range(d):
        for a in monomial_indices(d, k + 1)[len(monomial_indices(d, k)):]:
            e = VectorPoly([Polynomial.monomial(d, a) if i == c
                            else Polynomial.zero(d) for i in range(d)])
            err = e - el.interpolate(e)
            assert not any(physical_dof_values(physical, err))


@pytest.mark.parametrize("dim,k", [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1),
                                   (3, 2), (3, 3)])
def test_mapped_nedelec_inverse_matches_direct_build(dim, k):
    # both variants interpolate through their reference element
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


@pytest.mark.parametrize("variant", bdm.VARIANTS)
@pytest.mark.parametrize("dim,k", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2),
                                   (3, 3)])
def test_reference_frame_interpolant_matches_physical_oracle(dim, k, variant):
    # pull back, reference interpolant, push forward against the DOF
    # values on the simplex and the inverse of its own DOF matrix,
    # Fraction for Fraction, on both orientations and fields of degree
    # up to k + 1
    @settings(max_examples=1 if (dim, k) == (3, 3) else 4, deadline=None)
    @given(simplices(dim), st.integers(0, k + 1).flatmap(
        lambda n: fields(dim, n)))
    def check(simplex, v):
        w = simplex.vertices
        for s in (simplex, Simplex((w[1], w[0]) + w[2:])):
            assert build_element(s, k, variant).interpolate(v) == \
                oracle_interpolant(physical_element(s, k, variant), v)

    check()


@pytest.mark.parametrize("dim,k", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_original_is_nedelec_plus_the_projection_onto_qk(dim, k):
    # Pi_orig v - Pi_ned v lies in Q_k(T): it has no divergence and no
    # normal trace on any facet.  And v - Pi_orig v is L2(T)-orthogonal to
    # basis_qk(T).  Checked with Fraction derivatives, and with the fields
    # substituted into the facet charts and into the chart of T, which the
    # elements never do
    @settings(max_examples={(3, 3): 3, (3, 2): 5}.get((dim, k), 8),
              deadline=None)
    @given(simplices(dim), fields(dim, k + 1))
    def check(simplex, v):
        original = build_element(simplex, k, "bdm_original").interpolate(v)
        diff = original - build_element(simplex, k).interpolate(v)
        assert divergence(diff).is_zero()
        for facet in range(dim + 1):
            matrix, origin = simplex.facet_chart(facet)
            trace = VectorPoly([substitute(p, matrix, origin)
                                for p in diff.comps])
            assert dot(trace, simplex.scaled_facet_normal(facet)).is_zero()
        # int_T f . z == |det| int_ref (f o chart) . (z o chart)
        A, b = simplex.chart()
        err = VectorPoly([substitute(p, A, b) for p in (v - original).comps])
        for z in basis_qk(simplex, k):
            assert integrate_reference(dot(err, VectorPoly(
                [substitute(p, A, b) for p in z.comps]))) == 0

    check()


@pytest.mark.parametrize("dim,k", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2),
                                   (3, 3)])
def test_mapped_bdm_original_matches_canonical_convention(dim, k):
    # the interpolant depends on Q_k(T), not on its basis: moments against
    # the G-weighted reference basis give what basis_qk(T) gives
    @settings(max_examples=1 if (dim, k) == (3, 3) else 3, deadline=None)
    @given(simplices(dim), fields(dim, k + 1))
    def check(simplex, v):
        w = simplex.vertices
        for s in (simplex, Simplex((w[1], w[0]) + w[2:])):
            assert build_element(s, k, "bdm_original").interpolate(v) == \
                oracle_interpolant(physical_element(s, k, "bdm_original"), v)

    check()


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("simplex", [reference_simplex(2), reference_simplex(3),
                                     t_bar_simplex()])
def test_reference_elements_match_direct_build(simplex, k):
    assert_matches_direct_build(simplex, k)


@pytest.mark.parametrize("dim,k", [(2, 1), (2, 2), (3, 1), (3, 2)])
def test_inverted_elements_match_oracle(dim, k):
    # the one element that inverts its own DOF matrix is the `nedelec`
    # reference element; every other element is mapped from it, and the
    # `bdm_original` reference element is checked against the oracle's DOF
    # matrix of the original DOFs
    assert_inverts_its_dof_matrix(bdm._reference_element(dim, k, "nedelec"))
    assert_matches_direct_build(reference_simplex(dim), k, "bdm_original")

    @settings(max_examples=4 if dim == 2 else 2, deadline=None)
    @given(simplices(dim))
    def check(simplex):
        assert_matches_direct_build(simplex, k, "bdm_original")

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

    def watched_solve(matrix):
        sizes.append(len(matrix))
        inside.append(True)
        try:
            return solve(matrix)
        finally:
            inside.pop()

    tet = Simplex(((0, 0, 0), (Fraction(3, 2), Fraction(1, 7), 0),
                   (Fraction(1, 5), Fraction(5, 3), Fraction(1, 9)),
                   (Fraction(1, 4), Fraction(-1, 3), Fraction(7, 5))))
    # `invert` calls `solve`: this watches the `nedelec` reference
    # element's inverse, built on first use, and the inverse of the mapped
    # element's r x r Gram matrix of Q_2
    bdm._reference_element.cache_clear()
    bdm._qk.cache_clear()
    monkeypatch.setattr(Fraction, "__new__", counting_new)
    monkeypatch.setattr(linalg, "solve", watched_solve)
    bdm.BDMElement(tet, 2, "bdm_original")
    monkeypatch.undo()
    assert sizes == [30, 3] and made == []


def test_mapped_builds_invert_only_the_reference_element(monkeypatch):
    # linalg.invert calls linalg.solve, so an inversion shows in both lists
    sizes = {"invert": [], "solve": []}
    for name in sizes:
        def counting(matrix, _name=name, _fn=getattr(linalg, name)):
            sizes[_name].append(len(matrix))
            return _fn(matrix)
        monkeypatch.setattr(linalg, name, counting)
    bdm._reference_element.cache_clear()
    bdm._qk.cache_clear()
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
    # bdm_original: the same reference element, then per mapped element
    # only the inverse of its r x r Gram matrix of Q_2, r = 3
    for name in sizes:
        sizes[name].clear()
    for tet in tets:
        build_element(tet, 2, "bdm_original")
    assert sizes == {"invert": [3] * len(tets), "solve": [3] * len(tets)}


def test_bdm_original_reference_element_inverts_only_its_gram_matrix(
        monkeypatch):
    # the `bdm_original` reference element has no DOF matrix of its own:
    # past the `nedelec` reference element it inverts the r x r Gram
    # matrix of Q_2, r = 3, and nothing larger
    sizes = []
    invert = linalg.invert

    def counting_invert(matrix):
        sizes.append(len(matrix))
        return invert(matrix)

    bdm._reference_element.cache_clear()
    bdm._qk.cache_clear()
    monkeypatch.setattr(linalg, "invert", counting_invert)
    ref = bdm._reference_element(3, 2, "bdm_original")
    assert sizes == [30, 3]
    assert ref._inverse is bdm._reference_element(3, 2, "nedelec")._inverse


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
    # mapped elements interpolate through the `nedelec` reference element's
    # DOF rows (and `bdm_original` through the rows of the reference Q_k)
    # and hold no rows or tables of their own: the reference's row caches
    # grow with the field degree, and not per mapped element, or they would
    # keep rows alive per mapped element
    v = VectorPoly([Polynomial.variable(2, 1) ** 5, Polynomial.constant(2, 1)])
    bdm._reference_element(2, 3, variant).interpolate(v)
    ref = bdm._reference_element(2, 3, "nedelec")
    caches = [ref._rows] + [bdm._qk(2, 3)._rows] * (variant == "bdm_original")
    before = [dict(rows) for rows in caches]
    for i in range(3):
        el = build_element(Simplex(((0, 0), (i + 1, 1), (Fraction(1, 3), 2))),
                           3, variant)
        el.interpolate(v)
        assert not hasattr(el, "_rows") and not hasattr(el, "moments")
    assert caches == before
    assert all(5 in rows for rows in before)
    assert set(ref._positions) == set(ref.dofs)


def test_mapped_elements_read_no_moment_table(monkeypatch):
    # a mapped element pulls the field back to the reference element, so
    # neither its build nor its interpolations make a table for its simplex
    for variant in bdm.VARIANTS:
        build_element(reference_simplex(3), 2, variant).interpolate(
            VectorPoly([Polynomial.variable(3, 0) ** 3] * 3))
    made = []
    init = MomentTable.__init__

    def counting_init(self, simplex):
        made.append(simplex)
        init(self, simplex)

    monkeypatch.setattr(MomentTable, "__init__", counting_init)
    tet = Simplex(((0, 0, 0), (Fraction(3, 2), Fraction(1, 7), 0),
                   (Fraction(1, 5), Fraction(5, 3), Fraction(1, 9)),
                   (Fraction(1, 4), Fraction(-1, 3), Fraction(7, 5))))
    for variant in bdm.VARIANTS:
        build_element(tet, 2, variant).interpolate(
            VectorPoly([Polynomial.variable(3, 1) ** 3] * 3))
    assert made == []


def test_volume_integrals_make_no_facet_chart(monkeypatch):
    # a table's facet charts and normals are made on first facet use, so a
    # norm or a volume integral computes none
    def refuse(self, i):
        raise AssertionError("facet geometry computed")

    monkeypatch.setattr(Simplex, "facet_chart", refuse)
    monkeypatch.setattr(Simplex, "scaled_facet_normal", refuse)
    tri = Simplex(((0, 0), (Fraction(5, 2), Fraction(1, 3)), (1, 2)))
    p = Polynomial.variable(2, 0) ** 2
    assert integrate_poly(p, tri) == integrate_oracle(p, tri)
