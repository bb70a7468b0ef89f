from fractions import Fraction
from math import comb

import pytest

from bdmlab.geometry import Simplex, reference_simplex
from bdmlab.polynomials import Polynomial, VectorPoly, monomial_indices
from bdmlab.spaces import (basis_nk, basis_pk, basis_pk_vector, basis_qk,
                           basis_sk, integrate_poly)

from test_moments import coeff, compose_field, divergence, dot

F = Fraction


def tstar(h):
    return Simplex(((-1, 0), (1, 0), (0, h)))


# -- dimensions ---------------------------------------------------------------

@pytest.mark.parametrize("dim,k,expect", [(2, 1, 3), (3, 2, 10), (2, 0, 1)])
def test_pk_dims(dim, k, expect):
    assert len(basis_pk(dim, k)) == expect


def test_pk_vector_dim():
    assert len(basis_pk_vector(3, 1)) == 12


@pytest.mark.parametrize("dim,k,expect", [
    (3, 0, 0), (3, 1, 3), (3, 2, 11), (2, 1, 1), (2, 2, 3),
])
def test_sk_dims(dim, k, expect):
    assert len(basis_sk(dim, k)) == expect


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_sk_dim_formula_3d(k):
    # literal reading: one homogeneous layer per degree, sizes j(j+2)
    assert len(basis_sk(3, k)) == sum(j * (j + 2) for j in range(1, k + 1))


def test_sk_members_satisfy_constraint():
    x = VectorPoly([Polynomial.variable(3, i) for i in range(3)])
    for p in basis_sk(3, 2):
        assert dot(p, x).is_zero()


@pytest.mark.parametrize("dim,k,expect", [
    (3, 0, 0), (3, 1, 6), (2, 1, 3), (3, 2, 20), (2, 3, 15),
])
def test_nk_dims(dim, k, expect):
    assert len(basis_nk(dim, k)) == expect


def nk_by_elimination(dim, k):
    """N_k as the maximal independent subset of the concatenated bases of
    P_{k-1}^d and S_k, kept in order by a Fraction Gaussian elimination:
    the oracle for `basis_nk`, which needs no elimination of its own."""
    if k <= 0:
        return ()
    candidates = list(basis_pk_vector(dim, k - 1)) + list(basis_sk(dim, k))
    unknowns = [(comp, a) for comp in range(dim)
                for a in monomial_indices(dim, k)]
    col_of = {ua: i for i, ua in enumerate(unknowns)}
    kept = []
    echelon = {}  # pivot column -> normalized row
    for cand in candidates:
        vec = [F(0)] * len(unknowns)
        for comp, poly in enumerate(cand.comps):
            for a, c in poly.terms.items():
                vec[col_of[(comp, a)]] = F(c)
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
    return tuple(kept)


@pytest.mark.parametrize("dim,k", [(2, k) for k in range(7)]
                         + [(3, k) for k in range(5)])
def test_nk_members_match_elimination(dim, k):
    assert basis_nk(dim, k) == nk_by_elimination(dim, k)


@pytest.mark.parametrize("dim,k", [(2, 1), (2, 2), (2, 3), (2, 4),
                                   (3, 1), (3, 2), (3, 3), (3, 4)])
def test_unisolvence_count(dim, k):
    # d C(k+d, d) = (d+1) dim P_k(facet) + dim N_{k-1}
    lhs = dim * comb(k + dim, dim)
    facet = len(monomial_indices(dim - 1, k))
    rhs = (dim + 1) * facet + len(basis_nk(dim, k - 1))
    assert lhs == rhs


def test_qk_dims():
    tri = reference_simplex(2)
    assert len(basis_qk(tri, 1)) == 0
    assert len(basis_qk(tri, 2)) == 1
    assert len(basis_qk(reference_simplex(3), 1)) == 0


def test_q2_is_curl_of_cubic_bubble():
    tri = reference_simplex(2)
    (member,) = basis_qk(tri, 2)
    x1 = Polynomial.variable(2, 0)
    x2 = Polynomial.variable(2, 1)
    bubble = x1 * x2 * (1 - x1 - x2)
    curl = VectorPoly([bubble.diff(1), -bubble.diff(0)])
    # both span the same line: member = c * curl for a single scalar c
    ratio = None
    for comp_m, comp_c in zip(member.comps, curl.comps):
        for alpha, c in comp_c.terms.items():
            got = coeff(comp_m, alpha)
            r = got / c
            ratio = r if ratio is None else ratio
            assert r == ratio
    assert (member - curl * ratio).comps[0].is_zero()
    assert (member - curl * ratio).comps[1].is_zero()


def test_qk_members_satisfy_constraints():
    tri = reference_simplex(2)
    for z in basis_qk(tri, 2):
        assert divergence(z).is_zero()
        for i in range(3):
            restricted = compose_field(z, *tri.facet_chart(i))
            assert dot(restricted, tri.scaled_facet_normal(i)).is_zero()


# -- exact integration --------------------------------------------------------

def test_integrate_constant_unit_triangle():
    assert integrate_poly(Polynomial.constant(2, F(1)),
                          reference_simplex(2)) == F(1, 2)


@pytest.mark.parametrize("h", [F(1), F(1, 2), F(3, 7)])
def test_integrate_tstar_paper_values(h):
    x1 = Polynomial.variable(2, 0)
    assert integrate_poly(x1 ** 4, tstar(h)) == h / 15
    assert integrate_poly(4 * x1 ** 2, tstar(h)) == 2 * h / 3


def test_integrate_affine_covariant():
    p = Polynomial.variable(2, 0) ** 2 * Polynomial.variable(2, 1)
    ref = reference_simplex(2)
    A = ((2, 1), (0, 3))
    b = (1, -1)
    mapped = Simplex(tuple(
        tuple(sum(A[i][j] * v[j] for j in range(2)) + b[i] for i in range(2))
        for v in ref.vertices))
    det = A[0][0] * A[1][1] - A[0][1] * A[1][0]
    composed = p.compose_affine(A, b)
    assert integrate_poly(p, mapped) == abs(det) * integrate_poly(composed, ref)
