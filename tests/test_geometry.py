import math
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bdmlab.geometry import (AffineMap, DegenerateSimplexError, Simplex,
                             facet_normals, coord_to_token, max_angle,
                             reference_simplex, simplex_from_text,
                             t_bar_simplex)
from bdmlab.polynomials import Polynomial, VectorPoly, integrate_reference

from test_estimates import random_field
from test_moments import dot, map_simplex, piola_push

F = Fraction


def tstar(h):
    return Simplex(((-1, 0), (1, 0), (0, h)))


def test_degenerate_rejected():
    with pytest.raises(DegenerateSimplexError):
        Simplex(((0, 0), (1, 1), (2, 2)))


def test_vertex_count_enforced():
    with pytest.raises(ValueError):
        Simplex(((0, 0, 0), (1, 0, 0), (0, 1, 0)))


# -- facet normals ----------------------------------------------------------

def test_reference_tet_normals():
    ns = facet_normals(reference_simplex(3))
    expected = [(-1, 0, 0), (0, -1, 0), (0, 0, -1),
                (1 / math.sqrt(3),) * 3]
    for got, want in zip(ns, expected):
        np.testing.assert_allclose(got, want, atol=1e-15)


def test_tbar_normals_include_published_pair():
    ns = {tuple(np.round(n, 12)) for n in facet_normals(t_bar_simplex())}
    s = 1 / math.sqrt(2)
    assert tuple(np.round((s, -s, 0.0), 12)) in ns
    assert tuple(np.round((0.0, s, s), 12)) in ns


def test_reference_triangle_normals():
    ns = facet_normals(reference_simplex(2))
    s = 1 / math.sqrt(2)
    got = {tuple(np.round(n, 12)) for n in ns}
    assert got == {(-1.0, 0.0), (0.0, -1.0), (round(s, 12), round(s, 12))}


def test_reference_simplices_are_built_once():
    assert reference_simplex(3) is reference_simplex(3)
    assert reference_simplex(2) is reference_simplex(2)
    assert t_bar_simplex() is t_bar_simplex()


@pytest.mark.parametrize("s", [
    reference_simplex(2), reference_simplex(3), t_bar_simplex(),
    Simplex(((0, 0, 0), (2, 0, 0), (0, 3, 0), (0, 0, 5))),
])
def test_closed_surface(s):
    # sum over facets of |e_i| nhat_i vanishes; the scaled normals carry
    # exactly (d-1)! |e_i| as their length
    total = sum(np.array([float(x) for x in s.scaled_facet_normal(i)])
                for i in range(s.dim + 1))
    np.testing.assert_allclose(total, 0, atol=1e-14)


def test_scaled_normals_exact_for_rational_vertices():
    s = t_bar_simplex()
    for i in range(4):
        assert all(isinstance(x, Fraction) for x in s.scaled_facet_normal(i))


# -- angles -----------------------------------------------------------------

def test_max_angle_reference_triangle():
    assert abs(max_angle(reference_simplex(2)) - math.pi / 2) < 1e-14


@pytest.mark.parametrize("h", [F(1, 2), F(1, 10), F(1, 1000)])
def test_max_angle_tstar_closed_form(h):
    assert abs(max_angle(tstar(h)) - (math.pi - 2 * math.atan(float(h)))) < 1e-12


def _dihedral_oracle(s, i, j):
    """Interior dihedral angle between facets i and j via in-plane vectors
    perpendicular to the shared edge (independent of the normals formula)."""
    shared = [v for v in s.facet_vertex_ids(i) if v in s.facet_vertex_ids(j)]
    a, b = (np.array([float(x) for x in s.vertices[v]]) for v in shared)
    edge = b - a
    edge /= np.linalg.norm(edge)

    def in_plane(facet, other_vertex):
        w = np.array([float(x) for x in s.vertices[other_vertex]]) - a
        w -= np.dot(w, edge) * edge
        return w / np.linalg.norm(w)

    oi = next(v for v in s.facet_vertex_ids(i) if v not in shared)
    oj = next(v for v in s.facet_vertex_ids(j) if v not in shared)
    w1, w2 = in_plane(i, oi), in_plane(j, oj)
    return math.acos(max(-1.0, min(1.0, float(np.dot(w1, w2)))))


def test_max_angle_reference_tet_matches_dihedral_oracle():
    # brute force over all facet pairs: every dihedral of the corner tet is
    # pi/2 or arctan(sqrt 2), so the maximum interior angle is pi/2 (the
    # value arccos(-1/sqrt 3) is the angle between outward normals, not the
    # interior dihedral)
    s = reference_simplex(3)
    oracle = max(_dihedral_oracle(s, i, j) for i, j in combinations(range(4), 2))
    assert abs(oracle - math.pi / 2) < 1e-12
    assert abs(max_angle(s) - math.pi / 2) < 1e-12


def test_t1_family_max_angle_uniform_bound():
    # anisotropic axis-aligned elements never grow an interior angle past
    # the reference value (swept over aspect ratios up to 1e6)
    import random
    rng = random.Random(1)
    cap = math.acos(-1 / math.sqrt(3)) + 1e-9
    for _ in range(50):
        hs = [10 ** rng.uniform(-3, 3) for _ in range(3)]
        s = Simplex(((0, 0, 0), (hs[0], 0, 0), (0, hs[1], 0), (0, 0, hs[2])))
        assert max_angle(s) <= cap


# -- Piola -------------------------------------------------------------------

def test_piola_identity():
    v = VectorPoly([Polynomial.variable(2, 0) ** 2,
                    Polynomial.variable(2, 1)])
    amap = AffineMap(((1, 0), (0, 1)), (0, 0))
    assert piola_push(amap, v) == v


def test_piola_diagonal_component_scaling():
    # J = diag(h): component i picks up 1 / prod_{j != i} h_j
    h = (F(2), F(3), F(5))
    amap = AffineMap(((h[0], 0, 0), (0, h[1], 0), (0, 0, h[2])), (0, 0, 0))
    v = VectorPoly([Polynomial.constant(3, F(1)) for _ in range(3)])
    out = piola_push(amap, v)
    for i in range(3):
        others = [h[j] for j in range(3) if j != i]
        assert out.comps[i] == Polynomial.constant(3, 1 / (others[0] * others[1]))


def test_piola_divergence_relation():
    import random
    rng = random.Random(5)
    v = random_field(3, 3, rng)
    amap = AffineMap(((2, 1, 0), (0, 3, 1), (1, 0, 5)), (1, -1, 2))
    pushed = piola_push(amap, v)
    det = amap.det()
    inv = amap.inverse()
    lhs = pushed.divergence()
    rhs = v.divergence().compose_affine(inv.matrix, inv.offset) / det
    assert lhs == rhs


def test_piola_preserves_facet_fluxes():
    ref = reference_simplex(2)
    amap = AffineMap(((2, 1), (0, 3)), (1, 1))
    phys = map_simplex(amap, ref)
    v = VectorPoly([Polynomial.variable(2, 0) ** 2,
                    Polynomial.variable(2, 0) * Polynomial.variable(2, 1)])
    pushed = piola_push(amap, v)
    for i in range(3):
        flux_ref = integrate_reference(
            dot(v.compose_affine(*ref.facet_chart(i)), ref.scaled_facet_normal(i)))
        flux_phys = integrate_reference(
            dot(pushed.compose_affine(*phys.facet_chart(i)),
                phys.scaled_facet_normal(i)))
        assert flux_ref * (1 if amap.det() > 0 else -1) == flux_phys


# -- text I/O -----------------------------------------------------------------

def simplex_to_text(s):
    """The format `simplex_from_text` reads: one vertex per line."""
    return "".join(" ".join(coord_to_token(x) for x in v) + "\n"
                   for v in s.vertices)


def test_simplex_text_roundtrip_exact():
    s = Simplex(((F(1, 3), F(2, 7)), (1, 0), (0, 1)))
    text = simplex_to_text(s)
    back = simplex_from_text(text)
    assert back.vertices == s.vertices
    assert simplex_to_text(back) == text


def test_simplex_text_roundtrip_float():
    s = Simplex(((0.1, 0.2), (1.7, 0.3), (0.4, 2.9)))
    back = simplex_from_text(simplex_to_text(s))
    assert back.vertices == s.vertices


def _all_fractions(s):
    return all(type(c) is F for v in s.vertices for c in v)


def test_simplex_text_integer_tokens_are_exact():
    s = simplex_from_text("0 0\n1 0\n-2 3\n")
    assert _all_fractions(s) and s.vertices == ((0, 0), (1, 0), (-2, 3))
    s = simplex_from_text("0 0\n1.5 0\n0.1 1\n")
    assert _all_fractions(s) and s.vertices[2] == (F(1, 10), 1)


# decimal and exponent tokens have at most 15 significant digits and lie
# within 1e-300..1e300 in magnitude, so each is the decimal its float
# prints as
tokens = st.one_of(
    st.integers(-50, 50).map(str),
    st.tuples(st.integers(-50, 50), st.integers(1, 50)).map(
        lambda pq: f"{pq[0]}/{pq[1]}"),
    st.builds("{}{}.{}".format, st.sampled_from(["", "-"]),
              st.integers(0, 99999),
              st.text("0123456789", min_size=1, max_size=9)),
    st.builds("{}e{}".format, st.integers(-10 ** 15 + 1, 10 ** 15 - 1),
              st.integers(-300, 285)))


@settings(max_examples=60, deadline=None)
@given(dim=st.sampled_from([2, 3]), data=st.data())
def test_simplex_text_roundtrip_is_exact(dim, data):
    rows = [[data.draw(tokens) for _ in range(dim)] for _ in range(dim + 1)]
    want = tuple(tuple(F(tok) for tok in row) for row in rows)
    try:
        Simplex(want)
    except DegenerateSimplexError:
        assume(False)
    s = simplex_from_text("".join(" ".join(row) + "\n" for row in rows))
    assert _all_fractions(s) and s.vertices == want
    back = simplex_from_text(simplex_to_text(s))
    assert _all_fractions(back) and back.vertices == want
    assert simplex_to_text(back) == simplex_to_text(s)
