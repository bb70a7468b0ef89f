import hashlib
import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bdmlab.geometry import Simplex, coord_from_token, max_angle
from bdmlab.shishkin import (Mesh2D, aspect_ratio, build_shishkin,
                             build_uniform, mesh_aspect_ratio, mesh_to_text,
                             transition_point)

F = Fraction


def triangle_points(mesh, t):
    return [mesh.vertices[i] for i in mesh.triangles[t]]


def triangle_area(mesh, t):
    (x0, y0), (x1, y1), (x2, y2) = triangle_points(mesh, t)
    return ((x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0)) / 2


def mesh_from_text(text):
    """Read back the format `mesh_to_text` writes: "dim nv nt", vertex
    lines, then 0-based triangle lines."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    dim, nv, nt = (int(x) for x in lines[0].split())
    assert dim == 2
    vertices = [tuple(coord_from_token(tok) for tok in ln.split())
                for ln in lines[1:1 + nv]]
    triangles = [tuple(int(x) for x in ln.split())
                 for ln in lines[1 + nv:1 + nv + nt]]
    return Mesh2D(vertices, triangles).build_facets()


def triangle_aspect_ratio(pts):
    """Longest edge over twice the inradius, one triangle at a time: the
    oracle of the array expression in `mesh_aspect_ratio`."""
    a = math.dist(pts[0], pts[1])
    b = math.dist(pts[1], pts[2])
    c = math.dist(pts[2], pts[0])
    s = 0.5 * (a + b + c)
    (x0, y0), (x1, y1), (x2, y2) = pts
    area = 0.5 * abs((x0 - x1) * (y1 - y2) - (y0 - y1) * (x1 - x2))
    inradius = area / s
    return max(a, b, c) / (2.0 * inradius)


# -- transition point -----------------------------------------------------------

def test_transition_point_natural():
    assert abs(transition_point(0.01) - 0.13815510557964272) < 1e-14


def test_transition_point_base10_exact():
    tau = transition_point(F(1, 100), "base10")
    assert tau == F(3, 50)


def test_transition_point_clamps_natural():
    assert transition_point(0.5) == 0.5
    # under base-10 the product 3 eps |log10 eps| tops out below 1/2, so the
    # clamp never engages there
    assert transition_point(0.5, "base10") == pytest.approx(0.4515449934959718)


def test_transition_point_domain():
    with pytest.raises(ValueError):
        transition_point(1.5)
    with pytest.raises(ValueError):
        transition_point(0.01, "base7")


# -- aspect ratio -----------------------------------------------------------------

def test_aspect_ratio_fig6_value():
    assert abs(aspect_ratio(0.06) - 8.9268) < 5e-4


def test_aspect_ratio_uniform_matches_inradius_oracle():
    # right isoceles triangle: longest edge / (2 inradius) = 1 + sqrt(2);
    # the closed form evaluates to the same number at tau = 1/2
    oracle = triangle_aspect_ratio([(0, 0), (1, 0), (1, 1)])
    assert abs(oracle - (1 + math.sqrt(2))) < 1e-12
    assert abs(aspect_ratio(0.5) - oracle) < 1e-12


@pytest.mark.parametrize("tau", [8.289306334778565e-11, 1e-6, 0.06])
def test_aspect_ratio_matches_high_precision(tau):
    # c / (a + b - c) for legs a = 2 tau, b = 1, in 50-digit decimals: the
    # closed form lost 4.5e-7 to cancellation at tau = 8.3e-11 (eps = 1e-12)
    with localcontext() as ctx:
        ctx.prec = 50
        a = 2 * Decimal(tau)
        c = (a * a + 1).sqrt()
        exact = float(c / (a + 1 - c))
    assert abs(aspect_ratio(tau) - exact) <= 1e-14 * exact


def test_mesh_aspect_ratio_of_thin_layer_triangles():
    # Heron's formula read 6031867804.7 as up to 2e-6 off (N = 26 here)
    tau = transition_point(1e-12)
    mesh = build_shishkin(26, tau)
    assert abs(mesh_aspect_ratio(mesh) - aspect_ratio(tau)) <= \
        1e-12 * aspect_ratio(tau)


def test_aspect_ratio_monotone_decreasing():
    taus = [0.01 + 0.49 * i / 200 for i in range(201)]
    vals = [aspect_ratio(t) for t in taus]
    assert all(b < a for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize("N, tau", [
    (6, None), (2, None), (8, None), (32, None),          # uniform meshes
    (4, transition_point(0.1)), (16, transition_point(1e-3)),
    (32, transition_point(1e-6)), (2, 0.3), (8, 0.3),     # float tau
    (4, F(1, 3)), (16, F(3, 50)), (32, F(7, 1000)),       # Fraction tau
    (4, transition_point(F(1, 10), "base10")),            # tau = 3/10
])
def test_mesh_aspect_ratio_matches_per_triangle_oracle(N, tau):
    # bit-identical: at tau = 3/10 with N = 2 and 4, edge lengths from
    # `np.hypot` give a maximum that differs from the oracle's in the last
    # place
    mesh = (build_uniform(N) if tau is None
            else build_shishkin(N, tau))
    oracle = max(triangle_aspect_ratio([(float(x), float(y))
                                        for x, y in triangle_points(mesh, t)])
                 for t in range(mesh.n_triangles))
    assert mesh_aspect_ratio(mesh) == oracle


def test_mesh_aspect_matches_formula():
    mesh = build_shishkin(8, F(3, 50))
    assert abs(mesh_aspect_ratio(mesh) - aspect_ratio(0.06)) < 1e-10


# -- mesh construction --------------------------------------------------------------

def test_counts_and_exact_area():
    for N in (2, 8, 16):
        mesh = build_shishkin(N, F(3, 50))
        assert mesh.n_triangles == 2 * N * N
        assert mesh.n_vertices == (N + 1) ** 2
        assert sum(triangle_area(mesh, t) for t in range(mesh.n_triangles)) == 1
        assert all(triangle_area(mesh, t) > 0 for t in range(mesh.n_triangles))


def test_euler_characteristic():
    mesh = build_uniform(4)
    v = mesh.n_vertices
    e = len(mesh.facet_v)
    f = mesh.n_triangles
    assert v - e + f == 1


def test_x_coordinate_split():
    N, tau = 8, F(3, 50)
    mesh = build_shishkin(N, tau)
    xs = sorted({v[0] for v in mesh.vertices})
    fine = [x for x in xs if x <= tau]
    coarse = [x for x in xs if x >= tau]
    assert len(fine) == N // 2 + 1
    assert len(coarse) == N // 2 + 1
    assert tau in xs


def test_all_elements_right_angled():
    for eps in (1e-1, 1e-2, 1e-3, 1e-4):
        tau = transition_point(eps)
        mesh = build_shishkin(4, tau)
        for t in range(mesh.n_triangles):
            pts = triangle_points(mesh, t)
            s = Simplex(tuple(tuple(float(c) for c in p) for p in pts))
            assert abs(max_angle(s) - math.pi / 2) < 1e-12


def test_layer_elements_thin_toward_inflow():
    # inside the layer the short direction is normal to {x1 = 0}
    mesh = build_shishkin(8, F(3, 50))
    tau = F(3, 50)
    for t in range(mesh.n_triangles):
        pts = triangle_points(mesh, t)
        if max(p[0] for p in pts) <= tau:
            width = max(p[0] for p in pts) - min(p[0] for p in pts)
            height = max(p[1] for p in pts) - min(p[1] for p in pts)
            assert width < height


def test_uniform_counts():
    assert build_uniform(4).n_triangles == 32
    assert build_uniform(4).n_vertices == 25


@pytest.mark.parametrize("N", [2, 6, 10, 64])
def test_float_uniform_mesh_rounds_the_exact_one(N):
    # the Stokes study's uniform mesh: the floats nearest the exact
    # vertices, with the same topology and aspect ratio
    exact, rounded = build_uniform(N), build_uniform(N, exact=False)
    assert rounded.vertices == [(float(x), float(y)) for x, y in exact.vertices]
    assert rounded.triangles == exact.triangles
    for key in ("facet_v", "facet_left", "facet_right", "tri_facets"):
        assert np.array_equal(getattr(rounded, key), getattr(exact, key))
    assert mesh_aspect_ratio(rounded) == mesh_aspect_ratio(exact)


def test_fig6_mesh():
    mesh = build_shishkin(8, F(3, 50))
    assert mesh.n_triangles == 128
    assert abs(mesh_aspect_ratio(mesh) - 8.93) < 0.05


def test_odd_n_rejected():
    with pytest.raises(ValueError):
        build_shishkin(5, F(3, 50))


def test_facet_structure():
    mesh = build_uniform(2)
    n_facets = len(mesh.facet_v)
    assert mesh.facet_v.shape == (n_facets, 2)
    assert mesh.facet_left.shape == mesh.facet_right.shape == (n_facets,)
    assert np.all(mesh.facet_left >= 0)
    assert np.count_nonzero(mesh.facet_right < 0) == 8
    assert n_facets == 16          # 3 N^2 + 2 N edges


def test_mesh_text_roundtrip_bit_exact():
    mesh = build_shishkin(4, F(3, 50))
    text = mesh_to_text(mesh)
    back = mesh_from_text(text)
    assert mesh_to_text(back) == text
    assert back.vertices == mesh.vertices
    assert back.triangles == mesh.triangles


def test_mesh_text_roundtrip_float():
    mesh = build_shishkin(4, transition_point(0.01))
    text = mesh_to_text(mesh)
    back = mesh_from_text(text)
    assert mesh_to_text(back) == text


# sha256 of `mesh_to_text`, recorded while the exact and the float
# abscissae were computed by two branches of `_x_coordinates`
MESH_TEXT_SHA256 = [
    (lambda: build_shishkin(8, F(3, 50)),
     "02564f673f2bd51313ceccbdabe65a3fe8a4b2af2590654a56f707dbe756df83"),
    (lambda: build_shishkin(16, transition_point(0.1)),
     "2b6cdec613409957a76afbae23f7604f64e0f6c2060953ee265ff7cb320a067d"),
    (lambda: build_uniform(8),
     "91a5c5bb8930107a894b9df2955a787e6252058ca44d5b354d842752836bb41e"),
    (lambda: build_uniform(8, exact=False),
     "d1078904be0bb79b5fb6fb2ee021abc06b22e5dbfc92d80a3f3578cad18ef6a4"),
]


@pytest.mark.parametrize("build, sha256", MESH_TEXT_SHA256)
def test_mesh_text_is_pinned(build, sha256):
    text = mesh_to_text(build())
    assert hashlib.sha256(text.encode()).hexdigest() == sha256


def _same_vertices(a, b):
    """Equal values of equal types (a Fraction equals the float it rounds
    to, so `==` alone does not tell an exact read from a float one)."""
    return a == b and [type(x) for v in a for x in v] == [
        type(x) for v in b for x in v]


taus = st.one_of(
    st.fractions(min_value=F(1, 1000), max_value=F(999, 1000),
                 max_denominator=1000),
    st.floats(min_value=1e-6, max_value=0.999))


@settings(max_examples=40, deadline=None)
@given(N=st.sampled_from([2, 4, 6, 8]), tau=taus, uniform=st.booleans())
def test_mesh_text_roundtrip_is_exact(N, tau, uniform):
    mesh = (build_uniform(N) if uniform
            else build_shishkin(N, tau))
    text = mesh_to_text(mesh)
    back = mesh_from_text(text)
    assert _same_vertices(back.vertices, mesh.vertices)
    assert back.triangles == mesh.triangles
    for name in ("facet_v", "facet_left", "facet_right", "tri_facets"):
        assert np.array_equal(getattr(back, name), getattr(mesh, name))
    assert mesh_to_text(back) == text


def test_mesh_text_integer_tokens_are_exact():
    back = mesh_from_text("2 4 2\n0 0\n1 0\n0 1\n1 1\n0 1 3\n0 3 2\n")
    assert _same_vertices(back.vertices, [(F(0), F(0)), (F(1), F(0)),
                                          (F(0), F(1)), (F(1), F(1))])
    assert sum(triangle_area(back, t) for t in range(2)) == 1
