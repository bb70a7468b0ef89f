"""Facet topology of uniform and Shishkin meshes under random vertex
relabelling and random vertex order within each triangle."""

import collections
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bdmlab.linalg import over_common_denominator
from bdmlab.shishkin import Mesh2D, build_shishkin, build_uniform
from bdmlab.stokes import DGSpace


@st.composite
def base_meshes(draw):
    if draw(st.booleans()):
        N = draw(st.sampled_from([2, 4, 6]))
        return N, build_uniform(N)
    N = draw(st.sampled_from([2, 4, 6]))
    tau = draw(st.one_of(
        st.builds(Fraction, st.integers(1, 9), st.just(20)),
        st.floats(0.01, 0.49)))
    return N, build_shishkin(N, tau)


@st.composite
def scrambled_meshes(draw):
    """A base mesh with its vertices relabelled and each triangle's vertex
    order rotated or reversed; facets rebuilt from scratch."""
    N, mesh = draw(base_meshes())
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    perm = list(range(mesh.n_vertices))
    rng.shuffle(perm)
    vertices = [None] * mesh.n_vertices
    for old, new in enumerate(perm):
        vertices[new] = mesh.vertices[old]
    triangles = []
    for tri in mesh.triangles:
        tri = [perm[v] for v in tri]
        r = rng.randrange(3)
        tri = tri[r:] + tri[:r]
        if rng.random() < 0.5:
            tri.reverse()
        triangles.append(tuple(tri))
    return N, Mesh2D(vertices, triangles).build_facets()


def _side(mesh, f, t):
    """(other vertex - p0) . (t_y, -t_x) for facet f: negative when the
    facet normal points out of triangle t."""
    v0, v1 = mesh.facet_v[f]
    (x0, y0), (x1, y1) = mesh.vertices[v0], mesh.vertices[v1]
    other = next(v for v in mesh.triangles[t] if v not in (v0, v1))
    xo, yo = mesh.vertices[other]
    return (xo - x0) * (y1 - y0) - (yo - y0) * (x1 - x0)


@settings(max_examples=40, deadline=None)
@given(scrambled_meshes())
def test_facet_topology(case):
    N, mesh = case
    keys = [tuple(k) for k in mesh.facet_v.tolist()]
    assert keys == sorted(keys) and len(set(keys)) == len(keys)
    assert all(v0 < v1 for v0, v1 in keys)
    slots = collections.Counter()
    for f, ((v0, v1), left, right) in enumerate(zip(
            keys, mesh.facet_left.tolist(), mesh.facet_right.tolist())):
        slots[(left, v0, v1)] += 1
        if right < 0:
            # a lone triangle takes the left slot whichever way the key
            # orders the edge, so the normal may point either way here
            assert _side(mesh, f, left) != 0
        else:
            assert _side(mesh, f, left) < 0 < _side(mesh, f, right)
            slots[(right, v0, v1)] += 1
    edges = collections.Counter(
        (t, min(a, b), max(a, b))
        for t, tri in enumerate(mesh.triangles)
        for a, b in zip(tri, tri[1:] + tri[:1]))
    assert slots == edges and set(edges.values()) == {1}
    assert np.count_nonzero(mesh.facet_right < 0) == 4 * N
    # each triangle's three facets, ascending
    expected = [sorted(keys.index((min(a, b), max(a, b)))
                       for a, b in zip(tri, tri[1:] + tri[:1]))
                for tri in mesh.triangles]
    assert mesh.tri_facets.tolist() == expected


@pytest.mark.parametrize("triangles", [
    [(0, 1, 2), (0, 1, 2)],               # the same triangle twice
    [(0, 1, 2), (1, 0, 3), (0, 1, 4)],    # three triangles on one edge
])
def test_non_conforming_mesh_rejected(triangles):
    vertices = [(0, 0), (1, 0), (0, 1), (0, -1), (1, 1)]
    with pytest.raises(ValueError, match="non-conforming"):
        Mesh2D(vertices, triangles).build_facets()


def _fraction_oracle(mesh):
    """(facet_left, facet_right) from one Fraction orientation test per
    triangle: a triangle is the left one of an edge it traverses along the
    key when it is counter-clockwise, else the right one; a lone triangle
    is the left one."""
    sides = collections.defaultdict(lambda: [-1, -1])
    for t, tri in enumerate(mesh.triangles):
        (xa, ya), (xb, yb), (xc, yc) = (
            [Fraction(c) for c in mesh.vertices[v]] for v in tri)
        ccw = (xb - xa) * (yc - ya) - (xc - xa) * (yb - ya) > 0
        for a, b in zip(tri, tri[1:] + tri[:1]):
            sides[min(a, b), max(a, b)][(a < b) != ccw] = t
    pairs = [sides[key] for key in sorted(sides)]
    return ([r if l < 0 else l for l, r in pairs],
            [-1 if l < 0 else r for l, r in pairs])


big = st.integers(2 ** 64, 2 ** 66)


@st.composite
def rational_images(draw):
    """A scrambled mesh under a rational affine map with denominators
    above 2^64, so the vertices over one common denominator need far more
    than 63 bits; the map may reverse the orientation."""
    N, mesh = draw(scrambled_meshes())
    a, b, c, d, e, f = (Fraction(draw(st.sampled_from([-1, 1])) * draw(big),
                                 draw(big)) for _ in range(6))
    assume(a * d != b * c)
    vertices = [(a * Fraction(x) + b * Fraction(y) + e,
                 c * Fraction(x) + d * Fraction(y) + f)
                for x, y in mesh.vertices]
    return N, Mesh2D(vertices, mesh.triangles)


@settings(max_examples=30, deadline=None)
@given(rational_images())
def test_orientation_exact_beyond_int64(case):
    _, mesh = case
    nums, den = over_common_denominator(c for v in mesh.vertices for c in v)
    assert den > 2 ** 63 and max(abs(n) for n in nums) > 2 ** 63
    mesh.build_facets()
    left, right = _fraction_oracle(mesh)
    assert mesh.facet_left.tolist() == left
    assert mesh.facet_right.tolist() == right
    with pytest.raises(ValueError, match="non-conforming"):
        Mesh2D(mesh.vertices, mesh.triangles + mesh.triangles[:1]).build_facets()


def test_orientation_of_slivers_beyond_float_precision():
    # two slivers on either side of the edge (0, 1), thinner than a float
    # can resolve: in floats both look degenerate and land in one slot
    d = Fraction(1, 10 ** 30)
    third = Fraction(1, 3)
    vertices = [(0, 0), (third, third), (2 * third, 2 * third + d),
                (2 * third, 2 * third - d)]
    mesh = Mesh2D(vertices, [(0, 1, 2), (0, 1, 3)]).build_facets()
    left, right = _fraction_oracle(mesh)
    assert mesh.facet_left.tolist() == left and mesh.facet_right.tolist() == right
    # on the edge (0, 1), the counter-clockwise triangle 0 is the left one
    assert (mesh.facet_left[0], mesh.facet_right[0]) == (0, 1)


@settings(max_examples=20, deadline=None)
@given(scrambled_meshes())
def test_float_and_fraction_vertices_give_one_topology(case):
    # float meshes keep the float test; on their exact Fraction copies the
    # exact test agrees, and both match the oracle
    _, mesh = case
    exact = Mesh2D([tuple(Fraction(c) for c in v) for v in mesh.vertices],
                   mesh.triangles).build_facets()
    left, right = _fraction_oracle(mesh)
    for m in (mesh, exact):
        assert m.facet_left.tolist() == left and m.facet_right.tolist() == right


@settings(max_examples=20, deadline=None)
@given(scrambled_meshes())
def test_dgspace_topology_matches_facets(case):
    _, mesh = case
    space = DGSpace(mesh)
    right = mesh.facet_right.tolist()
    assert space.interior.tolist() == [i for i, r in enumerate(right) if r >= 0]
    assert space.boundary.tolist() == [i for i, r in enumerate(right) if r < 0]
    assert space.fixed_dofs.tolist() == [
        2 * i + j for i in space.boundary.tolist() for j in (0, 1)]
    # outward signs: the signed normal leaves the left triangle
    n = space.facet_n * space.facet_out_sign[:, None]
    rel = space.centers[space.facet_left] - space.facet_p0
    assert np.all(np.sum(rel * n, axis=1) < 0)


def _curl_p2(space, psi, tri, pts):
    """curl psi = (psi_y, -psi_x) of the P2 function with vertex values
    psi[:nv] and facet-midpoint values psi[nv:], on triangle tri[i] at
    point pts[i], from the barycentric form of the P2 basis."""
    nv = len(space.x)
    verts = space.tris[tri]                                   # (P, 3)
    M = np.ones((len(tri), 3, 3))
    M[:, 1:, :] = space.x[verts].transpose(0, 2, 1)            # rows 1, x, y
    coef = np.linalg.inv(M)                    # lambda_i = coef[i] . (1, x, y)
    lam = np.einsum("pij,pj->pi", coef, np.column_stack([np.ones(len(tri)), pts]))
    dlam = coef[:, :, 1:]                                     # (P, 3, 2)
    keys = {tuple(k): i for i, k in enumerate(space.facet_v.tolist())}
    grad = np.einsum("pi,pic->pc", psi[verts] * (4 * lam - 1), dlam)
    for i, j in ((0, 1), (1, 2), (0, 2)):
        a, b = verts[:, i], verts[:, j]
        mid = np.array([nv + keys[min(p, q), max(p, q)] for p, q in zip(a, b)])
        grad += 4 * psi[mid][:, None] * (lam[:, [i]] * dlam[:, j]
                                         + lam[:, [j]] * dlam[:, i])
    return np.column_stack([grad[:, 1], -grad[:, 0]])


@settings(max_examples=20, deadline=None)
@given(scrambled_meshes(), st.integers(0, 2 ** 32))
def test_curl_map_gives_edge_moments_of_curl(case, seed):
    # C psi must be the two normal moments of curl psi on every facet, seen
    # from either neighbour (curl psi is normal-continuous)
    _, mesh = case
    space = DGSpace(mesh)
    psi = np.random.default_rng(seed).standard_normal(space.curl.shape[1])
    n_gauss = 4
    for tris in (space.facet_left, space.facet_right):
        facets = np.flatnonzero(tris >= 0)
        owner = np.repeat(tris[facets], n_gauss)
        moments = space.edge_moments(
            lambda pts: _curl_p2(space, psi, owner, pts), facets, n_gauss)
        dofs = np.column_stack([2 * facets, 2 * facets + 1]).ravel()
        assert np.max(np.abs((space.curl @ psi)[dofs] - moments)) <= 1e-13 * max(
            1.0, np.max(np.abs(moments)))
