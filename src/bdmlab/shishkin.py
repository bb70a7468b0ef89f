"""Piecewise-uniform layer-adapted (and uniform) triangulations of the unit
square, with transition-point and aspect-ratio diagnostics.

Coordinates are kept as exact rationals whenever the transition point is
rational, so the total mesh area is exactly 1 in that mode.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .geometry import coord_to_token
from .linalg import over_common_denominator


def transition_point(eps, convention="natural"):
    """tau = min(1/2, 3 eps |log eps|), with the log base configurable.

    Returns an exact Fraction in base-10 mode when eps is an exact negative
    power of ten, a float otherwise.
    """
    eps_f = float(eps)
    if not 0 < eps_f < 1:
        raise ValueError("eps must lie in (0, 1)")
    if convention == "natural":
        tau = 3 * eps_f * abs(math.log(eps_f))
        return min(0.5, tau)
    if convention == "base10":
        fr = Fraction(eps).limit_denominator(10 ** 15)
        if fr.numerator == 1 and _is_power_of_ten(fr.denominator):
            exponent = round(math.log10(fr.denominator))
            tau = 3 * fr * exponent
            return min(Fraction(1, 2), tau)
        tau = 3 * eps_f * abs(math.log10(eps_f))
        return min(0.5, tau)
    raise ValueError(f"unknown log convention {convention!r}")


def _is_power_of_ten(n):
    while n % 10 == 0:
        n //= 10
    return n == 1


def aspect_ratio(tau):
    """Closed-form aspect ratio of the layer-column right triangles:
    sqrt(1 + 4 tau^2) / (1 + 2 tau - sqrt(1 + 4 tau^2)), with the
    denominator as 2 tau - 4 tau^2 / (1 + sqrt(1 + 4 tau^2)), which does
    not cancel for small tau."""
    t = float(tau)
    if not 0 < t < 1:
        raise ValueError("tau must lie in (0, 1)")
    root = math.sqrt(1.0 + 4.0 * t * t)
    return root / (2.0 * t - 4.0 * t * t / (1.0 + root))


@dataclass(eq=False)
class Mesh2D:
    """Vertices and triangles, plus the facet topology `build_facets`
    fills in: `facet_v` (F, 2) holds the vertex keys v0 < v1, sorted;
    `facet_left` and `facet_right` the incident triangles (`facet_right`
    is -1 on the boundary); `tri_facets` (T, 3) each triangle's facets,
    ascending."""
    vertices: list
    triangles: list
    facet_v: np.ndarray = None
    facet_left: np.ndarray = None
    facet_right: np.ndarray = None
    tri_facets: np.ndarray = None

    @property
    def n_vertices(self):
        return len(self.vertices)

    @property
    def n_triangles(self):
        return len(self.triangles)

    def build_facets(self):
        """Unique edges, sorted by vertex key, with their incident
        triangles; left = the triangle for which the edge normal
        (t_y, -t_x) points outward, or the only one on the boundary.

        A triangle is the left one of an edge it traverses along the key
        when it is counter-clockwise, and of one it traverses against the
        key when it is clockwise.  The orientation test is one array
        expression: rational vertices as Python ints over one common
        denominator (object arrays, exact at any size), float ones as
        floats."""
        coords = [c for v in self.vertices for c in v]
        exact = all(isinstance(c, (Fraction, int)) for c in coords)
        if exact:
            coords, _ = over_common_denominator(coords)
        tails = np.array(self.triangles, dtype=np.int64).reshape(-1, 3)
        pts = np.array(coords, dtype=object if exact else float).reshape(-1, 2)
        (xa, ya), (xb, yb), (xc, yc) = pts[tails].transpose(1, 2, 0)
        ccw = ((xb - xa) * (yc - ya) - (xc - xa) * (yb - ya) > 0).astype(bool)
        heads = np.roll(tails, -1, axis=1)
        nv = self.n_vertices
        keys, facet_of = np.unique(
            np.minimum(tails, heads) * nv + np.maximum(tails, heads),
            return_inverse=True)
        # slot 2 f is the left side of facet f, slot 2 f + 1 the right one
        slots = 2 * facet_of.ravel() + ((tails < heads) != ccw[:, None]).ravel()
        if np.bincount(slots).max(initial=0) > 1:
            raise ValueError("non-conforming mesh")
        owner = np.full(2 * len(keys), -1, dtype=np.int64)
        owner[slots] = np.repeat(np.arange(self.n_triangles), 3)
        left, right = owner.reshape(-1, 2).T
        self.facet_v = np.column_stack([keys // nv, keys % nv])
        self.facet_left = np.where(left < 0, right, left)
        self.facet_right = np.where(left < 0, -1, right)
        self.tri_facets = np.sort(facet_of.reshape(-1, 3), axis=1)
        return self


def _x_coordinates(N, tau):
    """Piecewise-uniform abscissae: N/2+1 points in [0, tau], N/2+1 in
    [tau, 1] sharing the transition point, of the type of tau."""
    half = N // 2
    xs = [tau * 2 * i / N for i in range(half + 1)]
    for i in range(half + 1, N + 1):
        step = (1 - tau) * 2 * (i - half) / N
        xs.append(tau + step)
    return xs


def build_shishkin(N: int, tau) -> Mesh2D:
    """Tensor grid with the layer-graded x direction, transition point tau
    (a Fraction or a float), each rectangle split along the lower-left to
    upper-right diagonal."""
    if N < 2 or N % 2:
        raise ValueError("N must be even and >= 2")
    exact = isinstance(tau, (Fraction, int))
    ys = [Fraction(j, N) if exact else j / N for j in range(N + 1)]
    return _tensor_mesh(_x_coordinates(N, tau), ys)


def build_uniform(N: int, exact=True) -> Mesh2D:
    """Uniform grid, split like `build_shishkin`'s: vertices (i/N, j/N) as
    Fractions, or with exact=False as the floats nearest them, which the
    orientation test of `build_facets` and the float conversions of the
    Stokes code take without Fraction arithmetic."""
    if N < 2 or N % 2:
        raise ValueError("N must be even and >= 2")
    coords = [Fraction(i, N) if exact else i / N for i in range(N + 1)]
    return _tensor_mesh(coords, coords)


def _tensor_mesh(xs, ys):
    """The grid xs x ys, each rectangle split along the lower-left to
    upper-right diagonal, with its facets."""
    n = len(xs)
    vertices = [(x, y) for y in ys for x in xs]
    triangles = []
    for j in range(len(ys) - 1):
        for i in range(n - 1):
            ll, lr = j * n + i, j * n + i + 1
            ul, ur = ll + n, lr + n
            triangles.append((ll, lr, ur))
            triangles.append((ll, ur, ul))
    return Mesh2D(vertices, triangles).build_facets()


def mesh_aspect_ratio(mesh: Mesh2D):
    """Max elementwise longest-edge / (2 inradius), as one array expression
    over the float vertices.  The area is half the cross product of two
    edge vectors: Heron's formula cancels on the thin layer triangles
    (2e-6 relative at eps = 1e-12).  The edge lengths come from
    `math.hypot` as a ufunc: it rounds like the `math.dist` of a
    per-triangle evaluation, where `np.hypot` can differ in the last
    place."""
    pts = np.array(mesh.vertices, dtype=float)[np.array(mesh.triangles)]
    d = pts - np.roll(pts, -1, axis=1)                  # (T, 3, 2) edge vectors
    hypot = np.frompyfunc(math.hypot, 2, 1)
    a, b, c = hypot(d[..., 0], d[..., 1]).astype(float).T
    s = 0.5 * (a + b + c)
    area = 0.5 * np.abs(d[:, 0, 0] * d[:, 1, 1] - d[:, 0, 1] * d[:, 1, 0])
    return float(np.max(np.maximum(np.maximum(a, b), c) / (2.0 * (area / s))))


# ---------------------------------------------------------------------------
# text format: "dim nv nt", vertex lines, then 0-based triangle lines

def write_mesh(mesh: Mesh2D, path):
    with open(path, "w") as fh:
        fh.write(mesh_to_text(mesh))


def mesh_to_text(mesh: Mesh2D):
    lines = [f"2 {mesh.n_vertices} {mesh.n_triangles}"]
    for x, y in mesh.vertices:
        lines.append(f"{coord_to_token(x)} {coord_to_token(y)}")
    for a, b, c in mesh.triangles:
        lines.append(f"{a} {b} {c}")
    return "\n".join(lines) + "\n"

