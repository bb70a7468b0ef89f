"""Simplices, affine maps, facet normals and the maximum angle, and the
text format of a simplex file.

Coordinates are Fractions: a float becomes the shortest decimal that
rounds to it, the one its `repr` prints.  Scaled facet normals, charts
and volumes are exact; the diameter, unit normals and angles are floats.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

import numpy as np


class DegenerateSimplexError(ValueError):
    """Simplex with (near-)zero volume."""


def _as_number(x):
    """x as a Fraction; a float (numpy's included) as the decimal its repr
    prints, and nan or inf raise ValueError."""
    if isinstance(x, (int, np.integer)):
        return Fraction(int(x))
    if isinstance(x, Fraction):
        return x
    return Fraction(repr(float(x)))


def _det(m):
    n = len(m)
    if n == 1:
        return m[0][0]
    if n == 2:
        return m[0][0] * m[1][1] - m[0][1] * m[1][0]
    if n == 3:
        return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
                - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
                + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))
    raise ValueError("only dimensions 1-3 supported")


def _adjugate(m):
    """adj(m), with m adj(m) == det(m) I: cofactor (j, i) at (i, j)."""
    n = len(m)
    return [[(-1) ** (i + j) * _det([[m[r][c] for c in range(n) if c != i]
                                     for r in range(n) if r != j])
             for j in range(n)] for i in range(n)]


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def _sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


@dataclass(frozen=True)
class Simplex:
    """Triangle (dim 2) or tetrahedron (dim 3); facet e_i is opposite
    vertex p_i, with vertices indexed from 0."""

    vertices: tuple

    def __post_init__(self):
        verts = tuple(tuple(_as_number(x) for x in v) for v in self.vertices)
        object.__setattr__(self, "vertices", verts)
        d = len(verts[0]) if verts else 0
        if d not in (2, 3):
            raise ValueError("dim must be 2 or 3")
        if len(verts) != d + 1:
            raise ValueError(f"need {d + 1} vertices for dim {d}")
        if any(len(v) != d for v in verts):
            raise ValueError(f"every vertex needs {d} coordinates")
        if self.edge_det() == 0:
            raise DegenerateSimplexError("simplex has zero volume")

    @property
    def dim(self):
        return len(self.vertices[0])

    def edge_matrix(self):
        """Columns p_i - p_0, i = 1..d."""
        p0 = self.vertices[0]
        cols = [_sub(v, p0) for v in self.vertices[1:]]
        return [[cols[j][i] for j in range(self.dim)] for i in range(self.dim)]

    def edge_det(self):
        return _det(self.edge_matrix())

    def chart(self):
        """Affine map (A, b) with reference simplex -> self, x = A t + b."""
        return self.edge_matrix(), self.vertices[0]

    def diameter(self):
        return max(
            math.sqrt(float(_dot(_sub(a, b), _sub(a, b))))
            for a, b in combinations(self.vertices, 2)
        )

    def facet_vertex_ids(self, i):
        return [j for j in range(self.dim + 1) if j != i]

    def facet_chart(self, i):
        """Chart of facet e_i from the reference (d-1)-simplex.

        Spanned by edge vectors from the facet's lowest-index vertex; returns
        (matrix with d rows and d-1 columns, origin point).
        """
        ids = self.facet_vertex_ids(i)
        origin = self.vertices[ids[0]]
        cols = [_sub(self.vertices[j], origin) for j in ids[1:]]
        matrix = [[cols[c][r] for c in range(len(cols))] for r in range(self.dim)]
        return matrix, origin

    def scaled_facet_normal(self, i):
        """Outward normal of e_i scaled so that, with the facet chart,
        int_{e_i} v . nhat z ds  ==  int_{ref} (v o chart) . m z dt  exactly."""
        matrix, origin = self.facet_chart(i)
        if self.dim == 2:
            u = [matrix[0][0], matrix[1][0]]
            m = (u[1], -u[0])
        else:
            u = [matrix[r][0] for r in range(3)]
            w = [matrix[r][1] for r in range(3)]
            m = (u[1] * w[2] - u[2] * w[1],
                 u[2] * w[0] - u[0] * w[2],
                 u[0] * w[1] - u[1] * w[0])
        # orient away from the opposite vertex
        if _dot(_sub(origin, self.vertices[i]), m) < 0:
            m = tuple(-x for x in m)
        return m


@lru_cache(maxsize=None)
def reference_simplex(dim):
    """The unit right simplex with the slant facet opposite the origin
    vertex (origin listed last, matching e_i-opposite-p_i numbering).  A
    Simplex is frozen, so one instance per dim is shared."""
    if dim == 2:
        return Simplex(((1, 0), (0, 1), (0, 0)))
    return Simplex(((1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 0)))


@lru_cache(maxsize=None)
def t_bar_simplex():
    """The sheared reference tetrahedron of the second family (h = 1),
    shared as `reference_simplex` is."""
    return Simplex(((0, 0, 0), (1, 1, 0), (0, 1, 0), (0, 0, 1)))


@dataclass(frozen=True)
class AffineMap:
    """x = J xtilde + x0, with Fraction entries read as for `Simplex`."""

    matrix: tuple
    offset: tuple

    def __post_init__(self):
        object.__setattr__(self, "matrix",
                           tuple(tuple(_as_number(x) for x in r) for r in self.matrix))
        object.__setattr__(self, "offset",
                           tuple(_as_number(x) for x in self.offset))
        if self.det() == 0:
            raise ValueError("affine map must be nonsingular")

    @property
    def dim(self):
        return len(self.offset)

    def det(self):
        return _det(self.matrix)

    def apply(self, point):
        return tuple(
            sum(self.matrix[i][j] * point[j] for j in range(self.dim))
            + self.offset[i]
            for i in range(self.dim)
        )

    def inverse(self):
        det = self.det()
        inv = [[x / det for x in row] for row in _adjugate(self.matrix)]
        ioff = [-sum(inv[i][j] * self.offset[j] for j in range(self.dim))
                for i in range(self.dim)]
        return AffineMap(tuple(tuple(r) for r in inv), tuple(ioff))



def facet_normals(s: Simplex):
    """Unit outward normals, ordered by opposite-vertex index (floats)."""
    out = []
    for i in range(s.dim + 1):
        m = np.array([float(x) for x in s.scaled_facet_normal(i)])
        out.append(m / np.linalg.norm(m))
    return out


def _angles_of_triangle(pts):
    angles = []
    for i in range(3):
        a = np.array(pts[i], dtype=float)
        b = np.array(pts[(i + 1) % 3], dtype=float)
        c = np.array(pts[(i + 2) % 3], dtype=float)
        u, w = b - a, c - a
        cosv = np.dot(u, w) / (np.linalg.norm(u) * np.linalg.norm(w))
        angles.append(math.acos(max(-1.0, min(1.0, cosv))))
    return angles


def max_angle(s: Simplex):
    """Largest interior angle: for d=2 the vertex angles; for d=3 the
    dihedral angles between facets (pi - arccos(n_a . n_b) from outward
    normals) together with the planar angles inside each facet."""
    if s.dim == 2:
        pts = [[float(x) for x in v] for v in s.vertices]
        return max(_angles_of_triangle(pts))
    normals = facet_normals(s)
    worst = 0.0
    for a, b in combinations(range(4), 2):
        cosv = float(np.dot(normals[a], normals[b]))
        dihedral = math.pi - math.acos(max(-1.0, min(1.0, cosv)))
        worst = max(worst, dihedral)
    for i in range(4):
        ids = s.facet_vertex_ids(i)
        pts = [[float(x) for x in s.vertices[j]] for j in ids]
        worst = max(worst, max(_angles_of_triangle(pts)))
    return worst


def read_simplex(path) -> Simplex:
    with open(path) as fh:
        return simplex_from_text(fh.read())


def simplex_from_text(text) -> Simplex:
    verts = []
    for line in text.strip().splitlines():
        if not line.strip():
            continue
        verts.append(tuple(coord_from_token(tok) for tok in line.split()))
    return Simplex(tuple(verts))


def coord_to_token(x):
    """`p/q` for a rational or an int, `repr` for a float: the tokens
    `coord_from_token` reads back exactly."""
    if isinstance(x, (Fraction, int)):
        x = Fraction(x)
        return f"{x.numerator}/{x.denominator}"
    return repr(float(x))


def coord_from_token(tok):
    """Rationals (`p/q`) and integers are exact; anything else is a float.
    A zero denominator raises ValueError."""
    if "/" in tok:
        num, den = tok.split("/")
        if int(den) == 0:
            raise ValueError(f"zero denominator in {tok!r}")
        return Fraction(int(num), int(den))
    try:
        return Fraction(int(tok))
    except ValueError:
        return float(tok)
