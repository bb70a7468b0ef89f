"""Simplices, facet normals, angle/regular-vertex diagnostics and affine
maps, plus the constructive classification onto the two axis-aligned
reference families of anisotropic elements.

Coordinates are Fractions: a float becomes the shortest decimal that
rounds to it, the one its `repr` prints.  Scaled facet normals, charts
and volumes are exact; only edge lengths and directions that are not
rational fall back to floats.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations
from typing import Optional

import numpy as np


DEFAULT_RVP_THRESHOLD = 0.1
COND_CAP = 100.0


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


def _norm_inf_matrix(m):
    return max(sum(abs(float(x)) for x in row) for row in m)


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

    @property
    def orientation(self):
        det = self.edge_det()
        return 1 if det > 0 else -1

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

    def norm_inf(self):
        return _norm_inf_matrix(self.matrix)


@dataclass
class RegularityReport:
    """Diagnostics of one element: angles, best regular-vertex determinant,
    and (after classification) the reference-family data."""

    max_angle: float
    rvp_best: float
    regular_vertex: Optional[int]
    family: Optional[str] = None
    size_params: tuple = ()
    directions: tuple = ()
    map: Optional[AffineMap] = None
    map_norm_inf: Optional[float] = None
    inverse_norm_inf: Optional[float] = None
    cond_product: Optional[float] = None
    reference_vertices: tuple = ()
    role_of_vertex: tuple = ()
    simplex: Optional[Simplex] = None


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


def _sqrt_or_float(x):
    """Square root of a Fraction, kept exact for perfect rational squares."""
    rn = math.isqrt(x.numerator)
    rd = math.isqrt(x.denominator)
    if rn * rn == x.numerator and rd * rd == x.denominator:
        return Fraction(rn, rd)
    return math.sqrt(float(x))


def _unit_vector(e, length):
    """e / length: exact for a rational length, floats for an irrational
    (float) one."""
    return tuple(x / length for x in e)


def _vertex_direction_data(s, k):
    """Unit outgoing edge directions from vertex k and the edge lengths,
    ordered by target vertex index; also |det N_k| squared, exact.  Lengths
    and directions stay rational whenever the edge lengths are perfect
    rational squares."""
    pk = s.vertices[k]
    others = [j for j in range(s.dim + 1) if j != k]
    edges = [_sub(s.vertices[j], pk) for j in others]
    len_sq = [_dot(e, e) for e in edges]
    det_e = _det([[edges[c][r] for c in range(s.dim)] for r in range(s.dim)])
    det_sq = det_e * det_e
    prod_sq = 1
    for ls in len_sq:
        prod_sq = prod_sq * ls
    rvp_sq = det_sq / prod_sq
    lengths = [_sqrt_or_float(ls) for ls in len_sq]
    dirs = [_unit_vector(e, h) for e, h in zip(edges, lengths)]
    return others, lengths, dirs, rvp_sq


def rvp_report(s: Simplex) -> RegularityReport:
    """Best |det N_k| over vertices; ties broken by lowest vertex index."""
    data = [_vertex_direction_data(s, k) for k in range(s.dim + 1)]
    # the largest rvp_sq; max keeps the first, so ties go to the lowest index
    best_k = max(range(s.dim + 1), key=lambda k: data[k][3])
    _, lengths, dirs, best_sq = data[best_k]
    return RegularityReport(
        max_angle=max_angle(s),
        rvp_best=math.sqrt(float(best_sq)),
        regular_vertex=best_k,
        size_params=tuple(lengths),
        directions=tuple(dirs),
        simplex=s,
    )


def _candidate(s, perm, ref_roles, cols, sizes):
    """Map a reference family onto s: J has the unit columns `cols`, and
    physical vertex perm[r] takes role r, at reference vertex ref_roles[r]."""
    d = s.dim
    J = tuple(tuple(cols[c][r] for c in range(d)) for r in range(d))
    amap = AffineMap(J, s.vertices[perm[0]])
    roles = tuple(perm.index(i) for i in range(d + 1))
    ref = tuple(ref_roles[r] for r in roles)
    cond = amap.norm_inf() * amap.inverse().norm_inf()
    return amap, tuple(sizes), tuple(cols), ref, roles, cond


def _t1_candidate(s, anchor):
    """Map the first reference family onto s with the anchor vertex at the
    origin role: J columns are the unit edge directions."""
    others, lengths, dirs, _ = _vertex_direction_data(s, anchor)
    d = s.dim
    zero = Fraction(0)
    ref_roles = [(zero,) * d] + [
        tuple(h if c == m else zero for c in range(d))
        for m, h in enumerate(lengths)]
    return _candidate(s, [anchor] + others, ref_roles, dirs, lengths)


def _t2_candidate(s, perm):
    """Map the second family {0, h1 e1 + h2 e2, h2 e2, h3 e3} onto s with
    physical vertex perm[r] in role r."""
    p = [s.vertices[i] for i in perm]
    edges = (_sub(p[1], p[2]), _sub(p[2], p[0]), _sub(p[3], p[0]))
    hs = [_sqrt_or_float(_dot(e, e)) for e in edges]
    h1, h2, h3 = hs
    cols = [_unit_vector(e, h) for e, h in zip(edges, hs)]
    zero = Fraction(0)
    ref_roles = [(zero, zero, zero), (h1, h2, zero), (zero, h2, zero), (zero, zero, h3)]
    return _candidate(s, perm, ref_roles, cols, hs)


def classify_to_reference_family(
    s: Simplex,
    rvp_threshold: float = DEFAULT_RVP_THRESHOLD,
) -> RegularityReport:
    """Pick a reference-family element and an affine map onto s.

    An element with a good regular vertex goes to the first family with the
    regular-vertex edge lengths as size parameters.  Otherwise every vertex
    ordering of the second family (d=3) or first family (d=2) is tried and
    the ordering with the smallest ||J||_inf ||J^-1||_inf wins; above
    COND_CAP the element is declared unclassifiable (family None).
    """
    report = rvp_report(s)
    if report.rvp_best >= rvp_threshold:
        fam = "T1"
        amap, lengths, dirs, ref, roles, cond = _t1_candidate(s, report.regular_vertex)
    else:
        if s.dim == 2:
            candidates = [("T1",) + _t1_candidate(s, a) for a in range(3)]
        else:
            candidates = [("T2",) + _t2_candidate(s, perm)
                          for perm in permutations(range(4))]
        fam, amap, lengths, dirs, ref, roles, cond = min(
            candidates, key=lambda c: c[-1])
    report.size_params = lengths
    report.directions = dirs
    report.map = amap
    report.map_norm_inf = amap.norm_inf()
    report.inverse_norm_inf = amap.inverse().norm_inf()
    report.cond_product = cond
    report.reference_vertices = ref
    report.role_of_vertex = roles
    report.family = fam if cond <= COND_CAP else None
    return report


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
