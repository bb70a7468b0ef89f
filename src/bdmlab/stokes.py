"""Symmetric interior penalty DG discretization of steady Stokes with
lowest-order H(div)-conforming velocities and piecewise-constant pressures,
plus the boundary-layer manufactured solution and the convergence study.

The velocity space shares the two normal-moment DOFs of every edge between
its neighbours (one global edge orientation), which makes the discrete
velocity normal-continuous and, combined with the elementwise mass
constraint, exactly divergence-free.  The normal component of the Dirichlet
datum is imposed strongly through the boundary-edge DOFs; the tangential
part is enforced weakly by the interior-penalty terms.  Keeping the normal
trace strong is what preserves both the zero-mean pressure gauge and the
machine-zero elementwise divergence.  There is one Dirichlet path: zero data
go through the same lift and boundary stream function as any other.

Only the blocks of the saddle-point system are assembled (the velocity
form and the continuity rows), and the system is solved in the divergence-
free subspace: on the simply connected square the divergence-free BDM1
fields are exactly the curls of continuous P2 stream functions, so the
velocity comes from one SPD system in the stream function (half the
unknowns, no pressure, no pivoting), the only factorization of a solve:
a multifrontal Cholesky on a nested-dissection order of the stream-
function DOFs, whose fronts are dense blocks (`_StreamCholesky`).  Its
order, fronts and scatter maps depend only on the pattern of the matrix
and the grid lines of its DOFs, so they are analysed once per pattern
(`_SymbolicPlan`) and the last PLAN_CACHE patterns are kept: a study over
several eps at one N on the uniform mesh factors one pattern again.
The pressure follows from the momentum rows by one sparse triangular
solve along a spanning tree of the triangle adjacency.  Its only freedom
is an additive constant, so the zero-mean gauge is a shift after the
solve, and the system is never formed as one matrix.

No work runs per point or per facet in Python.  The manufactured fields
are evaluated by `eval_fields`, several at a time on one point set: dense
float coefficient arrays, sized by each field's degree in x and in y,
against power tables of x and y built once, with exp(-x/eps) computed
once.  The volume integrals (body force, errors) run over triangle
batches of at most QUAD_BATCH_POINTS quadrature points, and the facet
terms over batches of FACET_BATCH interior facets, as batched matmuls;
both bounds are sized to keep the temporaries in cache, so they stay
small whatever the mesh.
"""

import csv
import importlib
import math
from collections import OrderedDict
from dataclasses import dataclass
from fractions import Fraction
from types import ModuleType

import numpy as np

from .polynomials import Polynomial
from .quadrature import gauss_01, simplex_rule
from .shishkin import (Mesh2D, build_shishkin, build_uniform,
                       mesh_aspect_ratio, transition_point)


class _LazyModule(ModuleType):
    """The module of its name, imported on first use: only a space or a
    solve needs scipy (0.15-0.3 s and 30 MiB).  perfbench/tracing.py
    rebinds `spla`, a module-level name, to wrap `spsolve`."""

    def __getattr__(self, attr):
        return getattr(importlib.import_module(self.__name__), attr)


sp, spla = _LazyModule("scipy.sparse"), _LazyModule("scipy.sparse.linalg")


def penalty(sigma, convention="natural"):
    """Jump penalization gamma = 4 k^2 ceil(log sigma) for the degree k = 1
    of the velocity space; for sigma <= 1 the aspect-ratio bump is floored
    away."""
    if sigma <= 1:
        return 4
    val = math.log(sigma) if convention == "natural" else math.log10(sigma)
    return 4 * math.ceil(val)


# ---------------------------------------------------------------------------
# fields of the form  poly * exp(-x1/eps) + poly

class ExpPoly:
    """q_exp(x) * exp(-x1/eps) + q_plain(x); closed under differentiation,
    which is all the manufactured solution needs."""

    __slots__ = ("pexp", "pplain", "eps", "_dense")

    def __init__(self, pexp=None, pplain=None, eps=Fraction(1)):
        self.pexp = pexp if pexp is not None else Polynomial.zero(2)
        self.pplain = pplain if pplain is not None else Polynomial.zero(2)
        self.eps = eps
        self._dense = None

    def dense(self):
        """(c_exp, c_plain, float eps) for `eval_fields`: each part as a
        float array c[i, j] of the coefficients of x^i y^j, sized by its
        degree in x and in y (None for a zero part); built on first use."""
        if self._dense is None:
            self._dense = (*map(_dense_coefficients, (self.pexp, self.pplain)),
                           float(self.eps))
        return self._dense

    def diff(self, axis):
        pexp = self.pexp.diff(axis)
        if axis == 0:
            pexp = pexp - self.pexp * (1 / Fraction(self.eps))
        return ExpPoly(pexp, self.pplain.diff(axis), self.eps)

    def __add__(self, other):
        return ExpPoly(self.pexp + other.pexp, self.pplain + other.pplain, self.eps)

    def __mul__(self, scalar):
        return ExpPoly(self.pexp * scalar, self.pplain * scalar, self.eps)


def _dense_coefficients(poly):
    if not poly.terms:
        return None
    c = np.zeros((max(i for i, _ in poly.terms) + 1,
                  max(j for _, j in poly.terms) + 1))
    for (i, j), value in poly.terms.items():
        c[i, j] = float(value)
    return c


def eval_fields(fields, pts):
    """The values of ExpPoly fields at points (P, 2): (len(fields), P).

    Each polynomial part is the dense float array c[i, j] of `ExpPoly.dense`,
    sized by the part's degree in x and in y (the manufactured fields have
    total degree 8 but degree at most 4 in each variable).  The powers of x
    and y are built once, by repeated multiplication, as rows X[i] = x^i
    and Y[j] = y^j, and exp(-x/eps) once per eps, so a part costs one small
    matmul and a sum over rows: sum_j (c^T X)[j] * Y[j]."""
    pts = np.asarray(pts, dtype=float)
    x, y = pts[:, 0], pts[:, 1]
    dense = [f.dense() for f in fields]
    shapes = [c.shape for d in dense for c in d[:2] if c is not None]
    X = np.ones((max((m for m, _ in shapes), default=1), len(pts)))
    Y = np.ones((max((n for _, n in shapes), default=1), len(pts)))
    for powers, v in ((X, x), (Y, y)):
        for i in range(1, len(powers)):
            np.multiply(powers[i - 1], v, out=powers[i])

    def part(c):
        terms = c.T @ X[:len(c)]
        terms *= Y[:c.shape[1]]
        return terms.sum(axis=0)

    decay = {}
    vals = np.zeros((len(fields), len(pts)))
    for row, (c_exp, c_plain, eps) in zip(vals, dense):
        if c_exp is not None:
            if eps not in decay:
                decay[eps] = np.exp(-x / eps)
            row += part(c_exp) * decay[eps]
        if c_plain is not None:
            row += part(c_plain)
    return vals


@dataclass
class StokesCase:
    epsilon: float
    u: tuple           # (ExpPoly, ExpPoly)
    p: ExpPoly
    f: tuple           # (ExpPoly, ExpPoly)
    grad_u: tuple      # ((du1dx, du1dy), (du2dx, du2dy))
    pressure_mean: float

    def boundary_g(self, pts):
        """The exact velocity at points, (P, 2); on the boundary it is the
        Dirichlet datum (zero for `manufactured_case`, whose stream function
        has double zeros on the boundary)."""
        return eval_fields(self.u, pts).T


def manufactured_case(eps) -> StokesCase:
    """Boundary-layer stream-function solution on the unit square:
    xi = x^2 (1-x)^2 y^2 (1-y)^2 exp(-x/eps), u = curl xi, p = exp(-x/eps),
    f = -Lap u + grad p with viscosity nu = 1 (all derivatives exact in the
    coefficients)."""
    eps_fr = Fraction(eps).limit_denominator(10 ** 12)
    x = Polynomial.variable(2, 0)
    y = Polynomial.variable(2, 1)
    one = Polynomial.constant(2, Fraction(1))
    poly = (x ** 2) * ((one - x) ** 2) * (y ** 2) * ((one - y) ** 2)
    xi = ExpPoly(pexp=poly, eps=eps_fr)
    u1 = xi.diff(1)
    u2 = xi.diff(0) * (-1)
    p = ExpPoly(pexp=Polynomial.constant(2, Fraction(1)), eps=eps_fr)
    f = tuple(
        (ui.diff(0).diff(0) + ui.diff(1).diff(1)) * -1 + p.diff(i)
        for i, ui in enumerate((u1, u2))
    )
    grad = ((u1.diff(0), u1.diff(1)), (u2.diff(0), u2.diff(1)))
    e = float(eps_fr)
    mean = e * (1.0 - math.exp(-1.0 / e))  # integral of exp(-x/eps) over the square
    return StokesCase(epsilon=e, u=(u1, u2), p=p, f=f, grad_u=grad,
                      pressure_mean=mean)


# The contracts of every solve: relative residual of the saddle-point
# system, largest elementwise divergence and normal jump of the velocity.
RESIDUAL_BOUND = 1e-10
DIV_BOUND = 1e-12
JUMP_BOUND = 1e-12


def holds_contracts(row):
    """Whether a study row keeps all three bounds (NaN keeps none)."""
    return (row["residual"] <= RESIDUAL_BOUND and row["div_max"] <= DIV_BOUND
            and row["jump_max"] <= JUMP_BOUND)


# ---------------------------------------------------------------------------
# DG space: one pair of normal moments per edge + one pressure per triangle

class DGSpace:
    def __init__(self, mesh: Mesh2D):
        self.mesh = mesh
        self.x = np.array(mesh.vertices, dtype=float)
        self.tris = np.array(mesh.triangles, dtype=int)
        self.n_tri = len(mesh.triangles)
        # the facet topology of the mesh: vertex keys, the `left` triangle
        # and the `right` one (-1 on the boundary), each triangle's facets
        self.facet_v = mesh.facet_v
        self.facet_left = mesh.facet_left
        self.facet_right = mesh.facet_right
        self.tri_facets = mesh.tri_facets
        self.n_facets = len(mesh.facet_v)
        self.interior = np.flatnonzero(self.facet_right >= 0)
        self.boundary = np.flatnonzero(self.facet_right < 0)
        # the normal moments on boundary facets are fixed by the datum
        fixed = np.repeat(self.facet_right < 0, 2)
        self.free_dofs = np.flatnonzero(~fixed)
        self.fixed_dofs = np.flatnonzero(fixed)
        self._build_geometry()
        self._build_local_bases()
        self._build_curl()

    @property
    def ndof(self):
        """Edge-moment DOFs of every facet (the fixed boundary ones
        included) plus one pressure per triangle; the unknowns actually
        factorized are `stats["n_unknowns"]` of `solve`."""
        return 2 * self.n_facets + self.n_tri

    @property
    def n_vel(self):
        return 2 * self.n_facets

    def _build_geometry(self):
        pts = self.x[self.tris]                       # (T, 3, 2)
        self.tri_pts = pts
        self.centers = pts.mean(axis=1)
        e1 = pts[:, 1] - pts[:, 0]
        e2 = pts[:, 2] - pts[:, 0]
        self.areas = 0.5 * np.abs(e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])
        fv = self.facet_v
        self.facet_p0 = self.x[fv[:, 0]]
        tang = self.x[fv[:, 1]] - self.x[fv[:, 0]]
        self.facet_tangent = tang
        self.facet_len = np.hypot(tang[:, 0], tang[:, 1])
        # unnormalized global edge normal (t_y, -t_x); unit copy for SIP terms
        self.facet_m = np.column_stack([tang[:, 1], -tang[:, 0]])
        self.facet_n = self.facet_m / self.facet_len[:, None]
        # stored normals point away from the `left` triangle on interior
        # facets; on boundary facets the key ordering can leave them inward,
        # so keep an explicit outward sign for the one-sided terms
        b = self.boundary
        rel = self.centers[self.facet_left[b]] - self.facet_p0[b]
        self.facet_out_sign = np.ones(self.n_facets)
        self.facet_out_sign[b[np.sum(rel * self.facet_n[b], axis=1) > 0]] = -1.0
        # penalty length scale: element width normal to the facet
        # (2 min |T| / |e|); with the facet length itself, the inverse-trace
        # constant of thin layer elements grows like the aspect ratio and no
        # log-sized penalty can stabilize them
        left, right = self.facet_left, self.facet_right
        amin = np.minimum(self.areas[left],
                          self.areas[np.where(right < 0, left, right)])
        self.facet_h_pen = 2.0 * amin / self.facet_len
        dof_ids = np.empty((self.n_tri, 6), dtype=int)
        dof_ids[:, 0::2] = 2 * self.tri_facets
        dof_ids[:, 1::2] = 2 * self.tri_facets + 1
        self.tri_dof_ids = dof_ids

    def _build_local_bases(self):
        """Per triangle, the 6x6 map from the edge-moment DOF values to the
        local monomial coefficients [(1, xh, yh) per component]; the edge
        moments of linear traces are exact (trapezoid-type formulas)."""
        T = self.n_tri
        vander = np.zeros((T, 6, 6))
        for k in range(3):
            fi = self.tri_facets[:, k]                          # (T,)
            p0 = self.facet_p0[fi] - self.centers               # local coords
            p1 = p0 + self.facet_tangent[fi]
            m = self.facet_m[fi]                                # (T, 2)
            for b in range(6):
                comp, kind = divmod(b, 3)
                if kind == 0:
                    f0 = m[:, comp]
                    f1 = m[:, comp]
                else:
                    f0 = p0[:, kind - 1] * m[:, comp]
                    f1 = p1[:, kind - 1] * m[:, comp]
                vander[:, 2 * k, b] = 0.5 * (f0 + f1)
                vander[:, 2 * k + 1, b] = f0 / 6.0 + f1 / 3.0
        self.coeff_from_dofs = np.linalg.inv(vander)
        C = self.coeff_from_dofs
        grads = np.zeros((T, 6, 2, 2))                          # [t, j, comp, axis]
        grads[:, :, 0, 0] = C[:, 1, :]
        grads[:, :, 0, 1] = C[:, 2, :]
        grads[:, :, 1, 0] = C[:, 4, :]
        grads[:, :, 1, 1] = C[:, 5, :]
        self.shape_grads = grads
        self.shape_divs = C[:, 1, :] + C[:, 5, :]               # (T, 6)

    def _build_curl(self):
        """`curl`: the sparse map from a continuous P2 stream function psi
        (vertex values, then facet-midpoint values) to the edge-moment DOFs
        of curl psi = (psi_y, -psi_x).  Along v0 -> v1, curl psi . m is the
        derivative of psi in the facet parameter t, so the moments are
        psi(v1) - psi(v0) and int t dpsi/dt = (5 psi(v1) - psi(v0)
        - 4 psi(mid)) / 6.  `stream_fixed` lists the psi DOFs on the boundary
        (vertices, then midpoints), `stream_free` the others."""
        nv, nf = len(self.x), self.n_facets
        f = np.arange(nf)
        v0, v1 = self.facet_v.T
        rows = np.concatenate([2 * f, 2 * f, 2 * f + 1, 2 * f + 1, 2 * f + 1])
        cols = np.concatenate([v1, v0, v1, v0, nv + f])
        vals = np.repeat([1.0, -1.0, 5 / 6, -1 / 6, -4 / 6], nf)
        self.curl = sp.csr_matrix((vals, (rows, cols)), shape=(2 * nf, nv + nf))
        self.stream_fixed = np.concatenate(
            [np.unique(self.facet_v[self.boundary]), nv + self.boundary])
        on_boundary = np.zeros(nv + nf, dtype=bool)
        on_boundary[self.stream_fixed] = True
        self.stream_free = np.flatnonzero(~on_boundary)

    def monomials(self, tri_ids, pts):
        """The local P1 monomials (1, xh, yh), centroid-relative, at points:
        (F, m, 3), in the order of each component's local coefficients."""
        local = pts - self.centers[tri_ids][:, None, :]
        return np.concatenate([np.ones_like(local[..., :1]), local], axis=2)

    def shape_values(self, tri_ids, pts):
        """Shape-function values at points (F, m, 2): (F, 6, 2 m), the
        component c at point q in column c m + q."""
        C = self.coeff_from_dofs[tri_ids].transpose(0, 2, 1).reshape(-1, 12, 3)
        vals = C @ self.monomials(tri_ids, pts).transpose(0, 2, 1)
        return vals.reshape(len(tri_ids), 6, -1)

    def facet_points(self, facet_ids, ts):
        """Points at parameters ts along each facet: (F, m, 2)."""
        return (self.facet_p0[facet_ids][:, None, :]
                + ts[None, :, None] * self.facet_tangent[facet_ids][:, None, :])

    def edge_moments(self, g, facet_ids, n_gauss):
        """The two normal moments (int g.m, int g.m t) of a vector field g
        on each facet, by an n_gauss-point rule, in DOF order: (2 F,)."""
        ts, ws = gauss_01(n_gauss)
        pts = self.facet_points(facet_ids, ts)
        gv = np.asarray(g(pts.reshape(-1, 2)), dtype=float).reshape(pts.shape)
        gn = np.einsum("fmc,fc->fm", gv, self.facet_m[facet_ids])
        return np.column_stack([gn @ ws, gn @ (ws * ts)]).ravel()

    def triangle_quad(self, degree, tri_ids):
        """Physical quadrature points/weights per triangle: (T, m, 2), (T, m)."""
        ref_pts, ref_wts = simplex_rule(2, degree)
        origin = self.tri_pts[tri_ids, 0]
        E = self.tri_pts[tri_ids][:, 1:] - origin[:, None, :]   # (T, 2, 2)
        phys = ref_pts @ E + origin[:, None, :]
        wts = ref_wts[None, :] * (2.0 * self.areas[tri_ids])[:, None]
        return phys, wts


@dataclass
class StokesSolution:
    space: DGSpace
    vel_dofs: np.ndarray     # all velocity DOF values (fixed ones included)
    coeffs: np.ndarray       # (T, 6) local monomial coefficients per triangle
    pressure: np.ndarray     # (T,) physical piecewise constants
    stats: dict

    def elementwise_divergence(self):
        return self.coeffs[:, 1] + self.coeffs[:, 5]

    def max_normal_jump(self):
        """Largest normal-component mismatch across interior facets."""
        sp_ = self.space
        f = sp_.interior
        pts = sp_.facet_points(f, np.array([0.25, 0.75]))
        # the normal component's coefficients first, then its values: two
        # two-operand einsums, several times faster than one of three
        jl, jr = (np.einsum("fmb,fb->fm", sp_.monomials(t, pts), np.einsum(
                      "fcb,fc->fb", self.coeffs[t].reshape(-1, 2, 3), sp_.facet_n[f]))
                  for t in (sp_.facet_left[f], sp_.facet_right[f]))
        return float(np.max(np.abs(jl - jr), initial=0.0))


# Interior facets per `_facet_block` call in `assemble`: about 1.3 MB of
# temporaries, which measured faster than batches of 2048.
FACET_BATCH = 256


def _facet_block(space, facet_ids, sides, gamma, ts, ws):
    """SIP facet contributions for a batch of facets.

    `sides` is [(tri_ids, sign)] with one entry for boundary facets and two
    for interior ones, whose local DOFs are the `tri_dof_ids` of the sides
    in turn (n = 6 or 12); returns the local matrices (F, n, n), plus what
    the data lift needs: the points (F, m, 2) and each DOF's weighted test
    trace (F, n, 2 m), in the column order of `DGSpace.shape_values`.
    """
    h_e = space.facet_len[facet_ids]
    s = (gamma / space.facet_h_pen[facet_ids])[:, None, None]
    n = space.facet_n[facet_ids] * space.facet_out_sign[facet_ids][:, None]
    pts = space.facet_points(facet_ids, ts)
    avg_w = 0.5 if len(sides) == 2 else 1.0
    traces, gradns = [], []
    for tri_ids, sign in sides:
        traces.append(sign * space.shape_values(tri_ids, pts))
        gradns.append(avg_w * np.einsum("fjca,fa->fjc",
                                        space.shape_grads[tri_ids], n))
    trace = np.concatenate(traces, axis=1)                      # (F, n, 2m)
    # the averaged normal derivative, repeated at each point
    gradn = np.repeat(np.concatenate(gradns, axis=1), len(ts), axis=2)
    wline = np.tile(ws[None, :] * h_e[:, None], 2)[:, None, :]  # (F, 1, 2m)
    # the weighted test trace of s [v] - {dv/dn}: with it, the penalty
    # s [u][v] minus both consistency terms {du/dn}[v] + [u]{dv/dn} is one
    # matmul, and the data lift another
    wtest = (s * trace - gradn) * wline
    local = np.concatenate([wtest, trace * wline], axis=2) @ np.concatenate(
        [trace, -gradn], axis=2).transpose(0, 2, 1)
    return local, pts, wtest


def assemble(space: DGSpace, case: StokesCase, gamma):
    """Assemble the SIP blocks over all velocity DOFs.

    Returns (A, B, rhs): the symmetric velocity form A, the continuity rows
    B (one per triangle, area-scaled pressures) and the momentum
    right-hand side, which holds the lift of the Dirichlet datum; the normal
    moments of the datum on boundary facets are fixed by `solve`.
    """
    if gamma <= 0:
        raise ValueError("penalty parameter must be positive")
    n_vel = space.n_vel
    n_tri = space.n_tri
    gamma = float(gamma)

    interior, boundary = space.interior, space.boundary
    left, right = space.facet_left, space.facet_right
    dof_ids = space.tri_dof_ids.astype(np.int32)   # the index type of scipy's CSR
    rhs = np.zeros(n_vel)

    # A is summed in 6 x 6 blocks first: per triangle its diagonal block
    # (the volume term and the self-coupling of its facets), per interior
    # facet the coupling of its left and right triangle.  A is the
    # symmetric part of T = (diagonal blocks) + 2 (left-right blocks), so
    # the CSR conversion sees only 36 COO triplets per triangle and per
    # interior facet, and A is exactly symmetric.
    G = space.shape_grads.reshape(n_tri, 6, 4)
    diag = space.areas[:, None, None] * (G @ G.transpose(0, 2, 1))
    coupling = np.empty((len(interior), 6, 6))
    entries = np.arange(36)

    def add_to_diag(tri_ids, blocks):
        # one flat index per entry: np.add.at runs several times faster
        # this way than with one block row per index
        np.add.at(diag.reshape(-1), (36 * tri_ids[:, None] + entries).ravel(),
                  blocks.ravel())
    # interior facets in batches, which bounds the facet temporaries (about
    # 5 kB per facet) whatever the mesh size
    ts, ws = gauss_01(2)
    for start in range(0, len(interior), FACET_BATCH):
        f = interior[start:start + FACET_BATCH]
        local = _facet_block(space, f, [(left[f], 1.0), (right[f], -1.0)],
                             gamma, ts, ws)[0]
        add_to_diag(left[f], local[:, :6, :6])
        add_to_diag(right[f], local[:, 6:, 6:])
        coupling[start:start + len(f)] = local[:, :6, 6:]
    if len(boundary):
        local, pts, wtest = _facet_block(
            space, boundary, [(left[boundary], 1.0)], gamma, ts, ws)
        add_to_diag(left[boundary], local)
        # weak Dirichlet data in the jump slots (tangential part; the
        # normal part is fixed strongly through the boundary DOFs)
        gv = case.boundary_g(pts.reshape(-1, 2)).reshape(pts.shape)
        gv = gv.transpose(0, 2, 1).reshape(len(boundary), -1, 1)  # (F, 2m, 1)
        np.add.at(rhs, dof_ids[left[boundary]].ravel(), (wtest @ gv).ravel())

    shape = (n_tri + len(interior), 6, 6)
    r = np.concatenate([dof_ids, dof_ids[left[interior]]])
    c = np.concatenate([dof_ids, dof_ids[right[interior]]])
    vals = np.concatenate([diag, 2.0 * coupling]).ravel()
    del diag, coupling    # freed before the CSR arrays
    T = sp.coo_matrix((vals, (np.broadcast_to(r[:, :, None], shape).ravel(),
                              np.broadcast_to(c[:, None, :], shape).ravel())),
                      shape=(n_vel, n_vel)).tocsr()
    del vals, r, c
    A = T + T.T
    del T
    A = 0.5 * A    # also copies the arrays of the sum to their final size

    # body force: int_T f . shape, the local monomial moments of f mapped
    # by `coeff_from_dofs`; layer elements of very small eps get a doubled
    # rule, mirroring the error-integral policy
    for ids, phys, wts in _quadrature(space, case):
        fv = eval_fields(case.f, phys.reshape(-1, 2)).reshape(2, *wts.shape)
        moments = (fv * wts)[:, :, None] @ space.monomials(ids, phys)
        moments = moments.transpose(1, 2, 0, 3).reshape(-1, 1, 6)  # (T, 1, 6)
        contrib = (moments @ space.coeff_from_dofs[ids])[:, 0]
        np.add.at(rhs, space.tri_dof_ids[ids].ravel(), contrib.ravel())

    # continuity rows, scaled to enforce the divergence value itself
    B = sp.coo_matrix(
        (-space.shape_divs.ravel(),
         (np.repeat(np.arange(n_tri), 6), space.tri_dof_ids.ravel())),
        shape=(n_tri, n_vel)).tocsr()
    return A, B, rhs


def _pressure_tree(space):
    """The pressure rows of B^T p = r that a breadth-first spanning tree of
    the triangle adjacency picks: (order, dofs, L) with p[order[1:]] =
    L^-1 r[dofs] and p[order[0]] = 0.

    The 0th normal moment of a facet is the flux through it, so its row of
    B^T holds -div of that shape function, +-1/|T|, on the two triangles
    beside it (its t-moment row holds only roundoff).  Each triangle but
    the root takes the 0th-moment row of the facet to its parent; in
    breadth-first order a parent comes first, so L is lower triangular."""
    # imported here, not with the module: csgraph adds about 1 MiB to
    # every process that imports `stokes`, and only a solve uses it
    from scipy.sparse.csgraph import breadth_first_order

    interior = space.interior
    adjacency = sp.csr_matrix(
        (np.ones(len(interior)),
         (space.facet_left[interior], space.facet_right[interior])),
        shape=(space.n_tri, space.n_tri))
    order, parent = breadth_first_order(adjacency, 0, directed=False)
    child = order[1:]
    par = parent[child]
    pos = np.empty(space.n_tri, dtype=int)
    pos[order] = np.arange(space.n_tri)
    rows = np.arange(len(child))
    # the facet to the parent: the one whose other triangle is the parent
    # (a boundary facet gives -1)
    facets = space.tri_facets[child]                            # (T-1, 3)
    other = space.facet_left[facets] + space.facet_right[facets] - child[:, None]
    f = facets[rows, np.argmax(other == par[:, None], axis=1)]
    k, k_par = (np.argmax(space.tri_facets[t] == f[:, None], axis=1)
                for t in (child, par))
    # row i holds the pressure of order[i + 1] and, unless it is the root,
    # its parent's
    off = pos[par] > 0
    L = sp.csr_matrix(
        (-np.concatenate([space.shape_divs[child, 2 * k],
                          space.shape_divs[par[off], 2 * k_par[off]]]),
         (np.concatenate([rows, rows[off]]),
          np.concatenate([rows, pos[par[off]] - 1]))),
        shape=(len(child), len(child)))
    return order, 2 * f, L


# Nodes per leaf of the nested dissection of `_StreamCholesky`: at N = 64
# the factor took 91-102 ms with leaves of 128, 111-114 ms with 64 (more
# fronts, more Python overhead) and 100-120 ms with 256 (more fill).
ND_LEAF = 128
# Symbolic plans kept, one per pattern, newest last.  The solves of one N
# in a study run together, so one kept plan serves every eps of a
# uniform-geometry study; four let a process that repeats studies of up
# to four sizes analyse each size once (the `stokes_study` benchmark
# repeats N = 8, 16, 32 and 64; the four plans hold 2.5 MB).
PLAN_CACHE = 4
_plans = OrderedDict()     # digest of the pattern and grid -> _SymbolicPlan
# Entries per slab of the factor: the first block columns of consecutive
# fronts share one array of at most this size (4 MiB), unless a front is
# larger.  Repeated N = 8..64 studies peaked at 130-132 MiB with the slabs
# and 141-143 MiB with one array per front; one array per factor is a
# fresh mapping for every factor, whose page faults cost about a tenth of
# an N = 128 factorization.  The slabs fault too: a factorization on a
# kept plan in a three-eps study at N = 64 and 128 takes 2.5k-22k minor
# faults, against 0-216 with one array per front.
FRONT_SLAB = 2 ** 19


class _SymbolicPlan:
    """What `_StreamCholesky` does that depends only on the pattern of S
    and the grid lines `lines` (2, n) of its DOFs: the order, the fronts
    and the maps that scatter S and the update blocks into them.

    `perm` is the nested-dissection order and `nnz` the number of entries
    of L the fronts store.  `fronts` holds, per front in postorder, (p0,
    p1, U, src, dst, runs, slab): its pivots p0..p1-1 in the order; its
    update set U; the positions `src` in S.data of the lower triangle of
    S in its columns and their positions `dst` in its first block column,
    F11 (k x k) over F21 (|U| x k), both stored column by column; per
    child, in the order of the children, the runs of the child's update
    set that are contiguous among the pivots or in U, as (m, first, at,
    size): the first m runs fall among the pivots, run i takes `size[i]`
    rows and columns of the child's update block from `first[i]` on, and
    `at[i]` is its first row in F11, or in F21 and F22 for i >= m; and,
    if the front opens a slab (FRONT_SLAB), the slab's size, else 0.
    Arrays are int32 and the runs int lists."""

    def __init__(self, S, lines):
        n = S.shape[0]
        # per axis and DOF, the largest grid line among its S-neighbours
        reach = np.stack([np.maximum.reduceat(lines[a][S.indices],
                                              S.indptr[:-1])
                          for a in (0, 1)])
        fronts = []   # (pivots in order, number of child fronts)

        def dissect(nodes):
            """Append the fronts of `nodes` in postorder."""
            if len(nodes) <= ND_LEAF:
                fronts.append((nodes, 0))
                return
            g = [lines[0][nodes], lines[1][nodes]]
            low = [int(x.min()) for x in g]
            span = [int(x.max()) - x0 for x, x0 in zip(g, low)]
            axis = int(span[1] > span[0])
            c = g[axis] - low[axis]
            r = reach[axis][nodes] - low[axis]
            upto = np.cumsum(np.bincount(c))     # DOFs on or left of a line
            j = int(np.searchsorted(upto, len(nodes) / 2))
            # a cut at line v separates the DOFs with c < v <= r (r >= c,
            # since S holds its diagonal)
            size = upto - np.cumsum(np.bincount(r))[:len(upto)]
            cut = min([min(max(i, 1), span[axis]) for i in (j - 1, j, j + 1)],
                      key=lambda v: size[v - 1])
            left = c < cut
            sep = left & (r >= cut)
            dissect(nodes[~left])
            dissect(nodes[left ^ sep])
            fronts.append((nodes[sep][np.lexsort((g[axis][sep],
                                                  g[1 - axis][sep]))], 2))

        dissect(np.arange(n, dtype=np.int32))
        self.perm = np.concatenate([nodes for nodes, _ in fronts])
        rank = np.empty(n, dtype=np.int32)
        rank[self.perm] = np.arange(n, dtype=np.int32)
        ends = np.cumsum([len(nodes) for nodes, _ in fronts])
        starts = ends - [len(nodes) for nodes, _ in fronts]

        # the lower triangle of S in the new order, column by column: its
        # entries are picked in S's order, then their columns permuted
        kept = np.flatnonzero(rank[S.indices]
                              >= np.repeat(rank, np.diff(S.indptr)))
        ptr = np.searchsorted(kept, S.indptr)
        counts = np.diff(ptr)[self.perm]
        entries = kept[np.arange(len(kept)) + np.repeat(
            ptr[self.perm] - np.cumsum(counts) + counts, counts)]
        r, c = rank[S.indices[entries]], np.repeat(np.arange(n), counts)
        entries = entries.astype(np.int32)
        bounds = np.searchsorted(c, np.append(starts, n)).tolist()

        # children first: each front's update set, and `where`, the map of
        # its DOFs to its rows (pivots first, then U)
        built, stack, self.nnz = [], [], 0
        where = np.empty(n, dtype=np.int64)
        for (_, n_children), p0, p1, lo, hi in zip(
                fronts, starts.tolist(), ends.tolist(), bounds, bounds[1:]):
            children = stack[len(stack) - n_children:]
            del stack[len(stack) - n_children:]
            # sorted and deduplicated by hand: np.unique hashes, which
            # took several times as long at these sizes
            U = np.concatenate([r[lo:hi]] + children)
            U = np.sort(U[U >= p1])
            distinct = np.ones(len(U), dtype=bool)
            np.not_equal(U[1:], U[:-1], out=distinct[1:])
            U = U[distinct]
            k, u = p1 - p0, len(U)
            where[p0:p1] = np.arange(k)
            where[U] = np.arange(k, k + u)
            rows, cols = where[r[lo:hi]], c[lo:hi] - p0
            below = rows >= k
            dst = rows + cols * np.where(below, u, k) + below * (k * k - k)
            runs = []
            for child_U in children:
                at = where[child_U]
                # a run starts at the child's first DOF, after a gap and at
                # U's first row
                new = np.empty(len(at), dtype=bool)
                new[:1] = True
                np.not_equal(at[1:], at[:-1] + 1, out=new[1:])
                new |= at == k
                first = np.flatnonzero(new)
                start = at[first]
                m = int(np.count_nonzero(start < k))
                start[m:] -= k
                first = first.tolist()
                runs.append((m, first, start.tolist(), [
                    b - a for a, b in zip(first, first[1:] + [len(at)])]))
            built.append((p0, p1, U, entries[lo:hi], dst.astype(np.int32),
                          runs))
            stack.append(U)
            self.nnz += k * (k + 1) // 2 + k * u

        # the slabs: runs of consecutive fronts of at most FRONT_SLAB
        # entries in all, or one front; the first front of each carries its
        # size, the others 0
        slab, opener, fill = [0] * len(built), 0, FRONT_SLAB
        for i, (p0, p1, U, *_) in enumerate(built):
            size = (p1 - p0) * (p1 - p0 + len(U))
            if fill + size > FRONT_SLAB:
                opener, fill = i, 0
            fill += size
            slab[opener] = fill
        self.fronts = [front + (size,) for front, size in zip(built, slab)]


def _symbolic_plan(S, coords):
    """The plan of S's pattern on the grid of `coords`, kept in `_plans`:
    a pattern and grid seen among the last PLAN_CACHE are analysed once."""
    import hashlib      # here, not with the module: only a solve needs it

    lines = np.stack([np.unique(coords[:, a], return_inverse=True)[1]
                      for a in (0, 1)])
    digest = hashlib.sha256(
        f"{S.shape[0]} {S.indptr.dtype} {S.indices.dtype}".encode())
    for a in (S.indptr, S.indices, lines):
        digest.update(a)
    key = digest.digest()
    if key in _plans:
        _plans.move_to_end(key)
    else:
        _plans[key] = _SymbolicPlan(S, lines)
        while len(_plans) > PLAN_CACHE:
            _plans.popitem(last=False)
    return _plans[key]


class _StreamCholesky:
    """S = L L^T for the SPD stream-function matrix S (symmetric pattern),
    by a multifrontal Cholesky on a nested-dissection order of its DOFs,
    which sit at the points `coords` (n, 2) of a tensor grid.

    The order: a set of more than ND_LEAF DOFs is split across the axis
    on which it spans more grid lines, at whichever of the three lines
    nearest its median gives the smallest separator: the DOFs left of the
    line with an S-neighbour on or right of it, sorted along the line, so
    that a child's update set falls into a few runs of its parent's front.
    The two sides are ordered first, then the separator.  Each leaf and
    each separator is a front: its k pivots, contiguous in the order, and
    its update set U, the later DOFs that its pivots' columns of S or its
    children's update sets reach.  A front is three dense blocks, F11
    (k x k), F21 (|U| x k) and F22 (|U| x |U|); `dpotrf`, `dtrsm` and
    `dsyrk` eliminate its pivots in place, and F22, its update block, is
    added into its parent's blocks by slices, one per pair of runs of U
    that are contiguous there.  F11 and F21 of consecutive fronts, which
    become L's blocks, share one array up to FRONT_SLAB entries.  `nnz`
    counts the entries of L the fronts store, k (k + 1) / 2 + k |U| each;
    `solve(b)` runs `dtrsv` and matvecs over the fronts.

    The order, the update sets and the maps into the fronts depend only
    on S's pattern and the grid lines of its DOFs, and are computed once
    per pattern (`_SymbolicPlan`, kept by `_symbolic_plan`); a factor
    scatters S.data by them and runs the BLAS.  Every uniform-geometry
    mesh of one N (`--kind uniform` at any eps, Shishkin with tau = 1/2)
    gives one pattern, 340,073 entries at N = 64; on layer meshes the
    entries `solve` drops from S as roundoff differ with eps, and so does
    the pattern (393,641, 358,483 and 356,483 entries at eps = 1e-3, 1e-6
    and 1e-10, N = 64)."""

    def __init__(self, S, coords):
        from scipy.linalg.blas import dsyrk, dtrsm
        from scipy.linalg.lapack import dpotrf

        S = S.tocsc()
        plan = _symbolic_plan(S, coords)
        self.perm, self.nnz = plan.perm, plan.nnz
        self.fronts, stack = [], []
        for p0, p1, U, src, dst, runs, slab in plan.fronts:
            k, u = p1 - p0, len(U)
            if slab:
                columns, end = np.zeros(slab), 0
            F1 = columns[end:end + k * (k + u)]
            end += k * (k + u)
            F1[dst] = S.data[src]
            F11 = F1[:k * k].reshape((k, k), order="F")
            F21 = F1[k * k:].reshape((u, k), order="F")
            F22 = np.zeros((u, u), order="F")
            for block, (m, first, at, size) in zip(stack[len(stack) - len(runs):],
                                                   runs):
                # the lower block triangle: `block` is valid on and below
                # its diagonal, and the map keeps the order
                take = [slice(i, i + s) for i, s in zip(first, size)]
                put = [slice(i, i + s) for i, s in zip(at, size)]
                for i in range(m):
                    for j in range(i + 1):
                        F11[put[i], put[j]] += block[take[i], take[j]]
                for i in range(m, len(take)):
                    for j in range(m):
                        F21[put[i], put[j]] += block[take[i], take[j]]
                    for j in range(m, i + 1):
                        F22[put[i], put[j]] += block[take[i], take[j]]
            del stack[len(stack) - len(runs):]
            L11, info = dpotrf(F11, lower=1, overwrite_a=1)
            if info:
                raise np.linalg.LinAlgError(
                    "the stream-function system is not positive definite "
                    f"(pivot {info} of a front of {k})")
            L21 = F21
            if u:
                L21 = dtrsm(1.0, L11, F21, side=1, lower=1, trans_a=1,
                            overwrite_b=1)
                F22 = dsyrk(-1.0, L21, beta=1.0, c=F22, lower=1,
                            overwrite_c=1)
            stack.append(F22)
            self.fronts.append((p0, p1, U, L11, L21))

    def solve(self, b):
        from scipy.linalg.blas import dtrsv

        x = b[self.perm]
        for p0, p1, U, L11, L21 in self.fronts:
            x[p0:p1] = dtrsv(L11, x[p0:p1], lower=1)
            x[U] -= L21 @ x[p0:p1]
        for p0, p1, U, L11, L21 in reversed(self.fronts):
            x[p0:p1] = dtrsv(L11, x[p0:p1] - L21.T @ x[U], lower=1, trans=1)
        out = np.empty_like(x)
        out[self.perm] = x
        return out


def solve(space: DGSpace, case: StokesCase, gamma) -> StokesSolution:
    """Solve the system of `assemble`'s blocks in the divergence-free
    subspace.

    The velocity is u = C_b psi_b + C_f psi_f with C = `space.curl`.  psi_b
    on the boundary reproduces the normal moments g of the datum on the
    boundary facets (for every datum, zero included: there is one Dirichlet
    path); the rows of C_f there are zero, so u keeps them.  psi_f solves
    the SPD system S psi_f = C_f^T (rhs - A C_b psi_b), S = C_f^T A C_f,
    factorized once by `_StreamCholesky` on the points of its DOFs (the
    free vertices and facet midpoints).  The area-scaled pressure p solves B^T p =
    rhs - A u on the free rows, a consistent system of which
    `_pressure_tree` picks one row per triangle but the first; since B^T
    annihilates only the constant pressure, the zero-mean gauge is a shift.
    One step of iterative refinement reuses the factors.  The residual is
    relative, over the free momentum rows, the continuity rows with g on
    the right-hand side and the zero-sum gauge.
    """
    A, B, rhs = assemble(space, case, gamma)
    free, fixed, areas = space.free_dofs, space.fixed_dofs, space.areas
    g = space.edge_moments(case.boundary_g, space.boundary, 4)
    C_f = space.curl[:, space.stream_free]
    S = (C_f.T @ A @ C_f).tocsc()
    # entries that vanish in exact arithmetic come out as roundoff, up to
    # 2.1e-16 of the diagonal scale sqrt(s_ii s_jj) on the uniform mesh at
    # N = 64, where the others are above 1e-2 of it; which of them are
    # stored depends on the summation order, and with them the ordering and
    # the fill of the factor, so the entries at or below 1e-12 of it are
    # dropped.  On layer meshes that cut is not in a gap: at eps = 1e-10,
    # N = 64, 2,000 entries lie between 1e-16 and 1e-12 of it (up to
    # 5.2e-13), and they are dropped whether they are roundoff or not
    d = np.sqrt(S.diagonal())
    S.data[np.abs(S.data) <= 1e-12 * d[S.indices]
           * np.repeat(d, np.diff(S.indptr))] = 0.0
    S.eliminate_zeros()
    points = np.concatenate([space.x, 0.5 * (space.x[space.facet_v[:, 0]]
                                             + space.x[space.facet_v[:, 1]])])
    factor = _StreamCholesky(S, points[space.stream_free])
    order, tree_dofs, L = _pressure_tree(space)

    def correction(r, u0, total):
        """Velocity and area-scaled pressure for the momentum right-hand
        side r (its free rows), with u0 the velocity the boundary stream
        function fixes and `total` the sum of the pressure."""
        u = u0 + C_f @ factor.solve(C_f.T @ (r - A @ u0))
        p = np.zeros(space.n_tri)
        p[order[1:]] = spla.spsolve_triangular(L, (r - A @ u)[tree_dofs])
        p += areas * ((total - p.sum()) / areas.sum())
        return u, p

    # psi_b: the boundary rows of `curl` with the first boundary vertex
    # pinned to zero and the first facet's flux row dropped (the fluxes of
    # a divergence-free datum sum to zero around the boundary, so that row
    # is implied by the others)
    C_b = space.curl[:, space.stream_fixed]
    psi_b = np.zeros(C_b.shape[1])
    psi_b[1:] = spla.spsolve(C_b[fixed][1:, 1:].tocsc(), g[1:])
    u0 = C_b @ psi_b
    u0[fixed] = g
    u, p = correction(rhs, u0, 0.0)
    du, dp = correction(rhs - A @ u - B.T @ p, np.zeros(space.n_vel), -p.sum())
    u += du
    p += dp
    lift = np.zeros(space.n_vel)
    lift[fixed] = g
    denom = np.linalg.norm(np.concatenate([(rhs - A @ lift)[free], B @ lift]))
    residual = float(np.linalg.norm(np.concatenate(
        [(rhs - A @ u - B.T @ p)[free], B @ u, [p.sum()]]))) / (denom or 1.0)
    coeffs = np.einsum("tbj,tj->tb", space.coeff_from_dofs,
                       u[space.tri_dof_ids])
    stats = {
        "residual": residual,
        "n_unknowns": S.shape[0],
        "nnz": int(S.nnz),
        "factor_nnz": factor.nnz,
    }
    return StokesSolution(space, u, coeffs, p / areas, stats)


# Degree of the triangle rule of the volume integrals (body force, errors),
# doubled on layer elements when epsilon is at or below 1e-3.
QUAD_DEGREE = 8
# Points per quadrature batch: bounds the power tables of `eval_fields` and
# the other point-wise arrays of `assemble` and `errors`, to sizes that
# stay in cache (2^12 measured faster than 2^16).
QUAD_BATCH_POINTS = 2 ** 12


def _quadrature(space, case):
    """(tri_ids, points (T, m, 2), weights (T, m)) per batch of triangles
    sharing a rule: QUAD_DEGREE, doubled on layer elements when epsilon is
    at or below 1e-3.  A batch holds at most QUAD_BATCH_POINTS points (but
    at least one triangle), so the point-wise temporaries of the callers
    stay bounded whatever the mesh and the rule."""
    tri_ids = np.arange(space.n_tri)
    groups = [(tri_ids, QUAD_DEGREE)]
    if case.epsilon <= 1e-3:
        layer_width = 3.0 * case.epsilon * abs(math.log(case.epsilon))
        in_layer = space.tri_pts[:, :, 0].min(axis=1) < layer_width
        groups = [(tri_ids[in_layer], 2 * QUAD_DEGREE),
                  (tri_ids[~in_layer], QUAD_DEGREE)]
    for ids, degree in groups:
        size = max(1, QUAD_BATCH_POINTS // len(simplex_rule(2, degree)[1]))
        for start in range(0, len(ids), size):
            batch = ids[start:start + size]
            yield (batch, *space.triangle_quad(degree, batch))


def errors(sol: StokesSolution, case: StokesCase):
    """(broken H1 velocity error, L2 pressure error with the exact pressure
    shifted to the zero-mean gauge).  Layer elements get a doubled rule for
    very small epsilon."""
    space = sol.space
    err_grad_sq = 0.0
    err_p_sq = 0.0
    exact = [g for row in case.grad_u for g in row] + [case.p]
    for ids, phys, wts in _quadrature(space, case):
        vals = eval_fields(exact, phys.reshape(-1, 2)).reshape(5, *wts.shape)
        gh = sol.coeffs[ids][:, [1, 2, 4, 5]].T[:, :, None]     # (4, T, 1)
        err_grad_sq += float(np.sum(wts * np.sum((vals[:4] - gh) ** 2, axis=0)))
        p_exact = vals[4] - case.pressure_mean
        err_p_sq += float(np.sum(wts * (p_exact - sol.pressure[ids][:, None]) ** 2))
    return math.sqrt(err_grad_sq), math.sqrt(err_p_sq)


# ---------------------------------------------------------------------------
# convergence study

STUDY_COLUMNS = ["epsilon", "mesh_kind", "N", "ndof", "tau", "sigma", "gamma",
                 "err_grad_u", "err_p", "rate_u", "rate_p",
                 "div_max", "jump_max", "residual"]


def study_mesh(kind, N, eps, log_convention="natural"):
    if kind == "uniform":
        mesh = build_uniform(N, exact=False)
        tau = 0.5
    elif kind == "shishkin":
        tau = transition_point(eps, log_convention)
        mesh = build_shishkin(N, tau)
    else:
        raise ValueError(f"unknown mesh kind {kind!r}")
    return mesh, float(tau)


def convergence_study(eps_list, N_list, kind, log_convention="natural"):
    """One row per (epsilon, N): errors, parameters and observed rates,
    the contract values, and the sizes of the factorized stream-function
    system: its `n_unknowns` and `nnz`, and `factor_nnz`, the entries of
    its Cholesky factor (row keys that `STUDY_COLUMNS` leaves out of the
    CSV).  A rate is the order
    per doubling of N against the previous row of the same epsilon,
    log(e_prev / e) / log(N / N_prev), whatever the steps of N_list; it
    is None, as in a first row, when either error is 0.

    The rows come epsilon by epsilon, but the solves run N by N: the
    solves of one N follow each other, so those that share a pattern
    (`--kind uniform` at every epsilon) find its plan among the last
    PLAN_CACHE kept, however many N the study has."""
    cases = [manufactured_case(eps) for eps in eps_list]
    series = [[] for _ in eps_list]
    for N in N_list:
        for eps, case, done in zip(eps_list, cases, series):
            mesh, tau = study_mesh(kind, N, eps, log_convention)
            sigma = mesh_aspect_ratio(mesh)
            gamma = penalty(sigma, log_convention)
            space = DGSpace(mesh)
            sol = solve(space, case, gamma)
            err_u, err_p = errors(sol, case)
            rate_u = rate_p = None
            if done:
                prev = done[-1]
                steps = math.log2(N / prev["N"])   # exactly 1.0 when N doubles
                if prev["err_grad_u"] and err_u:
                    rate_u = math.log2(prev["err_grad_u"] / err_u) / steps
                if prev["err_p"] and err_p:
                    rate_p = math.log2(prev["err_p"] / err_p) / steps
            done.append({
                "epsilon": float(eps), "mesh_kind": kind, "N": N,
                "ndof": space.ndof, "tau": tau, "sigma": sigma,
                "gamma": gamma, "err_grad_u": err_u, "err_p": err_p,
                "rate_u": rate_u, "rate_p": rate_p,
                "div_max": float(np.max(np.abs(sol.elementwise_divergence()))),
                "jump_max": sol.max_normal_jump(),
                "residual": sol.stats["residual"],
                "n_unknowns": sol.stats["n_unknowns"],
                "nnz": sol.stats["nnz"],
                "factor_nnz": sol.stats["factor_nnz"],
            })
    return [row for done in series for row in done]


def study_to_csv(rows, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(STUDY_COLUMNS)
        for r in rows:
            writer.writerow([_cell(r[c]) for c in STUDY_COLUMNS])


def _cell(x):
    if x is None:
        return ""
    if isinstance(x, (int, str)):
        return x
    return repr(float(x))
