import math
import sys
from collections import OrderedDict
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from hypothesis import given, settings
from hypothesis import strategies as st

from bdmlab import stokes
from bdmlab.polynomials import Polynomial
from bdmlab.quadrature import simplex_rule
from bdmlab.shishkin import build_uniform, mesh_aspect_ratio
from bdmlab.stokes import (QUAD_BATCH_POINTS, DGSpace, ExpPoly, StokesCase,
                           StokesSolution, assemble, convergence_study, errors,
                           eval_fields, manufactured_case, penalty, solve,
                           study_mesh, study_to_csv)

from test_polynomials import evaluate

F = Fraction


def eval_field(f, pts):
    """The values of one ExpPoly field at points (P, 2): (P,)."""
    return eval_fields([f], pts)[0]


@pytest.fixture(scope="module")
def case01():
    return manufactured_case(0.1)


def zero_case():
    zero = ExpPoly()
    return StokesCase(epsilon=0.5, u=(zero, zero), p=zero, f=(zero, zero),
                      grad_u=((zero, zero), (zero, zero)), pressure_mean=0.0)


def linear_case():
    # u = (y, x), p = x - 1/2: in the discrete velocity space, so the SIP
    # scheme must reproduce the velocity exactly (consistency)
    x = Polynomial.variable(2, 0)
    y = Polynomial.variable(2, 1)
    zero = Polynomial.zero(2)
    one = Polynomial.constant(2, F(1))
    return StokesCase(
        epsilon=0.5,
        u=(ExpPoly(pplain=y), ExpPoly(pplain=x)),
        p=ExpPoly(pplain=x - F(1, 2)),
        f=(ExpPoly(pplain=one), ExpPoly(pplain=zero)),
        grad_u=((ExpPoly(pplain=zero), ExpPoly(pplain=one)),
                (ExpPoly(pplain=one), ExpPoly(pplain=zero))),
        pressure_mean=0.0)


# -- penalty ---------------------------------------------------------------------

def test_penalty_values():
    assert penalty(math.e) == 4
    assert penalty(8.93, "natural") == 12
    assert penalty(0.8) == 4  # floored
    assert penalty(8.93, "base10") == 4


# -- manufactured case ------------------------------------------------------------

def test_exact_velocity_divergence_free(case01):
    div = case01.grad_u[0][0] + case01.grad_u[1][1]
    assert not div.pexp.terms and not div.pplain.terms


def test_boundary_trace_vanishes(case01):
    ts = np.linspace(0, 1, 13)
    for pts in [np.column_stack([ts, np.zeros_like(ts)]),
                np.column_stack([ts, np.ones_like(ts)]),
                np.column_stack([np.zeros_like(ts), ts]),
                np.column_stack([np.ones_like(ts), ts])]:
        g = case01.boundary_g(pts)
        assert np.max(np.abs(g)) < 1e-15


def test_body_force_matches_finite_differences(case01):
    rng = np.random.default_rng(3)
    pts = rng.uniform(0.1, 0.9, size=(20, 2))

    def second_diff(comp, p, d, h):
        e = np.zeros(2)
        e[d] = h
        return (eval_field(case01.u[comp], np.array([p + e]))[0]
                - 2 * eval_field(case01.u[comp], np.array([p]))[0]
                + eval_field(case01.u[comp], np.array([p - e]))[0]) / h ** 2

    fd_vals, exact_vals = [], []
    h1, h2 = 1e-6, 4e-4
    for p in pts:
        for comp in range(2):
            # Richardson-extrapolated central differences for the Laplacian
            lap = sum((4 * second_diff(comp, p, d, h2 / 2)
                       - second_diff(comp, p, d, h2)) / 3 for d in range(2))
            e0 = np.zeros(2)
            e0[comp] = h1
            gradp = (eval_field(case01.p, np.array([p + e0]))[0]
                     - eval_field(case01.p, np.array([p - e0]))[0]) / (2 * h1)
            fd_vals.append(-lap + gradp)  # viscosity 1
            exact_vals.append(eval_field(case01.f[comp], np.array([p]))[0])
    scale = max(abs(v) for v in exact_vals)
    worst = max(abs(fd - ex) / max(abs(ex), 1e-3 * scale)
                for fd, ex in zip(fd_vals, exact_vals))
    assert worst < 1e-6


def test_pressure_mean_value(case01):
    eps = case01.epsilon
    assert abs(case01.pressure_mean - eps * (1 - math.exp(-1 / eps))) < 1e-15


def test_exppoly_derivative_chain():
    e = ExpPoly(pexp=Polynomial.variable(2, 0), eps=F(1, 2))
    d = e.diff(0)  # (1 - 2 x1) exp(-2 x1)
    pts = np.array([[0.3, 0.1]])
    expected = (1 - 2 * 0.3) * math.exp(-0.6)
    assert abs(eval_field(d, pts)[0] - expected) < 1e-14


def _random_poly(draw, degree):
    return Polynomial(2, {(i, j): F(draw(st.integers(-50, 50)),
                                    draw(st.integers(1, 9)))
                          for i in range(degree + 1)
                          for j in range(degree + 1 - i)
                          if draw(st.booleans())})


@st.composite
def exp_polys(draw, eps):
    """ExpPoly fields of degree <= 8 with only the exp part, only the plain
    part, both, or neither (the zero field)."""
    parts = draw(st.sampled_from(["exp", "plain", "both", "zero"]))
    degree = draw(st.integers(0, 8))
    pexp = _random_poly(draw, degree) if parts in ("exp", "both") else None
    pplain = _random_poly(draw, degree) if parts in ("plain", "both") else None
    return ExpPoly(pexp, pplain, eps)


@st.composite
def field_sets(draw):
    eps = draw(st.sampled_from([F(1), F(1, 10), F(1, 1000), F(1, 10 ** 6)]))
    fields = draw(st.lists(exp_polys(eps), min_size=1, max_size=5))
    # rational points that floats hold exactly
    pts = draw(st.lists(st.tuples(*[st.builds(F, st.integers(0, 256),
                                               st.just(256))] * 2),
                        min_size=1, max_size=8))
    return fields, pts


def _magnitude(p, x, y):
    return sum(abs(c) * x ** i * y ** j for (i, j), c in p.terms.items())


@settings(max_examples=60, deadline=None)
@given(field_sets())
def test_eval_fields_matches_exact_evaluation(case):
    # Fraction evaluation at rational points times math.exp, against the
    # float power tables.  The bound is relative to the sum of the terms'
    # magnitudes, which is what float cancellation is relative to, plus
    # the spacing of subnormal floats on the exp part
    fields, pts = case
    got = eval_fields(fields, np.array(pts, dtype=float))
    assert got.shape == (len(fields), len(pts))
    for f, row in zip(fields, got):
        assert np.array_equal(eval_field(f, np.array(pts, dtype=float)), row)
        for (x, y), value in zip(pts, row):
            decay = F(math.exp(-(x / f.eps)))
            want = evaluate(f.pexp, (x, y)) * decay + evaluate(f.pplain, (x, y))
            size = (_magnitude(f.pexp, x, y) * decay
                    + _magnitude(f.pplain, x, y))
            slack = F(sys.float_info.min) * _magnitude(f.pexp, x, y)
            assert abs(F(value) - want) <= F(1, 10 ** 13) * size + slack
            if not f.pexp.terms and not f.pplain.terms:
                assert value == 0.0


# -- assembly/solve -----------------------------------------------------------------

def saddle_point_system(space, case, gamma):
    """The system the solve answers for, built from `assemble`'s blocks:
    free velocity DOFs, area-scaled pressures and a zero-mean multiplier,
    with the boundary moments g of the datum on the right-hand side."""
    A, B, rhs = assemble(space, case, gamma)
    free, fixed = space.free_dofs, space.fixed_dofs
    g = space.edge_moments(case.boundary_g, space.boundary, 4)
    ones = sp.csr_matrix(np.ones((space.n_tri, 1)))
    K = sp.bmat([[A[free][:, free], B[:, free].T, None],
                 [B[:, free], None, ones],
                 [None, ones.T, None]], format="csc")
    rhs = np.concatenate([rhs[free] - A[free][:, fixed] @ g,
                          -B[:, fixed] @ g, [0.0]])
    return K, rhs


@pytest.fixture(scope="module")
def space64():
    return DGSpace(build_uniform(64))


@pytest.mark.parametrize("eps, degree, layer_degree", [
    (0.1, 8, None), (0.1, 16, None), (0.1, 30, None), (0.1, 60, None),
    (1e-3, 30, 60),       # doubled rule on the layer elements
])
def test_quadrature_batches_are_bounded(monkeypatch, space64, eps, degree,
                                       layer_degree):
    monkeypatch.setattr(stokes, "QUAD_DEGREE", degree)
    batches = list(stokes._quadrature(space64, manufactured_case(eps)))
    sizes = {degree: len(simplex_rule(2, degree)[1])}
    if layer_degree:
        sizes[layer_degree] = len(simplex_rule(2, layer_degree)[1])
    assert len(batches) > 1
    for ids, phys, wts in batches:
        assert phys.shape == (len(ids), wts.shape[1], 2)
        assert wts.shape[1] in sizes.values()
        assert len(ids) * wts.shape[1] <= QUAD_BATCH_POINTS
    if layer_degree:
        assert {wts.shape[1] for _, _, wts in batches} == set(sizes.values())
    ids = np.concatenate([ids for ids, _, _ in batches])
    assert np.array_equal(np.sort(ids), np.arange(space64.n_tri))


def test_facet_batches_do_not_change_the_blocks(monkeypatch, case01):
    # batches of 7 interior facets (the last one partial) against one batch
    space = DGSpace(study_mesh("shishkin", 8, 0.1)[0])
    A, B, rhs = assemble(space, case01, 12.0)
    monkeypatch.setattr(stokes, "FACET_BATCH", 7)
    A7, B7, rhs7 = assemble(space, case01, 12.0)
    assert len(space.interior) % 7 and len(space.interior) > 7
    assert abs(A7 - A).max() <= 1e-14 * abs(A).max()
    assert (B7 != B).nnz == 0 and np.array_equal(rhs7, rhs)


def test_stream_matrix_stores_no_roundoff_entries(case01):
    # with gamma = 4 (the penalty of these meshes) entries of C_f^T A C_f
    # vanish in exact arithmetic but come out as roundoff, below 1e-14 of
    # the diagonal scale where the others are above 1e-2; which of them are
    # stored depends on the summation order (and the factor's fill on
    # them), so the solve must factorize without them
    space = DGSpace(study_mesh("uniform", 8, 0.1)[0])
    A, _, _ = assemble(space, case01, 4.0)
    C_f = space.curl[:, space.stream_free]
    S = (C_f.T @ A @ C_f).tocoo()
    d = np.sqrt(S.diagonal())
    rel = np.abs(S.data) / (d[S.row] * d[S.col])
    assert np.count_nonzero(rel < 1e-14) > 0 and rel[rel >= 1e-14].min() > 1e-10
    assert solve(space, case01, 4.0).stats["nnz"] == np.count_nonzero(rel > 1e-12)


def recording_factor(monkeypatch):
    """Replace `stokes._StreamCholesky` by a subclass that keeps each
    factor it builds, with its arguments; return that list."""
    factors = []

    class Recording(stokes._StreamCholesky):
        def __init__(self, S, coords):
            super().__init__(S, coords)
            factors.append((self, S, coords))

    monkeypatch.setattr(stokes, "_StreamCholesky", Recording)
    return factors


def test_solve_reports_factor_fill(monkeypatch, case01):
    factors = recording_factor(monkeypatch)
    sol = solve(DGSpace(build_uniform(8)), case01, 8.0)
    # the stream-function system is the only factorization: the pressure
    # is a triangular solve along a spanning tree
    (factor, S, _), = factors
    assert S.shape[0] == sol.stats["n_unknowns"]
    assert sum(len(L11) for _, _, _, L11, _ in factor.fronts) == S.shape[0]
    # each front stores the lower triangle of its pivot block and the
    # rows below it
    assert sol.stats["factor_nnz"] == sum(
        len(L11) * (len(L11) + 1) // 2 + L21.size
        for _, _, _, L11, L21 in factor.fronts)
    # L's pattern holds that of tril(S)
    assert 2 * sol.stats["factor_nnz"] >= sol.stats["nnz"] + S.shape[0]


def stream_system(monkeypatch, kind, N):
    """The stream-function matrix of a solve and the points of its DOFs,
    on the mesh `study_mesh` builds for eps = 1e-3."""
    factors = recording_factor(monkeypatch)
    mesh, _ = study_mesh(kind, N, 1e-3)
    solve(DGSpace(mesh), manufactured_case(1e-3),
          penalty(mesh_aspect_ratio(mesh)))
    (_, S, coords), = factors
    return S, coords


# N = 2 and 6 fit in one leaf; 6 and 10 are not powers of two
@pytest.mark.parametrize("kind", ["uniform", "shishkin"])
@pytest.mark.parametrize("N", [2, 6, 10, 16])
def test_stream_factor_solves_the_system(monkeypatch, kind, N):
    S, coords = stream_system(monkeypatch, kind, N)
    factor = stokes._StreamCholesky(S, coords)
    assert (len(factor.fronts) == 1) == (N <= 6)
    b = S @ np.random.default_rng(N).standard_normal(S.shape[0])
    x = factor.solve(b)
    assert np.linalg.norm(S @ x - b) <= 1e-13 * np.linalg.norm(b)
    # S's condition number reaches 1e9 on the layer mesh at N = 16, and
    # two backward-stable solves agree to about 1e-16 of it
    ref = spla.spsolve(S, b)
    assert np.linalg.norm(x - ref) <= 1e-8 * np.linalg.norm(ref)


@pytest.mark.parametrize("N", [2, 10])
def test_stream_factor_refuses_a_matrix_that_is_not_spd(monkeypatch, N):
    S, coords = stream_system(monkeypatch, "shishkin", N)
    analysed = counting_plans(monkeypatch)
    stokes._StreamCholesky(S, coords)
    # -S has the pattern of S: the check holds on the reused plan
    with pytest.raises(np.linalg.LinAlgError, match="stream-function system"):
        stokes._StreamCholesky(-S, coords)
    assert analysed == [S.nnz]


def counting_plans(monkeypatch):
    """Empty the plan cache of `_StreamCholesky` for this test and count
    its analyses: return the list of the nnz of each pattern analysed."""
    analysed = []

    class Counting(stokes._SymbolicPlan):
        def __init__(self, S, lines):
            super().__init__(S, lines)
            analysed.append(S.nnz)

    monkeypatch.setattr(stokes, "_SymbolicPlan", Counting)
    monkeypatch.setattr(stokes, "_plans", OrderedDict())
    return analysed


def test_uniform_geometry_meshes_share_one_plan(monkeypatch):
    # the Shishkin mesh of eps = 0.1 has tau = 1/2: its grid lines and the
    # pattern of S are those of the uniform mesh, at every eps
    analysed = counting_plans(monkeypatch)
    rows = (convergence_study([0.1], [16], "shishkin")
            + convergence_study([1e-3, 1e-6], [16], "uniform"))
    assert analysed == [19049]
    assert [row["nnz"] for row in rows] == [19049] * 3


def test_layer_meshes_analyse_each_pattern(monkeypatch):
    # on layer meshes the roundoff entries dropped from S depend on eps, so
    # the patterns differ although the grids match
    analysed = counting_plans(monkeypatch)
    convergence_study([1e-3, 1e-6, 1e-3], [16], "shishkin")
    assert analysed == [21737, 19843]


def test_study_analyses_each_pattern_once(monkeypatch):
    # the solves of one N run together, so a uniform study reuses each N's
    # plan at every eps, whatever the number of N against PLAN_CACHE
    analysed = counting_plans(monkeypatch)
    Ns = list(range(2, 2 * stokes.PLAN_CACHE + 4, 2))
    rows = convergence_study([0.1, 1e-2], Ns, "uniform")
    assert analysed == [row["nnz"] for row in rows[:len(Ns)]]
    assert [row["nnz"] for row in rows[len(Ns):]] == analysed
    # the rows and their rates are those of one study per eps
    assert rows == (convergence_study([0.1], Ns, "uniform")
                    + convergence_study([1e-2], Ns, "uniform"))


def test_reused_plan_gives_the_fresh_factor(monkeypatch):
    S, coords = stream_system(monkeypatch, "shishkin", 16)
    analysed = counting_plans(monkeypatch)
    fresh = stokes._StreamCholesky(S, coords)
    reused = stokes._StreamCholesky(S, coords)
    assert analysed == [S.nnz]
    assert np.array_equal(reused.perm, fresh.perm) and reused.nnz == fresh.nnz
    for a, b in zip(reused.fronts, fresh.fronts, strict=True):
        assert a[:2] == b[:2] and all(np.array_equal(x, y)
                                      for x, y in zip(a[2:], b[2:]))


def test_plan_cache_is_bounded(monkeypatch):
    systems = [stream_system(monkeypatch, "uniform", N)
               for N in range(2, 2 * stokes.PLAN_CACHE + 4, 2)]
    analysed = counting_plans(monkeypatch)
    for S, coords in systems + systems[-1:] + systems[:1]:
        stokes._StreamCholesky(S, coords)
        assert len(stokes._plans) <= stokes.PLAN_CACHE
    # the newest pattern is reused, the oldest was dropped and is analysed
    # again
    assert analysed == [S.nnz for S, _ in systems + systems[:1]]


def test_matrix_symmetry(case01):
    space = DGSpace(build_uniform(4))
    A, _, _ = assemble(space, case01, 10.0)
    diff = (A - A.T).toarray()
    assert np.max(np.abs(diff)) <= 1e-12


def test_coercivity_smoke():
    space = DGSpace(build_uniform(2))
    A, _, _ = assemble(space, zero_case(), 10.0)
    free = space.free_dofs
    Ad = A[free][:, free].toarray()
    rng = np.random.default_rng(0)
    for _ in range(50):
        v = rng.standard_normal(Ad.shape[0])
        assert v @ Ad @ v > 0


def test_zero_data_zero_solution():
    space = DGSpace(build_uniform(4))
    sol = solve(space, zero_case(), 10.0)
    assert np.max(np.abs(sol.vel_dofs)) == 0.0
    assert np.max(np.abs(sol.pressure)) == 0.0


def test_linear_solution_reproduced_exactly():
    space = DGSpace(build_uniform(4))
    sol = solve(space, linear_case(), 6.0)
    eu, _ = errors(sol, linear_case())
    assert eu < 1e-12
    assert np.max(np.abs(sol.elementwise_divergence())) < 1e-12


def test_invalid_gamma():
    space = DGSpace(build_uniform(2))
    with pytest.raises(ValueError):
        assemble(space, zero_case(), -1.0)


def test_solution_structure(case01):
    space = DGSpace(build_uniform(8))
    sol = solve(space, case01, 4.0)
    assert sol.stats["residual"] <= 1e-10
    assert np.max(np.abs(sol.elementwise_divergence())) <= 1e-12
    assert sol.max_normal_jump() <= 1e-12
    mean = float(np.dot(space.areas, sol.pressure))
    assert abs(mean) <= 1e-12
    assert space.ndof == 8 * 64 + 4 * 8


@pytest.mark.parametrize("kind, N, case", [
    ("uniform", 8, "manufactured"),
    ("shishkin", 16, "manufactured"),
    ("uniform", 4, "linear"),
    ("shishkin", 8, "linear"),
])
def test_stream_function_solve_matches_direct_solve(kind, N, case):
    # the divergence-free-subspace solve against a direct solve of the
    # saddle-point system itself, in velocity DOFs and pressure
    case = manufactured_case(0.1) if case == "manufactured" else linear_case()
    mesh, _ = study_mesh(kind, N, 0.1)
    space = DGSpace(mesh)
    gamma = penalty(mesh_aspect_ratio(mesh))
    K, rhs = saddle_point_system(space, case, gamma)
    free_ids = space.free_dofs
    x = spla.spsolve(K, rhs)
    sol = solve(space, case, gamma)
    n = len(free_ids)
    for got, want in ((sol.vel_dofs[free_ids], x[:n]),
                      (sol.pressure * space.areas, x[n:n + space.n_tri])):
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)
    assert abs(x[-1]) <= 1e-12     # the multiplier the solve leaves out
    # the reported residual is that of the saddle-point system at the
    # solver's own solution
    y = np.concatenate([sol.vel_dofs[free_ids], sol.pressure * space.areas,
                        [0.0]])
    want = np.linalg.norm(K @ y - rhs) / np.linalg.norm(rhs)
    assert abs(sol.stats["residual"] - want) <= 1e-14


def test_stream_function_solve_residual_after_refinement():
    # about 3e-14 with the refinement step and 4e-13 without it
    case = manufactured_case(0.1)
    mesh, _ = study_mesh("shishkin", 32, 0.1)
    sol = solve(DGSpace(mesh), case, penalty(mesh_aspect_ratio(mesh)))
    assert sol.stats["residual"] <= 1e-13


def test_max_normal_jump_matches_per_facet_reference():
    # discontinuous random fields: the batched jump must equal a per-facet
    # evaluation of each side's linear velocity
    space = DGSpace(build_uniform(4))
    coeffs = np.random.default_rng(1).standard_normal((space.n_tri, 6))
    sol = StokesSolution(space, None, coeffs, None, {})
    ts = np.array([0.25, 0.75])
    worst = 0.0
    for i in space.interior:
        pts = space.facet_p0[i] + ts[:, None] * space.facet_tangent[i]
        normal = []
        for t in (space.facet_left[i], space.facet_right[i]):
            c, (x, y) = coeffs[t], (pts - space.centers[t]).T
            u = np.column_stack([c[0] + c[1] * x + c[2] * y,
                                 c[3] + c[4] * x + c[5] * y])
            normal.append(u @ space.facet_n[i])
        worst = max(worst, float(np.max(np.abs(normal[0] - normal[1]))))
    assert worst > 0.1
    assert abs(sol.max_normal_jump() - worst) <= 1e-14 * worst


def test_gamma_doubling_effect_recorded(case01):
    # robustness smoke data, recorded rather than gated
    space = DGSpace(build_uniform(8))
    e1 = errors(solve(space, case01, 8.0), case01)
    e2 = errors(solve(space, case01, 16.0), case01)
    rel = abs(e2[0] - e1[0]) / e1[0]
    print(f"gamma doubling changed the gradient error by {rel:.1%}")
    assert e1[0] > 0 and e2[0] > 0


def interpolate_exact_solution(space, case):
    """Baseline: velocity from edge moments of the exact solution, pressure
    from elementwise means; an interpolation-error yardstick."""
    vel = space.edge_moments(case.boundary_g, np.arange(space.n_facets), 6)
    coeffs = np.einsum("tbj,tj->tb", space.coeff_from_dofs,
                       vel[space.tri_dof_ids])
    phys, wts = space.triangle_quad(8, np.arange(space.n_tri))
    pvals = eval_field(case.p, phys.reshape(-1, 2)).reshape(space.n_tri, -1)
    pressure = (np.sum(wts * (pvals - case.pressure_mean), axis=1)
                / np.sum(wts, axis=1))
    return StokesSolution(space, vel, coeffs, pressure, {"kind": "interpolant"})


def test_interpolant_baseline_matches_direct_computation(case01):
    space = DGSpace(build_uniform(8))
    base = interpolate_exact_solution(space, case01)
    eu, ep = errors(base, case01)
    # independent recomputation of the broken H1 distance for the same fields
    phys, wts = space.triangle_quad(8, np.arange(space.n_tri))
    flat = phys.reshape(-1, 2)
    total = 0.0
    gh = np.stack([base.coeffs[:, 1], base.coeffs[:, 2],
                   base.coeffs[:, 4], base.coeffs[:, 5]], axis=1)
    for pos, (comp, axis) in enumerate(((0, 0), (0, 1), (1, 0), (1, 1))):
        exact = eval_field(case01.grad_u[comp][axis], flat).reshape(
            space.n_tri, -1)
        total += float(np.sum(wts * (exact - gh[:, pos][:, None]) ** 2))
    assert abs(math.sqrt(total) - eu) < 1e-14


# -- study -------------------------------------------------------------------------

def test_study_row_count_and_csv(tmp_path):
    rows = convergence_study([0.5, 0.1], [2, 4], "uniform")
    assert len(rows) == 4
    out = tmp_path / "study.csv"
    study_to_csv(rows, out)
    lines = out.read_text().splitlines()
    assert lines[0] == ("epsilon,mesh_kind,N,ndof,tau,sigma,gamma,"
                        "err_grad_u,err_p,rate_u,rate_p,"
                        "div_max,jump_max,residual")
    assert len(lines) == 5


def test_study_rates_improve_with_refinement():
    rows = convergence_study([0.5], [4, 8, 16], "uniform")
    errs = [r["err_grad_u"] for r in rows]
    assert errs[2] < errs[1] < errs[0]
    assert rows[2]["rate_u"] > 0.5


def test_study_rates_are_per_doubling_of_n():
    # a step of N from 4 to 16 is two doublings: its rate is the mean of
    # the two doubling rates, and a decreasing N gives the same rate
    steps = convergence_study([0.5], [4, 8, 16], "uniform")
    want = [(steps[1][r] + steps[2][r]) / 2 for r in ("rate_u", "rate_p")]
    for N_list in ([4, 16], [16, 4]):
        last = convergence_study([0.5], N_list, "uniform")[1]
        assert last["rate_u"] == pytest.approx(want[0], rel=1e-12)
        assert last["rate_p"] == pytest.approx(want[1], rel=1e-12)


# (err_grad_u, err_p, sigma, gamma, ndof, factor_nnz) of study rows; the
# errors were recorded while the uniform mesh was exact and the pressure
# came from the normal equations, the factor sizes with the nested-
# dissection Cholesky (one dense leaf holds all 121 unknowns at N = 6).
# The N that are not powers of two guard the float mesh.
PINNED_STUDY = {
    ("shishkin", 0.1, 6): (0.015194929093341686, 0.07912189634720651, 2.4142135623730954, 4, 312, 7381),
    ("shishkin", 0.1, 8): (0.013318643502519814, 0.06190944986497198, 2.4142135623730954, 4, 544, 14004),
    ("shishkin", 0.1, 10): (0.011658539027480404, 0.05060547514746988, 2.4142135623730954, 4, 840, 32248),
    ("shishkin", 0.1, 16): (0.008139824612129384, 0.03244343067314929, 2.4142135623730954, 4, 2112, 95923),
    ("uniform", 1e-3, 6): (0.009347306040953615, 0.012136181998600053, 2.4142135623730954, 4, 312, 7381),
    ("uniform", 1e-3, 8): (0.005302205430411261, 0.012723526249301335, 2.4142135623730954, 4, 544, 14004),
    ("uniform", 1e-3, 10): (0.001089265802401953, 0.015089920244209507, 2.4142135623730954, 4, 840, 32248),
    ("uniform", 1e-3, 16): (0.00592746190202546, 0.019470429106804545, 2.4142135623730954, 4, 2112, 95923),
}


@pytest.mark.parametrize("kind, eps", [("shishkin", 0.1), ("uniform", 1e-3)])
def test_study_matches_pinned_rows(kind, eps):
    for row in convergence_study([eps], [6, 8, 10, 16], kind):
        err_u, err_p, sigma, gamma, ndof, factor_nnz = PINNED_STUDY[
            kind, eps, row["N"]]
        assert (row["sigma"], row["gamma"], row["ndof"], row["factor_nnz"]) == (
            sigma, gamma, ndof, factor_nnz)
        assert abs(row["err_grad_u"] - err_u) <= 1e-12 * err_u
        assert abs(row["err_p"] - err_p) <= 1e-12 * err_p


def least_squares_pressure(space, case, gamma, u):
    """The oracle of the tree pressure: the area-scaled pressure of the
    velocity u from the normal equations of B^T p = rhs - A u on the free
    rows, one pressure pinned, shifted to zero sum."""
    A, B, rhs = assemble(space, case, gamma)
    B_f = B[:, space.free_dofs]
    p = np.zeros(space.n_tri)
    p[1:] = spla.splu((B_f @ B_f.T).tocsc()[1:, 1:]).solve(
        (B_f @ (rhs - A @ u)[space.free_dofs])[1:])
    return p - space.areas * (p.sum() / space.areas.sum())


@pytest.mark.parametrize("kind, N, case", [
    ("shishkin", 8, "manufactured"), ("shishkin", 16, "manufactured"),
    ("uniform", 8, "manufactured"), ("uniform", 16, "manufactured"),
    ("uniform", 8, "linear"), ("shishkin", 8, "linear"),
])
def test_tree_pressure_matches_least_squares(kind, N, case):
    # On layer meshes the pressure itself is fixed only to 1e-13..1e-7
    # relative: this solve, the least-squares one and a pivoted LU of the
    # saddle-point system differ by that much (up to 6.5e-8 at Shishkin
    # eps = 1e-6, N = 8), so the comparison runs on the eps = 0.1 meshes
    case = manufactured_case(0.1) if case == "manufactured" else linear_case()
    mesh, _ = study_mesh(kind, N, 0.1)
    space = DGSpace(mesh)
    gamma = penalty(mesh_aspect_ratio(mesh))
    sol = solve(space, case, gamma)
    want = least_squares_pressure(space, case, gamma, sol.vel_dofs)
    got = sol.pressure * space.areas
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
