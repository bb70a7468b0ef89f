"""Acceptance gate: one test per criterion, each printing a PASS line with
its runtime (run with -v -s to watch).  Exact-arithmetic criteria compare
Fractions with zero tolerance; float criteria use the stated bounds."""

import math
import random
import time
from fractions import Fraction

import numpy as np

from bdmlab.bdm import build_element
from bdmlab.checks import (check_counterexample_2d, check_counterexample_3d,
                           check_dof_variants, check_structural_lemmas)
from bdmlab.estimates import (T1_FAMILY, l2_norm, random_divfree_field,
                              rhs_mac, sweep)
from bdmlab.geometry import Simplex, max_angle
from bdmlab.shishkin import (aspect_ratio, build_shishkin, mesh_aspect_ratio,
                             transition_point)
from bdmlab.stokes import (DGSpace, convergence_study, errors,
                           manufactured_case, penalty, solve, study_mesh)

from test_estimates import MAC_RATIO_CAP, random_field, random_mac_simplex
from test_shishkin import triangle_area, triangle_points

F = Fraction


def _report(n, label, t0, budget):
    elapsed = time.monotonic() - t0
    assert elapsed < budget, f"criterion {n} exceeded its {budget}s budget"
    print(f"\nACCEPTANCE {n} ({label}): PASS in {elapsed:.2f}s")


def test_criterion_1_golden_interpolants():
    t0 = time.monotonic()
    res = check_dof_variants()
    assert res.passed, "\n".join(res.lines)
    _report(1, "golden order-2 interpolants, both DOF conventions", t0, 1.0)


def test_criterion_2_counterexample_2d():
    t0 = time.monotonic()
    res = check_counterexample_2d()
    assert res.passed, "\n".join(res.lines)
    assert res.lines[-1].endswith(": diverging")
    _report(2, "2D norm identities and diverging sweep", t0, 1.0)


def test_criterion_3_counterexample_3d():
    t0 = time.monotonic()
    res = check_counterexample_3d()
    assert res.passed, "\n".join(res.lines)
    assert res.lines[-1].endswith(": diverging")
    _report(3, "3D golden interpolant, exact identity, diverging sweep", t0, 5.0)


def test_criterion_4_projection_property():
    t0 = time.monotonic()
    rng = random.Random(20260811)
    plan = {(2, 1): 40, (2, 2): 40, (2, 3): 35, (3, 1): 40, (3, 2): 30,
            (3, 3): 15}
    assert sum(plan.values()) == 200
    checked = 0
    for (dim, k), count in plan.items():
        elements = [build_element(random_mac_simplex(dim, rng), k)
                    for _ in range(2)]
        for i in range(count):
            w = random_field(dim, k, rng)
            assert elements[i % 2].interpolate(w) == w
            checked += 1
    assert checked == 200
    # variant agreement at lowest order, exact
    for dim in (2, 3):
        s = random_mac_simplex(dim, rng)
        a = build_element(s, 1, "nedelec")
        b = build_element(s, 1, "bdm_original")
        for _ in range(5):
            w = random_field(dim, 2, rng)
            assert a.interpolate(w) == b.interpolate(w)
    _report(4, "200 exact projections + variant agreement", t0, 30.0)


def test_criterion_5_structural_lemmas():
    t0 = time.monotonic()
    res = check_structural_lemmas()
    assert res.passed, "\n".join(res.lines)
    _report(5, "structural lemmas on both reference elements", t0, 30.0)


def test_criterion_6_anisotropic_stability():
    t0 = time.monotonic()
    rng = random.Random(7)
    # directional-form error ratio stays put over six orders of anisotropy
    for trial in range(3):
        v = random_divfree_field(3, rng)
        grid = [(1, 1, 10 ** j) for j in range(0, 7)]
        result = sweep(T1_FAMILY, v, "interpolation_rvp", grid, k=1, m=1)
        ratios = [r.ratio for r in result.reports]
        assert max(ratios) / min(ratios) < 10, f"trial {trial}: {ratios}"
    # diameter-form ratio bounded over 100 random angle-capped simplices
    for dim, n_simplices in ((2, 50), (3, 50)):
        for _ in range(n_simplices):
            s = random_mac_simplex(dim, rng)
            for k in (1, 2):
                el = build_element(s, k)
                v = random_field(dim, k + 1, rng)
                err = l2_norm(v - el.interpolate(v), s)
                for m in range(k + 1):
                    rhs = sum(val for _, val in rhs_mac(v, s, m))
                    assert err <= MAC_RATIO_CAP * rhs
    _report(6, "stability ratios bounded (directional and diameter forms)",
            t0, 60.0)


def test_criterion_7_shishkin_mesh():
    t0 = time.monotonic()
    tau = transition_point(F(1, 100), "base10")
    assert tau == F(3, 50)
    for N in (8, 16):
        mesh = build_shishkin(N, tau)
        assert mesh.n_triangles == 2 * N * N
        assert sum(triangle_area(mesh, t) for t in range(mesh.n_triangles)) == 1
        for t in range(mesh.n_triangles):
            pts = triangle_points(mesh, t)
            # two axis-aligned legs: exact right angle in rational arithmetic
            legs = 0
            for i in range(3):
                a, b = pts[i], pts[(i + 1) % 3]
                if a[0] == b[0] or a[1] == b[1]:
                    legs += 1
            assert legs == 2
            s = Simplex(tuple(tuple(float(c) for c in p) for p in pts))
            assert abs(max_angle(s) - math.pi / 2) < 1e-12
    sigma = aspect_ratio(F(3, 50))
    assert abs(sigma - 8.93) <= 0.05
    mesh = build_shishkin(8, tau)
    assert abs(mesh_aspect_ratio(mesh) - sigma) < 1e-10
    _report(7, "layer mesh counts, exact area, aspect ratio 8.93", t0, 30.0)


def _run(kind, N, eps, tau_convention="natural", penalty_convention="natural"):
    if kind == "uniform":
        mesh, tau = study_mesh("uniform", N, eps)
    else:
        tau = transition_point(eps, tau_convention)
        mesh = build_shishkin(N, tau)
    sigma = mesh_aspect_ratio(mesh)
    gamma = penalty(sigma, penalty_convention)
    space = DGSpace(mesh)
    case = manufactured_case(eps)
    sol = solve(space, case, gamma)
    err_u, err_p = errors(sol, case)
    assert float(np.max(np.abs(sol.elementwise_divergence()))) <= 1e-12
    assert sol.max_normal_jump() <= 1e-12
    return err_u, err_p


def test_criterion_8_stokes_convergence():
    t0 = time.monotonic()
    # optimal first-order rates on the layer-adapted meshes at eps = 0.1
    rows = convergence_study([0.1], [8, 16, 32, 64], "shishkin")
    for row in rows:
        assert row["div_max"] <= 1e-12
        assert row["jump_max"] <= 1e-12
    assert rows[-1]["rate_u"] >= 0.9, rows[-1]
    assert rows[-1]["rate_p"] >= 0.9, rows[-1]

    # eps = 0.01, N = 32: the layer-adapted mesh beats the uniform one by 5x
    # in both errors (mesh from the published-figure base-10 transition
    # point; penalty from the default natural-log convention)
    eu_uni, ep_uni = _run("uniform", 32, 0.01)
    eu_shi, ep_shi = _run("shishkin", 32, 0.01, tau_convention="base10")
    assert eu_uni >= 5.0 * eu_shi, (eu_uni, eu_shi)
    assert ep_uni >= 5.0 * ep_shi, (ep_uni, ep_shi)

    # eps = 1e-3: uniform meshes stay sub-optimal while the layer is
    # unresolved
    rows = convergence_study([1e-3], [8, 16, 32, 64], "uniform")
    assert rows[-1]["rate_u"] < 0.9
    for row in rows:
        assert row["div_max"] <= 1e-12
        assert row["jump_max"] <= 1e-12
    _report(8, "Stokes rates, layer-mesh advantage, exact divergence",
            t0, 300.0)
