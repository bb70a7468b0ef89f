"""The benchmark's own tests (slow: one traced run per workload, a few
minutes in all).

    PYTHONPATH=src python3 -m pytest -q perfbench/selftest.py
"""

import gzip
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import worker  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 3

# The span behind each per-layer metric and the workload meant to stress it.
STRESSED_BY = {
    "polynomials.compose_affine": "exact_interp",
    "polynomials.integrate_reference": "exact_interp",
    "linalg.solve": "estimate_sweep",
    "linalg.nullspace": "exact_interp",
    "linalg.invert": "exact_interp",
    "spaces.integrate_poly": "estimate_sweep",
    "spaces.basis_qk": "exact_interp",
    "spaces.basis_nk": "exact_interp",
    "quadrature.map_rule": "estimate_sweep",
    "quadrature.simplex_rule": "stokes_study",
    "quadrature.gauss_01": "stokes_study",
    "geometry.facet_chart": "estimate_sweep",
    "geometry.scaled_facet_normal": "estimate_sweep",
    "bdm.build": "exact_interp",
    "bdm.moment_apply": "exact_interp",
    "bdm.interpolate": "exact_interp",
    "bdm.field_from_dofs": "exact_interp",
    "estimates.l2_norm": "estimate_sweep",
    "estimates.abs_derivative_sum_norm": "estimate_sweep",
    "estimates.rvp_terms": "estimate_sweep",
    "estimates.rhs_mac": "estimate_sweep",
    "checks.dof-variants": "exact_interp",
    "checks.counterexample-2d": "exact_interp",
    "checks.counterexample-3d": "exact_interp",
    "checks.structural-lemmas": "exact_interp",
    "cli.main": "exact_interp",
    "shishkin.build_shishkin": "stokes_study",
    "shishkin.build_facets": "stokes_study",
    "shishkin.mesh_aspect_ratio": "stokes_study",
    "stokes.DGSpace": "stokes_study",
    "stokes.assemble": "stokes_study",
    "stokes.spsolve": "stokes_study",
    "stokes.solve": "stokes_study",
    "stokes.errors": "stokes_study",
    "stokes.max_normal_jump": "stokes_study",
}
SPAN_OF = {"linalg.invert.max_bits": "linalg.invert",
           "stokes.unknowns": "stokes.assemble",
           "stokes.K_nnz": "stokes.assemble",
           "stokes.lu_nnz": "stokes.assemble",
           "stokes.residual_max": "stokes.solve",
           "stokes.div_max": "stokes.solve",
           "stokes.jump_max": "stokes.max_normal_jump"}


def span_of(metric):
    if metric in SPAN_OF:
        return SPAN_OF[metric]
    if metric.startswith("bdm.build_ms."):
        return "bdm.build"
    return metric.rsplit(".", 1)[0]


def test_tail_needs_ten_samples_above():
    assert worker.tail(list(range(1, 9))) == (100.0, 8)
    p, value = worker.tail(list(range(1, 141)))
    assert p == 90.0 and value == 126          # 14 samples above it
    p, value = worker.tail(list(range(1, 1001)))
    assert p == 99.0 and value == 990


def test_wrappers_reach_by_name_imports_and_are_removed():
    import importlib
    tracer = tracing.Tracer()
    before = {(m, a): getattr(importlib.import_module("bdmlab." + m), a)
              for m, a in tracing.REQUIRED_REBINDS}
    tracing.install(tracer)
    try:
        for (mod, attr), original in before.items():
            now = getattr(importlib.import_module("bdmlab." + mod), attr)
            assert getattr(now, "perfbench_span", None), f"{mod}.{attr} not wrapped"
            assert now.__wrapped__ is original
    finally:
        tracer.uninstall()
    for (mod, attr), original in before.items():
        assert getattr(importlib.import_module("bdmlab." + mod), attr) is original


def test_every_per_layer_metric_is_mapped():
    for m in SPEC["per_layer"]:
        if m["name"] != "trace.overhead_ratio":
            assert span_of(m["name"]) in STRESSED_BY, m["name"]


@pytest.fixture(scope="module")
def traced_runs():
    runs = {}
    for w in SPEC["workloads"]:
        name = w["name"]
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(SEED), "--seconds", "1", "--trace", "1"],
            cwd=ROOT, capture_output=True, text=True, timeout=180, check=True)
        lines = proc.stdout.strip().splitlines()
        info = json.loads(lines[-2])["info"]
        result = json.loads(lines[-1])
        with gzip.open(HERE / "out" / f"trace-{name}-seed{SEED}.json.gz", "rt") as fh:
            trace = json.load(fh)
        runs[name] = (info, result, trace)
    return runs


def test_traced_outputs_match_untraced(traced_runs):
    for name, (info, result, _) in traced_runs.items():
        assert info["digests_match"], name
        assert result["correct"] and result["failed"] == 0, name


def test_stressed_layers_are_called(traced_runs):
    for m in SPEC["per_layer"]:
        name = m["name"]
        if name == "trace.overhead_ratio":
            continue
        span = span_of(name)
        info, result, trace = traced_runs[STRESSED_BY[span]]
        assert trace["calls"].get(span, 0) > 0, (name, STRESSED_BY[span])
        if name.startswith("bdm.build_ms.") or name in (
                "stokes.unknowns", "stokes.K_nnz", "stokes.lu_nnz"):
            assert result["metrics"][name]["value"] > 0, name
