import csv
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bdmlab
from bdmlab.checks import check_counterexample_2d
from bdmlab.cli import (MAX_FIELD_DEGREE, MAX_MESH_N, MAX_ORDER, MAX_POW,
                        MAX_QUAD_DEGREE, MIN_EPS_TAU, FieldSyntaxError,
                        build_parser, main, parse_field, parse_polynomial)
from fractions import Fraction

F = Fraction


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    manifest = json.loads(out.strip().splitlines()[-1])
    return code, out, manifest


# -- field parser ------------------------------------------------------------------

def test_parse_polynomial():
    p = parse_polynomial("x1**2 - 2*x2 + 1/3", 2)
    assert p.coeff((2, 0)) == 1
    assert p.coeff((0, 1)) == -2
    assert p.coeff((0, 0)) == F(1, 3)


def test_parse_field_component_count():
    with pytest.raises(FieldSyntaxError):
        parse_field("x1, x2, x3", 2)


def test_parse_rejects_calls():
    with pytest.raises(FieldSyntaxError):
        parse_polynomial("__import__('os')", 2)
    with pytest.raises(FieldSyntaxError):
        parse_polynomial("x9", 2)


# -- subcommands --------------------------------------------------------------------

def test_verify_all_passes(capsys):
    code, out, manifest = run(capsys, ["verify", "all"])
    assert code == 0
    assert manifest["verdicts"] == {
        "counterexample-2d": "pass", "counterexample-3d": "pass",
        "dof-variants": "pass", "structural-lemmas": "pass"}
    assert "FAIL" not in out


def test_verify_counterexample_2d_prints_norms(capsys):
    code, out, _ = run(capsys, ["verify", "counterexample-2d"])
    assert code == 0
    assert "1/(24h) + h/24" in out
    assert "h=1/2" in out


def test_usage_error_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "nonsense-suite"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["mesh", "--frobnicate"])
    assert exc.value.code == 2


def test_interpolate_order_zero_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["interpolate", "--k", "0", "--field", "x1, 0"])
    assert exc.value.code == 2
    assert "--k" in capsys.readouterr().err


def test_sweep_order_zero_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--name", "counterexample-2d", "--k", "0"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["interpolate", "--ref", "tet", "--field", "x1, 0, 0"],
    ["sweep", "--name", "rvp-bounded"],
])
def test_order_above_cap_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--k", str(MAX_ORDER + 1)])
    assert exc.value.code == 2
    assert "--k" in capsys.readouterr().err


@pytest.mark.parametrize("text", [
    "0 0\n1 1\n2 2\n",        # degenerate
    "0 0\n1 0\n",              # too few vertices
    "0 0\n1 x\n0 1\n",        # not a number
    "0 0\n1 0\n0 nan\n",      # not a finite number
    "0 0\n1 inf\n0 1\n",
    "0 0\n1 0\n0 1e400\n",    # overflows to inf as a float
    "",                         # no vertices
    "0 0 0\n1 0\n0 1 0\n0 0 1\n",   # a vertex short of a coordinate
    "0 0\n1 0 5\n0 1\n",      # a vertex with an extra coordinate
    "0 0\n1/0 0\n0 1\n",      # zero denominator
    None,                       # missing file
])
def test_interpolate_bad_simplex_file_exit_2(text, tmp_path, capsys):
    path = tmp_path / "simplex.txt"
    if text is not None:
        path.write_text(text)
    with pytest.raises(SystemExit) as exc:
        main(["interpolate", "--simplex", str(path), "--field", "x1, 0"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--simplex" in err and "Traceback" not in err


def test_interpolate_integer_simplex_file_is_exact(tmp_path, capsys):
    # integer coordinates are exact: the file gives the --ref tri interpolant
    path = tmp_path / "simplex.txt"
    path.write_text("0 0\n1 0\n0 1\n")
    field = ["--k", "2", "--field", "0, x1**3"]
    _, _, from_file = run(capsys, ["interpolate", "--simplex", str(path)] + field)
    _, _, reference = run(capsys, ["interpolate", "--ref", "tri"] + field)
    assert from_file["interpolant"] == reference["interpolant"]
    assert from_file["interpolant"][1] == "1/20 + -3/5*x1 + 3/2*x1^2"


# (decimal tokens, the same simplex in p/q tokens)
DECIMAL_SIMPLEX_FILES = [
    ("0.5 0\n2 0.25\n0 1.5\n", "1/2 0\n2 1/4\n0 3/2\n"),
    ("0.1 0.2\n1.3 0.1\n0.2 1.1\n", "1/10 1/5\n13/10 1/10\n1/5 11/10\n"),
    ("0 0\n1 0\n0 1e-300\n", f"0 0\n1 0\n0 1/{10 ** 300}\n"),
    ("0 0\n1 0\n0 1e200\n", f"0 0\n1 0\n0 {10 ** 200}/1\n"),
]


def test_interpolate_decimal_simplex_file_matches_exact(tmp_path, capsys):
    # a decimal token is the decimal it spells, tiny and huge ones included
    field = ["--k", "2", "--variant", "bdm_original", "--field", "x2**2, x1**3"]
    for decimal, rational in DECIMAL_SIMPLEX_FILES:
        results = []
        for name, text in (("decimal", decimal), ("rational", rational)):
            path = tmp_path / f"{name}.txt"
            path.write_text(text)
            code, _, manifest = run(capsys, ["interpolate", "--simplex", str(path)]
                                    + field)
            assert code == 0
            results.append(manifest["interpolant"])
        assert results[0] == results[1]


def test_interpolate_decimal_simplex_file_bdm_original(tmp_path, capsys):
    # one-decimal tokens are not binary fractions: Q_2 must keep its member
    path = tmp_path / "simplex.txt"
    path.write_text("0.1 0.2\n1.3 0.1\n0.2 1.1\n")
    code, _, manifest = run(capsys, [
        "interpolate", "--simplex", str(path), "--variant", "bdm_original",
        "--k", "2", "--field", "x2**2, x1**3"])
    assert code == 0
    assert manifest["ndofs"] == 12


@pytest.mark.parametrize("argv, option", [
    (["mesh", "--N", "8", "--tau", "abc"], "--tau"),
    (["mesh", "--N", "8", "--tau", "1/0"], "--tau"),
    (["mesh", "--N", "8", "--tau", "2"], "--tau"),
    (["mesh", "--N", "5"], "--N"),
    (["mesh", "--N", "8", "--eps", "0"], "--eps"),
    (["stokes", "--eps", "0.1", "--N", "3"], "--N"),
    (["stokes", "--eps", "0.1", "--N", "8", "--N", "0"], "--N"),
    (["stokes", "--eps", "2", "--N", "4"], "--eps"),
    (["stokes", "--eps", "0.1", "--N", "4", "--gamma", "-1"], "--gamma"),
    (["mesh", "--N", str(MAX_MESH_N + 2)], "--N"),
    (["stokes", "--eps", "0.1", "--N", "4", "--N", str(MAX_MESH_N + 2)],
     "--N"),
    # eps read as a fraction with denominator <= 10^12: 0 at and below
    # 5e-13 (a ZeroDivisionError), 1e-12 just above (another eps solved)
    (["stokes", "--eps", "4e-13", "--N", "2"], "--eps"),
    (["stokes", "--eps", "1e-300", "--N", "2"], "--eps"),
    (["stokes", "--eps", "6e-13", "--N", "2"], "--eps"),
    (["stokes", "--eps", "0.1", "--eps", "6e-13", "--N", "2"], "--eps"),
    # the same floor on `mesh`: tau = 3 eps |log eps| made the closed-form
    # aspect ratio divide by zero at 1e-20 and sigma_mesh infinite at
    # 1e-18, and a --tau of 1e-20 became 0 (a non-conforming mesh)
    (["mesh", "--N", "4", "--eps", "1e-20"], "--eps"),
    (["mesh", "--N", "4", "--eps", "1e-18"], "--eps"),
    (["mesh", "--N", "4", "--tau", "1/100000000000000000000"], "--tau"),
    # above 1/2 the layer column is not the thinnest: sigma misstated it
    (["mesh", "--N", "2", "--tau", "9/10"], "--tau"),
])
def test_mesh_and_stokes_bad_input_exit_2(argv, option, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert option in capsys.readouterr().err


@pytest.mark.parametrize("kind", [["--uniform"], ["--kind", "uniform"]])
def test_mesh_uniform_rejects_tau(kind, capsys):
    # the uniform mesh has its transition at 1/2: a --tau would be echoed
    # in the manifest but not used
    with pytest.raises(SystemExit) as exc:
        main(["mesh", *kind, "--N", "4", "--tau", "1/3"])
    assert exc.value.code == 2
    assert "--tau" in capsys.readouterr().err


@pytest.mark.parametrize("field", [
    "x1**(10**6), 0",           # exponent far past the degree cap
    "(x1**7)**2, 0",            # degree past the cap through nested powers
    "x1**7 * x2**7, 0",         # degree past the cap through a product
    "((10**12)**12)**12, 0",    # coefficient size past the cap
    "x1**-1, 0",
    "1/0, x1",
    # nesting deeper than the parser's or the evaluator's stack
    pytest.param("+".join(["x1"] * 2000) + ", 0", id="long-sum"),
    pytest.param("-" * 3000 + "x1, 0", id="3000-signs"),
    pytest.param("-" * 100000 + "x1, 0", id="100000-signs"),
])
def test_interpolate_unbounded_field_exit_2(field, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["interpolate", "--k", "1", "--field", field])
    assert exc.value.code == 2
    assert "error" in capsys.readouterr().err


def test_parse_accepts_fields_at_the_caps():
    p = parse_polynomial(f"x1**{MAX_FIELD_DEGREE} + (1/2)**-3", 2)
    assert p.degree == MAX_FIELD_DEGREE
    assert p.coeff((0, 0)) == 8


@pytest.mark.parametrize("argv, option", [
    (["stokes", "--eps", "0.1", "--N", "4", "--quad-degree", "-3"],
     "--quad-degree"),
    (["stokes", "--eps", "0.1", "--N", "4", "--quad-degree",
      str(MAX_QUAD_DEGREE + 1)], "--quad-degree"),
    (["interpolate", "--mode", "float", "--field", "x1, 0", "--quad-degree",
      "-1"], "--quad-degree"),
    (["interpolate", "--mode", "float", "--field", "x1, 0", "--quad-degree",
      str(MAX_QUAD_DEGREE + 1)], "--quad-degree"),
    (["sweep", "--name", "counterexample-2d", "--pow-min", "-1"], "--pow-min"),
    (["sweep", "--name", "counterexample-2d", "--pow-min", "5",
      "--pow-max", "2"], "--pow-min"),
    (["sweep", "--name", "rvp-bounded", "--pow-max", "-1"], "--pow-max"),
    (["sweep", "--name", "rvp-bounded", "--pow-max", str(MAX_POW + 1)],
     "--pow-max"),
    (["sweep", "--name", "counterexample-3d", "--pow-min", str(MAX_POW + 1),
      "--pow-max", str(MAX_POW + 1)], "--pow-min"),
    # exact mode integrates exactly: the degree would be echoed, not used
    (["interpolate", "--field", "x1, 0", "--quad-degree", "4"],
     "--quad-degree"),
])
def test_quad_degree_and_powers_out_of_range_exit_2(argv, option, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert option in capsys.readouterr().err


def test_options_at_their_caps(capsys):
    code, _, manifest = run(capsys, [
        "interpolate", "--mode", "float", "--field", "x1, x2**2",
        "--quad-degree", str(MAX_QUAD_DEGREE)])
    assert code == 0
    code, _, manifest = run(capsys, [
        "interpolate", "--mode", "float", "--field", "x1, 0",
        "--quad-degree", "0"])
    assert code == 0
    code, _, manifest = run(capsys, [
        "sweep", "--name", "counterexample-2d", "--pow-min", str(MAX_POW),
        "--pow-max", str(MAX_POW)])
    assert code == 0 and len(manifest["ratios"]) == 1


def test_mesh_size_cap_is_accepted_by_the_parser():
    parser = build_parser()
    assert parser.parse_args(["mesh", "--N", str(MAX_MESH_N)]).N == MAX_MESH_N
    args = parser.parse_args(["stokes", "--eps", "0.1", "--N", str(MAX_MESH_N)])
    assert args.N == [MAX_MESH_N]


@pytest.mark.parametrize("bounds, pow_min, h3", [
    (["--pow-max", "0"], 0, [1.0]),
    (["--pow-min", "2", "--pow-max", "3"], 2, [100.0, 1000.0]),
])
def test_rvp_bounded_honours_pow_min(bounds, pow_min, h3, tmp_path, capsys):
    path = tmp_path / "rvp.csv"
    code, _, manifest = run(capsys, [
        "sweep", "--name", "rvp-bounded", *bounds, "--out", str(path)])
    assert code == 0
    assert manifest["config"]["pow_min"] == pow_min
    with path.open() as fh:
        assert [float(row["h3"]) for row in csv.DictReader(fh)] == h3


def test_mesh_fig6(tmp_path, capsys):
    out_path = tmp_path / "mesh.txt"
    code, _, manifest = run(capsys, [
        "mesh", "--shishkin", "--N", "8", "--eps", "0.01",
        "--log", "base10", "--out", str(out_path)])
    assert code == 0
    assert manifest["n_triangles"] == 128
    assert abs(manifest["sigma"] - 8.93) < 0.05
    header = out_path.read_text().splitlines()[0]
    assert header == "2 81 128"


def test_interpolate_golden(capsys):
    code, out, manifest = run(capsys, [
        "interpolate", "--ref", "tri", "--k", "2", "--field", "0, x1**3"])
    assert code == 0
    assert manifest["interpolant"][1] == "1/20 + -3/5*x1 + 3/2*x1^2"


def test_sweep_deterministic_csv(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        code, _, manifest = run(capsys, [
            "sweep", "--name", "rvp-bounded", "--pow-max", "3",
            "--seed", "42", "--out", str(path)])
        assert code == 0
        assert manifest["verdict"] == "bounded"
    assert a.read_bytes() == b.read_bytes()


# sha256 of each sweep preset's CSV at its default grid and seed
SWEEP_CSV_SHA256 = {
    "counterexample-2d":
        "5f433b9ba472ae1c019b4da43e8f43389a8c4d18bf8fce0838069c53db26b598",
    "counterexample-3d":
        "6a73cd829546ff5ef88b801356c8dbbd327c1ddcde6a841731a6674f81c5aebc",
    "rvp-bounded":
        "d2a5da6533ab5df542c5ce62eb9a665be6ad406603661b948e754d07bad8226c",
}


@pytest.mark.parametrize("name", sorted(SWEEP_CSV_SHA256))
def test_sweep_csvs_are_pinned(name, tmp_path, capsys):
    path = tmp_path / f"{name}.csv"
    code, _, _ = run(capsys, ["sweep", "--name", name, "--out", str(path)])
    assert code == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == \
        SWEEP_CSV_SHA256[name]


def test_sweep_counterexamples(capsys, tmp_path):
    code, _, manifest = run(capsys, [
        "sweep", "--name", "counterexample-2d", "--out",
        str(tmp_path / "c.csv")])
    assert code == 0 and manifest["verdict"] == "diverging"
    code, _, manifest = run(capsys, ["sweep", "--name", "counterexample-3d"])
    assert code == 0 and manifest["verdict"] == "diverging"


def test_verify_and_sweep_report_the_same_counterexample_2d_ratios(capsys):
    code, _, manifest = run(capsys, ["sweep", "--name", "counterexample-2d"])
    assert code == 0
    assert manifest["ratios"] == check_counterexample_2d().data["ratios"]


def test_stokes_accepts_the_smallest_eps(capsys):
    code, _, manifest = run(capsys, [
        "stokes", "--eps", str(MIN_EPS_TAU), "--N", "2"])
    assert code == 0
    assert manifest["rows"][0]["epsilon"] == MIN_EPS_TAU


@pytest.mark.parametrize("N", [2, 4, 6, 26, 110, 128, 256])
def test_mesh_at_the_smallest_eps_is_finite(N, capsys):
    code, _, manifest = run(capsys, [
        "mesh", "--N", str(N), "--eps", str(MIN_EPS_TAU)])
    assert code == 0
    sigma, sigma_mesh = manifest["sigma"], manifest["sigma_mesh"]
    assert math.isfinite(sigma) and math.isfinite(sigma_mesh)
    assert abs(sigma - sigma_mesh) <= 1e-10 * sigma


@pytest.mark.parametrize("field, message", [
    # 2^1023 is a float, but its quadrature moments overflow: the
    # interpolant was printed as nan with exit code 0
    (f"{2 ** 1023}, {2 ** 1023}", "finite"),
    # a 1024-bit coefficient is past the largest float: an OverflowError
    (f"{2 ** 1024 - 1}, 0", "too large"),
])
def test_interpolate_float_overflow_exit_2(field, message, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["interpolate", "--mode", "float", "--field", field])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def test_stokes_subcommand(tmp_path, capsys):
    out_path = tmp_path / "study.csv"
    code, _, manifest = run(capsys, [
        "stokes", "--eps", "0.5", "--N", "2", "--N", "4",
        "--out", str(out_path)])
    assert code == 0
    assert len(manifest["rows"]) == 2
    assert out_path.exists()
    # the factor's fill is in the manifest, not in the CSV
    fills = [row["lu_nnz"] for row in manifest["rows"]]
    assert all(isinstance(n, int) for n in fills) and 0 < fills[0] < fills[1]
    assert "lu_nnz" not in out_path.read_text().splitlines()[0]


def test_stokes_csv_deterministic(tmp_path, capsys):
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for path in paths:
        code, _, _ = run(capsys, [
            "stokes", "--eps", "0.5", "--N", "2", "--out", str(path)])
        assert code == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_verify_failure_exits_1(capsys, monkeypatch):
    from bdmlab import checks
    from bdmlab.checks import CheckResult

    def failing():
        return CheckResult("always-fails", False, ["[FAIL] forced"])

    monkeypatch.setitem(checks.ALL_CHECKS, "always-fails", failing)
    code, out, manifest = run(capsys, ["verify", "always-fails"])
    assert code == 1
    assert manifest["verdicts"] == {"always-fails": "fail"}
    assert "FAIL" in out


def test_stokes_contract_failure_exits_1(capsys, monkeypatch):
    from bdmlab import stokes

    real = stokes.convergence_study

    def above_residual_bound(*args, **kwargs):
        rows = real(*args, **kwargs)
        rows[-1]["residual"] = 1e-8
        return rows

    code, _, manifest = run(capsys, ["stokes", "--eps", "0.5", "--N", "2"])
    assert code == 0
    assert manifest["rows"][0]["residual"] <= 1e-10
    monkeypatch.setattr(stokes, "convergence_study", above_residual_bound)
    code, _, manifest = run(capsys, ["stokes", "--eps", "0.5", "--N", "2"])
    assert code == 1
    assert manifest["rows"][0]["residual"] == 1e-8


def loaded_modules(code):
    """The names in sys.modules after a fresh interpreter runs `code`."""
    env = dict(os.environ,
               PYTHONPATH=str(Path(bdmlab.__file__).resolve().parents[1]))
    script = f"{code}\nimport sys\nprint(*sys.modules)"
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True).stdout
    return set(out.splitlines()[-1].split())


def test_only_stokes_loads_scipy():
    # the package root imports nothing, and only `stokes` needs scipy,
    # whose import took more than half of an exact CLI call's wall time
    bare = loaded_modules("import bdmlab")
    assert "bdmlab" in bare
    assert not [m for m in bare
                if m.startswith(("bdmlab.", "numpy.")) or m == "numpy"]
    for argv in (["verify", "all"],
                 ["interpolate", "--ref", "tri", "--k", "2",
                  "--field", "x1**2, x2"]):
        mods = loaded_modules(f"from bdmlab.cli import main; main({argv!r})")
        assert "bdmlab.cli" in mods
        assert not [m for m in mods if m == "scipy" or m.startswith("scipy.")]
