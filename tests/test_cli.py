import csv
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bdmlab
from bdmlab.bdm import VARIANTS, build_element
from bdmlab.checks import check_counterexample_2d
from bdmlab.cli import (MAX_FIELD_DEGREE, MAX_MESH_N, MAX_ORDER, MAX_POW,
                        MIN_EPS_TAU, FieldSyntaxError, build_parser, main,
                        parse_field, parse_polynomial)
from bdmlab.estimates import SWEEP_PRESETS
from bdmlab.geometry import Simplex, coord_to_token
from bdmlab.polynomials import Polynomial
from fractions import Fraction

from test_interpolant_digests import TET15
from test_moments import fields, simplices

F = Fraction


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    manifest = json.loads(out.strip().splitlines()[-1])
    return code, out, manifest


# -- field parser ------------------------------------------------------------------

def test_parse_polynomial():
    p = parse_polynomial("x1**2 - 2*x2 + 1/3", 2)
    assert p.terms == {(2, 0): 1, (0, 1): -2, (0, 0): F(1, 3)}


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


def test_interpolate_simplex_and_ref_exclusive(tmp_path, capsys):
    # --ref next to --simplex was ignored, and the manifest echoed the
    # default "tri" for a tetrahedron file
    path = tmp_path / "simplex.txt"
    path.write_text("0 0 0\n2 0 0\n0 3 0\n0 0 5\n")
    field = ["--field", "x1, 0, 0"]
    with pytest.raises(SystemExit) as exc:
        main(["interpolate", "--simplex", str(path), "--ref", "tet"] + field)
    assert exc.value.code == 2
    assert "not allowed with" in capsys.readouterr().err
    code, _, manifest = run(capsys, ["interpolate", "--simplex", str(path)]
                            + field)
    assert code == 0 and manifest["config"]["ref"] is None
    code, _, manifest = run(capsys, ["interpolate", "--field", "x1, 0"])
    assert code == 0 and manifest["config"]["ref"] == "tri"


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
    # 1e-18.  `mesh` takes no --tau: its transition point is computed, and
    # a --tau of 1e-20 became 0 (a non-conforming mesh)
    (["mesh", "--N", "4", "--eps", "1e-20"], "--eps"),
    (["mesh", "--N", "4", "--eps", "1e-18"], "--eps"),
    (["mesh", "--N", "4", "--tau", "1/100000000000000000000"], "--tau"),
    # a --tau above 1/2 made sigma misstate the mesh
    (["mesh", "--N", "2", "--tau", "9/10"], "--tau"),
    # the mesh kind has one way in, --kind
    (["mesh", "--shishkin", "--N", "4"], "--shishkin"),
    (["mesh", "--uniform", "--N", "4"], "--uniform"),
])
def test_mesh_and_stokes_bad_input_exit_2(argv, option, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert option in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["mesh", "--N", "4"],
    ["sweep", "--name", "counterexample-2d", "--pow-max", "2"],
    ["stokes", "--eps", "0.1", "--N", "4"],
])
def test_unwritable_out_exit_2_before_any_work(argv, tmp_path, monkeypatch,
                                               capsys):
    # an --out in a missing directory used to end the run, after the work,
    # on a FileNotFoundError (exit 1 with a traceback)
    import bdmlab.stokes

    def study(*args, **kwargs):
        raise AssertionError("the study ran")

    monkeypatch.setattr(bdmlab.stokes, "convergence_study", study)
    out = tmp_path / "missing" / "out.txt"
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--out" in err and "Traceback" not in err


def test_mesh_uniform_rejects_tau(capsys):
    # `mesh` takes no --tau for either kind; on the uniform mesh, whose
    # transition is at 1/2, it used to be echoed in the manifest but not
    # used
    with pytest.raises(SystemExit) as exc:
        main(["mesh", "--kind", "uniform", "--N", "4", "--tau", "1/3"])
    assert exc.value.code == 2
    assert "--tau" in capsys.readouterr().err


@pytest.mark.parametrize("options", [
    ["--eps", "0.5"], ["--log", "base10"], ["--eps", "0.5", "--log", "base10"],
    # the defaults of a layer mesh, given explicitly, are no exception
    ["--eps", "0.01"], ["--log", "natural"],
])
def test_mesh_uniform_rejects_layer_options(options, capsys):
    # the uniform mesh has no layer: it used to echo --eps and --log in
    # the manifest's config, and exit 0, without using either
    with pytest.raises(SystemExit) as exc:
        main(["mesh", "--kind", "uniform", "--N", "4"] + options)
    assert exc.value.code == 2
    assert options[0] in capsys.readouterr().err


def test_mesh_layer_options_default_on_shishkin(capsys):
    code, _, manifest = run(capsys, ["mesh", "--N", "4"])
    assert code == 0
    assert (manifest["config"]["eps"], manifest["config"]["log"]) == (
        0.01, "natural")
    code, _, manifest = run(capsys, ["mesh", "--kind", "uniform", "--N", "4"])
    assert code == 0 and manifest["tau"] == 0.5


@pytest.mark.parametrize("log", ["natural", "base10"])
def test_stokes_uniform_rejects_log(log, capsys):
    # the uniform mesh has no transition point: --log used to be echoed in
    # the manifest's config and exit 0, base10 giving the rows of natural
    with pytest.raises(SystemExit) as exc:
        main(["stokes", "--kind", "uniform", "--eps", "0.5", "--N", "2",
              "--log", log])
    assert exc.value.code == 2
    assert "--log" in capsys.readouterr().err


def test_stokes_log_defaults_on_shishkin(capsys):
    code, _, manifest = run(capsys, ["stokes", "--eps", "0.5", "--N", "2"])
    assert code == 0 and manifest["config"]["log"] == "natural"
    code, _, manifest = run(capsys, ["stokes", "--kind", "uniform", "--eps",
                                     "0.5", "--N", "2"])
    assert code == 0 and manifest["config"]["log"] is None


@pytest.mark.parametrize("field", [
    "x1**(10**6), 0",           # exponent far past the degree cap
    "(x1**7)**2, 0",            # degree past the cap through nested powers
    "x1**7 * x2**7, 0",         # degree past the cap through a product
    "((10**12)**12)**12, 0",    # coefficient size past the cap
    pytest.param(f"{2 ** 1024}, 0", id="literal-past-the-cap"),
    "x1**-1, 0",
    "1/0, x1",
    # nesting deeper than the parser's or the evaluator's stack
    pytest.param("+".join(["x1"] * 2000) + ", 0", id="long-sum"),
    # coefficient size past the cap through a sum: the reciprocals of the
    # first 200 primes add up to a 1704-bit denominator
    pytest.param("+".join(f"1/{p}" for p in range(2, 1224)
                          if all(p % q for q in range(2, int(p ** 0.5) + 1)))
                 + ", 0", id="sum-of-prime-reciprocals"),
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
    assert p.terms[(0, 0)] == 8


@pytest.mark.parametrize("argv, option", [
    # the Stokes volume integrals use stokes.QUAD_DEGREE, and float mode
    # rounds the exact interpolant: neither command takes a quadrature
    # degree, and argparse refuses the option
    (["stokes", "--eps", "0.1", "--N", "4", "--quad-degree", "-3"],
     "--quad-degree"),
    (["stokes", "--eps", "0.1", "--N", "4", "--quad-degree", "31"],
     "--quad-degree"),
    (["interpolate", "--mode", "float", "--field", "x1, 0", "--quad-degree",
      "-1"], "--quad-degree"),
    (["interpolate", "--mode", "float", "--field", "x1, 0", "--quad-degree",
      "31"], "--quad-degree"),
    (["sweep", "--name", "counterexample-2d", "--pow-min", "-1"], "--pow-min"),
    (["sweep", "--name", "counterexample-2d", "--pow-min", "5",
      "--pow-max", "2"], "--pow-min"),
    (["sweep", "--name", "rvp-bounded", "--pow-max", "-1"], "--pow-max"),
    (["sweep", "--name", "rvp-bounded", "--pow-max", str(MAX_POW + 1)],
     "--pow-max"),
    (["sweep", "--name", "counterexample-3d", "--pow-min", str(MAX_POW + 1),
      "--pow-max", str(MAX_POW + 1)], "--pow-min"),
    (["interpolate", "--field", "x1, 0", "--quad-degree", "4"],
     "--quad-degree"),
])
def test_quad_degree_and_powers_out_of_range_exit_2(argv, option, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert option in capsys.readouterr().err


@pytest.mark.parametrize("argv, option", [
    (["stokes", "--eps", "0.5", "--N", "2", "--N", "4", "--N", "2"], "--N"),
    (["stokes", "--eps", "0.5", "--eps", "5e-1", "--N", "2"], "--eps"),
])
def test_stokes_repeated_value_exit_2(argv, option, capsys):
    # a repeated level was solved again and reported a rate of 0.0
    # against itself
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"{option} repeats a value" in capsys.readouterr().err


@pytest.mark.parametrize("gamma", ["inf", "1e308", "1e80"])
def test_stokes_gamma_past_its_cap_exit_2(gamma, capsys):
    # the penalty is 4 ceil(log sigma) of the mesh, and `stokes` takes no
    # --gamma: inf and 1e308 made the penalty matrix overflow (splu raised
    # with a traceback), and `--eps 1e-12 --N 2 --gamma 1e80` kept all three
    # contracts and exited 0 with err_p = 1.5e20
    with pytest.raises(SystemExit) as exc:
        main(["stokes", "--eps", "1e-12", "--N", "2", "--gamma", gamma])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--gamma" in err and "Traceback" not in err


def test_options_at_their_caps(capsys):
    code, _, manifest = run(capsys, [
        "sweep", "--name", "counterexample-2d", "--pow-min", str(MAX_POW),
        "--pow-max", str(MAX_POW)])
    assert code == 0 and len(manifest["ratios"]) == 1


def test_one_point_sweep_is_inconclusive(capsys):
    # the family the paper proves diverging read 'bounded' from a single
    # ratio
    code, _, manifest = run(capsys, [
        "sweep", "--name", "counterexample-2d", "--pow-min", "6",
        "--pow-max", "6"])
    assert code == 0 and len(manifest["ratios"]) == 1
    assert manifest["verdict"] == "inconclusive"


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
        "mesh", "--kind", "shishkin", "--N", "8", "--eps", "0.01",
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


@pytest.mark.parametrize("seed", ["0", "5"])
@pytest.mark.parametrize("name", ["counterexample-2d", "counterexample-3d"])
def test_sweep_rejects_seed_of_a_fixed_field(name, seed, capsys):
    # these presets sweep one fixed field: --seed used to be echoed in the
    # manifest's config and exit 0, seeds 0 and 5 giving the same ratios
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--name", name, "--pow-max", "2", "--seed", seed])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err


def test_sweep_seed_defaults_on_rvp_bounded(capsys):
    argv = ["sweep", "--name", "rvp-bounded", "--pow-max", "1"]
    code, _, manifest = run(capsys, argv)
    assert code == 0 and manifest["config"]["seed"] == 0
    code, _, seeded = run(capsys, argv + ["--seed", "5"])
    assert code == 0 and seeded["ratios"] != manifest["ratios"]
    code, _, manifest = run(capsys, ["sweep", "--name", "counterexample-2d",
                                     "--pow-max", "1"])
    assert code == 0 and manifest["config"]["seed"] is None


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
    # the sweep `verify counterexample-2d` runs: h = 2^-1..2^-10
    result = SWEEP_PRESETS["counterexample-2d"].run(range(1, 11))
    assert manifest["ratios"] == [r.ratio for r in result.reports]
    assert check_counterexample_2d().lines[-1].endswith(f": {result.verdict}")


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
    # a 1024-bit coefficient is past the largest float: an OverflowError
    (f"{2 ** 1024 - 1}, 0", "too large"),
])
def test_interpolate_float_overflow_exit_2(field, message, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["interpolate", "--mode", "float", "--field", field])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def test_interpolate_float_at_the_largest_power_of_two(capsys):
    # 2^1023 is a float: the interpolant, the field itself, rounds to it
    # (its quadrature moments overflowed, and the interpolant was printed
    # as nan with exit code 0, later refused with exit code 2)
    code, out, manifest = run(capsys, [
        "interpolate", "--mode", "float", "--field",
        f"{2 ** 1023}, {2 ** 1023}"])
    assert code == 0
    assert manifest["interpolant"] == ["8.98846567431158e+307"] * 2
    assert float(manifest["interpolant"][0]) == 2.0 ** 1023


def field_text(v):
    """The field v as a --field argument."""
    def term(a, c):
        return "*".join([f"({c})"] + [f"x{i + 1}**{ai}"
                                      for i, ai in enumerate(a) if ai])
    return ", ".join(" + ".join(term(a, c) for a, c in p.terms.items()) or "0"
                     for p in v.comps)


def rounded(v):
    """The printed components of v with each coefficient rounded by
    float(), which rounds correctly."""
    return [repr(Polynomial(p.dim, {a: float(c) for a, c in p.terms.items()}))
            for p in v.comps]


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("dim,k", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2),
                                   (3, 3)])
def test_interpolate_float_is_the_rounded_exact_interpolant(dim, k, variant,
                                                            tmp_path, capsys):
    # float mode prints the exact interpolant, every coefficient rounded to
    # the nearest float, on both orientations of a random rational simplex
    # and fields of degree up to k + 1
    path = tmp_path / "simplex.txt"

    @settings(max_examples=3 if (dim, k) == (3, 3) else 8, deadline=None)
    @given(simplices(dim), st.integers(0, k + 1).flatmap(
        lambda n: fields(dim, n)))
    def check(simplex, v):
        text = field_text(v)
        assert parse_field(text, dim) == v
        w = simplex.vertices
        for s in (simplex, Simplex((w[1], w[0]) + w[2:])):
            path.write_text("".join(
                " ".join(map(coord_to_token, x)) + "\n" for x in s.vertices))
            code, _, manifest = run(capsys, [
                "interpolate", "--simplex", str(path), "--k", str(k),
                "--variant", variant, "--field", text, "--mode", "float"])
            assert code == 0
            assert manifest["interpolant"] == rounded(
                build_element(s, k, variant).interpolate(v))

    check()


def test_interpolate_float_on_long_decimals(tmp_path, capsys):
    # the quadrature path was off by 7.9e-5 here, with exit code 0
    path = tmp_path / "tet15.txt"
    path.write_text("".join(" ".join(map(repr, x)) + "\n" for x in TET15))
    field = "x1**6*x3 - x2**7, x1*x2**3*x3**3 + x3**2, x1**4*x2**2 - x1"
    code, _, manifest = run(capsys, [
        "interpolate", "--simplex", str(path), "--k", "5", "--variant",
        "nedelec", "--field", field, "--mode", "float"])
    assert code == 0
    exact = build_element(Simplex(TET15), 5, "nedelec").interpolate(
        parse_field(field, 3))
    assert manifest["interpolant"] == rounded(exact)
    assert exact != parse_field(field, 3)   # degree 7: not reproduced


def test_stokes_subcommand(tmp_path, capsys):
    out_path = tmp_path / "study.csv"
    code, _, manifest = run(capsys, [
        "stokes", "--eps", "0.5", "--N", "2", "--N", "4",
        "--out", str(out_path)])
    assert code == 0
    assert len(manifest["rows"]) == 2
    assert out_path.exists()
    # the sizes of the stream-function matrix and the factor's fill are in
    # the manifest, not in the CSV
    header = out_path.read_text().splitlines()[0]
    for key in ("n_unknowns", "nnz", "factor_nnz"):
        sizes = [row[key] for row in manifest["rows"]]
        assert all(isinstance(n, int) for n in sizes) and 0 < sizes[0] < sizes[1]
        assert key not in header.split(",")
    for row in manifest["rows"]:
        # the Cholesky factor's pattern holds that of tril(S)
        assert row["n_unknowns"] <= row["nnz"]
        assert 2 * row["factor_nnz"] >= row["nnz"] + row["n_unknowns"]


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


def test_stokes_loads_scipy_on_first_use():
    # importing `stokes` loads no scipy (the benchmark's exact workloads
    # import it and never solve); the first study loads it
    scipy_mods = lambda mods: [m for m in mods
                               if m == "scipy" or m.startswith("scipy.")]
    assert not scipy_mods(loaded_modules("from bdmlab import stokes"))
    mods = loaded_modules("from bdmlab import stokes\n"
                          "stokes.convergence_study([0.1], [4], 'shishkin')")
    assert "scipy.sparse.linalg" in scipy_mods(mods)
