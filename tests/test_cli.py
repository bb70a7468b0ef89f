import json

import pytest

from bdmlab.cli import (MAX_FIELD_DEGREE, FieldSyntaxError, main, parse_field,
                        parse_polynomial)
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


@pytest.mark.parametrize("field", [
    "x1**(10**6), 0",           # exponent far past the degree cap
    "(x1**7)**2, 0",            # degree past the cap through nested powers
    "x1**7 * x2**7, 0",         # degree past the cap through a product
    "((10**12)**12)**12, 0",    # coefficient size past the cap
    "x1**-1, 0",
    "1/0, x1",
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


def test_sweep_counterexamples(capsys, tmp_path):
    code, _, manifest = run(capsys, [
        "sweep", "--name", "counterexample-2d", "--out",
        str(tmp_path / "c.csv")])
    assert code == 0 and manifest["verdict"] == "diverging"
    code, _, manifest = run(capsys, ["sweep", "--name", "counterexample-3d"])
    assert code == 0 and manifest["verdict"] == "diverging"


def test_stokes_subcommand(tmp_path, capsys):
    out_path = tmp_path / "study.csv"
    code, _, manifest = run(capsys, [
        "stokes", "--eps", "0.5", "--N", "2", "--N", "4",
        "--out", str(out_path)])
    assert code == 0
    assert len(manifest["rows"]) == 2
    assert out_path.exists()


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
