"""Batch front-end: mesh generation, single-element interpolation, named
verification suites, estimate sweeps and the Stokes convergence study.
Data goes to CSV; every run echoes a JSON manifest on stdout.

Exit codes: 0 ok, 1 verification failure, 2 usage error.
"""

import argparse
import ast
import json
import random
import sys
from fractions import Fraction

import numpy as np

from . import __version__
from .bdm import build_element
from .checks import ALL_CHECKS, run_checks
from .estimates import (T1_FAMILY, TSTAR_FAMILY, WEAKER_FAMILY,
                        random_divfree_field, sweep, sweep_to_csv)
from .geometry import read_simplex, reference_simplex, t_bar_simplex
from .polynomials import Polynomial, VectorPoly
from .shishkin import (ShishkinParams, aspect_ratio, build_shishkin,
                       build_uniform, mesh_aspect_ratio, transition_point,
                       write_mesh)
from .stokes import convergence_study, study_to_csv


# Bounds on a parsed field, so that any --field does bounded work: the
# interpolation cost grows with the field's degree, and exact powers with
# the size of the coefficients.
MAX_FIELD_DEGREE = 12
MAX_COEFF_BITS = 1024


class FieldSyntaxError(ValueError):
    pass


def _size(value):
    """(degree, largest numerator or denominator bit length) of a parsed
    value, either a Polynomial or a rational constant."""
    coeffs = value.terms.values() if isinstance(value, Polynomial) else [value]
    bits = max((max(c.numerator.bit_length(), c.denominator.bit_length())
                for c in coeffs), default=0)
    degree = value.degree if isinstance(value, Polynomial) else 0
    return degree, bits


def _check_size(degree, bits):
    if degree > MAX_FIELD_DEGREE:
        raise FieldSyntaxError(f"field degree above {MAX_FIELD_DEGREE}")
    if bits > MAX_COEFF_BITS:
        raise FieldSyntaxError(f"coefficients above {MAX_COEFF_BITS} bits")


def parse_polynomial(expr, dim):
    """Safe arithmetic-only expression parser: variables x1..x3, integer
    literals, + - * / ** and parentheses, evaluated over exact rationals.
    Degree and coefficient size are capped (MAX_FIELD_DEGREE,
    MAX_COEFF_BITS) before each product or power is formed."""
    names = {f"x{i + 1}": Polynomial.variable(dim, i) for i in range(dim)}

    def ev(node):
        if isinstance(node, ast.Expression):
            return ev(node.body)
        if isinstance(node, ast.BinOp):
            left, right = ev(node.left), ev(node.right)
            if isinstance(node.op, ast.Add):
                return left + right
            if isinstance(node.op, ast.Sub):
                return left - right
            (dl, bl), (dr, br) = _size(left), _size(right)
            if isinstance(node.op, ast.Mult):
                _check_size(dl + dr, bl + br)
                return left * right
            if isinstance(node.op, ast.Div):
                if isinstance(right, Polynomial):
                    raise FieldSyntaxError("division by a polynomial")
                if right == 0:
                    raise FieldSyntaxError("division by zero")
                _check_size(dl, bl + br)
                return left * (Fraction(1) / right)
            if isinstance(node.op, ast.Pow):
                if isinstance(right, Polynomial) or right != int(right):
                    raise FieldSyntaxError("exponent must be a literal integer")
                n = int(right)
                if n < 0 and (isinstance(left, Polynomial) or left == 0):
                    raise FieldSyntaxError(
                        "negative exponent of a polynomial or of zero")
                _check_size(dl * abs(n), bl * abs(n))
                return left ** n
            raise FieldSyntaxError("unsupported operator")
        if isinstance(node, ast.UnaryOp):
            val = ev(node.operand)
            if isinstance(node.op, ast.USub):
                return -val
            if isinstance(node.op, ast.UAdd):
                return val
            raise FieldSyntaxError("unsupported unary operator")
        if isinstance(node, ast.Constant):
            if isinstance(node.value, int):
                return Fraction(node.value)
            raise FieldSyntaxError("only integer literals (use fractions like 1/3)")
        if isinstance(node, ast.Name):
            if node.id in names:
                return names[node.id]
            raise FieldSyntaxError(f"unknown variable {node.id!r}")
        raise FieldSyntaxError(f"unsupported syntax {ast.dump(node)}")

    try:
        tree = ast.parse(expr, mode="eval")
    except SyntaxError as exc:
        raise FieldSyntaxError(str(exc)) from exc
    value = ev(tree)
    if not isinstance(value, Polynomial):
        value = Polynomial.constant(dim, value)
    return value


def parse_field(text, dim):
    parts = text.split(",")
    if len(parts) != dim:
        raise FieldSyntaxError(f"need {dim} comma-separated components")
    return VectorPoly([parse_polynomial(p.strip(), dim) for p in parts])


def _manifest(command, config, **extra):
    config = {k: v for k, v in config.items() if k != "func"}
    payload = {"command": command, "version": __version__, "config": config}
    payload.update(extra)
    print(json.dumps(payload, sort_keys=True, default=str))


def cmd_mesh(args):
    if args.kind == "uniform":
        mesh = build_uniform(args.N)
        tau = Fraction(1, 2)
    else:
        tau = (Fraction(args.tau).limit_denominator(10 ** 12)
               if args.tau is not None
               else transition_point(args.eps, args.log))
        mesh = build_shishkin(ShishkinParams(N=args.N, epsilon=args.eps, tau=tau))
    sigma_formula = aspect_ratio(min(float(tau), 1 - 1e-12))
    sigma_mesh = mesh_aspect_ratio(mesh)
    if args.out:
        write_mesh(mesh, args.out)
    _manifest("mesh", vars(args), tau=float(tau), sigma=sigma_formula,
              sigma_mesh=sigma_mesh, n_vertices=mesh.n_vertices,
              n_triangles=mesh.n_triangles)
    return 0


def positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def cmd_interpolate(args):
    if args.simplex:
        simplex = read_simplex(args.simplex)
    elif args.ref == "tbar":
        simplex = t_bar_simplex()
    else:
        simplex = reference_simplex(2 if args.ref == "tri" else 3)
    field = parse_field(args.field, simplex.dim)
    el = build_element(simplex, args.k, args.variant)
    if args.mode == "float":
        result = el.interpolate(
            lambda pts: np.column_stack([p.eval(pts) for p in field.comps]),
            quad_degree=args.quad_degree)
    else:
        result = el.interpolate(field)
    print(f"interpolant: {result}")
    _manifest("interpolate", vars(args), ndofs=el.ndofs,
              interpolant=[repr(p) for p in result.comps])
    return 0


def cmd_verify(args):
    names = list(ALL_CHECKS) if args.suite == "all" else [args.suite]
    results = run_checks(names)
    for res in results:
        for line in res.lines:
            print(line)
        print(f"{res.name}: {'PASS' if res.passed else 'FAIL'}")
    ok = all(r.passed for r in results)
    _manifest("verify", vars(args),
              verdicts={r.name: ("pass" if r.passed else "fail") for r in results})
    return 0 if ok else 1


SWEEP_PRESETS = {
    "counterexample-2d": dict(
        family=TSTAR_FAMILY, estimate="stability_mac", k=1, m=None,
        grid=lambda a: [(Fraction(1, 2 ** j),) for j in range(a.pow_min, a.pow_max + 1)],
        field=lambda rng: VectorPoly([Polynomial.zero(2),
                                      Polynomial.variable(2, 0) ** 2])),
    "counterexample-3d": dict(
        family=WEAKER_FAMILY, estimate="interpolation_rvp", k=1, m=0,
        grid=lambda a: [(1, 1, 2 ** j) for j in range(a.pow_min, a.pow_max + 1)],
        field=lambda rng: VectorPoly([
            Polynomial.variable(3, 0) * Polynomial.variable(3, 2),
            -Polynomial.variable(3, 1) * Polynomial.variable(3, 2),
            Polynomial.zero(3)])),
    "rvp-bounded": dict(
        family=T1_FAMILY, estimate="interpolation_rvp", k=1, m=1,
        grid=lambda a: [(1, 1, 10 ** j) for j in range(0, a.pow_max + 1)],
        field=lambda rng: random_divfree_field(3, 3, rng)),
}


def cmd_sweep(args):
    preset = SWEEP_PRESETS[args.name]
    rng = random.Random(args.seed)
    fld = preset["field"](rng)
    result = sweep(preset["family"], lambda s, p: fld, preset["estimate"],
                   preset["grid"](args), k=args.k or preset["k"], m=preset["m"])
    if args.out:
        sweep_to_csv(result, args.out)
    _manifest("sweep", vars(args), verdict=result.verdict,
              ratios=[r.ratio for r in result.reports])
    return 0


def cmd_stokes(args):
    rows = convergence_study(args.eps, args.N, args.kind,
                             log_convention=args.log,
                             gamma_override=args.gamma,
                             quad_degree=args.quad_degree)
    if args.out:
        study_to_csv(rows, args.out)
    summary = [{k: row[k] for k in ("epsilon", "N", "err_grad_u", "err_p",
                                    "rate_u", "rate_p")} for row in rows]
    _manifest("stokes", vars(args), rows=summary)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="bdmlab",
        description="Interpolation-estimate verification lab for "
                    "H(div)-conforming elements on anisotropic simplices")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("mesh", help="generate layer-adapted or uniform meshes")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--eps", type=float, default=0.01)
    p.add_argument("--tau", type=str, default=None,
                   help="override the transition point (rational, e.g. 3/50)")
    p.add_argument("--kind", choices=["shishkin", "uniform"], default="shishkin")
    p.add_argument("--shishkin", dest="kind", action="store_const",
                   const="shishkin")
    p.add_argument("--uniform", dest="kind", action="store_const",
                   const="uniform")
    p.add_argument("--log", choices=["natural", "base10"], default="natural")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_mesh)

    p = sub.add_parser("interpolate", help="interpolate a polynomial field "
                                           "on one element")
    p.add_argument("--simplex", default=None, help="vertex file (one per line)")
    p.add_argument("--ref", choices=["tri", "tet", "tbar"], default="tri")
    p.add_argument("--k", type=positive_int, default=1)
    p.add_argument("--variant", choices=["nedelec", "bdm_original"],
                   default="nedelec")
    p.add_argument("--field", required=True,
                   help="comma-separated components, e.g. '0, x1**3'")
    p.add_argument("--mode", choices=["exact", "float"], default="exact")
    p.add_argument("--quad-degree", type=int, default=None,
                   help="quadrature degree for float mode (default 2k + 4)")
    p.set_defaults(func=cmd_interpolate)

    p = sub.add_parser("verify", help="run a named exact verification suite")
    p.add_argument("suite", choices=sorted(ALL_CHECKS) + ["all"])
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sweep", help="ratio sweep of a named estimate")
    p.add_argument("--name", choices=sorted(SWEEP_PRESETS), required=True)
    p.add_argument("--k", type=positive_int, default=None)
    p.add_argument("--pow-min", type=int, default=1)
    p.add_argument("--pow-max", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("stokes", help="convergence study of the Stokes "
                                      "discretization")
    p.add_argument("--eps", type=float, action="append", required=True)
    p.add_argument("--N", type=int, action="append", required=True)
    p.add_argument("--kind", choices=["shishkin", "uniform"],
                   default="shishkin")
    p.add_argument("--log", choices=["natural", "base10"], default="natural")
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--quad-degree", type=int, default=8)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_stokes)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FieldSyntaxError as exc:
        parser.error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
