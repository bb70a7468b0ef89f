"""Batch front-end: mesh generation, single-element interpolation, named
verification suites, estimate sweeps and the Stokes convergence study.
Data goes to CSV; every run echoes a JSON manifest on stdout.

Exit codes: 0 ok, 1 verification failure or a Stokes run outside its
contracts, 2 usage error.
"""

import argparse
import ast
import json
import math
import sys
from fractions import Fraction

from . import __version__
from .bdm import build_element
from .checks import ALL_CHECKS, run_checks
from .estimates import SWEEP_PRESETS, sweep_to_csv
from .geometry import read_simplex, reference_simplex, t_bar_simplex
from .polynomials import Polynomial, VectorPoly
from .shishkin import (ShishkinParams, aspect_ratio, build_shishkin,
                       build_uniform, mesh_aspect_ratio, transition_point,
                       write_mesh)


# Bounds on a parsed field, so that any --field does bounded work: the
# interpolation cost grows with the field's degree, and exact powers with
# the size of the coefficients.
MAX_FIELD_DEGREE = 12
MAX_COEFF_BITS = 1024
# Bound on --k: the first d = 3 `nedelec` build of an order builds the
# reference element from its own DOF matrix, 0.09 s at k = 4, 0.9-1.35 s
# at k = 6 and 9.1 s at k = 8 (one core of a shared 2-core VM, Python
# 3.11).  Interpolating through it on a tetrahedron, build included,
# takes 0.005 and 0.023 s at k = 4, 6 on a rational one, and 0.008 and
# 0.04 s on one with 15-digit decimal vertices.  A `bdm_original` element
# interpolates through its reference element too (2-3.3 s once at k = 6):
# its Q_k moments are weighted by G = B^T B, with an exact r x r
# correction.  Build and first interpolation take 0.12-0.18 s at k = 4 and
# 5-6 s at k = 6 on the rational tetrahedron, and 0.3 s at k = 4, 4.2 s
# at k = 5 and 44-53 s at k = 6 on the 15-digit one.
MAX_ORDER = 6
# Bound on `stokes --quad-degree` (default 8): a rule of degree q has
# ((q + 2) // 2 + 1)^2 points per triangle, and q doubles on layer
# triangles for eps <= 1e-3; q = 30 took 0.8 s and 132 MiB for `stokes
# --eps 0.001 --N 16` (same machine), while --quad-degree 100000 asked for
# an 18.6 GiB array.
MAX_QUAD_DEGREE = 30
# Bound on the sweep exponents: every preset runs in under 2 s at 40, and
# `rvp-bounded` overflows a float norm at h3 = 10^46.
MAX_POW = 40
# Bound on --N: the whole study `stokes --eps 0.1 --N 8 --N 16 ... --N 256`
# (Shishkin meshes) peaks at 1.68 GiB and takes 27 s, and the fill of the
# factorization grows about 6x per doubling of N (same machine).
MAX_MESH_N = 256
# Floor on `--eps` (`mesh`, `stokes`) and `mesh --tau`.  The manufactured
# solution and `mesh --tau` read the value as the nearest fraction with
# denominator <= 10^12, which is 0 for values <= 5e-13 and 1/10^12 just
# above: below 1e-12 a study crashes or solves another eps, and a --tau
# mesh does not conform.  At the floor, the two aspect ratios `mesh`
# prints (about 6e9) agree to 1e-13, relative, for every N.
MIN_EPS_TAU = 1e-12
# Bound on `stokes --gamma`: a large gamma over the thinnest facets
# overflows in the factorization, which raised with a traceback.  At the
# smallest mesh width the CLI accepts (`--eps 1e-12 --N 256 --log base10`,
# layer cells 2.8e-13 wide) a bisection put the first failure at gamma =
# 10^262.1, and gamma = 10^200 ran to the end (10^305.1 at `--eps 0.5 --N
# 2`).  The default, 4 ceil(log sigma), is at most 92.
MAX_GAMMA = 1e200


class UsageError(ValueError):
    """Bad input, reported through the parser (exit code 2)."""


class FieldSyntaxError(UsageError):
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
        value = ev(ast.parse(expr, mode="eval"))
    except SyntaxError as exc:
        raise FieldSyntaxError(str(exc)) from exc
    except (RecursionError, MemoryError) as exc:
        # the parser and `ev` recurse once per nesting level: a long sum or
        # a long run of signs exhausts the stack before any bound applies
        raise FieldSyntaxError("field expression nests too deeply") from exc
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
        if args.tau is not None:
            raise UsageError("--tau sets the transition of the Shishkin "
                             "mesh; the uniform one has it at 1/2")
        mesh = build_uniform(args.N)
        tau = Fraction(1, 2)
    else:
        tau = (args.tau.limit_denominator(10 ** 12)
               if args.tau is not None
               else transition_point(args.eps, args.log))
        mesh = build_shishkin(ShishkinParams(N=args.N, epsilon=args.eps, tau=tau))
    sigma_formula = aspect_ratio(tau)
    sigma_mesh = mesh_aspect_ratio(mesh)
    if args.out:
        write_mesh(mesh, args.out)
    _manifest("mesh", vars(args), tau=float(tau), sigma=sigma_formula,
              sigma_mesh=sigma_mesh, n_vertices=mesh.n_vertices,
              n_triangles=mesh.n_triangles)
    return 0


def bounded_int(low, high):
    """An argparse type: an int with low <= value <= high."""
    def parse(text):
        value = int(text)
        if not low <= value <= high:
            raise argparse.ArgumentTypeError(
                f"must be between {low} and {high}, got {value}")
        return value
    parse.__name__ = "int"   # argparse's "invalid int value"
    return parse


def mesh_size(text):
    """--N: cells per side of a layer mesh, even, at least 2 and at most
    MAX_MESH_N."""
    value = int(text)
    if value < 2 or value % 2 or value > MAX_MESH_N:
        raise argparse.ArgumentTypeError(
            f"must be even, >= 2 and <= {MAX_MESH_N}, got {value}")
    return value


def epsilon(text):
    """--eps: a float in [MIN_EPS_TAU, 1)."""
    value = float(text)
    if not MIN_EPS_TAU <= value < 1:
        raise argparse.ArgumentTypeError(
            f"must lie in [{MIN_EPS_TAU}, 1), got {text}")
    return value


def transition(text):
    """--tau: a rational in [MIN_EPS_TAU, 1/2].  A Shishkin transition
    point is min(1/2, ...): above 1/2 the layer column is no longer the
    thinnest, and the closed-form `sigma` would misstate the mesh."""
    try:
        value = Fraction(text)
    except ZeroDivisionError as exc:
        raise argparse.ArgumentTypeError(f"{text!r}: {exc}") from exc
    if not MIN_EPS_TAU <= value <= Fraction(1, 2):
        raise argparse.ArgumentTypeError(
            f"must lie in [{MIN_EPS_TAU}, 1/2], got {text}")
    return value


def positive_float(text):
    """A finite float > 0."""
    value = float(text)
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(
            f"must be positive and finite, got {text}")
    return value


def penalty_parameter(text):
    """--gamma: a float in (0, MAX_GAMMA]."""
    value = positive_float(text)
    if value > MAX_GAMMA:
        raise argparse.ArgumentTypeError(
            f"must be at most {MAX_GAMMA}, got {text}")
    return value


def cmd_interpolate(args):
    if args.simplex is not None:
        try:
            simplex = read_simplex(args.simplex)
        except (OSError, ValueError) as exc:
            raise UsageError(f"--simplex {args.simplex}: {exc}") from exc
    elif args.ref == "tbar":
        simplex = t_bar_simplex()
    else:
        args.ref = args.ref or "tri"    # the default, echoed in the manifest
        simplex = reference_simplex(2 if args.ref == "tri" else 3)
    field = parse_field(args.field, simplex.dim)
    el = build_element(simplex, args.k, args.variant)
    result = el.interpolate(field)
    if args.mode == "float":
        # the exact interpolant, each coefficient correctly rounded
        try:
            result = VectorPoly([Polynomial(p.dim, {
                a: float(c) for a, c in p.terms.items()}) for p in result.comps])
        except OverflowError as exc:   # past the float range
            raise UsageError(f"--field in --mode float: {exc}") from exc
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


def cmd_sweep(args):
    preset = SWEEP_PRESETS[args.name]
    if args.pow_min is None:
        args.pow_min = preset.pow_min
    if args.pow_min > args.pow_max:
        raise UsageError(f"--pow-min {args.pow_min} is above --pow-max "
                         f"{args.pow_max}")
    result = preset.run(range(args.pow_min, args.pow_max + 1), k=args.k,
                        seed=args.seed)
    if args.out:
        sweep_to_csv(result, args.out)
    _manifest("sweep", vars(args), verdict=result.verdict,
              ratios=[r.ratio for r in result.reports])
    return 0


def cmd_stokes(args):
    # a repeated level would be solved again and rated against itself
    for option, values in (("--eps", args.eps), ("--N", args.N)):
        if len(set(values)) < len(values):
            raise UsageError(f"{option} repeats a value: {values}")
    # scipy is imported by `stokes` only, so the other commands skip it
    from .stokes import convergence_study, holds_contracts, study_to_csv

    rows = convergence_study(args.eps, args.N, args.kind,
                             log_convention=args.log,
                             gamma_override=args.gamma,
                             quad_degree=args.quad_degree)
    if args.out:
        study_to_csv(rows, args.out)
    summary = [{k: row[k] for k in ("epsilon", "N", "err_grad_u", "err_p",
                                    "rate_u", "rate_p", "div_max", "jump_max",
                                    "residual", "n_unknowns", "nnz",
                                    "lu_nnz")} for row in rows]
    _manifest("stokes", vars(args), rows=summary)
    return 0 if all(holds_contracts(row) for row in rows) else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="bdmlab",
        description="Interpolation-estimate verification lab for "
                    "H(div)-conforming elements on anisotropic simplices")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("mesh", help="generate layer-adapted or uniform meshes")
    p.add_argument("--N", type=mesh_size, required=True)
    p.add_argument("--eps", type=epsilon, default=0.01)
    p.add_argument("--tau", type=transition, default=None,
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
    where = p.add_mutually_exclusive_group()
    where.add_argument("--simplex", help="vertex file (one per line)")
    where.add_argument("--ref", choices=["tri", "tet", "tbar"],
                       help="reference simplex (default: tri)")
    p.add_argument("--k", type=bounded_int(1, MAX_ORDER), default=1)
    p.add_argument("--variant", choices=["nedelec", "bdm_original"],
                   default="nedelec")
    p.add_argument("--field", required=True,
                   help="comma-separated components, e.g. '0, x1**3'")
    p.add_argument("--mode", choices=["exact", "float"], default="exact",
                   help="float: the exact interpolant with each coefficient "
                        "rounded to the nearest float")
    p.set_defaults(func=cmd_interpolate)

    p = sub.add_parser("verify", help="run a named exact verification suite")
    p.add_argument("suite", choices=sorted(ALL_CHECKS) + ["all"])
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sweep", help="ratio sweep of a named estimate")
    p.add_argument("--name", choices=sorted(SWEEP_PRESETS), required=True)
    p.add_argument("--k", type=bounded_int(1, MAX_ORDER), default=None)
    p.add_argument("--pow-min", type=bounded_int(0, MAX_POW), default=None,
                   help="first exponent of the grid (default: 0 for "
                        "rvp-bounded, 1 otherwise)")
    p.add_argument("--pow-max", type=bounded_int(0, MAX_POW), default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("stokes", help="convergence study of the Stokes "
                                      "discretization")
    p.add_argument("--eps", type=epsilon, action="append",
                   required=True)
    p.add_argument("--N", type=mesh_size, action="append", required=True)
    p.add_argument("--kind", choices=["shishkin", "uniform"],
                   default="shishkin")
    p.add_argument("--log", choices=["natural", "base10"], default="natural")
    p.add_argument("--gamma", type=penalty_parameter, default=None)
    p.add_argument("--quad-degree", type=bounded_int(0, MAX_QUAD_DEGREE),
                   default=8)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_stokes)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        parser.error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
