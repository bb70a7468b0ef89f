"""Batch front-end: mesh generation, single-element interpolation, named
verification suites, estimate sweeps and the Stokes convergence study.
Data goes to CSV; every run echoes a JSON manifest on stdout.

Exit codes: 0 ok, 1 verification failure or a Stokes run outside its
contracts, 2 usage error.
"""

import argparse
import ast
import json
import sys
from fractions import Fraction

from . import __version__
from .bdm import build_element
from .checks import ALL_CHECKS, run_checks
from .estimates import SWEEP_PRESETS, sweep_to_csv
from .geometry import read_simplex, reference_simplex, t_bar_simplex
from .polynomials import Polynomial, VectorPoly
from .shishkin import (aspect_ratio, build_shishkin, build_uniform,
                       mesh_aspect_ratio, transition_point, write_mesh)


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
# is the `nedelec` one plus a projection onto Q_k (0.55 s once at k = 6)
# and inverts one r x r Gram matrix.  Build and first interpolation take
# 0.017 s at k = 4 and 1.5 s at k = 6 on the rational tetrahedron, and
# 0.12 s at k = 4, 2.3 s at k = 5 and 26.5 s at k = 6 on the 15-digit one.
MAX_ORDER = 6
# Bound on the sweep exponents: every preset runs in under 2 s at 40, and
# `rvp-bounded` overflows a float norm at h3 = 10^46.
MAX_POW = 40
# Bound on --N: the whole study `stokes --eps 0.1 --N 8 --N 16 ... --N 256`
# (Shishkin meshes) peaks at 1.3 GiB and takes 12 s, and the Cholesky
# factor grows about 5x per doubling of N (same machine).
MAX_MESH_N = 256
# Floor on `--eps` (`mesh`, `stokes`).  The manufactured solution reads
# eps as the nearest fraction with denominator <= 10^12, which is 0 for
# values <= 5e-13 and 1/10^12 just above: below 1e-12 a study crashes or
# solves another eps.  On `mesh`, the closed-form aspect ratio of the
# transition point tau = 3 eps |log eps| divides by zero at 1e-20.  At
# the floor, the two aspect ratios `mesh` prints (about 6e9) agree to
# 1e-13, relative, for every N.
MIN_EPS_TAU = 1e-12


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
    MAX_COEFF_BITS) on each literal, before each product or power is
    formed, and on each sum or difference once formed: its numerator and
    denominator have at most one bit more than the operands' together."""
    names = {f"x{i + 1}": Polynomial.variable(dim, i) for i in range(dim)}

    def ev(node):
        if isinstance(node, ast.Expression):
            return ev(node.body)
        if isinstance(node, ast.BinOp):
            left, right = ev(node.left), ev(node.right)
            if isinstance(node.op, (ast.Add, ast.Sub)):
                value = (left + right if isinstance(node.op, ast.Add)
                         else left - right)
                _check_size(*_size(value))
                return value
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
                _check_size(0, node.value.bit_length())
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
        # the uniform mesh has no layer, so --eps and --log would be echoed
        # in the manifest without being used
        for name in ("eps", "log"):
            if getattr(args, name) is not None:
                raise UsageError(f"--{name} sets the layer of --kind "
                                 "shishkin; the uniform mesh has none")
        mesh = build_uniform(args.N)
        tau = Fraction(1, 2)
    else:
        args.eps = 0.01 if args.eps is None else args.eps
        args.log = args.log or "natural"
        tau = transition_point(args.eps, args.log)
        mesh = build_shishkin(args.N, tau)
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


def writable(path):
    """--out: a file that can be written, opened for appending (which keeps
    what it holds) while the command line is read, before any work."""
    try:
        open(path, "a").close()
    except OSError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc
    return path


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
    if preset.seeded:
        args.seed = args.seed or 0      # the default, echoed in the manifest
    elif args.seed is not None:     # it would be echoed but not used
        raise UsageError(f"--seed: {args.name} sweeps one fixed field")
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
    if args.kind == "shishkin":
        args.log = args.log or "natural"    # the default, echoed
    elif args.log is not None:      # it would be echoed but not used
        raise UsageError("--log: the uniform mesh has no transition point")
    # scipy is imported by `stokes` only, so the other commands skip it
    from .stokes import convergence_study, holds_contracts, study_to_csv

    rows = convergence_study(args.eps, args.N, args.kind,
                             log_convention=args.log or "natural")
    if args.out:
        study_to_csv(rows, args.out)
    summary = [{k: row[k] for k in ("epsilon", "N", "err_grad_u", "err_p",
                                    "rate_u", "rate_p", "div_max", "jump_max",
                                    "residual", "n_unknowns", "nnz",
                                    "factor_nnz")} for row in rows]
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
    p.add_argument("--eps", type=epsilon, default=None,
                   help="layer parameter (shishkin only; default 0.01)")
    p.add_argument("--kind", choices=["shishkin", "uniform"], default="shishkin")
    p.add_argument("--log", choices=["natural", "base10"], default=None,
                   help="logarithm of the transition point (shishkin only; "
                        "default natural)")
    p.add_argument("--out", type=writable)
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
    p.add_argument("--seed", type=int, default=None,
                   help="rvp-bounded only (default 0)")
    p.add_argument("--out", type=writable)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("stokes", help="convergence study of the Stokes "
                                      "discretization")
    p.add_argument("--eps", type=epsilon, action="append",
                   required=True)
    p.add_argument("--N", type=mesh_size, action="append", required=True)
    p.add_argument("--kind", choices=["shishkin", "uniform"],
                   default="shishkin")
    p.add_argument("--log", choices=["natural", "base10"], default=None,
                   help="shishkin only (default natural)")
    p.add_argument("--out", type=writable)
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
