"""The benchmark's three workloads: seeded inputs, the steps of one job, and
the check every op must pass.

Inputs come from pools recorded in golden.json together with the outputs
the seed commit produced for them (`record.py` writes the file).  The run
seed only chooses which pool entries a job uses and in what order, so every
exact output has a recorded digest to compare against.  Fields are made by
this file's own generator from a per-entry key; bdmlab receives only the
finished Simplex and VectorPoly objects.

A job is a list of steps.  Steps marked `op` are timed one by one and
counted; an op returns a short digest of its output and raises CheckFailed
when a check fails.  Library calls go through module attributes
(`bdm.build_element`, `estimates.l2_norm`, ...) so the tracer's wrappers
see them.
"""

import contextlib
import hashlib
import io
import itertools
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

from bdmlab import bdm, cli, estimates, stokes
from bdmlab.geometry import Simplex
from bdmlab.polynomials import Polynomial, VectorPoly

VARIANTS = ("nedelec", "bdm_original")

# exact_interp: (d, k) -> (elements per variant, fields per element, pool
# fields per element).  Half the fields are from P_k, half from P_{k+1}.
# Elements are the first pool simplices, the same in every run, and for
# d = 3, k >= 2 the pool holds only the fields a job uses, so the seed just
# orders them.  Element and field costs differ up to threefold, and a class
# holds one or two elements and two to six such fields, so drawing them per
# seed spread op_p50_ms by 0.32 (IQR / median over five seeds).  The counts
# (213 ops) put op_p50_ms inside the ~11 ms ops (d2k2 on P_2, d3k1 on P_1)
# and the p95 of op_tail_ms inside the twelve d3k2 ops on P_3, not on a
# step between two groups of ops.
EXACT_PLAN = {(2, 1): (2, 24, 48), (2, 2): (2, 8, 16), (2, 3): (2, 6, 12),
              (3, 1): (2, 8, 16), (3, 2): (2, 6, 6), (3, 3): (1, 2, 2)}
EXACT_SIMPLICES = 2   # pool simplices per dimension

# estimate_sweep: the criterion-6 mix, scaled down.
SWEEP_FIELDS = 12     # pool of div-free cubic fields for the T1 sweeps
SWEEPS = 3
SWEEP_GRID = [(1, 1, 10 ** j) for j in range(7)]
MAC_POOL = {2: 64, 3: 32}
MAC_PICK = {2: 32, 3: 20}   # puts op_tail_ms mid-way through the 3D k = 2 ops
MAC_CAP = 100.0
FLOAT_RTOL = 1e-9

# stokes_study: the two series, one op per N.
STOKES_SERIES = (("shishkin", 0.1), ("uniform", 1e-3))
STOKES_N = (8, 16, 32, 64)
STOKES_ERR_RTOL = 1e-6


class CheckFailed(Exception):
    """An op's output did not pass its check."""


def require(ok, what):
    if not ok:
        raise CheckFailed(what)


def close(a, b, rtol):
    return abs(a - b) <= rtol * max(abs(a), abs(b))


@dataclass
class Step:
    label: str
    fn: callable
    is_op: bool = True


@dataclass
class Job:
    steps: list
    observed: dict = field(default_factory=dict)   # contract values seen by ops


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def poly_digest(v):
    """Digest of a VectorPoly's exact coefficients, independent of term order."""
    comps = []
    for p in v.comps:
        terms = sorted((a, Fraction(c)) for a, c in p.terms.items() if c != 0)
        comps.append(";".join(f"{a}:{c.numerator}/{c.denominator}"
                              for a, c in terms))
    return digest("|".join(comps))


# ---------------------------------------------------------------------------
# the benchmark's own input generator

def _monomials(dim, degree):
    return [a for a in itertools.product(range(degree + 1), repeat=dim)
            if sum(a) <= degree]


def _random_terms(dim, degree, rng):
    return {a: Fraction(rng.randint(-6, 6), rng.randint(1, 3))
            for a in _monomials(dim, degree)}


def _diff(terms, axis):
    out = {}
    for a, c in terms.items():
        if a[axis]:
            b = a[:axis] + (a[axis] - 1,) + a[axis + 1:]
            out[b] = out.get(b, 0) + c * a[axis]
    return out


def _minus(p, q):
    out = dict(p)
    for a, c in q.items():
        out[a] = out.get(a, 0) - c
    return out


def random_field(dim, degree, key):
    rng = random.Random(key)
    return VectorPoly([Polynomial(dim, _random_terms(dim, degree, rng))
                       for _ in range(dim)])


def random_divfree_field(degree, key):
    """Curl of three random potentials in 3D: divergence-free exactly."""
    rng = random.Random(key)
    phi = [_random_terms(3, degree + 1, rng) for _ in range(3)]
    comps = [_minus(_diff(phi[2], 1), _diff(phi[1], 2)),
             _minus(_diff(phi[0], 2), _diff(phi[2], 0)),
             _minus(_diff(phi[1], 0), _diff(phi[0], 1))]
    return VectorPoly([Polynomial(3, c) for c in comps])


def simplex(vertices):
    return Simplex(tuple(tuple(v) for v in vertices))


def exact_field(d, k, si, fi):
    return random_field(d, k + fi % 2, f"exact:{d}:{k}:{si}:{fi}")


def exact_key(d, k, variant, si, fi):
    return f"d{d}k{k}-{variant}/s{si}/f{fi}"


def mac_field(d, si, k):
    return random_field(d, k + 1, f"mac:{d}:{si}:{k}")


def sweep_field(fi):
    return random_divfree_field(3, f"sweep:{fi}")


def t1_simplex(params):
    h1, h2, h3 = params
    return Simplex(((0, 0, 0), (h1, 0, 0), (0, h2, 0), (0, 0, h3)))


def t1_frame(params):
    axes = tuple(tuple(Fraction(int(i == j)) for j in range(3)) for i in range(3))
    return axes, tuple(params)


# ---------------------------------------------------------------------------
# ops shared with record.py

def verify_all():
    """`bdmlab verify all` through the CLI entry point; digest of the exit
    code and the per-suite verdicts in its manifest."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["verify", "all"])
    manifest = json.loads(out.getvalue().strip().splitlines()[-1])
    return digest(json.dumps({"code": code, "verdicts": manifest["verdicts"]},
                             sort_keys=True))


def sweep_point(v, params):
    """One directional-form (element, field) evaluation: the ratio."""
    lhs, terms = estimates.evaluate_estimate(
        "interpolation_rvp", t1_simplex(params), v, 1, m=1,
        frame=t1_frame(params))
    total = sum(val for _, val in terms)
    return lhs / total if total else math.inf


def mac_point(s, v, k):
    """Fresh nedelec element, exact error norm, rhs_mac for m = 0..k."""
    el = bdm.build_element(s, k)
    err = estimates.l2_norm(v - el.interpolate(v), s)
    rhs = [sum(val for _, val in estimates.rhs_mac(v, s, m))
           for m in range(k + 1)]
    return err, rhs


def stokes_point(kind, eps, N):
    return stokes.convergence_study([eps], [N], kind)[0]


# ---------------------------------------------------------------------------
# jobs

def exact_interp(golden, seed, rep):
    g = golden["exact_interp"]
    rng = random.Random(f"exact_interp:{seed}:{rep}")
    steps = []
    for (d, k), (n_el, n_fields, n_pool) in EXACT_PLAN.items():
        for si in range(n_el):
            s = simplex(g["simplices"][str(d)][si])
            picks = (rng.sample(range(0, n_pool, 2), n_fields // 2)
                     + rng.sample(range(1, n_pool, 2), n_fields // 2))
            rng.shuffle(picks)
            fields = [(fi, exact_field(d, k, si, fi)) for fi in picks]
            for variant in VARIANTS:
                holder = {}
                steps.append(Step(f"build d{d}k{k}-{variant} s{si}",
                                  _build(holder, s, k, variant), is_op=False))
                for fi, v in fields:
                    expected = g["digests"][exact_key(d, k, variant, si, fi)]
                    steps.append(Step(f"interpolate {exact_key(d, k, variant, si, fi)}",
                                      _interpolate(holder, v, fi % 2 == 0, expected)))
    steps.append(Step("verify all", _verify_all(g["verify_all"])))
    return Job(steps)


def _build(holder, s, k, variant):
    def run():
        holder["el"] = bdm.build_element(s, k, variant)
    return run


def _interpolate(holder, v, in_space, expected):
    def run():
        result = holder["el"].interpolate(v)
        if in_space:
            require(result == v, "projection property: I v != v for v in P_k")
        got = poly_digest(result)
        require(got == expected, f"interpolant digest {got} != {expected}")
        return got
    return run


def _verify_all(expected):
    def run():
        got = verify_all()
        require(got == expected, f"verify all digest {got} != {expected}")
        return got
    return run


def estimate_sweep(golden, seed, rep):
    g = golden["estimate_sweep"]
    rng = random.Random(f"estimate_sweep:{seed}:{rep}")
    steps = []
    for fi in rng.sample(range(SWEEP_FIELDS), SWEEPS):
        v = sweep_field(fi)
        expected = g["sweeps"][fi]
        ratios = []
        for j, params in enumerate(SWEEP_GRID):
            last = j == len(SWEEP_GRID) - 1
            steps.append(Step(f"sweep f{fi} h3={params[2]}",
                              _sweep_op(v, params, ratios, expected, j, last)))
    mac = []
    for d in (2, 3):
        pool = g["simplices"][str(d)]
        for si in rng.sample(range(len(pool)), MAC_PICK[d]):
            for k in (1, 2):
                mac.append((d, si, k, simplex(pool[si]), mac_field(d, si, k)))
    rng.shuffle(mac)
    for d, si, k, s, v in mac:
        expected = g["mac"][f"{d}/s{si}/k{k}"]
        steps.append(Step(f"mac d{d} s{si} k{k}", _mac_op(s, v, k, expected)))
    return Job(steps)


def _sweep_op(v, params, ratios, expected, j, last):
    def run():
        ratio = sweep_point(v, params)
        ratios.append(ratio)
        require(close(ratio, expected["ratios"][j], FLOAT_RTOL),
                 f"ratio {ratio!r} != {expected['ratios'][j]!r}")
        if last:
            verdict = estimates.ratio_verdict(ratios)
            require(len(ratios) == len(SWEEP_GRID)
                    and verdict == expected["verdict"],
                    f"verdict {verdict} != {expected['verdict']}")
        return repr(ratio)
    return run


def _mac_op(s, v, k, expected):
    def run():
        err, rhs = mac_point(s, v, k)
        require(all(err <= MAC_CAP * r for r in rhs),
                 f"error {err!r} above {MAC_CAP} x rhs {rhs!r}")
        require(close(err, expected["err"], FLOAT_RTOL)
                and len(rhs) == len(expected["rhs"])
                and all(close(a, b, FLOAT_RTOL)
                        for a, b in zip(rhs, expected["rhs"])),
                f"err/rhs {err!r} {rhs!r} != {expected!r}")
        return repr((err, rhs))
    return run


def stokes_study(golden, seed, rep):
    """Seed-independent: the study has no random inputs.  Each op's
    convergence_study call builds its own manufactured case."""
    g = golden["stokes_study"]
    job = Job([])
    job.observed.update(residual_max=0.0, div_max=0.0, jump_max=0.0)
    for kind, eps in STOKES_SERIES:
        prev = {}
        for N in STOKES_N:
            expected = g[f"{kind}/{eps!r}/{N}"]
            last = N == STOKES_N[-1]
            job.steps.append(Step(f"stokes {kind} eps={eps} N={N}",
                                  _stokes_op(job, kind, eps, N, expected,
                                             prev, last)))
    return job


def _stokes_op(job, kind, eps, N, expected, prev, last):
    def run():
        before = dict(prev)
        prev.clear()
        row = stokes_point(kind, eps, N)
        err_u, err_p = row["err_grad_u"], row["err_p"]
        prev.update(N=N, err_u=err_u, err_p=err_p)
        obs = job.observed
        obs["residual_max"] = max(obs["residual_max"], row["residual"])
        obs["div_max"] = max(obs["div_max"], row["div_max"])
        obs["jump_max"] = max(obs["jump_max"], row["jump_max"])
        require(row["div_max"] <= 1e-12, f"div_max {row['div_max']!r}")
        require(row["jump_max"] <= 1e-12, f"jump_max {row['jump_max']!r}")
        require(row["residual"] <= 1e-10, f"residual {row['residual']!r}")
        require(close(err_u, expected["err_grad_u"], STOKES_ERR_RTOL)
                and close(err_p, expected["err_p"], STOKES_ERR_RTOL),
                f"errors {err_u!r} {err_p!r} != {expected!r}")
        if last:
            # rates come from this op and the one before, at N / 2
            require(before.get("N") == N // 2, "no error at N/2 for the rate")
            rate_u = math.log2(before["err_u"] / err_u)
            rate_p = math.log2(before["err_p"] / err_p)
            if kind == "shishkin":
                require(rate_u >= 0.9 and rate_p >= 0.9,
                        f"shishkin rates {rate_u:.3f} {rate_p:.3f} below 0.9")
            else:
                require(rate_u < 0.9, f"uniform rate_u {rate_u:.3f} not below 0.9")
        return repr((err_u, err_p))
    return run


WORKLOADS = {
    "exact_interp": exact_interp,
    "estimate_sweep": estimate_sweep,
    "stokes_study": stokes_study,
}
