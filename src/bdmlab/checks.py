"""Named verification suites behind the CLI `verify` subcommand.

Each check runs its identities in exact rational arithmetic and returns a
CheckResult with per-assertion lines, so the CLI can print a transcript and
the tests can assert the same outcomes.
"""

from dataclasses import dataclass, field
from fractions import Fraction

from .bdm import build_element, structural_lemma_check
from .estimates import (SWEEP_PRESETS, l2_norm_sq, tstar_simplex,
                        weaker_example_tet)
from .geometry import reference_simplex, t_bar_simplex
from .polynomials import Polynomial, VectorPoly, monomial_indices
from .spaces import integrate_poly


@dataclass
class CheckResult:
    name: str
    passed: bool
    lines: list = field(default_factory=list)

    def record(self, ok, text):
        self.passed = self.passed and bool(ok)
        self.lines.append(f"[{'ok' if ok else 'FAIL'}] {text}")
        return ok


def check_dof_variants() -> CheckResult:
    """Both published order-2 interpolants of (0, x1^3) on the reference
    triangle, coefficient by coefficient in rationals."""
    res = CheckResult("dof-variants", True)
    tri = reference_simplex(2)
    x1 = Polynomial.variable(2, 0)
    x2 = Polynomial.variable(2, 1)
    v = VectorPoly([Polynomial.zero(2), x1 ** 3])
    F = Fraction

    nedelec = build_element(tri, 2, "nedelec").interpolate(v)
    expected_n = VectorPoly([
        Polynomial.zero(2),
        F(1, 20) - F(3, 5) * x1 + F(3, 2) * x1 ** 2,
    ])
    res.record(nedelec == expected_n,
               f"nedelec interpolant = {nedelec}")

    original = build_element(tri, 2, "bdm_original").interpolate(v)
    expected_o = VectorPoly([
        F(3, 140) * x1 * (1 - x1 - 2 * x2),
        F(1, 20) - F(3, 5) * x1 + F(3, 2) * x1 ** 2
        - F(3, 140) * x2 * (1 - 2 * x1 - x2),
    ])
    res.record(original == expected_o,
               f"original-DOF interpolant = {original}")
    res.record(nedelec != original, "variants disagree at order 2")

    v1 = VectorPoly([Polynomial.zero(2), x1 ** 2])
    same = (build_element(tri, 1, "nedelec").interpolate(v1)
            == build_element(tri, 1, "bdm_original").interpolate(v1))
    res.record(same, "variants coincide at order 1")
    return res


def check_counterexample_2d() -> CheckResult:
    """The three closed-form norms on the flattening triangle family and the
    diverging stability ratio."""
    res = CheckResult("counterexample-2d", True)
    preset = SWEEP_PRESETS["counterexample-2d"]
    v = preset.field(0)
    F = Fraction
    for h in (F(1), F(1, 2), F(1, 8), F(1, 64)):
        ts = tstar_simplex(h)
        iv = build_element(ts, 1).interpolate(v)
        lhs_sq = l2_norm_sq(iv, ts)
        v2_sq = l2_norm_sq(v, ts)
        dv_sq = l2_norm_sq(v.diff(0), ts)
        res.record(lhs_sq == F(1, 24) / h + h / 24,
                   f"h={h}: ||I v||^2 = {lhs_sq} = 1/(24h) + h/24")
        res.record(v2_sq == h / 15, f"h={h}: ||v2||^2 = {v2_sq} = h/15")
        res.record(dv_sq == F(2, 3) * h,
                   f"h={h}: ||d v2/d x1||^2 = {dv_sq} = 2h/3")
    result = preset.run(range(1, 11))
    res.record(result.verdict == "diverging",
               f"stability ratio sweep over h = 2^-1..2^-10: {result.verdict}")
    return res


def check_counterexample_3d() -> CheckResult:
    """Golden interpolant, the exact quadratic-form error identity with the
    pinned normalization, and the diverging ratio for stretched elements."""
    res = CheckResult("counterexample-3d", True)
    F = Fraction
    X = [Polynomial.variable(3, i) for i in range(3)]
    preset = SWEEP_PRESETS["counterexample-3d"]
    u = preset.field(0)
    for h1, h2, h3 in [(1, 1, 1), (2, 3, 5), (F(1, 3), F(2, 7), 4)]:
        h1, h2, h3 = F(h1), F(h2), F(h3)
        tet = weaker_example_tet(h1, h2, h3)
        iu = build_element(tet, 1).interpolate(u)
        expected = VectorPoly([
            F(2, 5) * h3 * X[0],
            -F(3, 5) * h3 * X[1],
            h3 * (Polynomial.constant(3, -h3 / 10) + F(1, 5) * X[2]),
        ])
        res.record(iu == expected, f"h=({h1},{h2},{h3}): golden interpolant")
        err = u - iu
        lhs_sq = l2_norm_sq(err, tet)
        # the display chain is normalized by ||x3||^2 = h1 h2 h3 h3^2 / 20,
        # pinned by the brute-force integral oracle
        normalizer = integrate_poly(X[2], tet, X[2])
        res.record(normalizer == h1 * h2 * h3 * h3 ** 2 / 20,
                   f"normalizer = {normalizer} = h1 h2 h3 h3^2/20")
        res.record(
            lhs_sq == normalizer * (38 * h1 ** 2 + 38 * h2 ** 2 + 21 * h3 ** 2) / 3150,
            f"error identity (38 h1^2 + 38 h2^2 + 21 h3^2)/3150 at h=({h1},{h2},{h3})")
        terms = [
            (h1 ** 2 * l2_norm_sq(u.diff(0), tet), h1 ** 2),
            (h2 ** 2 * l2_norm_sq(u.diff(1), tet), h2 ** 2),
            (h3 ** 2 * l2_norm_sq(u.diff(2), tet), (h1 ** 2 + h2 ** 2) / 3),
        ]
        ok = all(lhs == normalizer * rhs for lhs, rhs in terms)
        res.record(ok, "display-chain right-hand terms match exactly")
    result = preset.run(range(0, 11))
    res.record(result.verdict == "diverging",
               f"directional-form ratio sweep h3/h1 = 2^0..2^10: {result.verdict}")
    return res


def check_structural_lemmas() -> CheckResult:
    """Single-component inputs on the reference elements keep their shape
    under interpolation, for every complementary monomial at k = 1, 2."""
    res = CheckResult("structural-lemmas", True)
    elements = [("That-2d", reference_simplex(2)), ("That-3d", reference_simplex(3)),
                ("Tbar", t_bar_simplex())]
    for label, simplex in elements:
        d = simplex.dim
        for k in (1, 2):
            el = build_element(simplex, k, "nedelec")
            count = 0
            good = True
            for axis in range(d):
                others = [i for i in range(d) if i != axis]
                for alpha_red in monomial_indices(d - 1, k):
                    alpha = [0] * d
                    for pos, o in enumerate(others):
                        alpha[o] = alpha_red[pos]
                    f = Polynomial.monomial(d, tuple(alpha))
                    good = good and structural_lemma_check(el, axis, f)
                    count += 1
            res.record(good, f"{label} k={k}: {count} monomial inputs keep "
                             "the single-component structure")
    return res


ALL_CHECKS = {
    "dof-variants": check_dof_variants,
    "counterexample-2d": check_counterexample_2d,
    "counterexample-3d": check_counterexample_3d,
    "structural-lemmas": check_structural_lemmas,
}


def run_checks(names):
    return [ALL_CHECKS[name]() for name in names]
