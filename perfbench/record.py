"""Write golden.json: the benchmark's input pools and the outputs bdmlab
gives for every pool entry.

Run it only on the reference commit.  Every later benchmark run compares
its outputs with these values, so re-recording on a changed program would
hide a changed result.

    PYTHONPATH=src python3 perfbench/record.py
"""

import json
import random
import sys
from pathlib import Path

from bdmlab import estimates
from bdmlab.bdm import build_element
from bdmlab.geometry import DegenerateSimplexError, Simplex, max_angle

import workloads as w

GOLDEN = Path(__file__).resolve().parent / "golden.json"
ANGLE_CAP = 2.6
COORD_RANGE = 3


def random_simplex(dim, rng):
    """Angle-capped integer simplex (the criterion-4 generator)."""
    while True:
        verts = [[rng.randint(-COORD_RANGE, COORD_RANGE) for _ in range(dim)]
                 for _ in range(dim + 1)]
        try:
            s = Simplex(tuple(map(tuple, verts)))
        except DegenerateSimplexError:
            continue
        if max_angle(s) <= ANGLE_CAP:
            return verts


def pool(name, dim, count):
    rng = random.Random(f"pool:{name}:{dim}")
    return [random_simplex(dim, rng) for _ in range(count)]


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def record_exact():
    simplices = {str(d): pool("exact", d, w.EXACT_SIMPLICES) for d in (2, 3)}
    digests = {}
    for (d, k), (n_el, _, n_pool) in w.EXACT_PLAN.items():
        for si in range(n_el):
            s = w.simplex(simplices[str(d)][si])
            for variant in w.VARIANTS:
                el = build_element(s, k, variant)
                for fi in range(n_pool):
                    v = w.exact_field(d, k, si, fi)
                    result = el.interpolate(v)
                    if fi % 2 == 0 and result != v:
                        raise SystemExit(f"projection property fails: d{d}k{k} s{si} f{fi}")
                    digests[w.exact_key(d, k, variant, si, fi)] = w.poly_digest(result)
            log("exact", d, k, si)
    return {"simplices": simplices, "digests": digests,
            "verify_all": w.verify_all()}


def record_sweep():
    sweeps = []
    for fi in range(w.SWEEP_FIELDS):
        v = w.sweep_field(fi)
        ratios = [w.sweep_point(v, p) for p in w.SWEEP_GRID]
        sweeps.append({"ratios": ratios, "verdict": estimates.ratio_verdict(ratios)})
    log("sweeps", [s["verdict"] for s in sweeps])
    simplices = {str(d): pool("mac", d, w.MAC_POOL[d]) for d in (2, 3)}
    mac = {}
    for d in (2, 3):
        for si, verts in enumerate(simplices[str(d)]):
            s = w.simplex(verts)
            for k in (1, 2):
                err, rhs = w.mac_point(s, w.mac_field(d, si, k), k)
                mac[f"{d}/s{si}/k{k}"] = {"err": err, "rhs": rhs}
        log("mac", d)
    return {"sweeps": sweeps, "simplices": simplices, "mac": mac}


def record_stokes():
    out = {}
    for kind, eps in w.STOKES_SERIES:
        for N in w.STOKES_N:
            row = w.stokes_point(kind, eps, N)
            out[f"{kind}/{eps!r}/{N}"] = {"err_grad_u": row["err_grad_u"],
                                          "err_p": row["err_p"]}
            log("stokes", kind, N)
    return out


def main():
    golden = {"exact_interp": record_exact(),
              "estimate_sweep": record_sweep(),
              "stokes_study": record_stokes()}
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
