"""One benchmark run, in the fresh process `run.py` starts.

Sets up (imports, seeded inputs), runs the workload's job until the time
budget is spent, checks every op and prints one JSON line with the counts
and metrics.  With --trace 1 it runs the job once traced and once untraced
on the same inputs and reports the per-layer metrics instead.

All times are scaled to a reference speed (see SpeedMeter); the raw
wall-clock values go to the info record.
"""

import argparse
import bisect
import json
import math
import signal
import statistics
import sys
import traceback
from fractions import Fraction
from pathlib import Path
from time import monotonic  # CLOCK_MONOTONIC: comparable with the runner's clock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 5
# op_tail_ms takes the highest of these percentiles with at least ten
# samples above it, the maximum when no percentile has.
TAIL_PERCENTILES = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 50.0)
MAX_LOGGED_FAILURES = 5


def _probe():
    total = Fraction(0)
    for j in range(1, 150):
        total += Fraction(j % 7 + 1, j % 11 + 1)
    return total


class SpeedMeter:
    """Samples how fast this thread runs Python code, to scale times to a
    reference speed.

    On a shared host the speed of pure-Python code changes by up to 1.9x
    within seconds (a fixed loop of Fraction additions took 35 or 65 ms,
    switching back and forth), which spread raw wall_s by 0.25 (IQR /
    median) over five runs.  Every PERIOD_S a SIGALRM handler times a fixed
    probe.  Each gap between two probes gets a speed factor, REF_PROBE_S
    over the mean time of the probes within half the gap's length (at least
    PERIOD_S) of it: a signal waits until a long call into C, such as
    SuperLU, returns, so such a call has probes only around it.
    `scaled(t0, t1)` sums the gaps' lengths times their factors, so it
    leaves the probes' own time out and is additive over adjacent
    intervals, as span self times need.
    """

    PERIOD_S = 0.03
    REF_PROBE_S = 4e-4   # about the probe's time on an idle core here

    def __init__(self):
        self.starts, self.ends = [], []

    def _sample(self, signum, frame):
        t0 = monotonic()
        _probe()
        self.ends.append(monotonic())
        self.starts.append(t0)

    def start(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_IGN)
        starts, ends = self.starts, self.ends
        n = len(starts)
        durations = [b - a for a, b in zip(starts, ends)]
        cum = [0.0]   # prefix sums of per-probe factors
        for k in range(n):
            # median of three neighbours: the OS can preempt a single probe
            cum.append(cum[-1] + self.REF_PROBE_S / statistics.median(
                durations[max(0, k - 1):k + 2]))

        def factor(lo, hi):
            w = max(self.PERIOD_S, (hi - lo) / 2)
            i = bisect.bisect_left(starts, lo - w)
            j = max(bisect.bisect_right(starts, hi + w), i + 1)
            return (cum[j] - cum[i]) / (j - i)

        # gap k runs from the end of probe k-1 to the start of probe k
        self._gap_factor = [factor(starts[0], starts[0])] + [
            factor(ends[k - 1], starts[k]) for k in range(1, n)] + [
            factor(ends[-1], ends[-1])] if n else []
        self._at_start = [0.0]   # scaled time at the start of each probe
        for k in range(1, n):
            self._at_start.append(self._at_start[-1]
                                  + (starts[k] - ends[k - 1]) * self._gap_factor[k])

    def _position(self, t):
        k = bisect.bisect_right(self.starts, t)
        if k == 0:
            return (t - self.starts[0]) * self._gap_factor[0]
        return self._at_start[k - 1] + max(0.0, t - self.ends[k - 1]) * self._gap_factor[k]

    def scaled(self, t0, t1):
        """Duration of [t0, t1] at the reference speed, probes left out."""
        if not self.starts:
            return t1 - t0
        return self._position(t1) - self._position(t0)

    def summary(self):
        durations = sorted(b - a for a, b in zip(self.starts, self.ends))
        if len(durations) < 2:
            return {"probes": len(durations)}
        q = statistics.quantiles(durations, n=10)
        return {"probes": len(durations), "ref_probe_s": self.REF_PROBE_S,
                "probe_s_p10": q[0], "probe_s_p50": statistics.median(durations),
                "probe_s_p90": q[-1]}


def tail(samples):
    """(percentile, value): nearest-rank percentile with >= 10 samples above."""
    xs = sorted(samples)
    n = len(xs)
    for p in TAIL_PERCENTILES:
        rank = math.ceil(p / 100.0 * n)
        if n - rank >= 10:
            return p, xs[rank - 1]
    return 100.0, xs[-1]


def run_job(job, tracer=None):
    """Run every step; an exception or failed check marks the op failed and
    the run goes on."""
    spans, digests = [], []
    failed = 0
    t_start = monotonic()
    for i, step in enumerate(job.steps):
        t0 = monotonic()
        try:
            if tracer is None:
                out = step.fn()
            else:
                tracer.op_id = i
                out = tracer.span("bench.op" if step.is_op else "bench.step", step.fn)
            ok = True
        except (Exception, SystemExit) as exc:
            ok, out = False, None
            if failed < MAX_LOGGED_FAILURES:
                print(f"FAILED {step.label}: {exc!r}", file=sys.stderr)
                traceback.print_exc(limit=3, file=sys.stderr)
        t1 = monotonic()
        if step.is_op:
            spans.append((t0, t1))
            digests.append(out)
            failed += not ok
        elif not ok:
            failed += 1   # a failed build is counted; its ops fail as well
    return {"span": (t_start, monotonic()), "op_spans": spans,
            "digests": digests, "attempted": len(spans), "failed": failed}


def duration(span):
    return span[1] - span[0]


def layer_metric(name, summary, captures, job, overhead):
    """Value of one per-layer metric named in BENCHMARK.json."""
    if name == "trace.overhead_ratio":
        return overhead
    if name == "linalg.invert.max_bits":
        return captures["max_bits"]
    if name.startswith("bdm.build_ms."):
        durations = summary.by_label.get(name)
        return 1e3 * statistics.median(durations) if durations else 0.0
    if name in ("stokes.unknowns", "stokes.K_nnz", "stokes.lu_nnz"):
        K = captures["K"]
        if K is None:
            return 0
        if name == "stokes.unknowns":
            return int(K.shape[0])
        if name == "stokes.K_nnz":
            return int(K.nnz)
        return captures["lu_nnz"]
    if name in ("stokes.residual_max", "stokes.div_max", "stokes.jump_max"):
        return job.observed.get(name.split(".", 1)[1], 0.0)
    span, _, kind = name.rpartition(".")
    if kind == "calls":
        return summary.calls[span]
    if kind == "self_s":
        return summary.self_s[span]
    if kind == "s" and span.startswith("checks."):
        return summary.total_s[span]
    raise KeyError(f"no rule for per-layer metric {name!r}")


def lu_nnz(K):
    """nnz(L) + nnz(U) of SuperLU with its default ordering (computed by the
    benchmark, not by bdmlab)."""
    from scipy.sparse.linalg import splu
    lu = splu(K.tocsc())
    return int(lu.L.nnz + lu.U.nnz)


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spawn-t", type=float, required=True,
                        help="time.monotonic() when the runner started this process")
    args = parser.parse_args(argv)

    meter = SpeedMeter()
    meter.start()
    import numpy  # noqa: F401  (part of a user's import cost)
    import bdmlab
    if Path(bdmlab.__file__).resolve().parent != ROOT / "src" / "bdmlab":
        raise SystemExit(f"bdmlab imported from {bdmlab.__file__}, not this checkout")
    import tracing
    import workloads
    imports = (args.spawn_t, monotonic())

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    golden = json.loads((HERE / "golden.json").read_text())
    make_job = workloads.WORKLOADS[args.workload]
    generations = []
    for _ in range(SETUP_REPEATS):
        t0 = monotonic()
        job = make_job(golden, args.seed, 0)
        generations.append((t0, monotonic()))
    info = {"workload": args.workload, "seed": args.seed,
            "raw_import_s": duration(imports),
            "raw_input_generation_s": [duration(g) for g in generations]}

    if args.trace == 0:
        reps = []
        t_first = monotonic()
        while True:
            if reps:
                job = make_job(golden, args.seed, len(reps))
            reps.append(run_job(job))
            median_wall = statistics.median(duration(r["span"]) for r in reps)
            if monotonic() - t_first + median_wall > args.seconds:
                break
        meter.stop()
        walls = [meter.scaled(*r["span"]) for r in reps]
        latencies = [[meter.scaled(*op) for op in r["op_spans"]] for r in reps]
        tails = [tail(lat) for lat in latencies]
        metrics = {
            "setup_s": meter.scaled(*imports) + statistics.median(
                meter.scaled(*g) for g in generations),
            "wall_s": statistics.median(walls),
            "op_p50_ms": 1e3 * statistics.median(statistics.median(lat) for lat in latencies),
            "op_tail_ms": 1e3 * statistics.median(v for _, v in tails),
        }
        info.update(reps=len(reps), ops_per_rep=[r["attempted"] for r in reps],
                    tail_percentile=tails[0][0],
                    tail_samples_per_rep=reps[0]["attempted"],
                    raw_wall_s=[duration(r["span"]) for r in reps],
                    speed=meter.summary())
        attempted = sum(r["attempted"] for r in reps)
        failed = sum(r["failed"] for r in reps)
        correct = failed == 0
    else:
        tracer = tracing.Tracer()
        captures = tracing.install(tracer)
        try:
            traced = run_job(job, tracer)
        finally:
            tracer.uninstall()
        untraced = run_job(make_job(golden, args.seed, 0))
        meter.stop()
        if captures["K"] is not None:
            captures["lu_nnz"] = lu_nnz(captures["K"])
        summary = tracer.summarize(meter.scaled)
        overhead = meter.scaled(*traced["span"]) / meter.scaled(*untraced["span"]) - 1.0
        metrics = {m["name"]: layer_metric(m["name"], summary, captures, job, overhead)
                   for m in spec["per_layer"]}
        digests_match = traced["digests"] == untraced["digests"]
        info.update(raw_traced_wall_s=duration(traced["span"]),
                    raw_untraced_wall_s=duration(untraced["span"]),
                    digests_match=digests_match, spans=len(tracer.spans),
                    speed=meter.summary())
        attempted = traced["attempted"] + untraced["attempted"]
        failed = traced["failed"] + untraced["failed"]
        correct = failed == 0 and digests_match
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.json.gz", info, summary)

    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics, "info": info}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
