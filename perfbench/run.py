"""Benchmark runner for bdmlab.

    python3 perfbench/run.py --workload exact_interp --seed 1 --seconds 40 --trace 0

Runs one workload in one fresh worker process (worker.py), with the BLAS
and OpenMP thread counts pinned to 1 and PYTHONHASHSEED fixed in that
process's environment only.  Prints an `info` line, then, as the last line,
the result: {"correct", "attempted", "failed", "metrics"}.  With --trace 0
the metrics are the end-to-end ones of BENCHMARK.json, with --trace 1 the
per-layer ones.  Exits non-zero, printing no result, when the worker
cannot run (for instance when the checkout has no src/bdmlab).
"""

import argparse
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER_TIMEOUT_S = 170
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    return 1


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "bdmlab" / "__init__.py").is_file():
        return fail(f"no bdmlab sources under {ROOT / 'src'}")
    env = dict(os.environ, **PINNED_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--spawn-t", repr(time.monotonic())]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return fail(f"worker exceeded {WORKER_TIMEOUT_S} s")
    if proc.returncode != 0:
        return fail(f"worker exited with code {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        return fail("worker printed no result")
    result = json.loads(lines[-1])
    # the only child, so its peak is the children's peak (KiB on Linux)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    metrics = result["metrics"]
    if args.trace == 0:
        metrics["peak_rss_mib"] = peak_rss_mib
        metrics["ok_ratio"] = ((result["attempted"] - result["failed"])
                               / result["attempted"])
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    info = dict(result["info"], pinned_env=PINNED_ENV, trace=args.trace,
                seconds=args.seconds, worker_peak_rss_mib=peak_rss_mib)
    report = {"correct": result["correct"], "attempted": result["attempted"],
              "failed": result["failed"],
              "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                          for m in wanted}}
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    record = dict(report, info=info)
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps({"info": info}))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
