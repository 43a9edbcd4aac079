"""Benchmark entry point.

    python3 perfbench/run.py --workload centers-64d --seed 1 --seconds 15 --trace 0

Run from the root of a checkout: the program is imported from ./src. With
`--trace 0` the last line of standard output is a JSON object holding the
end-to-end metrics; with `--trace 1` it holds the per-layer metrics of one
traced round. Without `--workload` every workload runs, each in its own
process.
"""

from __future__ import annotations

import os

# Pin BLAS and OpenMP pools to one thread before numpy is first imported, so
# the figures measure the program and not threads contending for two cores.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
CACHE_DIR = BENCH_DIR / "cache"
RESULTS_DIR = BENCH_DIR / "results"
# Set-up is repeated until both limits are reached, and its median reported.
SETUP_MIN_REPEATS = 5
SETUP_MIN_SECONDS = 2.0
WORKLOAD_NAMES = ("centers-64d", "cliff-2d", "ratio-240")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=15.0, help="round time to measure; whole rounds run until it is reached")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def measure(workload: str, seed: int, seconds: float) -> dict:
    """Untraced run: repeated set-up, then whole rounds until `seconds` of them pass."""
    from workloads import WORKLOADS, Verifier, instances, loaded_exactly, peak_rss_mb, run_round, set_up

    w = WORKLOADS[workload]
    insts = instances(w, seed, CACHE_DIR)

    setup_times: list[float] = []
    while len(setup_times) < SETUP_MIN_REPEATS or sum(setup_times) < SETUP_MIN_SECONDS:
        t0 = time.perf_counter()
        preps = set_up(w, insts)
        setup_times.append(time.perf_counter() - t0)
    errors = loaded_exactly(insts, preps)

    verifier = Verifier(w, insts)
    rounds = []
    spent = 0.0  # time inside rounds, counting operations that raised
    while spent < seconds:
        t0 = time.perf_counter()
        rnd, runs = run_round(w, insts, preps)
        spent += time.perf_counter() - t0
        rounds.append(rnd)
        verifier.add(runs)
        del runs

    def rate(r) -> float:
        return w.shape.n * (r.attempted - r.failed) / r.stream_s if r.stream_s else 0.0

    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (statistics.median(r.wall_s for r in rounds), "s"),
        "points_per_s": (statistics.median(rate(r) for r in rounds), "1/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "centers": (float(sum(verifier.t_out_sizes)), "count"),
        "risk_ratio": (statistics.median(verifier.risk_ratios) if verifier.risk_ratios else 0.0, "ratio"),
    }
    extra = {"setup_repeats": len(setup_times), "round_s": [round(r.wall_s, 4) for r in rounds]}
    return summary(errors + verifier.errors, rounds, metrics, extra)


def trace(workload: str, seed: int) -> dict:
    """Traced run: one untraced round as the baseline, then one traced round."""
    from tracing import TimedStream, Tracer
    from workloads import WORKLOADS, Verifier, install_tracer, instances, layer_metrics, loaded_exactly, run_round, set_up

    w = WORKLOADS[workload]
    insts = instances(w, seed, CACHE_DIR)
    verifier = Verifier(w, insts)
    untraced, runs = run_round(w, insts, set_up(w, insts))
    verifier.add(runs)
    del runs

    tracer = Tracer()
    install_tracer(tracer)
    try:
        preps = set_up(w, insts)
        traced, runs = run_round(w, insts, preps, stream_type=TimedStream)
    finally:
        tracer.close()
    verifier.add(runs)

    errors = loaded_exactly(insts, preps) + verifier.errors
    extra = {"untraced_round_s": round(untraced.wall_s, 4), "traced_round_s": round(traced.wall_s, 4)}
    result = summary(errors, [untraced, traced], layer_metrics(tracer, runs, traced.wall_s - untraced.wall_s), extra)
    RESULTS_DIR.mkdir(exist_ok=True)
    with open(RESULTS_DIR / f"trace-{workload}-seed{seed}.json", "w") as fh:
        json.dump({"result": result, "spans": tracer.to_json()}, fh)
    return result


def summary(errors: list[str], rounds: list, metrics: dict, extra: dict | None = None) -> dict:
    for e in errors:
        print(f"CHECK FAILED: {e}", file=sys.stderr)
    out = {
        "correct": not errors,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    for name, m in out["metrics"].items():
        print(f"{name:28s} {m['value']:.6g} {m['unit']}")
    if extra:
        print(" ".join(f"{k}={v}" for k, v in extra.items()))
    return out


def run_all(args: argparse.Namespace) -> int:
    """Every workload, each in a process of its own."""
    status = 0
    for name in WORKLOAD_NAMES:
        print(f"== {name}", flush=True)
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        status = max(status, subprocess.run(cmd).returncode)
    return status


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "munsc" / "__init__.py").is_file():
        print(f"perfbench: no munsc sources under {ROOT / 'src'}; run from the root of a checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(ROOT / "src"))
    if args.trace:
        result = trace(args.workload, args.seed)
    else:
        result = measure(args.workload, args.seed, args.seconds)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
