#!/usr/bin/env python3
"""What each library cache saves a pass of one benchmark workload.

    PYTHONPATH=src python3 tests/cold_builds.py --workload pair-k --rounds 25

Every benchmark pass and every CLI call starts with cold caches, so the
builds behind them are part of what a pass costs.  This script runs the
workload's seed jobs (`perfbench/inputs.py`, `perfbench/jobs.py`, read and
not changed) back to back in this one process, on one BLAS thread.  Each
round runs one pass with every cache warm and, for each cached builder of
pseudoht (every `functools.lru_cache` in its modules that the workload
fills), one pass with that cache cleared first; a last pass clears them
all.  The passes of a round run in a shuffled order.  Per builder it
prints the median over the rounds of (cleared pass - warm pass of the same
round), the quartiles of that difference, and the builds (cache misses) a
cleared pass makes.
"""
from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import random  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import pseudoht  # noqa: E402

import inputs  # noqa: E402
import jobs as jobkinds  # noqa: E402


def cached_builders() -> dict:
    """{module.name: cached function} over pseudoht's modules."""
    found = {}
    for mod_name, mod in sorted(sys.modules.items()):
        if mod is None or not mod_name.startswith("pseudoht."):
            continue
        for name, obj in vars(mod).items():
            if hasattr(obj, "cache_clear") and hasattr(obj, "cache_info") \
                    and getattr(obj, "__module__", None) == mod_name:
                found[f"{mod_name.split('.', 1)[1]}.{name}"] = obj
    return found


def run_pass(env, job_list) -> float:
    t0 = time.perf_counter()
    for job in job_list:
        run, _ = jobkinds.KINDS[job["kind"]]
        run(env, job)
    return time.perf_counter() - t0


def clear(builders) -> None:
    for f in builders:
        f.cache_clear()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="pair-k", choices=sorted(inputs.WORKLOADS))
    ap.add_argument("--seed", type=int, default=inputs.DEFAULT_SEED)
    ap.add_argument("--rounds", type=int, default=25)
    args = ap.parse_args(argv)
    if args.rounds < 1:
        ap.error("--rounds must be at least 1")

    job_list = inputs.generate(args.workload, args.seed)
    env = jobkinds.Env(pseudoht, args.workload)
    run_pass(env, job_list)                      # imports every module the jobs need
    builders = cached_builders()
    clear(builders.values())
    run_pass(env, job_list)
    builds = {name: f.cache_info().misses for name, f in builders.items()}
    used = {name: f for name, f in builders.items() if builds[name]}

    variants = [None, *used, "all"]
    deltas = {v: [] for v in variants[1:]}
    warm = []
    rng = random.Random(args.seed)
    for _ in range(args.rounds):
        times = {}
        for v in rng.sample(variants, len(variants)):
            if v == "all":
                clear(used.values())
            elif v is not None:
                used[v].cache_clear()
            times[v] = run_pass(env, job_list)
        warm.append(times[None])
        for v in variants[1:]:
            deltas[v].append(times[v] - times[None])

    print(f"workload {args.workload}  seed {args.seed}  rounds {args.rounds}  "
          f"warm pass median {1e3 * statistics.median(warm):.2f} ms")
    print(f"{'cache':32s} {'builds':>7s} {'median_ms':>10s} {'q1_ms':>8s} {'q3_ms':>8s}")
    for v in variants[1:]:
        q1, med, q3 = statistics.quantiles(deltas[v], n=4) if len(deltas[v]) > 1 \
            else [deltas[v][0]] * 3
        count = sum(builds[name] for name in used) if v == "all" else builds[v]
        print(f"{v:32s} {count:7d} {1e3 * med:10.2f} {1e3 * q1:8.2f} {1e3 * q3:8.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
