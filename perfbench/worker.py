"""One pass of one workload in a fresh Python process.

Usage (started by run.py, which writes the job list as JSON to stdin):

    python3 perfbench/worker.py <workload> <spawn time> <traced 0|1>

<spawn time> is time.monotonic() in the parent just before the process was
started, so setup_s covers interpreter start, importing pseudoht and building
the workload's group structures. The pass itself, timed as run_s, runs every
job back to back in this one thread with cold library caches. The checks run
after the timing and outside the trace. Prints one JSON object.
"""
from __future__ import annotations

import sys
import time

SPAWNED = float(sys.argv[2])

import json  # noqa: E402
import resource  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import pseudoht  # noqa: E402

import jobs as jobkinds  # noqa: E402
import tracing  # noqa: E402


def _number(x):
    """A JSON-safe [re, im] pair for a real or complex result."""
    x = complex(x)
    return [x.real, x.imag]


def _blas() -> dict:
    """Name and thread count of the BLAS numpy is linked against (None if unknown)."""
    import ctypes

    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps") as maps:
        libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                getattr(handle, symbol).restype = ctypes.c_int
                threads = int(getattr(handle, symbol)())
                break
    return {"blas": info.get("name"), "blas_version": info.get("version"),
            "blas_threads": threads}


def _kernels_ext_imports() -> bool:
    import importlib.util

    if importlib.util.find_spec("pseudoht._kernels_ext") is None:
        return False
    try:
        importlib.import_module("pseudoht._kernels_ext")
    except ImportError:
        return False
    return True


def main() -> None:
    workload, traced = sys.argv[1], sys.argv[3] == "1"
    if not Path(pseudoht.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"pseudoht imported from {pseudoht.__file__}, not from {ROOT / 'src'}")
    env = jobkinds.Env(pseudoht, workload)
    setup_s = time.monotonic() - SPAWNED

    job_list = json.load(sys.stdin)
    tracer = tracing.Tracer() if traced else None
    if tracer is not None:
        rules = tracing.install(tracer)
        rules_before = tracing.rule_cache_counts(rules)
    outcomes = []
    t0 = time.perf_counter()
    for job in job_list:
        run, _ = jobkinds.KINDS[job["kind"]]
        start = time.perf_counter()
        try:
            values, aux = run(env, job)
            error = None
        except Exception as exc:  # a raising job is a failed job, not a crash
            values, aux, error = None, None, f"{type(exc).__name__}: {exc}"
        outcomes.append((job, values, aux, error, time.perf_counter() - start))
    run_s = time.perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    layer = None
    if tracer is not None:
        layer = tracing.metrics(tracer, rules_before, tracing.rule_cache_counts(rules))
        tracer.uninstall()

    results = []
    for job, values, aux, error, seconds in outcomes:
        identities = []
        if error is None:
            _, check = jobkinds.KINDS[job["kind"]]
            try:
                identities = [(float(r), float(t), abs(complex(ref)))
                              for r, t, ref in check(env, job, values, aux)]
            except Exception as exc:
                error = f"check {type(exc).__name__}: {exc}"
        results.append({"id": job["id"], "s": seconds, "error": error,
                        "values": [_number(v) for v in values] if values is not None else None,
                        "identities": identities})
    json.dump({"setup_s": setup_s, "run_s": run_s, "peak_rss_mb": peak_rss_mb,
               "jobs": results, "layer": layer,
               "machine": {**_blas(), "kernels_ext_imports": _kernels_ext_imports()}},
              sys.stdout)


if __name__ == "__main__":
    main()
