#!/usr/bin/env python3
"""pseudoht benchmark: fresh-process passes over seeded workloads.

    python3 perfbench/run.py --workload pair-k --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout (pseudoht is imported from ./src).
One closed loop: this process starts one worker process at a time, and each
worker runs one pass over the workload's job list in a single thread and
exits, so every pass starts with cold library caches, as every CLI call does.
Passes repeat until --seconds is used up: a pass starts when it would
likely end less than half a pass after --seconds (at least MIN_PASSES run).

With --trace 0 the result carries the end-to-end metrics: medians over the
passes of run_s (one pass), setup_s (process start to pseudoht imported and
the group structures built) and peak_rss_mb. With --trace 1 untraced and
traced passes alternate, and the result carries the per-layer metrics of the
traced passes plus the tracing overhead. Every pass of every job goes through
the correctness gate (gate.py). The last line of standard output is the JSON
result; the lines before it are a human-readable report with a machine block.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

import gate  # noqa: E402
import inputs  # noqa: E402
import tracing  # noqa: E402

MIN_PASSES = {False: 3, True: 4}
PASS_TIMEOUT_S = 120.0
RUN_DEADLINE_S = 150.0     # no pass starts that would likely end after this
REFERENCES = HERE / "references.json"
WORKER_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}

END_TO_END = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
LAYER_UNITS = {name: "count" for name in tracing.COUNT_METRICS}
LAYER_UNITS.update({"osc.freqs_per_call": "1/call", "quadrature.rule_hit_ratio": "ratio",
                    "witness.mixture_reuse_ratio": "ratio", "gate.tol_used": "ratio"})


class WorkerError(RuntimeError):
    pass


def run_pass(workload: str, jobs: list, traced: bool) -> dict:
    """Start one worker, feed it the jobs, wait for it and return its result."""
    cmd = [sys.executable, str(HERE / "worker.py"), workload, repr(time.monotonic()),
           "1" if traced else "0"]
    proc = subprocess.Popen(cmd, cwd=ROOT, env={**os.environ, **WORKER_ENV},
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(json.dumps(jobs), timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise WorkerError(f"pass exceeded {PASS_TIMEOUT_S:.0f} s")
    if proc.returncode != 0:
        raise WorkerError(f"worker exited with {proc.returncode}:\n{err[-4000:]}")
    return json.loads(out)


def run_passes(workload: str, jobs: list, seconds: float, trace: bool) -> list:
    passes = []
    start = time.monotonic()
    while True:
        traced = trace and len(passes) % 2 == 1
        t0 = time.monotonic()
        result = run_pass(workload, jobs, traced)
        result["traced"] = traced
        passes.append(result)
        elapsed, last = time.monotonic() - start, time.monotonic() - t0
        if elapsed + last > RUN_DEADLINE_S:
            break
        if len(passes) >= MIN_PASSES[trace] and elapsed + 0.5 * last > seconds:
            break
    return passes


def load_references(workload: str, seed: int, input_hash: str) -> dict | None:
    """Stored values per job id at the default seed, None at any other seed."""
    if seed != inputs.DEFAULT_SEED:
        return None
    stored = json.loads(REFERENCES.read_text()).get(workload)
    if stored is None or stored["input_hash"] != input_hash:
        raise SystemExit(f"{REFERENCES.name} has no references for these {workload} inputs; "
                         "regenerate them with perfbench/record_references.py")
    return stored["values"]


def judge_passes(passes: list, references: dict | None) -> tuple:
    """(attempted, failed, tol_used, failure messages) over all passes."""
    attempted = failed = 0
    tol_used = 0.0
    messages = []
    first = {r["id"]: r["values"] for r in passes[0]["jobs"]}
    for k, p in enumerate(passes):
        for r in p["jobs"]:
            stored = references.get(r["id"], []) if references is not None else None
            reasons, used = gate.judge(r, stored, first[r["id"]] if k else None)
            attempted += 1
            tol_used = max(tol_used, used)
            if reasons:
                failed += 1
                messages.append(f"pass {k} job {r['id']}: " + "; ".join(reasons))
    return attempted, failed, tol_used, messages


def machine_block(passes: list, load_start: float, load_end: float) -> dict:
    cpu = next((line.split(":", 1)[1].strip() for line in
                Path("/proc/cpuinfo").read_text().splitlines()
                if line.startswith("model name")), platform.processor())
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": metadata.version("numpy"), "scipy": metadata.version("scipy"),
            **passes[0]["machine"], "worker_env": WORKER_ENV,
            "loadavg_1m_start": load_start, "loadavg_1m_end": load_end}


def loadavg_1m() -> float:
    return float(Path("/proc/loadavg").read_text().split()[0])


def layer_metrics(passes: list) -> dict:
    """Counts from the first traced pass, times as medians over traced passes."""
    traced = [p for p in passes if p["traced"]]
    untraced = [p for p in passes if not p["traced"]]
    out = {}
    for name in traced[0]["layer"]:
        if name in tracing.COUNT_METRICS:
            out[name] = traced[0]["layer"][name]
        else:
            out[name] = statistics.median(p["layer"][name] for p in traced)
    traced_run = statistics.median(p["run_s"] for p in traced)
    out["trace.run_s"] = traced_run
    out["trace.overhead_s"] = traced_run - statistics.median(p["run_s"] for p in untraced)
    return out


def counts_repeat(passes: list) -> bool:
    traced = [p["layer"] for p in passes if p["traced"]]
    return all(t[name] == traced[0][name] for t in traced for name in tracing.COUNT_METRICS)


def report(args, input_hash, passes, machine, attempted, failed, tol_used, messages) -> dict:
    """Print the human-readable report and return the end-to-end medians."""
    print(f"workload {args.workload}  seed {args.seed}  inputs sha256 {input_hash[:16]}  "
          f"passes {len(passes)} ({sum(p['traced'] for p in passes)} traced)")
    print("machine " + json.dumps(machine, sort_keys=True))
    print(f"{'job':28s} {'median_s':>9s} {'residual/tol':>13s}")
    for k, job in enumerate(passes[0]["jobs"]):
        times = [p["jobs"][k]["s"] for p in passes if not p["traced"]]
        ratios = [r / t for r, t, _ in job["identities"]]
        worst = f"{max(ratios):13.3g}" if ratios else f"{'-':>13s}"
        print(f"{job['id']:28s} {statistics.median(times):9.4f} {worst}")
    untraced = [p for p in passes if not p["traced"]]
    medians = {name: statistics.median(p[name] for p in untraced) for name in END_TO_END}
    for name, unit in END_TO_END.items():
        each = " ".join(f"{p[name]:.4g}" for p in untraced)
        print(f"{name:12s} {medians[name]:10.4f} {unit:3s} (median of {len(untraced)}: {each})")
    print(f"{'fail_frac':12s} {failed / attempted:10.4f}     ({failed} of {attempted} jobs)")
    print(f"{'tol_used':12s} {tol_used:10.4g}     (largest identity residual / tolerance)")
    for line in messages[:20]:
        print("FAIL " + line)
    return medians


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(inputs.WORKLOADS))
    ap.add_argument("--seed", type=int, default=inputs.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "pseudoht" / "__init__.py").is_file():
        print(f"no pseudoht source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    jobs = inputs.generate(args.workload, args.seed)
    input_hash = inputs.input_hash(jobs)
    references = load_references(args.workload, args.seed, input_hash)
    load_start = loadavg_1m()
    try:
        passes = run_passes(args.workload, jobs, args.seconds, bool(args.trace))
    except WorkerError as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1
    machine = machine_block(passes, load_start, loadavg_1m())
    attempted, failed, tol_used, messages = judge_passes(passes, references)
    medians = report(args, input_hash, passes, machine, attempted, failed, tol_used, messages)

    if args.trace:
        layer = layer_metrics(passes)
        layer["gate.tol_used"] = tol_used
        if not counts_repeat(passes):
            print("WARNING traced counts differ between traced passes")
        metrics = {name: {"value": value, "unit": LAYER_UNITS.get(name, "s")}
                   for name, value in layer.items()}
    else:
        metrics = {name: {"value": medians[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
