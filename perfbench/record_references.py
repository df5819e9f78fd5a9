#!/usr/bin/env python3
"""Write references.json: every job's values at the default seed.

    python3 perfbench/record_references.py [workload ...]

Run from the root of a source checkout. The drift gate compares the default
seed's values against this file, so rerun it only when the job list changes
or when a change to pseudoht is meant to move the numbers (and say why).
Refuses to record a workload whose jobs do not pass their identities.
"""
from __future__ import annotations

import json
import sys

import gate
import inputs
from run import REFERENCES, run_pass


def main(workloads) -> int:
    stored = json.loads(REFERENCES.read_text()) if REFERENCES.exists() else {}
    for workload in workloads or list(inputs.WORKLOADS):
        jobs = inputs.generate(workload, inputs.DEFAULT_SEED)
        result = run_pass(workload, jobs, traced=False)
        failures = {r["id"]: reasons for r in result["jobs"] if (reasons := gate.judge(r)[0])}
        if failures:
            print(f"{workload}: not recorded, failing jobs {failures}", file=sys.stderr)
            return 1
        stored[workload] = {"seed": inputs.DEFAULT_SEED, "input_hash": inputs.input_hash(jobs),
                            "values": {r["id"]: r["values"] for r in result["jobs"]}}
        print(f"{workload}: recorded {len(jobs)} jobs")
    REFERENCES.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
