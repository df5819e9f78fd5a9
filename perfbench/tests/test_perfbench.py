"""Tests of the benchmark itself: python3 -m pytest perfbench/tests -q"""
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import gate  # noqa: E402
import inputs  # noqa: E402
import tracing  # noqa: E402


# ---------------------------------------------------------------- generator

@pytest.mark.parametrize("workload", sorted(inputs.WORKLOADS))
def test_generator_is_deterministic(workload):
    a, b = inputs.generate(workload, 7), inputs.generate(workload, 7)
    assert a == b
    assert inputs.input_hash(a) == inputs.input_hash(b)
    assert inputs.input_hash(inputs.generate(workload, 8)) != inputs.input_hash(a)
    assert len(inputs.generate(workload, 8)) == len(a)


def test_stored_references_match_the_generator():
    stored = json.loads((HERE / "references.json").read_text())
    for workload in inputs.WORKLOADS:
        jobs = inputs.generate(workload, inputs.DEFAULT_SEED)
        assert stored[workload]["input_hash"] == inputs.input_hash(jobs)
        assert set(stored[workload]["values"]) == {job["id"] for job in jobs}


@pytest.mark.parametrize("seed", range(6))
def test_generator_meets_preconditions(seed):
    for workload in inputs.WORKLOADS:
        for job in inputs.generate(workload, seed):
            phi = job.get("phi")
            if phi is not None:
                assert all(a > 0 for a in phi["quad_diag"])
                if job["kind"] in ("mr_vs_k", "second_form"):
                    assert not any(phi["shift"])   # centred, zero z-frequency
                if job["kind"] == "mr_vs_k":      # unequal x-blocks: nonzero pairing
                    assert max(phi["quad_diag"][:2]) < min(phi["quad_diag"][2:4])
            if job["kind"] == "witness":
                (e1, e2), d = job["eta0"], job["delta"]
                assert (abs(e1) - d) ** 2 - (abs(e2) + d) ** 2 > 0.1
            if job["kind"] == "offcone":
                x, z = np.array(job["x"]), np.array(job["z"])
                p = float(np.sum(x[:job["n"]] ** 2) - np.sum(x[job["n"]:] ** 2))
                assert abs(p) > 4 * np.linalg.norm(z) * 1.5
            if job["kind"] == "closed_form":
                assert min(map(abs, inputs.closed_form_values(job["v"]))) > 10 * gate.FLOOR
            if job["kind"] == "kernel_q":
                xi, r = np.array(job["xi"]), np.linalg.norm(job["theta"])
                n = job["n"]
                v = float(np.sum(xi[:n] ** 2) - np.sum(xi[n:] ** 2)) / r
                assert inputs.kernel_q_magnitude(n, job["s"], v, r,
                                                 complex(*job["lam0"])) >= 10 * gate.FLOOR


# --------------------------------------------------------------------- gate

def _result(values, identities=((1e-6, 1e-3, 1.0),), error=None):
    return {"id": "job", "s": 0.1, "error": error, "values": values,
            "identities": [list(i) for i in identities]}


def test_drift_gate_catches_1e_9_perturbation():
    stored = [[0.5, -0.25], [1.0, 0.0]]
    assert gate.judge(_result(stored), stored) == ([], 1e-3)
    near = [[0.5 * (1 + 1e-13), -0.25], [1.0, 0.0]]
    assert gate.judge(_result(near), stored)[0] == []
    moved = [[0.5 * (1 + 1e-9), -0.25], [1.0, 0.0]]
    reasons, _ = gate.judge(_result(moved), stored)
    assert len(reasons) == 1 and reasons[0].startswith("drift from stored reference")
    reasons, _ = gate.judge(_result(moved), None, first=stored)
    assert len(reasons) == 1 and reasons[0].startswith("differs from first pass")


def test_vacuous_reference_fails():
    # both sides about 1e-16: the residual is tiny, but nothing was compared
    reasons, _ = gate.judge(_result([[1e-16, 0.0]], [(1e-18, 1e-2, 1e-16)]))
    assert len(reasons) == 1 and reasons[0].startswith("vacuous")
    assert gate.judge(_result([[1.0, 0.0]], [(1e-18, 1e-2, 10 * gate.FLOOR)]))[0] == []


def test_missed_tolerance_and_raise_fail():
    reasons, used = gate.judge(_result([[1.0, 0.0]], [(2e-3, 1e-3, 1.0)]))
    assert reasons and used == pytest.approx(2.0)
    reasons, used = gate.judge(_result(None, [], error="ValueError: boom"))
    assert reasons == ["raised ValueError: boom"] and used == 0.0


# ------------------------------------------------------------------ tracing

class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_on_synthetic_span_tree():
    clock = FakeClock()
    t = tracing.Tracer(clock)

    def at(when, action, key=None):
        clock.now = when
        t.enter(key) if action == "enter" else t.exit()

    # pairing [0, 10] > osc [1, 4] > quadrature.rules [2, 3]; osc [5, 9];
    # quadrature.rules [6, 8] holds a recursive quadrature.rules [6.5, 7]
    at(0, "enter", "pairing.pair_k")
    at(1, "enter", "osc")
    at(2, "enter", "quadrature.rules")
    at(3, "exit")
    at(4, "exit")
    at(5, "enter", "osc")
    at(6, "enter", "quadrature.rules")
    at(6.5, "enter", "quadrature.rules")
    at(7, "exit")
    at(8, "exit")
    at(9, "exit")
    at(10, "exit")
    assert t.inclusive == {"pairing.pair_k": 10, "osc": 7, "quadrature.rules": 3}
    assert t.self_time == pytest.approx({"pairing.pair_k": 3, "osc": 4,
                                         "quadrature.rules": 3})


def test_calculus_spans_fold_into_enclosing_calculus_span():
    clock = FakeClock()
    t = tracing.Tracer(clock)
    inner = t.span("gausspoly.algebra", lambda: setattr(clock, "now", clock.now + 1))

    def fourier():
        inner()
        inner()
    outer = t.span("gausspoly.fourier", fourier)
    outer()
    inner()
    assert t.inclusive == {"gausspoly.fourier": 2, "gausspoly.algebra": 1}


def test_install_patches_every_binding_and_uninstall_restores():
    from pseudoht import gausspoly, kernels, pairing, quadrature, specfun

    originals = (pairing.batched_osc_integral, quadrature.refine_until,
                 quadrature.half_disc_rule, gausspoly.GaussPoly.restrict)
    t = tracing.Tracer()
    tracing.install(t)
    try:
        assert pairing.batched_osc_integral is kernels.batched_osc_integral \
            is gausspoly.batched_osc_integral is not originals[0]
        assert kernels.refine_until is specfun.refine_until \
            is quadrature.refine_until is not originals[1]
        assert kernels.half_disc_rule is specfun.half_disc_rule \
            is pairing.half_disc_rule is not originals[2]
    finally:
        t.uninstall()
    assert (pairing.batched_osc_integral, quadrature.refine_until,
            quadrature.half_disc_rule, gausspoly.GaussPoly.restrict) == originals
    assert kernels.half_disc_rule is originals[2]


def test_traced_counts_repeat_across_fresh_processes():
    jobs = [j for j in inputs.generate("rho-integrals", 3) if j["id"].startswith("gbar.22.")]
    runs = []
    for _ in range(2):
        out = subprocess.run([sys.executable, str(HERE / "worker.py"), "rho-integrals",
                              "0.0", "1"], input=json.dumps(jobs), capture_output=True,
                             text=True, cwd=HERE.parent, check=True, timeout=120)
        runs.append(json.loads(out.stdout)["layer"])
    counts = [{k: r[k] for k in tracing.COUNT_METRICS} for r in runs]
    assert counts[0] == counts[1]
    assert counts[0]["quadrature.rule_builds"] > 0
    assert counts[0]["quadrature.refine.calls"] == len(jobs)
