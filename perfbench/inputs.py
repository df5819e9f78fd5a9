"""Seeded, deterministic job lists for the four benchmark workloads.

A job is plain data (numbers and lists, no pseudoht objects) so that the
generator, the input hash and the references do not depend on the library.
Every random parameter is drawn inside its own narrow stratum: the inputs
change with the seed while the work per pass stays nearly the same, which
keeps the run time comparable across seeds.

Ranges meet each pairing's preconditions:

* test functions have diagonal (hence x/z block-diagonal) quadratic forms;
* second-form inputs have zero frequency in z and are centred in z;
* the iterated-integral (MR) inputs are centred, so the Hermite order per
  t-node stays at its floor instead of growing like (f s)^2 up to 8192;
* MR-vs-K inputs have different widths on the positive and negative x-blocks,
  so the pairing is clearly nonzero (centred isotropic Gaussians pair to 0);
* witness bump balls stay inside K = {eta_1^2 - eta_2^2 > 0} with margin;
* off-cone points keep |P(x)| > 4 |z| with margin;
* closed-form Bessel/Struve arguments stay away from zeros of the reference.
"""
from __future__ import annotations

import hashlib
import json
import math

import numpy as np
from scipy.special import jv, struve

from gate import FLOOR

DEFAULT_SEED = 0

# Stated tolerances of the paper identities each job checks.
TOL_DELTA_S2 = 1e-3        # delta-reproduction, s = 2 instance
TOL_DELTA_S1 = 1e-2        # delta-reproduction, s = 1 heaviside instance
TOL_REPRESENTATION = 1e-2  # MR vs K, second form vs K
TOL_COUNTEREXAMPLE = 1e-3  # n = 2 counterexample identity
TOL_GBAR = 1e-8            # constancy of the conjugated operator on q
TOL_BESSEL_FORM = 1e-8     # rho-integral vs Bessel/Struve form of q^{lam,mu}
TOL_OFFCONE = 1e-6         # smooth kernel: the rel_tol it is computed to
TOL_CLOSED_FORM = 1e-10    # J/Y/H against elementary closed forms
TOL_CONTINUATION = 1e-3    # P^lambda at lambda = -(n-1) vs 1/P^{n-1}
TOL_K_INDEPENDENCE = 1e-5  # P^lambda value independent of k
TOL_WITNESS = 1e-8         # relative kernel residual of the witness
TOL_WITNESS_NORM = 1e-10   # normalised witness phi(0) = 1


def _slices(lo: float, hi: float, k: int) -> list:
    edges = np.linspace(lo, hi, k + 1)
    return list(zip(edges[:-1], edges[1:]))


def _strata(rng, lo: float, hi: float, k: int) -> list:
    """k values, one uniform draw in each of k equal slices of [lo, hi]."""
    return [float(a + (b - a) * rng.random()) for a, b in _slices(lo, hi, k)]


def _log_strata(rng, lo: float, hi: float, k: int) -> list:
    return [math.exp(x) for x in _strata(rng, math.log(lo), math.log(hi), k)]


def _sign(rng) -> float:
    return 1.0 if rng.random() < 0.5 else -1.0


def _gauss(widths, poly=None) -> dict:
    """A centred test function: diagonal quadratic form, polynomial [mono..., re, im]."""
    d = len(widths)
    return {"quad_diag": [float(w) for w in widths],
            "poly": poly or [[0] * d + [1.0, 0.0]], "shift": [0.0] * d}


def _even_poly(d: int, c_first: float, c_last: float) -> list:
    """1 + c_first u_0^2 + c_last u_{d-1}^2, so that phi(0) = 1."""
    first = [2] + [0] * (d - 1)
    last = [0] * (d - 1) + [2]
    return [[0] * d + [1.0, 0.0], first + [c_first, 0.0], last + [c_last, 0.0]]


def _pair_k_jobs(rng) -> list:
    return [
        # 8 circle nodes instead of the default 16 halve this job (it still
        # reproduces phi(0) to 1e-7), so a pass fits several times in a run
        {"id": "delta.022.constant", "kind": "delta_repro", "sig": [0, 2, 2],
         "selector": "constant", "tol": TOL_DELTA_S2, "budget": {"sphere_pts": 8},
         "phi": _gauss(_strata(rng, 1.0, 1.4, 6))},
        {"id": "delta.012.heaviside", "kind": "delta_repro", "sig": [0, 1, 2],
         "selector": "heaviside", "tol": TOL_DELTA_S1,
         "phi": _gauss(_strata(rng, 1.0, 1.4, 5),
                       _even_poly(5, *_strata(rng, 0.3, 0.5, 1), *_strata(rng, -0.3, -0.1, 1)))},
        {"id": "mr_vs_k.012.gauss", "kind": "mr_vs_k", "sig": [0, 1, 2],
         "tol": TOL_REPRESENTATION, "phi": _gauss(_strata(rng, 1.0, 1.4, 5))},
        {"id": "mr_vs_k.012.poly", "kind": "mr_vs_k", "sig": [0, 1, 2],
         "tol": TOL_REPRESENTATION,
         "phi": _gauss(_strata(rng, 1.0, 1.4, 5),
                       _even_poly(5, *_strata(rng, 0.3, 0.5, 1), *_strata(rng, -0.3, -0.1, 1)))},
        {"id": "counterexample.012", "kind": "pseudo_n2", "sig": [0, 1, 2],
         "tol": TOL_COUNTEREXAMPLE, "phi": _gauss(_strata(rng, 0.9, 1.2, 5))},
    ]


def _second_form_jobs(rng) -> list:
    return [
        {"id": "second_form.012", "kind": "second_form", "sig": [0, 1, 2],
         "tol": TOL_REPRESENTATION, "phi": _gauss(_strata(rng, 1.0, 1.4, 5))},
    ]


def _witness_jobs(rng) -> list:
    sign = _sign(rng)
    eta0 = [_strata(rng, 2.0, 2.2, 1)[0], sign * _strata(rng, 0.5, 0.9, 1)[0]]
    delta = _strata(rng, 0.4, 0.5, 1)[0]
    return [
        {"id": "witness.112", "kind": "witness", "sig": [1, 1, 2], "eta0": eta0,
         "delta": delta, "flow_nodes": 64, "eta_grid": 3, "xi_grid": 7,
         "tol": TOL_WITNESS, "norm_tol": TOL_WITNESS_NORM},
    ]


def _unit(rng, k: int) -> np.ndarray:
    u = rng.normal(size=k)
    return u / np.linalg.norm(u)


def _xi_with_p(rng, n: int, p: float) -> list:
    """A point of R^{2n} with P(xi) = p exactly (up to rounding)."""
    small = _strata(rng, 0.0, 1.0, 1)[0]
    big = math.sqrt(abs(p) + small ** 2)
    a, b = (big, small) if p >= 0 else (small, big)
    return [float(x) for x in np.concatenate([a * _unit(rng, n), b * _unit(rng, n)])]


def _theta(rng, s: int) -> list:
    return [float(x) for x in _strata(rng, 0.5, 2.0, 1)[0] * _unit(rng, s)]


GBAR_SIGNATURES = ((1, 2), (2, 1), (2, 2), (3, 1))
# |v| = |P|/|theta| per signature: log-stratified below 50, where the
# rho-rule stays at its minimal size, and uniformly stratified above it, where
# every point needs rules of about |v|/2 nodes; the high band sets the rule
# working set and most of the cost, and uniform strata keep that cost steady
GBAR_LOW = (0.5, 50.0, 10)
# Above these bands refine_until stops converging at n = 1 (near |v| = 170 for
# gbar_residual and |v| = 92 for osc_weight_integral) and runs to 16384 nodes.
GBAR_HIGH = {1: (50.0, 120.0, 80), 2: (50.0, 250.0, 120), 3: (50.0, 250.0, 120)}
KERNEL_Q_V = (0.5, 60.0, 10)


def _rho_jobs(rng) -> list:
    jobs = []
    for n, s in GBAR_SIGNATURES:
        for k, v in enumerate(_log_strata(rng, *GBAR_LOW) + _strata(rng, *GBAR_HIGH[n])):
            th = _theta(rng, s)
            p = _sign(rng) * v * float(np.linalg.norm(th))
            jobs.append({"id": f"gbar.{n}{s}.{k}", "kind": "gbar", "n": n, "s": s,
                         "xi": _xi_with_p(rng, n, p), "theta": th, "tol": TOL_GBAR})
    for n, s in GBAR_SIGNATURES:
        for k, (lo, hi) in enumerate(_slices(*KERNEL_Q_V)):
            while True:
                v = _sign(rng) * _strata(rng, lo, hi, 1)[0]
                th = _theta(rng, s)
                lam0 = _strata(rng, 0.2, 0.8, 1) + _strata(rng, -0.3, 0.3, 1)
                r = float(np.linalg.norm(th))
                if kernel_q_magnitude(n, s, v, r, complex(*lam0)) >= 10 * FLOOR:
                    break
            jobs.append({"id": f"kernel_q.{n}{s}.{k}", "kind": "kernel_q", "n": n, "s": s,
                         "xi": _xi_with_p(rng, n, v * r), "theta": th, "lam0": lam0,
                         "tol": TOL_BESSEL_FORM})
    for n, s in GBAR_SIGNATURES:
        p = _sign(rng) * _strata(rng, 2.0, 6.0, 1)[0]
        zlen = abs(p) / 4.0 * _strata(rng, 0.1, 0.5, 1)[0]
        jobs.append({"id": f"offcone.{n}{s}", "kind": "offcone", "n": n, "s": s,
                     "x": _xi_with_p(rng, n, p),
                     "z": [float(c) for c in zlen * _unit(rng, s)],
                     "dilation": _strata(rng, 0.7, 1.4, 1)[0], "tol": TOL_OFFCONE})
    for k, v in enumerate(_closed_form_arguments(rng, 6)):
        jobs.append({"id": f"closed_form.{k}", "kind": "closed_form", "v": v,
                     "tol": TOL_CLOSED_FORM})
    jobs.append({"id": "p_i0.02", "kind": "p_i0", "n": 2,
                 "a": _strata(rng, 1.6, 2.4, 1)[0], "coeff": _strata(rng, 0.5, 1.5, 1)[0],
                 "tol": TOL_CONTINUATION, "k_tol": TOL_K_INDEPENDENCE})
    return jobs


def kernel_q_magnitude(n: int, s: int, v: float, r: float, lam0: complex) -> float:
    """|q^{lam,mu}| at P/|theta| = v, |theta| = r, from SciPy's J and H.

    The kernel vanishes where c1 J_nu and H_nu vanish together (at |v| = 2 pi k
    for n = 2), so kernel_q jobs are drawn away from there.
    """
    nu = (n - 1) / 2.0
    combo = (2.0 * lam0 - 1.0) * jv(nu, abs(v)) + 1j * math.copysign(1.0, v) * struve(nu, abs(v))
    pref = math.sqrt(math.pi) * math.gamma(n / 2.0) \
        / (2.0 * (2.0 * math.pi) ** (n + s / 2.0) * r) * (2.0 / abs(v)) ** nu
    return abs(pref * combo)


def closed_form_values(v: float) -> list:
    """J_{1/2}, Y_{1/2}, Y_{3/2} and H_{1/2} at v from elementary functions."""
    c = math.sqrt(2.0 / (math.pi * v))
    return [c * math.sin(v), -c * math.cos(v), -c * (math.cos(v) / v + math.sin(v)),
            c * (1.0 - math.cos(v))]


def _closed_form_arguments(rng, k: int) -> list:
    """Stratified v in [0.5, 20] at which no closed-form value is near zero."""
    out = []
    for lo, hi in _slices(0.5, 20.0, k):
        while True:
            v = float(lo + (hi - lo) * rng.random())
            scale = math.sqrt(2.0 / (math.pi * v))
            if min(abs(x) for x in closed_form_values(v)) >= 0.05 * scale:
                out.append(v)
                break
    return out


WORKLOADS = {
    "pair-k": _pair_k_jobs,
    "second-form": _second_form_jobs,
    "witness": _witness_jobs,
    "rho-integrals": _rho_jobs,
}


def generate(workload: str, seed: int) -> list:
    """The job list of `workload` for `seed`; equal seeds give equal lists."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    index = list(WORKLOADS).index(workload)
    return WORKLOADS[workload](np.random.default_rng([seed, index]))


def input_hash(jobs: list) -> str:
    """sha256 of the canonical JSON form of a job list."""
    text = json.dumps(jobs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()
