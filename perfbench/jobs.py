"""The benchmark's jobs: timed calls into pseudoht's public API plus checks.

Each job kind has a `run` part, which is timed and traced, and a `check` part,
which is not. `run` returns (values, aux): `values` are the numbers the drift
gate compares against stored references, `aux` feeds only the check. `check`
returns a list of identities (residual, tol, reference): the identity holds
when residual <= tol, and it is vacuous when |reference| is below the floor.
"""
from __future__ import annotations

import math

import numpy as np

from inputs import closed_form_values

SIGNATURES = {
    "pair-k": [(0, 2, 2), (0, 1, 2)],
    "second-form": [(0, 1, 2)],
    "witness": [(1, 1, 2)],
    "rho-integrals": [],
}


class Env:
    """pseudoht plus the workload's group structures, built at set-up."""

    def __init__(self, pht, workload: str):
        self.pht = pht
        self.groups = {sig: pht.GroupStructure.from_signature(pht.Signature(*sig))
                       for sig in SIGNATURES[workload]}

    def group(self, sig):
        return self.groups[tuple(sig)]

    def test_function(self, spec: dict):
        d = len(spec["quad_diag"])
        poly = {tuple(int(m) for m in row[:d]): complex(row[d], row[d + 1])
                for row in spec["poly"]}
        return self.pht.GaussPoly(d, np.diag(spec["quad_diag"]), poly,
                                  shift=np.array(spec["shift"]))


def _rel(a, b) -> float:
    return abs(a - b) / abs(b)


# ------------------------------------------------------------------ pair-k

def run_delta_repro(env, job):
    pht = env.pht
    n, s = job["sig"][2], job["sig"][1]
    phi = env.test_function(job["phi"])
    sel = (pht.KernelSelector.heaviside() if job["selector"] == "heaviside"
           else pht.KernelSelector.constant(1.0))
    dphi = env.group(job["sig"]).apply_delta_rs(phi)
    budget = pht.PairBudget(**job.get("budget", {}))
    value = pht.pair_k(n, s, dphi, sel, budget=budget, with_error=False).value
    return [value], phi.evaluate(np.zeros(phi.dim))


def check_delta_repro(env, job, values, phi0):
    return [(_rel(values[0], phi0), job["tol"], phi0)]


def run_mr_vs_k(env, job):
    pht = env.pht
    phi = env.test_function(job["phi"])
    mr = pht.pair_mr_heisenberg(env.group(job["sig"]), phi, with_error=False).value
    k = pht.pair_k(2, 1, phi, pht.KernelSelector.heaviside(), with_error=False).value
    return [mr, k], None


def check_pair(env, job, values, _aux):
    return [(_rel(values[0], values[1]), job["tol"], values[1])]


def run_pseudo_n2(env, job):
    phi = env.test_function(job["phi"])
    lhs, rhs = env.pht.pseudo_pair_n2(env.group(job["sig"]), phi)
    return [lhs, rhs], None


# ------------------------------------------------------------- second-form

def run_second_form(env, job):
    phi = env.test_function(job["phi"])
    n, s = job["sig"][2], job["sig"][1]
    return [env.pht.pair_second_form(n, s, phi, with_error=False).value], phi


def check_second_form(env, job, values, phi):
    """Representation equivalence against pair_k, computed outside the timing."""
    pht = env.pht
    n, s = job["sig"][2], job["sig"][1]
    k = pht.pair_k(n, s, phi, pht.KernelSelector.constant(1.0), with_error=False).value
    return [(_rel(values[0], k), job["tol"], k)]


# ----------------------------------------------------------------- witness

def run_witness(env, job):
    pht = env.pht
    G = env.group(job["sig"])
    cfg = pht.WitnessConfig(G.sig, np.array(job["eta0"]), job["delta"],
                            flow_nodes=job["flow_nodes"], eta_grid=job["eta_grid"],
                            xi_grid=job["xi_grid"])
    w = pht.build_witness(G, cfg)
    cert = pht.certify_kernel_residual(w)
    rep = pht.nonsolvability_report(w)
    # residual_sup and delta_phi_sup sit at rounding level, so only the
    # well-conditioned numbers are drift-checked
    values = [cert["integral_psi"], cert["psi_sup"], rep["normalization_c"]]
    return [float(v) for v in values], (cert["relative_residual"], rep["phi_at_0"])


def check_witness(env, job, values, aux):
    rel_residual, phi_at_0 = aux
    return [(rel_residual, job["tol"], values[0]),
            (abs(phi_at_0 - 1.0), job["norm_tol"], values[2])]


# ----------------------------------------------------------- rho-integrals

def run_gbar(env, job):
    return [env.pht.gbar_residual(job["n"], job["s"], np.array(job["xi"]),
                                  np.array(job["theta"]))], None


def check_gbar(env, job, values, _aux):
    target = (2.0 * math.pi) ** (-(job["n"] + job["s"] / 2.0))
    return [(abs(values[0] - target), job["tol"], target)]


def run_kernel_q(env, job):
    kernels = env.pht.kernels
    sel = env.pht.KernelSelector.constant(complex(*job["lam0"]))
    args = (job["n"], job["s"], np.array(job["xi"]), np.array(job["theta"]), sel)
    return [kernels.kernel_q_lm(*args), kernels.kernel_q_lm_bessel(*args)], None


def check_kernel_q(env, job, values, _aux):
    a, b = values
    return [(abs(a - b) / max(1.0, abs(a)), job["tol"], a)]


def run_offcone(env, job):
    """K at (x, z) and at the dilated point (d x, d^2 z)."""
    n, s, d = job["n"], job["s"], job["dilation"]
    x, z = np.array(job["x"]), np.array(job["z"])
    f = env.pht.smooth_kernel_offcone
    return [f(n, s, x, z), f(n, s, d * x, d * d * z)], None


def check_offcone(env, job, values, _aux):
    """Homogeneity: K(d x, d^2 z) = d^{2-Q} K(x, z), Q = 2n + 2s."""
    k, k_dilated = values
    q = 2 * job["n"] + 2 * job["s"]
    return [(_rel(k_dilated * job["dilation"] ** (q - 2), k), job["tol"], k)]


def run_closed_form(env, job):
    specfun, v = env.pht.specfun, job["v"]
    return [specfun.bessel_j(0.5, v), specfun.bessel_y(0.5, v), specfun.bessel_y(1.5, v),
            specfun.struve_h(0.5, v)], None


def check_closed_form(env, job, values, _aux):
    return [(abs(got - want), job["tol"], want)
            for got, want in zip(values, closed_form_values(job["v"]))]


def run_p_i0(env, job):
    pht, n = env.pht, job["n"]
    psi = pht.GaussPoly.iso_gaussian(2 * n, a=job["a"], coeff=job["coeff"])
    direct = pht.inv_p_power(psi, n)
    continued = pht.p_i0_power(-(n - 1.0), psi, 2, n)
    k1 = pht.p_i0_power(-0.5, psi, 1, n)
    k2 = pht.p_i0_power(-0.5, psi, 2, n)
    return [direct, continued, k1, k2], None


def check_p_i0(env, job, values, _aux):
    direct, continued, k1, k2 = values
    return [(_rel(continued, direct), job["tol"], direct),
            (_rel(k2, k1), job["k_tol"], k1)]


KINDS = {
    "delta_repro": (run_delta_repro, check_delta_repro),
    "mr_vs_k": (run_mr_vs_k, check_pair),
    "pseudo_n2": (run_pseudo_n2, check_pair),
    "second_form": (run_second_form, check_second_form),
    "witness": (run_witness, check_witness),
    "gbar": (run_gbar, check_gbar),
    "kernel_q": (run_kernel_q, check_kernel_q),
    "offcone": (run_offcone, check_offcone),
    "closed_form": (run_closed_form, check_closed_form),
    "p_i0": (run_p_i0, check_p_i0),
}
