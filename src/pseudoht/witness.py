"""Construction certifying non-existence of tempered fundamental solutions, r > 0.

For eta with <eta,eta>_{r,s} > 0 the Gaussian phi_eta = exp(-c_eta |xi|^2),
c_eta = |eta|_{r,s}^{-1}, lies in the kernel of A_eta; averaging along the
periodic flow e^{t Omega(eta) tau} over one period (operator D_eta) lands it
in ker A_eta and ker B_eta simultaneously.  With a bump omega supported in
K = {<eta,eta>_{r,s} > 0},

    psi(xi, eta) = omega(eta) [D_eta phi_eta](xi)

is a nonnegative, nontrivial Schwartz function annihilated by the
Fourier-side operator.  Since [F^{-1} psi](0) = (2 pi)^{-(n+(r+s)/2)}
integral psi > 0, no tempered fundamental solution can exist, and the
normalized phi = F^{-1} psi / c witnesses local non-solvability (constant
sequence in the semi-norm criterion).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .clifford import Signature, p_form
from .errors import BumpOutsideK, DimensionMismatch, NonTimelikeEta
from .gausspoly import GaussMixture, GaussPoly, apply_operator, as_terms, axis_monomial
from .group import GroupStructure, tau_signs
from .quadrature import legendre_rule, tensor_rule


# ------------------------------------------------------------- A/B operators

def a_eta_op(G: GroupStructure, eta) -> list:
    """A_eta = -P(xi) + ((|eta_+|^2 - |eta_-|^2)/4) L as operator data on R^{2n}."""
    n2, q = 2 * G.sig.n, G.sig.eta_form(np.asarray(eta, float))
    one = (0,) * n2
    return [entry for j, t in enumerate(tau_signs(G.sig.n))
            for entry in (({axis_monomial(n2, j, 2): -t}, one),
                          ({one: t * q / 4.0}, axis_monomial(n2, j, 2)))]


def b_eta_op(G: GroupStructure, eta) -> list:
    """B_eta = -2i <Omega(eta) tau xi, grad> as operator data on R^{2n}."""
    M = G.omega(np.asarray(eta, float)) @ G.tau
    n2 = M.shape[0]
    # <M xi, grad phi> = sum_b (sum_a M_{b a} xi_a) d_b phi
    return [({axis_monomial(n2, a): -2j * M[b, a] for a in range(n2) if M[b, a] != 0},
             axis_monomial(n2, b)) for b in range(n2)]


def a_eta_apply(G: GroupStructure, phi, eta):
    """A_eta phi, exact (phi over R^{2n})."""
    return apply_operator(phi, a_eta_op(G, eta))


def b_eta_apply(G: GroupStructure, phi, eta):
    """B_eta phi, exact (phi over R^{2n})."""
    return apply_operator(phi, b_eta_op(G, eta))


def phi_eta(G: GroupStructure, eta) -> GaussPoly:
    """exp(-c_eta |xi|^2), c_eta = | |eta_+|^2 - |eta_-|^2 |^{-1/2}."""
    q = G.sig.eta_form(np.asarray(eta, float))
    if q == 0:
        raise NonTimelikeEta("phi_eta needs <eta,eta>_{r,s} != 0")
    c = 1.0 / math.sqrt(abs(q))
    return GaussPoly.iso_gaussian(2 * G.sig.n, a=2.0 * c)


def d_eta_average(G: GroupStructure, phi, eta, nodes: int = 64) -> GaussMixture:
    """Trapezoid discretization of D_eta phi = int_0^{q_eta} phi(e^{t Om tau} .) dt.

    Each node contributes a real-SPD precomposition; the trapezoid rule on the
    periodic analytic integrand converges spectrally in the node count.
    """
    if nodes < 8:
        raise ValueError("use at least 8 trapezoid nodes")
    q = G.sig.eta_form(np.asarray(eta, float))
    if q <= 0:
        raise NonTimelikeEta("D_eta averaging needs <eta,eta>_{r,s} > 0")
    period = G.flow_period(eta)
    terms = []
    for j in range(nodes):
        E = G.exp_flow(eta, j * period / nodes, side="right")
        for t in as_terms(phi):
            terms.append(t.precompose_affine(E, np.zeros(2 * G.sig.n)).scaled(period / nodes))
    return GaussMixture(terms)


# ------------------------------------------------------------------- witness

def bump_value(eta, eta0, delta) -> float:
    """exp(1 - 1/(1 - |eta-eta0|^2/delta^2)) inside the ball, 0 outside."""
    u = float(np.sum((np.asarray(eta, float) - eta0) ** 2)) / delta ** 2
    if u >= 1.0:
        return 0.0
    return math.exp(1.0 - 1.0 / (1.0 - u))


@dataclass
class WitnessConfig:
    sig: Signature
    eta0: np.ndarray
    delta: float = 0.5
    flow_nodes: int = 64
    eta_grid: int = 7          # per-axis nodes for integrals over the bump ball
    xi_grid: int = 9           # per-axis certification grid
    xi_halfwidth_sigmas: float = 6.0

    def __post_init__(self):
        self.eta0 = np.asarray(self.eta0, float)
        if self.sig.r < 1:
            raise BumpOutsideK("the witness exists for r > 0 only (K empty otherwise)")
        if self.eta0.shape != (self.sig.center_dim,):
            raise DimensionMismatch("eta0 must have length r + s")


@dataclass
class WitnessFunction:
    """psi(xi, eta) = omega(eta) [D_eta phi_eta](xi), with exact xi-structure."""

    G: GroupStructure
    cfg: WitnessConfig
    margin: float = 0.0
    _cache: dict = field(default_factory=dict)

    def mixture_at(self, eta) -> GaussMixture:
        key = tuple(np.round(np.asarray(eta, float), 12))
        if key not in self._cache:
            self._cache[key] = d_eta_average(self.G, phi_eta(self.G, eta), eta,
                                             self.cfg.flow_nodes)
        return self._cache[key]

    def omega(self, eta) -> float:
        return bump_value(eta, self.cfg.eta0, self.cfg.delta)

    def evaluate(self, xi, eta) -> float:
        w = self.omega(eta)
        if w == 0.0:
            return 0.0
        return w * self.mixture_at(eta).evaluate(np.asarray(xi, float)).real


def build_witness(G: GroupStructure, cfg: WitnessConfig) -> WitnessFunction:
    """Validate the bump ball sits inside K and assemble the witness."""
    if G.sig != cfg.sig:
        raise DimensionMismatch("config signature does not match the group")
    # minimum of <eta,eta>_{r,s} over the closed ball, by dense boundary scan
    rng = np.random.default_rng(7)
    pts = rng.normal(size=(4096, cfg.sig.center_dim))
    pts /= np.linalg.norm(pts, axis=1)[:, None]
    margin = np.inf
    for scale in (1.0, 0.75, 0.5, 0.25):
        cand = cfg.eta0[None, :] + cfg.delta * scale * pts
        signs = np.array([1.0] * cfg.sig.r + [-1.0] * cfg.sig.s)
        vals = np.sum(signs * cand ** 2, axis=1)
        margin = min(margin, float(vals.min()))
    if margin <= 0:
        raise BumpOutsideK(f"ball B(eta0, delta) leaves K (margin {margin:.3f})")
    return WitnessFunction(G, cfg, margin)


def _eta_ball_nodes(cfg: WitnessConfig):
    """Tensor Gauss-Legendre nodes on the bounding box of the bump ball."""
    x, w = legendre_rule(cfg.eta_grid)
    axes = [cfg.eta0[k] + cfg.delta * x for k in range(cfg.sig.center_dim)]
    return tensor_rule(axes, [cfg.delta * w] * cfg.sig.center_dim)


def witness_integral(w: WitnessFunction) -> float:
    """integral psi d(xi, eta): xi-integrals exact, eta by tensor quadrature."""
    pts, wt = _eta_ball_nodes(w.cfg)
    total = 0.0
    for eta, wk in zip(pts, wt):
        om = w.omega(eta)
        if om == 0.0:
            continue
        total += wk * om * w.mixture_at(eta).integral().real
    return total


def witness_sup(w: WitnessFunction) -> float:
    """max psi = psi(0, eta0) (positive terms, bump peak at eta0)."""
    return w.evaluate(np.zeros(2 * w.G.sig.n), w.cfg.eta0)


def _xi_grid(w: WitnessFunction):
    n2 = 2 * w.G.sig.n
    # phi_eta has c = |eta|^{-1}; widest sigma over ball ~ (q_max)^{1/4}/sqrt(2)
    qmax = w.G.sig.eta_form(w.cfg.eta0) + 2 * abs(w.cfg.delta) * np.linalg.norm(w.cfg.eta0) \
        + w.cfg.delta ** 2
    sigma = (abs(qmax)) ** 0.25 / math.sqrt(2.0)
    half = w.cfg.xi_halfwidth_sigmas * sigma
    return tensor_rule([np.linspace(-half, half, w.cfg.xi_grid)] * n2)


def certify_kernel_residual(w: WitnessFunction, flow_nodes: int | None = None) -> dict:
    """max |G_{r,s} psi| over the certification grid, plus the contradiction pair.

    G_{r,s} acts in xi only (eta enters through coefficients), so the residual
    is evaluated exactly per eta node via the A/B mixture calculus.
    """
    G, cfg = w.G, w.cfg
    nodes = flow_nodes or cfg.flow_nodes
    XI = _xi_grid(w)
    pts, _ = _eta_ball_nodes(cfg)
    worst = 0.0
    for eta in pts:
        om = w.omega(eta)
        if om == 0.0:
            continue
        mix = d_eta_average(G, phi_eta(G, eta), eta, nodes)
        g_mix_terms = as_terms(a_eta_apply(G, mix, eta)) + as_terms(b_eta_apply(G, mix, eta))
        vals = GaussMixture(g_mix_terms).evaluate_many(XI)
        worst = max(worst, float(np.max(np.abs(vals))) * om)
    sup = witness_sup(w)
    integral = witness_integral(w)
    d = G.sig.total_dim
    return {
        "residual_sup": worst,
        "psi_sup": sup,
        "relative_residual": worst / sup,
        "integral_psi": integral,
        "finv_psi_at_0": (2 * math.pi) ** (-d / 2.0) * integral,
        "flow_nodes": nodes,
    }


def nonsolvability_report(w: WitnessFunction, z_halfwidth: float = 2.0,
                          z_grid: int = 5) -> dict:
    """Certified numbers for the local-solvability criterion, r > 0.

    phi = c^{-1} F^{-1} psi with c = [F^{-1} psi](0) satisfies phi(0) = 1 and
    Delta_{r,s} phi = 0 (numerically small); the constant sequence psi_j = phi
    then kills every semi-norm product in the non-solvability criterion.
    Delta phi is evaluated through the eta-quadrature of exact per-node data:
    Delta_{r,s}(eta) applied to the xi-inverse transform of psi(., eta).
    """
    G, cfg = w.G, w.cfg
    sig = G.sig
    n2, cd = 2 * sig.n, sig.center_dim
    pts, wt = _eta_ball_nodes(cfg)
    c = (2 * math.pi) ** (-sig.total_dim / 2.0) * witness_integral(w)

    # x-grid (coarser than certification: the transform is band-limited-ish)
    X = tensor_rule([np.linspace(-3.0, 3.0, 7)] * n2)
    Z = tensor_rule([np.linspace(-z_halfwidth, z_halfwidth, z_grid)] * cd)

    dphi_max = 0.0
    phi0 = 0.0 + 0.0j
    vals_grid = np.zeros((X.shape[0], Z.shape[0]), dtype=complex)
    for eta, wk in zip(pts, wt):
        om = w.omega(eta)
        if om == 0.0:
            continue
        mix = w.mixture_at(eta)
        finv = mix.inverse_fourier()
        dmix = apply_operator(finv, G.delta_eta_op(eta))
        dvals = dmix.evaluate_many(X)
        base = finv.evaluate_many(np.zeros((1, n2)))[0]
        phase = np.exp(1j * Z @ eta)
        weight = wk * om * (2 * math.pi) ** (-cd / 2.0)
        vals_grid += weight * np.outer(dvals, phase)
        phi0 += weight * base * 1.0  # e^{i 0 . eta}
    dphi_max = float(np.max(np.abs(vals_grid))) / abs(c)
    return {
        "phi_at_0": abs(phi0) / abs(c),
        "normalization_c": abs(c),
        "delta_phi_sup": dphi_max,
        "mueller_seminorm_product": 0.0 if dphi_max < 1e-12 else dphi_max,
        "note": "constant sequence psi_j = phi; ||L^T psi_j|| bounded by delta_phi_sup",
    }
