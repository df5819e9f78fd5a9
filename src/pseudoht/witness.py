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

`certify_kernel_residual` applies G_eta = A_eta + B_eta to each eta node's
mixture as one operator (one derivative table, one term per flow image), and
`nonsolvability_report` forms Delta phi over its x-grid one block of points at
a time.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .clifford import Signature, p_form
from .errors import BumpOutsideK, DimensionMismatch, NonTimelikeEta
from . import gausspoly
from .gausspoly import GaussMixture, GaussPoly, apply_operator, axis_monomial
from .group import GroupStructure, tau_signs
from .quadrature import legendre_rule, tensor_rule

_XI_HALFWIDTH_SIGMAS = 6.0     # certification xi-grid half-width, in widest sigmas
_Z_HALFWIDTH, _Z_GRID = 2.0, 5  # nonsolvability_report's per-axis z-grid

# ------------------------------------------------------------- A/B operators

def a_eta_op(G: GroupStructure, eta) -> list:
    """A_eta = -P(xi) + ((|eta_+|^2 - |eta_-|^2)/4) L as operator data on R^{2n}."""
    n2, q = 2 * G.sig.n, G.sig.eta_form(np.asarray(eta, float))
    eye, one = np.eye(n2, dtype=int), np.zeros((1, n2), dtype=int)
    return [entry for j, t in enumerate(tau_signs(G.sig.n))
            for entry in ((2 * eye[[j]], np.array([-t]), (0,) * n2),
                          (one, np.array([t * q / 4.0]), axis_monomial(n2, j, 2)))]


def b_eta_op(G: GroupStructure, eta) -> list:
    """B_eta = -2i <Omega(eta) tau xi, grad> as operator data on R^{2n}."""
    M = G.omega(np.asarray(eta, float)) @ G.tau
    n2 = M.shape[0]
    eye = np.eye(n2, dtype=int)
    # <M xi, grad phi> = sum_b (sum_a M_{b a} xi_a) d_b phi
    return [(eye[M[b] != 0], -2j * M[b][M[b] != 0], axis_monomial(n2, b)) for b in range(n2)]


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


def _is_even(s) -> bool:
    """Every term of the mixture s is even: centred at 0, no frequency, and
    every monomial of even total degree."""
    return not (s.shift.any() or s.freq.any() or np.any(s.expo.sum(axis=1) % 2))


def d_eta_average(G: GroupStructure, phi, eta, nodes: int = 64) -> GaussMixture:
    """Trapezoid discretization of D_eta phi = int_0^{q_eta} phi(e^{t Om tau} .) dt.

    Each node contributes a real-SPD precomposition, and the flow images of
    every term of phi are built as one mixture (node-major); the trapezoid rule
    on the periodic analytic integrand converges spectrally in the node count.
    Half a period on flips the flow, e^{(t + q_eta/2) Om tau} = -e^{t Om tau},
    so for an even node count and an even phi (see `_is_even`) node k + N/2
    repeats the image of node k: then only the first N/2 images are built,
    each with weight 2 q_eta / N, which is the same trapezoid sum.
    """
    if nodes < 8:
        raise ValueError("use at least 8 trapezoid nodes")
    q = G.sig.eta_form(np.asarray(eta, float))
    if q <= 0:
        raise NonTimelikeEta("D_eta averaging needs <eta,eta>_{r,s} > 0")
    period = G.flow_period(eta)
    s = phi.stack
    built = nodes // 2 if nodes % 2 == 0 and _is_even(s) else nodes
    E = G.exp_flow(eta, np.arange(built) * period / nodes, side="right")
    images = s[np.tile(np.arange(len(s)), built)].precompose_affine(
        np.repeat(E, len(s), axis=0), np.zeros(2 * G.sig.n))
    return images.scaled(period / built)


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

    def __post_init__(self):
        self.eta0 = np.asarray(self.eta0, float)
        if self.sig.r < 1:
            raise BumpOutsideK("the witness exists for r > 0 only (K empty otherwise)")
        if self.eta0.shape != (self.sig.center_dim,):
            raise DimensionMismatch("eta0 must have length r + s")
        if not self.delta > 0:
            raise BumpOutsideK("the bump radius delta must be positive")


@dataclass
class WitnessFunction:
    """psi(xi, eta) = omega(eta) [D_eta phi_eta](xi), with exact xi-structure."""

    G: GroupStructure
    cfg: WitnessConfig
    margin: float = 0.0
    _cache: dict = field(default_factory=dict)   # mixtures by (eta, nodes); "integral", "sup"

    def mixture_at(self, eta, flow_nodes: int | None = None) -> GaussMixture:
        """D_eta phi_eta with `flow_nodes` trapezoid nodes (default cfg.flow_nodes), built once."""
        nodes = flow_nodes or self.cfg.flow_nodes
        key = (tuple(np.round(np.asarray(eta, float), 12)), nodes)
        if key not in self._cache:
            self._cache[key] = d_eta_average(self.G, phi_eta(self.G, eta), eta, nodes)
        return self._cache[key]

    def omega(self, eta) -> float:
        return bump_value(eta, self.cfg.eta0, self.cfg.delta)

    def evaluate(self, xi, eta) -> float:
        w = self.omega(eta)
        if w == 0.0:
            return 0.0
        return w * self.mixture_at(eta).evaluate(np.asarray(xi, float)).real


def ball_margin(sig: Signature, eta0, delta: float) -> float:
    """min <eta,eta>_{r,s} = |eta_+|^2 - |eta_-|^2 over the closed ball |eta - eta0| <= delta.

    This is the trust-region problem for the form S = diag(+1 (r times),
    -1 (s times)) (More and Sorensen 1983): a minimiser is
    eta = mu (S + mu I)^{-1} eta0 with S + mu I positive semidefinite and
    mu (|eta - eta0| - delta) = 0.  The form is indefinite (s >= 1), so the
    minimiser lies on the sphere and mu > 1 solves the secular equation
    |eta0_+|^2 / (1 + mu)^2 + |eta0_-|^2 / (mu - 1)^2 = delta^2.  In the hard
    case eta0_- = 0 with |eta0_+| <= 2 delta it has no root and mu = 1:
    eta_+ = eta0_+ / 2, and eta_- takes up the rest of the radius.
    """
    eta0 = np.asarray(eta0, float)
    p2, m2 = float(eta0[:sig.r] @ eta0[:sig.r]), float(eta0[sig.r:] @ eta0[sig.r:])
    if m2 == 0.0 and p2 <= 4.0 * delta ** 2:
        return p2 / 2.0 - delta ** 2
    # the secular function decreases on (1, inf) and is >= delta^2 at lo,
    # <= delta^2 at hi: bisect until they are adjacent floats (so hi > 1)
    lo, hi = 1.0 + math.sqrt(m2) / delta, 1.0 + math.sqrt(p2 + m2) / delta
    while lo < (mu := 0.5 * (lo + hi)) < hi:
        if p2 / (1.0 + mu) ** 2 + m2 / (mu - 1.0) ** 2 > delta ** 2:
            lo = mu
        else:
            hi = mu
    return hi ** 2 * (p2 / (1.0 + hi) ** 2 - m2 / (hi - 1.0) ** 2)


def build_witness(G: GroupStructure, cfg: WitnessConfig) -> WitnessFunction:
    """Validate the bump ball sits inside K and assemble the witness."""
    if G.sig != cfg.sig:
        raise DimensionMismatch("config signature does not match the group")
    margin = ball_margin(cfg.sig, cfg.eta0, cfg.delta)
    if margin <= 0:
        raise BumpOutsideK(f"ball B(eta0, delta) leaves K (margin {margin:.3g})")
    return WitnessFunction(G, cfg, margin)


def _eta_ball_nodes(cfg: WitnessConfig):
    """Tensor Gauss-Legendre nodes on the bounding box of the bump ball."""
    x, w = legendre_rule(cfg.eta_grid)
    axes = [cfg.eta0[k] + cfg.delta * x for k in range(cfg.sig.center_dim)]
    return tensor_rule(axes, [cfg.delta * w] * cfg.sig.center_dim)


def witness_integral(w: WitnessFunction) -> float:
    """integral psi d(xi, eta): xi-integrals exact, eta by tensor quadrature (once per witness)."""
    if "integral" not in w._cache:
        pts, wt = _eta_ball_nodes(w.cfg)
        oms = [w.omega(eta) for eta in pts]
        w._cache["integral"] = sum((wk * om * w.mixture_at(eta).integral().real
                                    for eta, wk, om in zip(pts, wt, oms) if om != 0.0), 0.0)
    return w._cache["integral"]


def witness_sup(w: WitnessFunction) -> float:
    """max psi = psi(0, eta0) (positive terms, bump peak at eta0), once per witness."""
    if "sup" not in w._cache:
        w._cache["sup"] = w.evaluate(np.zeros(2 * w.G.sig.n), w.cfg.eta0)
    return w._cache["sup"]


def _xi_grid(w: WitnessFunction):
    n2 = 2 * w.G.sig.n
    # phi_eta has c = |eta|^{-1}; widest sigma over ball ~ (q_max)^{1/4}/sqrt(2)
    qmax = w.G.sig.eta_form(w.cfg.eta0) + 2 * abs(w.cfg.delta) * np.linalg.norm(w.cfg.eta0) \
        + w.cfg.delta ** 2
    sigma = (abs(qmax)) ** 0.25 / math.sqrt(2.0)
    half = _XI_HALFWIDTH_SIGMAS * sigma
    return tensor_rule([np.linspace(-half, half, w.cfg.xi_grid)] * n2)


def certify_kernel_residual(w: WitnessFunction, flow_nodes: int | None = None) -> dict:
    """max |G_{r,s} psi| over the certification grid, plus the contradiction pair.

    G_{r,s} acts in xi only (eta enters through coefficients), so the residual
    is evaluated exactly per eta node: G_eta = A_eta + B_eta applied to the
    node's mixture as one operator.
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
        mix = w.mixture_at(eta, nodes)
        vals = apply_operator(mix, a_eta_op(G, eta) + b_eta_op(G, eta)).evaluate_many(XI)
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


def nonsolvability_report(w: WitnessFunction) -> dict:
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
    Z = tensor_rule([np.linspace(-_Z_HALFWIDTH, _Z_HALFWIDTH, _Z_GRID)] * cd)

    dmixes, coeffs = [], []
    phi0 = 0.0 + 0.0j
    for eta, wk in zip(pts, wt):
        om = w.omega(eta)
        if om == 0.0:
            continue
        finv = w.mixture_at(eta).inverse_fourier()
        dmixes.append(apply_operator(finv, G.delta_eta_op(eta)))
        weight = wk * om * (2 * math.pi) ** (-cd / 2.0)
        coeffs.append(weight * np.exp(1j * Z @ eta))
        phi0 += weight * finv.evaluate_many(np.zeros((1, n2)))[0]  # e^{i 0 . eta} = 1
    # Delta phi on X x Z is D^T C, D (eta nodes, x-points) and C (eta nodes,
    # z-points): formed one block of x-points at a time, keeping only its max
    C = np.array(coeffs)
    dphi_max = 0.0
    for lo in range(0, len(X), gausspoly._EVAL_CHUNK):
        block = X[lo:lo + gausspoly._EVAL_CHUNK]
        D = np.array([dmix.evaluate_many(block) for dmix in dmixes])
        dphi_max = max(dphi_max, float(np.max(np.abs(D.T @ C))))
    dphi_max /= abs(c)
    return {
        "phi_at_0": abs(phi0) / abs(c),
        "normalization_c": abs(c),
        "delta_phi_sup": dphi_max,
        "note": "constant sequence psi_j = phi; ||L^T psi_j|| bounded by delta_phi_sup",
    }
