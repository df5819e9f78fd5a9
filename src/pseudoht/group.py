"""Group structure derived from an admissible module.

Conventions: Omega(eta) = (1/2) tau rho(eta)^T, group law

    (x, z) * (y, w) = (x + y, z + w + sum_k <Omega_k^T x, y> e_k),

horizontal fields X_j = d/dx_j + sum_k (Omega_k^T x)_j d/dz_k, and the
ultra-hyperbolic operator Delta = (X_1^2 + ... + X_n^2) - (X_{n+1}^2 + ... +
X_{2n}^2).  On the Fourier side (convention of gausspoly) the conjugated
operator is

    G phi = -P(xi) phi + (<eta,eta>_{r,s}/4) L phi + i xi^T rho(eta)^T grad_xi phi

with L the flat ultra-hyperbolic operator in xi, so that F o Delta = G o F.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .clifford import AdmissibleModule, Signature, build_module, tau_matrix
from .errors import DimensionMismatch, NonPositiveScale
from .gausspoly import GaussMixture, GaussPoly, apply_operator, axis_monomial, compose, poly_scale


@dataclass
class GroupPoint:
    x: np.ndarray
    z: np.ndarray

    def __post_init__(self):
        self.x = np.asarray(self.x, float)
        self.z = np.asarray(self.z, float)

    def as_vector(self) -> np.ndarray:
        return np.concatenate([self.x, self.z])


class GroupStructure:
    """Omega matrices, group law, fields, and flows for one catalog module."""

    def __init__(self, module: AdmissibleModule):
        self.module = module
        self.sig = module.sig
        self.tau = module.tau
        self.omega_gen = [0.5 * self.tau @ rk.T for rk in module.rho_gen]

    @classmethod
    def from_signature(cls, sig: Signature) -> "GroupStructure":
        return cls(build_module(sig))

    def omega(self, eta) -> np.ndarray:
        eta = np.asarray(eta, float)
        if eta.shape != (self.sig.center_dim,):
            raise DimensionMismatch(f"eta must have length {self.sig.center_dim}")
        return 0.5 * self.tau @ self.module.rho(eta).T

    def group_mul(self, p: GroupPoint, q: GroupPoint) -> GroupPoint:
        n2 = 2 * self.sig.n
        if p.x.shape != (n2,) or q.x.shape != (n2,) \
                or p.z.shape != (self.sig.center_dim,) or q.z.shape != (self.sig.center_dim,):
            raise DimensionMismatch("group point dimensions do not match the structure")
        zc = np.array([float(Ok.T @ p.x @ q.x) for Ok in self.omega_gen])
        return GroupPoint(p.x + q.x, p.z + q.z + zc)

    def inverse(self, p: GroupPoint) -> GroupPoint:
        return GroupPoint(-p.x, -p.z)

    def identity(self) -> GroupPoint:
        return GroupPoint(np.zeros(2 * self.sig.n), np.zeros(self.sig.center_dim))

    # -- dilations -----------------------------------------------------------
    def dilate(self, rho_scale: float, p: GroupPoint) -> GroupPoint:
        if rho_scale <= 0:
            raise NonPositiveScale("dilation scale must be > 0")
        return GroupPoint(rho_scale * p.x, rho_scale ** 2 * p.z)

    def dilate_function(self, phi, rho_scale: float):
        """phi o delta_rho on test functions over R^{2n + r + s}."""
        if rho_scale <= 0:
            raise NonPositiveScale("dilation scale must be > 0")
        d = self.sig.total_dim
        n2 = 2 * self.sig.n
        M = np.diag([rho_scale] * n2 + [rho_scale ** 2] * self.sig.center_dim)
        if isinstance(phi, (GaussPoly, GaussMixture)):
            return phi.precompose_affine(M, np.zeros(d))
        raise TypeError("dilate_function expects a GaussPoly or GaussMixture")

    # -- left translation ----------------------------------------------------
    def left_translation_map(self, g: GroupPoint):
        """(M, v) with g * u = M u + v for u = (y, w); affine in u."""
        n2, cd = 2 * self.sig.n, self.sig.center_dim
        d = n2 + cd
        M = np.eye(d)
        for k, Ok in enumerate(self.omega_gen):
            M[n2 + k, :n2] = Ok.T @ g.x
        v = np.concatenate([g.x, g.z])
        return M, v

    def left_translate(self, phi, g: GroupPoint):
        """phi(g * .) via exact affine precomposition."""
        M, v = self.left_translation_map(g)
        return phi.precompose_affine(M, v)

    # -- differential operators as data (see gausspoly.apply_operator) ----------
    @cached_property
    def delta_rs_op(self) -> list:
        """Delta_{r,s} = sum_j tau_j X_j o X_j as operator data.

        X_j = d/dx_j + sum_k (Omega_k^T x)_j d/dz_k, (Omega_k^T x)_j = sum_m (Omega_k)_{mj} x_m.
        """
        n2, d = 2 * self.sig.n, self.sig.total_dim
        op = []
        for j, t in enumerate(tau_signs(self.sig.n)):
            X = [({(0,) * d: 1.0}, axis_monomial(d, j))]
            X += [({axis_monomial(d, m): Ok[m, j] for m in range(n2) if Ok[m, j] != 0},
                   axis_monomial(d, n2 + k)) for k, Ok in enumerate(self.omega_gen)]
            op += [(poly_scale(coef, t), alpha) for coef, alpha in compose(X, X)]
        return op

    @cached_property
    def g_rs_op(self) -> list:
        """G_{r,s} = -P(xi) + (<eta,eta>_{r,s}/4) L_xi + i xi^T rho(eta)^T grad_xi as data."""
        n2, cd, d = 2 * self.sig.n, self.sig.center_dim, self.sig.total_dim
        one = (0,) * d
        quarter_q = {axis_monomial(d, n2 + k, 2): 0.25 * sk for k, sk in
                     enumerate([1.0] * self.sig.r + [-1.0] * self.sig.s)}
        op = []
        for j, t in enumerate(tau_signs(self.sig.n)):
            op += [({axis_monomial(d, j, 2): -t}, one),
                   (poly_scale(quarter_q, t), axis_monomial(d, j, 2))]
        # rho(eta) = sum_k eta_k rho_k: d/dxi_b carries i sum_{k,a} rho_k[b, a] xi_a eta_k
        return op + [({axis_monomial(n2, a) + axis_monomial(cd, k): 1j * rk[b, a]
                       for k, rk in enumerate(self.module.rho_gen)
                       for a in range(n2) if rk[b, a] != 0},
                      axis_monomial(d, b)) for b in range(n2)]

    def delta_eta_op(self, eta) -> list:
        """Delta_{r,s}(eta) = L - (<eta,eta>_{r,s}/4) P(x) - i x^T rho(eta) grad_x on R^{2n}.

        Delta_{r,s} after the Fourier transform in z (d/dz_k -> i eta_k), as data.
        """
        n2 = 2 * self.sig.n
        q, R = self.sig.eta_form(eta), self.module.rho(eta)
        one = (0,) * n2
        op = []
        for j, t in enumerate(tau_signs(self.sig.n)):
            op += [({one: t}, axis_monomial(n2, j, 2)),
                   ({axis_monomial(n2, j, 2): -q / 4.0 * t}, one)]
        return op + [({axis_monomial(n2, a): -1j * R[a, b] for a in range(n2) if R[a, b] != 0},
                      axis_monomial(n2, b)) for b in range(n2)]

    def apply_delta_rs(self, phi):
        """Delta_{r,s} phi, exact (phi over R^{2n + r + s})."""
        return apply_operator(phi, self.delta_rs_op)

    def apply_g_rs_gausspoly(self, psi):
        """G_{r,s} psi for class members, exact (psi over R^{2n + r + s})."""
        return apply_operator(psi, self.g_rs_op)

    # -- exponential flows ------------------------------------------------------
    def exp_flow(self, eta, t: float, side: str = "right") -> np.ndarray:
        """Closed form of e^{t Omega(eta) tau} (side='right') or e^{t tau Omega(eta)}.

        Trigonometric for <eta,eta>_{r,s} > 0, hyperbolic for < 0, and the
        terminating 2-term polynomial on the light cone (the square vanishes).
        """
        O = self.omega(eta)
        B = O @ self.tau if side == "right" else self.tau @ O
        q = self.sig.eta_form(eta)
        eye = np.eye(2 * self.sig.n)
        anorm = np.sqrt(abs(q))
        if anorm < 1e-14:
            return eye + t * B
        half = 0.5 * t * anorm
        if q > 0:
            return np.cos(half) * eye + (2.0 / anorm) * np.sin(half) * B
        return np.cosh(half) * eye + (2.0 / anorm) * np.sinh(half) * B

    def flow_period(self, eta) -> float:
        """q_eta = 4 pi / |eta|_{r,s} for <eta,eta>_{r,s} > 0."""
        q = self.sig.eta_form(eta)
        if q <= 0:
            from .errors import NonTimelikeEta
            raise NonTimelikeEta("period defined for <eta,eta>_{r,s} > 0 only")
        return 4.0 * np.pi / np.sqrt(q)


def tau_signs(n: int) -> np.ndarray:
    return np.array([1.0] * n + [-1.0] * n)


def heisenberg(n: int = 1) -> GroupStructure:
    return GroupStructure.from_signature(Signature(0, 1, n))


__all__ = [
    "GroupPoint",
    "GroupStructure",
    "heisenberg",
    "tau_matrix",
    "tau_signs",
]
