"""Validated admissible Clifford-module data for a finite signature catalog.

A catalog entry for signature (r, s) with module dimension 2n consists of
generator matrices rho(Z_1), ..., rho(Z_{r+s}) acting on R^{2n}, ordered so
that the module form is <X, Y>_V = X^T tau Y with tau = diag(I_n, -I_n).
The generators satisfy

    rho(Z_i) rho(Z_j) + rho(Z_j) rho(Z_i) = -2 <Z_i, Z_j>_{r,s} I
    tau rho(Z_k) skew-symmetric,

where <.,.>_{r,s} has r plus signs followed by s minus signs.  All entries
are small integers, so the identities hold exactly.

Not every (r, s, n) admits such data.  In module dimension 2 the only
candidates are +-[[0,1],[1,0]], so (0,2) needs n >= 2; an exhaustive
parameterization of the 4x4 case (J = tau S, S skew) shows that (0,3) and
(2,1) need n >= 4.  The catalog therefore carries each signature at its
minimal admissible n.  The catalog is one table, `_CATALOG`, from each
Signature to its generators; `CATALOG_SIGNATURES` is its key tuple.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import DimensionMismatch, UnknownSignature

_S1 = np.array([[0, 1], [1, 0]])
_S3 = np.array([[1, 0], [0, -1]])
_EPS = np.array([[0, 1], [-1, 0]])
_I2 = np.eye(2, dtype=int)

_VALIDATION_SAMPLES, _VALIDATION_SEED = 100, 2024


@dataclass(frozen=True)
class Signature:
    """Signature (r, s) plus half module dimension n (dim V = 2n)."""

    r: int
    s: int
    n: int

    def __post_init__(self):
        if self.r < 0 or self.s < 1 or self.n < 1:
            raise UnknownSignature(f"need r >= 0, s >= 1, n >= 1, got {self}")

    @property
    def center_dim(self) -> int:
        return self.r + self.s

    @property
    def total_dim(self) -> int:
        return 2 * self.n + self.r + self.s

    def eta_form(self, eta, zeta=None):
        """<eta, zeta>_{r,s} = sum_{i<=r} eta_i zeta_i - sum_{j<=s} eta_{r+j} zeta_{r+j}."""
        eta = np.asarray(eta, float)
        zeta = eta if zeta is None else np.asarray(zeta, float)
        if eta.shape[-1] != self.center_dim:
            raise DimensionMismatch(f"eta must have length {self.center_dim}")
        signs = np.array([1.0] * self.r + [-1.0] * self.s)
        return float(np.sum(signs * eta * zeta))


def tau_matrix(n: int) -> np.ndarray:
    return np.diag([1.0] * n + [-1.0] * n)


def p_form(x) -> float:
    """P(x) = sum_{j<=n} x_j^2 - x_{j+n}^2 (x has even length)."""
    x = np.asarray(x, float)
    n = x.shape[-1] // 2
    return float(np.sum(x[..., :n] ** 2) - np.sum(x[..., n:] ** 2))


# The one source of the catalog: {Signature: generators}, each generator
# written as its Kronecker factors (rho(Z_k) = kron of the tuple, built on use)
_CATALOG = {
    Signature(0, 1, 1): [(_S1,)],
    Signature(0, 1, 2): [(_S1, _I2)],
    Signature(0, 1, 3): [(_S1, np.eye(3, dtype=int))],
    Signature(0, 2, 2): [(_S1, _S1), (_S1, _S3)],
    Signature(0, 3, 4): [(_S1, _S1, _S1), (_S1, _S1, _S3), (_S1, _S3, _I2)],
    Signature(1, 1, 2): [(-_S3, _EPS), (_EPS, _EPS)],
    Signature(1, 2, 2): [(-_S3, _EPS), (_EPS, _EPS), (_S1, _I2)],
    Signature(2, 1, 4): [(-_S3, _EPS, _S3), (_I2, _I2, _EPS), (_EPS, _EPS, _S3)],
}
CATALOG_SIGNATURES = tuple(_CATALOG)


def _generators(sig: Signature) -> list:
    return [reduce(np.kron, factors) for factors in _CATALOG[sig]]


@dataclass
class AdmissibleModule:
    """Generator matrices plus the neutral form data for one signature."""

    sig: Signature
    rho_gen: list
    tau: np.ndarray

    def rho(self, eta) -> np.ndarray:
        """rho(eta) = sum_k eta_k rho(Z_k); linear in eta."""
        eta = np.asarray(eta, float)
        if eta.shape != (self.sig.center_dim,):
            raise DimensionMismatch(
                f"eta must have length {self.sig.center_dim}, got {eta.shape}")
        out = np.zeros((2 * self.sig.n, 2 * self.sig.n))
        for ek, rk in zip(eta, self.rho_gen):
            out += ek * rk
        return out


def build_module(sig: Signature) -> AdmissibleModule:
    """Catalog lookup; raises UnknownSignature outside the shipped list."""
    if sig not in _CATALOG:
        hint = ""
        if (sig.r, sig.s, sig.n) in ((0, 2, 1), (0, 3, 2), (2, 1, 2)):
            hint = (" (no admissible module exists at this dimension; the catalog"
                    " carries the minimal admissible n for this (r, s))")
        raise UnknownSignature(f"signature {sig} is not in the catalog{hint}")
    return AdmissibleModule(sig, [np.asarray(g, float) for g in _generators(sig)],
                            tau_matrix(sig.n))


@dataclass
class ValidationReport:
    residuals: dict
    passed: bool
    tol: float

    def max_residual(self) -> float:
        return max(self.residuals.values())


def validate_module(mod: AdmissibleModule, tol: float = 1e-12) -> ValidationReport:
    """Check GL_1-GL_3, the Clifford relations, skewness, and block identities
    (the last four at _VALIDATION_SAMPLES seeded random eta)."""
    sig, tau = mod.sig, mod.tau
    eye = np.eye(2 * sig.n)
    signs = [1.0] * sig.r + [-1.0] * sig.s
    res = {}

    cliff = 0.0
    for i, ri in enumerate(mod.rho_gen):
        for j, rj in enumerate(mod.rho_gen):
            target = -2.0 * (signs[i] if i == j else 0.0) * eye
            cliff = max(cliff, np.abs(ri @ rj + rj @ ri - target).max())
    res["clifford_relations"] = cliff

    skew = max(np.abs(tau @ rk + (tau @ rk).T).max() for rk in mod.rho_gen)
    res["tau_rho_skew"] = skew

    rng = np.random.default_rng(_VALIDATION_SEED)
    gl3 = gl2 = sq = blocks = 0.0
    n = sig.n
    for _ in range(_VALIDATION_SAMPLES):
        eta = rng.normal(size=sig.center_dim)
        R = mod.rho(eta)
        q = sig.eta_form(eta)
        sq = max(sq, np.abs(R @ R + q * eye).max())
        gl2 = max(gl2, np.abs((tau @ R) + (tau @ R).T).max())
        # GL_1 via GL_2 + GL_3: <J X, J Y>_V = q <X, Y>_V
        gl3 = max(gl3, np.abs(R.T @ tau @ R - q * tau).max())
        # block identities for eta = (eta_+, eta_-)
        A = R[:n, :n]
        B = R[:n, n:]
        D = R[n:, n:]
        em = eta[sig.r:]
        blocks = max(blocks, np.abs(A @ B + B @ D).max())
        blocks = max(blocks, np.abs(B.T @ B - (em @ em) * np.eye(n)).max())
        blocks = max(blocks, np.abs(A + A.T).max(), np.abs(D + D.T).max())
        blocks = max(blocks, np.abs(R[n:, :n] - B.T).max())
    res["rho_eta_squared"] = sq
    res["gl2_skew_adjoint"] = gl2
    res["gl1_isometry"] = gl3
    res["block_structure"] = blocks

    return ValidationReport(res, all(v <= tol for v in res.values()), tol)


# ------------------------------------------------------------- serialization

def catalog_to_json() -> str:
    entries = []
    for sig in CATALOG_SIGNATURES:
        gens = _generators(sig)
        entries.append({
            "r": sig.r, "s": sig.s, "n": sig.n,
            "rho": [np.asarray(g, dtype=int).tolist() for g in gens],
        })
    return json.dumps({"catalog": entries}, indent=1, sort_keys=True)


def catalog_from_json(text: str) -> dict:
    """Parse and re-validate a serialized catalog; returns {Signature: module}."""
    data = json.loads(text)
    out = {}
    for e in data["catalog"]:
        sig = Signature(int(e["r"]), int(e["s"]), int(e["n"]))
        mod = AdmissibleModule(sig, [np.array(g, float) for g in e["rho"]], tau_matrix(sig.n))
        report = validate_module(mod)
        if not report.passed:
            raise UnknownSignature(f"serialized entry {sig} fails validation: "
                                   f"{report.residuals}")
        out[sig] = mod
    return out
