"""Test oracle for Gaussian integrals: Wick (Isserlis) pairings, term by term.

`wick_integrate_against` computes what `GaussMixture.integrate_against`
computes for one term, by re-expanding the polynomial about the mean and
summing the Isserlis pairings of each monomial's moment (Isserlis,
Biometrika 12 (1918) 134), with det(M)^{-1/2} from the eigenvalues of M.
"""
import numpy as np

from pseudoht.errors import NonSPDQuadraticForm
from pseudoht.gausspoly import _shift


def _wick_moment(cov: np.ndarray, idx: tuple) -> complex:
    """E[y_{i1} ... y_{ik}] for the (complex) covariance cov, via pairings."""
    k = len(idx)
    if k == 0:
        return 1.0
    if k % 2 == 1:
        return 0.0
    cache: dict = {}

    def rec(ids: tuple) -> complex:
        if not ids:
            return 1.0
        if ids in cache:
            return cache[ids]
        first, rest = ids[0], ids[1:]
        total = 0.0 + 0.0j
        for pos in range(len(rest)):
            c = cov[first, rest[pos]]
            if c != 0:
                total += c * rec(rest[:pos] + rest[pos + 1:])
        cache[ids] = total
        return total

    return rec(tuple(sorted(idx)))


def det_inv_sqrt(M: np.ndarray):
    """det(M)^{-1/2} for complex symmetric M with Re M positive definite, as
    the product of the principal inverse square roots of its eigenvalues."""
    lam = np.linalg.eigvals(M)
    if np.any(lam.real <= 0):
        raise NonSPDQuadraticForm("Re part of the quadratic form is not positive definite")
    return np.prod(lam ** -0.5, axis=-1)


def gaussian_poly_integral(M: np.ndarray, lin: np.ndarray, expo: np.ndarray,
                           coef: np.ndarray) -> complex:
    """integral p(w) exp(-1/2 w^T M w + lin.w) dw, Re M positive definite,
    for the polynomial p = (expo, coef)."""
    d = M.shape[0]
    Minv = np.linalg.inv(M)
    m0 = Minv @ lin
    pref = (2.0 * np.pi) ** (d / 2.0) * det_inv_sqrt(M) * np.exp(0.5 * lin @ m0)
    total = 0.0 + 0.0j
    for mono, c in zip(*_shift(expo, coef, m0)):  # p(y + m0) as a poly in y
        mom = _wick_moment(Minv, tuple(np.repeat(np.arange(d), mono)))
        if mom != 0:
            total += c * mom
    return pref * total


def wick_integrate_against(term, W=None, eta=None) -> complex:
    """integral phi(u) exp(-1/2 u^T W u + eta.u) du for one GaussPoly term."""
    d = term.dim
    W = np.zeros((d, d)) if W is None else np.asarray(W)
    eta = np.zeros(d) if eta is None else np.asarray(eta)
    M = term.quad + W
    c = term.shift
    lin = 1j * term.freq + eta - W @ c
    const = np.exp(1j * term.freq @ c + eta @ c - 0.5 * c @ W @ c)
    return const * gaussian_poly_integral(M, lin, term.expo, term.coef)
