"""Test oracle for the oscillatory engine, computed axis by axis.

`osc_family_reference` computes what `gausspoly.batched_osc_integral`
computes, in one pass over all (node, frequency) pairs and with every
per-axis term formed on every axis: the prefactor's modulus as sum_j 1/2 log(a_j^2 + 4 w^2), its
phase by arctan2 per axis, the exponent lin_j^2 / (2 beta_j) from its two
parts, lin_j and mu_j also where a centre and a frequency are 0, and every
moment by the full recursion.  The engine takes the prefactor as a product
of paired principal roots with no transcendental, the exponent with its
large parts cancelled analytically, and the even moments of the dead axes
with their double factorials folded into the coefficients, so on no family
does the oracle share its prefactor or moment arithmetic.
"""
import numpy as np

from pseudoht.gausspoly import GaussMixture, _tau_diagonalize


def osc_family_reference(fam: GaussMixture, w: np.ndarray, tau: np.ndarray,
                         table: bool = False) -> np.ndarray:
    """integral phi_i(u) exp(i w[i, k] P_tau(u)) du for a node family and
    w (N, Nw); with `table`, the (N, Nw, M) table of the integrals of each
    monomial of the caller's expo alone."""
    w = np.asarray(w, float)
    basis = None
    A = fam.form
    if np.count_nonzero(A - np.diag(np.diagonal(A))):
        fam, basis = _tau_diagonalize(fam, tau)
    a, t = np.diagonal(fam.form)[:, None], tau[:, None]
    expo = fam.expo
    axes = [j for j in range(fam.dim) if expo.size and expo[:, j].max() > 0]
    coef = np.ones((len(expo), len(fam)), dtype=complex) if table else fam.coef.T
    shift, freq = fam.shift.T, fam.freq.T
    phase = np.sum(fam.freq * fam.shift, axis=1)
    curv = fam.shift ** 2 @ tau
    i, jw = np.divmod(np.arange(w.size), w.shape[1])
    wc = w[i, jw]
    beta = a - 2j * t * wc
    lin = 1j * freq[:, i] + (2j * t * wc) * shift[:, i]
    mu = lin / beta
    expo_sum = -0.5 * np.sum(0.5 * np.log(a ** 2 + 4.0 * wc ** 2)
                             + 1j * np.arctan2(-2.0 * t * wc, a) - lin * mu, axis=0)
    pref = (2 * np.pi) ** (fam.dim / 2) * np.exp(expo_sum + 1j * (phase[i] + wc * curv[i]))
    mono = coef[:, i]
    for j in axes:
        deg = int(expo[:, j].max())
        sig2 = 1.0 / beta[j]
        mom = np.empty((deg + 1, i.size), dtype=complex)
        mom[0], mom[1] = 1.0, mu[j]
        for k in range(2, deg + 1):
            mom[k] = mu[j] * mom[k - 1] + (k - 1) * sig2 * mom[k - 2]
        mono *= mom[expo[:, j]]
    if not table:
        return (pref * np.sum(mono, axis=0)).reshape(w.shape)
    tab = pref * mono
    if basis is not None:
        tab = basis @ tab
    return tab.T.reshape(w.shape + (-1,))
