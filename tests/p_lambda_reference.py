"""The 2-D generalized-Laguerre route to the P^lambda boundary values, kept as
a test oracle for the closed-form moments of `kernels.PSGauss.integral_region`.

`laguerre_region` integrates one region on a tensor product of Laguerre rules
in v = P or -P (weight v^{Re mu} e^{-a v}) and B (weight e^{-2aB});
`p_i0_power_laguerre` refines the two-region sum from order 48 and stops at
192, because SciPy's generalized Laguerre weights are NaN from order 384.  At
real mu and even n the integrand is a polynomial in (v, B), so a rule of
order above half its degree is exact.
"""
import math

import numpy as np

from pseudoht.kernels import PSGauss, lambda_factor
from pseudoht.quadrature import converged, genlaguerre_rule, refine_until, tensor_rule
from pseudoht.specfun import gamma_half


def laguerre_region(ps: PSGauss, mu: complex, sign: int, npts: int) -> complex:
    """(P_{+-}^mu, f): [pi^{n/2}/Gamma(n/2)]^2 * 2-D Laguerre quadrature.

    Coordinates A = |u|^2, B = |w|^2 with measure (A B)^{n/2 - 1} dA dB;
    region P > 0 is A = B + v, region P < 0 is B = A + v, v > 0.
    """
    a, n = ps.a, ps.n
    remu = float(np.real(mu))
    xv, wv = genlaguerre_rule(npts, remu)
    xb, wb = genlaguerre_rule(npts, 0.0)
    # v = xv / a carries the weight v^{Re mu} e^{-a v}, b = xb / (2a) e^{-2ab}
    pts, wt = tensor_rule([xv / a, xb / (2 * a)], [wv / a ** (remu + 1), wb / (2 * a)])
    V, B = pts.T.copy()
    A = B + V
    P = V if sign > 0 else -V
    S = 2 * B + V
    g = np.zeros_like(V, dtype=complex)
    for (i, j), c in zip(ps.expo.tolist(), ps.coef):
        g = g + c * P ** i * S ** j
    extra = V ** (mu - remu) if mu != remu else 1.0  # v^{i Im mu}
    integ = (A * B) ** (n / 2.0 - 1.0) * g * extra
    const = (math.pi ** (n / 2.0) / gamma_half(n / 2.0)) ** 2
    return const * complex(np.sum(wt * integ))


def p_i0_power_laguerre(lam: complex, ps: PSGauss, k: int, side: str = "minus") -> complex:
    """`kernels.p_i0_power` by the refined Laguerre quadrature (no removable
    points); raises NotConverged when orders 96 and 192 disagree to 1e-8."""
    lk = ps
    for _ in range(k):
        lk = lk.apply_L()
    mu = lam + k
    phase = np.exp((-1.0 if side == "minus" else 1.0) * 1j * math.pi * mu)

    def eval_with(npts: int) -> complex:
        return laguerre_region(lk, mu, +1, npts) + phase * laguerre_region(lk, mu, -1, npts)

    val, err, order = refine_until(eval_with, 48, 1e-8, 192)
    return lambda_factor(lam, k, ps.n) * converged(
        val, err, "P^lambda at %s, Laguerre order %d", lam, order)
