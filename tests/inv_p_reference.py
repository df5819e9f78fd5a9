"""The per-node engine route of `kernels.inv_p_power`, kept as a test oracle.

Every node of a family runs the engine on its own row at every frequency of
the two t-halves, and the (N, Nw) values are contracted with the t weights
here.  The library instead runs it once per distinct (shift, frequency) row
in table mode, passes the weights to the engine, and contracts the weighted
table with each node's coefficients.
"""
import math

import numpy as np

from pseudoht.errors import UnsupportedN
from pseudoht.gausspoly import GaussPoly, batched_osc_integral
from pseudoht.kernels import _INV_P_TOL
from pseudoht.quadrature import composite_legendre, refine_many


def inv_p_power_per_node(psi, n: int):
    """lim_{eps->0} integral psi_i(x) / (P(x) - i eps)^{n-1} dx, one engine row per node."""
    if n < 2:
        raise UnsupportedN("1/P^{n-1} needs n >= 2")
    fam = psi.stack
    if fam.dim != 2 * n:
        raise UnsupportedN(f"psi must live on R^{2 * n}")
    tau = np.array([1.0] * n + [-1.0] * n)
    pref = 1j ** (n - 1) / math.factorial(n - 2)

    def on_nodes(f, idx, w, weights):
        return batched_osc_integral(f[idx], np.broadcast_to(w, (idx.size, w.size)), tau) @ weights

    def i1(npts: int, idx) -> np.ndarray:
        t, w = composite_legendre(np.linspace(0.0, 1.0, 5), npts)
        return pref * on_nodes(fam, idx, -t, w * t ** (n - 2))

    finv = fam.inverse_fourier()

    def i2(npts: int, idx) -> np.ndarray:
        u, w = composite_legendre(np.linspace(0.0, 1.0, 5), npts)
        return pref / 2 ** n * on_nodes(finv, idx, u / 4.0, w)  # t = 1/u

    v1, _, _ = refine_many(i1, 16, _INV_P_TOL, len(fam))
    v2, _, _ = refine_many(i2, 16, _INV_P_TOL, len(fam))
    out = v1 + v2
    return complex(out[0]) if isinstance(psi, GaussPoly) else out
