"""Test oracle for the second form: the u-integral as a quadrature per t node.

`second_form_reference` computes what `pairing.pair_second_form` computes on
the same t-, r- and sphere grids, but at each t node it integrates
int_0^inf u^{n-2} T(-(u + a)) du, a = r coth(t) / 4, by its own Gauss-Legendre
u-grid (u in [0, 1] and 1/u, graded at the tanh(t) feature scale) and one
moment-table call per u part, instead of looking it up in the cumulative
v-table.  `u_order` is that grid's per-panel order.
"""
import math

import numpy as np

from pseudoht.gausspoly import as_terms, batched_osc_integral
from pseudoht.group import tau_signs
from pseudoht.pairing import PairBudget, _dual_scale_rule, _radial_profile
from pseudoht.quadrature import composite_legendre, geometric_edges, sphere_rule


def second_form_reference(n: int, s: int, phi, budget: PairBudget | None = None,
                          u_order: int = 10) -> complex:
    """The second form at `budget` (no error estimate)."""
    b = budget or PairBudget()
    d = 2 * n + s
    tau = tau_signs(n)
    terms = as_terms(phi.partial_fourier(range(2 * n, d)))
    pref_out = (2.0 / 1j) ** (n - 2) * (2.0 * math.pi) ** (-(n + s / 2.0))
    pref_D = 1j ** (n - 1) / math.factorial(n - 2)

    sphere, ws = sphere_rule(s, b.sphere_pts)
    profiles = [_radial_profile(term, sphere, ws, n, s) for term in terms if len(term.coef)]
    t_edges = geometric_edges(0.0, 1.0, 5, b.t_panels)
    rr, wt = composite_legendre(t_edges, b.t_order)

    total = 0.0 + 0.0j
    for rho_t, w_t in zip(rr, wt):
        ccoth = 0.25 / rho_t
        jac = (1.0 - rho_t ** 2) ** ((n - 2) / 2.0) / rho_t
        u1, wu1, _ = _dual_scale_rule(1.0, 1.0 / (4 * ccoth), u_order)
        u_parts = ((u1, wu1 * u1 ** (n - 2)), (1.0 / u1, wu1 * u1 ** (-n)))
        Dval = 0.0 + 0.0j
        for xunit, c, gamma, P in profiles:
            c_min = c.min()
            r_scale = math.sqrt(40.0 / c_min) if c_min > 1e-12 else 40.0
            rn, wn, _ = _dual_scale_rule(r_scale, min(r_scale, 1.0 / ccoth), b.r_order)
            prof = wn * np.exp(-c[:, None] * rn ** 2 + 1j * gamma[:, None] * rn)
            W = np.einsum("kr,rj,kjm->rm", prof, rn[:, None] ** np.arange(P.shape[1]), P)
            for uu, wu in u_parts:
                v = uu[None, :] + rn[:, None] * ccoth
                table = batched_osc_integral(xunit, -v.reshape(1, -1), tau, table=True)
                Dval += wu @ np.einsum("rk,ruk->u", W, table.reshape(v.shape + (-1,)))
        total += w_t * jac * pref_D * Dval
    return pref_out * total
