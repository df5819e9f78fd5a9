"""The two-call engine routes of `pairing.pair_k` and `pair_mr_heisenberg`,
kept as test oracles.

`pair_k_two_calls` runs the engine once per (term, rho-rule, sign): the
lam-half at +rho/r and the mu-half at -rho/r, each over its own merged rows.
`pair_mr_per_node` runs one engine row per theta node at its own frequency.
Both take the engine's plain (N, Nw) values and contract them with the
quadrature weights here.  The library runs both halves (and the mirrored
theta nodes) in one pass, through the identity
U_m(-w; b, c) = conj U_m(w; -b, c), and passes the weights to the engine.
"""
import math

import numpy as np

from pseudoht.gausspoly import (
    GaussMixture,
    as_terms,
    batched_osc_integral,
    equal_rows,
)
from pseudoht.group import tau_signs
from pseudoht.kernels import kernel_prefactor
from pseudoht.pairing import (
    PairBudget,
    _center_nodes,
    _rho_nodes_for,
    _rho_rule_for,
    _theta_envelope,
    mr_constant,
)
from pseudoht.quadrature import composite_legendre, geometric_edges, hermite_rule, sphere_rule


def _merge_one_sign(fam: GaussMixture, rows, weights, js):
    """The rows of fam that share a radial node, shift and frequency, weighted and summed."""
    order, starts = equal_rows(np.column_stack([js, fam.shift[rows], fam.freq[rows]]))
    coef = np.add.reduceat(fam.coef[rows[order]] * weights[order, None], starts, axis=0)
    first = order[starts]
    rows = rows[first]
    return GaussMixture._of(fam.form, fam.expo, coef, fam.shift[rows], fam.freq[rows]), js[first]


def pair_k_two_calls(n: int, s: int, phi, sel, budget: PairBudget | None = None) -> complex:
    """pair_k(...).value with one engine call per sign."""
    budget = budget or PairBudget()
    terms = as_terms(phi.fourier())
    d = 2 * n + s
    theta_axes = list(range(2 * n, d))
    tau = tau_signs(n)
    r_max = _theta_envelope(terms, theta_axes)
    edges = geometric_edges(0.0, r_max, budget.radial_geo_panels, budget.radial_lin_panels)
    radial, wr = composite_legendre(edges, budget.radial_order)
    sphere, ws = sphere_rule(s, budget.sphere_pts)
    node_w = wr * radial ** (s - 1) * kernel_prefactor(n, s) / radial
    lam, mu = np.array([sel.lam_mu(om) for om in sphere], dtype=complex).T
    counts: dict = {}
    for j, r in enumerate(radial):
        counts.setdefault(_rho_nodes_for(r, budget.rho_nodes), []).append(j)
    groups = [(*_rho_rule_for(n, npts), np.array(js)) for npts, js in counts.items()]
    total = 0.0 + 0.0j
    for term in terms:
        fam = term.restrict(theta_axes, _center_nodes(radial, sphere))
        for rho, wq, js in groups:
            rows = (np.arange(len(sphere))[:, None] * radial.size + js).ravel()
            row_js = np.tile(js, len(sphere))
            for sign, wo in ((1.0, ws * lam), (-1.0, -ws * mu)):
                row_w = np.repeat(wo, js.size)
                keep = row_w != 0
                if not keep.any():
                    continue
                merged, mj = _merge_one_sign(fam, rows[keep], row_w[keep], row_js[keep])
                freqs = sign * rho[None, :] / radial[mj][:, None]
                total += np.sum(node_w[mj] * (batched_osc_integral(merged, freqs, tau) @ wq))
    return total


def pair_mr_per_node(G, phi, budget: PairBudget | None = None) -> complex:
    """pair_mr_heisenberg(...).value with one engine row per theta node."""
    from pseudoht.clifford import p_form

    budget = budget or PairBudget()
    n = G.sig.n
    z_axis = 2 * n
    terms = as_terms(phi.partial_fourier([z_axis]))
    tau = tau_signs(n)
    rr, wr = composite_legendre(np.concatenate([[0.0], np.geomspace(0.02, 1.0, budget.t_panels)]),
                                budget.t_order)
    coth = 1.0 / rr
    jac = (1.0 - rr ** 2) ** ((n - 2) / 2.0) / rr ** n
    total = np.zeros(rr.shape, dtype=complex)
    for term in terms:
        s = math.sqrt(2.0 / term.quad[z_axis, z_axis])
        bz = float(term.freq[z_axis])
        cx = term.shift[:2 * n]
        w5 = 5.0 / math.sqrt(float(np.linalg.eigvalsh(term.quad[:2 * n, :2 * n]).min()))
        p0 = p_form(cx)
        spread = 2.0 * float(np.linalg.norm(cx)) * w5 + w5 * w5
        cvals = coth / 4.0
        f_center = np.abs(bz - cvals * p0)
        f_lower = np.maximum(0.0, cvals * max(0.0, abs(p0) - spread) - abs(bz))
        keep = f_lower * s < 9.0
        orders = np.minimum(8192, np.maximum(budget.theta_hermite,
                                             ((f_center * s) ** 2 / 1.8 + 32).astype(int)))
        orders = 2 ** np.ceil(np.log2(orders)).astype(int)
        for order in np.unique(orders[keep]):
            sel = keep & (orders == order)
            if order <= 256:
                xh, wh = hermite_rule(int(order))
                th_nodes, th_w = xh * s, wh * s * np.exp(xh ** 2)
            else:
                h = math.pi / (1.3 * float(np.max(f_center[sel])) + 4.0 / s)
                L = 9.0 * s
                th_nodes = np.linspace(-L, L, int(2 * L / h) + 1)
                th_w = np.full(th_nodes.size, th_nodes[1] - th_nodes[0])
            fam = term.restrict([z_axis], th_nodes[:, None])
            xint = batched_osc_integral(fam, -th_nodes[:, None] * cvals[sel][None, :], tau)
            total[sel] += (th_w * (1j * th_nodes) ** (n - 1)) @ xint
    total /= math.sqrt(2.0 * math.pi)
    return mr_constant(n) * complex(np.sum(wr * jac * total))
