"""Pairings of the fundamental-solution distributions with test functions.

Three independent representations are implemented:

* pair_k       - the Fourier-side kernel family: radial x spherical quadrature
                 in the center variable; for each node the xi-integral against
                 e^{i rho P(xi)/|theta|} is an exact complex Gaussian, so only
                 the rho-weight integral and the center quadrature are numeric.
                 The xi-integral at -rho and xi-frequency b is the conjugate of
                 the one at +rho and -b, so both kernel halves share one pass.
* pair_mr_heisenberg - the iterated-integral form on the Heisenberg group
                 (center dimension 1, n even).
* pair_second_form   - the 1/P^{n-1} form (n >= 2): sphere average, exact
                 r-derivatives as a coefficient recursion, and the
                 Gamma-integral route for the regularized x-functional: one
                 cumulative v-table per term, on subpanels graded by its own
                 scale, contracted with all (t, r) nodes in blocks.

All quadrature budgets are explicit in PairBudget and echoed in the result.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DimensionMismatch, OddN, UnsupportedN
from .gausspoly import (
    GaussMixture,
    GaussPoly,
    as_terms,
    batched_osc_integral,
    equal_rows,
    osc_items,
)
from .group import GroupStructure, tau_signs
from .kernels import KernelSelector, kernel_prefactor
from .quadrature import (
    composite_legendre,
    geometric_edges,
    half_disc_rule,
    hermite_rule,
    legendre_rule,
    sphere_rule,
)


@dataclass(frozen=True)
class PairBudget:
    """Node counts for the pairing quadratures (doubled for error estimates)."""

    radial_geo_panels: int = 10
    radial_lin_panels: int = 8
    radial_order: int = 12
    sphere_pts: int = 16
    rho_nodes: int = 96
    t_panels: int = 8
    t_order: int = 10
    theta_hermite: int = 32
    r_order: int = 10

    def __post_init__(self):
        low = {k: v for k, v in self.as_dict().items() if v < 1}
        if low:
            raise ValueError(f"PairBudget node counts must be >= 1, got {low}")

    def doubled(self) -> "PairBudget":
        return replace(self, radial_order=2 * self.radial_order,
                       sphere_pts=2 * self.sphere_pts, rho_nodes=2 * self.rho_nodes,
                       t_order=2 * self.t_order, theta_hermite=2 * self.theta_hermite,
                       r_order=2 * self.r_order)

    def doubled_light(self) -> "PairBudget":
        """Double only the axes that drive the second-form error."""
        return replace(self, t_order=2 * self.t_order, r_order=2 * self.r_order)

    def as_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__dataclass_fields__}


@dataclass
class PairingResult:
    value: complex
    est_error: float
    node_budget: dict = field(default_factory=dict)


def _estimated(value_with, budget: PairBudget, doubled: PairBudget,
               with_error: bool) -> PairingResult:
    """value_with(budget); with_error, the value at the doubled budget, with
    the difference of the two as est_error.  node_budget is the budget the
    returned value was computed at."""
    val = value_with(budget)
    err = 0.0
    if with_error:
        val2 = value_with(doubled)
        err = abs(val2 - val)
        val, budget = val2, doubled
    return PairingResult(val, err, budget.as_dict())


def _check_dim(phi, d: int) -> None:
    if phi.dim != d:
        raise DimensionMismatch(f"test function has dimension {phi.dim}, the group {d}")


def _theta_envelope(terms, theta_axes) -> float:
    """Radius beyond which every term's center-variable Gaussian is < e^-40."""
    r_max = 0.0
    for t in terms:
        A = t.quad[np.ix_(theta_axes, theta_axes)]
        lam_min = float(np.linalg.eigvalsh(A).min())
        center = float(np.linalg.norm(t.shift[theta_axes]))
        r_max = max(r_max, center + math.sqrt(2 * 40.0 / lam_min))
    return r_max


def _rho_nodes_for(r, base: int):
    """rho-node count adapted to the feature scale r of the exact xi-integrals
    (elementwise for an array of r): a power of two from base up to 1024."""
    npts = np.minimum(1024, np.maximum(base, 6.0 / np.maximum(r, 6.0 / 1024))).astype(int)
    return 1 << np.frexp(npts - 1)[1]     # frexp's exponent is the bit length


def _rho_rule_for(n: int, npts: int):
    """The rho-rule for the weight (1 - rho^2)^{(n-2)/2} on [0, 1]; at n = 2
    the weight is 1, so it is plain Gauss-Legendre."""
    if n == 2:
        return composite_legendre((0.0, 1.0), npts)
    return half_disc_rule(npts, (n - 2) / 2.0)


def _center_nodes(radial: np.ndarray, sphere: np.ndarray) -> np.ndarray:
    """The (sphere x radial) center points r * om, sphere index slowest."""
    return (sphere[:, None, :] * radial[None, :, None]).reshape(-1, sphere.shape[1])


def _merge_centers(fam: GaussMixture, rows: np.ndarray, weights: np.ndarray, js: np.ndarray):
    """The weighted rows of fam that share a radial node and a center, summed.

    weights (R, 2) is row i's weight in the lam-half or, frequency negated,
    the mu-half (`_pair_k_value`).  Rows with the same radial node js[i],
    shift and frequency differ only in their coefficients, and the engine is
    linear in those, so the weighted sum of their integrals is the integral
    of one row with coefficients sum_i weights[i] coef[rows[i]].  Returns
    that family (lam-half), the mu-half block and each row's radial node.
    """
    freq = np.where(weights[:, 1:] != 0, -fam.freq[rows], fam.freq[rows])
    order, starts = equal_rows(np.column_stack([js, fam.shift[rows], freq]))
    weighted = fam.coef[rows[order], None, :] * weights[order, :, None]
    coef = np.add.reduceat(weighted, starts, axis=0)
    first = order[starts]
    merged = GaussMixture._of(fam.form, fam.expo, coef[:, 0], fam.shift[rows[first]], freq[first])
    return merged, coef[:, 1], js[first]


def _pair_k_value(n: int, s: int, fphi_terms, sel: KernelSelector,
                  budget: PairBudget) -> tuple:
    """The (radial x sphere) center quadrature of K^{lam,mu} against F phi,
    and the distinct rho-node counts it used (`_rho_nodes_for`, ascending).

    Restricted at the center r om, a term's xi-Gaussian depends on om only
    through its coefficients unless its theta-block is coupled to xi, so the
    sphere sum is taken inside the engine: per radial node and center, the
    lam-half (+rho/r) integrates sum_om w_om lam(om) c_om and the mu-half
    (-rho/r) -sum_om w_om mu(om) c_om (`_merge_centers`); rows of zero weight
    are dropped.  As U_m(-w; b, c) = conj U_m(w; -b, c) for monomial m at
    xi-frequency b and centre c, the mu-half is keyed at +rho/r with b
    negated and runs in the same engine pass, as conj_coef.  A block-diagonal
    term with b = 0 costs one engine row per radial node whatever the sphere
    budget and selector, an off-centre one a row per half, a coupled one a
    row per distinct center and half, in one engine call per term and
    rho-rule that contracts the rho weights.
    """
    d = 2 * n + s
    theta_axes = list(range(2 * n, d))
    tau = tau_signs(n)
    r_max = _theta_envelope(fphi_terms, theta_axes)
    edges = geometric_edges(0.0, r_max, budget.radial_geo_panels,
                            budget.radial_lin_panels)
    radial, wr = composite_legendre(edges, budget.radial_order)
    sphere, ws = sphere_rule(s, budget.sphere_pts)
    pref = kernel_prefactor(n, s)
    node_w = wr * radial ** (s - 1) * pref / radial
    lam, mu = np.array([sel.lam_mu(om) for om in sphere], dtype=complex).T
    halves = np.concatenate([np.outer(ws * lam, [1, 0]), np.outer(ws * mu, [0, -1])])

    # the radial nodes that share a rho-rule, so their frequencies form one array
    counts = _rho_nodes_for(radial, budget.rho_nodes)
    groups = [(*_rho_rule_for(n, npts), np.flatnonzero(counts == npts))
              for npts in dict.fromkeys(counts.tolist())]

    total = 0.0 + 0.0j
    for term in fphi_terms:
        fam = term.restrict(theta_axes, _center_nodes(radial, sphere))
        for rho, wq, js in groups:
            # rows k R + j of the group, sphere node k slowest, lam- then mu-half
            rows = np.tile((np.arange(len(sphere))[:, None] * radial.size + js).ravel(), 2)
            row_w = np.repeat(halves, js.size, axis=0)
            keep = row_w.any(axis=1)
            merged, conj, mj = _merge_centers(fam, rows[keep], row_w[keep],
                                              np.tile(js, 2 * len(sphere))[keep])
            vals = batched_osc_integral(merged, rho[None, :] / radial[mj][:, None], tau,
                                        conj_coef=conj if conj.any() else None, weights=wq)
            total += np.sum(node_w[mj] * vals)
    return total, sorted(set(counts.tolist()))


def pair_k(n: int, s: int, phi, sel: KernelSelector | None = None,
           budget: PairBudget | None = None, with_error: bool = True) -> PairingResult:
    """K^{lam,mu}(phi) = integral q^{lam,mu}(xi, theta) [F phi](xi, theta).

    node_budget is the budget the value was computed at (the doubled one
    when with_error) and adds rho_nodes_used: the distinct rho-node counts
    each evaluation used, the base budget first (then the doubled one when
    with_error).  A radial node r takes max(rho_nodes, 6 / r) nodes, rounded
    up to a power of two and capped at 1024, so a request above 1024 shows
    there as 1024.
    """
    _check_dim(phi, 2 * n + s)
    sel = sel or KernelSelector.constant(1.0)
    budget = budget or PairBudget()
    fphi = phi.fourier()
    terms = as_terms(fphi)
    used = []

    def value_with(b: PairBudget) -> complex:
        value, counts = _pair_k_value(n, s, terms, sel, b)
        used.append(counts)
        return value

    res = _estimated(value_with, budget, budget.doubled(), with_error)
    res.node_budget["rho_nodes_used"] = used
    return res


# --------------------------------------------------------- iterated integral

def mr_constant(n: int) -> complex:
    """Constant of the iterated-integral form: i (-i)^{n-1} (4 pi)^{-n}.

    Equals +(4 pi)^{-n} for n = 2 mod 4 (validated against delta-reproduction
    and the Fourier-side pairing; the sign convention differs between sources).
    """
    return 1j * (-1j) ** (n - 1) * (4.0 * math.pi) ** (-n)


def pair_mr_heisenberg(G: GroupStructure, phi, budget: PairBudget | None = None,
                       with_error: bool = True) -> PairingResult:
    """Iterated-integral pairing on the Heisenberg group (s = 1, n even):

        c_n int_0^inf sinh^{-n} t  int d^{n-1}phi/dz^{n-1}(x, -P(x) coth(t)/4) dx dt.

    The inner integral is evaluated through the partial transform in z: the
    x-integrals against e^{-i theta coth(t)/4 P(x)} are exact, leaving a
    Hermite quadrature in theta and the tanh-substituted t-integral.
    """
    if G.sig.r != 0 or G.sig.s != 1:
        raise UnsupportedN("iterated-integral pairing requires signature (0, 1)")
    n = G.sig.n
    if n % 2 == 1:
        raise OddN("the iterated-integral form is derived for even n")
    _check_dim(phi, 2 * n + 1)
    budget = budget or PairBudget()

    z_axis = 2 * n
    fz = phi.partial_fourier([z_axis])
    terms = as_terms(fz)
    tau = tau_signs(n)
    from .clifford import p_form

    def term_rates(term):
        """(envelope scale s, center frequency coefficient, frequency spread).

        The theta-integrand of one term oscillates like
        exp(i theta (b_z - c P(x-center))) with c = coth(t)/4, chirped by at
        most c * spread over the 5-sigma x-envelope.
        """
        s = math.sqrt(2.0 / term.quad[z_axis, z_axis])
        bz = float(term.freq[z_axis])
        cx = term.shift[:2 * n]
        Axx = term.quad[:2 * n, :2 * n]
        w5 = 5.0 / math.sqrt(float(np.linalg.eigvalsh(Axx).min()))
        p0 = p_form(cx)
        spread = 2.0 * float(np.linalg.norm(cx)) * w5 + w5 * w5
        return s, bz, p0, spread

    def value_with(b: PairBudget) -> complex:
        # t-integral via rho = tanh t: sinh^{-n} t dt = (1-r^2)^{(n-2)/2} r^{-n} dr
        edges = np.concatenate([[0.0], np.geomspace(0.02, 1.0, b.t_panels)])
        rr, wr = composite_legendre(edges, b.t_order)
        cvals = 0.25 / rr       # coth(t) / 4
        tw = wr * (1.0 - rr ** 2) ** ((n - 2) / 2.0) / rr ** n

        total = 0.0 + 0.0j
        for term in terms:
            s, bz, p0, spread = term_rates(term)
            # choose a Hermite order per t-node from the center frequency;
            # drop nodes whose guaranteed-minimal oscillation wipes the
            # Gaussian window below e^{-40}
            f_center = np.abs(bz - cvals * p0)
            f_lower = np.maximum(0.0, cvals * max(0.0, abs(p0) - spread) - abs(bz))
            keep = f_lower * s < 9.0
            orders = np.minimum(
                8192,
                np.maximum(b.theta_hermite,
                           ((f_center * s) ** 2 / 1.8 + 32).astype(int)))
            orders = 2 ** np.ceil(np.log2(orders)).astype(int)
            for order in np.unique(orders[keep]):
                sel = keep & (orders == order)
                if order <= 256:
                    xh, wh = hermite_rule(int(order))
                    th_nodes = xh * s
                    th_w = wh * s * np.exp(xh ** 2)
                else:
                    # uniform trapezoid on the 9-sigma window: spectrally
                    # accurate for the Gaussian-windowed integrand and free of
                    # the e^{x^2} weight overflow of high-order Hermite rules
                    fmax = float(np.max(f_center[sel]))
                    h = math.pi / (1.3 * fmax + 4.0 / s)
                    L = 9.0 * s
                    npts = int(2 * L / h) + 1
                    th_nodes = 2 * L / (npts - 1) * (np.arange(npts) - (npts - 1) / 2)  # mirrored
                    th_w = np.full(npts, th_nodes[1] - th_nodes[0])
                fam = term.restrict([z_axis], th_nodes[:, None]).scaled(
                    (th_w * (1j * th_nodes) ** (n - 1))[:, None])
                w, conj = -th_nodes[:, None] * cvals[sel][None, :], None
                if not fam.freq.any() and np.array_equal(th_nodes, -th_nodes[::-1]):
                    # node K-1-k (at -w) is node k's conj_coef part; a middle node has weight 0
                    k = np.arange(len(fam) // 2, len(fam))
                    fam, w, conj = fam[k], w[k], fam.coef[::-1][k]
                total += batched_osc_integral(fam, w, tau, conj_coef=conj, weights=tw[sel]).sum()
        return mr_constant(n) * total / math.sqrt(2.0 * math.pi)

    return _estimated(value_with, budget, budget.doubled(), with_error)


# ------------------------------------------------------------- second form

def _radial_profile(term: GaussPoly, sphere: np.ndarray, ws: np.ndarray, n: int, s: int):
    """(d/dr)^{n-1}[r^{n+s-2} term(x, r om)] at each sphere node om, exact in r.

    With c = 1/2 om^T A om and gamma = b.om over the theta-block, and
    (r om)^a = r^{|a|} om^a, the result is

        e^{-c r^2 + i gamma r} sum_{j, m} P[om, j, m] r^j X_m(x),

    X_m the term's x-Gaussian times its m-th distinct x-monomial.

    Returns the x-Gaussian with unit coefficients over the term's distinct
    x-monomials (the moment table's columns), c and gamma (K,) and the
    coefficients P (K, J, M) times the sphere weights.  Each r-derivative is
    the recursion P_j <- (j+1) P_{j+1} - 2c P_{j-1} + i gamma P_j.
    """
    nx = 2 * n
    if np.any(term.shift[nx:]):
        raise UnsupportedN("second form expects theta-centered transforms")
    c = 0.5 * np.einsum("ki,ij,kj->k", sphere, term.quad[nx:, nx:], sphere)
    gamma = sphere @ term.freq[nx:]
    xexpo, col = np.unique(term.expo[:, :nx], axis=0, return_inverse=True)
    a = term.expo[:, nx:]
    deg = a.sum(axis=1) + n + s - 2
    P = np.zeros((deg.max() + 1, len(xexpo), len(sphere)), dtype=complex)
    np.add.at(P, (deg, col.ravel()), term.coef[:, None] * np.prod(sphere ** a[:, None], axis=2))
    P = P.transpose(2, 0, 1)
    c3, g3 = c[:, None, None], gamma[:, None, None]
    for _ in range(n - 1):
        Q = np.pad(P, ((0, 0), (1, 2), (0, 0)))
        j = np.arange(1, Q.shape[1] - 1)[:, None]
        P = j * Q[:, 2:] - 2.0 * c3 * Q[:, :-2] + 1j * g3 * Q[:, 1:-1]
    xunit = GaussPoly(nx, term.quad[:nx, :nx], shift=term.shift[:nx], freq=term.freq[:nx],
                      expo=xexpo, coef=np.ones(len(xexpo)))
    return xunit, c, gamma, P * ws[:, None, None]


def _dual_scale_rule(r_max: float, fine, npts: int):
    """npts-node composite Gauss-Legendre rules on [0, r_max], one per scale f in
    `fine`, concatenated: nodes, weights and the index of each node's f.  Panels
    [0, f], [f, 2f], ... up to the first 2^k f >= r_max/4, then three equal ones
    (five if f >= r_max/4); each row of edges is padded with r_max."""
    fine = np.atleast_1d(fine).astype(float)[:, None]
    geo = fine * 2.0 ** np.arange(2 + max(0, int(np.log2(r_max / 4 / fine.min()))))
    k = np.sum(geo < r_max / 4, axis=1, keepdims=True)
    top = np.where(k > 0, np.take_along_axis(geo, k, 1), 0.0)
    panels, i = np.where(k > 0, 3, 5), np.arange(1, 6)  # i: the equal panels' upper edges
    lin = np.where(i < panels, top + i * ((r_max - top) / panels), r_max)
    edges = np.sort(np.hstack([0.0 * top, np.where(geo <= top, geo, r_max), lin]), axis=1)
    keep = edges[:, 1:] > edges[:, :-1]
    half = (0.5 * np.diff(edges, axis=1))[keep][:, None]
    x, w = legendre_rule(npts)
    nodes = (0.5 * (edges[:, :-1] + edges[:, 1:]))[keep][:, None] + half * x
    return nodes.ravel(), (half * w).ravel(), np.repeat(np.nonzero(keep)[0], npts)


# the v-table's rule (`_u_table`)
_V_PANEL = 0.25
_V_NODES = 8
_V_TAIL_ORDER = 20


def _u_table(xunit: GaussPoly, pts: np.ndarray, n: int, tau: np.ndarray) -> np.ndarray:
    """G[i, m] = int_0^inf u^{n-2} T_m(-(u + a)) du at the sorted points a = pts[i] > 0,
    T(w) the moment table of xunit: sum_k C(n-2, k) (-a)^{n-2-k} F_k(a) with
    F_k(a) = int_a^inf v^k T(-v) dv, accumulated from the top.  The tail above
    pts[-1] is a u / 1/u split of order _V_TAIL_ORDER, each gap between
    consecutive points _V_NODES-node Gauss-Legendre subpanels of length
    <= _V_PANEL * max(1, v/2) at its lower point v: T carries beta_j^{-1/2},
    beta_j = a_j + 2 i tau_j v, and |d/dv log beta_j^{-1/2}| <= 1/max(a_j, 2v),
    so above the dense points T(-v) varies on the scale v."""
    k = np.arange(n - 1)
    # v = pts[-1] + u, graded at the 1/pts[-1] feature scale
    u1, wu1, _ = _dual_scale_rule(1.0, min(1.0, 1.0 / pts[-1]), _V_TAIL_ORDER)
    v = pts[-1] + np.concatenate([u1, 1.0 / u1])
    wv = np.concatenate([wu1, wu1 / u1 ** 2])[:, None] * v[:, None] ** k
    tail = wv.T @ batched_osc_integral(xunit, -v[None], tau, table=True)[0]

    # gap g holds subpanels end[g] - count[g] .. end[g] - 1; they are placed
    # per block, so no array over all subpanels is held
    gaps = np.diff(pts)
    count = np.ceil(gaps / (_V_PANEL * np.maximum(1.0, 0.5 * pts[:-1]))).astype(int)
    end = np.cumsum(count)
    x, wx = legendre_rule(_V_NODES)
    x = 0.5 * (x + 1.0)
    sums = np.zeros((gaps.size,) + tail.shape, dtype=complex)
    step = osc_items(_V_NODES * tail.shape[1])
    for lo in range(0, end[-1], step):
        i = np.arange(lo, min(lo + step, end[-1]))
        g = np.searchsorted(end, i, side="right")
        h = gaps[g] / count[g]
        v = (pts[g] + (i - end[g] + count[g]) * h)[:, None] + h[:, None] * x
        wv = (0.5 * h[:, None] * wx)[..., None] * v[..., None] ** k
        table = batched_osc_integral(xunit, -v.reshape(1, -1), tau, table=True)
        sub = np.einsum("pqk,pqm->pkm", wv, table.reshape(v.shape + (-1,)))
        starts = np.flatnonzero(np.r_[True, g[1:] != g[:-1]])
        sums[g[starts]] += np.add.reduceat(sub, starts, axis=0)

    F = np.cumsum(np.concatenate([tail[None], sums[::-1]]), axis=0)[::-1]
    binom = np.array([math.comb(n - 2, j) for j in k])
    return np.einsum("pk,pkm->pm", binom * (-pts[:, None]) ** (n - 2 - k), F)


def pair_second_form(n: int, s: int, phi, budget: PairBudget | None = None,
                     with_error: bool = True) -> PairingResult:
    """Second form of the (1,0) pairing for n >= 2:

        (2/i)^{n-2} (2 pi)^{-(n+s/2)} int_0^inf (sinh t cosh^{n-1} t)^{-1}
            * (1/P^{n-1})[phi_t] dt,

    phi_t(x) = int_0^inf d^{n-1}/dr^{n-1}[r^{n+s-2} phitilde(x, r)]
               e^{-i (r/4) P(x) coth t} dr,

    phitilde the sphere average of the partial z-transform.  The regularized
    x-functional runs through the Gamma-integral route with exact complex
    Gaussian x-integrals.  Each term's sphere nodes and r-derivatives share
    its x-Gaussian (`_radial_profile`), and its u-integral at a = r coth(t)/4
    comes from one v-table per term on all (t, r) nodes (`_u_table`).  The
    r-grids, graded at the coth(t)/4 feature scale, form one ragged (t, r)
    grid whose weights carry the t weights, contracted with the table in
    blocks (`osc_items`), so no (sphere x all (t, r)) array is held.  The
    t-integrand tends to a nonzero constant at t = 0, so no truncation is safe.
    """
    if n < 2:
        raise UnsupportedN("second form needs n >= 2")
    budget = budget or PairBudget()
    _check_dim(phi, 2 * n + s)
    tau = tau_signs(n)
    terms = as_terms(phi.partial_fourier(range(2 * n, 2 * n + s)))
    pref_out = (2.0 / 1j) ** (n - 2) * (2.0 * math.pi) ** (-(n + s / 2.0))
    pref_D = 1j ** (n - 1) / math.factorial(n - 2)

    def value_with(b: PairBudget) -> complex:
        sphere, ws = sphere_rule(s, b.sphere_pts)
        profiles = [_radial_profile(term, sphere, ws, n, s) for term in terms if len(term.coef)]

        # outer t-integral via rho = tanh t:
        # (sinh t cosh^{n-1} t)^{-1} dt = rho^{-1} (1-rho^2)^{(n-2)/2} drho
        rr, wt = composite_legendre(geometric_edges(0.0, 1.0, 5, b.t_panels), b.t_order)
        ccoth = 0.25 / rr
        t_w = wt * (1.0 - rr ** 2) ** ((n - 2) / 2.0) / rr * pref_D

        total = 0.0 + 0.0j
        for xunit, c, gamma, P in profiles:
            # all t nodes' r-grids, sized by the slowest-decaying profile, as one (t, r) grid
            r_scale = math.sqrt(40.0 / c.min()) if c.min() > 1e-12 else 40.0
            rn, wn, tn = _dual_scale_rule(r_scale, np.minimum(r_scale, 1.0 / ccoth), b.r_order)
            pts, at = np.unique(rn * ccoth[tn], return_inverse=True)
            G = _u_table(xunit, pts, n, tau)
            # sum_{r, m} W[r, m] G[at[r], m] with W[r, m] = sum_{om, j} w_r w_t
            # e^{-c r^2 + i gamma r} r^j P[om, j, m], in blocks of (t, r) nodes
            step = osc_items(len(P) + P[0].size)
            for lo in range(0, rn.size, step):
                blk = slice(lo, lo + step)
                r = rn[blk, None]
                prof = (wn[blk] * t_w[tn[blk]])[:, None] * np.exp(-c * r ** 2 + 1j * gamma * r)
                X = np.einsum("rk,kjm->rjm", prof, P)
                total += np.einsum("rj,rjm,rm->", r ** np.arange(P.shape[1]), X, G[at[blk]])
        return pref_out * total

    return _estimated(value_with, budget, budget.doubled_light(), with_error)


# ------------------------------------------------------- n = 2 counterexample

def pseudo_pair_n2(G: GroupStructure, phi, budget: PairBudget | None = None):
    """(LHS, RHS) of the displayed identity for the candidate kernel at n = 2:

    LHS = Ktilde(Delta phi) with Ktilde the -(2 pi)^{-(2+s/2)} (P - i0)^{-1}
    pairing applied theta-wise; RHS = phi(0) + (2 pi)^{-s/2}
    integral (|theta|^2/4) [F phi](0, theta) dtheta.
    """
    from .kernels import inv_p_power

    n = G.sig.n
    if n != 2 or G.sig.r != 0:
        raise UnsupportedN("the counterexample identity is stated for n = 2, r = 0")
    s = G.sig.s
    budget = budget or PairBudget()
    d = 2 * n + s
    theta_axes = list(range(2 * n, d))

    dphi = G.apply_delta_rs(phi)
    fdphi = dphi.fourier()
    terms = as_terms(fdphi)

    r_max = _theta_envelope(terms, theta_axes)
    edges = geometric_edges(0.0, r_max, 6, 8)
    radial, wr = composite_legendre(edges, budget.radial_order)
    sphere, ws = sphere_rule(s, budget.sphere_pts)
    nodes = _center_nodes(radial, sphere)
    node_w = (ws[:, None] * (wr * radial ** (s - 1))[None, :]).ravel()

    lhs = 0.0 + 0.0j
    for term in terms:
        lhs += np.sum(node_w * inv_p_power(term.restrict(theta_axes, nodes), n))
    lhs *= -(2.0 * math.pi) ** (-(2 + s / 2.0))

    fphi = phi.fourier()
    r2 = np.sum(nodes ** 2, axis=1)
    fvals = fphi.evaluate_many(np.concatenate([np.zeros((len(nodes), 2 * n)), nodes], axis=1))
    rhs = phi.evaluate(np.zeros(d)) \
        + np.sum(node_w * (r2 / 4.0) * fvals) * (2.0 * math.pi) ** (-s / 2.0)
    return lhs, rhs
