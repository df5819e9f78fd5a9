"""Cached quadrature rules and refinement drivers.

Every rule used in the package comes from here so that node budgets are
explicit and reproducible.  Rules are cached by (kind, order, parameters);
the refinement drivers double the order until two successive evaluations
agree to the requested tolerance and report both the value and the last
difference as an error estimate, for one quadrature (`refine_until`) or for
many independent ones at once (`refine_many`).

Gauss-Legendre rules are built here in NumPy: Newton's method in theta
(x = cos theta) on P_n(cos theta), in O(n) time and memory, from the
initial guesses of Hale and Townsend (SIAM J. Sci. Comput. 35 (2013) A652):
Tricomi's expansion through its n^-4 term in the interior, and near each
end Olver's expansion in the zeros j_k of J_0,
theta_k = psi + (psi cot psi - 1) / (8 psi nu^2), psi = j_k / nu,
nu = n + 1/2.  From these seeds one Newton step lands within 4 eps for
every n from 21 up (checked to n = 32768), so a build evaluates P_n twice,
the second time to confirm the step and to give the weights; below n = 21
it takes at most three evaluations.  P_n and its theta-derivative come from two
formulas: the exact finite cosine series of P_n at the 12 to 14 nodes per
half nearest each end (n sin theta < 40, the nodes seeded by Olver's
expansion), and Stieltjes' asymptotic expansion at the others.  Every node is within
1 ulp and every weight within 2e-14 relative of 40-digit values up to
n = 2048 (tests/test_quadrature.py); SciPy's weights are up to 3.4e-12 off
for n <= 64.  Gauss-Hermite rules
are built in NumPy too: nodes from the eigenvalues of the Jacobi matrix
(Golub and Welsch, Math. Comp. 23 (1969) 221), polished by Newton on the
orthonormal recurrence.  pair_k's rho-rule at n = 2 has the unit weight, so
it is Gauss-Legendre on [0, 1].  The Legendre and Hermite passes (the
witness's eta-grid, every composite and sphere rule, the second form, pair_k
at n = 2, pair_mr_heisenberg and pseudo_pair_n2) therefore never import
`scipy.linalg`, which SciPy's `roots_*` functions load on their first call
(about 0.05 s per process).

The Jacobi rules (half_disc_rule for every alpha, hence every rho-integral of
specfun and gbar_residual) still come from SciPy: the benchmark's drift gate
holds their rho-integrals to 1e-12 relative against references recorded with
SciPy's rules, and SciPy's Jacobi weights carry relative errors up to 4e-10
for n = 128-248 (against mpmath), so even the Legendre rule in place of
half_disc_rule(., 0) moves n = 2 gbar values past that gate.  A more accurate
Jacobi rule belongs with a change that records those references again.  The
Laguerre rule has no library caller; the benchmark's tracer wraps it by name.
"""
from __future__ import annotations

from functools import lru_cache, reduce

import numpy as np

from .errors import NotConverged, UnsupportedN


# Newton steps before a rule raises NotConverged: from its seeds Legendre
# needs one for 21 <= n <= 32768 and at most two below, and Hermite from its
# eigenvalue seeds at most 2 for n <= 700
_NEWTON_STEPS = 10
# Legendre's Stieltjes expansion: terms kept, and the least n sin(theta) at
# which it is used instead of the finite cosine series
_STIELTJES_TERMS = 16
_STIELTJES_MIN = 40.0


def _order(npts, kind: str) -> int:
    n = int(npts)
    if n < 1 or n != npts:
        raise ValueError(f"{kind} order must be a positive integer, got {npts!r}")
    return n


def _legendre_theta(n: int, end: np.ndarray):
    """theta -> (P_n(cos theta), dP_n/dtheta) for 0 < theta <= pi/2, O(n) per call.

    At the entries where `end` is set it sums the exact finite cosine series
        P_n(cos theta) = sum_l g_l g_{n-l} cos((n - 2l) theta),
    g_0 = 1, g_l = g_{l-1} (l - 1/2) / l, folded at l = n/2 since its terms
    are symmetric in l <-> n - l.  At the others it sums Stieltjes' expansion
    (Szego, Orthogonal Polynomials, section 8.21) over _STIELTJES_TERMS terms,
        P_n(cos theta) = C_n sum_m h_m cos(alpha_m) / (2 sin theta)^{m + 1/2},
    alpha_m = (n + m + 1/2) theta - (m + 1/2) pi/2, h_0 = 1,
    h_{m+1} = h_m (m + 1/2)^2 / ((m + 1)(n + m + 3/2)), and
    C_n = (4/pi) prod_{j<=n} j / (j + 1/2); dP/dtheta is its term-by-term
    derivative.  Where n sin(theta) >= _STIELTJES_MIN each term is below
    (m + 1/2) / 80 times the one before it, so the terms left out are below
    about 1e-18 of the first.
    """
    j, l = np.arange(1, n + 1), np.arange(n // 2 + 1)
    g = np.cumprod(np.r_[1.0, (j - 0.5) / j])
    cos_coef = g[l] * g[n - l] * np.where(2 * l < n, 2.0, 1.0)
    k = n - 2 * l
    sin_coef = -cos_coef * k
    mid = ~end
    if mid.any():
        r = np.arange(_STIELTJES_TERMS - 1)
        h = np.cumprod(np.r_[1.0, (r + 0.5) ** 2 / ((r + 1) * (n + r + 1.5))])
        m = np.arange(_STIELTJES_TERMS)[:, None]
        # C_n as the exp of a sum of log1p: within 5e-16 up to n = 16384,
        # where the running product of the j / (j + 1/2) drifts to 9e-15 at
        # n = 8192 and lgamma(n + 1) - lgamma(n + 3/2) cancels to 1e-12 at
        # n = 1024
        amp0 = 4.0 / np.pi * np.exp(np.sum(np.log1p(-1.0 / (2 * j + 1)))) * h[:, None]
        bits = 52 - (2 * n + 1).bit_length()  # so (2n + 1) th_hi 2^bits < 2^53

    def evaluate(theta: np.ndarray):
        p, dp = np.empty_like(theta), np.empty_like(theta)
        arg = np.multiply.outer(k, theta[end])
        p[end], dp[end] = cos_coef @ np.cos(arg), sin_coef @ np.sin(arg)
        if not mid.any():
            return p, dp
        th = theta[mid]
        # alpha_m = (n + 1/2) th_hi + beta_m with th_hi = th to `bits` bits,
        # so that (n + 1/2) th_hi is exact: rounding the product (n + 1/2) th
        # would move the nodes near x = 1/2 by up to 1 ulp of 1
        th_hi = np.round(th * 2.0 ** bits) / 2.0 ** bits
        lead = (n + 0.5) * th_hi
        beta = (n + 0.5) * (th - th_hi) + m * th - (m + 0.5) * (np.pi / 2)
        cos_l, sin_l, cos_b, sin_b = np.cos(lead), np.sin(lead), np.cos(beta), np.sin(beta)
        cos_a, sin_a = cos_l * cos_b - sin_l * sin_b, sin_l * cos_b + cos_l * sin_b
        sin_t = np.sin(th)
        amp = amp0 * (2 * sin_t) ** -(m + 0.5)
        p[mid] = np.sum(amp * cos_a, axis=0)
        dp[mid] = -np.sum(amp * ((n + m + 0.5) * sin_a + (m + 0.5) * (np.cos(th) / sin_t) * cos_a),
                          axis=0)
        return p, dp

    return evaluate


def _bessel_j0_zeros(count: int) -> np.ndarray:
    """The first `count` positive zeros of J_0: McMahon's expansion (DLMF
    10.21.19) through (8 a)^-7, a = (k - 1/4) pi, within 9e-9 relative from
    the third zero on; the first two, where it is 1e-3 and 6e-7 off, to 16
    digits."""
    a = (np.arange(1, count + 1) - 0.25) * np.pi
    b = 8.0 * a
    j = a + 1 / b - 124 / (3 * b ** 3) + 120928 / (15 * b ** 5) - 401743168 / (105 * b ** 7)
    return np.r_[2.404825557695773, 5.520078110286311, j[2:]][:count]


@lru_cache(maxsize=256)
def legendre_rule(npts: int):
    """Gauss-Legendre nodes (ascending) and weights for integral_{-1}^{1} f(x) dx.

    Newton in theta (x = cos theta) on P_n(cos theta) over the nonnegative
    nodes, in O(n) time, seeded by Tricomi's expansion through n^-4 and, at
    the 12 to 14 nodes per half with n sin(theta) < 40, by Olver's
    Bessel-zero expansion; those nodes use the exact finite cosine series of
    P_n, the rest Stieltjes' asymptotic expansion (`_legendre_theta`).  From
    n = 21 up a build evaluates them twice (module docstring).  The
    last Newton correction is applied in x, x = cos(theta) + dtheta
    sin(theta), and the weights are 2 / (dP_n/dtheta)^2 at the node; the rule
    is mirrored, so it is exactly symmetric and the middle node of an odd
    rule is exactly 0.
    """
    n = _order(npts, "Gauss-Legendre")
    half, nu = (n + 1) // 2, n + 0.5
    phi = np.pi * (4 * np.arange(1, half + 1) - 1) / (4 * n + 2)
    theta = np.arccos((1.0 - (n - 1) / (8.0 * n ** 3)
                       - (39.0 - 28.0 / np.sin(phi) ** 2) / (384.0 * n ** 4)) * np.cos(phi))
    end = n * np.sin(theta) < _STIELTJES_MIN
    psi = _bessel_j0_zeros(np.count_nonzero(end)) / nu
    theta[end] = psi + (psi / np.tan(psi) - 1.0) / (8.0 * psi * nu ** 2)
    odd = n % 2
    if odd:
        theta[-1] = np.pi / 2  # the node x = 0, set exactly below
    evaluate = _legendre_theta(n, end)
    for _ in range(_NEWTON_STEPS):
        p, dp = evaluate(theta)
        step = p / dp
        if np.max(np.abs(step)) <= 4 * np.finfo(float).eps:
            break
        theta = theta - step
    else:
        raise NotConverged(f"Gauss-Legendre nodes of order {n} did not converge")
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    x = cos_t + step * sin_t
    if odd:
        x[-1] = 0.0
    # dP/dtheta moved to the node theta - step: the Legendre equation gives
    # d^2P/dtheta^2 = -cot(theta) dP/dtheta there (P = 0); without it the end
    # weight of n = 4096 is 1.6e-12 off
    w = 2.0 / (dp * (1.0 + step * cos_t / sin_t)) ** 2
    return np.concatenate([0.0 - x, x[::-1][odd:]]), np.concatenate([w, w[::-1][odd:]])


def _hermite_functions(n: int, x: np.ndarray):
    """(psi_n(x), psi_{n-1}(x)) for the orthonormal Hermite functions
    psi_k = h_k e^{-x^2/2}, by the three-term recurrence of the h_k."""
    psi_prev, psi = np.zeros_like(x), np.exp(-0.5 * x * x) / np.pi ** 0.25
    for k in range(n):
        psi_prev, psi = psi, np.sqrt(2.0 / (k + 1)) * x * psi - np.sqrt(k / (k + 1)) * psi_prev
    return psi, psi_prev


@lru_cache(maxsize=256)
def hermite_rule(npts: int):
    """Physicists' Gauss-Hermite: integral f(x) e^{-x^2} dx = sum w f(x).

    Nodes seeded by the eigenvalues of the Jacobi matrix (Golub-Welsch),
    polished by Newton on h_n, h_n' = sqrt(2n) h_{n-1}; weights 1 / (n h_{n-1}^2).
    The h_k carry e^{-x^2/2} (Hermite functions) so that they neither
    overflow nor underflow below order about 700 (above it the rule raises
    NotConverged); the rule is mirrored, so it is exactly symmetric and the
    middle node of an odd rule is exactly 0.
    """
    n = _order(npts, "Gauss-Hermite")
    off = np.sqrt(np.arange(1, n) / 2.0)
    x = np.linalg.eigvalsh(np.diag(off, 1) + np.diag(off, -1))[n // 2:]
    if n % 2:
        x[0] = 0.0  # h_n(0) = 0 exactly in the recurrence, so it stays 0
    for _ in range(_NEWTON_STEPS):
        psi, psi_prev = _hermite_functions(n, x)
        dx = psi / (np.sqrt(2.0 * n) * psi_prev)
        x = x - dx
        if np.max(np.abs(dx) / np.maximum(1.0, x)) <= 4 * np.finfo(float).eps:
            break
    else:
        raise NotConverged(f"Gauss-Hermite nodes of order {n} did not converge")
    _, psi_prev = _hermite_functions(n, x)
    w = np.exp(-x * x) / (n * psi_prev ** 2)
    odd = n % 2
    return np.concatenate([0.0 - x[::-1], x[odd:]]), np.concatenate([w[::-1], w[odd:]])


@lru_cache(maxsize=512)
def jacobi_rule(npts: int, alpha: float):
    """Nodes/weights for integral_{-1}^{1} (1-x)^alpha f(x) dx."""
    from scipy.special import roots_jacobi   # here, not at import: 0.1 s per process
    return roots_jacobi(npts, alpha, 0.0)


@lru_cache(maxsize=256)
def genlaguerre_rule(npts: int, alpha: float):
    """Nodes/weights for int_0^inf x^alpha e^{-x} f(x) dx; kept for perfbench's tracer."""
    from scipy.special import roots_genlaguerre
    return roots_genlaguerre(npts, alpha)


@lru_cache(maxsize=512)
def half_disc_rule(npts: int, alpha: float):
    """Nodes/weights for integral_0^1 (1-rho^2)^alpha f(rho) drho.

    Splits the weight as (1-rho)^alpha * (1+rho)^alpha and folds the smooth
    (1+rho)^alpha part into the weights of a (alpha, 0) Jacobi rule mapped to
    [0, 1].  Exact for the endpoint singularity at rho = 1 when alpha < 0.
    """
    x, w = jacobi_rule(npts, alpha)
    rho = (1.0 + x) / 2.0
    # dx = 2 drho and (1-x)^alpha = (2(1-rho))^alpha
    wt = w * (1.0 + rho) ** alpha / 2.0 ** alpha / 2.0
    return rho, wt


def composite_legendre(edges, npts: int):
    """Composite Gauss-Legendre over consecutive panel edges, panel by panel."""
    x, w = legendre_rule(npts)
    edges = np.asarray(edges, float)
    a, b = edges[:-1, None], edges[1:, None]
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return (mid + half * x).ravel(), (half * w).ravel()


@lru_cache(maxsize=64)
def sine_map_rule(npts: int):
    """Nodes/weights for integral_0^1 f(rho) drho by rho = sin(u): composite
    Gauss-Legendre in u on [0, pi/2], panels geometric toward u = 0; the
    weights carry cos(u), which cancels a (1 - rho^2)^{-1/2} end singularity."""
    edges = np.concatenate([[0.0], np.geomspace(1e-4, 1.0, 10)]) * np.pi / 2
    u, w = composite_legendre(edges, npts)
    return np.sin(u), w * np.cos(u)


def geometric_edges(r_min: float, r_max: float, n_geo: int, n_lin: int):
    """Panel edges refined geometrically near 0, linear after r0 = 2^{-n_geo} r_max."""
    r0 = r_max * 0.5 ** n_geo
    geo = [r_min] + [r0 * 2.0 ** k for k in range(n_geo)]
    lin = np.linspace(geo[-1], r_max, n_lin + 1)[1:]
    return np.array(geo + list(lin))


def tensor_rule(axes, weights=None):
    """Tensor-product grid of 1-D node arrays, first axis slowest.

    Returns the (N, d) point array; with per-axis `weights` also the (N,)
    product weights, as (points, weights).
    """
    d = len(axes)
    pts = np.empty(tuple(len(a) for a in axes) + (d,))
    for k, a in enumerate(axes):
        pts[..., k] = np.reshape(a, (-1,) + (1,) * (d - 1 - k))
    pts = pts.reshape(-1, d)
    if weights is None:
        return pts
    # ((w_1 w_2) w_3) ... by outer products; np.prod over the (N, d) grid's
    # rows gives the same numbers at several times the cost
    return pts, reduce(np.multiply.outer, weights).ravel()


def circle_rule(npts: int):
    """Trapezoid nodes/weights on the unit circle against the arclength measure."""
    ang = np.linspace(0.0, 2.0 * np.pi, npts, endpoint=False)
    pts = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    w = np.full(npts, 2.0 * np.pi / npts)
    return pts, w


def sphere_rule(s: int, npts: int):
    """Quadrature for the surface measure on S^{s-1}, s in {1, 2, 3}.

    s = 1 is the two-point counting measure; s = 2 the spectral trapezoid;
    s = 3 the product of npts // 2 Gauss-Legendre nodes in cos(theta) with
    npts trapezoid nodes in the azimuth.
    """
    if s == 1:
        return np.array([[1.0], [-1.0]]), np.array([1.0, 1.0])
    if s == 2:
        return circle_rule(npts)
    if s == 3:
        ct, wt = legendre_rule(max(1, npts // 2))
        circ, wc = circle_rule(npts)
        st = np.sqrt(1.0 - ct ** 2)
        pts = np.concatenate([st[:, None, None] * circ[None, :, :],
                              np.broadcast_to(ct[:, None, None], (ct.size, npts, 1))], axis=2)
        return pts.reshape(-1, 3), np.outer(wt, wc).ravel()
    raise UnsupportedN(f"sphere quadrature implemented for s in (1, 2, 3), got s={s}")


def refine_many(evaluate, start: int, tol: float, count: int, max_order: int = 1 << 14):
    """`refine_until` for `count` independent quadratures at once.

    evaluate(order, idx) returns the values of the quadratures listed in the
    index array idx at that order.  Each one doubles its order until two
    successive values agree and then drops out, so every element stops at the
    order it would reach alone.  No order above max_order is evaluated: the
    doubling stops at the last order that does not exceed it (a start above
    max_order is lowered to it).  Returns (values, est_errors, orders) arrays.
    """
    idx = np.arange(count)
    order = min(start, max_order)
    prev = np.asarray(evaluate(order, idx))
    done_parts = []
    while 2 * order <= max_order and idx.size:
        order *= 2
        cur = np.asarray(evaluate(order, idx))
        diff = np.abs(cur - prev)
        done = diff <= tol * np.maximum(np.abs(cur), 1.0)
        if done.all():
            done_parts.append((idx, cur, diff, order))
            idx = idx[:0]
        elif done.any():
            done_parts.append((idx[done], cur[done], diff[done], order))
            idx, prev = idx[~done], cur[~done]
        else:
            prev = cur
    if idx.size:
        # not converged: the last value, err = inf (nan when the value is nan)
        done_parts.append((idx, prev, np.where(np.isnan(prev), np.nan, np.inf), order))
    values = np.empty(count, dtype=np.result_type(*(p[1] for p in done_parts)))
    errs = np.empty(count)
    orders = np.empty(count, dtype=int)
    for hit, val, err, at in done_parts:
        values[hit], errs[hit], orders[hit] = val, err, at
    return values, errs, orders


def converged(value, err, what: str, *args):
    """value, or NotConverged (what % args) if its refinement ended with err inf or nan."""
    if not (err < np.inf if isinstance(err, float) else np.all(err < np.inf)):
        raise NotConverged(f"{what % args} did not converge")
    return value


def refine_until(evaluate, start: int, tol: float, max_order: int = 1 << 14):
    """Double the order of `evaluate(order)` until successive values agree.

    Returns (value, est_error, order).  The error estimate is the modulus of
    the last successive difference, measured relative to max(|value|, 1); it
    is inf when the next doubling would exceed max_order first.  This is the
    one-element case of `refine_many`.
    """
    values, errs, orders = refine_many(lambda order, idx: [evaluate(order)],
                                       start, tol, 1, max_order)
    return values[0].item(), float(errs[0]), int(orders[0])
