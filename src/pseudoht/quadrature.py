"""Cached quadrature rules and refinement drivers.

Every rule used in the package comes from here so that node budgets are
explicit and reproducible.  Rules are cached by (kind, order, parameters);
the refinement drivers double the order until two successive evaluations
agree to the requested tolerance and report both the value and the last
difference as an error estimate, for one quadrature (`refine_until`) or for
many independent ones at once (`refine_many`).

Gauss-Legendre rules are built here in NumPy: Newton's method on P_n, with
P_n and P_n' from the three-term recurrence, from Tricomi's initial guesses
(Hale and Townsend, SIAM J. Sci. Comput. 35 (2013) A652).  This takes O(n)
memory and O(n^2) time, reaches every node to rounding, and gives weights
more accurate than SciPy's (tests/test_quadrature.py).  Gauss-Hermite rules
are built in NumPy too: nodes from the eigenvalues of the Jacobi matrix
(Golub and Welsch, Math. Comp. 23 (1969) 221), polished by Newton on the
orthonormal recurrence.  pair_k's rho-rule at n = 2 has the unit weight, so
it is Gauss-Legendre on [0, 1].  The Legendre and Hermite passes (the
witness's eta-grid, every composite and sphere rule, the second form, pair_k
at n = 2, pair_mr_heisenberg and pseudo_pair_n2) therefore never import
`scipy.linalg`, which SciPy's `roots_*` functions load on their first call
(about 0.05 s per process).

The Jacobi rules (half_disc_rule for every alpha, hence every rho-integral of
specfun and gbar_residual) and the generalized Laguerre rules (p_i0_power)
still come from SciPy.  Both feed rho-integral values that the benchmark's
drift gate holds to 1e-12 relative against references recorded with SciPy's
rules, and SciPy's Jacobi weights carry relative errors up to 4e-10 for
n = 128-248 (against mpmath): even the Legendre rule in place of
half_disc_rule(., 0) moves n = 2 gbar values past that gate.  So more
accurate Jacobi and Laguerre rules belong with a change that records those
references again.
"""
from __future__ import annotations

from functools import lru_cache, reduce

import numpy as np
from scipy.special import roots_genlaguerre, roots_jacobi

from .errors import NotConverged, UnsupportedN


# Newton steps before a rule raises NotConverged: from Tricomi's guesses
# Legendre needs at most 4 for n <= 400 and n = 16384, and Hermite from its
# eigenvalue seeds at most 2 for n <= 700
_NEWTON_STEPS = 10


def _order(npts, kind: str) -> int:
    n = int(npts)
    if n < 1 or n != npts:
        raise ValueError(f"{kind} order must be a positive integer, got {npts!r}")
    return n


def _legendre_and_derivative(n: int, x: np.ndarray):
    """(P_n(x), P_n'(x)) by the three-term recurrence, for |x| < 1."""
    p_prev, p = np.ones_like(x), x
    for k in range(2, n + 1):
        p_prev, p = p, ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
    return p, n * (p_prev - x * p) / ((1.0 - x) * (1.0 + x))


@lru_cache(maxsize=256)
def legendre_rule(npts: int):
    """Gauss-Legendre nodes (ascending) and weights for integral_{-1}^{1} f(x) dx.

    Newton on P_n over the nonnegative nodes, P_n' = n (P_{n-1} - x P_n) /
    (1 - x^2), weights 2 / ((1 - x^2) P_n'^2); the rule is mirrored, so it is
    exactly symmetric and the middle node of an odd rule is exactly 0.
    """
    n = _order(npts, "Gauss-Legendre")
    half = (n + 1) // 2
    theta = np.pi * (4 * np.arange(1, half + 1) - 1) / (4 * n + 2)
    x = (1.0 - (n - 1) / (8.0 * n ** 3)) * np.cos(theta)
    if n % 2:
        x[-1] = 0.0  # P_n(0) = 0 exactly in the recurrence, so it stays 0
    for _ in range(_NEWTON_STEPS):
        p, dp = _legendre_and_derivative(n, x)
        dx = p / dp
        x = x - dx
        if np.max(np.abs(dx)) <= 4 * np.finfo(float).eps:
            break
    else:
        raise NotConverged(f"Gauss-Legendre nodes of order {n} did not converge")
    # weights at the final nodes: taken at the nodes before the last step
    # (at most 4 eps away) they are 1.3e-11 off at n = 256, against 1.9e-13
    _, dp = _legendre_and_derivative(n, x)
    w = 2.0 / ((1.0 - x) * (1.0 + x) * dp ** 2)
    odd = n % 2
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
    x, w = roots_jacobi(npts, alpha, 0.0)
    return x, w


@lru_cache(maxsize=256)
def genlaguerre_rule(npts: int, alpha: float):
    """Nodes/weights for integral_0^inf x^alpha e^{-x} f(x) dx."""
    x, w = roots_genlaguerre(npts, alpha)
    return x, w


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
