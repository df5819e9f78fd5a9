"""Cached quadrature rules and refinement drivers.

Every rule used in the package comes from here so that node budgets are
explicit and reproducible.  Rules are cached by (kind, order, parameters);
the refinement drivers double the order until two successive evaluations
agree to the requested tolerance and report both the value and the last
difference as an error estimate, for one quadrature (`refine_until`) or for
many independent ones at once (`refine_many`).
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy.special import roots_genlaguerre, roots_hermite, roots_jacobi, roots_legendre

from .errors import UnsupportedN


@lru_cache(maxsize=256)
def legendre_rule(npts: int):
    x, w = roots_legendre(npts)
    return x, w


@lru_cache(maxsize=256)
def hermite_rule(npts: int):
    """Physicists' Gauss-Hermite: integral f(x) e^{-x^2} dx = sum w f(x)."""
    x, w = roots_hermite(npts)
    return x, w


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


def legendre_panel(a: float, b: float, npts: int):
    x, w = legendre_rule(npts)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return mid + half * x, half * w


def composite_legendre(edges, npts: int):
    """Composite Gauss-Legendre over consecutive panel edges."""
    xs, ws = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        x, w = legendre_panel(a, b, npts)
        xs.append(x)
        ws.append(w)
    return np.concatenate(xs), np.concatenate(ws)


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
    pts = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=1)
    if weights is None:
        return pts
    wgrids = np.meshgrid(*weights, indexing="ij")
    return pts, np.prod(np.stack([g.ravel() for g in wgrids], axis=1), axis=1)


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
    order it would reach alone.  Returns (values, est_errors, orders) arrays.
    """
    idx = np.arange(count)
    order = start
    prev = np.asarray(evaluate(order, idx))
    done_parts = []
    while order < max_order and idx.size:
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
    is inf when max_order is reached first.  This is the one-element case of
    `refine_many`.
    """
    values, errs, orders = refine_many(lambda order, idx: [evaluate(order)],
                                       start, tol, 1, max_order)
    return values[0].item(), float(errs[0]), int(orders[0])
