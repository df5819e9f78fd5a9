"""Cached quadrature rules and refinement drivers.

Every rule used in the package comes from here so that node budgets are
explicit and reproducible.  Rules are cached by (kind, order, parameters);
the refinement driver doubles the order until two successive evaluations
agree to the requested tolerance and reports both the value and the last
difference as an error estimate.
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
    """Quadrature for the surface measure on S^{s-1}, s in {1, 2}.

    s = 1 is the two-point counting measure; s = 2 the spectral trapezoid.
    """
    if s == 1:
        return np.array([[1.0], [-1.0]]), np.array([1.0, 1.0])
    if s == 2:
        return circle_rule(npts)
    raise UnsupportedN(f"sphere quadrature implemented for s in (1, 2), got s={s}")


def refine_until(evaluate, start: int, tol: float, max_order: int = 1 << 14):
    """Double the order of `evaluate(order)` until successive values agree.

    Returns (value, est_error, order).  The error estimate is the modulus of
    the last successive difference, measured relative to max(|value|, 1).
    """
    order = start
    prev = evaluate(order)
    while order < max_order:
        order *= 2
        cur = evaluate(order)
        diff = abs(cur - prev)
        scale = max(abs(cur), 1.0)
        if diff <= tol * scale:
            return cur, diff, order
        prev = cur
    return prev, abs(prev) * np.inf if np.isnan(prev) else np.inf, order
