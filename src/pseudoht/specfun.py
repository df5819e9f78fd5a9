"""Gamma (half-integer and complex), Bessel J/Y and Struve H at orders nu = (n-1)/2.

Everything is evaluated from the Poisson-type integral representations

    J_nu(v) = c(nu, v) int_0^1 (1-rho^2)^{nu-1/2} cos(v rho) drho
    H_nu(v) = c(nu, v) int_0^1 (1-rho^2)^{nu-1/2} sin(v rho) drho
    c(nu, v) = 2 (v/2)^nu / (sqrt(pi) Gamma(nu + 1/2))

(valid for nu > -1/2, so the order nu = 0 is covered as well) and

    H_nu(v) - Y_nu(v) = c(nu, v) int_0^infty e^{-v rho} (1 + rho^2)^{nu-1/2} drho

for v > 0.  The oscillatory integrals use Gauss-Jacobi rules with the
(1-rho)^{nu-1/2} endpoint weight built in; node counts double until two
refinements agree to 1e-12, up to 16,384 nodes, and NotConverged is raised
otherwise.  The Laplace integral is evaluated after the substitution
rho = sinh(theta), which makes the tail doubly exponential.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import NonPositiveArgument
from .quadrature import composite_legendre, converged, half_disc_rule, refine_many, refine_until

_BESSEL_TOL = 1e-12
# Stirling's B_2k / (2k (2k - 1)), k = 9..1; from |z| >= 10 the next term is < 2e-18
_STIRLING = (43867 / 244188, -3617 / 122400, 1 / 156, -691 / 360360, 1 / 1188, -1 / 1680,
             1 / 1260, -1 / 360, 1 / 12)


def gamma_half(x: float) -> float:
    """Gamma(x) for x in {1/2, 1, 3/2, 2, ...} by the exact recurrence."""
    two_x = round(2 * x)
    if abs(2 * x - two_x) > 1e-12 or two_x <= 0:
        raise NonPositiveArgument(f"need a positive half-integer, got {x}")
    if two_x % 2 == 0:
        return float(math.factorial(two_x // 2 - 1))
    val = math.sqrt(math.pi)
    k = 1
    while k <= two_x - 2:
        val *= k / 2.0
        k += 2
    return val


def gamma(z: complex) -> complex:
    """Gamma(z), Re z > 0: Stirling's series for Gamma(z + m), |z + m| >= 10, divided by
    z (z+1) ... (z+m-1); within 7e-15 of mpmath for Re z <= 10, |Im z| <= 3."""
    z, shift = complex(z), 1.0
    if z.real <= 0:
        raise NonPositiveArgument(f"need Re z > 0, got {z}")
    while abs(z) < 10.0:
        shift, z = shift * z, z + 1
    # (z - 1/2)(log z - 1) rounds less than (z - 1/2) log z - z
    return complex(np.exp((z - 0.5) * (np.log(z) - 1) + 0.5 * math.log(2 * math.pi / math.e)
                          + np.polyval(_STIRLING, 1 / (z * z)) / z) / shift)


def osc_weight_integral(n: int, v):
    """int_0^1 (1-rho^2)^{(n-2)/2} e^{i v rho} drho for scalar or array v.

    This is the rho-form shared by the kernel family and by J + iH at order
    (n-1)/2; the weight exponent alpha = (n-2)/2 may be -1/2 (n = 1).  Each
    element of an array v refines to its own stopping order; the error
    returned is the worst element's (inf if one did not converge).
    """
    v_arr = np.atleast_1d(np.asarray(v, float))
    alpha = (n - 2) / 2.0

    def eval_with(npts: int, idx: np.ndarray):
        rho, w = half_disc_rule(npts, alpha)
        return np.exp(1j * np.outer(v_arr[idx], rho)) @ w

    # oscillation needs roughly |v| / pi nodes before superalgebraic decay
    start = int(max(24, np.max(np.abs(v_arr)) / 2.5))
    out, errs, _ = refine_many(eval_with, start, _BESSEL_TOL, v_arr.size)
    err = float(errs.max())
    return (complex(out[0]), err) if np.ndim(v) == 0 else (out, err)


def _order_n(nu: float) -> int:
    n = round(2 * nu + 1)
    if abs(2 * nu + 1 - n) > 1e-12 or n < 1:
        raise NonPositiveArgument(f"order must be a nonnegative half-integer, got nu={nu}")
    return n


def _poisson_prefactor(nu: float, v: float) -> float:
    return 2.0 * (abs(v) / 2.0) ** nu / (math.sqrt(math.pi) * gamma_half(nu + 0.5))


def jh_combo(n: int, v: float) -> complex:
    """J_{(n-1)/2}(v) + i H_{(n-1)/2}(v) via the shared rho-integral.

    With J extended evenly and H oddly to v < 0 (the parity of the integral
    representation itself), jh_combo(n, -v) = conj(jh_combo(n, v)).

    Raises NotConverged when no two successive rho-rules agree to 1e-12.  The
    rules double from max(24, |v| / 2.5) nodes up to 16,384, so every |v|
    above 20,480 raises at once: its first rule has more than 8,192 nodes and
    cannot be doubled.  Below that the doubling can stall too; measured: n = 1
    at v = 300, n = 3 at v = 15,000 and n = 2 at v = 20,000.
    """
    nu = (n - 1) / 2.0
    _order_n(nu)
    if v == 0.0:
        return complex(nu == 0)  # J_0(0) = 1; J_nu(0) = H_nu(0) = 0 otherwise
    val = converged(*osc_weight_integral(n, abs(v)), "J + iH at n = %d, v = %g", n, v)
    out = _poisson_prefactor(nu, v) * val
    return out.conjugate() if v < 0 else out


def bessel_j(nu: float, v: float) -> float:
    """J_nu(v) for half-integer nu >= 0, real v; raises NotConverged where
    `jh_combo` does (every |v| > 20,480)."""
    return jh_combo(_order_n(nu), v).real


def struve_h(nu: float, v: float) -> float:
    """Struve H_nu(v) for half-integer nu >= 0, real v (odd continuation);
    raises NotConverged where `jh_combo` does (every |v| > 20,480)."""
    return jh_combo(_order_n(nu), v).imag


def _laplace_tail(nu: float, v: float) -> float:
    """int_0^infty e^{-v rho} (1+rho^2)^{nu-1/2} drho via rho = sinh(theta)."""
    # integrand e^{-v sinh(theta)} cosh(theta)^{2 nu}; cut where v sinh > 745
    theta_max = math.asinh(745.0 / v)

    def eval_with(npts: int) -> float:
        edges = np.linspace(0.0, theta_max, 9)
        th, w = composite_legendre(edges, npts)
        f = np.exp(-v * np.sinh(th)) * np.cosh(th) ** (2 * nu)
        return float(w @ f)

    return converged(*refine_until(eval_with, 16, _BESSEL_TOL)[:2],
                     "the Laplace integral of Y at nu = %g, v = %g", nu, v)


def bessel_y(nu: float, v: float) -> float:
    """Y_nu(v) = H_nu(v) - prefactor * Laplace integral, v > 0.

    Raises NotConverged where `struve_h` does (every v > 20,480) or when the
    Laplace integral's refinement does not converge.
    """
    if v <= 0.0:
        raise NonPositiveArgument("Y_nu has a pole at 0 and is real for v > 0 only")
    return struve_h(nu, v) - _poisson_prefactor(nu, v) * _laplace_tail(nu, v)


def specfun_table(nu: float, v_values) -> list:
    """Rows (v, J_nu, Y_nu, H_nu) for the CLI CSV output: one rho-integral per
    row gives J and H, and Y = H - prefactor * Laplace integral."""
    n = _order_n(nu)
    rows = []
    for v in v_values:
        jh = jh_combo(n, v)
        y = jh.imag - _poisson_prefactor(nu, v) * _laplace_tail(nu, v) if v > 0 \
            else float("nan")
        rows.append((float(v), jh.real, y, jh.imag))
    return rows
