"""Explicit kernels and distributions of the fundamental-solution family.

Contents: the heat-kernel coefficients kappa and W, the Fourier-side
kernels q and q^{lam,mu} with their Bessel/Struve closed form, the constancy
check of the conjugated operator applied to q, the off-cone smooth kernel,
the regularized 1/P^{n-1} functional, and the one-parameter boundary-value
family attached to P^lambda.

The t-integrals over (0, infinity) are always pulled back to (0, 1) by
rho = tanh t, which turns them into Gauss-Jacobi integrals with weight
exponent (n-2)/2 (the same rho-form as the Bessel/Struve representations).
q^{lam,mu} takes one such rho-integral per value: its mu-part is the
conjugate of its lam-part.  P^lambda acts on radial test functions
g(P, S) e^{-aS} (`PSGauss`), with g in the (expo, coef) form of `gausspoly`
and the flat ultra-hyperbolic operator applied on its graded basis; at even n
its region integrals are exact Gamma moments, at real and complex lambda (odd
n raises UnsupportedN).  Tolerances no caller changes are module constants.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (DimensionMismatch, NonPositiveScale, OnConeRegion, PolePosition, ThetaZero,
                     UnsupportedN)
from .gausspoly import (
    GaussPoly,
    _contract,
    _degree,
    _graded,
    _linear_subst,
    _product,
    as_terms,
    batched_osc_integral,
    collect,
    equal_rows,
)
from .quadrature import (
    composite_legendre,
    converged,
    half_disc_rule,
    refine_many,
    refine_until,
    sine_map_rule,
)
from .specfun import gamma, gamma_half, osc_weight_integral

_OFFCONE_TOL = 1e-6                      # smooth_kernel_offcone
_INV_P_TOL = 1e-7                        # inv_p_power, both t-halves
_ORACLE_EPS = (0.1, 0.05, 0.025, 0.0125)  # inv_p_eps_oracle's Richardson ladder


# ------------------------------------------------------------ array kernels

def _offcone_accumulate(rho: np.ndarray, P: float, z2: float,
                        qj_powers: np.ndarray, qj_coeffs: np.ndarray,
                        qj_index: np.ndarray, n: int, s: int,
                        branch_sign: float) -> np.ndarray:
    """Integrand of the off-cone kernel after the rho = tanh(t) substitution.

    Returns (1-rho^2)^{(n-2)/2} (2 rho)^{-n} sum_j Q_j(lam) u^{-((s+1)/2+j)}
    with lam = i P / (4 rho) and u = z2 - P^2/(16 rho^2).  For u < 0 and even
    s the half-integer power takes the branch exp(i pi p * branch_sign).
    """
    rho = np.asarray(rho, float)
    lam = 1j * P / (4.0 * rho)
    u = z2 - P * P / (16.0 * rho * rho)
    pref = (1.0 - rho * rho) ** ((n - 2) / 2.0) / (2.0 * rho) ** n
    out = np.zeros(rho.shape, dtype=complex)
    for a, c, j in zip(qj_powers, qj_coeffs, qj_index):
        p = (s + 1) / 2.0 + j
        if s % 2 == 1:
            upow = (u + 0.0j) ** (-int(round(p)))
        else:
            upow = np.where(
                u >= 0,
                (np.abs(u) + 0.0j) ** (-p),
                np.abs(u) ** (-p) * np.exp(-1j * np.pi * p * branch_sign),
            )
        out += c * lam ** int(a) * upow
    return pref * out


# ----------------------------------------------------------- scalar helpers

def kappa(rho: float) -> float:
    """(rho/4) coth(rho/2), continuously extended by kappa(0) = 1/2."""
    if rho < 0:
        raise ValueError("kappa is used for rho >= 0")
    return 0.5 if rho < 1e-8 else float(0.25 * rho / np.tanh(0.5 * rho))


def volume_element(rho: float, n: int) -> float:
    """W(rho) = ((rho/2)/sinh(rho/2))^n with W(0) = 1, overflow-safe."""
    if rho < 0:
        raise ValueError("volume element is used for rho >= 0")
    x = 0.5 * float(rho)
    if x < 1e-8:
        return 1.0
    if x <= 30.0:
        return float((x / np.sinh(x)) ** n)
    # log form: n (log x - (x + log1p(-e^{-2x}) - log 2))
    return float(np.exp(n * (np.log(x) - x - np.log1p(-np.exp(-2 * x)) + np.log(2.0))))


# ------------------------------------------------------------ kernel family

@dataclass(frozen=True)
class KernelSelector:
    """Choice of the bounded pair (lam, mu) with lam + mu = 1.

    kind "constant": lam(theta) = lam0, mu0 = 1 - lam0.
    kind "heaviside": s = 1 only, lam = indicator of theta >= 0.
    """

    kind: str = "constant"
    lam0: complex = 1.0

    def __post_init__(self):
        if self.kind not in ("constant", "heaviside"):
            raise ValueError("selector kind must be 'constant' or 'heaviside'")

    @property
    def mu0(self) -> complex:
        return 1.0 - self.lam0

    def lam_mu(self, direction) -> tuple:
        """(lam, mu) for a center direction (unit vector in R^s)."""
        if self.kind == "constant":
            return self.lam0, self.mu0
        d = np.atleast_1d(direction)
        if d.shape != (1,):
            raise ValueError("heaviside selector is defined for s = 1 only")
        return (1.0, 0.0) if d[0] >= 0 else (0.0, 1.0)

    @staticmethod
    def constant(lam0) -> "KernelSelector":
        return KernelSelector("constant", lam0)

    @staticmethod
    def heaviside() -> "KernelSelector":
        return KernelSelector("heaviside")


def kernel_prefactor(n: int, s: int) -> complex:
    return 1j * (2.0 * math.pi) ** (-(n + s / 2.0))


def kernel_q(n: int, s: int, xi, theta) -> complex:
    """q(xi, theta) for r = 0: the (1, 0) member of the kernel family."""
    return kernel_q_lm(n, s, xi, theta, KernelSelector.constant(1.0))


def _point(n: int, s: int, xi, theta) -> tuple:
    """(P(xi), theta) for a point (xi, theta) of R^{2n} x R^s."""
    from .clifford import p_form

    xi = np.asarray(xi, float)
    theta = np.atleast_1d(np.asarray(theta, float))
    if xi.shape != (2 * n,) or theta.shape != (s,):
        raise DimensionMismatch(f"the kernel at (n, s) = ({n}, {s}) needs a point of "
                                f"R^{2 * n} x R^{s}, got lengths {xi.size} and {theta.size}")
    return p_form(xi), theta


def _q_arguments(n: int, s: int, xi, theta, sel: KernelSelector) -> tuple:
    """(r, lam, mu, P, v): |theta|, the selector at theta / r, P(xi) and v = P / r."""
    P, theta = _point(n, s, xi, theta)
    r = float(np.linalg.norm(theta))
    if r == 0.0:
        raise ThetaZero("kernel requires theta != 0")
    lam, mu = sel.lam_mu(theta / r)
    return r, lam, mu, P, P / r


def kernel_q_lm(n: int, s: int, xi, theta, sel: KernelSelector) -> complex:
    """q^{lam,mu}(xi, theta) via the rho-integral I(v) on [0, 1].

    The mu-part integrates e^{-iv rho}, whose integral is conj(I(v)) (the
    weight is real), so one rho-integral serves both parts.
    """
    r, lam, mu, _, v = _q_arguments(n, s, xi, theta, sel)
    i_v = converged(*osc_weight_integral(n, v), "the rho-integral of q at v = %g", v)
    return kernel_prefactor(n, s) / r * (lam * i_v - mu * i_v.conjugate())


def kernel_q_lm_bessel(n: int, s: int, xi, theta, sel: KernelSelector) -> complex:
    """Same kernel through the Bessel/Struve closed form (c2 = 0 family)."""
    from .specfun import jh_combo

    r, lam, mu, _, v = _q_arguments(n, s, xi, theta, sel)
    if v == 0.0:
        # fall back to the rho-integral value (the closed form has a 0/0)
        return kernel_q_lm(n, s, xi, theta, sel)
    nu = (n - 1) / 2.0
    av = abs(v)
    # lam e^{iv rho} - mu e^{-iv rho} = c1 cos(v rho) + i sin(v rho), which is
    # c1 J + i sign(v) H in terms of the absolute argument; J + iH is one
    # rho-integral
    jh = jh_combo(n, av)
    combo = (lam - mu) * jh.real + 1j * math.copysign(1.0, v) * jh.imag
    pref = 1j * math.sqrt(math.pi) * gamma_half(n / 2.0) \
        / (2.0 * (2.0 * math.pi) ** (n + s / 2.0) * r) * (2.0 / av) ** nu
    return pref * combo


def gbar_residual(n: int, s: int, xi, theta) -> complex:
    """Value of the conjugated Fourier-side operator applied to q.

    With q = a(P(xi), theta) this is -P a - n |theta|^2 a_v - |theta|^2 P a_vv
    (all v-derivatives taken under the rho-integral); the fundamental-solution
    identity says the result equals (2 pi)^{-(n + s/2)} everywhere.
    """
    r, _, _, P, v = _q_arguments(n, s, xi, theta, KernelSelector.constant(1.0))
    pref = kernel_prefactor(n, s) / r

    def eval_with(npts: int) -> complex:
        rho, w = half_disc_rule(npts, (n - 2) / 2.0)
        # the rho-weights of the three v-derivatives share one exponential
        e = np.exp(1j * np.outer([v], rho))
        a = [pref * (1j / r) ** m * complex((e @ (w * rho ** m if m else w))[0])
             for m in range(3)]
        return -P * a[0] - n * r ** 2 * a[1] - r ** 2 * P * a[2]

    val, err, _ = refine_until(eval_with, max(32, int(abs(v) / 2.0)), 1e-13)
    return converged(val, err, "gbar_residual at v = %g", v)


# ----------------------------------------------------- off-cone smooth kernel

def fourier_decay_constant(s: int) -> float:
    """c_s in F_{theta->z}[e^{-lam |theta|}] = c_s lam (lam^2+|z|^2)^{-(s+1)/2}.

    In the unitary convention c_s = 2^{s/2} Gamma((s+1)/2) / sqrt(pi).
    """
    return 2.0 ** (s / 2.0) * gamma_half((s + 1) / 2.0) / math.sqrt(math.pi)


@lru_cache(maxsize=32)
def qj_table(n: int, s: int):
    """Exact coefficients of (-1)^{n-1} d^{n-1}/dlam^{n-1} [c_s lam u^{-(s+1)/2}].

    Returns (powers, coeffs, index): the sum is
        sum_t coeffs[t] * lam^{powers[t]} * u^{-((s+1)/2 + index[t])},
    u = lam^2 + |z|^2.  The monomial lam^a w^j stands for lam^a u^{-p}, p =
    (s+1)/2 + j, on the graded basis, so d/dlam is d/dlam - 2 p lam w; every
    coefficient is an integer, exact in floats, scaled by c_s at the end.
    """
    b = _graded(2, 2 * n)
    p = np.r_[(s + 1) / 2.0 + b.expo[:, 1], 0.0]
    v = b.dense(np.array([[1, 0]]), np.array([1.0]))
    for _ in range(n - 1):
        v = b.partial(v, 0) - 2 * b.times(p * v, (1, 1))
    expo, coef = b.sparse(v)
    return expo[:, 0], (-1) ** (n - 1) * coef * fourier_decay_constant(s), expo[:, 1]


def smooth_kernel_offcone(n: int, s: int, x, z) -> complex:
    """K(x, z) in the region |P(x)| > 4 |z| where the t-integral converges.

    K(x,z) = i * integral_0^inf (2 sinh t)^{-n} sum_j Q_j(lam0) /
             (lam0^2 + |z|^2)^{(s+1)/2 + j} dt,  lam0 = (i/4) P(x) coth t,
    so that the (1,0) pairing equals (2 pi)^{-(n+s/2)} integral K phi.  The
    denominator lam0^2 + |z|^2 = |z|^2 - P^2 coth^2(t)/16 stays negative on
    the whole ray exactly when |P| > 4|z| (coth > 1), which is the validity
    region enforced here.
    """
    P, z = _point(n, s, x, z)
    z2 = float(z @ z)
    if abs(P) <= 4.0 * math.sqrt(z2):
        raise OnConeRegion("smooth kernel representation requires |P(x)| > 4 |z|")
    powers, coeffs, index = qj_table(n, s)
    branch = math.copysign(1.0, P)

    def eval_with(npts: int) -> complex:
        # rho = sin(u) removes the (1 - rho^2)^{(n-2)/2} endpoint singularity;
        # _offcone_accumulate carries the full rho-integrand
        rho, w = sine_map_rule(npts)
        return complex(w @ _offcone_accumulate(rho, P, z2, powers, coeffs, index,
                                               n, s, branch))

    val, err, _ = refine_until(eval_with, 12, _OFFCONE_TOL)
    return 1j * converged(val, err, "the off-cone kernel at P = %g, |z|^2 = %g", P, z2)


# ----------------------------------------------------------------- 1/P^{n-1}

def inv_p_power(psi, n: int):
    """lim_{eps->0} integral psi_i(x) / (P(x) - i eps)^{n-1} dx for n >= 2,
    for each term psi_i of a family.

    Split at t = 1 of the Gamma-integral representation: the inner x-integrals
    are exact complex Gaussians for class members, so only two smooth 1-D
    quadratures remain.  psi is a GaussMixture whose terms share one form,
    such as a node family from `GaussPoly.restrict` (returns one value per
    term, each refined to its own order), or a GaussPoly (returns a complex);
    terms with forms of their own raise DimensionMismatch.

    The terms that share a (shift, frequency) row, as `equal_rows` groups
    them, differ only in their coefficients: each half runs the engine once
    in table mode on the distinct rows, contracted with the half's weights,
    and a term's value is its coefficients against its row's weighted table.
    The nodes of a block-diagonal restriction all share one row.
    """
    if n < 2:
        raise UnsupportedN("1/P^{n-1} needs n >= 2")
    fam = psi.stack
    if fam.dim != 2 * n:
        raise UnsupportedN(f"psi must live on R^{2 * n}")
    if fam.form is None:   # else the rows of a table could carry another term's form
        raise DimensionMismatch("inv_p_power needs terms that share one form")
    tau = np.array([1.0] * n + [-1.0] * n)
    pref = 1j ** (n - 1) / math.factorial(n - 2)

    def on_nodes(f, idx, w, weights):
        sub = f[idx]
        order, starts = equal_rows(np.column_stack([sub.shift, sub.freq]))
        group = np.empty(idx.size, dtype=int)
        group[order] = np.repeat(np.arange(starts.size), np.diff(np.r_[starts, idx.size]))
        tables = batched_osc_integral(sub[order[starts]], np.broadcast_to(w, (starts.size, w.size)),
                                      tau, True, weights=weights)
        return np.sum(sub.coef * tables[group], axis=1)

    def i1(npts: int, idx) -> np.ndarray:
        t, w = composite_legendre(np.linspace(0.0, 1.0, 5), npts)
        return pref * on_nodes(fam, idx, -t, w * t ** (n - 2))

    finv = fam.inverse_fourier()

    def i2(npts: int, idx) -> np.ndarray:
        u, w = composite_legendre(np.linspace(0.0, 1.0, 5), npts)
        return pref / 2 ** n * on_nodes(finv, idx, u / 4.0, w)  # t = 1/u

    out = sum(converged(*refine_many(half, 16, _INV_P_TOL, len(fam))[:2], "1/P^%d", n - 1)
              for half in (i1, i2))
    return complex(out[0]) if isinstance(psi, GaussPoly) else out


def _centred_iso_gaussian(t: GaussPoly) -> tuple:
    """(c0, a) of a term c0 exp(-a |x|^2 / 2) with quad = a I exactly (as
    `GaussPoly.iso_gaussian` builds it), c0 = 0 for the zero term."""
    a = float(t.quad[0, 0])
    if np.any(t.quad != a * np.eye(t.dim)) or np.any(t.shift) or np.any(t.freq) \
            or np.any(t.expo):
        raise UnsupportedN("needs a centered isotropic plain Gaussian c0 exp(-a |x|^2 / 2)")
    return complex(t.coef.sum()), a


def inv_p_eps_oracle(psi, n: int) -> complex:
    """Richardson-extrapolated integral psi/(P - i eps) over a graded v-grid.

    Independent route for the n = 2 acceptance check: for a centered isotropic
    Gaussian exp(-a |x|^2 / 2) the P-density G(v) = integral delta(P - v) psi
    is exactly (pi^2 / a) e^{-a |v| / 2} (bi-radial reduction); the remaining
    1-D integral of G(v)/(v - i eps) runs on a tanh-graded grid resolving eps.
    """
    if n != 2:
        raise UnsupportedN("the eps-oracle is wired for n = 2")
    dens = [_centred_iso_gaussian(t) for t in as_terms(psi)]

    def density(v: np.ndarray) -> np.ndarray:
        out = np.zeros(v.shape, dtype=complex)
        for c0, a in dens:
            out = out + c0 * np.pi ** 2 / a * np.exp(-a * np.abs(v) / 2)
        return out

    # sinh-graded grid clustered at v = 0 so the Lorentzian layer is resolved
    u = np.linspace(-1.0, 1.0, 160001)
    v = 80.0 * np.sinh(8 * u) / np.sinh(8)
    Gv = density(v)
    vals = [complex(np.trapezoid(Gv / (v - 1j * eps), v)) for eps in _ORACLE_EPS]
    r1 = [2 * vals[i + 1] - vals[i] for i in range(len(vals) - 1)]
    r2 = [2 * r1[i + 1] - r1[i] for i in range(len(r1) - 1)]
    return r2[-1]


# ------------------------------------------- boundary values of P^lambda

class PSGauss:
    """Functions g(P, S) e^{-a S} with polynomial g; S = |x|^2, P = sum tau x^2.

    g = sum_m coef[m] P^i S^j over the rows (i, j) of expo (M, 2), the
    (expo, coef) form of `gausspoly`.  The class is closed under the flat
    ultra-hyperbolic operator L = sum_j tau_j d^2/dx_j^2, which acts as
        L f = 4n f_P + 4P f_PP + 8S f_PS + 4P f_SS
    on f(P, S); `apply_L` evaluates it with the product rule against e^{-aS}
    as gathers on the graded monomial basis in (P, S).
    """

    def __init__(self, n: int, a: float, expo, coef):
        if not a > 0:
            raise NonPositiveScale(f"e^(-aS) needs a > 0, got a = {a}")
        self.n, self.a = n, float(a)
        self.expo = np.asarray(expo, dtype=int).reshape(-1, 2)
        self.coef = np.asarray(coef, dtype=complex)

    @classmethod
    def from_gausspoly(cls, psi: GaussPoly, n: int) -> "PSGauss":
        if psi.dim != 2 * n:
            raise UnsupportedN(f"psi must live on R^{2 * n}")
        c0, a = _centred_iso_gaussian(psi)
        return cls(n, a / 2.0, [(0, 0)], [c0])

    def apply_L(self) -> "PSGauss":
        """L f / e^{-aS} for f = g e^{-aS}:

        4n g_P + 8S (g_PS - a g_P) + 4P (g_PP + g_SS - 2a g_S + a^2 g).
        """
        a = self.a
        b = _graded(2, _degree(self.expo) + 1)
        g = b.dense(self.expo, self.coef)
        g_p, g_s = b.partial(g, 0), b.partial(g, 1)
        out = 4 * self.n * g_p + 8 * b.times(b.partial(g_p, 1) - a * g_p, (0, 1)) \
            + 4 * b.times(b.partial(g_p, 0) + b.partial(g_s, 1) - 2 * a * g_s + a * a * g, (1, 0))
        return PSGauss(self.n, a, *b.sparse(out))

    def integral_region(self, mu: complex) -> np.ndarray:
        """((P_+^mu, f), (P_-^mu, f)) in closed form, for even n and Re mu > -1.

        In A = |u|^2, B = |w|^2 the measure is [pi^{n/2}/Gamma(n/2)]^2
        (A B)^{n/2 - 1} dA dB.  Region P > 0 is A = B + V, region P < 0 is
        B = A + V (A renamed B), V > 0, so g (A B)^{n/2 - 1} is a polynomial in
        (V, B) per region, and V^p B^q against V^mu e^{-a (V + 2B)} gives
        Gamma(mu+1) (mu+1)_p a^{-(mu+p+1)} q! (2a)^{-(q+1)}.
        """
        if np.real(mu) <= -1:
            raise PolePosition("two-region integral needs Re(mu) > -1")
        h = (self.expo, self.coef)
        for _ in range(self.n // 2 - 1):   # times A B = (S^2 - P^2)/4
            h = _product(h, (np.array([[0, 2], [2, 0]]), np.array([0.25, -0.25])))
        expo, coef = collect(*h)
        # (P, S) = (V, V + 2B) in region P > 0 and (-V, V + 2B) in region P < 0
        expo, T = _linear_subst(expo, np.array([[[1, 0], [1, 2]], [[-1, 0], [1, 2]]]))
        coef = _contract(np.broadcast_to(coef, (2, coef.size)), T)
        p, q = expo.T
        rising = np.cumprod(np.r_[1.0, mu + 1 + np.arange(p.max(initial=0))])  # (mu+1)_p
        moments = gamma(mu + 1) * rising[p] * self.a ** -(mu + p + 1) \
            * np.array([math.factorial(j) for j in q]) / (2 * self.a) ** (q + 1.0)
        return (math.pi ** (self.n / 2) / gamma_half(self.n / 2)) ** 2 * (coef @ moments)


def lambda_factor(lam: complex, k: int, n: int):
    """Lambda(lam, k) = [4^k prod_{j=1}^k (lam+j)(n+lam+j-1)]^{-1}; None if a
    factor vanishes (caller decides removable vs genuine pole)."""
    prod = 1.0 + 0.0j
    for j in range(1, k + 1):
        f1, f2 = lam + j, n + lam + j - 1
        if abs(f2) < 1e-12:
            raise PolePosition(f"(P+-i0)^lambda has a pole: n+lambda+j-1 = 0 at j={j}")
        if abs(f1) < 1e-12:
            return None
        prod *= f1 * f2
    return 1.0 / (4.0 ** k * prod)


def p_i0_power(lam: complex, psi, k: int, n: int, side: str = "minus") -> complex:
    """Lambda(lam,k) [(P_+^{lam+k}, L^k psi) + e^{+-i pi (lam+k)} (P_-^{...}, L^k psi)].

    side "minus" carries the phase e^{-i pi mu} and is the boundary value
    reached by the (P - i eps) regularization, i.e. the one that equals
    1/P^{n-1} at lam = -(n-1); side "plus" is its mirror.  At the removable
    integer points (lam + j = 0 for some j <= k) the value is the two-sided
    analytic limit, evaluated by averaging lam +- delta.

    Exact Gamma moments (`PSGauss.integral_region`) at real and complex lam;
    odd n is rejected, as there (A B)^{n/2 - 1} is not a polynomial.
    """
    if n % 2:
        raise UnsupportedN("the closed-form P^lambda moments need even n")
    ps = psi if isinstance(psi, PSGauss) else PSGauss.from_gausspoly(psi, n)
    if ps.n != n:
        raise UnsupportedN(f"the PSGauss lives at n = {ps.n}, not n = {n}")
    for _ in range(k):
        ps = ps.apply_L()
    phase_sign = -1.0 if side == "minus" else 1.0

    def value_at(lmb: complex) -> complex:
        vp, vm = ps.integral_region(lmb + k)
        return lambda_factor(lmb, k, n) * (vp + np.exp(phase_sign * 1j * math.pi * (lmb + k)) * vm)

    if lambda_factor(lam, k, n) is not None:
        return value_at(lam)
    delta = 1e-4
    return 0.5 * (value_at(lam + delta) + value_at(lam - delta))
