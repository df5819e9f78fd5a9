"""Explicit kernels and distributions of the fundamental-solution family.

Contents: the heat-kernel coefficients kappa and W, the Fourier-side
kernels q and q^{lam,mu} with their Bessel/Struve closed form, the constancy
check of the conjugated operator applied to q, the off-cone smooth kernel,
the regularized 1/P^{n-1} functional, and the one-parameter boundary-value
family attached to P^lambda.

The t-integrals over (0, infinity) are always pulled back to (0, 1) by
rho = tanh t, which turns them into Gauss-Jacobi integrals with weight
exponent (n-2)/2 (the same rho-form as the Bessel/Struve representations).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import (
    OnConeRegion,
    PolePosition,
    ThetaZero,
    UnsupportedN,
)
from .gausspoly import (
    GaussMixture,
    GaussPoly,
    as_families,
    as_terms,
    batched_osc_integral,
    node_blocks,
)
from .quadrature import (
    composite_legendre,
    genlaguerre_rule,
    half_disc_rule,
    refine_many,
    refine_until,
    sine_map_rule,
)
from .specfun import gamma_half, osc_weight_integral


# ------------------------------------------------------------ array kernels

def _kappa_vec(rho: np.ndarray) -> np.ndarray:
    """(rho/4) coth(rho/2) with the continuous value 1/2 at rho = 0."""
    rho = np.asarray(rho, float)
    out = np.empty_like(rho)
    small = rho < 1e-8
    out[small] = 0.5
    r = rho[~small]
    out[~small] = 0.25 * r / np.tanh(0.5 * r)
    return out


def _volume_element_vec(rho: np.ndarray, n: int) -> np.ndarray:
    """((rho/2) / sinh(rho/2))^n with value 1 at rho = 0, overflow-safe."""
    rho = np.asarray(rho, float)
    out = np.empty_like(rho)
    x = 0.5 * rho
    small = x < 1e-8
    out[small] = 1.0
    big = x > 30.0
    mid = ~(small | big)
    out[mid] = (x[mid] / np.sinh(x[mid])) ** n
    # log form: n (log x - (x + log1p(-e^{-2x}) - log 2))
    xb = x[big]
    out[big] = np.exp(n * (np.log(xb) - xb - np.log1p(-np.exp(-2 * xb)) + np.log(2.0)))
    return out


def _osc_rho_sum(v: np.ndarray, rho: np.ndarray, w: np.ndarray, power: int = 0) -> np.ndarray:
    """sum_k w_k rho_k^power exp(i v rho_k) for an array of frequencies v."""
    v = np.asarray(v, float)
    wk = w * rho ** power if power else w
    out = np.empty(v.shape, dtype=complex)
    chunk = 4096
    for i in range(0, v.size, chunk):
        vi = v.flat[i:i + chunk]
        out.flat[i:i + chunk] = np.exp(1j * np.outer(vi, rho)) @ wk
    return out


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
    return float(_kappa_vec(np.array([rho]))[0])


def volume_element(rho: float, n: int) -> float:
    """W(rho) = ((rho/2)/sinh(rho/2))^n with W(0) = 1."""
    if rho < 0:
        raise ValueError("volume element is used for rho >= 0")
    return float(_volume_element_vec(np.array([rho]), n)[0])


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
    def constant(lam0, mu0=None) -> "KernelSelector":
        if mu0 is not None and abs(lam0 + mu0 - 1.0) > 1e-14:
            raise ValueError("selector must satisfy lam + mu = 1")
        return KernelSelector("constant", lam0)

    @staticmethod
    def heaviside() -> "KernelSelector":
        return KernelSelector("heaviside")


def kernel_prefactor(n: int, s: int) -> complex:
    return 1j * (2.0 * math.pi) ** (-(n + s / 2.0))


def kernel_q(n: int, s: int, xi, theta) -> complex:
    """q(xi, theta) for r = 0: the (1, 0) member of the kernel family."""
    return kernel_q_lm(n, s, xi, theta, KernelSelector.constant(1.0))


def kernel_q_lm(n: int, s: int, xi, theta, sel: KernelSelector) -> complex:
    """q^{lam,mu}(xi, theta) via the rho-integral on [0, 1]."""
    from .clifford import p_form

    theta = np.atleast_1d(np.asarray(theta, float))
    r = float(np.linalg.norm(theta))
    if r == 0.0:
        raise ThetaZero("kernel requires theta != 0")
    lam, mu = sel.lam_mu(theta / r)
    v = p_form(np.asarray(xi, float)) / r
    out = 0.0 + 0.0j
    if lam != 0:
        ip, _ = osc_weight_integral(n, v)
        out += lam * ip
    if mu != 0:
        im, _ = osc_weight_integral(n, -v)
        out -= mu * im
    return kernel_prefactor(n, s) / r * out


def kernel_q_lm_bessel(n: int, s: int, xi, theta, sel: KernelSelector) -> complex:
    """Same kernel through the Bessel/Struve closed form (c2 = 0 family)."""
    from .clifford import p_form
    from .specfun import bessel_j, struve_h

    theta = np.atleast_1d(np.asarray(theta, float))
    r = float(np.linalg.norm(theta))
    if r == 0.0:
        raise ThetaZero("kernel requires theta != 0")
    lam, mu = sel.lam_mu(theta / r)
    c1 = lam - mu
    v = p_form(np.asarray(xi, float)) / r
    nu = (n - 1) / 2.0
    if v == 0.0:
        # fall back to the rho-integral value (the closed form has a 0/0)
        return kernel_q_lm(n, s, xi, theta, sel)
    av = abs(v)
    # lam e^{iv rho} - mu e^{-iv rho} = c1 cos(v rho) + i sin(v rho), which is
    # c1 J + i sign(v) H in terms of the absolute argument
    combo = c1 * bessel_j(nu, av) + 1j * math.copysign(1.0, v) * struve_h(nu, av)
    pref = 1j * math.sqrt(math.pi) * gamma_half(n / 2.0) \
        / (2.0 * (2.0 * math.pi) ** (n + s / 2.0) * r) * (2.0 / av) ** nu
    return pref * combo


def gbar_residual(n: int, s: int, xi, theta) -> complex:
    """Value of the conjugated Fourier-side operator applied to q.

    With q = a(P(xi), theta) this is -P a - n |theta|^2 a_v - |theta|^2 P a_vv
    (all v-derivatives taken under the rho-integral); the fundamental-solution
    identity says the result equals (2 pi)^{-(n + s/2)} everywhere.
    """
    from .clifford import p_form

    theta = np.atleast_1d(np.asarray(theta, float))
    r = float(np.linalg.norm(theta))
    if r == 0.0:
        raise ThetaZero("theta must be nonzero")
    P = p_form(np.asarray(xi, float))
    v = P / r
    pref = kernel_prefactor(n, s) / r

    def eval_with(npts: int) -> complex:
        rho, w = half_disc_rule(npts, (n - 2) / 2.0)
        a = [pref * (1j / r) ** m
             * complex(_osc_rho_sum(np.array([v]), rho, w, power=m)[0])
             for m in range(3)]
        return -P * a[0] - n * r ** 2 * a[1] - r ** 2 * P * a[2]

    val, _, _ = refine_until(eval_with, max(32, int(abs(v) / 2.0)), 1e-13)
    return val


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
    u = lam^2 + |z|^2.  Rational bookkeeping, scaled by c_s at the end.
    """
    terms = {(1, 0): Fraction(1)}  # lam^1 u^{-(s+1)/2 - 0}
    for _ in range(n - 1):
        new: dict = {}
        for (a, j), c in terms.items():
            if a > 0:
                key = (a - 1, j)
                new[key] = new.get(key, Fraction(0)) + c * a
            p = Fraction(s + 1, 2) + j
            key = (a + 1, j + 1)
            new[key] = new.get(key, Fraction(0)) - 2 * p * c
        terms = new
    sign = (-1) ** (n - 1)
    powers = np.array([a for (a, _) in terms], dtype=np.int64)
    index = np.array([j for (_, j) in terms], dtype=np.int64)
    coeffs = np.array([complex(sign * float(c)) for c in terms.values()])
    coeffs = coeffs * fourier_decay_constant(s)
    return powers, coeffs, index


def qj_degree_bound_holds(n: int, s: int) -> bool:
    """2((s+1)/2 + j) - deg Q_j >= s + n - 1 for every j present."""
    powers, _, index = qj_table(n, s)
    deg = {}
    for a, j in zip(powers, index):
        deg[j] = max(deg.get(j, 0), int(a))
    return all(2 * ((s + 1) / 2 + j) - d >= s + n - 1 for j, d in deg.items())


def smooth_kernel_offcone(n: int, s: int, x, z, rel_tol: float = 1e-6) -> complex:
    """K(x, z) in the region |P(x)| > 4 |z| where the t-integral converges.

    K(x,z) = i * integral_0^inf (2 sinh t)^{-n} sum_j Q_j(lam0) /
             (lam0^2 + |z|^2)^{(s+1)/2 + j} dt,  lam0 = (i/4) P(x) coth t,
    so that the (1,0) pairing equals (2 pi)^{-(n+s/2)} integral K phi.  The
    denominator lam0^2 + |z|^2 = |z|^2 - P^2 coth^2(t)/16 stays negative on
    the whole ray exactly when |P| > 4|z| (coth > 1), which is the validity
    region enforced here.
    """
    from .clifford import p_form

    x = np.asarray(x, float)
    z = np.atleast_1d(np.asarray(z, float))
    P = p_form(x)
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

    val, _, _ = refine_until(eval_with, 12, rel_tol)
    return 1j * val


# ----------------------------------------------------------------- 1/P^{n-1}

def inv_p_power(psi, n: int, rel_tol: float = 1e-7):
    """lim_{eps->0} integral psi(x) / (P(x) - i eps)^{n-1} dx for n >= 2.

    Split at t = 1 of the Gamma-integral representation: the inner x-integrals
    are exact complex Gaussians for class members, so only two smooth 1-D
    quadratures remain.  psi is a GaussPoly or GaussMixture (returns a
    complex), or a node family from `GaussPoly.restrict` (returns one value
    per node, each node refined to its own order).
    """
    if n < 2:
        raise UnsupportedN("1/P^{n-1} needs n >= 2")
    parts = as_families(psi)
    if parts[0].dim != 2 * n:
        raise UnsupportedN(f"psi must live on R^{2 * n}")
    tau = np.array([1.0] * n + [-1.0] * n)
    pref = 1j ** (n - 1) / math.factorial(n - 2)
    count = len(parts[0])

    def on_nodes(fams, idx, w, weights):
        freqs = np.broadcast_to(w, (idx.size, w.size))
        return np.concatenate([
            sum(batched_osc_integral(f[idx[b]], freqs[b], tau) for f in fams) @ weights
            for b in node_blocks(idx.size, w.size)])

    def i1(npts: int, idx) -> np.ndarray:
        t, w = composite_legendre(np.linspace(0.0, 1.0, 5), npts)
        return pref * on_nodes(parts, idx, -t, w * t ** (n - 2))

    finv = [f.inverse_fourier() for f in parts]

    def i2(npts: int, idx) -> np.ndarray:
        u, w = composite_legendre(np.linspace(0.0, 1.0, 5), npts)
        return pref / 2 ** n * on_nodes(finv, idx, u / 4.0, w)  # t = 1/u

    v1, _, _ = refine_many(i1, 16, rel_tol, count)
    v2, _, _ = refine_many(i2, 16, rel_tol, count)
    out = v1 + v2
    return complex(out[0]) if isinstance(psi, (GaussPoly, GaussMixture)) else out


def inv_p_eps_oracle(psi, n: int, eps_values=(0.1, 0.05, 0.025, 0.0125)) -> complex:
    """Richardson-extrapolated integral psi/(P - i eps) over a graded v-grid.

    Independent route for the n = 2 acceptance check: for a centered isotropic
    Gaussian exp(-a |x|^2 / 2) the P-density G(v) = integral delta(P - v) psi
    is exactly (pi^2 / a) e^{-a |v| / 2} (bi-radial reduction); the remaining
    1-D integral of G(v)/(v - i eps) runs on a tanh-graded grid resolving eps.
    """
    if n != 2:
        raise UnsupportedN("the eps-oracle is wired for n = 2")
    dens = []
    for t in as_terms(psi):
        diag = np.diagonal(t.quad)
        if t.poly.keys() - {tuple([0] * t.dim)} or np.any(t.quad != np.diag(diag)) \
                or not np.allclose(diag, diag[0]) or np.any(t.shift) or np.any(t.freq):
            raise UnsupportedN("eps-oracle supports centered isotropic Gaussians")
        a = float(diag[0])
        c0 = complex(t.poly[tuple([0] * t.dim)])
        dens.append((c0, a))

    def density(v: np.ndarray) -> np.ndarray:
        out = np.zeros(v.shape, dtype=complex)
        for c0, a in dens:
            out = out + c0 * np.pi ** 2 / a * np.exp(-a * np.abs(v) / 2)
        return out

    # sinh-graded grid clustered at v = 0 so the Lorentzian layer is resolved
    u = np.linspace(-1.0, 1.0, 160001)
    v = 80.0 * np.sinh(8 * u) / np.sinh(8)
    Gv = density(v)
    vals = [complex(np.trapezoid(Gv / (v - 1j * eps), v)) for eps in eps_values]
    r1 = [2 * vals[i + 1] - vals[i] for i in range(len(vals) - 1)]
    r2 = [2 * r1[i + 1] - r1[i] for i in range(len(r1) - 1)]
    return r2[-1]


# ------------------------------------------- boundary values of P^lambda

class PSGauss:
    """Functions g(P, S) e^{-a S} with polynomial g; S = |x|^2, P = sum tau x^2.

    Closed under the flat ultra-hyperbolic operator:
        L f = 4n f_P + 4P f_PP + 8S f_PS + 4P f_SS
    evaluated with the product rule against e^{-aS}.
    """

    def __init__(self, n: int, a: float, coeffs: dict | None = None):
        self.n = n
        self.a = float(a)
        self.coeffs = {k: complex(v) for k, v in (coeffs or {(0, 0): 1.0}).items() if v != 0}

    @classmethod
    def from_gausspoly(cls, psi: GaussPoly, n: int) -> "PSGauss":
        if psi.dim != 2 * n:
            raise UnsupportedN(f"psi must live on R^{2 * n}")
        diag = np.diagonal(psi.quad)
        if np.any(psi.quad != np.diag(diag)) or not np.allclose(diag, diag[0]) \
                or np.any(psi.shift) or np.any(psi.freq):
            raise UnsupportedN("P^lambda pairing supports centered isotropic Gaussians")
        extra = psi.poly.keys() - {tuple([0] * psi.dim)}
        if extra:
            raise UnsupportedN("P^lambda pairing supports plain Gaussians")
        c0 = psi.poly.get(tuple([0] * psi.dim), 0.0)
        return cls(n, float(diag[0]) / 2.0, {(0, 0): c0})

    def apply_L(self) -> "PSGauss":
        """L f / e^{-aS} for f = g e^{-aS}:

        4n g_P + 4P g_PP + 8S (g_PS - a g_P) + 4P (g_SS - 2a g_S + a^2 g).
        """
        a = self.a
        out: dict = {}

        def add(key, val):
            if val != 0:
                out[key] = out.get(key, 0.0) + val

        for (i, j), c in self.coeffs.items():
            if i >= 1:
                add((i - 1, j), 4 * self.n * i * c)            # 4n g_P
                add((i - 1, j + 1), -8 * a * i * c)            # 8S (-a g_P)
            if i >= 2:
                add((i - 1, j), 4 * i * (i - 1) * c)           # 4P g_PP
            if i >= 1 and j >= 1:
                add((i - 1, j), 8 * i * j * c)                 # 8S g_PS
            if j >= 2:
                add((i + 1, j - 2), 4 * j * (j - 1) * c)       # 4P g_SS
            if j >= 1:
                add((i + 1, j - 1), -8 * a * j * c)            # 4P (-2a g_S)
            add((i + 1, j), 4 * a * a * c)                     # 4P a^2 g
        return PSGauss(self.n, a, out)

    def integral_region(self, mu: complex, sign: int, npts: int) -> complex:
        """(P_{+-}^mu, f): [pi^{n/2}/Gamma(n/2)]^2 * 2-D Laguerre quadrature.

        Coordinates A = |u|^2, B = |w|^2 with measure (A B)^{n/2 - 1} dA dB;
        region P > 0 is A = B + v, region P < 0 is B = A + v, v > 0.
        """
        a, n = self.a, self.n
        remu = float(np.real(mu))
        if remu <= -1:
            raise PolePosition("two-region integral needs Re(mu) > -1")
        xv, wv = genlaguerre_rule(npts, remu)
        xb, wb = genlaguerre_rule(npts, 0.0)
        v = xv / a                     # weight v^{Re mu} e^{-a v}
        b = xb / (2 * a)               # weight e^{-2 a b}
        V, B = np.meshgrid(v, b, indexing="ij")
        WT = np.outer(wv / a ** (remu + 1), wb / (2 * a))
        A = B + V
        P = np.where(sign > 0, V, -V)
        S = 2 * B + V
        g = np.zeros_like(V, dtype=complex)
        for (i, j), c in self.coeffs.items():
            g = g + c * P ** i * S ** j
        extra = V ** (mu - remu) if mu != remu else 1.0  # v^{i Im mu}
        integ = (A * B) ** (n / 2.0 - 1.0) * g * extra
        const = (math.pi ** (n / 2.0) / gamma_half(n / 2.0)) ** 2
        return const * complex(np.sum(WT * integ))


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


def p_i0_power(lam: complex, psi, k: int, n: int, side: str = "minus",
               rel_tol: float = 1e-8) -> complex:
    """Lambda(lam,k) [(P_+^{lam+k}, L^k psi) + e^{+-i pi (lam+k)} (P_-^{...}, L^k psi)].

    side "minus" carries the phase e^{-i pi mu} and is the boundary value
    reached by the (P - i eps) regularization, i.e. the one that equals
    1/P^{n-1} at lam = -(n-1); side "plus" is its mirror.  At the removable
    integer points (lam + j = 0 for some j <= k) the value is the two-sided
    analytic limit, evaluated by averaging lam +- delta.
    """
    if np.real(lam) + k <= -1:
        raise PolePosition("two-region quadrature needs Re(lambda) + k > -1")
    ps = psi if isinstance(psi, PSGauss) else PSGauss.from_gausspoly(psi, n)
    lk = ps
    for _ in range(k):
        lk = lk.apply_L()
    phase_sign = -1.0 if side == "minus" else 1.0

    def value_at(lmb: complex) -> complex:
        mu = lmb + k
        factor = lambda_factor(lmb, k, n)
        assert factor is not None

        def eval_with(npts: int) -> complex:
            vp = lk.integral_region(mu, +1, npts)
            vm = lk.integral_region(mu, -1, npts)
            return vp + np.exp(phase_sign * 1j * math.pi * mu) * vm

        val, _, _ = refine_until(eval_with, 48, rel_tol)
        return factor * val

    if lambda_factor(lam, k, n) is not None:
        return value_at(lam)
    delta = 1e-4
    return 0.5 * (value_at(lam + delta) + value_at(lam - delta))
