"""Exact calculus on polynomial-times-Gaussian test functions.

A term has the form

    phi(u) = sum_a  c_a (u-c)^a * exp(-1/2 (u-c)^T A (u-c)) * exp(i b.u)

with A real symmetric positive definite, center c and frequency b real, and
complex coefficients c_a.  The class is closed under differentiation,
multiplication by coordinates, precomposition with invertible real affine
maps, and the Fourier transform; finite sums live in GaussMixture.

Fourier convention (fixed once for the whole package):

    F[phi](xi) = (2 pi)^{-d/2} integral phi(u) exp(-i <u, xi>) du

so that F o F = reflection and [F^{-1} psi](0) = (2 pi)^{-d/2} integral psi.

The module also provides the complex-Gaussian integral engine
``integrate_gaussian`` used by the kernel pairings: integrals of class
members against exp(-1/2 u^T W u + eta.u) for complex symmetric W with
positive-definite Re(A + W) are evaluated in closed form (principal branch
of det^{-1/2}, Wick moments for the polynomial part).
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, NonSPDQuadraticForm, SingularAffineMap

Monomial = tuple  # tuple[int, ...]
Poly = dict       # dict[Monomial, complex]

_I_POW = (1.0, 1j, -1.0, -1j)  # i^k by k mod 4, exact


# ----------------------------------------------------------------- poly ops

def poly_mul(p: Poly, q: Poly) -> Poly:
    out: Poly = {}
    for a, ca in p.items():
        for b, cb in q.items():
            m = tuple(x + y for x, y in zip(a, b))
            out[m] = out.get(m, 0.0) + ca * cb
    return {m: c for m, c in out.items() if c != 0}


def poly_scale(p: Poly, c) -> Poly:
    if c == 0:
        return {}
    return {m: c * v for m, v in p.items()}


def poly_add(p: Poly, q: Poly) -> Poly:
    out = dict(p)
    for m, c in q.items():
        out[m] = out.get(m, 0.0) + c
    return {m: c for m, c in out.items() if c != 0}


def axis_monomial(dim: int, j: int, k: int = 1) -> Monomial:
    m = [0] * dim
    m[j] = k
    return tuple(m)


def poly_derivative(p: Poly, axis: int) -> Poly:
    """d/dw_axis of the polynomial p(w)."""
    out: Poly = {}
    for mono, c in p.items():
        if mono[axis] > 0:
            m = list(mono)
            m[axis] -= 1
            key = tuple(m)
            out[key] = out.get(key, 0.0) + c * mono[axis]
    return out


def poly_shift(p: Poly, delta) -> Poly:
    """Re-expand p(w) in powers of w' = w - delta, i.e. substitute w = w' + delta."""
    dim = len(delta)
    out: Poly = {}
    from math import comb

    for mono, c in p.items():
        term: Poly = {tuple([0] * dim): c}
        for j, mj in enumerate(mono):
            if mj == 0:
                continue
            axis: Poly = {}
            for k in range(mj + 1):
                coeff = comb(mj, k) * delta[j] ** (mj - k)
                if coeff != 0:
                    axis[axis_monomial(dim, j, k)] = coeff
            term = poly_mul(term, axis)
        out = poly_add(out, term)
    return out


def poly_linear_subst(p: Poly, M) -> Poly:
    """Substitute w = M y into p(w); M is a real (dim x dim) matrix."""
    dim = M.shape[0]
    out: Poly = {}
    for mono, c in p.items():
        term: Poly = {tuple([0] * dim): c}
        for j, mj in enumerate(mono):
            if mj == 0:
                continue
            lin: Poly = {}
            for k in range(dim):
                if M[j, k] != 0:
                    lin[axis_monomial(dim, k)] = M[j, k]
            for _ in range(mj):
                term = poly_mul(term, lin)
        out = poly_add(out, term)
    return out


def poly_eval_many(p: Poly, W: np.ndarray) -> np.ndarray:
    """Evaluate p at rows of W, shape (N, dim)."""
    vals = np.zeros(W.shape[0], dtype=complex)
    for mono, c in p.items():
        term = np.full(W.shape[0], c, dtype=complex)
        for j, mj in enumerate(mono):
            if mj:
                term = term * W[:, j] ** mj
        vals += term
    return vals


# -------------------------------------------------------------- Wick engine

def _wick_moment(cov: np.ndarray, idx: tuple) -> complex:
    """E[y_{i1} ... y_{ik}] for the (complex) covariance cov, via pairings."""
    k = len(idx)
    if k == 0:
        return 1.0
    if k % 2 == 1:
        return 0.0
    cache: dict = {}

    def rec(ids: tuple) -> complex:
        if not ids:
            return 1.0
        if ids in cache:
            return cache[ids]
        first, rest = ids[0], ids[1:]
        total = 0.0 + 0.0j
        for pos in range(len(rest)):
            c = cov[first, rest[pos]]
            if c != 0:
                total += c * rec(rest[:pos] + rest[pos + 1:])
        cache[ids] = total
        return total

    return rec(tuple(sorted(idx)))


def det_inv_sqrt(M: np.ndarray) -> complex:
    """det(M)^{-1/2} for complex symmetric M with Re M positive definite.

    The branch is the analytic continuation from real SPD matrices: every
    eigenvalue of M lies in the open right half-plane, so the product of
    principal inverse square roots is the continued branch.
    """
    lam = np.linalg.eigvals(M)
    if np.any(lam.real <= 0):
        raise NonSPDQuadraticForm("Re part of the quadratic form is not positive definite")
    return complex(np.prod(lam ** -0.5))


def gaussian_poly_integral(M: np.ndarray, lin: np.ndarray, p: Poly) -> complex:
    """integral p(w) exp(-1/2 w^T M w + lin.w) dw, Re M positive definite."""
    d = M.shape[0]
    Minv = np.linalg.inv(M)
    m0 = Minv @ lin
    pref = (2.0 * np.pi) ** (d / 2.0) * det_inv_sqrt(M) * np.exp(0.5 * lin @ m0)
    shifted = poly_shift(p, m0)  # p(y + m0) as a poly in y
    total = 0.0 + 0.0j
    for mono, c in shifted.items():
        idx = tuple(j for j, mj in enumerate(mono) for _ in range(mj))
        mom = _wick_moment(Minv, idx)
        if mom != 0:
            total += c * mom
    return pref * total


# ------------------------------------------------------------------- class

def _as_spd(A: np.ndarray) -> np.ndarray:
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise NonSPDQuadraticForm("quadratic form must be a square matrix")
    if not np.allclose(A, A.T, atol=1e-12):
        raise NonSPDQuadraticForm("quadratic form must be symmetric")
    if np.linalg.eigvalsh(A).min() <= 0:
        raise NonSPDQuadraticForm("quadratic form must be positive definite")
    return 0.5 * (A + A.T)


@dataclass
class GaussPoly:
    """One polynomial-times-Gaussian term; see module docstring for the form."""

    dim: int
    quad: np.ndarray
    poly: Poly = field(default_factory=dict)
    shift: np.ndarray | None = None
    freq: np.ndarray | None = None

    def __post_init__(self):
        self.quad = _as_spd(self.quad)
        if self.quad.shape[0] != self.dim:
            raise DimensionMismatch("quad size does not match dim")
        self.shift = np.zeros(self.dim) if self.shift is None else np.asarray(self.shift, float)
        self.freq = np.zeros(self.dim) if self.freq is None else np.asarray(self.freq, float)
        if self.shift.shape != (self.dim,) or self.freq.shape != (self.dim,):
            raise DimensionMismatch("shift/freq size does not match dim")
        self.poly = {tuple(m): complex(c) for m, c in self.poly.items() if c != 0}
        for m in self.poly:
            if len(m) != self.dim:
                raise DimensionMismatch(f"monomial {m} does not have {self.dim} exponents")
            if min(m, default=0) < 0:
                raise ValueError(f"monomial {m} has a negative exponent")

    # -- constructors -------------------------------------------------------
    @classmethod
    def gaussian(cls, quad, shift=None, coeff=1.0) -> "GaussPoly":
        quad = np.atleast_2d(np.asarray(quad, float))
        d = quad.shape[0]
        return cls(d, quad, {tuple([0] * d): coeff}, shift=shift)

    @classmethod
    def iso_gaussian(cls, dim: int, a: float = 1.0, coeff=1.0) -> "GaussPoly":
        """exp(-a |u|^2 / 2) (times coeff)."""
        return cls.gaussian(a * np.eye(dim), coeff=coeff)

    # -- pointwise ----------------------------------------------------------
    def evaluate(self, u) -> complex:
        return complex(self.evaluate_many(np.asarray(u, float)[None, :])[0])

    def evaluate_many(self, U: np.ndarray) -> np.ndarray:
        U = np.asarray(U, float)
        if U.shape[1] != self.dim:
            raise DimensionMismatch("points have wrong dimension")
        W = U - self.shift
        expo = -0.5 * np.einsum("ij,jk,ik->i", W, self.quad, W) + 1j * (U @ self.freq)
        return poly_eval_many(self.poly, W) * np.exp(expo)

    # -- algebra ------------------------------------------------------------
    def scaled(self, c) -> "GaussPoly":
        return GaussPoly(self.dim, self.quad, poly_scale(self.poly, c), self.shift, self.freq)

    def plus(self, other: "GaussPoly") -> "GaussPoly":
        """Sum of two terms sharing (quad, shift, freq)."""
        if not (np.array_equal(self.quad, other.quad)
                and np.array_equal(self.shift, other.shift)
                and np.array_equal(self.freq, other.freq)):
            raise DimensionMismatch("plus() needs identical Gaussian data; use GaussMixture")
        return GaussPoly(self.dim, self.quad, poly_add(self.poly, other.poly),
                         self.shift, self.freq)

    def differentiate(self, axis: int) -> "GaussPoly":
        """d/du_axis, exact."""
        new = _derivative(self.quad, self.freq, axis_monomial(self.dim, axis),
                          {(0,) * self.dim: self.poly})
        return GaussPoly(self.dim, self.quad, new, self.shift, self.freq)

    def multiply_monomial(self, mono: Monomial) -> "GaussPoly":
        """Multiply by u^mono (absolute coordinates)."""
        factor: Poly = {tuple([0] * self.dim): 1.0}
        for j, mj in enumerate(mono):
            if mj == 0:
                continue
            axis = {axis_monomial(self.dim, j): 1.0}
            if self.shift[j] != 0:
                axis[tuple([0] * self.dim)] = self.shift[j]
            for _ in range(mj):
                factor = poly_mul(factor, axis)
        return GaussPoly(self.dim, self.quad, poly_mul(self.poly, factor), self.shift, self.freq)

    def multiply_linear(self, coeffs, const=0.0) -> "GaussPoly":
        """Multiply by (coeffs . u + const)."""
        lin: Poly = {}
        z = tuple([0] * self.dim)
        c0 = complex(const) + complex(np.dot(coeffs, self.shift))
        for j, cj in enumerate(coeffs):
            if cj != 0:
                lin[axis_monomial(self.dim, j)] = cj
        if c0 != 0:
            lin[z] = c0
        return GaussPoly(self.dim, self.quad, poly_mul(self.poly, lin), self.shift, self.freq)

    def precompose_affine(self, M, v) -> "GaussPoly":
        """phi(M u + v), with M invertible real."""
        M = np.asarray(M, float)
        v = np.asarray(v, float)
        if abs(np.linalg.det(M)) < 1e-300:
            raise SingularAffineMap("affine precomposition needs invertible M")
        new_quad = M.T @ self.quad @ M
        new_shift = np.linalg.solve(M, self.shift - v)
        new_poly = poly_linear_subst(self.poly, M)
        new_freq = M.T @ self.freq
        phase = np.exp(1j * self.freq @ v)
        return GaussPoly(self.dim, new_quad, poly_scale(new_poly, phase), new_shift, new_freq)

    def laplacian(self) -> "GaussPoly":
        one = {(0,) * self.dim: 1.0}
        return apply_operator(self, [(one, axis_monomial(self.dim, j, 2))
                                     for j in range(self.dim)])

    def laplacian_power(self, ell: int) -> "GaussPoly":
        out = self
        for _ in range(ell):
            out = out.laplacian()
        return out

    # -- Fourier ------------------------------------------------------------
    def fourier(self) -> "GaussPoly":
        """F[phi] in the (2 pi)^{-d/2}, e^{-i<u, xi>} convention."""
        return self.partial_fourier(range(self.dim))

    def inverse_fourier(self) -> "GaussPoly":
        return self.fourier().precompose_affine(-np.eye(self.dim), np.zeros(self.dim))

    def partial_fourier(self, axes) -> "GaussPoly":
        """Fourier transform in the listed axes only.

        Requires the quadratic form to be block diagonal between `axes` and
        the remaining coordinates (true for all product test functions used
        here).  With t the part of a monomial on `axes`,
        F[w^t G_A] = i^{|t|} D^t [det(A)^{-1/2} G_{A^{-1}}], so every monomial
        reads its image from one derivative table of one base Gaussian, which
        also carries the phase e^{i freq.shift} of the transformed block.
        """
        t = np.zeros(self.dim, dtype=bool)
        t[list(axes)] = True
        if np.any(self.quad[t][:, ~t]):
            raise DimensionMismatch("partial_fourier needs block-diagonal quad")
        At = self.quad[t][:, t]
        At_inv = np.linalg.inv(At)
        quad = self.quad.copy()
        quad[np.ix_(t, t)] = 0.5 * (At_inv + At_inv.T)
        zero = (0,) * self.dim
        # the base Gaussian det(At)^{-1/2} e^{i freq.shift} G_quad, as its derivative table
        derivs = {zero: {zero: det_inv_sqrt(At) * np.exp(1j * (self.freq[t] @ self.shift[t]))}}
        no_freq = np.zeros(self.dim)
        mask = t.tolist()
        acc: Poly = {}
        for mono, c in self.poly.items():
            alpha = tuple(m if tj else 0 for m, tj in zip(mono, mask))
            kept = tuple(0 if tj else m for m, tj in zip(mono, mask))
            ci = c * _I_POW[sum(alpha) % 4]
            for m, v in _derivative(quad, no_freq, alpha, derivs).items():
                key = tuple(x + y for x, y in zip(m, kept))
                acc[key] = acc.get(key, 0.0) + ci * v
        return GaussPoly(self.dim, quad, acc, np.where(t, self.freq, self.shift),
                         np.where(t, -self.shift, self.freq))

    # -- restriction --------------------------------------------------------
    def restrict(self, fixed_axes, values):
        """phi with the listed coordinates frozen at numeric values.

        `values` of shape (f,) gives one GaussPoly; an (N, f) array gives the
        N restrictions at once as a node family (see _NodeFamily), which
        `batched_osc_integral` and `kernels.inv_p_power` accept.

        Works for a general quadratic form: the cross terms contribute a real
        linear exponential absorbed by recentering the kept Gaussian.
        """
        values = np.asarray(values, float)
        fam = _restrict_family(self, list(fixed_axes), np.atleast_2d(values))
        return fam if values.ndim == 2 else fam.term(0)

    # -- integrals ----------------------------------------------------------
    def integral(self) -> complex:
        """integral phi(u) du, exact."""
        return self.integrate_against()

    def integrate_against(self, W=None, eta=None) -> complex:
        """integral phi(u) exp(-1/2 u^T W u + eta.u) du.

        W complex symmetric with Re(quad + W) positive definite; eta complex.
        """
        d = self.dim
        W = np.zeros((d, d)) if W is None else np.asarray(W)
        eta = np.zeros(d) if eta is None else np.asarray(eta)
        M = self.quad + W
        c = self.shift
        lin = 1j * self.freq + eta - W @ c
        const = np.exp(1j * self.freq @ c + eta @ c - 0.5 * c @ W @ c)
        return const * gaussian_poly_integral(M, lin, self.poly)

    # -- serialization ------------------------------------------------------
    def to_json_dict(self) -> dict:
        return {
            "dim": self.dim,
            "quad": self.quad.tolist(),
            "shift": self.shift.tolist(),
            "freq": self.freq.tolist(),
            "poly": sorted(
                [list(m) + [float(c.real), float(c.imag)] for m, c in self.poly.items()]
            ),
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "GaussPoly":
        if not all(isinstance(x, int) for row in d["poly"] for x in row[:-2]):
            raise ValueError("monomial exponents must be integers")
        poly = {tuple(row[:-2]): complex(row[-2], row[-1]) for row in d["poly"]}
        return cls(int(d["dim"]), np.array(d["quad"]), poly,
                   shift=np.array(d["shift"]), freq=np.array(d.get("freq", np.zeros(d["dim"]))))

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    @classmethod
    def from_json(cls, text: str) -> "GaussPoly":
        return cls.from_json_dict(json.loads(text))


@dataclass
class GaussMixture:
    """Finite sum of GaussPoly terms over a common dimension."""

    terms: list

    def __post_init__(self):
        if not self.terms:
            raise DimensionMismatch("mixture needs at least one term")
        dims = {t.dim for t in self.terms}
        if len(dims) != 1:
            raise DimensionMismatch("mixture terms must share dim")

    @property
    def dim(self) -> int:
        return self.terms[0].dim

    def evaluate(self, u) -> complex:
        return complex(sum(t.evaluate(u) for t in self.terms))

    def evaluate_many(self, U) -> np.ndarray:
        out = np.zeros(np.asarray(U).shape[0], dtype=complex)
        for t in self.terms:
            out += t.evaluate_many(U)
        return out

    def map_terms(self, f) -> "GaussMixture":
        return GaussMixture([f(t) for t in self.terms])

    def scaled(self, c) -> "GaussMixture":
        return self.map_terms(lambda t: t.scaled(c))

    def __add__(self, other):
        other_terms = other.terms if isinstance(other, GaussMixture) else [other]
        return GaussMixture(self.terms + list(other_terms))

    def differentiate(self, axis) -> "GaussMixture":
        return self.map_terms(lambda t: t.differentiate(axis))

    def fourier(self) -> "GaussMixture":
        return self.map_terms(lambda t: t.fourier())

    def inverse_fourier(self) -> "GaussMixture":
        return self.map_terms(lambda t: t.inverse_fourier())

    def precompose_affine(self, M, v) -> "GaussMixture":
        return self.map_terms(lambda t: t.precompose_affine(M, v))

    def integral(self) -> complex:
        return complex(sum(t.integral() for t in self.terms))

    def integrate_against(self, W=None, eta=None) -> complex:
        return complex(sum(t.integrate_against(W, eta) for t in self.terms))


def as_terms(phi) -> list:
    """phi as a list of GaussPoly terms (accepts GaussPoly or GaussMixture)."""
    if isinstance(phi, GaussMixture):
        return list(phi.terms)
    return [phi]


# ---------------------------------------------------- differential operators

def apply_operator(phi, op: list):
    """sum_i c_i(u) D^{alpha_i} phi, exact, for op = [(c_i, alpha_i), ...].

    c_i is a Poly in absolute coordinates u, alpha_i a derivative multi-index.
    Each term of phi gives one term: every distinct derivative is computed once
    and each c_i is re-expanded in the centred variable u - shift.
    """
    out_terms = []
    for term in as_terms(phi):
        if any(len(alpha) != term.dim for _, alpha in op):
            raise DimensionMismatch(f"operator does not act on functions over R^{term.dim}")
        derivs = {(0,) * term.dim: term.poly}
        acc: Poly = {}
        for coef, alpha in op:
            d = _derivative(term.quad, term.freq, alpha, derivs)
            for a, ca in poly_shift(coef, term.shift).items():
                for b, cb in d.items():
                    m = tuple(x + y for x, y in zip(a, b))
                    acc[m] = acc.get(m, 0.0) + ca * cb
        out_terms.append(GaussPoly(term.dim, term.quad, acc, term.shift, term.freq))
    return out_terms[0] if isinstance(phi, GaussPoly) else GaussMixture(out_terms)


def _derivative(quad: np.ndarray, freq: np.ndarray, alpha: Monomial, derivs: dict) -> Poly:
    """Polynomial part of D^alpha of a term with form `quad` and frequency `freq`,
    memoised in derivs (which holds alpha = 0, the term's own polynomial);
    d/du_j [p G] = [d_j p - (A w)_j p + i b_j p] G for w = u - c."""
    if alpha not in derivs:
        d = len(alpha)
        j = max(i for i, a in enumerate(alpha) if a)
        poly = _derivative(quad, freq, alpha[:j] + (alpha[j] - 1,) + alpha[j + 1:], derivs)
        lin: Poly = {axis_monomial(d, k): -quad[j, k] for k in range(d) if quad[j, k] != 0}
        if freq[j] != 0:
            lin[(0,) * d] = 1j * freq[j]
        new = poly_derivative(poly, j)
        derivs[alpha] = poly_add(new, poly_mul(poly, lin)) if lin else new
    return derivs[alpha]


def compose(first: list, op: list) -> list:
    """`first` o `op` as operator data, for a first-order `first` (unit multi-indices).

    Leibniz: a d_i (b D^beta) = a (d_i b) D^beta + a b D^{beta + e_i}.
    """
    acc: dict = {}
    for a, e in first:
        i = e.index(1)
        for b, beta in op:
            raised = beta[:i] + (beta[i] + 1,) + beta[i + 1:]
            acc[beta] = poly_add(acc.get(beta, {}), poly_mul(a, poly_derivative(b, i)))
            acc[raised] = poly_add(acc.get(raised, {}), poly_mul(a, b))
    return [(coef, alpha) for alpha, coef in acc.items() if coef]


# ------------------------------------------------------------- node families

# The oscillatory engine evaluates at most _OSC_CHUNK (node, frequency) pairs
# per vectorised pass, which bounds its temporaries (about 1 KB per pair at
# the polynomial sizes of the pairings); `node_blocks` splits the nodes of a
# weighted sum so that each engine call returns at most _OSC_BLOCK values.
_OSC_CHUNK = 512
_OSC_BLOCK = 8192


class _NodeFamily:
    """N restrictions of one term, sharing the quadratic form and the monomials.

    Node i is the GaussPoly term with polynomial
    sum_m coef[i, m] (u - shift[i])^expo[m], Gaussian quad centred at
    shift[i] and frequency freq[i].  Every map applied to a family
    (restriction, recentring, tau-congruence, inverse Fourier transform) acts
    on the (N, M) coefficient array as a matrix product.
    """

    __slots__ = ("quad", "expo", "coef", "shift", "freq")

    def __init__(self, quad, expo, coef, shift, freq):
        self.quad, self.expo, self.coef = quad, expo, coef
        self.shift, self.freq = shift, freq

    @classmethod
    def of(cls, term: GaussPoly) -> "_NodeFamily":
        """The one-node family of a term."""
        expo = np.array(list(term.poly), dtype=int).reshape(-1, term.dim)
        coef = np.array(list(term.poly.values()), dtype=complex)[None, :]
        return cls(term.quad, expo, coef, term.shift[None, :], term.freq[None, :])

    @property
    def dim(self) -> int:
        return self.quad.shape[0]

    def __len__(self) -> int:
        return self.coef.shape[0]

    def __getitem__(self, idx) -> "_NodeFamily":
        return _NodeFamily(self.quad, self.expo, self.coef[idx], self.shift[idx], self.freq[idx])

    def term(self, i: int) -> GaussPoly:
        poly = {tuple(int(x) for x in e): c for e, c in zip(self.expo, self.coef[i])}
        return GaussPoly(self.dim, self.quad, poly, self.shift[i], self.freq[i])

    def inverse_fourier(self) -> "_NodeFamily":
        """F^{-1} of every node.

        The polynomial part transforms independently of centre and frequency:
        for the even Gaussian, F^{-1}[w^e G_A] = (-i)^{|e|} D^e F^{-1}[G_A], so
        the matrix rows come from one derivative table of
        F^{-1}[G_A] = det(A)^{-1/2} G_{A^{-1}}; centre and frequency trade
        places and contribute the phase e^{i freq.shift}.
        """
        d = self.dim
        Ainv = np.linalg.inv(self.quad)
        quad, zero = 0.5 * (Ainv + Ainv.T), (0,) * d
        derivs = {zero: {zero: det_inv_sqrt(self.quad)}}
        rows = []
        for e in self.expo:
            e = tuple(int(x) for x in e)
            k = _I_POW[-sum(e) % 4]
            rows.append({m: k * v for m, v in _derivative(quad, np.zeros(d), e, derivs).items()})
        expo, T = _basis_matrix(rows, d)
        phase = np.exp(1j * np.sum(self.freq * self.shift, axis=1))
        return _NodeFamily(quad, expo, (self.coef @ T) * phase[:, None],
                           -self.freq, self.shift.copy())


def as_families(phi) -> list:
    """phi as a list of node families whose values add (one per GaussPoly term)."""
    if isinstance(phi, _NodeFamily):
        return [phi]
    return [_NodeFamily.of(t) for t in as_terms(phi)]


def _basis_matrix(polys: list, dim: int):
    """(expo, T): T[m, k] is the coefficient of monomial expo[k] in polys[m]."""
    keys = sorted(set().union(*polys))
    col = {k: i for i, k in enumerate(keys)}
    T = np.zeros((len(polys), len(keys)), dtype=complex)
    for m, p in enumerate(polys):
        for k, c in p.items():
            T[m, col[k]] = c
    return np.array(keys, dtype=int).reshape(-1, dim), T


def _restrict_family(term: GaussPoly, fixed: list, values: np.ndarray) -> _NodeFamily:
    """term with the `fixed` coordinates frozen at each row of values (N, f)."""
    keep = [j for j in range(term.dim) if j not in fixed]
    A = term.quad
    Akk = A[np.ix_(keep, keep)]
    Akf = A[np.ix_(keep, fixed)]
    Aff = A[np.ix_(fixed, fixed)]
    q = values - term.shift[fixed]
    dvec = q @ Akf.T                # linear coefficient against (y - c_k)
    delta = np.linalg.solve(Akk, dvec.T).T
    const = np.exp(-0.5 * np.einsum("ni,ij,nj->n", q, Aff, q)
                   + 0.5 * np.sum(dvec * delta, axis=1) + 1j * (values @ term.freq[fixed]))
    # substitute the fixed coordinates into the polynomial: a matrix from the
    # distinct fixed-part exponents to the distinct kept-part exponents
    src = _NodeFamily.of(term)
    fexpo, frow = np.unique(src.expo[:, fixed], axis=0, return_inverse=True)
    expo, kcol = np.unique(src.expo[:, keep], axis=0, return_inverse=True)
    C = np.zeros((len(fexpo), len(expo)), dtype=complex)
    np.add.at(C, (frow.ravel(), kcol.ravel()), src.coef[0])
    coef = np.prod(q[:, None, :] ** fexpo[None, :, :], axis=2) @ C
    # poly was in w = y - c_k; the new center is c_k - delta, so w = w' - delta
    for j in range(len(keep)):
        if len(expo) and np.any(delta[:, j]):
            expo, coef = _shift_axis(expo, coef, j, -delta[:, j])
    freq = np.broadcast_to(term.freq[keep], delta.shape)
    return _NodeFamily(Akk, expo, coef * const[:, None], term.shift[keep] - delta, freq)


def _shift_axis(expo: np.ndarray, coef: np.ndarray, j: int, dj: np.ndarray):
    """Substitute w_j = w_j' + dj[i] at node i: (w_j' + dj)^e = sum_k C(e, k) dj^(e-k) w_j'^k."""
    from math import comb

    deg = expo[:, j]
    src = np.repeat(np.arange(len(expo)), deg + 1)
    k = np.concatenate([np.arange(e + 1) for e in deg])
    rows = expo[src]
    rows[:, j] = k
    out_expo, dst = np.unique(rows, axis=0, return_inverse=True)
    binom = np.array([comb(int(e), int(kk)) for e, kk in zip(deg[src], k)], dtype=float)
    scatter = np.zeros((src.size, len(out_expo)))
    scatter[np.arange(src.size), dst.ravel()] = 1.0
    return out_expo, (coef[:, src] * (binom * dj[:, None] ** (deg[src] - k))) @ scatter


# ------------------------------------------------------- oscillatory engine

def batched_osc_integral(phi, w: np.ndarray, tau: np.ndarray, table: bool = False) -> np.ndarray:
    """integral phi(u) exp(i w P_tau(u)) du for an array of w values.

    P_tau(u) = sum tau_j u_j^2 with tau_j = +-1.  For a GaussPoly or
    GaussMixture, w may have any shape and the terms add; for a node family
    (from `GaussPoly.restrict`) w has shape (N, Nw), row i for node i.
    Diagonal quadratic forms use a vectorized per-axis closed form; general
    forms are reduced to that case once per family by a tau-congruence S
    (S^T A S = |Lambda| diagonal and S^T tau S = tau), which leaves P
    invariant up to coordinate ordering.

    With table=True, phi is one term or one node family and the result gains
    a last axis over its monomials, in the order of the family's `expo` (for
    a GaussPoly, the order of `poly`): entry k is the integral of monomial k
    times its coefficient, so the sum over that axis is the plain value.
    """
    w = np.asarray(w, float)
    if isinstance(phi, _NodeFamily):
        return _osc_family(phi, w, tau, table)
    fams = as_families(phi)
    if table:
        if len(fams) != 1:
            raise ValueError("a moment table needs a single term")
        return _osc_family(fams[0], w.reshape(1, -1), tau, True).reshape(w.shape + (-1,))
    return sum(_osc_family(f, w.reshape(1, -1), tau) for f in fams).reshape(w.shape)


def node_blocks(count: int, nw: int) -> list:
    """Slices covering range(count), each of at most _OSC_BLOCK // nw nodes.

    A caller that contracts each engine result with its quadrature weights
    calls `batched_osc_integral` once per block, so no (N, Nw) value array
    over all N nodes is held.
    """
    step = max(1, _OSC_BLOCK // nw)
    return [slice(lo, lo + step) for lo in range(0, count, step)]


def _tau_diagonalize(fam: _NodeFamily, tau: np.ndarray):
    """Precompose with S such that the quadratic form becomes diagonal while
    sum tau_j u_j^2 keeps its shape: S = A^{-1/2} Q |L|^{1/2} with
    A^{1/2} tau A^{1/2} = Q L Q^T, columns ordered positives-first.

    Returns the diagonal family and the basis map B = |det S| T, T[k, j] the
    coefficient of the new monomial j in the image of the old monomial k,
    so the new coefficients are fam.coef @ B.
    """
    A = fam.quad
    lam_a, Va = np.linalg.eigh(A)
    B = Va @ np.diag(np.sqrt(lam_a)) @ Va.T          # A^{1/2}
    Binv = Va @ np.diag(lam_a ** -0.5) @ Va.T
    Mt = B @ np.diag(tau) @ B
    lam, Q = np.linalg.eigh(0.5 * (Mt + Mt.T))
    order = np.argsort(-lam)                         # positives first
    lam, Q = lam[order], Q[:, order]
    if not np.array_equal(np.sign(lam), tau):
        raise NonSPDQuadraticForm("signature mismatch in tau-congruence")
    S = Binv @ Q @ np.diag(np.sqrt(np.abs(lam)))
    expo, T = _basis_matrix([poly_linear_subst({tuple(int(x) for x in e): 1.0}, S)
                             for e in fam.expo], fam.dim)
    # the congruence leaves only roundoff off-diagonal mass; drop it
    quad = np.diag(np.diagonal(S.T @ A @ S))
    det = abs(np.linalg.det(S))
    return _NodeFamily(quad, expo, (fam.coef @ T) * det,
                       np.linalg.solve(S, fam.shift.T).T, fam.freq @ S), T * det


def _osc_family(fam: _NodeFamily, w: np.ndarray, tau: np.ndarray,
                table: bool = False) -> np.ndarray:
    """The engine on a family; with `table`, the (N, Nw, M) per-monomial table.

    Both modes build the same per-pass moment products mono and prefactor
    pref.  The plain mode folds the coefficients into mono and sums over
    monomials; the table mode keeps unit coefficients, maps the columns back
    through the basis map of the tau-congruence and then multiplies by the
    caller's coefficients.
    """
    user_coef, basis = fam.coef, None
    A = fam.quad
    if np.count_nonzero(A - np.diag(np.diagonal(A))):
        fam, basis = _tau_diagonalize(fam, tau)
    a, t = np.diagonal(fam.quad)[:, None], tau[:, None]
    expo = fam.expo
    axes = [j for j in range(fam.dim) if expo.size and expo[:, j].max() > 0]
    # per-axis arrays are laid out (axis, pair); node data is gathered per pass
    coef = np.ones((len(expo), len(fam)), dtype=complex) if table else fam.coef.T
    shift, freq = fam.shift.T, fam.freq.T
    phase = np.sum(fam.freq * fam.shift, axis=1)
    curv = fam.shift ** 2 @ tau
    nw = w.shape[1]
    out = np.empty((w.size, user_coef.shape[1]) if table else w.size, dtype=complex)
    for lo in range(0, w.size, _OSC_CHUNK):
        i, jw = np.divmod(np.arange(lo, min(lo + _OSC_CHUNK, w.size)), nw)
        wc = w[i, jw]
        beta = a - 2j * t * wc
        lin = 1j * freq[:, i] + (2j * t * wc) * shift[:, i]
        mu = lin / beta
        # per axis sqrt(2 pi / beta) e^{lin mu / 2}, times the center phase;
        # Re beta = a > 0 keeps arg(beta) in (-pi/2, pi/2), so the principal
        # roots multiply as exp(-1/2 sum log beta)
        expo_sum = -0.5 * np.sum(0.5 * np.log(a ** 2 + 4.0 * wc ** 2)
                                 + 1j * np.arctan2(-2.0 * t * wc, a) - lin * mu, axis=0)
        pref = (2 * np.pi) ** (fam.dim / 2) * np.exp(expo_sum + 1j * (phase[i] + wc * curv[i]))
        # E[(mu + sigma N)^m] per axis, sigma^2 = 1/beta, by the recursion
        # m_k = mu m_{k-1} + (k - 1) sigma^2 m_{k-2}, gathered per monomial
        mono = coef[:, i]
        for j in axes:
            deg = int(expo[:, j].max())
            sig2 = 1.0 / beta[j]
            mom = np.empty((deg + 1, i.size), dtype=complex)
            mom[0], mom[1] = 1.0, mu[j]
            for k in range(2, deg + 1):
                mom[k] = mu[j] * mom[k - 1] + (k - 1) * sig2 * mom[k - 2]
            mono *= mom[expo[:, j]]
        if not table:
            out[lo:lo + i.size] = pref * np.sum(mono, axis=0)
            continue
        tab = pref * mono
        if basis is not None:
            tab = basis @ tab
        out[lo:lo + i.size] = (tab * user_coef.T[:, i]).T
    return out.reshape(w.shape + out.shape[1:])
