"""Exact calculus on polynomial-times-Gaussian test functions.

A term has the form

    phi(u) = sum_m  coef[m] (u-c)^expo[m] * exp(-1/2 (u-c)^T A (u-c)) * exp(i b.u)

with A real symmetric positive definite, center c and frequency b real, an
integer exponent array expo of shape (M, dim) and complex coefficients.  The
one representation of a finite sum of terms is `GaussMixture`: N terms with
forms (N, dim, dim), centres and frequencies (N, dim), one shared expo and
coef of shape (N, M).  A GaussPoly is one term (its `stack` is the one-term
mixture), and the restrictions of one term at N nodes form a mixture whose
terms share one form, a node family.  Every operation runs on all terms at
once, and the class is closed under differentiation, multiplication by
coordinates, precomposition with invertible real affine maps and the
Fourier transform.  A mixture's values (evaluate, integral,
integrate_against) are the sums over its terms; the oscillatory engine
gives one value per term.  Forms are validated where they enter: the
GaussPoly constructor and JSON input check each form, and an operation that
derives new forms checks all terms in one call.  A {monomial: coef} dict is
an input format only.

Inside an operation a polynomial is a dense coefficient array over the graded
monomial basis (`_Graded`), where d/dw_j and multiplication by w_j are cached
index maps; results go back to (expo, coef) with only their nonzero monomials.

Fourier convention (fixed once for the whole package):

    F[phi](xi) = (2 pi)^{-d/2} integral phi(u) exp(-i <u, xi>) du

so that F o F = reflection and [F^{-1} psi](0) = (2 pi)^{-d/2} integral psi.

The oscillatory engine `batched_osc_integral` integrates each term of a node
family against exp(i w P_tau(u)) in closed form for the kernel pairings, and
`integrate_against` integrates terms against exp(-1/2 u^T W u + eta.u) for
complex symmetric W with positive-definite Re(A + W) (principal branch of
det^{-1/2}); every integral, plain or against W, is that one batched routine,
with the moments of the polynomial part from one recursion over the graded
basis.
"""
from __future__ import annotations

import json
import math
from collections.abc import Sequence
from dataclasses import InitVar, dataclass
from functools import lru_cache

import numpy as np

from .errors import DimensionMismatch, NonSPDQuadraticForm, SingularAffineMap

_I_POW = (1.0, 1j, -1.0, -1j)  # i^k by k mod 4, exact


# ------------------------------------------------------------ graded basis

_BINOM = np.array([[math.comb(n, k) for k in range(64)] for n in range(64)], dtype=np.int64)


def _rank(expo: np.ndarray) -> np.ndarray:
    """Position of each exponent row (last axis) in the graded order of `_Graded`.

    A monomial of degree k comes after the C(k-1+d, d) monomials of lower
    degree, then ranks by its tail (expo[1:]) in d-1 variables.
    """
    d = expo.shape[-1]
    tail_deg = np.cumsum(expo[..., ::-1], axis=-1)[..., ::-1]
    j = np.arange(d)
    return _BINOM[tail_deg + (d - 1 - j), d - j].sum(axis=-1)


def _degree(expo: np.ndarray) -> int:
    return int(expo.sum(axis=1).max(initial=0))


class _Graded:
    """The monomials of degree <= deg in dim variables, in graded order.

    Lower degrees form a prefix, so the basis of a lower degree is a prefix of
    this one.  A polynomial is a dense array (..., n + 1) over the n rows of
    expo plus a last slot that stays zero; up[j] and down[j] map each position
    to that of expo + e_j and expo - e_j (the zero slot where that leaves the
    basis), so d/dw_j and multiplication by w_j are gathers.
    """

    def __init__(self, dim: int, deg: int):
        expo = np.zeros((1, 0), dtype=int)
        for v in range(1, dim + 1):
            # prepend a variable: degree-k rows over the tails of degree <= k
            expo = np.concatenate([
                np.column_stack([k - expo[:c].sum(axis=1), expo[:c]])
                for k in range(deg + 1) for c in [math.comb(k + v - 1, v - 1)]])
        n = len(expo)
        self.expo, self.n = expo, n
        self.up = np.full((dim, n + 1), n)
        self.down = np.full((dim, n + 1), n)
        for j in range(dim):
            pos = _rank(expo + np.eye(dim, dtype=int)[j])
            inside = pos < n
            self.up[j, :n][inside] = pos[inside]
            self.down[j, pos[inside]] = np.flatnonzero(inside)
        self.fac = np.concatenate([expo.T + 1, np.zeros((dim, 1), dtype=int)], axis=1)
        self.unit = np.eye(1, n + 1, dtype=complex)[0]
        self._down_by: dict = {}

    def dense(self, expo: np.ndarray, coef: np.ndarray) -> np.ndarray:
        """coef (..., M) over the rows of expo as a dense array; repeated rows add."""
        out = np.zeros(np.shape(coef)[:-1] + (self.n + 1,), dtype=complex)
        np.add.at(out.T, _rank(expo), np.transpose(coef))
        return out

    def sparse(self, v: np.ndarray):
        """(expo, coef) of the positions where some row of v is nonzero."""
        cols = np.flatnonzero(np.any(v.reshape(-1, self.n + 1) != 0, axis=0))
        return self.expo[cols], v[..., cols]

    def partial(self, v: np.ndarray, j: int) -> np.ndarray:
        """d/dw_j."""
        return v[..., self.up[j]] * self.fac[j]

    def times(self, v: np.ndarray, e: tuple) -> np.ndarray:
        """Multiplication by w^e: one gather by the composed down maps."""
        if e not in self._down_by:
            idx = np.arange(self.n + 1)
            for j, k in enumerate(e):
                for _ in range(k):
                    idx = self.down[j][idx]
            self._down_by[e] = idx
        return v[..., self._down_by[e]]


@lru_cache(maxsize=64)
def _graded(dim: int, deg: int) -> _Graded:
    return _Graded(dim, deg)


def collect(expo: np.ndarray, coef: np.ndarray):
    """(expo, coef) with repeated rows added and zero monomials dropped."""
    b = _graded(expo.shape[1], _degree(expo))
    return b.sparse(b.dense(expo, coef))


def _product(p: tuple, q: tuple) -> tuple:
    """The product of two (expo, coef) polynomials, rows not yet collected."""
    (ep, cp), (eq, cq) = p, q
    return (ep[:, None] + eq[None]).reshape(-1, ep.shape[1]), np.outer(cp, cq).ravel()


def axis_monomial(dim: int, j: int, k: int = 1) -> tuple:
    m = [0] * dim
    m[j] = k
    return tuple(m)


def _d_op(dim: int, axis: int) -> list:
    """d/du_axis as operator data (see `apply_operator`)."""
    return [(np.zeros((1, dim), dtype=int), np.ones(1), axis_monomial(dim, axis))]


def _shift(expo: np.ndarray, coef: np.ndarray, delta):
    """Re-expand sum_m coef[..., m] w^expo[m] in w' = w - delta (substitute w = w' + delta).

    coef is (M,) with delta (dim,), or (N, M) with one row of delta per node;
    p(w' + delta) = exp(delta . grad) p, one axis at a time.
    """
    b = _graded(expo.shape[1], _degree(expo))
    v = b.dense(expo, coef)
    delta = np.asarray(delta)
    for j in np.flatnonzero(np.any(delta.reshape(-1, expo.shape[1]) != 0, axis=0)):
        g = v
        for r in range(1, int(expo[:, j].max(initial=0)) + 1):
            g = b.partial(g, j) * (delta[..., j, None] / r)
            v = v + g
    return b.sparse(v)


def _linear_subst(expo: np.ndarray, S: np.ndarray):
    """Substitution w = S_k y for S (d, d) or (K, d, d): (expo', T) with T[k, m, j]
    the coefficient of y^expo'[j] in (S_k y)^expo[m] (see `_contract`)."""
    S = np.asarray(S).reshape((-1,) + np.shape(S)[-2:]).astype(complex)
    K, d = S.shape[:2]
    b = _graded(d, _degree(expo))
    table = {(0,) * d: np.broadcast_to(b.unit, (K, b.n + 1))}
    rows = [_table(table, e, lambda j, p: (S[:, j, None] @ p[:, b.down])[:, 0])  # p (S y)_j
            for e in map(tuple, expo.tolist())]
    expo, T = b.sparse(np.array(rows).reshape(len(expo), K, b.n + 1))
    return expo, T.transpose(1, 0, 2)


def _contract(coef: np.ndarray, T: np.ndarray) -> np.ndarray:
    """coef (N, M) mapped by T: one shared map (1, M, M') or one per term (N, M, M')."""
    return coef @ T[0] if len(T) == 1 else np.einsum("nm,nmk->nk", coef, T)


def _table(table: dict, alpha: tuple, step):
    """table[alpha], memoised: step(j, table[alpha - e_j]) for the last axis j of alpha."""
    if alpha not in table:
        j = max(i for i, a in enumerate(alpha) if a)
        table[alpha] = step(j, _table(table, alpha[:j] + (alpha[j] - 1,) + alpha[j + 1:], step))
    return table[alpha]


def _derivative(b: _Graded, quad: np.ndarray, freq: np.ndarray):
    """The step of a D^alpha table of the terms with forms `quad` (N, d, d) and
    frequencies `freq` (N, d), table entries (N, n + 1):
    d/du_j [p G] = [d_j p - (A w)_j p + i b_j p] G for w = u - c."""
    quad = quad.astype(complex)  # a real-complex matmul would take numpy's slow loop

    def step(j, p):
        q = b.partial(p, j) - (quad[:, j, None] @ p[:, b.down])[:, 0]
        return q + 1j * freq[:, j, None] * p if freq[:, j].any() else q
    return step


# ------------------------------------------------------- Gaussian integrals

def _moments(S: np.ndarray, mu: np.ndarray, deg: int) -> np.ndarray:
    """E[w^a] for every monomial a of the graded basis of degree <= deg, as
    (n + 1, N) with the last row 0, for the (complex) Gaussians with
    covariance S (N, d, d) and mean mu (N, d).

    Stein's identity E[w^{a+e_j}] = mu_j E[w^a] + sum_k S_jk a_k E[w^{a-e_k}]
    fills one degree at a time, raising each monomial from its parent
    a = expo - e_j on its first nonzero axis j, as gathers on `down`; rows
    over the terms keep each gather contiguous.  The engine's per-axis
    recursion (`batched_osc_integral`) needs a diagonal form; here a complex
    W couples the axes, so the recursion runs over the whole basis.
    """
    d = mu.shape[1]
    b = _graded(d, deg)
    mom = np.zeros((b.n + 1, len(mu)), dtype=complex)
    mom[0] = 1.0
    start = 1
    for k in range(1, deg + 1):
        pos = np.arange(start, start + math.comb(k + d - 1, k))   # the monomials of degree k
        j = np.argmax(b.expo[pos] > 0, axis=1)
        a = b.down[j, pos]
        new = mu[:, j].T * mom[a]
        for i in range(d):
            new += S[:, j, i].T * b.expo[a, i, None] * mom[b.down[i, a]]
        mom[pos] = new
        start = pos[-1] + 1
    return mom


def det_inv_sqrt(M: np.ndarray):
    """det(M)^{-1/2} for complex symmetric M with Re M positive definite, or for
    each matrix of a stack (..., d, d).

    A real M is positive definite and the value is 1 / prod diag(L) for its
    Cholesky factor L.  For a complex M the branch is the analytic
    continuation from real SPD matrices: every eigenvalue of M lies in the
    open right half-plane, so the product of principal inverse square roots
    is the continued branch.
    """
    if not np.iscomplexobj(M):
        try:
            L = np.linalg.cholesky(M)
        except np.linalg.LinAlgError:
            raise NonSPDQuadraticForm("quadratic form is not positive definite") from None
        return 1.0 / np.prod(np.diagonal(L, axis1=-2, axis2=-1), axis=-1)
    lam = np.linalg.eigvals(M)
    if np.any(lam.real <= 0):
        raise NonSPDQuadraticForm("Re part of the quadratic form is not positive definite")
    return np.prod(lam ** -0.5, axis=-1)


# ------------------------------------------------------------------- class

def _check_symmetric(A: np.ndarray) -> np.ndarray:
    """The transpose of A (d, d) or of each form of a stack (N, d, d), after one
    batched check that A is symmetric (np.allclose with atol 1e-12)."""
    At = np.swapaxes(A, -1, -2)
    if not np.all(np.abs(A - At) <= 1e-12 + 1e-5 * np.abs(At)):
        raise NonSPDQuadraticForm("quadratic form must be symmetric")
    return At


def _as_spd(A: np.ndarray, ndim: int = 2) -> np.ndarray:
    """A symmetrised, after checking that it is symmetric (`_check_symmetric`)
    and positive definite; ndim 3 checks a stack (N, d, d) in one call."""
    A = np.asarray(A, dtype=float)
    if A.ndim != ndim or A.shape[-1] != A.shape[-2]:
        raise NonSPDQuadraticForm("quadratic form must be a square matrix")
    At = _check_symmetric(A)
    if np.linalg.eigvalsh(A).min() <= 0:
        raise NonSPDQuadraticForm("quadratic form must be positive definite")
    return 0.5 * (A + At)


@dataclass
class GaussPoly:
    """One polynomial-times-Gaussian term; see module docstring for the form.

    The polynomial is given either as `poly`, a {monomial tuple: coefficient}
    dict (input only, not kept), or as the arrays `expo` (M, dim) and `coef`
    (M,) that every term holds; zero coefficients are dropped.
    """

    dim: int
    quad: np.ndarray
    poly: InitVar[dict | None] = None
    shift: np.ndarray | None = None
    freq: np.ndarray | None = None
    expo: np.ndarray | None = None
    coef: np.ndarray | None = None

    def __post_init__(self, poly):
        self.quad = _as_spd(self.quad)
        if self.quad.shape[0] != self.dim:
            raise DimensionMismatch("quad size does not match dim")
        self.shift = np.zeros(self.dim) if self.shift is None else np.asarray(self.shift, float)
        self.freq = np.zeros(self.dim) if self.freq is None else np.asarray(self.freq, float)
        if self.shift.shape != (self.dim,) or self.freq.shape != (self.dim,):
            raise DimensionMismatch("shift/freq size does not match dim")
        if poly is not None:
            for m in poly:
                if len(m) != self.dim:
                    raise DimensionMismatch(f"monomial {m} does not have {self.dim} exponents")
            self.expo, self.coef = list(poly), list(poly.values())
        expo, coef = ((), ()) if self.expo is None else (self.expo, self.coef)
        self.expo = np.asarray(expo, dtype=int).reshape(-1, self.dim)
        self.coef = np.asarray(coef, dtype=complex)
        if len(self.coef) != len(self.expo):
            raise DimensionMismatch("expo and coef have different lengths")
        if np.any(self.expo < 0):
            raise ValueError("monomial exponents must be nonnegative")
        if not np.all(self.coef):
            self.expo, self.coef = self.expo[self.coef != 0], self.coef[self.coef != 0]

    def _with(self, expo, coef) -> "GaussPoly":
        """This Gaussian with the polynomial (expo, coef)."""
        return GaussPoly(self.dim, self.quad, shift=self.shift, freq=self.freq,
                         expo=expo, coef=coef)

    @property
    def stack(self) -> "GaussMixture":
        """This term as a one-term mixture."""
        return GaussMixture._of(self.quad, self.expo, self.coef[None], self.shift[None],
                                self.freq[None])

    # -- constructors -------------------------------------------------------
    @classmethod
    def gaussian(cls, quad, shift=None, coeff=1.0) -> "GaussPoly":
        quad = np.atleast_2d(np.asarray(quad, float))
        d = quad.shape[0]
        return cls(d, quad, shift=shift, expo=np.zeros((1, d), dtype=int), coef=[coeff])

    @classmethod
    def iso_gaussian(cls, dim: int, a: float = 1.0, coeff=1.0) -> "GaussPoly":
        """exp(-a |u|^2 / 2) (times coeff)."""
        return cls.gaussian(a * np.eye(dim), coeff=coeff)

    # -- pointwise ----------------------------------------------------------
    def evaluate(self, u) -> complex:
        return complex(self.evaluate_many(np.asarray(u, float)[None, :])[0])

    def evaluate_many(self, U: np.ndarray) -> np.ndarray:
        return self.stack.evaluate_many(U)

    # -- algebra ------------------------------------------------------------
    def scaled(self, c) -> "GaussPoly":
        return self._with(self.expo, self.coef * c)

    def plus(self, other: "GaussPoly") -> "GaussPoly":
        """Sum of two terms sharing (quad, shift, freq)."""
        if not (np.array_equal(self.quad, other.quad)
                and np.array_equal(self.shift, other.shift)
                and np.array_equal(self.freq, other.freq)):
            raise DimensionMismatch("plus() needs identical Gaussian data; use GaussMixture")
        return self._with(*collect(np.concatenate([self.expo, other.expo]),
                                    np.concatenate([self.coef, other.coef])))

    def differentiate(self, axis: int) -> "GaussPoly":
        """d/du_axis, exact."""
        return apply_operator(self, _d_op(self.dim, axis))

    def multiply_monomial(self, mono) -> "GaussPoly":
        """Multiply by u^mono (absolute coordinates)."""
        return apply_operator(self, [(np.array([mono]), np.ones(1), (0,) * self.dim)])

    def multiply_linear(self, coeffs, const=0.0) -> "GaussPoly":
        """Multiply by (coeffs . u + const)."""
        rows = np.concatenate([np.eye(self.dim, dtype=int), np.zeros((1, self.dim), dtype=int)])
        return apply_operator(self, [(rows, np.append(coeffs, const), (0,) * self.dim)])

    def precompose_affine(self, M, v) -> "GaussPoly":
        """phi(M u + v), with M invertible real."""
        return self.stack.precompose_affine(M, v).term(0)

    def laplacian(self) -> "GaussPoly":
        one = np.zeros((1, self.dim), dtype=int)
        return apply_operator(self, [(one, np.ones(1), axis_monomial(self.dim, j, 2))
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
        return self.stack.inverse_fourier().term(0)

    def partial_fourier(self, axes) -> "GaussPoly":
        """Fourier transform in the listed axes only (see `GaussMixture.fourier`).

        Requires the quadratic form to be block diagonal between `axes` and
        the remaining coordinates (true for all product test functions used
        here).
        """
        t = np.zeros(self.dim, dtype=bool)
        t[list(axes)] = True
        return self.stack.fourier(t).term(0)

    # -- restriction --------------------------------------------------------
    def restrict(self, fixed_axes, values):
        """phi with the listed coordinates frozen at numeric values.

        `values` of shape (f,) gives one GaussPoly; an (N, f) array gives the
        N restrictions at once as a node family (a GaussMixture whose terms
        share one form), which `batched_osc_integral` and `kernels.inv_p_power`
        take.

        Works for a general quadratic form: the cross terms contribute a real
        linear exponential absorbed by recentering the kept Gaussian.
        """
        values = np.asarray(values, float)
        fam = _restrict_family(self, list(fixed_axes), np.atleast_2d(values))
        return fam if values.ndim == 2 else fam.term(0)

    # -- integrals ----------------------------------------------------------
    def integral(self) -> complex:
        """integral phi(u) du, exact (see `GaussMixture.integrate_against`)."""
        return complex(self.stack._integrals()[0])

    def integrate_against(self, W=None, eta=None) -> complex:
        """integral phi(u) exp(-1/2 u^T W u + eta.u) du (see `GaussMixture.integrate_against`)."""
        return complex(self.stack._integrals(W, eta)[0])

    # -- serialization ------------------------------------------------------
    def to_json_dict(self) -> dict:
        return {
            "dim": self.dim,
            "quad": self.quad.tolist(),
            "shift": self.shift.tolist(),
            "freq": self.freq.tolist(),
            "poly": sorted([m + [float(c.real), float(c.imag)]
                            for m, c in zip(self.expo.tolist(), self.coef)]),
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


# Pointwise evaluation holds at most about _EVAL_CHUNK (point, term) pairs at
# once: the points go in chunks of _EVAL_CHUNK, the terms of each centre in
# blocks of _EVAL_CHUNK // (points in the chunk).
_EVAL_CHUNK = 8192


class GaussMixture(Sequence):
    """A finite sum of N terms over one list of monomials (see the module docstring).

    Term i has form quad[i], centre shift[i], frequency freq[i] and
    polynomial sum_m coef[i, m] (u - shift[i])^expo[m].  `GaussMixture(terms)`
    takes GaussPoly terms and mixtures over one dim and holds their terms
    over the union of their monomials; `_of` wraps the arrays unchecked.  A
    node family (the restrictions of one term), like any mixture whose terms
    have one form, holds it as a broadcast view (`form`).  An integer index
    builds that term as a GaussPoly; an index array or a slice gives the
    mixture of those terms.  evaluate, integral and integrate_against sum the
    terms, while the oscillatory engine gives one value per term.
    """

    __slots__ = ("quad", "expo", "coef", "shift", "freq")

    def __init__(self, terms):
        parts = [t.stack for t in terms]
        if not parts:
            raise DimensionMismatch("mixture needs at least one term")
        if len({s.dim for s in parts}) != 1:
            raise DimensionMismatch("mixture terms must share dim")
        self.quad, self.expo, self.coef, self.shift, self.freq = _concat(parts)

    @classmethod
    def _of(cls, quad, expo, coef, shift, freq) -> "GaussMixture":
        """The mixture of these arrays, unchecked: quad holds one form per
        term (N, d, d), or one form (d, d) that all terms share as a
        broadcast view."""
        out = cls.__new__(cls)
        out.quad = np.broadcast_to(quad, (len(coef),) + np.shape(quad)[-2:])
        out.expo, out.coef, out.shift, out.freq = expo, coef, shift, freq
        return out

    @property
    def dim(self) -> int:
        return self.quad.shape[-1]

    def __len__(self) -> int:
        return self.coef.shape[0]

    @property
    def form(self) -> np.ndarray | None:
        """The form of every term when all share one (a broadcast view), else None."""
        return self.quad[0] if len(self) == 1 or self.quad.strides[0] == 0 else None

    @property
    def stack(self) -> "GaussMixture":
        """The mixture itself, as `GaussPoly.stack` is the one-term mixture."""
        return self

    terms = stack

    def __getitem__(self, idx):
        if isinstance(idx, (int, np.integer)):
            return self.term(idx)
        quad = self.quad[idx] if self.form is None else self.form
        return GaussMixture._of(quad, self.expo, self.coef[idx], self.shift[idx], self.freq[idx])

    def term(self, i: int) -> GaussPoly:
        return GaussPoly(self.dim, self.quad[i], shift=self.shift[i], freq=self.freq[i],
                         expo=self.expo, coef=self.coef[i])

    # -- pointwise ----------------------------------------------------------
    def evaluate(self, u) -> complex:
        return complex(self.evaluate_many(np.asarray(u, float)[None, :])[0])

    def evaluate_many(self, U) -> np.ndarray:
        """The sum of the terms at each row u of U (P, dim), as one blocked
        contraction.

        The terms are grouped by centre c (with -0.0 read as 0.0).  Per group
        and chunk of points, W = U - c gives the quadratic features W_i W_j
        (i <= j) and the basis of the group's monomials.  Per block of terms,
        one product of the forms' entries with the features gives every
        exponent -1/2 W^T A W, and one product of the (N, M) coefficient
        matrix with the basis every polynomial.  Both products and the
        exponential are real (the real and imaginary coefficients are
        separate rows); the phase e^{i U.b} is applied only to a block with a
        nonzero frequency.
        """
        U = np.asarray(U, float)
        if U.ndim != 2 or U.shape[1] != self.dim:
            raise DimensionMismatch("points have wrong dimension")
        iu, ju = np.triu_indices(self.dim)
        weight = np.where(iu == ju, -0.5, -1.0)
        shift = self.shift + 0.0
        _, first, group = np.unique(shift, axis=0, return_index=True, return_inverse=True)
        prepared = []
        for g in np.argsort(first):   # the centres in order of first appearance
            rows = np.flatnonzero(group.ravel() == g)
            cols = np.flatnonzero(self.coef[rows].any(axis=0))
            c = self.coef[np.ix_(rows, cols)]
            prepared.append((shift[rows[0]], self.expo[cols],
                             np.stack([c.real, c.imag], axis=1),   # (N, 2, M)
                             self.quad[rows][:, iu, ju] * weight, self.freq[rows]))
        out = np.zeros((2, len(U)))  # real and imaginary parts
        for lo in range(0, len(U), _EVAL_CHUNK):
            Uc = U[lo:lo + _EVAL_CHUNK]
            acc = out[:, lo:lo + len(Uc)]
            step = max(1, _EVAL_CHUNK // len(Uc))
            for shift, expo, parts, quad, freq in prepared:
                W = (Uc - shift).T
                feats = W[iu] * W[ju]
                basis = np.ones((len(expo), len(Uc)))
                for j in np.flatnonzero(expo.any(axis=0)):
                    powers = np.ones((expo[:, j].max() + 1, len(Uc)))
                    for k in range(1, len(powers)):
                        powers[k] = powers[k - 1] * W[j]
                    basis *= powers[expo[:, j]]
                for b in range(0, len(parts), step):
                    blk = slice(b, b + step)
                    ex = np.exp(quad[blk] @ feats)
                    p = parts[blk]
                    vals = (p.reshape(2 * len(p), -1) @ basis).reshape(len(p), 2, -1)
                    if freq[blk].any():
                        z = np.sum((vals[:, 0] + 1j * vals[:, 1]) * ex
                                   * np.exp(1j * (freq[blk] @ Uc.T)), axis=0)
                        acc += [z.real, z.imag]
                    else:
                        acc += np.sum(vals * ex[:, None], axis=0)
        return out[0] + 1j * out[1]

    # -- algebra ------------------------------------------------------------
    def map_terms(self, f) -> "GaussMixture":
        """f applied to each term (a GaussPoly) on its own."""
        return GaussMixture([f(t) for t in self])

    def scaled(self, c) -> "GaussMixture":
        """Every term times c: a number, or one per term (N, 1)."""
        return GaussMixture._of(self.quad, self.expo, self.coef * c, self.shift, self.freq)

    def __add__(self, other):
        return GaussMixture([self, other])

    def differentiate(self, axis) -> "GaussMixture":
        return apply_operator(self, _d_op(self.dim, axis))

    def precompose_affine(self, M, v) -> "GaussMixture":
        """Each term at M u + v, for one invertible real M (d, d) and v (d,)
        or for one per term, M (N, d, d) and v (N, d)."""
        M, v = np.asarray(M, float), np.asarray(v, float)
        if np.any(np.abs(np.linalg.det(M)) < 1e-300):
            raise SingularAffineMap("affine precomposition needs invertible M")
        expo, T = _linear_subst(self.expo, M)
        phase = np.exp(1j * np.sum(self.freq * v, axis=-1))
        Mt = np.swapaxes(M, -1, -2)
        return GaussMixture._of(_as_spd(Mt @ self.quad @ M, 3), expo,
                                _contract(self.coef, T) * phase[:, None],
                                np.linalg.solve(M, (self.shift - v)[..., None])[..., 0],
                                (Mt @ self.freq[..., None])[..., 0])

    # -- Fourier ------------------------------------------------------------
    def fourier(self, t: np.ndarray | None = None, sign: int = 1) -> "GaussMixture":
        """F (sign 1) or F^{-1} (sign -1) of every term in the axes of the mask t
        (default all); each form must be symmetric (one batched check before the
        inversion, which symmetrises) and block diagonal between t and the rest.

        With a the part of a monomial on t, F^{+-1}[w^a G_A] =
        (+-i)^{|a|} D^a[det(A)^{-1/2} G_{A^{-1}}] for the even Gaussian, so
        every monomial reads its image from one derivative table of that
        Gaussian (one table for a shared form, one entry per term otherwise),
        times its part on the other axes; on t, centre and frequency trade
        places and contribute the phase e^{i freq.shift}.
        """
        t = np.ones(self.dim, dtype=bool) if t is None else t
        quad = self.quad if self.form is None else self.form[None]   # one per table entry
        _check_symmetric(quad)   # the block inverse below is symmetrised
        if np.any(quad[:, t][:, :, ~t]):
            raise DimensionMismatch("partial_fourier needs block-diagonal quad")
        At = quad[:, t][:, :, t]
        At_inv = np.linalg.inv(At)
        ti = np.flatnonzero(t)
        quad = quad.copy()
        quad[:, ti[:, None], ti] = 0.5 * (At_inv + np.swapaxes(At_inv, 1, 2))
        quad = _as_spd(quad, 3)
        b = _graded(self.dim, _degree(self.expo))
        table = {(0,) * self.dim: np.broadcast_to(b.unit, (len(quad), b.n + 1))}
        step = _derivative(b, quad, np.zeros((len(quad), self.dim)))
        rows = [_I_POW[sign * sum(a) % 4] * b.times(_table(table, tuple(a), step), k)
                for a, k in zip((self.expo * t).tolist(), map(tuple, (self.expo * ~t).tolist()))]
        expo, T = b.sparse(np.array(rows).reshape(len(self.expo), len(quad), b.n + 1))
        phase = det_inv_sqrt(At) * np.exp(1j * np.sum(self.freq[:, t] * self.shift[:, t], axis=1))
        return GaussMixture._of(quad, expo,
                                _contract(self.coef, T.transpose(1, 0, 2)) * phase[:, None],
                                np.where(t, sign * self.freq, self.shift),
                                np.where(t, -sign * self.shift, self.freq))

    def inverse_fourier(self) -> "GaussMixture":
        """F^{-1} of every term."""
        return self.fourier(sign=-1)

    # -- integrals ----------------------------------------------------------
    def integral(self) -> complex:
        """integral of the sum, exact (see `integrate_against`)."""
        return self.integrate_against()

    def integrate_against(self, W=None, eta=None) -> complex:
        """The sum over the terms i of integral phi_i(u) exp(-1/2 u^T W u + eta.u) du,
        for W (d, d) complex symmetric with Re(A_i + W) positive definite and
        eta (d,) complex (default 0: the plain integral); only the symmetric
        part of W enters (`_integrals`)."""
        return complex(self._integrals(W, eta).sum())

    def _integrals(self, W=None, eta=None) -> np.ndarray:
        """The integral of each term against exp(-1/2 u^T W u + eta.u).

        With u = w + c, M = A + W, lin = i b + eta - W c and
        k = (i b + eta).c - 1/2 c^T W c, a term integrates to
        (2 pi)^{d/2} det(M)^{-1/2} e^{lin.mu / 2 + k} sum_m coef[m] E[w^expo[m]],
        the moments of the Gaussian with covariance M^{-1} and mean
        mu = M^{-1} lin (`_moments`).
        """
        d = self.dim
        M, c, lin = self.quad, self.shift, 1j * self.freq
        if eta is not None:
            eta = np.asarray(eta)
            if eta.shape != (d,):
                raise DimensionMismatch(f"eta must have shape ({d},)")
            lin = lin + eta
        k = np.sum(lin * c, axis=1)
        if W is not None:
            W = np.asarray(W)
            if W.shape != (d, d):
                raise DimensionMismatch(f"W must have shape ({d}, {d})")
            W = 0.5 * (W + W.T)
            Wc = c @ W
            M, lin, k = M + W, lin - Wc, k - 0.5 * np.sum(Wc * c, axis=1)
        deg = _degree(self.expo)
        mu = np.linalg.solve(M, lin[..., None])[..., 0] if lin.any() else np.zeros((len(self), d))
        S = np.linalg.inv(M) if deg else None
        poly = np.sum(self.coef * _moments(S, mu, deg)[_rank(self.expo)].T, axis=1)
        pref = (2 * np.pi) ** (d / 2) * det_inv_sqrt(M)
        return pref * np.exp(0.5 * np.sum(lin * mu, axis=1) + k) * poly


def _concat(parts: list) -> tuple:
    """(quad, expo, coef, shift, freq) of the terms of all mixtures, over the
    union of their monomials; one form shared by every term stays one."""
    if len(parts) == 1:
        s = parts[0]
        return s.quad, s.expo, s.coef, s.shift, s.freq
    expo = np.concatenate([s.expo for s in parts])
    _, first, col = np.unique(_rank(expo), return_index=True, return_inverse=True)
    coef = np.zeros((sum(map(len, parts)), len(first)), dtype=complex)
    lo = m = 0
    for s in parts:
        np.add.at(coef[lo:lo + len(s)].T, col[m:m + len(s.expo)], s.coef.T)
        lo, m = lo + len(s), m + len(s.expo)
    quad = np.concatenate([s.quad for s in parts])
    return (np.broadcast_to(quad[:1], quad.shape) if np.all(quad == quad[:1]) else quad,
            expo[first], coef, np.concatenate([s.shift for s in parts]),
            np.concatenate([s.freq for s in parts]))


def as_terms(phi) -> list:
    """phi as a list of GaussPoly terms (accepts GaussPoly or GaussMixture)."""
    return list(phi.terms) if isinstance(phi, GaussMixture) else [phi]


# ---------------------------------------------------- differential operators

def apply_operator(phi, op: list):
    """sum_i c_i(u) D^{alpha_i} phi, exact, for op = [(expo_i, coef_i, alpha_i), ...].

    c_i is the polynomial (expo_i, coef_i) in absolute coordinates u, alpha_i
    a derivative multi-index.  Each term of phi gives one term: every
    distinct derivative is one table entry over all terms, and each c_i is
    re-expanded in the centred variables u - shift of all terms at once.
    """
    if any(len(alpha) != phi.dim for *_, alpha in op):
        raise DimensionMismatch(f"operator does not act on functions over R^{phi.dim}")
    raise_deg = max((_degree(e) + sum(alpha) for e, _, alpha in op), default=0)
    s = phi.stack
    b = _graded(s.dim, _degree(s.expo) + raise_deg)
    table = {(0,) * s.dim: b.dense(s.expo, s.coef)}
    step = _derivative(b, s.quad, s.freq)
    acc = np.zeros((len(s), b.n + 1), dtype=complex)
    for expo, coef, alpha in op:
        if s.shift.any():
            expo, coef = _shift(expo, np.broadcast_to(coef, (len(s), len(coef))), s.shift)
        d = _table(table, alpha, step)
        acc += sum(c[..., None] * b.times(d, tuple(e)) for e, c in zip(expo.tolist(), coef.T))
    out = GaussMixture._of(s.quad, *b.sparse(acc), s.shift, s.freq)
    return out.term(0) if isinstance(phi, GaussPoly) else out


# ------------------------------------------------------------- node families

# The one working-set budget of the oscillatory engine's passes (`_tile`) and
# its callers' blocked loops (`osc_items`): a one-monomial table pass covers a
# couple of thousand pairs and a wide polynomial pass several hundred.
_OSC_BYTES = 16384 * 16


def _restrict_family(term: GaussPoly, fixed: list, values: np.ndarray) -> GaussMixture:
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
    # substitute the fixed coordinates into the polynomial; it was in
    # w = y - c_k and the new center is c_k - delta, so w = w' - delta
    coef = np.broadcast_to(term.coef, (len(q), len(term.coef)))
    for i, e in enumerate(term.expo[:, fixed].T):
        coef = coef * np.vander(q[:, i], e.max(initial=0) + 1, increasing=True)[:, e]
    expo, coef = _shift(term.expo[:, keep], coef, -delta)
    freq = np.broadcast_to(term.freq[keep], delta.shape)
    return GaussMixture._of(Akk, expo, coef * const[:, None], term.shift[keep] - delta, freq)


# ------------------------------------------------------- oscillatory engine

def equal_rows(key: np.ndarray):
    """The rows of a 2-D key array grouped by value: (order, starts).

    key[order] is sorted, so equal rows are adjacent (-0.0 and 0.0 compare
    equal), and group g is order[starts[g]:starts[g + 1]].  Rows of a node
    family with equal shift and frequency differ only in their coefficients.
    """
    order = np.lexsort(key.T[::-1])
    starts = np.flatnonzero(np.r_[True, np.any(np.diff(key[order], axis=0) != 0, axis=1)])
    return order, starts


def _tau_diagonalize(fam: GaussMixture, tau: np.ndarray):
    """Precompose with S such that the quadratic form becomes diagonal while
    sum tau_j u_j^2 keeps its shape: S = A^{-1/2} Q |L|^{1/2} with
    A^{1/2} tau A^{1/2} = Q L Q^T, columns ordered positives-first.

    Returns the diagonal family and the basis map B = |det S| T, T[k, j] the
    coefficient of the new monomial j in the image of the old monomial k,
    so the new coefficients are fam.coef @ B.
    """
    A = fam.form
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
    expo, (T,) = _linear_subst(fam.expo, S)
    # the congruence leaves only roundoff off-diagonal mass; drop it
    quad = np.diag(np.diagonal(S.T @ A @ S))
    det = abs(np.linalg.det(S))
    return GaussMixture._of(quad, expo, (fam.coef @ T) * det,
                            np.linalg.solve(S, fam.shift.T).T, fam.freq @ S), T * det


def osc_items(slots: int) -> int:
    """How many items of `slots` complex temporaries fit in _OSC_BYTES (>= 1)."""
    return max(1, _OSC_BYTES // (16 * slots))


def _tile(shape: tuple, slots: int) -> tuple:
    """(rows, cols) of the engine's passes over a (nodes, Nw) frequency array:
    tiles of whole nodes by a chunk of frequencies, of at most
    osc_items(slots) pairs; a longer row splits into equal chunks."""
    size = osc_items(slots)
    cols = max(1, -(-shape[1] // max(1, -(-shape[1] // size))))
    return max(1, size // cols), cols


def batched_osc_integral(phi, w: np.ndarray, tau: np.ndarray, table: bool = False,
                         conj_coef: np.ndarray | None = None,
                         weights: np.ndarray | None = None) -> np.ndarray:
    """integral phi_i(u) exp(i w[i, k] P_tau(u)) du for each term phi_i of a
    family and each of its frequencies w[i, k]: w has shape (N, Nw), row i
    for term i, and the result has the shape of w.  With weights (Nw,),
    shared by all rows, each pass contracts its values with its slice of
    them, so the result drops the Nw axis and no (N, Nw) array is formed.

    phi is a GaussMixture whose terms share one form (`form`), such as a
    node family from `GaussPoly.restrict`, or a GaussPoly, its one-term
    family; terms with forms of their own raise DimensionMismatch.
    P_tau(u) = sum tau_j u_j^2 with tau_j = +-1.  A coupled form is reduced
    once per call by a tau-congruence S (S^T A S = |Lambda| diagonal and
    S^T tau S = tau, `_tau_diagonalize`), which leaves P invariant up to
    coordinate ordering.

    With table=True the result gains a last axis over the family's
    monomials, in the order of its `expo`: entry m is the integral of
    monomial m alone, so the plain value of term i is that axis contracted
    with coef[i].  conj_coef (N, M) (plain mode) is a block at -w with
    negated frequencies: U_m(-w; b, c) = conj U_m(w; -b, c) for monomial m,
    so row i is sum coef U_m + conj(sum conj(conj_coef) U_m).

    On the diagonal form, at a (node, frequency) pair the integral factors
    over the axes: axis j is the 1-D complex Gaussian with
    beta_j = a_j - 2 i tau_j w, variance
    s_j = sigma_j^2 = (a_j + 2 i tau_j w) / (a_j^2 + 4 w^2) and mean
    mu_j = i (b_j + 2 tau_j w c_j) s_j.  An axis is live when some node of
    the family has a nonzero centre or frequency on it.  On a dead axis the
    exponent and mu_j are exactly 0, a monomial odd on it (moment exactly 0)
    is dropped (a table keeps its 0s), and monomial 2 h has the moment
    (2 h - 1)!! s^h.

    Prefactor.  prod_j sqrt(2 pi / beta_j) pairs the p-th tau = +1 axis with
    the p-th tau = -1 axis: beta_+ beta_- = (a_+ a_- + 4 w^2)
    + 2 i (a_+ - a_-) w = X + i Y has X > 0, so its principal root is
    q + i Y / (2 q), q = sqrt((|X + i Y| + X) / 2), with no cancellation; as
    both arguments lie in (-pi/2, pi/2), these roots multiply to
    prod_j sqrt(beta_j).  An unpaired axis takes the same root of its own
    beta_j.  The live axes multiply it by exp of their exponent
    lin_j^2 s_j / 2 + i b_j c_j + i tau_j w c_j^2, formed as
        (-b_j^2 - 4 tau_j w b_j c_j + 2 i tau_j w a_j c_j^2) s_j / 2 + i b_j c_j,
    in which the w^2 c_j^2 terms of the two parts have cancelled exactly, so
    it keeps its relative accuracy at large |w|.

    Moments.  The double factorials fold into the coefficients once per call
    and the products s^h of the dead part of every kept monomial are built a
    degree at a time (`_even_plan`); s_j is formed on the axes with a power
    and on the live axes only.  When a monomial has a live part, the
    recursion m_k = mu m_{k-1} + (k - 1) s m_{k-2} multiplies in its live
    moments.

    A pass is a tile of whole nodes by a chunk of frequencies whose
    temporaries take about _OSC_BYTES; node data broadcast along its row.
    When the kept monomials map one to one onto the dead products (plain
    mode or conj_coef, no live axis), the folded coefficients contract with
    the products directly, one matrix product per coefficient block.
    Otherwise a per-monomial tile is gathered from the products: the plain
    mode contracts it with the coefficients (with conj_coef, mapped as coef
    is, both blocks, U_m(-w; b) = conj U_m(w; -b)), and the table mode maps
    it back through the basis map of the tau-congruence.
    """
    fam, basis = phi.stack, None
    A = fam.form
    if A is None:
        raise DimensionMismatch("the engine needs terms that share one form")
    w = np.asarray(w, float)
    if (w.ndim != 2 or len(w) != len(fam)
            or weights is not None and np.shape(weights) != w.shape[1:]):
        raise DimensionMismatch(f"w must have shape ({len(fam)}, Nw) and weights (Nw,)")
    width = len(fam.expo) if table else 0
    if np.count_nonzero(A - np.diag(np.diagonal(A))):
        fam, basis = _tau_diagonalize(fam, tau)
    a = np.diagonal(fam.form)
    dead = np.all(fam.shift == 0, axis=0) & np.all(fam.freq == 0, axis=0)
    odd = fam.expo[:, dead] % 2
    kept = ~odd.any(axis=1) if odd.any() else slice(None)   # a slice keeps views
    live = np.flatnonzero(~dead)
    expo = fam.expo[kept]
    blocks = [fam.coef[:, kept]]
    if conj_coef is not None:
        blocks.append((conj_coef if basis is None else conj_coef @ basis)[:, kept].conj())
    axes, lead, lead_axis, steps, col, E = _even_plan(
        (expo * dead).astype(np.int64, copy=False).tobytes(), expo.shape)
    K = E.shape[1] - 1
    # a per-monomial tile: a table keeps every column, and with a live axis
    # several monomials share one dead product
    gather = table or live.size > 0
    if table:
        back = (np.eye(len(fam.expo)) if basis is None else basis)[:, kept] \
            * E[np.arange(len(col)), col]
    else:
        blocks = [c * E[np.arange(len(col)), col] if gather else c @ E for c in blocks]
    # the live axes with a power, each with its recursion depth
    rec = [(p, j, int(expo[:, j].max())) for p, j in enumerate(live) if expo[:, j].any()]
    if live.size:   # node data on the live axes, laid out (axis, node, 1)
        b, c = fam.freq[:, live].T[:, :, None], fam.shift[:, live].T[:, :, None]
        cross = 4.0 * b * c - 2j * a[live, None, None] * c ** 2
        tl = tau[live, None, None]
        sax = np.concatenate([axes, live])      # s_j on these axes, the live ones last
    else:
        sax = axes
    pos, neg = np.flatnonzero(tau > 0), np.flatnonzero(tau < 0)
    npair = min(len(pos), len(neg))
    lone = np.concatenate([pos[npair:], neg[npair:]])
    ap, am = a[pos[:npair]], a[neg[:npair]]
    # the factors X + i Y of the prefactor, X = x0 + x1 4 w^2 and Y = y1 w:
    # one per (+, -) pair of axes, then one per unpaired axis
    x0 = np.concatenate([ap * am, a[lone]])[:, None, None]
    x1 = np.concatenate([np.ones(npair), np.zeros(lone.size)])[:, None, None]
    y1 = np.concatenate([2.0 * (ap - am), -2.0 * tau[lone]])[:, None, None]
    sa, st = a[sax, None, None], 2.0 * tau[sax, None, None]
    const = (2 * np.pi) ** (len(a) / 2)
    nodes, nw = w.shape
    slots = K + len(sax) + len(x0) + 2
    if gather:
        slots += 1 + len(expo) + width + sum(k + 1 for *_, k in rec)
    rows, cols = _tile(w.shape, slots)
    out = np.zeros(w.shape[:1 + (weights is None)] + ((width,) if table else ()), dtype=complex)
    for r0 in range(0, nodes, rows):
        rs = slice(r0, r0 + rows)
        for c0 in range(0, nw, cols):
            cs = slice(c0, c0 + cols)
            wc = w[rs, cs]
            w4 = 4.0 * wc * wc
            X, Y = x0 + x1 * w4, y1 * wc
            q = np.sqrt(0.5 * (np.sqrt(X * X + Y * Y) + X))
            z = np.empty(X.shape, dtype=complex)
            z.real, z.imag = q, Y / (2.0 * q)
            pref = const / np.prod(z, axis=0)
            if len(sax):
                r2 = sa * sa + w4
                s = np.empty(r2.shape, dtype=complex)
                s.real, s.imag = sa / r2, st * wc / r2
            if live.size:
                sl, tw = s[len(axes):], tl * wc
                bt, ct = b[:, rs], c[:, rs]
                pref = pref * np.exp(np.sum((-bt * bt - tw * cross[:, rs]) * (0.5 * sl)
                                            + 1j * bt * ct, axis=0))
                mu = 1j * (bt + 2.0 * tw * ct) * sl
            tile = np.empty((K + gather,) + (wc.shape if K else (1, 1)), dtype=complex)
            if K:
                tile[lead] = s[lead_axis]
                for at, parent, j in steps:
                    tile[at] = tile[parent] * s[j]
            if gather:
                tile[K] = 1.0
                mono = tile[col]
                for p, j, k in rec:
                    mom = np.empty((k + 1,) + wc.shape, dtype=complex)
                    mom[0], mom[1] = 1.0, mu[p]
                    for h in range(2, k + 1):
                        mom[h] = mu[p] * mom[h - 1] + (h - 1) * sl[p] * mom[h - 2]
                    mono = mono * mom[expo[:, j]]
            if table:
                val = np.moveaxis(np.tensordot(back, pref * mono, 1), 0, -1)
            else:
                if gather:
                    vals = [np.matmul(cb[rs, None], mono.transpose(1, 0, 2))[:, 0] for cb in blocks]
                else:
                    vals = [cb[rs, K:] + np.matmul(cb[rs, None, :K], tile.transpose(1, 0, 2))[:, 0]
                            if K else cb[rs, K:] for cb in blocks]
                val = pref * vals[0]
                if len(vals) > 1:
                    val += np.conj(pref * vals[1])
            if weights is None:
                out[rs, cs] = val
            else:
                out[rs] += np.tensordot(val, weights[cs], (1, 0))
    return out


# (2h - 1)!! for h up to 32, the exponents `_rank` handles
_DOUBLE_FACTORIAL = np.array([math.prod(range(1, 2 * h, 2)) for h in range(33)], dtype=float)


@lru_cache(maxsize=64)
def _even_plan(key: bytes, shape: tuple):
    """How `batched_osc_integral` builds the products s^h for the monomials
    2 h of an exponent array (given by its bytes and shape), every row even;
    rows may repeat.

    Returns the axes with a power, the first-degree slots and their axes,
    the later steps (slots, parent slots, axis) of one gather and one
    product each, a degree at a time over the rows and every divisor on
    their chains to 1 (the graded order's `down` on the first axis with a
    power), the slot of each row, and the map E (M, K + 1): row m holds
    prod_j (2 h_j - 1)!! in the column of its slot.  The products take
    slots 0..K-1 and the unit monomial slot K, so coef @ E are the
    coefficients over the products and the unit.
    """
    h = np.frombuffer(key, dtype=np.int64).reshape(shape) // 2
    axes = np.flatnonzero(h.max(axis=0, initial=0))
    hp = h[:, axes]
    deg = _degree(hp)
    b = _graded(len(axes), deg)
    first = np.argmax(b.expo > 0, axis=1) if axes.size else np.zeros(b.n, dtype=int)
    level = b.expo.sum(axis=1)
    need = np.zeros(b.n, dtype=bool)
    need[_rank(hp)] = need[0] = True
    for k in range(deg, 1, -1):
        pos = np.flatnonzero(need & (level == k))
        need[b.down[first[pos], pos]] = True
    K = np.count_nonzero(need) - 1
    slot = np.cumsum(need) - 2
    slot[0] = K                           # the unit monomial, after the products
    lead = np.flatnonzero(need & (level == 1))
    steps = [(slot[pos], slot[b.down[first[pos], pos]], first[pos])
             for k in range(2, deg + 1) for pos in [np.flatnonzero(need & (level == k))]]
    col = slot[_rank(hp)]
    E = np.zeros((len(h), K + 1), dtype=complex)
    E[np.arange(len(h)), col] = np.prod(_DOUBLE_FACTORIAL[h], axis=1)
    return axes, slot[lead], first[lead], steps, col, E
