"""Tests for the exact polynomial-times-Gaussian calculus."""
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pseudoht import gausspoly
from pseudoht.errors import DimensionMismatch, NonSPDQuadraticForm, SingularAffineMap
from pseudoht.gausspoly import (
    GaussMixture,
    GaussPoly,
    apply_operator,
    batched_osc_integral,
)
from pseudoht.kernels import inv_p_power
from osc_reference import osc_family_reference
from radial_l1 import radial_l1_norm
from wick_reference import gaussian_poly_integral, wick_integrate_against


def rand_points(rng, n, dim, scale=2.0):
    return rng.normal(size=(n, dim)) * scale


class TestBasics:
    def test_evaluate_matches_formula(self):
        phi = GaussPoly(2, np.diag([1.0, 2.0]), {(1, 0): 1.0, (0, 0): 0.5},
                        shift=[0.3, -0.2], freq=[0.0, 1.5])
        u = np.array([0.7, 0.4])
        w = u - phi.shift
        expected = (w[0] + 0.5) * np.exp(-0.5 * (w[0] ** 2 + 2 * w[1] ** 2)) \
            * np.exp(1j * 1.5 * u[1])
        assert abs(phi.evaluate(u) - expected) < 1e-14

    def test_derivative_of_1d_gaussian(self):
        phi = GaussPoly.iso_gaussian(1)
        d = phi.differentiate(0)
        # d/du exp(-u^2/2) = -u exp(-u^2/2)
        assert d.expo.tolist() == [[1]] and d.coef == pytest.approx([-1.0])

    def test_derivative_vs_finite_differences(self):
        rng = np.random.default_rng(0)
        phi = GaussPoly(3, np.diag([1.0, 0.5, 2.0]), {(0, 1, 2): 1.3 - 0.2j, (1, 0, 0): 1.0},
                        shift=[0.1, 0.0, -0.3], freq=[0.2, 0.0, 0.0])
        h = 1e-5
        for ax in range(3):
            d = phi.differentiate(ax)
            for u in rand_points(rng, 5, 3, 1.0):
                up, um = u.copy(), u.copy()
                up[ax] += h
                um[ax] -= h
                fd = (phi.evaluate(up) - phi.evaluate(um)) / (2 * h)
                assert abs(d.evaluate(u) - fd) < 1e-8

    def test_precompose_rotation_pointwise(self):
        rng = np.random.default_rng(1)
        th = 0.7
        R = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        phi = GaussPoly(2, np.diag([1.0, 3.0]), {(2, 1): 1.0}, shift=[0.2, 0.1])
        psi = phi.precompose_affine(R, np.array([0.3, -0.4]))
        for u in rand_points(rng, 10, 2, 1.5):
            assert abs(psi.evaluate(u) - phi.evaluate(R @ u + [0.3, -0.4])) < 1e-13

    def test_restrict_pointwise(self):
        rng = np.random.default_rng(2)
        A = np.array([[2.0, 0.3, 0.1], [0.3, 1.0, 0.0], [0.1, 0.0, 1.5]])
        phi = GaussPoly(3, A, {(1, 1, 1): 2.0, (0, 0, 2): 1.0 + 1j},
                        shift=[0.1, -0.2, 0.4], freq=[0.0, 0.5, -0.3])
        fixed_val = np.array([0.6])
        sl = phi.restrict([1], fixed_val)
        for u in rand_points(rng, 10, 2, 1.2):
            full = phi.evaluate(np.array([u[0], fixed_val[0], u[1]]))
            assert abs(sl.evaluate(u) - full) < 1e-12

    def test_multiply_monomial(self):
        phi = GaussPoly.iso_gaussian(2).multiply_monomial((1, 2))
        u = np.array([0.4, -0.7])
        assert abs(phi.evaluate(u) - u[0] * u[1] ** 2 * np.exp(-0.5 * u @ u)) < 1e-14

    @pytest.mark.parametrize("mono, error", [((1, 0, 2), DimensionMismatch),
                                             ((0, -1, 0, 0, 0), ValueError),
                                             ((0, 0, 0, 0, 0, 1), DimensionMismatch)])
    def test_rejects_malformed_monomial(self, mono, error):
        with pytest.raises(error):
            GaussPoly(5, np.eye(5), {(0,) * 5: 1.0, mono: 0.5})


class TestFourier:
    def test_gaussian_fixed_point(self):
        phi = GaussPoly.iso_gaussian(2)
        f = phi.fourier()
        rng = np.random.default_rng(3)
        for u in rand_points(rng, 5, 2):
            assert abs(f.evaluate(u) - phi.evaluate(u)) < 1e-13

    def test_hermite_eigenfunction(self):
        # u exp(-u^2/2) -> -i xi exp(-xi^2/2)
        phi = GaussPoly(1, np.eye(1), {(1,): 1.0})
        f = phi.fourier()
        x = np.array([0.8])
        assert abs(f.evaluate(x) - (-1j) * x[0] * np.exp(-x[0] ** 2 / 2)) < 1e-14

    def test_diagonal_scaling_product_formula(self):
        # exp(-beta u^2/2) -> beta^{-1/2} exp(-xi^2/(2 beta)) per axis
        beta = np.array([0.7, 2.4])
        phi = GaussPoly.gaussian(np.diag(beta))
        f = phi.fourier()
        xi = np.array([0.5, -1.1])
        expected = np.prod(beta ** -0.5) * np.exp(-0.5 * np.sum(xi ** 2 / beta))
        assert abs(f.evaluate(xi) - expected) < 1e-12

    def test_double_transform_is_reflection(self):
        rng = np.random.default_rng(4)
        phi = GaussPoly(2, np.array([[1.5, 0.4], [0.4, 1.0]]), {(2, 1): 1.0, (0, 0): 0.3j},
                        shift=[0.3, -0.2], freq=[0.7, 0.1])
        ff = phi.fourier().fourier()
        for u in rand_points(rng, 8, 2):
            assert abs(ff.evaluate(u) - phi.evaluate(-u)) < 1e-10

    def test_fourier_by_quadrature(self):
        phi = GaussPoly(1, np.eye(1) * 1.3, {(2,): 1.0, (0,): -0.5}, shift=[0.4], freq=[0.6])
        f = phi.fourier()
        xs = np.linspace(-12, 12, 6001)
        for xi in (0.0, 0.7, -1.9):
            vals = phi.evaluate_many(xs[:, None]) * np.exp(-1j * xs * xi)
            num = np.trapezoid(vals, xs) / np.sqrt(2 * np.pi)
            assert abs(f.evaluate([xi]) - num) < 1e-8

    def test_inverse_undoes_forward(self):
        phi = GaussPoly(2, np.array([[1.3, 0.5], [0.5, 0.9]]),
                        {(0, 0): 0.4 - 0.1j, (2, 1): 1.0, (0, 3): -0.3j},
                        shift=[0.4, -0.3], freq=[0.8, -0.5])
        back = phi.fourier().inverse_fourier()
        U = rand_points(np.random.default_rng(8), 12, 2, 1.0)
        want = phi.evaluate_many(U)
        assert np.max(np.abs(want)) > 0.1
        assert np.max(np.abs(back.evaluate_many(U) - want)) < 1e-12

    def test_inverse_fourier_by_quadrature(self):
        phi = GaussPoly(1, np.eye(1) * 1.3, {(2,): 1.0, (1,): 0.3j, (0,): -0.5},
                        shift=[0.4], freq=[0.6])
        f = phi.inverse_fourier()
        xs = np.linspace(-12, 12, 6001)
        for xi in (0.0, 0.7, -1.9):
            vals = phi.evaluate_many(xs[:, None]) * np.exp(1j * xs * xi)
            num = np.trapezoid(vals, xs) / np.sqrt(2 * np.pi)
            assert abs(num) > 1e-2
            assert abs(f.evaluate([xi]) - num) < 1e-8

    def test_parseval_random_pair(self):
        rng = np.random.default_rng(5)
        for _ in range(3):
            a1, a2 = rng.uniform(0.5, 2.0, size=2)
            phi = GaussPoly(2, np.diag([a1, a2]), {(1, 0): 1.0, (0, 0): 0.2})
            psi = GaussPoly(2, np.diag([a2, a1]), {(0, 1): 0.5 - 0.1j, (0, 0): 1.0})
            # int phi conj(psi) equals int Fphi conj(Fpsi); conj(psi) has the
            # same Gaussian with conjugated coefficients for freq=0, shift=0
            def pair(f, g):
                prod_quad = f.quad + g.quad
                expo = (f.expo[:, None] + g.expo[None]).reshape(-1, 2)
                coef = np.outer(f.coef, np.conj(g.coef)).ravel()
                return gaussian_poly_integral(prod_quad, np.zeros(2), expo, coef)
            lhs = pair(phi, psi)
            rhs = pair(phi.fourier(), psi.fourier())
            assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs))

    def test_parseval_coupled_shifted(self):
        """int |phi|^2 = int |F phi|^2 for a coupled, shifted, frequency-carrying term.

        Each side is a Gauss-Hermite sum of pointwise values in the
        coordinates that whiten the function's own Gaussian, exact for its
        polynomial part and independent of the transform's derivative table.
        """
        A = np.array([[1.4, 0.3, -0.2], [0.3, 0.9, 0.25], [-0.2, 0.25, 1.1]])
        phi = GaussPoly(3, A, {(0, 0, 0): 0.5 - 0.2j, (1, 0, 2): 1.0, (0, 1, 1): 0.4j,
                               (2, 1, 0): -0.3, (0, 0, 1): 0.6},
                        shift=[0.4, -0.3, 0.2], freq=[0.7, -0.5, 0.3])
        y, w = np.polynomial.hermite.hermgauss(8)
        Y = np.stack(np.meshgrid(y, y, y, indexing="ij"), axis=-1).reshape(-1, 3)
        W = np.prod(np.stack(np.meshgrid(w, w, w, indexing="ij"), axis=-1).reshape(-1, 3), axis=1)

        def norm2(f):
            # u = shift + L^{-T} y with quad = L L^T turns the Gaussian into e^{-|y|^2}
            L = np.linalg.cholesky(f.quad)
            U = f.shift + np.linalg.solve(L.T, Y.T).T
            vals = np.abs(f.evaluate_many(U)) ** 2 * np.exp(np.sum(Y ** 2, axis=1))
            return np.sum(W * vals) / np.sqrt(np.linalg.det(f.quad))

        lhs, rhs = norm2(phi), norm2(phi.fourier())
        assert lhs > 0.1
        assert abs(lhs - rhs) <= 1e-12 * lhs

    def test_partial_fourier_matches_full_on_product(self):
        # product function: partial in z then in x equals full transform
        phi = GaussPoly(3, np.diag([1.0, 2.0, 0.5]), {(1, 0, 2): 1.0}, shift=[0.1, 0.0, -0.2])
        both = phi.partial_fourier([0]).partial_fourier([1, 2])
        full = phi.fourier()
        rng = np.random.default_rng(6)
        for u in rand_points(rng, 6, 3):
            assert abs(both.evaluate(u) - full.evaluate(u)) < 1e-12


    def test_partial_fourier_by_quadrature(self):
        """Axes 0 and 2 transformed, axis 1 kept; monomials mix both kinds of axes."""
        A = np.array([[1.2, 0.0, 0.4], [0.0, 0.8, 0.0], [0.4, 0.0, 0.9]])
        phi = GaussPoly(3, A, {(1, 2, 1): 0.7 - 0.3j, (0, 1, 1): 1.1, (2, 0, 0): -0.4j,
                               (0, 0, 0): 0.5}, shift=[0.3, -0.5, 0.2], freq=[0.6, 0.4, -0.8])
        f = phi.partial_fourier([0, 2])
        x, w = np.polynomial.legendre.leggauss(120)
        x, w = 10.0 * x, 10.0 * w
        X0, X2 = np.meshgrid(x, x, indexing="ij")
        W = np.outer(w, w).ravel()
        rng = np.random.default_rng(7)
        for xi0, y, xi2 in rand_points(rng, 5, 3, 1.0):
            U = np.stack([X0.ravel(), np.full(W.size, y), X2.ravel()], axis=1)
            vals = phi.evaluate_many(U) * np.exp(-1j * (U[:, 0] * xi0 + U[:, 2] * xi2))
            num = np.sum(W * vals) / (2 * np.pi)
            assert abs(num) > 1e-3
            assert abs(f.evaluate([xi0, y, xi2]) - num) < 1e-12


class TestIntegrals:
    def test_plain_gaussian_integral(self):
        phi = GaussPoly.iso_gaussian(2)
        assert abs(phi.integral() - 2 * np.pi) < 1e-13

    def test_poly_moments(self):
        # int u1^2 exp(-|u|^2/2) du over R^2 = 2 pi
        phi = GaussPoly(2, np.eye(2), {(2, 0): 1.0})
        assert abs(phi.integral() - 2 * np.pi) < 1e-12

    def test_integral_with_shift_freq(self):
        # int exp(-(u-c)^2/2) e^{ibu} du = sqrt(2 pi) e^{ibc} e^{-b^2/2}
        phi = GaussPoly(1, np.eye(1), {(0,): 1.0}, shift=[0.7], freq=[1.1])
        expected = np.sqrt(2 * np.pi) * np.exp(1j * 1.1 * 0.7 - 1.1 ** 2 / 2)
        assert abs(phi.integral() - expected) < 1e-13

    def test_oscillatory_vs_quadrature(self):
        phi = GaussPoly(2, np.array([[1.2, 0.2], [0.2, 0.9]]), {(1, 1): 1.0, (0, 0): 0.4},
                        shift=[0.2, -0.1])
        tau = np.array([1.0, -1.0])
        w = 0.8
        xs = np.linspace(-9, 9, 701)
        X, Y = np.meshgrid(xs, xs, indexing="ij")
        U = np.stack([X.ravel(), Y.ravel()], axis=1)
        vals = phi.evaluate_many(U) * np.exp(1j * w * (U[:, 0] ** 2 - U[:, 1] ** 2))
        num = np.sum(vals) * (xs[1] - xs[0]) ** 2
        ana = batched_osc_integral(phi, np.array([[w]]), tau)[0, 0]
        assert abs(ana - num) < 1e-6

    def test_batched_diag_matches_general(self):
        phi = GaussPoly(2, np.diag([1.0, 1.7]), {(2, 1): 0.3, (0, 0): 1.0},
                        shift=[0.5, 0.2], freq=[0.1, -0.4])
        tau = np.array([1.0, -1.0])
        ws = np.array([0.0, 0.3, -2.0, 11.0])
        fast = batched_osc_integral(phi, ws[None], tau)[0]
        slow = np.array([phi.integrate_against(W=-2j * w * np.diag(tau)) for w in ws])
        assert np.max(np.abs(fast - slow)) < 1e-12

    def test_l1_norm_gaussian(self):
        phi = GaussPoly.iso_gaussian(1)
        assert abs(radial_l1_norm(phi) - np.sqrt(2 * np.pi)) < 1e-8

    def test_derivative_integrates_to_zero(self):
        phi = GaussPoly(1, np.eye(1) * 0.8, {(1,): 1.0, (0,): 0.3}, shift=[0.2])
        assert abs(phi.differentiate(0).differentiate(0).integral()) < 1e-12

    def test_laplacian_power_zero_is_identity(self):
        phi = GaussPoly.iso_gaussian(2)
        assert phi.laplacian_power(0) is phi

    def test_laplacian_l1_vs_grid(self):
        phi = GaussPoly.iso_gaussian(2).laplacian()
        xs = np.linspace(-8, 8, 3201)
        X, Y = np.meshgrid(xs, xs, indexing="ij")
        U = np.stack([X.ravel(), Y.ravel()], axis=1)
        num = np.sum(np.abs(phi.evaluate_many(U))) * (xs[1] - xs[0]) ** 2
        assert abs(radial_l1_norm(phi) - num) < 1e-6


class TestOperators:
    PHI = GaussPoly(2, np.array([[1.2, 0.3], [0.3, 0.9]]), {(0, 0): 1.0, (1, 0): 0.5 - 0.2j},
                    shift=[0.4, -0.7], freq=[0.3, 0.8])

    def test_matches_elementary_steps(self):
        """u0^2 d_1 + 3 d_0 d_1 + (2 u1 - 1) against differentiate/multiply."""
        phi = self.PHI
        op = [(np.array([[2, 0]]), np.array([1.0]), (0, 1)),
              (np.array([[0, 0]]), np.array([3.0]), (1, 1)),
              (np.array([[0, 1], [0, 0]]), np.array([2.0, -1.0]), (0, 0))]
        want = (phi.differentiate(1).multiply_monomial((2, 0))
                .plus(phi.differentiate(0).differentiate(1).scaled(3.0))
                .plus(phi.multiply_linear([0.0, 2.0], -1.0)))
        U = rand_points(np.random.default_rng(20), 30, 2)
        ref = want.evaluate_many(U)
        assert np.max(np.abs(ref)) > 0.1
        assert np.max(np.abs(apply_operator(phi, op).evaluate_many(U) - ref)) <= 1e-13

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            apply_operator(self.PHI, [(np.zeros((1, 3), dtype=int), np.ones(1), (1, 0, 0))])


class TestMixture:
    def test_mixture_linearity(self):
        a = GaussPoly.iso_gaussian(2)
        b = GaussPoly.gaussian(np.diag([2.0, 0.5]), coeff=0.3)
        mix = GaussMixture([a, b])
        u = np.array([0.3, 0.4])
        assert abs(mix.evaluate(u) - a.evaluate(u) - b.evaluate(u)) < 1e-14
        assert abs(mix.integral() - a.integral() - b.integral()) < 1e-12

    def test_serialization_roundtrip(self):
        phi = GaussPoly(2, np.array([[1.5, 0.2], [0.2, 1.0]]), {(1, 2): 0.5 + 2j},
                        shift=[0.1, 0.9], freq=[0.0, -1.0])
        clone = GaussPoly.from_json(phi.to_json())
        u = np.array([0.4, -0.2])
        assert abs(phi.evaluate(u) - clone.evaluate(u)) < 1e-15


@settings(max_examples=25, deadline=None)
@given(
    a=st.floats(0.3, 3.0),
    c=st.floats(-1.0, 1.0),
    b=st.floats(-2.0, 2.0),
    x=st.floats(-2.0, 2.0),
)
def test_closure_chain_hypothesis(a, c, b, x):
    """Class operations stay in the class and evaluate consistently."""
    phi = GaussPoly(1, np.eye(1) * a, {(0,): 1.0}, shift=[c], freq=[b])
    out = phi.differentiate(0).multiply_monomial((1,)).fourier()
    assert isinstance(out, GaussPoly)
    val = out.evaluate([x])
    assert np.isfinite(val.real) and np.isfinite(val.imag)


def _summands(t: GaussPoly, U: np.ndarray) -> np.ndarray:
    """(P, M): coef[m] w^expo[m] exp(-1/2 w^T A w) e^{i b.u} at each row u of U,
    w = u - c, written out from the definition of a term."""
    W = U - t.shift
    gauss = np.exp(-0.5 * np.einsum("pi,ij,pj->p", W, t.quad, W) + 1j * (U @ t.freq))
    return t.coef * np.prod(W[:, None, :] ** t.expo[None], axis=2) * gauss[:, None]


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), count=st.integers(1, 12),
       points=st.sampled_from([1, 7, 3000, 9000]))
def test_mixture_evaluate_many_matches_terms(seed, count, points):
    """The blocked mixture evaluation equals the sum of the terms' formulas.

    Coupled SPD forms; centres zero, -0.0 in some or all axes, or nonzero
    (several groups); zero and nonzero frequencies; a different monomial set
    per term.  3000 points put at most two terms in a block and 9000 points
    take two point chunks; a single point is the `evaluate` case.
    """
    rng = np.random.default_rng(seed)
    dim = 3
    centres = [np.zeros(dim), -np.zeros(dim), np.array([0.0, -0.0, 0.0]),
               rng.normal(size=dim) * 0.5, rng.normal(size=dim) * 0.5]
    terms = []
    for _ in range(count):
        L = rng.normal(size=(dim, dim)) * 0.5
        m = int(rng.integers(1, 6))
        terms.append(GaussPoly(
            dim, L @ L.T + 0.5 * np.eye(dim), shift=centres[rng.integers(len(centres))],
            freq=rng.normal(size=dim) * (rng.random() < 0.5),
            expo=rng.integers(0, 3, size=(m, dim)),
            coef=rng.normal(size=m) + 1j * rng.normal(size=m)))
    U = rng.normal(size=(points, dim)) * 1.5
    parts = np.concatenate([_summands(t, U) for t in terms], axis=1)
    got = GaussMixture(terms).evaluate_many(U)
    assert np.all(np.abs(got - parts.sum(axis=1)) <= 1e-12 * np.abs(parts).sum(axis=1))
    one = GaussMixture(terms).evaluate(U[0])
    assert abs(one - parts[0].sum()) <= 1e-12 * np.abs(parts[0]).sum()
    first = _summands(terms[0], U)
    assert np.all(np.abs(terms[0].evaluate_many(U) - first.sum(axis=1))
                  <= 1e-12 * np.abs(first).sum(axis=1))


# ---------------------------------------------------- node families (restrict)

FAMILY_MONOMIALS = [(0, 0, 0, 0, 0, 0), (1, 0, 0, 0, 1, 0), (0, 2, 0, 0, 0, 1),
                    (0, 0, 1, 1, 0, 0), (2, 0, 0, 0, 0, 2), (0, 0, 0, 3, 0, 0)]


def _family_phi(entries, coeffs, shift, freq) -> GaussPoly:
    """A term on R^6 whose form couples every pair of axes (not block-diagonal)."""
    L = np.array(entries).reshape(6, 6)
    A = L @ L.T + 0.25 * (np.eye(6) + np.ones((6, 6)))
    poly = {m: complex(re, im) for m, (re, im) in zip(FAMILY_MONOMIALS, coeffs)}
    return GaussPoly(6, A, poly, shift=shift, freq=freq)


family_data = dict(
    entries=st.lists(st.floats(-0.6, 0.6), min_size=36, max_size=36),
    coeffs=st.lists(st.tuples(st.floats(-1, 1), st.floats(-1, 1)),
                    min_size=len(FAMILY_MONOMIALS), max_size=len(FAMILY_MONOMIALS)),
    shift=st.lists(st.floats(0.1, 0.8), min_size=6, max_size=6),
    freq=st.lists(st.floats(-1.0, -0.1), min_size=6, max_size=6),
    values=st.lists(st.tuples(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5)),
                    min_size=2, max_size=5),
)


@settings(max_examples=20, deadline=None)
@given(**family_data, u=st.lists(st.floats(-1.5, 1.5), min_size=4, max_size=4))
def test_family_restrict_matches_evaluate(entries, coeffs, shift, freq, values, u):
    """Node i of a batched restrict equals phi at the assembled point."""
    phi = _family_phi(entries, coeffs, shift, freq)
    fixed = [1, 4]
    fam = phi.restrict(fixed, np.array(values))
    assert len(fam) == len(values)
    for i, (v1, v4) in enumerate(values):
        point = np.array([u[0], v1, u[1], u[2], v4, u[3]])
        want = phi.evaluate(point)
        got = fam.term(i).evaluate(np.array(u))
        assert abs(got - want) <= 1e-11 * max(1.0, abs(want))


@settings(max_examples=20, deadline=None)
@given(**family_data, w=st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3))
def test_family_engine_matches_integrate_against(entries, coeffs, shift, freq, values, w):
    """Each row of a batched engine call equals the closed-form Gaussian integral.

    The kept 4x4 block of the coupled form is not diagonal, so this runs the
    tau-congruence path as well as the recentring of every node.
    """
    phi = _family_phi(entries, coeffs, shift, freq)
    fam = phi.restrict([4, 5], np.array(values))
    assert np.count_nonzero(fam.form - np.diag(np.diagonal(fam.form)))
    tau = np.array([1.0, 1.0, -1.0, -1.0])
    ws = np.array(w)[None, :] * (1.0 + 0.1 * np.arange(len(values)))[:, None]
    got = batched_osc_integral(fam, ws, tau)
    assert got.shape == ws.shape
    for i in range(len(values)):
        node = fam.term(i)
        want = np.array([node.integrate_against(W=-2j * x * np.diag(tau)) for x in ws[i]])
        assert np.max(np.abs(got[i] - want)) <= 1e-9 * max(1.0, np.max(np.abs(want)))


@settings(max_examples=15, deadline=None)
@given(**family_data, w=st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3))
def test_family_single_node_is_row_of_batch(entries, coeffs, shift, freq, values, w):
    """N = 1 (the scalar restrict, the 1-D engine, scalar inv_p_power) is a row of N > 1."""
    phi = _family_phi(entries, coeffs, shift, freq)
    values = np.array(values)
    tau = np.array([1.0, 1.0, -1.0, -1.0])
    ws = np.broadcast_to(np.array(w), (len(values), 3))
    fam = phi.restrict([4, 5], values)
    rows = batched_osc_integral(fam, ws, tau)
    inv = inv_p_power(fam, 2)
    for k in range(len(values)):
        single = phi.restrict([4, 5], values[k])
        assert isinstance(single, GaussPoly)
        one = batched_osc_integral(single, np.array(w)[None], tau)[0]
        assert np.max(np.abs(one - rows[k])) <= 1e-12 * max(1.0, np.max(np.abs(rows[k])))
        scalar = inv_p_power(single, 2)
        assert abs(scalar - inv[k]) <= 1e-12 * max(1.0, abs(inv[k]))


@settings(max_examples=20, deadline=None)
@given(**family_data, w=st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3))
def test_engine_table_columns_are_monomial_integrals(entries, coeffs, shift, freq, values, w):
    """Column k of the table mode is the integral of monomial k alone.

    The coupled form runs the tau-congruence, so the columns must be mapped
    back from the diagonal basis; the table contracted with each node's
    coefficients gives the plain engine values.
    """
    phi = _family_phi(entries, coeffs, shift, freq)
    fam = phi.restrict([4, 5], np.array(values))
    tau = np.array([1.0, 1.0, -1.0, -1.0])
    ws = np.array(w)[None, :] * (1.0 + 0.1 * np.arange(len(values)))[:, None]
    table = batched_osc_integral(fam, ws, tau, table=True)
    assert table.shape == ws.shape + (len(fam.expo),)
    plain = batched_osc_integral(fam, ws, tau)
    scale = max(1.0, np.max(np.abs(plain)))
    assert np.max(np.abs(np.einsum("iwm,im->iw", table, fam.coef) - plain)) <= 1e-12 * scale
    for i in range(len(values)):
        for k, e in enumerate(fam.expo):
            mono = GaussPoly(4, fam.form, shift=fam.shift[i], freq=fam.freq[i],
                             expo=e[None], coef=[1.0])
            want = [mono.integrate_against(W=-2j * x * np.diag(tau)) for x in ws[i]]
            assert np.max(np.abs(table[i, :, k] - want)) <= 1e-9 * scale
    # a single term: the table columns follow the order of its expo
    term = fam.term(0)
    one = batched_osc_integral(term, ws[:1], tau, table=True)[0]
    assert one.shape == (3, len(term.expo))
    col = {tuple(e): k for k, e in enumerate(fam.expo.tolist())}
    for j, mono in enumerate(term.expo.tolist()):
        assert np.max(np.abs(one[:, j] - table[0, :, col[tuple(mono)]])) <= 1e-12 * scale


@settings(max_examples=20, deadline=None)
@given(**family_data, u=st.lists(st.floats(-1.5, 1.5), min_size=8, max_size=8))
def test_family_inverse_fourier_matches_terms(entries, coeffs, shift, freq, values, u):
    """Node i of a family's inverse transform is F^{-1} phi_i(x) = F phi_i(-x)."""
    phi = _family_phi(entries, coeffs, shift, freq)
    fam = phi.restrict([1, 4], np.array(values))
    inv = fam.inverse_fourier()
    U = np.array(u).reshape(2, 4)
    for i in range(len(values)):
        want = fam.term(i).fourier().precompose_affine(-np.eye(4), np.zeros(4)).evaluate_many(U)
        got = inv.term(i).evaluate_many(U)
        assert np.max(np.abs(got - want)) <= 1e-11 * max(1.0, np.max(np.abs(want)))


# ------------------------------------------ oscillatory engine against its oracle

TAU4 = np.array([1.0, 1.0, -1.0, -1.0])
DIAG4 = np.diag([0.7, 1.3, 0.9, 2.1])


def _engine_family(rng, form, nodes, shift_axes=(), freq_axes=(), deg=4) -> GaussMixture:
    """`nodes` terms on R^d (d the size of form) with one form, every monomial
    of degree <= deg (random complex coefficients, the constant one largest),
    node-dependent centres on shift_axes and frequencies on freq_axes, zero
    elsewhere."""
    dim = len(form)
    expo = gausspoly._graded(dim, deg).expo
    coef = (rng.normal(size=(nodes, len(expo))) + 1j * rng.normal(size=(nodes, len(expo)))) * 0.3
    coef[:, 0] += 2.0
    shift, freq = np.zeros((nodes, dim)), np.zeros((nodes, dim))
    shift[:, list(shift_axes)] = rng.uniform(0.2, 0.8, size=(nodes, len(shift_axes)))
    freq[:, list(freq_axes)] = rng.uniform(-1.0, 1.0, size=(nodes, len(freq_axes)))
    return GaussMixture._of(form, expo, coef, shift, freq)


def _matches_reference(fam, w, table, tau=TAU4):
    """The engine against the per-axis oracle: 1e-13 relative on every value
    above 1e-8 of the largest (most nonzero values), 1e-13 of the largest
    below it; a monomial odd on a dead axis is an exact zero on both sides."""
    got = batched_osc_integral(fam, w, tau, table=table)
    want = osc_family_reference(fam, w, tau, table=table)
    assert got.shape == want.shape == w.shape + ((fam.coef.shape[1],) if table else ())
    _close_to_reference(got, want)


def _spy_tiles(monkeypatch) -> list:
    """Record (shape, slots, rows, cols) of every engine pass sizing."""
    seen, tile = [], gausspoly._tile

    def spy(shape, slots):
        rows, cols = tile(shape, slots)
        seen.append((shape, slots, rows, cols))
        return rows, cols

    monkeypatch.setattr(gausspoly, "_tile", spy)
    return seen


def _close_to_reference(got, want):
    assert np.all(np.isfinite(got))
    assert np.all(got[want == 0] == 0)
    scale = np.abs(want).max()
    big = np.abs(want) >= 1e-8 * scale
    assert big.sum() > 0.5 * np.count_nonzero(want)
    assert np.max(np.abs(got - want)[big] / np.abs(want)[big]) <= 1e-13
    assert np.max(np.abs(got - want)[~big], initial=0.0) <= 1e-13 * scale


class TestOscEngine:
    @pytest.mark.parametrize("table", [False, True])
    def test_centred_diagonal_family_every_axis_dead(self, table):
        rng = np.random.default_rng(40)
        fam = _engine_family(rng, DIAG4, 3)
        _matches_reference(fam, rng.uniform(-5.0, 5.0, size=(3, 40)), table)

    @pytest.mark.parametrize("table", [False, True])
    def test_centres_and_frequencies_on_some_axes(self, table):
        """Axes 0 and 2 carry centres, axis 1 frequencies, axis 3 is dead."""
        rng = np.random.default_rng(41)
        fam = _engine_family(rng, DIAG4, 4, shift_axes=(0, 2), freq_axes=(1,))
        _matches_reference(fam, rng.uniform(-5.0, 5.0, size=(4, 30)), table)

    @pytest.mark.parametrize("table", [False, True])
    def test_coupled_form_goes_through_the_congruence(self, table):
        rng = np.random.default_rng(42)
        L = rng.normal(size=(4, 4)) * 0.4
        fam = _engine_family(rng, L @ L.T + np.eye(4), 3, shift_axes=(0, 3), freq_axes=(1, 3))
        assert np.count_nonzero(fam.form - np.diag(np.diagonal(fam.form)))
        _matches_reference(fam, rng.uniform(-5.0, 5.0, size=(3, 30)), table)

    @pytest.mark.parametrize("table", [False, True])
    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_pass_boundaries(self, table, offset, monkeypatch):
        """w.size at the pass size +-1, one node per pair (a tile of whole
        nodes) and one node for all (a row in equal chunks): one pass up to
        the size, two past it."""
        rng = np.random.default_rng(43)
        fam = _engine_family(rng, DIAG4, 1, shift_axes=(0,), freq_axes=(2,), deg=2)
        tiles = _spy_tiles(monkeypatch)
        batched_osc_integral(fam, np.ones((1, 1)), TAU4, table=table)
        count = gausspoly._OSC_BYTES // (16 * tiles[0][1]) + offset
        many = _engine_family(rng, DIAG4, count, shift_axes=(0,), freq_axes=(2,), deg=2)
        _matches_reference(many, rng.uniform(-5.0, 5.0, size=(count, 1)), table)
        _matches_reference(fam, rng.uniform(-5.0, 5.0, size=(1, count)), table)
        (_, _, rows, _), (_, _, _, cols) = tiles[1:]
        passes = 2 if offset > 0 else 1
        assert -(-count // rows) == -(-count // cols) == passes

    @pytest.mark.parametrize("table", [False, True])
    def test_single_pair_and_passes_inside_a_row(self, table, monkeypatch):
        """One (node, frequency) pair; then passes of two pairs, so each row
        of three frequencies takes two."""
        rng = np.random.default_rng(44)
        fam = _engine_family(rng, DIAG4, 5, shift_axes=(1,), freq_axes=(0, 3), deg=3)
        tiles = _spy_tiles(monkeypatch)
        _matches_reference(fam[:1], np.array([[1.7]]), table)
        monkeypatch.setattr(gausspoly, "_OSC_BYTES", 2 * 16 * tiles[0][1])
        _matches_reference(fam, rng.uniform(-5.0, 5.0, size=(5, 3)), table)
        assert tiles[-1][2:] == (1, 2)

    @pytest.mark.parametrize("table", [False, True])
    @pytest.mark.parametrize("signs", ["plus", "minus", "alternating"])
    @pytest.mark.parametrize("dim", [3, 5])
    def test_odd_dimensions_and_sign_patterns(self, dim, signs, table):
        """tau all +1, all -1 or alternating on R^3 and R^5: axis 0 carries
        centres, axis 1 frequencies, the others are dead."""
        rng = np.random.default_rng(50 + dim)
        tau = {"plus": np.ones(dim), "minus": -np.ones(dim),
               "alternating": (-1.0) ** np.arange(dim)}[signs]
        form = np.diag(rng.uniform(0.5, 2.0, size=dim))
        fam = _engine_family(rng, form, 3, shift_axes=(0,), freq_axes=(1,), deg=3)
        _matches_reference(fam, rng.uniform(-5.0, 5.0, size=(3, 20)), table, tau)

    @pytest.mark.parametrize("table", [False, True])
    def test_dead_axes_up_to_degree_six(self, table):
        """Every axis dead, monomials of degree <= 6: the even moments
        (2h - 1)!! sigma^{2h} up to h = 3, the odd ones exact zeros."""
        rng = np.random.default_rng(56)
        fam = _engine_family(rng, DIAG4, 3, deg=6)
        fam.coef[:, 1:] *= 0.1
        _matches_reference(fam, rng.uniform(-5.0, 5.0, size=(3, 20)), table)

    @pytest.mark.parametrize("table", [False, True])
    def test_live_and_dead_axes_in_one_family(self, table):
        """R^5, alternating tau: centres on axis 1, frequencies on axes 1 and 3,
        axes 0, 2 and 4 dead, monomials of degree <= 6 across both kinds."""
        rng = np.random.default_rng(57)
        tau = (-1.0) ** np.arange(5)
        form = np.diag([0.8, 1.4, 0.6, 1.1, 1.7])
        fam = _engine_family(rng, form, 3, shift_axes=(1,), freq_axes=(1, 3), deg=6)
        fam.coef[:, 1:] *= 0.1
        _matches_reference(fam, rng.uniform(-4.0, 4.0, size=(3, 15)), table, tau)

    @pytest.mark.parametrize("table", [False, True])
    def test_large_frequencies_stay_finite(self, table):
        """|w| up to 1e8: the prefactor divides by the paired roots, each
        about 2 |w|, and multiplies by exp of the live exponent."""
        rng = np.random.default_rng(45)
        fam = _engine_family(rng, DIAG4, 2, freq_axes=(0, 2), deg=2)
        fam.coef[:, 1:] *= 0.1           # no cancellation: each value is near pref c_0
        w = np.concatenate([np.logspace(0, 8, 17), -np.logspace(0, 8, 17)])
        w = np.stack([w, w[::-1]])
        got = batched_osc_integral(fam, w, TAU4, table=table)
        want = osc_family_reference(fam, w, TAU4, table=table)
        assert np.all(np.isfinite(got))
        if table:
            got, want = got[..., 0], want[..., 0]   # the constant monomial
        assert np.all(np.abs(want) > 0)
        assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-13
        assert np.abs(want[0, 16]) < 1e-14 * np.abs(want[0, 0])   # the decay is resolved

    def test_off_centre_prefactor_against_mpmath(self):
        """Centres and frequencies with |w| up to 1e8, against 40-digit mpmath.

        Per axis the exponent lin^2 / (2 beta) + i b c + i tau w c^2 has parts
        of size w c^2 that cancel; the engine forms it with the cancellation
        done analytically, so the relative error stays at rounding level.
        """
        import mpmath

        mpmath.mp.dps = 40
        a = [0.7, 1.3, 0.9, 2.1]
        shift = np.array([[0.5, 0.0, -1.5, 0.25], [2.0, 0.0, 0.0, 0.75]])
        freq = np.array([[0.3, -0.8, 0.0, 1.1], [0.0, 0.6, 0.0, -0.4]])
        fam = GaussMixture._of(np.diag(a), np.zeros((1, 4), dtype=int), np.ones((2, 1)), shift,
                               freq)
        w = np.concatenate([np.logspace(0, 8, 9), -np.logspace(0, 8, 9)])
        got = batched_osc_integral(fam, np.stack([w, w]), TAU4)
        worst = 0.0
        for k in range(2):
            for col, wv in enumerate(w):
                want = mpmath.mpc(1)
                for j in range(4):
                    t, b, c, wj = TAU4[j], mpmath.mpf(freq[k, j]), mpmath.mpf(shift[k, j]), \
                        mpmath.mpf(wv)
                    beta = a[j] - 2j * t * wj
                    lin = 1j * b + 2j * t * wj * c
                    want *= mpmath.sqrt(2 * mpmath.pi / beta) \
                        * mpmath.exp(lin ** 2 / (2 * beta) + 1j * b * c + 1j * t * wj * c ** 2)
                worst = max(worst, float(abs(got[k, col] - complex(want)) / abs(want)))
        assert worst <= 1e-14


def _coupled_form(rng) -> np.ndarray:
    L = rng.normal(size=(4, 4)) * 0.4
    return L @ L.T + np.eye(4)


class TestConjCoef:
    """conj_coef is a coefficient block taken at -w with the frequencies
    negated: U_m(-w; b, c) = conj U_m(w; -b, c) lets the engine read it off
    the same per-monomial integrals as coef."""

    @staticmethod
    def _two_calls(fam, conj, w):
        mirrored = GaussMixture._of(fam.form, fam.expo, conj, fam.shift, -fam.freq)
        return osc_family_reference(fam, w, TAU4) + osc_family_reference(mirrored, -w, TAU4)

    @pytest.mark.parametrize("coupled", [False, True], ids=["diagonal", "coupled"])
    @pytest.mark.parametrize("axes", [((), ()), ((0, 2), (1,)), ((1, 3), (0, 3))],
                             ids=["centred", "some_axes", "off_centre"])
    def test_against_the_oracle_at_minus_w(self, coupled, axes):
        rng = np.random.default_rng(47)
        form = _coupled_form(rng) if coupled else DIAG4
        fam = _engine_family(rng, form, 4, shift_axes=axes[0], freq_axes=axes[1], deg=3)
        conj = (rng.normal(size=fam.coef.shape) + 1j * rng.normal(size=fam.coef.shape)) * 0.3
        conj[:, 0] += 1.0 - 2.0j
        w = rng.uniform(-5.0, 5.0, size=(4, 25))
        got = batched_osc_integral(fam, w, TAU4, conj_coef=conj)
        want = self._two_calls(fam, conj, w)
        assert got.shape == want.shape == w.shape
        _close_to_reference(got, want)

    def test_zero_block_is_the_plain_value(self):
        rng = np.random.default_rng(48)
        fam = _engine_family(rng, DIAG4, 3, shift_axes=(1,), freq_axes=(0,), deg=2)
        w = rng.uniform(-5.0, 5.0, size=(3, 20))
        got = batched_osc_integral(fam, w, TAU4, conj_coef=np.zeros_like(fam.coef))
        _close_to_reference(got, osc_family_reference(fam, w, TAU4))


class TestDeadAxes:
    """A monomial odd on a dead axis (no node has a centre or frequency on
    it) has moment exactly 0 there, so the engine does not form it; the
    oracle forms every monomial, and a table keeps every column."""

    U0 = 1   # the column of u_0 in the graded order of `_engine_family`

    @pytest.mark.parametrize("table", [False, True])
    def test_same_monomial_dead_then_live(self, table):
        """u_0 on the same family twice: axis 0 dead (dropped, an exact 0
        column) and live through one node's centre (kept, nonzero there)."""
        rng = np.random.default_rng(49)
        dead = _engine_family(rng, DIAG4, 3, freq_axes=(1,), deg=3)
        assert tuple(dead.expo[self.U0]) == (1, 0, 0, 0)
        live = GaussMixture._of(DIAG4, dead.expo, dead.coef, dead.shift.copy(), dead.freq)
        live.shift[1, 0] = 0.6
        w = rng.uniform(-5.0, 5.0, size=(3, 20))
        for fam in (dead, live):
            _matches_reference(fam, w, table)
        if table:
            assert np.all(batched_osc_integral(dead, w, TAU4, table=True)[..., self.U0] == 0)
            col = batched_osc_integral(live, w, TAU4, table=True)[..., self.U0]
            assert np.all(col[[0, 2]] == 0) and np.all(np.abs(col[1]) > 0)

    @pytest.mark.parametrize("table", [False, True])
    def test_coupled_centred_family(self, table):
        """Every axis of the diagonal family is dead; the table maps back
        through the congruence's basis restricted to the kept monomials."""
        rng = np.random.default_rng(50)
        fam = _engine_family(rng, _coupled_form(rng), 3, deg=4)
        _matches_reference(fam, rng.uniform(-5.0, 5.0, size=(3, 20)), table)



class TestNoLiveAxis:
    """Families with no centre or frequency on any axis: every factor
    depends on w alone, every kept monomial is even and has its own product
    s^h, so in plain mode and with conj_coef the engine contracts the
    coefficients, double factorials folded in, with the products directly.
    Every value is checked against the oracle at 1e-13 of the largest
    reference value at its w, so the decay at |w| = 1e4 is resolved too.
    The tiling test also runs the per-monomial contraction: table mode, and
    a coupled family with live axes."""

    # (dimension, tau): balanced as at every catalog signature, then axes
    # left unpaired
    TAUS = {"d2": np.array([1.0, -1.0]), "d4": TAU4,
            "d6": np.array([1.0, 1.0, 1.0, -1.0, -1.0, -1.0]),
            "d3_plus": np.ones(3), "d5_alternating": (-1.0) ** np.arange(5)}
    W = np.array([0.0, 1e-8, -1e-8, 1e4, -1e4, 0.3, -1.7, 4.9])

    @staticmethod
    def _family(rng, tau, coupled, nodes=3):
        """Every axis dead; powers 4 and 6 on axis 0, a mixed even monomial and
        monomials odd on some axis (dropped on a diagonal form)."""
        dim = len(tau)
        rows = [np.zeros(dim, dtype=int)]
        for j, k in ((0, 2), (0, 4), (0, 6), (dim - 1, 2), (0, 3)):
            rows.append(np.eye(dim, dtype=int)[j] * k)
        rows.append(2 * (np.eye(dim, dtype=int)[0] + np.eye(dim, dtype=int)[-1]))
        rows.append(np.eye(dim, dtype=int)[0] + np.eye(dim, dtype=int)[-1])
        expo = np.array(rows)
        coef = (rng.normal(size=(nodes, len(expo))) + 1j * rng.normal(size=(nodes, len(expo)))) * 0.3
        coef[:, 0] += 2.0
        if coupled:
            L = rng.normal(size=(dim, dim)) * 0.4
            form = L @ L.T + np.eye(dim)
        else:
            form = np.diag(rng.uniform(0.5, 2.0, size=dim))
        return GaussMixture._of(form, expo, coef, np.zeros((nodes, dim)), np.zeros((nodes, dim)))

    @staticmethod
    def _close(got, want):
        assert got.shape == want.shape
        scale = np.abs(want).max(axis=0)
        assert np.all(scale > 0)
        assert np.all(np.abs(got - want) <= 1e-13 * scale)

    @pytest.mark.parametrize("conj", [False, True], ids=["plain", "conj_coef"])
    @pytest.mark.parametrize("coupled", [False, True], ids=["diagonal", "coupled"])
    @pytest.mark.parametrize("taus", list(TAUS))
    def test_against_the_oracle(self, taus, coupled, conj):
        tau = self.TAUS[taus]
        if coupled:   # the congruence orders its columns positives-first
            tau = np.sort(tau)[::-1]
        rng = np.random.default_rng(60 + len(tau) + 10 * coupled)
        fam = self._family(rng, tau, coupled)
        assert coupled == bool(np.count_nonzero(fam.form - np.diag(np.diagonal(fam.form))))
        w = np.stack([self.W, self.W[::-1], 0.5 * self.W])
        want = osc_family_reference(fam, w, tau)
        if conj:
            other = (rng.normal(size=fam.coef.shape) + 1j * rng.normal(size=fam.coef.shape)) * 0.3
            other[:, 0] += 1.0 - 2.0j
            want = want + osc_family_reference(
                GaussMixture._of(fam.form, fam.expo, other, fam.shift, fam.freq), -w, tau)
        got = batched_osc_integral(fam, w, tau, conj_coef=other if conj else None)
        self._close(got, want)

    @pytest.mark.parametrize("mode, live", [
        ("plain", False), ("conj_coef", False), ("table", False),
        ("plain", True), ("conj_coef", True), ("table", True)],
        ids=["plain", "conj_coef", "table", "live_coupled-plain", "live_coupled-conj_coef",
             "live_coupled-table"])
    def test_tiles_split_nodes_and_frequencies(self, mode, live, monkeypatch):
        """Passes of seven pairs: two nodes per tile (3 frequencies), and a
        row in three chunks (16 frequencies)."""
        rng = np.random.default_rng(66)
        if live:
            fam = _engine_family(rng, _coupled_form(rng), 5, shift_axes=(0, 3), freq_axes=(1,),
                                 deg=3)
        else:
            fam = self._family(rng, TAU4, False, nodes=5)
        other = fam.coef[::-1].copy() if mode == "conj_coef" else None
        table = mode == "table"
        tiles = _spy_tiles(monkeypatch)
        batched_osc_integral(fam, np.ones((5, 1)), TAU4, table=table, conj_coef=other)
        monkeypatch.setattr(gausspoly, "_OSC_BYTES", 7 * 16 * tiles[0][1])
        for nw, tile in ((3, (2, 3)), (16, (1, 6))):
            w = rng.uniform(-5.0, 5.0, size=(5, nw))
            want = osc_family_reference(fam, w, TAU4, table=table)
            if other is not None:
                want = want + osc_family_reference(
                    GaussMixture._of(fam.form, fam.expo, other, fam.shift, -fam.freq), -w, TAU4)
            got = batched_osc_integral(fam, w, TAU4, table=table, conj_coef=other)
            assert tiles[-1][2:] == tile
            if table:
                _close_to_reference(got, want)
            else:
                self._close(got, want)

    def test_no_frequencies(self):
        """An empty frequency array gives an empty result, as on the live route."""
        fam = self._family(np.random.default_rng(69), TAU4, False)
        assert batched_osc_integral(fam, np.zeros((3, 0)), TAU4).shape == (3, 0)
        assert batched_osc_integral(fam.term(0), np.zeros((1, 0)), TAU4).shape == (1, 0)

    def test_no_constant_monomial(self):
        """Even monomials only, none of them constant: x_0^2, x_0^4 and
        x_1^2 x_3^2 (whose divisor x_1^2 is not in the family)."""
        rng = np.random.default_rng(68)
        expo = np.array([[2, 0, 0, 0], [4, 0, 0, 0], [0, 2, 0, 2]])
        coef = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        fam = GaussMixture._of(DIAG4, expo, coef, np.zeros((3, 4)), np.zeros((3, 4)))
        w = np.stack([self.W] * 3)
        self._close(batched_osc_integral(fam, w, TAU4), osc_family_reference(fam, w, TAU4))

    @pytest.mark.parametrize("conj", [False, True], ids=["plain", "conj_coef"])
    def test_every_monomial_odd_is_exactly_zero(self, conj):
        """All monomials odd on axis 0 of a diagonal family: none is kept."""
        rng = np.random.default_rng(67)
        expo = np.array([[1, 0, 0, 0], [3, 0, 0, 0], [1, 2, 0, 0], [1, 0, 1, 1]])
        coef = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
        fam = GaussMixture._of(DIAG4, expo, coef, np.zeros((3, 4)), np.zeros((3, 4)))
        w = np.stack([self.W] * 3)
        got = batched_osc_integral(fam, w, TAU4, conj_coef=coef.conj() if conj else None)
        assert got.shape == w.shape and np.all(got == 0)
        assert np.all(osc_family_reference(fam, w, TAU4) == 0)


class TestWeights:
    """With weights (Nw,), the engine contracts each row with them as it
    goes: the weighted call equals the plain call contracted with
    `@ weights`, to 1e-13 of the row's scale sum_k |weights[k] value[i, k]|."""

    @staticmethod
    def _family(rng, live, coupled):
        form = _coupled_form(rng) if coupled else DIAG4
        axes = dict(shift_axes=(0, 3), freq_axes=(1,)) if live else {}
        return _engine_family(rng, form, 5, deg=3, **axes)

    @staticmethod
    def _check(fam, w, mode, weights):
        other = fam.coef[::-1].copy() if mode == "conj_coef" else None
        table = mode == "table"
        plain = batched_osc_integral(fam, w, TAU4, table=table, conj_coef=other)
        got = batched_osc_integral(fam, w, TAU4, table=table, conj_coef=other, weights=weights)
        want = np.einsum("ik...,k->i...", plain, weights)
        scale = np.einsum("ik...,k->i...", np.abs(plain), np.abs(weights))
        assert got.shape == want.shape == (len(fam),) + plain.shape[2:]
        assert np.all(np.abs(got - want) <= 1e-13 * scale)

    @pytest.mark.parametrize("mode", ["plain", "conj_coef", "table"])
    @pytest.mark.parametrize("coupled", [False, True], ids=["diagonal", "coupled"])
    @pytest.mark.parametrize("live", [False, True], ids=["dead", "live"])
    def test_equals_the_contracted_values(self, live, coupled, mode, monkeypatch):
        """Every mode on the direct route (dead axes) and the per-monomial one
        (live axes), in one pass; then in passes of seven pairs: two nodes
        per tile (3 frequencies), and a row in three chunks (16 frequencies),
        each adding its slice of the weights."""
        rng = np.random.default_rng(70 + 2 * live + coupled)
        fam = self._family(rng, live, coupled)
        assert coupled == bool(np.count_nonzero(fam.form - np.diag(np.diagonal(fam.form))))
        tiles = _spy_tiles(monkeypatch)
        self._check(fam, rng.uniform(-5.0, 5.0, size=(5, 16)), mode, rng.normal(size=16))
        assert tiles[-1][2] >= 5 and tiles[-1][3] == 16
        monkeypatch.setattr(gausspoly, "_OSC_BYTES", 7 * 16 * tiles[0][1])
        for nw, tile in ((3, (2, 3)), (16, (1, 6))):
            self._check(fam, rng.uniform(-5.0, 5.0, size=(5, nw)), mode, rng.normal(size=nw))
            assert tiles[-1][2:] == tile

    def test_weights_take_one_per_frequency(self):
        fam = _engine_family(np.random.default_rng(79), DIAG4, 2)
        for weights in (np.ones(2), np.ones(4), np.ones((1, 3))):
            with pytest.raises(DimensionMismatch):
                batched_osc_integral(fam, np.ones((2, 3)), TAU4, weights=weights)
        got = batched_osc_integral(fam, np.zeros((2, 0)), TAU4, table=True, weights=np.ones(0))
        assert got.shape == (2, len(fam.expo)) and not got.any()


# ------------------------------------------------- term stacks (per-term forms)

NOT_SYMMETRIC = np.array([[1.0, 0.2], [0.0, 1.0]])
INDEFINITE = np.array([[1.0, 0.0], [0.0, -0.5]])


def _stack_terms(rng, count=5, dim=3, poly=True) -> list:
    """Terms with coupled forms, nonzero centres and frequencies, and either a
    polynomial of their own or the constant coefficient only."""
    terms = []
    for _ in range(count):
        L = rng.normal(size=(dim, dim)) * 0.5
        expo = rng.integers(0, 3, size=(3, dim)) if poly else np.zeros((1, dim), dtype=int)
        terms.append(GaussPoly(dim, L @ L.T + 0.5 * np.eye(dim), shift=rng.normal(size=dim) * 0.5,
                               freq=rng.normal(size=dim), expo=expo,
                               coef=rng.normal(size=len(expo)) + 1j * rng.normal(size=len(expo))))
    return terms


def _complex_weight(rng, dim=3):
    """A complex symmetric W with Re W positive definite, and a complex eta."""
    X = rng.normal(size=(dim, dim)) * 0.3
    eta = rng.normal(size=dim) * 0.3 + 1j * rng.normal(size=dim) * 0.3
    return 0.2 * np.eye(dim) + 0.5j * (X + X.T), eta


class TestTermStack:
    """Mixtures whose terms have forms, centres and frequencies of their own."""

    @pytest.mark.parametrize("poly", [False, True], ids=["plain", "polynomial"])
    @pytest.mark.parametrize("weighted", [False, True], ids=["plain_integral", "complex_W_eta"])
    def test_integrate_against_matches_wick(self, poly, weighted):
        """Every term of a stack of coupled, shifted, frequency-carrying terms,
        and their mixture, integrate as the Wick pairings of the oracle."""
        rng = np.random.default_rng(30 + poly)
        terms = _stack_terms(rng, poly=poly)
        W, eta = _complex_weight(rng) if weighted else (None, None)
        want = np.array([wick_integrate_against(t, W, eta) for t in terms])
        mix = GaussMixture(terms)
        assert np.count_nonzero(mix.quad[0] - np.diag(np.diagonal(mix.quad[0])))
        got = mix._integrals(W, eta)
        assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want))
        assert abs(mix.integrate_against(W, eta) - want.sum()) <= 1e-13 * np.abs(want).sum()
        if not weighted:
            assert abs(mix.integral() - want.sum()) <= 1e-13 * np.abs(want).sum()

    def test_high_degree_moments_match_wick(self):
        """Degree up to 8 in 4 variables: every moment of the graded basis up to
        that degree enters, against a complex W."""
        rng = np.random.default_rng(33)
        terms = []
        for _ in range(6):
            L = rng.normal(size=(4, 4)) * 0.5
            expo = np.vstack([rng.integers(0, 3, size=(5, 4)), [2, 2, 2, 2]])
            terms.append(GaussPoly(4, L @ L.T + 0.5 * np.eye(4), shift=rng.normal(size=4) * 0.5,
                                   freq=rng.normal(size=4), expo=expo,
                                   coef=rng.normal(size=6) + 1j * rng.normal(size=6)))
        assert gausspoly._degree(GaussMixture(terms).expo) == 8
        for W, eta in [(None, None), _complex_weight(rng, 4)]:
            want = np.array([wick_integrate_against(t, W, eta) for t in terms])
            got = GaussMixture(terms)._integrals(W, eta)
            assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want))

    def test_only_symmetric_part_of_w_enters(self):
        rng = np.random.default_rng(35)
        terms = _stack_terms(rng)
        W, eta = _complex_weight(rng)
        skew = rng.normal(size=(3, 3)) * (0.5 + 0.5j)
        want = np.array([wick_integrate_against(t, W, eta) for t in terms])
        got = GaussMixture(terms)._integrals(W + skew - skew.T, eta)
        assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want))

    def test_det_inv_sqrt_branches(self):
        """Real forms take the Cholesky factor, complex ones the eigenvalues;
        either raises NonSPDQuadraticForm off its domain."""
        rng = np.random.default_rng(36)
        L = rng.normal(size=(4, 3, 3))
        A = L @ np.swapaxes(L, 1, 2) + 0.3 * np.eye(3)
        assert np.allclose(gausspoly.det_inv_sqrt(A), np.linalg.det(A) ** -0.5,
                           rtol=1e-14, atol=0)
        W, _ = _complex_weight(rng)
        want = np.prod(np.linalg.eigvals(A + W) ** -0.5, axis=-1)
        assert np.allclose(gausspoly.det_inv_sqrt(A + W), want, rtol=1e-14, atol=0)
        for bad in (INDEFINITE, INDEFINITE + 0.1j * np.eye(2)):
            with pytest.raises(NonSPDQuadraticForm):
                gausspoly.det_inv_sqrt(bad)

    def test_zero_term_integrates_to_zero(self):
        """A term whose coefficients are all dropped integrates to exactly 0:
        alone, inside a mixture with polynomial terms, and against a complex W."""
        rng = np.random.default_rng(34)
        zero = GaussPoly(3, np.eye(3), shift=[0.1, 0.2, -0.3], freq=[0.5, 0.0, 1.0],
                         expo=[[1, 0, 2]], coef=[0.0])
        assert zero.expo.shape == (0, 3)
        W, eta = _complex_weight(rng)
        assert zero.integral() == 0
        assert zero.integrate_against(W, eta) == 0
        terms = _stack_terms(rng)
        mix = GaussMixture(terms[:2] + [zero] + terms[2:])
        for args in [(None, None), (W, eta)]:
            got = mix._integrals(*args)
            assert got[2] == 0
            assert np.all(got[[0, 1, 3, 4, 5]] != 0)

    @pytest.mark.parametrize("W, eta", [(np.eye(3), None), (np.eye(2)[:1], None),
                                        (None, np.zeros(3)), (None, np.zeros((2, 1)))],
                             ids=["W_3x3", "W_1x2", "eta_3", "eta_2x1"])
    def test_integrate_against_checks_shapes(self, W, eta):
        phi = GaussPoly(2, np.eye(2), {(1, 0): 1.0})
        with pytest.raises(DimensionMismatch):
            phi.integrate_against(W, eta)
        with pytest.raises(DimensionMismatch):
            GaussMixture([phi, phi.scaled(2.0)]).integrate_against(W, eta)

    def test_ops_act_on_each_term(self):
        """One map per term, the inverse transform and an operator on a stack of
        per-term forms, centres and frequencies equal the one-term operations."""
        rng = np.random.default_rng(32)
        terms = _stack_terms(rng)
        mix = GaussMixture(terms)
        maps = rng.normal(size=(len(terms), 3, 3)) * 0.3 + np.eye(3)
        moves = rng.normal(size=(len(terms), 3))
        op = [(np.array([[2, 0, 0]]), np.array([1.0]), (0, 1, 0)),
              (np.array([[0, 0, 1], [0, 0, 0]]), np.array([2.0, -1j]), (1, 0, 1))]
        moved = mix.precompose_affine(maps, moves)
        inv = mix.inverse_fourier().terms
        applied = apply_operator(mix, op).terms
        assert len(inv) == len(applied) == len(terms)
        U = rand_points(rng, 20, 3, scale=1.0)
        for i, t in enumerate(terms):
            pairs = [(moved[i], t.evaluate_many(U @ maps[i].T + moves[i])),
                     (inv[i], t.fourier().precompose_affine(-np.eye(3), np.zeros(3))
                      .evaluate_many(U)),
                     (applied[i], apply_operator(t, op).evaluate_many(U))]
            for got, want in pairs:
                assert isinstance(got, GaussPoly)
                assert np.max(np.abs(got.evaluate_many(U) - want)) \
                    <= 1e-12 * max(1.0, np.max(np.abs(want)))

    def test_node_family_values_sum_its_terms(self):
        """A node family is a mixture: evaluate and integral give the sum over
        its terms (the engine's one row per term is
        `test_family_single_node_is_row_of_batch`)."""
        rng = np.random.default_rng(37)
        phi = _family_phi(rng.uniform(-0.6, 0.6, size=36),
                          rng.uniform(-1.0, 1.0, size=(len(FAMILY_MONOMIALS), 2)),
                          rng.uniform(0.1, 0.8, size=6), rng.uniform(-1.0, -0.1, size=6))
        fam = phi.restrict([4, 5], np.array([[0.2, -0.4], [0.5, 0.1], [-0.3, 0.6]]))
        assert fam.stack is fam.terms is fam and len(fam) == 3
        terms = list(fam)
        assert all(isinstance(t, GaussPoly) for t in terms)
        U = rand_points(rng, 10, 4, scale=1.0)
        want = sum(t.evaluate_many(U) for t in terms)
        assert np.max(np.abs(fam.evaluate_many(U) - want)) <= 1e-13 * np.max(np.abs(want))
        want = sum(t.integral() for t in terms)
        assert abs(fam.integral() - want) <= 1e-13 * abs(want)

    def test_terms_of_one_form_are_a_node_family(self):
        """A mixture of terms that all have one form holds it as one form, and
        the engine gives each term the value of its own one-term call."""
        g = GaussPoly.iso_gaussian(4, a=2.0)
        h = GaussPoly(4, 2.0 * np.eye(4), {(0, 0, 0, 0): 1.0, (1, 0, 2, 0): 0.5j},
                      shift=[0.3, 0.0, -0.2, 0.0], freq=[0.0, 0.4, 0.0, -0.1])
        mix = GaussMixture([g, h])
        assert mix.form is not None and mix.quad.strides[0] == 0
        w = np.random.default_rng(80).uniform(-5.0, 5.0, size=(2, 7))
        for table in (False, True):
            got = batched_osc_integral(mix, w, TAU4, table=table)
            for i, t in enumerate((g, h)):
                one = batched_osc_integral(t, w[i:i + 1], TAU4)
                val = got[i] @ mix.coef[i] if table else got[i]
                assert np.max(np.abs(val - one[0])) <= 1e-13 * np.max(np.abs(one))

    def test_engine_rejects_terms_with_forms_of_their_own(self):
        """The engine needs one form for all terms and one row of w per term."""
        mix = GaussMixture([GaussPoly.iso_gaussian(4), GaussPoly.gaussian(np.diag([1, 2, 3, 4.0]))])
        assert mix.form is None
        for table in (False, True):
            with pytest.raises(DimensionMismatch):
                batched_osc_integral(mix, np.ones((2, 3)), TAU4, table=table)
        one = GaussPoly.iso_gaussian(4)
        for w in (np.ones(3), np.ones((2, 3))):
            with pytest.raises(DimensionMismatch):
                batched_osc_integral(one, w, TAU4)

    @pytest.mark.parametrize("bad", [NOT_SYMMETRIC, INDEFINITE])
    def test_public_input_checks_each_form(self, bad):
        with pytest.raises(NonSPDQuadraticForm):
            GaussPoly(2, bad, {(0, 0): 1.0})
        text = json.dumps({"dim": 2, "quad": bad.tolist(), "shift": [0.0, 0.0],
                           "poly": [[0, 0, 1.0, 0.0]]})
        with pytest.raises(NonSPDQuadraticForm):
            GaussPoly.from_json(text)

    @pytest.mark.parametrize("bad", [NOT_SYMMETRIC, INDEFINITE])
    def test_derived_stack_checks_every_member(self, bad):
        """One bad form among good ones fails the batched check of a derived stack."""
        good = np.array([[1.0, 0.3], [0.3, 2.0]])
        stack = GaussMixture._of(np.stack([good, bad, good]), np.zeros((1, 2), dtype=int),
                                 np.ones((3, 1), dtype=complex), np.zeros((3, 2)),
                                 np.zeros((3, 2)))
        for derive in (lambda s: s.precompose_affine(np.eye(2), np.zeros(2)),
                       GaussMixture.fourier, GaussMixture.inverse_fourier):
            with pytest.raises(NonSPDQuadraticForm):
                derive(stack)

    def test_singular_map_rejected(self):
        phi = GaussPoly.iso_gaussian(2)
        singular = np.array([[1.0, 2.0], [0.5, 1.0]])
        with pytest.raises(SingularAffineMap):
            phi.precompose_affine(singular, np.zeros(2))
        with pytest.raises(SingularAffineMap):
            phi.stack[np.zeros(2, dtype=int)].precompose_affine(
                np.stack([np.eye(2), singular]), np.zeros(2))
