"""Tests for the exact polynomial-times-Gaussian calculus."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pseudoht.errors import DimensionMismatch
from pseudoht.gausspoly import (
    GaussMixture,
    GaussPoly,
    apply_operator,
    batched_osc_integral,
    compose,
    gaussian_poly_integral,
)
from pseudoht.kernels import inv_p_power


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
        assert d.poly == {(1,): pytest.approx(-1.0)}

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

    def test_parseval_random_pair(self):
        rng = np.random.default_rng(5)
        for _ in range(3):
            a1, a2 = rng.uniform(0.5, 2.0, size=2)
            phi = GaussPoly(2, np.diag([a1, a2]), {(1, 0): 1.0, (0, 0): 0.2})
            psi = GaussPoly(2, np.diag([a2, a1]), {(0, 1): 0.5 - 0.1j, (0, 0): 1.0})
            # int phi conj(psi) equals int Fphi conj(Fpsi); conj(psi) has the
            # same Gaussian with conjugated coefficients for freq=0, shift=0
            def pair(f, g):
                gc = GaussPoly(2, g.quad, {m: np.conj(c) for m, c in g.poly.items()},
                               g.shift, g.freq)
                prod_quad = f.quad + gc.quad
                from pseudoht.gausspoly import poly_mul
                return gaussian_poly_integral(prod_quad, np.zeros(2),
                                              poly_mul(f.poly, gc.poly))
            lhs = pair(phi, psi)
            rhs = pair(phi.fourier(), psi.fourier())
            assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs))

    def test_partial_fourier_matches_full_on_product(self):
        # product function: partial in z then in x equals full transform
        phi = GaussPoly(3, np.diag([1.0, 2.0, 0.5]), {(1, 0, 2): 1.0}, shift=[0.1, 0.0, -0.2])
        both = phi.partial_fourier([0]).partial_fourier([1, 2])
        full = phi.fourier()
        rng = np.random.default_rng(6)
        for u in rand_points(rng, 6, 3):
            assert abs(both.evaluate(u) - full.evaluate(u)) < 1e-12


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
        ana = batched_osc_integral(phi, np.array([w]), tau)[0]
        assert abs(ana - num) < 1e-6

    def test_batched_diag_matches_general(self):
        phi = GaussPoly(2, np.diag([1.0, 1.7]), {(2, 1): 0.3, (0, 0): 1.0},
                        shift=[0.5, 0.2], freq=[0.1, -0.4])
        tau = np.array([1.0, -1.0])
        ws = np.array([0.0, 0.3, -2.0, 11.0])
        fast = batched_osc_integral(phi, ws, tau)
        slow = np.array([phi.integrate_against(W=-2j * w * np.diag(tau)) for w in ws])
        assert np.max(np.abs(fast - slow)) < 1e-12

    def test_l1_norm_gaussian(self):
        phi = GaussPoly.iso_gaussian(1)
        assert abs(phi.l1_norm() - np.sqrt(2 * np.pi)) < 1e-8

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
        assert abs(phi.l1_norm() - num) < 1e-6


class TestOperators:
    PHI = GaussPoly(2, np.array([[1.2, 0.3], [0.3, 0.9]]), {(0, 0): 1.0, (1, 0): 0.5 - 0.2j},
                    shift=[0.4, -0.7], freq=[0.3, 0.8])

    def test_matches_elementary_steps(self):
        """u0^2 d_1 + 3 d_0 d_1 + (2 u1 - 1) against differentiate/multiply."""
        phi = self.PHI
        op = [({(2, 0): 1.0}, (0, 1)), ({(0, 0): 3.0}, (1, 1)),
              ({(0, 1): 2.0, (0, 0): -1.0}, (0, 0))]
        want = (phi.differentiate(1).multiply_monomial((2, 0))
                .plus(phi.differentiate(0).differentiate(1).scaled(3.0))
                .plus(phi.multiply_linear([0.0, 2.0], -1.0)))
        U = rand_points(np.random.default_rng(20), 30, 2)
        ref = want.evaluate_many(U)
        assert np.max(np.abs(ref)) > 0.1
        assert np.max(np.abs(apply_operator(phi, op).evaluate_many(U) - ref)) <= 1e-13

    def test_compose_is_successive_application(self):
        """(u1 d_0 + d_1) o (u0^2 d_1 + 1) applied at once or one after the other."""
        X = [({(0, 1): 1.0}, (1, 0)), ({(0, 0): 1.0}, (0, 1))]
        Y = [({(2, 0): 1.0}, (0, 1)), ({(0, 0): 1.0}, (0, 0))]
        U = rand_points(np.random.default_rng(21), 30, 2)
        ref = apply_operator(apply_operator(self.PHI, Y), X).evaluate_many(U)
        got = apply_operator(self.PHI, compose(X, Y)).evaluate_many(U)
        assert np.max(np.abs(ref)) > 0.1
        assert np.max(np.abs(got - ref)) <= 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            apply_operator(self.PHI, [({(0, 0, 0): 1.0}, (1, 0, 0))])


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
    assert np.count_nonzero(fam.quad - np.diag(np.diagonal(fam.quad)))
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
        one = batched_osc_integral(single, np.array(w), tau)
        assert np.max(np.abs(one - rows[k])) <= 1e-12 * max(1.0, np.max(np.abs(rows[k])))
        scalar = inv_p_power(single, 2)
        assert abs(scalar - inv[k]) <= 1e-12 * max(1.0, abs(inv[k]))
