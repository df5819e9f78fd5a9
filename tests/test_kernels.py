"""Kernel-family, off-cone kernel, and P^lambda distribution tests."""
import math

import numpy as np
import pytest
from scipy.integrate import quad

from pseudoht.clifford import p_form
from pseudoht import kernels
from pseudoht.errors import (
    NonPositiveScale,
    NotConverged,
    OnConeRegion,
    PolePosition,
    ThetaZero,
    UnsupportedN,
)
from pseudoht.gausspoly import GaussPoly, apply_operator, axis_monomial, equal_rows
from pseudoht.kernels import (
    KernelSelector,
    PSGauss,
    fourier_decay_constant,
    gbar_residual,
    inv_p_eps_oracle,
    inv_p_power,
    kappa,
    kernel_q,
    kernel_q_lm,
    kernel_q_lm_bessel,
    p_i0_power,
    qj_table,
    smooth_kernel_offcone,
    volume_element,
)
from pseudoht.quadrature import half_disc_rule
from pseudoht.specfun import osc_weight_integral
from inv_p_reference import inv_p_power_per_node
from p_lambda_reference import laguerre_region, p_i0_power_laguerre
from radial_l1 import radial_l1_norm


class TestCoefficients:
    def test_kappa_at_zero(self):
        assert kappa(0.0) == 0.5

    def test_kappa_large_linear(self):
        assert kappa(40.0) / 10.0 == pytest.approx(1.0, abs=1e-15)

    def test_kappa_tiny_no_cancellation(self):
        import mpmath

        mpmath.mp.dps = 40
        exact = float(mpmath.mpf("1e-8") / 4 / mpmath.tanh(mpmath.mpf("1e-8") / 2))
        assert abs(kappa(1e-8) - 0.5) < 1e-12
        assert abs(kappa(2e-8) - exact) < 1e-12 or abs(kappa(2e-8) - 0.5) < 1e-12

    def test_volume_element_at_zero_and_monotone(self):
        assert volume_element(0.0, 2) == 1.0
        grid = np.linspace(0.0, 10.0, 50)
        vals = [volume_element(r, 3) for r in grid]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_w_over_kappa_identity(self):
        # W(t)/kappa(t)^n = 2^n / cosh^n(t/2) at t = 1, n = 2
        t, n = 1.0, 2
        lhs = volume_element(t, n) / kappa(t) ** n
        assert lhs == pytest.approx(4.0 / math.cosh(0.5) ** 2, rel=1e-12)

    def test_volume_element_overflow_safe(self):
        assert volume_element(3000.0, 4) == pytest.approx(0.0, abs=1e-300)


class TestKernelQ:
    def test_theta_zero_raises(self):
        with pytest.raises(ThetaZero):
            kernel_q(2, 1, np.zeros(4), [0.0])

    def test_null_cone_value_n2(self):
        # P(xi) = 0: rho-integral is 1, value i (2 pi)^{-(2+s/2)} / |theta|
        for s in (1, 2):
            v = kernel_q(2, s, np.array([1.0, 0.0, 1.0, 0.0]), [0.5] + [0.0] * (s - 1))
            assert v == pytest.approx(1j * (2 * math.pi) ** (-(2 + s / 2)) / 0.5)

    def test_null_cone_value_n1(self):
        # rho-integral is pi/2 at P = 0 for n = 1
        v = kernel_q(1, 2, np.array([1.0, 1.0]), [2.0, 0.0])
        assert v == pytest.approx(1j * math.pi / (2 * (2 * math.pi) ** 2 * 2.0))

    def test_elementary_antiderivative_n2(self):
        xi = np.array([2.0, 0.0, 1.0, 0.0])  # P = 3
        th = np.array([1.0])
        got = kernel_q(2, 1, xi, th)
        rho_int = (np.exp(3j) - 1) / 3j
        assert got == pytest.approx(1j * (2 * math.pi) ** -2.5 * rho_int)

    def test_selector_reduction(self):
        xi = np.array([0.7, -0.4, 0.2, 0.1])
        th = np.array([0.8, -0.3])
        a = kernel_q(2, 2, xi, th)
        b = kernel_q_lm(2, 2, xi, th, KernelSelector.constant(1.0))
        assert abs(a - b) < 1e-15

    def test_half_half_selector_is_pure_sine(self):
        xi = np.array([0.9, 0.1, 0.3, 0.2])
        th = np.array([0.6])
        v = kernel_q_lm(2, 1, xi, th, KernelSelector.constant(0.5))
        # lam = mu = 1/2: integrand i sin(P rho/|th|); kernel = i C/|th| * i * (sine int)
        P = p_form(xi)
        f = lambda r: np.sin(P * r / 0.6)
        sine, _ = quad(f, 0, 1)
        assert v == pytest.approx(1j * (2 * math.pi) ** -2.5 / 0.6 * 1j * sine, rel=1e-9)

    @pytest.mark.parametrize("ns", [(1, 2), (2, 1), (2, 2), (3, 1)])
    def test_bessel_form_matches_integral_form(self, ns):
        n, s = ns
        rng = np.random.default_rng(42)
        sel = KernelSelector.constant(0.35 + 0.2j)
        for _ in range(50):
            xi = rng.normal(size=2 * n) * 1.4
            th = rng.normal(size=s)
            if np.linalg.norm(th) < 0.05:
                continue
            a = kernel_q_lm(n, s, xi, th, sel)
            b = kernel_q_lm_bessel(n, s, xi, th, sel)
            assert abs(a - b) <= 1e-8 * max(1.0, abs(a))

    @pytest.mark.parametrize("sel", [KernelSelector.constant(1.0), KernelSelector.constant(0.0),
                                     KernelSelector.constant(0.3 + 0.4j),
                                     KernelSelector.heaviside()],
                             ids=["one", "zero", "complex", "heaviside"])
    def test_one_rho_integral_per_value(self, sel, monkeypatch):
        """The mu-part is the conjugate of the lam-part's rho-integral, so each
        value makes one call; the value equals the two-integral form bit for bit."""
        xi, th = np.array([1.3, -0.2, 0.4, 0.9]), np.array([-0.7])
        lam, mu = sel.lam_mu(th / 0.7)
        two = lam * osc_weight_integral(2, p_form(xi) / 0.7)[0] \
            - mu * osc_weight_integral(2, -p_form(xi) / 0.7)[0]
        calls = []

        def spy(n, v):
            calls.append(v)
            return osc_weight_integral(n, v)

        monkeypatch.setattr(kernels, "osc_weight_integral", spy)
        got = kernel_q_lm(2, 1, xi, th, sel)
        assert len(calls) == 1
        assert got == kernels.kernel_prefactor(2, 1) / 0.7 * two

    def test_even_in_xi_radial_in_theta(self):
        rng = np.random.default_rng(1)
        sel = KernelSelector.constant(0.7)
        for _ in range(20):
            xi = rng.normal(size=4)
            th = rng.normal(size=2)
            a = kernel_q_lm(2, 2, xi, th, sel)
            b = kernel_q_lm(2, 2, -xi, th, sel)
            ang = rng.uniform(0, 2 * np.pi)
            R = np.array([[np.cos(ang), -np.sin(ang)], [np.sin(ang), np.cos(ang)]])
            c = kernel_q_lm(2, 2, xi, R @ th, sel)
            assert abs(a - b) < 1e-14 and abs(a - c) < 1e-14

    def test_selector_difference_is_lambda_free_integral(self):
        """q^{1,0} - q^{0,1} = 2i C / |th| * (real cosine integral of the weight),

        i.e. the difference is purely a function of P/|theta| independent of
        the selector scale.
        """
        xi = np.array([1.1, 0.2, 0.4, -0.3])
        th = np.array([0.9])
        d = kernel_q_lm(2, 1, xi, th, KernelSelector.constant(1.0)) \
            - kernel_q_lm(2, 1, xi, th, KernelSelector.constant(0.0))
        v = p_form(xi) / 0.9
        cosi, _ = quad(lambda r: np.cos(v * r), 0, 1)
        want = 2j * (2 * np.pi) ** -2.5 / 0.9 * cosi
        assert abs(d - want) < 1e-10


def gbar_derivative_check(n, xi, theta, h=1e-4):
    """|analytic d/dv of the rho-integral - central differences| at (xi, theta)."""
    theta = np.atleast_1d(np.asarray(theta, float))
    v = p_form(np.asarray(xi, float)) / float(np.linalg.norm(theta))
    rho, w = half_disc_rule(256, (n - 2) / 2.0)
    analytic = 1j * (np.exp(1j * np.outer([v], rho)) @ (w * rho))[0]
    fd = (osc_weight_integral(n, v + h)[0] - osc_weight_integral(n, v - h)[0]) / (2 * h)
    return abs(analytic - fd)


class TestGbar:
    @pytest.mark.parametrize("ns", [(1, 2), (2, 1), (2, 2)])
    def test_constancy_random_points(self, ns):
        n, s = ns
        rng = np.random.default_rng(3)
        target = (2 * math.pi) ** (-(n + s / 2))
        for _ in range(50):
            xi = rng.normal(size=2 * n) * 1.5
            th = rng.normal(size=s)
            if np.linalg.norm(th) < 0.05:
                continue
            assert abs(gbar_residual(n, s, xi, th) - target) <= 1e-9

    def test_constancy_on_null_cone(self):
        xi = np.array([1.0, 0.0, 1.0, 0.0])  # P = 0
        assert abs(gbar_residual(2, 2, xi, [0.7, 0.1])
                   - (2 * math.pi) ** -3) < 1e-12

    def test_v_derivative_vs_finite_differences(self):
        assert gbar_derivative_check(2, np.array([0.8, 0.1, 0.2, 0.0]), [0.9, 0.2]) < 1e-6


def qj_degree_bound_holds(n: int, s: int) -> bool:
    """2((s+1)/2 + j) - deg Q_j >= s + n - 1 for every j present."""
    powers, _, index = qj_table(n, s)
    deg = {}
    for a, j in zip(powers, index):
        deg[j] = max(deg.get(j, 0), int(a))
    return all(2 * ((s + 1) / 2 + j) - d >= s + n - 1 for j, d in deg.items())


class TestOffconeKernel:
    def test_on_cone_region_raises(self):
        with pytest.raises(OnConeRegion):
            smooth_kernel_offcone(2, 1, np.array([1.0, 0, 0, 0]), [0.5])

    @pytest.mark.parametrize("ns", [(1, 1), (1, 2), (2, 1), (3, 1), (2, 2)])
    def test_degree_bookkeeping(self, ns):
        assert qj_degree_bound_holds(*ns)

    def test_qj_n2_explicit(self):
        # -d/dlam [c_s lam u^{-(s+1)/2}] = -c_s u^{-p} + (s+1) c_s lam^2 u^{-p-1}
        powers, coeffs, index = qj_table(2, 1)
        cs = fourier_decay_constant(1)
        table = {(int(a), int(j)): c for a, c, j in zip(powers, coeffs, index)}
        assert table[(0, 0)] == pytest.approx(-cs)
        assert table[(2, 1)] == pytest.approx(2 * cs)

    def test_n1_matches_direct_quadrature(self):
        x, z = np.array([2.0, 0.3]), np.array([0.2, 0.1])
        K = smooth_kernel_offcone(1, 2, x, z)
        P, z2, cs = p_form(x), float(z @ z), fourier_decay_constant(2)

        def f(t, part):
            lam = 1j * P / (4 * np.tanh(t))
            u = lam ** 2 + z2
            val = (0.5 / np.sinh(t)) * cs * lam / u ** 1.5
            return val.real if part == 0 else val.imag

        re, _ = quad(lambda t: f(t, 0), 0, 40, limit=400)
        im, _ = quad(lambda t: f(t, 1), 0, 40, limit=400)
        assert abs(K - 1j * (re + 1j * im)) < 1e-9

    def test_negative_p_branch(self):
        x = np.array([0.3, 0.0, 2.0, 0.0])  # P = -3.91
        z = np.array([0.2, 0.1])
        Kp = smooth_kernel_offcone(2, 2, np.roll(x, 2), z)  # P = +3.91
        Km = smooth_kernel_offcone(2, 2, x, z)
        # flipping the sign of P conjugates the boundary-value branch; the
        # outer factor i turns that into K(-P) = -conj(K(P))
        assert abs(Km + np.conj(Kp)) < 1e-9


class TestInvP:
    def test_odd_function_pairs_to_zero(self):
        psi = GaussPoly(4, 2.0 * np.eye(4), {(1, 0, 0, 0): 1.0})
        assert abs(inv_p_power(psi, 2)) < 1e-12

    def test_gaussian_closed_form(self):
        """For exp(-|x|^2) on R^4 the limit is exactly i pi^3 / 2."""
        psi = GaussPoly.iso_gaussian(4, a=2.0)
        assert abs(inv_p_power(psi, 2) - 1j * math.pi ** 3 / 2) < 1e-10

    def test_eps_oracle_agreement(self):
        psi = GaussPoly.iso_gaussian(4, a=2.0)
        direct = inv_p_power(psi, 2)
        oracle = inv_p_eps_oracle(psi, 2)
        assert abs(direct - oracle) <= 1e-3 * abs(direct)

    def test_n3_runs_and_scales(self):
        psi = GaussPoly.iso_gaussian(6, a=2.0)
        val = inv_p_power(psi, 3)
        assert np.isfinite(val.real) and np.isfinite(val.imag)

    def test_rejects_n1(self):
        with pytest.raises(UnsupportedN):
            inv_p_power(GaussPoly.iso_gaussian(2), 1)

    @staticmethod
    def _row_count(fam):
        return equal_rows(np.column_stack([fam.shift, fam.freq]))[1].size

    def test_block_diagonal_family_is_one_table_row(self):
        """Every node of a block-diagonal restriction shares its xi-Gaussian:
        one engine row in table mode, against the per-node route."""
        A = np.diag([1.0, 1.3, 0.8, 1.1, 0.9])
        psi = GaussPoly(5, A, {(0, 0, 0, 0, 0): 1.0, (1, 0, 0, 0, 1): 0.3,
                               (2, 0, 1, 0, 2): -0.2, (0, 1, 0, 3, 0): 0.1j},
                        shift=[0.2, 0.0, -0.1, 0.0, 0.3], freq=[0.0, 0.4, 0.0, -0.2, 0.5])
        fam = psi.restrict([4], np.linspace(-2.0, 2.0, 24)[:, None])
        assert self._row_count(fam) == 1
        got, want = inv_p_power(fam, 2), inv_p_power_per_node(fam, 2)
        assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-13

    def test_coupled_family_matches_per_node_route(self):
        """A coupled restriction's shift varies by node (every row distinct);
        repeated nodes make rows shared by two nodes."""
        A = 1.2 * np.eye(5)
        A[0, 4] = A[4, 0] = 0.3
        A[2, 4] = A[4, 2] = -0.2
        psi = GaussPoly(5, A, {(0, 0, 0, 0, 0): 1.0, (1, 0, 0, 0, 0): 0.5,
                               (0, 0, 1, 1, 0): 0.25},
                        shift=[0.1, 0.0, 0.2, 0.0, 0.3], freq=[0.2, 0.1, 0.0, 0.0, 0.4])
        nodes = np.linspace(-1.5, 1.5, 16)[:, None]
        for values, rows in ((nodes, 16), (np.concatenate([nodes, nodes[::3]]), 16)):
            fam = psi.restrict([4], values)
            assert self._row_count(fam) == rows
            got, want = inv_p_power(fam, 2), inv_p_power_per_node(fam, 2)
            assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-13

    def test_bound_by_l1_norms(self):
        """|value| <= C (||psi||_1 + ||Delta^l psi||_1), l = 3 for n = 2.

        C frozen as a regression bound: measured ratios 0.0035 (a = 2) and
        0.0137 (a = 1).
        """
        C = 0.02
        for a in (2.0, 1.0):
            psi = GaussPoly.iso_gaussian(4, a=a)
            val = abs(inv_p_power(psi, 2))
            bound = radial_l1_norm(psi) + radial_l1_norm(psi.laplacian_power(3))
            assert val <= C * bound


class TestPi0Power:
    def test_lambda_zero_k_zero_is_plain_integral(self):
        psi = GaussPoly.iso_gaussian(4, a=2.0)
        assert abs(p_i0_power(0.0, psi, 0, 2) - psi.integral()) < 1e-13

    def test_matches_inv_p_at_minus_n_plus_1(self):
        psi = GaussPoly.iso_gaussian(4, a=2.0)
        direct = inv_p_power(psi, 2)
        cont = p_i0_power(-1.0, psi, 2, 2)
        assert abs(cont - direct) <= 1e-3 * abs(direct)

    def test_k_independence(self):
        psi = GaussPoly.iso_gaussian(4, a=2.0)
        v1 = p_i0_power(-0.5, psi, 1, 2)
        v2 = p_i0_power(-0.5, psi, 2, 2)
        assert abs(v1 - v2) <= 1e-5 * abs(v1)

    def test_sides_are_conjugate(self):
        psi = GaussPoly.iso_gaussian(4, a=2.0)
        vm = p_i0_power(-0.5, psi, 1, 2, side="minus")
        vp = p_i0_power(-0.5, psi, 1, 2, side="plus")
        assert abs(vm - np.conj(vp)) < 1e-9 * abs(vm)

    def test_genuine_pole_raises(self):
        psi = GaussPoly.iso_gaussian(4, a=2.0)
        with pytest.raises(PolePosition):
            p_i0_power(-2.0, psi, 2, 2)  # n + lam + j - 1 = 0 at j = 1

    def test_ps_class_l_operator(self):
        """L e^{-aS} = 4 a^2 P e^{-aS} and the second iterate, exactly."""
        ps = PSGauss(2, 1.0, [(0, 0)], [1.0])
        l1 = ps.apply_L()
        assert _ps_coeffs(l1) == {(1, 0): pytest.approx(4.0)}
        l2 = l1.apply_L()
        assert _ps_coeffs(l2)[(0, 0)] == pytest.approx(32.0)
        assert _ps_coeffs(l2)[(0, 1)] == pytest.approx(-32.0)
        assert _ps_coeffs(l2)[(2, 0)] == pytest.approx(16.0)

    @pytest.mark.parametrize("n", [2, 4])
    def test_apply_l_matches_the_cartesian_operator(self, n):
        """apply_L^k of PSGauss against sum_j tau_j d_j^2 applied k times to the
        Cartesian Gaussian by `apply_operator`, at random points, k = 1..3."""
        dim, a = 2 * n, 0.7
        tau = np.array([1.0] * n + [-1.0] * n)
        op = [(np.zeros((1, dim), dtype=int), np.array([t]), axis_monomial(dim, j, 2))
              for j, t in enumerate(tau)]
        phi = GaussPoly.iso_gaussian(dim, a=2 * a, coeff=0.8 - 0.3j)
        ps = PSGauss.from_gausspoly(phi, n)
        X = np.random.default_rng(7).normal(size=(25, dim)) * 0.8
        P, S = X ** 2 @ tau, np.sum(X ** 2, axis=1)
        for _ in range(3):
            phi, ps = apply_operator(phi, op), ps.apply_L()
            want = phi.evaluate_many(X)
            got = np.exp(-a * S) * sum(c * P ** i * S ** j for (i, j), c in _ps_coeffs(ps).items())
            assert np.min(np.abs(want)) > 1e-3
            assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-12

    @pytest.mark.parametrize("n", [2, 4])
    @pytest.mark.parametrize("mu", [-0.5, 0.5, 1.7])
    def test_closed_form_matches_laguerre_oracle(self, n, mu):
        """At real mu and even n both regions are polynomial in (V, B) against
        Laguerre weights, so the order-48 rule of the oracle is exact too."""
        ps = PSGauss(n, 0.8, [(0, 0), (1, 0), (1, 2)], [1.0, 0.3 - 0.2j, 0.05]).apply_L()
        got = ps.integral_region(mu)
        want = np.array([laguerre_region(ps, mu, sign, 48) for sign in (1, -1)])
        assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-12

    @pytest.mark.parametrize("n", [2, 4])
    @pytest.mark.parametrize("lam, k", [(-0.5, 1), (0.7, 2)])
    def test_matches_laguerre_route_at_real_lambda(self, n, lam, k):
        ps = PSGauss.from_gausspoly(GaussPoly.iso_gaussian(2 * n, a=1.6, coeff=0.9), n)
        want = p_i0_power_laguerre(lam, ps, k)
        assert abs(p_i0_power(lam, ps, k, n) - want) <= 1e-12 * abs(want)

    @pytest.mark.parametrize("lam", [-1.0 + 0.1j, -0.5 + 1.0j])
    def test_k_independence_at_complex_lambda(self, lam):
        """Complex lambda, where the Laguerre quadrature converges too slowly
        to serve as the oracle."""
        psi = GaussPoly.iso_gaussian(4, a=2.0)
        v2, v3 = p_i0_power(lam, psi, 2, 2), p_i0_power(lam, psi, 3, 2)
        assert abs(v2 - v3) <= 1e-12 * abs(v2)

    def test_n4_continuation_matches_inv_p(self):
        """lam = -3 is removable at k = 3; the lam +- 1e-4 average carries a
        delta^2 error (measured 7e-9)."""
        psi = GaussPoly.iso_gaussian(8, a=2.0)
        direct = inv_p_power(psi, 4)
        assert abs(p_i0_power(-3.0, psi, 3, 4) - direct) <= 1e-6 * abs(direct)

    @pytest.mark.parametrize("a", [-1.0, 0.0])
    def test_non_positive_scale_rejected(self, a):
        """e^{-aS} with a <= 0 is not integrable."""
        with pytest.raises(NonPositiveScale):
            PSGauss(2, a, [(0, 0)], [1.0])

    def test_psgauss_of_another_n_rejected(self):
        with pytest.raises(UnsupportedN):
            p_i0_power(-0.5, PSGauss(3, 1.0, [(0, 0)], [1.0]), 1, 2)
        with pytest.raises(UnsupportedN):
            p_i0_power(-0.5, PSGauss(4, 1.0, [(0, 0)], [1.0]), 1, 2)

    def test_odd_n_rejected(self):
        with pytest.raises(UnsupportedN):
            p_i0_power(-0.5, GaussPoly.iso_gaussian(6, a=2.0), 1, 3)


def _ps_coeffs(ps: PSGauss) -> dict:
    """{(i, j): c} of g(P, S) = sum c P^i S^j."""
    return {tuple(e): c for e, c in zip(ps.expo.tolist(), ps.coef)}


class TestCentredIsotropicInput:
    """inv_p_eps_oracle and p_i0_power share one exact validator."""

    def test_small_anisotropy_rejected(self):
        psi = GaussPoly.gaussian(np.diag([2.0, 2.0 * (1 + 5e-6), 2.0, 2.0]))
        with pytest.raises(UnsupportedN):
            inv_p_eps_oracle(psi, 2)
        with pytest.raises(UnsupportedN):
            p_i0_power(-0.5, psi, 1, 2)

    def test_zero_term_gives_zero(self):
        zero = GaussPoly.iso_gaussian(4, coeff=0.0)
        assert inv_p_eps_oracle(zero, 2) == 0
        assert p_i0_power(-0.5, zero, 1, 2) == 0


class TestUnconvergedRefinement:
    """Each refinement that ends with err = inf raises NotConverged instead of
    returning its last value.  The refinement is patched to report inf."""

    @staticmethod
    def _unconverged(refine, calls=None):
        """refine, reporting err = inf on the calls listed (every call if None)."""
        count = [0]

        def patched(*args, **kwargs):
            out = refine(*args, **kwargs)
            count[0] += 1
            if calls is not None and count[0] - 1 not in calls:
                return out
            err = np.full_like(out[1], np.inf) if np.ndim(out[1]) else math.inf
            return (out[0], err, *out[2:])
        return patched

    def test_kernel_q_lm(self, monkeypatch):
        from pseudoht import specfun

        monkeypatch.setattr(specfun, "refine_many", self._unconverged(specfun.refine_many))
        with pytest.raises(NotConverged):
            kernel_q_lm(2, 1, np.array([0.8, 0.1, 0.2, 0.0]), [0.9], KernelSelector.heaviside())

    @pytest.mark.parametrize("call", [
        lambda: gbar_residual(2, 2, np.array([0.8, 0.1, 0.2, 0.0]), [0.9, 0.2]),
        lambda: smooth_kernel_offcone(2, 1, np.array([2.0, 0.3, 0.1, 0.2]), [0.2]),
    ], ids=["gbar_residual", "smooth_kernel_offcone"])
    def test_refine_until_sites(self, monkeypatch, call):
        call()   # converges unpatched
        monkeypatch.setattr(kernels, "refine_until", self._unconverged(kernels.refine_until))
        with pytest.raises(NotConverged):
            call()

    @pytest.mark.parametrize("half", [0, 1], ids=["t_below_1", "t_above_1"])
    def test_inv_p_power_either_half(self, monkeypatch, half):
        """Only one of its two refine_many calls fails; a single term and a
        node family both raise."""
        term = GaussPoly.iso_gaussian(4, a=2.0)
        family = GaussPoly.iso_gaussian(5, a=2.0).restrict([4], np.array([[0.1], [0.3]]))
        refine = kernels.refine_many
        for psi in (term, family):
            inv_p_power(psi, 2)   # converges unpatched
            monkeypatch.setattr(kernels, "refine_many", self._unconverged(refine, {half}))
            with pytest.raises(NotConverged):
                inv_p_power(psi, 2)
            monkeypatch.setattr(kernels, "refine_many", refine)
