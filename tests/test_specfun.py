"""Special-function tests against series and closed-form oracles.

Oracles: ascending series for J and H evaluated in 40-digit arithmetic
(mpmath), the half-integer closed forms for Y, and mpmath's bessely for the
integer orders.  The implementation path (Gauss-Jacobi / sinh-substituted
Laplace quadrature) never appears on the oracle side.
"""
import math

import mpmath
import numpy as np
import pytest

from pseudoht.errors import NonPositiveArgument, NotConverged
from pseudoht.specfun import (
    bessel_j,
    bessel_y,
    gamma,
    gamma_half,
    jh_combo,
    osc_weight_integral,
    struve_h,
)

mpmath.mp.dps = 40


def series_j(nu, v):
    s = mpmath.mpf(0)
    for k in range(80):
        s += (-1) ** k * (mpmath.mpf(v) / 2) ** (nu + 2 * k) / (
            mpmath.factorial(k) * mpmath.gamma(nu + k + 1))
    return float(s)


def series_h(nu, v):
    s = mpmath.mpf(0)
    for k in range(80):
        s += (-1) ** k * (mpmath.mpf(v) / 2) ** (2 * k + nu + 1) / (
            mpmath.gamma(k + mpmath.mpf(3) / 2) * mpmath.gamma(k + nu + mpmath.mpf(3) / 2))
    return float(s)


class TestGamma:
    def test_half(self):
        assert gamma_half(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-15)

    def test_five_halves(self):
        assert gamma_half(2.5) == pytest.approx(3 * math.sqrt(math.pi) / 4, rel=1e-15)

    def test_integer(self):
        assert gamma_half(4.0) == 6.0

    def test_rejects_nonhalf(self):
        with pytest.raises(NonPositiveArgument):
            gamma_half(0.3)
        with pytest.raises(NonPositiveArgument):
            gamma_half(0.0)


class TestComplexGamma:
    def test_against_mpmath(self):
        """0 < Re z <= 10, |Im z| <= 3 (the range of p_i0_power's mu + 1),
        with both sides of the |z| = 10 switch to Stirling's series."""
        rng = np.random.default_rng(5)
        zs = list(rng.uniform(1e-3, 10.0, 300) + 1j * rng.uniform(-3.0, 3.0, 300))
        zs += [1e-3, 0.5, 1.0, 2.7, 9.999, 10.0, 10.5, 0.1 + 3j, 0.5 - 1j, 7.3 + 0.1j]
        worst = max(abs(gamma(z) - complex(mpmath.gamma(mpmath.mpc(z))))
                    / abs(complex(mpmath.gamma(mpmath.mpc(z)))) for z in zs)
        assert worst <= 1e-14

    def test_real_argument_is_real(self):
        for x in (0.5, 1.7, 4.0):
            assert gamma(x).imag == 0.0
            assert gamma(x).real == pytest.approx(math.gamma(x), rel=1e-14)

    @pytest.mark.parametrize("z", [0.0, -0.5, -1.0 + 2j])
    def test_rejects_non_positive_real_part(self, z):
        with pytest.raises(NonPositiveArgument):
            gamma(z)


class TestRhoIntegral:
    def test_constant_case_n2(self):
        val, _ = osc_weight_integral(2, 0.0)
        assert val == pytest.approx(1.0)

    def test_arcsine_case_n1(self):
        val, _ = osc_weight_integral(1, 0.0)
        assert val == pytest.approx(math.pi / 2)

    def test_elementary_antiderivative_n2(self):
        v = 3.0
        val, _ = osc_weight_integral(2, v)
        assert abs(val - (np.exp(1j * v) - 1) / (1j * v)) < 1e-13

    def test_large_argument(self):
        # compare n=4 at v=1000 against the exact closed form
        # int_0^1 (1-r^2) e^{ivr} dr = -e^{iv} (2/v^2) + (2/v^3)(e^{iv}-1)/i ... use series-free:
        v = 1000.0
        val, err = osc_weight_integral(4, v)
        exact = (-2j / v ** 3 - 2 / v ** 2) * np.exp(1j * v) \
            + 2j / v ** 3 + (0) / v  # antiderivative worked out below
        # direct check with mpmath quad instead of hand algebra
        f = lambda r: (1 - r ** 2) * mpmath.e ** (1j * v * r)
        ref = complex(mpmath.quad(f, [0, 1]))
        assert abs(val - ref) < 1e-11

    def test_array_elements_refine_on_their_own(self):
        """An array call equals the scalar calls and reports the worst error.

        The imaginary parts at v and -v cancel in their sum, so a refinement
        stopped on the sum can stop before either element has converged (at
        n = 1 and |v| = 300 the scalar calls report err = inf).
        """
        vals, err = osc_weight_integral(1, np.array([300.0, -300.0]))
        for v, got in zip((300.0, -300.0), vals):
            want, want_err = osc_weight_integral(1, v)
            assert abs(got - want) <= 1e-14
            assert err >= want_err


class TestBesselStruve:
    @pytest.mark.parametrize("v", [1.0, 5.0, 10.0])
    def test_j_half_closed_form(self, v):
        assert abs(bessel_j(0.5, v) - math.sqrt(2 / (math.pi * v)) * math.sin(v)) < 1e-10

    def test_j_half_pi(self):
        assert abs(bessel_j(0.5, math.pi) - series_j(0.5, math.pi)) < 1e-12

    def test_h_at_zero(self):
        assert struve_h(1.0, 0.0) == 0.0

    @pytest.mark.parametrize("nu", [0.0, 0.5, 1.0, 1.5])
    @pytest.mark.parametrize("v", [0.1, 0.7, 2.0, 7.7, 20.0])
    def test_j_and_h_vs_series(self, nu, v):
        assert abs(bessel_j(nu, v) - series_j(nu, v)) <= 1e-10
        assert abs(struve_h(nu, v) - series_h(nu, v)) <= 1e-10

    @pytest.mark.parametrize("v", [1.0, 5.0])
    def test_y_half_closed_form(self, v):
        assert abs(bessel_y(0.5, v) + math.sqrt(2 / (math.pi * v)) * math.cos(v)) < 1e-8

    def test_y_three_halves_closed_form(self):
        v = 2.3
        closed = -math.sqrt(2 / (math.pi * v)) * (math.cos(v) / v + math.sin(v))
        assert abs(bessel_y(1.5, v) - closed) < 1e-10

    @pytest.mark.parametrize("nu", [0.0, 1.0])
    @pytest.mark.parametrize("v", [0.1, 1.0, 5.0, 20.0])
    def test_y_integer_orders_vs_mpmath(self, nu, v):
        assert abs(bessel_y(nu, v) - float(mpmath.bessely(nu, v))) <= 1e-10

    def test_y_rejects_nonpositive(self):
        with pytest.raises(NonPositiveArgument):
            bessel_y(0.5, 0.0)

    def test_y_small_v_asymptotics_n3(self):
        """(v/2)^{-nu} Y_nu(v) ~ -Gamma(nu)/pi (v/2)^{-2 nu} at nu = 1, v = 1e-3."""
        v = 1e-3
        nu = 1.0  # (n-1)/2 for n = 3
        lead = -gamma_half(nu) / math.pi * (v / 2) ** (-2 * nu)
        got = (v / 2) ** (-nu) * bessel_y(nu, v)
        assert abs(got - lead) <= 1e-2 * abs(lead)

    def test_h_minus_y_consistency(self):
        """The Laplace-integral difference reproduces struve_h - bessel_y."""
        nu, v = 1.5, 3.1
        from pseudoht.specfun import _laplace_tail, _poisson_prefactor
        diff = _poisson_prefactor(nu, v) * _laplace_tail(nu, v)
        assert abs(diff - (struve_h(nu, v) - bessel_y(nu, v))) < 1e-8


class TestJHCombo:
    def test_n3_matches_parts(self):
        v = 2.0
        combo = jh_combo(3, v)
        assert abs(combo - (bessel_j(1.0, v) + 1j * struve_h(1.0, v))) < 1e-9

    def test_conjugation_parity(self):
        for v in (0.5, 2.2, 9.0):
            assert abs(jh_combo(4, -v) - np.conj(jh_combo(4, v))) < 1e-13

    def test_v_zero(self):
        assert jh_combo(2, 0.0) == 0.0
        assert jh_combo(1, 0.0) == pytest.approx(1.0)  # J_0(0)


def _separate_j(nu, v):
    """bessel_j as three separate evaluations computed it: J from the real part."""
    from pseudoht.specfun import _order_n, _poisson_prefactor
    n = _order_n(nu)
    if v == 0.0:
        return 1.0 if nu == 0 else 0.0
    val, _ = osc_weight_integral(n, abs(v))
    return _poisson_prefactor(nu, v) * val.real


def _separate_h(nu, v):
    from pseudoht.specfun import _order_n, _poisson_prefactor
    n = _order_n(nu)
    if v == 0.0:
        return 0.0
    val, _ = osc_weight_integral(n, abs(v))
    return math.copysign(1.0, v) * _poisson_prefactor(nu, v) * val.imag


def _separate_jh(n, v):
    from pseudoht.specfun import _poisson_prefactor
    nu = (n - 1) / 2.0
    if v == 0.0:
        return complex(_separate_j(nu, 0.0))
    val, _ = osc_weight_integral(n, abs(v))
    out = _poisson_prefactor(nu, v) * val
    return complex(np.conj(out)) if v < 0 else complex(out)


class TestOneEvaluation:
    """J and H are the real and imaginary parts of one jh_combo; pinned bit for
    bit against separate evaluations of the same rho-integral."""

    V = (0.0, 1e-3, 0.37, -0.37, 2.0, -5.5, 17.25, -60.0, 130.0)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_bitwise_equal_to_separate_evaluations(self, n):
        nu = (n - 1) / 2.0
        for v in self.V:
            assert bessel_j(nu, v) == _separate_j(nu, v)
            assert struve_h(nu, v) == _separate_h(nu, v)
            assert jh_combo(n, v) == _separate_jh(n, v)

    def test_table_row_is_one_rho_integral(self, monkeypatch):
        from pseudoht import specfun

        calls = []

        def spy(n, v):
            calls.append(v)
            return osc_weight_integral(n, v)

        monkeypatch.setattr(specfun, "osc_weight_integral", spy)
        rows = specfun.specfun_table(1.5, [0.0, 0.5, 3.0, 11.0])
        assert len(calls) == 3                          # none at v = 0
        monkeypatch.undo()
        for v, j, y, h in rows:
            assert j == _separate_j(1.5, v) and h == _separate_h(1.5, v)
            if v > 0:
                assert y == bessel_y(1.5, v)
            else:
                assert math.isnan(y)


class TestUnconvergedRefinement:
    """A refinement that ends with err = inf raises instead of returning its
    last value (at n = 1, v = 300 that value is 7.6e-9 off).  The refinement
    is patched to report inf, so no test waits for a real divergence; at
    v = 3e4 the real refinement stops after its first rule."""

    @staticmethod
    def _unconverged(refine):
        def patched(*args, **kwargs):
            out = refine(*args, **kwargs)
            return (out[0], np.full_like(out[1], np.inf), *out[2:]) if np.ndim(out[1]) \
                else (out[0], math.inf, *out[2:])
        return patched

    def test_jh_combo_raises(self, monkeypatch):
        from pseudoht import specfun

        monkeypatch.setattr(specfun, "refine_many", self._unconverged(specfun.refine_many))
        for call in (lambda: jh_combo(1, 3.0), lambda: bessel_j(0.5, 2.0),
                     lambda: struve_h(1.5, -4.0)):
            with pytest.raises(NotConverged):
                call()
        assert jh_combo(2, 0.0) == 0.0  # v = 0 takes no integral

    def test_laplace_tail_raises(self, monkeypatch):
        from pseudoht import specfun

        monkeypatch.setattr(specfun, "refine_until", self._unconverged(specfun.refine_until))
        with pytest.raises(NotConverged):
            bessel_y(1.5, 3.1)
        with pytest.raises(NotConverged):
            specfun.specfun_table(1.5, [3.1])

    def test_first_rule_above_half_the_cap_raises(self):
        """Above |v| = 20,480 the first rho-rule has |v| / 2.5 > 8,192 nodes,
        so refine_many cannot double it below its 16,384 cap: the value is
        never checked, and jh_combo raises instead of returning it."""
        from pseudoht.specfun import osc_weight_integral

        with pytest.raises(NotConverged):
            bessel_j(0.5, 3e4)
        assert osc_weight_integral(2, 3e4)[1] == math.inf


class TestODEResiduals:
    """5-point finite differences on v in [1, 10].

    J and Y solve the homogeneous Bessel equation; H solves the inhomogeneous
    one with right-hand side 4 (v/2)^{nu+1} / (sqrt(pi) Gamma(nu + 1/2)).
    """

    @staticmethod
    def _ode_residual(f, nu, v, h=1e-2, rhs=0.0):
        vals = np.array([f(v + k * h) for k in (-2, -1, 0, 1, 2)])
        d1 = (vals[0] - 8 * vals[1] + 8 * vals[3] - vals[4]) / (12 * h)
        d2 = (-vals[0] + 16 * vals[1] - 30 * vals[2] + 16 * vals[3] - vals[4]) / (12 * h ** 2)
        return v ** 2 * d2 + v * d1 + (v ** 2 - nu ** 2) * vals[2] - rhs

    @pytest.mark.parametrize("nu", [0.0, 0.5, 1.0, 1.5])
    def test_j_homogeneous(self, nu):
        for v in np.linspace(1.0, 10.0, 7):
            assert abs(self._ode_residual(lambda t: bessel_j(nu, t), nu, v)) <= 1e-6

    @pytest.mark.parametrize("nu", [0.5, 1.0, 1.5])
    def test_y_homogeneous(self, nu):
        for v in np.linspace(1.0, 10.0, 5):
            assert abs(self._ode_residual(lambda t: bessel_y(nu, t), nu, v)) <= 1e-6

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_h_inhomogeneous(self, n):
        nu = (n - 1) / 2
        for v in np.linspace(1.0, 10.0, 5):
            rhs = 4 * (v / 2) ** (nu + 1) / (math.sqrt(math.pi) * gamma_half(n / 2))
            assert abs(self._ode_residual(lambda t: struve_h(nu, t), nu, v, rhs=rhs)) <= 1e-6
