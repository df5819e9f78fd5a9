"""Quadrature rules and the refinement drivers."""
import math
import os
import subprocess
import sys
import textwrap
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy.special import roots_legendre

from pseudoht import quadrature
from pseudoht.errors import NotConverged, UnsupportedN
from pseudoht.quadrature import (
    composite_legendre,
    hermite_rule,
    legendre_rule,
    refine_many,
    refine_until,
    sphere_rule,
)

EPS = np.finfo(float).eps


def _mp_legendre_rule(n: int, guesses):
    """Gauss-Legendre nodes and weights at 40 digits, polished from `guesses`."""
    with mpmath.workdps(40):
        nodes, weights = [], []
        for g in guesses:
            r = mpmath.mpf(float(g))
            for _ in range(3):
                p_prev, p = mpmath.mpf(1), r
                for k in range(2, n + 1):
                    p_prev, p = p, ((2 * k - 1) * r * p - (k - 1) * p_prev) / k
                dp = n * (p_prev - r * p) / (1 - r * r)
                r -= p / dp
            nodes.append(r)
            weights.append(2 / ((1 - r * r) * dp ** 2))
        return nodes, weights


def _mp_hermite_rule(n: int, guesses):
    """Gauss-Hermite nodes, weights w and w e^{x^2} at 40 digits, polished
    from `guesses` by Newton on the orthonormal recurrence."""
    with mpmath.workdps(40):
        def h_pair(r):
            h_prev, h = mpmath.mpf(0), mpmath.pi ** mpmath.mpf(-0.25)
            for k in range(n):
                h_prev, h = h, (mpmath.sqrt(mpmath.mpf(2) / (k + 1)) * r * h
                                - mpmath.sqrt(mpmath.mpf(k) / (k + 1)) * h_prev)
            return h, h_prev

        nodes, weights, scaled = [], [], []
        for g in guesses:
            r = mpmath.mpf(float(g))
            for _ in range(3):
                h, h_prev = h_pair(r)
                r -= h / (mpmath.sqrt(2 * n) * h_prev)
            w = 1 / (n * h_pair(r)[1] ** 2)
            nodes.append(r)
            weights.append(w)
            scaled.append(w * mpmath.exp(r * r))
        return nodes, weights, scaled


HERMITE_ORDERS = [1, 2, 6, 8, 10, 32, 64, 128, 256]  # pair_mr_heisenberg, check 6


class TestHermiteRule:
    @pytest.mark.parametrize("n", HERMITE_ORDERS)
    def test_against_mpmath(self, n):
        """Nodes to 2 ulp, and both w and w e^{x^2} (the weights
        pair_mr_heisenberg uses) to 2e-13 relative; SciPy's own weights are
        up to 7e-13 off at n = 128."""
        x, w = hermite_rule(n)
        nodes, weights, scaled = _mp_hermite_rule(n, x)
        we = w * np.exp(x ** 2)
        for xi, wi, wei, r, W, WE in zip(x, w, we, nodes, weights, scaled):
            assert abs(xi - r) <= 2 * EPS * max(1.0, abs(xi))
            assert abs(wi - W) <= 2e-13 * W
            assert abs(wei - WE) <= 2e-13 * WE

    @pytest.mark.parametrize("n", HERMITE_ORDERS)
    def test_even_moments_exact(self, n):
        """sum w x^{2k} = Gamma(k + 1/2) for 2k <= 2n - 1, with x scaled by
        sqrt(n) so that no power overflows."""
        x, w = hermite_rule(n)
        c = math.sqrt(n)
        for k in range(n):
            with mpmath.workdps(30):
                exact = float(mpmath.gamma(k + mpmath.mpf(0.5)) / mpmath.mpf(c) ** (2 * k))
            assert abs(w @ (x / c) ** (2 * k) - exact) <= 1e-13 * exact, (n, k)

    @pytest.mark.parametrize("n", [1, 2, 5, 8, 21, 64, 255])
    def test_symmetric_ascending_and_odd_middle_is_zero(self, n):
        x, w = hermite_rule(n)
        assert x.shape == w.shape == (n,)
        assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
        assert np.all(np.diff(x) > 0) and np.all(w > 0)
        if n % 2:
            mid = x[n // 2]
            assert mid == 0.0 and not np.signbit(mid)

    def test_matches_scipy_nodes(self):
        """SciPy's rule as a test-only oracle for the nodes."""
        from scipy.special import roots_hermite

        for n in range(1, 65):
            x, _ = hermite_rule(n)
            sx, _ = roots_hermite(n)
            assert np.all(np.abs(x - sx) <= 4 * EPS * np.maximum(1.0, np.abs(sx))), n

    def test_order_one_and_invalid_orders(self):
        x, w = hermite_rule(1)
        assert x.tolist() == [0.0] and abs(w[0] - math.sqrt(math.pi)) <= EPS
        for bad in (0, -3, 2.5):
            with pytest.raises(ValueError):
                hermite_rule.__wrapped__(bad)


@pytest.mark.parametrize("rule", [legendre_rule, hermite_rule])
def test_newton_without_steps_raises_not_converged(monkeypatch, rule):
    monkeypatch.setattr(quadrature, "_NEWTON_STEPS", 0)
    with pytest.raises(NotConverged):
        rule.__wrapped__(8)


class TestLegendreRule:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 10, 16, 33, 64, 101])
    def test_polynomials_up_to_degree_2n_minus_1_exact(self, n):
        x, w = legendre_rule(n)
        for k in range(2 * n):
            exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
            assert abs(w @ x ** k - exact) <= 4 * n * EPS, (n, k)
        # degree 2n misses by the Gauss error term, 2^{2n+1} (n!)^4 / ((2n+1) ((2n)!)^2)
        gauss_error = float(Fraction(2 ** (2 * n + 1) * math.factorial(n) ** 4,
                                     (2 * n + 1) * math.factorial(2 * n) ** 2))
        assert abs(2.0 / (2 * n + 1) - w @ x ** (2 * n) - gauss_error) <= 4 * n * EPS

    @pytest.mark.parametrize("n", [1, 2, 5, 8, 21, 64, 255])
    def test_symmetric_ascending_and_odd_middle_is_zero(self, n):
        x, w = legendre_rule(n)
        assert x.shape == w.shape == (n,)
        assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
        assert np.all(np.diff(x) > 0) and np.all(w > 0) and np.all(np.abs(x) < 1)
        if n % 2:
            mid = x[n // 2]
            assert mid == 0.0 and not np.signbit(mid)

    def test_order_one_and_invalid_orders(self):
        x, w = legendre_rule(1)
        assert x.tolist() == [0.0] and w.tolist() == [2.0]
        for bad in (0, -3, 2.5):
            with pytest.raises(ValueError):
                legendre_rule.__wrapped__(bad)

    @pytest.mark.parametrize("n", range(1, 65))
    def test_matches_scipy(self, n):
        """SciPy's rule as a test-only oracle: nodes to 2 ulp of 1, and weights
        to 1e-13 in sum |w - w_scipy| / 2, the largest difference of the two
        rules on a function bounded by 1.  Weight by weight, SciPy's end
        weights are off by up to 3.4e-12 relative for n <= 64 (n = 61 against
        mpmath at 40 digits), so the elementwise check is against mpmath."""
        x, w = legendre_rule(n)
        sx, sw = roots_legendre(n)
        assert np.max(np.abs(x - sx)) <= 2 * EPS
        assert np.sum(np.abs(w - sw)) <= 1e-13 * np.sum(sw)

    @pytest.mark.parametrize("n, rtol", [(10, 2e-13), (31, 2e-13), (53, 2e-13), (58, 2e-13),
                                         (64, 2e-13), (256, 2e-14), (512, 2e-14),
                                         (1024, 2e-14), (2048, 2e-14)])
    def test_weights_against_mpmath(self, n, rtol):
        """Every node up to n = 256; above, both ends and at most 64 evenly
        spaced nodes, so that the 40-digit recurrence stays fast."""
        x, w = legendre_rule(n)
        pick = np.arange(n) if n < 512 else \
            np.unique(np.r_[0, 1, n - 2, n - 1, np.linspace(0, n - 1, 64).astype(int)])
        x, w = x[pick], w[pick]
        nodes, weights = _mp_legendre_rule(n, x)
        for xi, wi, r, W in zip(x, w, nodes, weights):
            assert abs(xi - r) <= EPS
            assert abs(wi - W) <= rtol * W

    def test_large_order_in_linear_memory(self):
        n = 4096
        tracemalloc.start()
        t0 = time.perf_counter()
        try:
            x, w = legendre_rule.__wrapped__(n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        elapsed = time.perf_counter() - t0
        # a dense (n, n) companion or Jacobi matrix alone would take 134 MB
        assert peak < 4 * 2 ** 20, peak
        assert elapsed < 30.0
        assert np.all(np.diff(x) > 0) and x[-1] < 1.0
        assert abs(w.sum() - 2.0) <= 1e-13 and abs(w @ x ** 2 - 2.0 / 3.0) <= 1e-13

    def test_composite_is_panelwise_affine_map(self):
        edges, m = np.array([0.0, 0.25, 1.0, 3.5]), 10
        x, w = legendre_rule(m)
        cx, cw = composite_legendre(edges, m)
        for k, (a, b) in enumerate(zip(edges[:-1], edges[1:])):
            assert np.array_equal(cx[m * k:m * (k + 1)], 0.5 * (a + b) + 0.5 * (b - a) * x)
            assert np.array_equal(cw[m * k:m * (k + 1)], 0.5 * (b - a) * w)
        assert abs(cw @ np.exp(cx) - (math.exp(3.5) - 1.0)) <= 1e-12 * math.exp(3.5)


def test_legendre_passes_do_not_import_scipy_linalg():
    """The witness grid, composite rules, the second form and everything the
    pair-k benchmark runs (pair_k at n = 2, pair_mr_heisenberg,
    pseudo_pair_n2) use rules built in NumPy: no SciPy module is loaded,
    neither by `import pseudoht` (the Jacobi and Laguerre rules import
    `scipy.special` on their first call) nor by those passes."""
    code = textwrap.dedent("""
        import sys
        import numpy as np
        import pseudoht
        assert not [m for m in sys.modules if m.split(".")[0] == "scipy"]
        from pseudoht import (GaussPoly, GroupStructure, KernelSelector, Signature,
                              pair_k, pair_mr_heisenberg, pair_second_form,
                              pseudo_pair_n2)
        from pseudoht.pairing import PairBudget
        from pseudoht.quadrature import legendre_rule
        legendre_rule(10)
        budget = PairBudget(t_panels=2, t_order=4, r_order=4)
        values = [pair_second_form(2, 1, GaussPoly.iso_gaussian(5), budget,
                                   with_error=False).value]
        # the selectors of the benchmark's delta jobs (heaviside needs s = 1)
        for s, sel in ((2, KernelSelector.constant(1.0)), (1, KernelSelector.heaviside())):
            phi = GaussPoly.iso_gaussian(4 + s)
            values.append(pair_k(2, s, phi, sel, with_error=False).value)
        G = GroupStructure.from_signature(Signature(0, 1, 2))
        phi = GaussPoly(5, np.diag([1.0, 1.3, 0.8, 1.1, 0.9]), {(0,) * 5: 1.0})
        values.append(pair_mr_heisenberg(G, phi, with_error=False).value)
        values.extend(pseudo_pair_n2(G, phi))
        assert all(v == v for v in values)
        print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
    """)
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


class TestSphereRule:
    @pytest.mark.parametrize("npts", [8, 16])
    def test_s2_exact_moments(self, npts):
        x, w = sphere_rule(3, npts)
        assert x.shape == (npts // 2 * npts, 3)
        assert np.allclose(np.linalg.norm(x, axis=1), 1.0, atol=1e-15)
        assert abs(np.sum(w) - 4 * math.pi) < 1e-13
        assert abs(np.sum(w * x[:, 2] ** 2) - 4 * math.pi / 3) < 1e-13
        assert abs(np.sum(w * x[:, 0] ** 2 * x[:, 1] ** 2) - 4 * math.pi / 15) < 1e-13

    def test_s4_unsupported(self):
        with pytest.raises(UnsupportedN):
            sphere_rule(4, 8)


class TestRefine:
    def test_scalar_is_one_element_case(self):
        def f(order):
            return 1.0 + 1.0 / order ** 4

        val, err, order = refine_until(f, 4, 1e-8)
        vals, errs, orders = refine_many(lambda order, idx: [f(order)], 4, 1e-8, 1)
        assert (val, err, order) == (vals[0], errs[0], orders[0])
        assert isinstance(val, float) and order == 256

    def test_each_element_stops_at_its_own_order(self):
        rates = np.array([2.0, 4.0, 8.0])
        seen = []

        def f(order, idx):
            seen.append((order, idx.tolist()))
            return 1.0 + rates[idx] / order ** 3

        vals, errs, orders = refine_many(f, 8, 1e-6, 3)
        for k, rate in enumerate(rates):
            alone = refine_until(lambda order: 1.0 + rate / order ** 3, 8, 1e-6)
            assert (vals[k], errs[k], orders[k]) == alone
        # converged elements are not evaluated again
        assert all(set(idx) <= {k for k in range(3) if orders[k] >= order}
                   for order, idx in seen)

    def test_not_converged_is_flagged(self):
        val, err, order = refine_until(lambda order: float(order % 3), 4, 1e-12, max_order=64)
        assert err == np.inf and order == 64 and val == 64 % 3

    @pytest.mark.parametrize("start, max_order", [(200, 1 << 14), (32, 1000), (48, 40)])
    def test_max_order_is_a_bound(self, start, max_order):
        seen = []

        def f(order, idx):
            seen.append(order)
            return np.full(idx.size, float(order % 3))

        vals, errs, orders = refine_many(f, start, 1e-13, 3, max_order)
        assert max(seen) <= max_order
        assert np.all(errs == np.inf) and np.all(orders == max(seen))
        scalar = refine_until(lambda order: float(order % 3), start, 1e-13, max_order)
        assert scalar[1] == np.inf and scalar[2] <= max_order
