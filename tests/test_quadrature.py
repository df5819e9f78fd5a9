"""Quadrature rules and the refinement drivers."""
import math

import numpy as np
import pytest

from pseudoht.errors import UnsupportedN
from pseudoht.quadrature import refine_many, refine_until, sphere_rule


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
