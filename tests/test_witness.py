"""Non-existence witness tests (r > 0)."""
import math

import numpy as np
import pytest

from pseudoht.clifford import Signature, p_form
from pseudoht.errors import BumpOutsideK, DimensionMismatch, NonTimelikeEta
from pseudoht.gausspoly import GaussMixture, GaussPoly, apply_operator
from pseudoht.group import GroupStructure
from pseudoht.witness import (
    WitnessConfig,
    a_eta_apply,
    a_eta_op,
    b_eta_apply,
    b_eta_op,
    ball_margin,
    build_witness,
    bump_value,
    certify_kernel_residual,
    d_eta_average,
    nonsolvability_report,
    phi_eta,
    witness_integral,
    witness_sup,
)


@pytest.fixture(scope="module")
def g11():
    return GroupStructure.from_signature(Signature(1, 1, 2))


@pytest.fixture(scope="module")
def grid4():
    rng = np.random.default_rng(0)
    return rng.normal(size=(60, 4)) * 1.5


ETA0 = np.array([2.0, 1.0])


class TestABOperators:
    def test_a_eta_kills_phi_eta_timelike(self, g11, grid4):
        p = phi_eta(g11, ETA0)
        res = a_eta_apply(g11, p, ETA0)
        assert np.max(np.abs(res.evaluate_many(grid4))) <= 1e-12
        assert np.max(np.abs(p.evaluate_many(grid4))) > 0.01  # nontrivial

    def test_a_eta_spacelike_gives_minus_2p(self, g11, grid4):
        eta = np.array([1.0, 2.0])  # <eta,eta> = -3
        p = phi_eta(g11, eta)
        res = a_eta_apply(g11, p, eta)
        expected = np.array([-2 * p_form(x) * p.evaluate(x) for x in grid4])
        assert np.max(np.abs(res.evaluate_many(grid4) - expected)) < 1e-10

    def test_b_eta_kills_functions_of_p(self, g11):
        """B_eta (f o P) = 0, probed with exp(-P^2) by finite differences."""
        eta = ETA0
        M = g11.omega(eta) @ g11.tau
        rng = np.random.default_rng(1)
        h = 1e-5
        for xi in rng.normal(size=(10, 4)):
            grad = np.zeros(4)
            for j in range(4):
                e = np.eye(4)[j] * h
                f = lambda u: np.exp(-p_form(u) ** 2)
                grad[j] = (f(xi + e) - f(xi - e)) / (2 * h)
            val = -2j * (M @ xi) @ grad
            assert abs(val) < 1e-8

    def test_a_b_commute_on_class_members(self, g11, grid4):
        phi = GaussPoly(4, np.diag([1.0, 1.5, 0.8, 1.2]), {(1, 0, 1, 0): 0.4,
                                                           (0, 0, 0, 0): 1.0})
        eta = ETA0
        ab = b_eta_apply(g11, a_eta_apply(g11, phi, eta), eta)
        ba = a_eta_apply(g11, b_eta_apply(g11, phi, eta), eta)
        diff = ab.evaluate_many(grid4) - ba.evaluate_many(grid4)
        assert np.max(np.abs(diff)) <= 1e-10

    def test_composition_flow_fourier_intertwining(self, g11, grid4):
        """C^(2)_t o F = F o C^(1)_t on class members."""
        eta, t = ETA0, 0.6
        phi = GaussPoly(4, np.diag([1.0, 2.0, 1.5, 0.7]), {(0, 1, 0, 0): 1.0,
                                                           (0, 0, 0, 0): 0.5})
        E1 = g11.exp_flow(eta, t, "left")
        E2 = g11.exp_flow(eta, t, "right")
        lhs = phi.precompose_affine(E1, np.zeros(4)).fourier()
        rhs = phi.fourier().precompose_affine(E2, np.zeros(4))
        assert np.max(np.abs(lhs.evaluate_many(grid4) - rhs.evaluate_many(grid4))) <= 1e-9

    @pytest.mark.parametrize("apply", [a_eta_apply, b_eta_apply])
    def test_rejects_functions_over_the_whole_group(self, g11, apply):
        with pytest.raises(DimensionMismatch):
            apply(g11, GaussPoly.iso_gaussian(6), ETA0)


class TestDEtaAverage:
    def test_rejects_spacelike(self, g11):
        with pytest.raises(NonTimelikeEta):
            d_eta_average(g11, phi_eta(g11, ETA0), np.array([1.0, 2.0]))

    def test_node_shift_invariance(self, g11):
        """Shifting all trapezoid nodes by half a spacing changes nothing much.

        The trapezoid error grows with |xi| (analytic strip of the flowed
        Gaussian), so the 1e-12 level holds on a unit-box grid at m = 32.
        """
        p = phi_eta(g11, ETA0)
        m = 32
        mix = d_eta_average(g11, p, ETA0, m)
        period = g11.flow_period(ETA0)
        shift = period / (2 * m)
        from pseudoht.gausspoly import GaussMixture

        shifted = GaussMixture([
            t.precompose_affine(g11.exp_flow(ETA0, shift), np.zeros(4))
            for t in mix.terms])
        ax = np.linspace(-1.2, 1.2, 5)
        box = np.stack([g.ravel() for g in np.meshgrid(*([ax] * 4), indexing="ij")],
                       axis=1)
        diff = mix.evaluate_many(box) - shifted.evaluate_many(box)
        assert np.max(np.abs(diff)) <= 1e-11

    def test_lands_in_kernel_of_b(self, g11, grid4):
        # m = 32 reaches 1e-9 near the bulk of phi_eta; the wide 4.5 sigma
        # test grid needs m = 48 (trapezoid error grows with |xi|)
        ax = np.linspace(-1.5, 1.5, 5)
        box = np.stack([g.ravel() for g in np.meshgrid(*([ax] * 4), indexing="ij")],
                       axis=1)
        mix = d_eta_average(g11, phi_eta(g11, ETA0), ETA0, 32)
        res = b_eta_apply(g11, mix, ETA0)
        assert np.max(np.abs(res.evaluate_many(box))) <= 1e-9
        mix48 = d_eta_average(g11, phi_eta(g11, ETA0), ETA0, 48)
        res48 = b_eta_apply(g11, mix48, ETA0)
        assert np.max(np.abs(res48.evaluate_many(grid4))) <= 1e-9

    def test_stays_in_kernel_of_a(self, g11, grid4):
        mix = d_eta_average(g11, phi_eta(g11, ETA0), ETA0, 32)
        res = a_eta_apply(g11, mix, ETA0)
        assert np.max(np.abs(res.evaluate_many(grid4))) <= 1e-9

    @staticmethod
    def _full_period_sum(G, phi, eta, nodes, U):
        """(q_eta / N) sum_k phi(E_k u) over all N nodes, E_k from exp_flow."""
        period = G.flow_period(eta)
        E = G.exp_flow(eta, np.arange(nodes) * period / nodes)
        return period / nodes * sum(phi.evaluate_many(U @ Ek.T) for Ek in E)

    def test_even_node_count_folds_even_phi(self, g11, grid4):
        """Node k + N/2 repeats node k's image of an even phi: N/2 images."""
        phi = GaussMixture([phi_eta(g11, ETA0),
                            GaussPoly(4, np.diag([1.0, 1.5, 0.8, 1.2]),
                                      {(2, 0, 0, 0): 0.4, (1, 1, 0, 0): -0.3,
                                       (0, 0, 0, 0): 1.0})])
        for nodes in (16, 32):
            mix = d_eta_average(g11, phi, ETA0, nodes)
            assert len(mix.terms) == nodes // 2 * len(phi.terms)
            want = self._full_period_sum(g11, phi, ETA0, nodes, grid4)
            assert np.max(np.abs(mix.evaluate_many(grid4) - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("case", ["odd_nodes", "shifted", "linear", "frequency"])
    def test_no_fold_without_both_symmetries(self, g11, grid4, case):
        """Odd N, or a phi that is not even, builds every node's image."""
        quad = np.diag([1.0, 1.5, 0.8, 1.2])
        phi, nodes = {
            "odd_nodes": (phi_eta(g11, ETA0), 17),
            "shifted": (GaussPoly.gaussian(quad, shift=np.array([0.3, 0.0, -0.2, 0.0])), 16),
            "linear": (GaussPoly(4, quad, {(0, 0, 1, 0): 0.5, (0, 0, 0, 0): 1.0}), 16),
            "frequency": (GaussPoly(4, quad, {(0, 0, 0, 0): 1.0},
                                    freq=np.array([0.0, 0.4, 0.0, 0.0])), 16),
        }[case]
        mix = d_eta_average(g11, phi, ETA0, nodes)
        assert len(mix.terms) == nodes
        want = self._full_period_sum(g11, phi, ETA0, nodes, grid4)
        assert np.max(np.abs(mix.evaluate_many(grid4) - want)) <= 1e-13 * np.max(np.abs(want))

    def test_one_operator_for_a_plus_b(self, g11, grid4):
        """G_eta = A_eta + B_eta applied as one operator, as certification does."""
        generic = GaussMixture([
            GaussPoly(4, np.diag([1.0, 1.5, 0.8, 1.2]), {(1, 0, 1, 0): 0.4, (0, 0, 0, 0): 1.0}),
            GaussPoly(4, np.eye(4), {(0, 2, 0, 0): 0.7}, shift=np.array([0.3, 0.0, 0.0, -0.5]))])
        # at 16 nodes the flow average is not yet in the kernel on this wide grid
        mix = d_eta_average(g11, phi_eta(g11, ETA0), ETA0, 16)
        for phi in (generic, mix):
            one = apply_operator(phi, a_eta_op(g11, ETA0) + b_eta_op(g11, ETA0))
            assert len(one.terms) == len(phi.terms)
            want = (a_eta_apply(g11, phi, ETA0).evaluate_many(grid4)
                    + b_eta_apply(g11, phi, ETA0).evaluate_many(grid4))
            assert np.max(np.abs(want)) > 1e-4
            assert np.max(np.abs(one.evaluate_many(grid4) - want)) <= 1e-12

    def test_positivity(self, g11, grid4):
        mix = d_eta_average(g11, phi_eta(g11, ETA0), ETA0, 16)
        vals = mix.evaluate_many(grid4)
        assert np.min(vals.real) > 0
        assert np.max(np.abs(vals.imag)) < 1e-14


class TestWitness:
    def test_bump_support(self):
        assert bump_value(ETA0, ETA0, 0.5) == 1.0
        assert bump_value(ETA0 + [0.51, 0], ETA0, 0.5) == 0.0
        assert 0 < bump_value(ETA0 + [0.2, 0], ETA0, 0.5) < 1

    def test_r0_has_empty_k(self):
        sig = Signature(0, 2, 2)
        with pytest.raises(BumpOutsideK):
            WitnessConfig(sig, np.array([1.0, 0.0]))

    def test_ball_leaving_k_rejected(self, g11):
        cfg = WitnessConfig(Signature(1, 1, 2), np.array([1.0, 0.9]), 0.5)
        with pytest.raises(BumpOutsideK):
            build_witness(g11, cfg)

    def test_nonpositive_radius_rejected(self):
        with pytest.raises(BumpOutsideK):
            WitnessConfig(Signature(1, 1, 2), ETA0, 0.0)

    @pytest.mark.parametrize("r,s", [(1, 1), (1, 2), (2, 1), (2, 2)])
    def test_margin_agrees_with_dense_sampling(self, r, s):
        """The exact minimum is a lower bound that dense samples of the ball approach."""
        sig = Signature(r, s, 2)
        rng = np.random.default_rng(10 * r + s)
        signs = np.array([1.0] * r + [-1.0] * s)
        for k in range(6):
            eta0 = rng.normal(size=r + s) * 1.5
            delta = rng.uniform(0.2, 1.5)
            if k == 0:  # the hard case: eta0_- = 0 and |eta0_+| <= 2 delta
                eta0[r:] = 0.0
                delta = np.linalg.norm(eta0) * rng.uniform(0.5, 1.0)
            dirs = rng.normal(size=(200_000, r + s))
            dirs /= np.linalg.norm(dirs, axis=1)[:, None]
            radii = np.where(np.arange(len(dirs)) % 2, 1.0, rng.uniform(size=len(dirs)))
            sampled = np.min((eta0 + delta * radii[:, None] * dirs) ** 2 @ signs)
            exact = ball_margin(sig, eta0, delta)
            assert exact <= sampled + 1e-12
            assert sampled - exact <= 5e-3 * delta * (delta + np.linalg.norm(eta0))

    def test_margin_hard_case(self):
        """eta0_- = 0 and |eta0_+| <= 2 delta: the minimum |eta0_+|^2 / 2 - delta^2
        is attained at eta_+ = eta0_+ / 2, eta_- = sqrt(delta^2 - |eta0_+|^2 / 4)."""
        sig = Signature(1, 1, 2)
        eta = np.array([0.4, math.sqrt(0.5 ** 2 - 0.8 ** 2 / 4)])
        assert abs(ball_margin(sig, [0.8, 0.0], 0.5) - sig.eta_form(eta)) <= 1e-15
        assert abs(np.linalg.norm(eta - [0.8, 0.0]) - 0.5) <= 1e-15

    @pytest.mark.parametrize("eta0,delta", [
        # secular root mu = 3 with eta0 = (2, q): margin -1e-9 at the minimiser
        ([2.0, math.sqrt(4 * (0.25 + 1e-9 / 9))], math.sqrt(0.5 + 1e-9 / 9)),
        # the hard case eta0_- = 0: margin |eta0_+|^2 / 2 - delta^2 = -1e-9
        ([1.0, 0.0], math.sqrt(0.5 + 1e-9)),
    ])
    def test_ball_barely_leaving_k_rejected(self, g11, eta0, delta):
        """A ball whose minimum of <eta,eta> is -1e-9 leaves K, though the
        form is negative only on a sliver of its boundary."""
        sig = Signature(1, 1, 2)
        assert abs(ball_margin(sig, eta0, delta) + 1e-9) <= 1e-15
        with pytest.raises(BumpOutsideK):
            build_witness(g11, WitnessConfig(sig, np.array(eta0), delta))

    def test_witness_positive_and_integrable(self, g11):
        cfg = WitnessConfig(Signature(1, 1, 2), ETA0, 0.5, flow_nodes=16,
                            eta_grid=5, xi_grid=5)
        w = build_witness(g11, cfg)
        assert w.evaluate(np.zeros(4), ETA0) > 0
        assert w.evaluate(np.zeros(4), ETA0 + [0.6, 0]) == 0.0
        integral = witness_integral(w)
        assert integral > 0
        assert witness_sup(w) > 0

    def test_certification_and_spectral_drop(self, g11):
        cfg = WitnessConfig(Signature(1, 1, 2), ETA0, 0.5, flow_nodes=64,
                            eta_grid=4, xi_grid=7)
        w = build_witness(g11, cfg)
        cert = certify_kernel_residual(w)
        assert cert["relative_residual"] <= 1e-8
        lo = certify_kernel_residual(w, flow_nodes=16)
        hi = certify_kernel_residual(w, flow_nodes=32)
        assert lo["residual_sup"] / hi["residual_sup"] >= 100.0

    def test_nonsolvability_report(self, g11):
        cfg = WitnessConfig(Signature(1, 1, 2), ETA0, 0.5, flow_nodes=32,
                            eta_grid=4, xi_grid=5)
        w = build_witness(g11, cfg)
        rep = nonsolvability_report(w)
        assert abs(rep["phi_at_0"] - 1.0) <= 1e-10
        assert rep["delta_phi_sup"] <= 1e-6

    def test_report_streams_the_x_grid(self, g11, monkeypatch):
        """Blocks of 100 x-points (7^4 = 2401 in all) give the one-block report."""
        from pseudoht import gausspoly

        cfg = WitnessConfig(Signature(1, 1, 2), ETA0, 0.5, flow_nodes=64,
                            eta_grid=3, xi_grid=3)
        whole = nonsolvability_report(build_witness(g11, cfg))
        monkeypatch.setattr(gausspoly, "_EVAL_CHUNK", 100)
        blocked = nonsolvability_report(build_witness(g11, cfg))
        for key in ("phi_at_0", "normalization_c"):
            assert abs(blocked[key] - whole[key]) <= 1e-12 * abs(whole[key]), key
        assert whole["delta_phi_sup"] > 0
        assert abs(blocked["delta_phi_sup"] - whole["delta_phi_sup"]) <= 1e-20

    def test_each_mixture_built_once(self, g11, monkeypatch):
        """Build, certify and report share the cached mixture of every eta node."""
        from pseudoht import witness

        calls = []

        def counted(*args, **kwargs):
            calls.append(args[2])
            return d_eta_average(*args, **kwargs)

        monkeypatch.setattr(witness, "d_eta_average", counted)
        cfg = WitnessConfig(Signature(1, 1, 2), ETA0, 0.5, flow_nodes=16,
                            eta_grid=3, xi_grid=3)
        w = build_witness(g11, cfg)
        certify_kernel_residual(w)
        nonsolvability_report(w)
        pts = witness._eta_ball_nodes(cfg)[0]
        inside = sum(w.omega(eta) > 0 for eta in pts)
        assert inside > 0
        assert len(calls) == inside
        certify_kernel_residual(w, flow_nodes=8)
        assert len(calls) == 2 * inside

    def test_integral_and_sup_computed_once(self, g11, monkeypatch):
        """Certify and report share one witness integral: GaussMixture.integral
        runs once per eta node inside the bump, and every use of the value
        is bit-identical to a fresh witness's."""
        from pseudoht import witness

        calls = []
        integral = GaussMixture.integral

        def counted(self):
            calls.append(1)
            return integral(self)

        cfg = WitnessConfig(Signature(1, 1, 2), ETA0, 0.5, flow_nodes=16,
                            eta_grid=3, xi_grid=3)
        fresh = build_witness(g11, cfg)
        want, want_sup = witness_integral(fresh), witness_sup(fresh)
        monkeypatch.setattr(GaussMixture, "integral", counted)
        w = build_witness(g11, cfg)
        cert = certify_kernel_residual(w)
        rep = nonsolvability_report(w)
        cert8 = certify_kernel_residual(w, flow_nodes=8)
        inside = sum(w.omega(eta) > 0 for eta in witness._eta_ball_nodes(cfg)[0])
        assert inside > 0
        assert len(calls) == inside
        assert cert["integral_psi"] == cert8["integral_psi"] == witness_integral(w) == want
        assert cert["psi_sup"] == cert8["psi_sup"] == witness_sup(w) == want_sup
        assert rep["normalization_c"] == cert["finv_psi_at_0"]


class TestPinnedWitness:
    """Witness numbers recorded before the flow mixtures became term stacks.

    The stacked flow images, transforms and closed-form integrals reorder
    floating-point sums only, so every value agrees to 1e-12 relative; the
    kernel residual and Delta phi sit at rounding level, so only their
    bounds are asserted.
    """

    CASES = {
        # check 9, quick mode
        "check9_quick": (([2.0, 1.0], 0.5, 4, 7), {
            "psi_sup": 7.255197456936868, "integral_psi": 67.30692660572115,
            "finv_psi_at_0": 0.27134395762715585, "phi_at_0": 1.0000000000000007,
            "normalization_c": 0.27134395762715585}),
        # the shape of the benchmark's witness job
        "eta_grid3": (([2.1, -0.7], 0.45, 3, 7), {
            "psi_sup": 6.346975625940519, "integral_psi": 60.99008234149494,
            "finv_psi_at_0": 0.24587796759004957, "phi_at_0": 0.9999999999999994,
            "normalization_c": 0.24587796759004957}),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_values(self, g11, case):
        (eta0, delta, eta_grid, xi_grid), want = self.CASES[case]
        cfg = WitnessConfig(Signature(1, 1, 2), np.array(eta0), delta, flow_nodes=64,
                            eta_grid=eta_grid, xi_grid=xi_grid)
        w = build_witness(g11, cfg)
        got = {**certify_kernel_residual(w), **nonsolvability_report(w)}
        for key, value in want.items():
            assert abs(got[key] - value) <= 1e-12 * abs(value), key
        assert got["relative_residual"] <= 1e-8
        assert got["delta_phi_sup"] < 1e-12
