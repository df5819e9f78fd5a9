"""Non-existence witness tests (r > 0)."""
import numpy as np
import pytest

from pseudoht.clifford import Signature, p_form
from pseudoht.errors import BumpOutsideK, DimensionMismatch, NonTimelikeEta
from pseudoht.gausspoly import GaussPoly
from pseudoht.group import GroupStructure
from pseudoht.witness import (
    WitnessConfig,
    a_eta_apply,
    b_eta_apply,
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
