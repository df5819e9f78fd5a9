"""Pairing representation tests: delta-reproduction, equivalence, parity."""
from dataclasses import replace

import numpy as np
import pytest

from pseudoht import gausspoly, pairing
from pseudoht.clifford import Signature
from pseudoht.errors import DimensionMismatch, OddN, UnsupportedN
from pseudoht.gausspoly import GaussPoly
from pseudoht.group import GroupPoint, GroupStructure, heisenberg
from pseudoht.kernels import KernelSelector, inv_p_power
from pseudoht.pairing import (
    PairBudget,
    pair_k,
    pair_mr_heisenberg,
    pair_second_form,
    pseudo_pair_n2,
)
from pseudoht.quadrature import half_disc_rule
from pair_k_reference import pair_k_two_calls, pair_mr_per_node
from second_form_reference import second_form_reference

SMALL = PairBudget(radial_geo_panels=8, radial_lin_panels=6, radial_order=8,
                   sphere_pts=12, rho_nodes=64)

# anisotropic Gaussians at (0,2,2) and (0,2,1), and the group points that
# left-translate them into test functions whose x- and z-blocks are coupled
PHI6 = GaussPoly(6, np.diag([1.0, 1.3, 0.8, 1.1, 0.9, 1.2]),
                 {(0,) * 6: 1.0, (2, 0, 0, 0, 0, 0): 0.3, (0, 0, 0, 0, 0, 2): -0.2})
PHI5 = GaussPoly(5, np.diag([1.0, 1.3, 0.8, 1.1, 0.9]),
                 {(0,) * 5: 1.0, (0, 0, 0, 0, 2): 0.25})
# the anisotropic Gaussian of the representation cross-check at (0,2,2): its
# theta-block gives the sphere nodes different c = om^T A om / 2
ANISO6 = GaussPoly.gaussian(np.diag(np.linspace(1.0, 1.4, 6)))
G6 = GroupPoint(np.array([0.3, -0.2, 0.1, 0.25]), np.array([0.2, -0.15]))
G5 = GroupPoint(np.array([0.3, -0.2, 0.1, 0.25]), np.array([0.2]))


@pytest.fixture(scope="module")
def heis2():
    return heisenberg(2)


@pytest.fixture(scope="module")
def g022():
    return GroupStructure.from_signature(Signature(0, 2, 2))


class TestPairK:
    def test_odd_test_function_pairs_to_zero(self, g022):
        phi = GaussPoly(6, np.eye(6), {(1, 0, 0, 0, 0, 0): 1.0})
        res = pair_k(2, 2, phi, KernelSelector.constant(1.0), SMALL, with_error=False)
        assert abs(res.value) < 1e-12

    def test_delta_reproduction_22(self, g022):
        phi = GaussPoly.iso_gaussian(6)
        res = pair_k(2, 2, g022.apply_delta_rs(phi), KernelSelector.constant(1.0))
        assert abs(res.value - 1.0) <= 1e-3
        assert res.est_error < 1e-6

    def test_delta_reproduction_21_heaviside(self, heis2):
        phi = GaussPoly.iso_gaussian(5)
        res = pair_k(2, 1, heis2.apply_delta_rs(phi), KernelSelector.heaviside())
        assert abs(res.value - 1.0) <= 1e-2

    def test_linearity(self, g022):
        a = GaussPoly.iso_gaussian(6)
        b = GaussPoly.gaussian(np.diag([1.2] * 6), coeff=1.0)
        sel = KernelSelector.constant(1.0)
        va = pair_k(2, 2, a, sel, SMALL, with_error=False).value
        vb = pair_k(2, 2, b, sel, SMALL, with_error=False).value
        from pseudoht.gausspoly import GaussMixture

        vab = pair_k(2, 2, GaussMixture([a.scaled(2.0), b.scaled(-0.5 + 1j)]),
                     sel, SMALL, with_error=False).value
        assert abs(vab - (2 * va + (-0.5 + 1j) * vb)) < 1e-10 * max(1, abs(vab))

    def test_left_translation_covariance(self, heis2):
        """pair_K(Delta(phi o L_g)) = phi(g) for a random group element."""
        rng = np.random.default_rng(3)
        g = GroupPoint(rng.normal(size=4) * 0.4, rng.normal(size=1) * 0.4)
        phi = GaussPoly.iso_gaussian(5)
        shifted = heis2.left_translate(phi, g)
        res = pair_k(2, 1, heis2.apply_delta_rs(shifted), KernelSelector.heaviside())
        want = phi.evaluate(np.concatenate([g.x, g.z]))
        assert abs(res.value - want) <= 1e-2 * max(abs(want), 1e-2)

    def test_refinement_convergence(self, g022):
        """Doubling the budget moves the value by less than the reported error."""
        phi = GaussPoly.iso_gaussian(6)
        d = g022.apply_delta_rs(phi)
        r1 = pair_k(2, 2, d, KernelSelector.constant(1.0), SMALL, with_error=True)
        assert abs(r1.value - 1.0) <= max(10 * r1.est_error, 1e-6)

    @pytest.mark.slow
    def test_delta_reproduction_034(self):
        """K(Delta phi) = phi(0) at (0, 3, 4): center S^2, 11-dim test function."""
        G = GroupStructure.from_signature(Signature(0, 3, 4))
        phi = GaussPoly.gaussian(np.diag(np.linspace(0.9, 1.4, 11)))
        res = pair_k(4, 3, G.apply_delta_rs(phi), KernelSelector.constant(1.0),
                     PairBudget(sphere_pts=8), with_error=False)
        assert abs(res.value - 1.0) <= 1e-6

    def test_grid_oracle_crosscheck(self):
        """pair_k at odd n against an independent reduction of the same integral.

        For phi = exp(-|u|^2/2) at (n, s) = (1, 2), [F phi] = exp(-(|xi|^2 +
        |theta|^2)/2) and q = i (2 pi)^-2 / r int_0^1 (1 - rho^2)^-1/2
        e^{i rho P(xi)/r} drho with r = |theta|.  The xi-integral is closed
        form, int e^{-|xi|^2/2 + i a P(xi)} dxi = 2 pi / sqrt(1 + 4 a^2), and
        the polar theta-integral gives 2 pi r dr, so with rho = sin t

            K = i int_0^inf e^{-r^2/2} int_0^{pi/2} r / sqrt(r^2 + 4 sin^2 t) dt dr,

        which mpmath evaluates without any of pair_k's quadrature rules.
        """
        mp = pytest.importorskip("mpmath")
        phi = GaussPoly.iso_gaussian(4)
        sel = KernelSelector.constant(1.0)
        exact = pair_k(1, 2, phi, sel, with_error=False).value
        with mp.workdps(20):
            ref = 1j * float(mp.quad(
                lambda r, t: mp.exp(-r * r / 2) * r / mp.sqrt(r * r + 4 * mp.sin(t) ** 2),
                [0, 1, mp.inf], [0, mp.pi / 2]))
        assert abs(ref - exact) <= 2e-3 * abs(exact)


class TestRhoRule:
    """pair_k's rho-rule: Gauss-Legendre on [0, 1] at n = 2, where the weight
    (1 - rho^2)^{(n-2)/2} is 1, and the Jacobi rule otherwise."""

    @pytest.mark.parametrize("npts", [128, 256, 512, 1024])
    def test_n2_is_the_unit_weight_rule(self, npts):
        assert pairing._rho_nodes_for(6.0 / npts, 96) == npts
        rho, w = pairing._rho_rule_for(2, npts)
        ref_rho, ref_w = half_disc_rule(npts, 0.0)
        assert rho.shape == w.shape == (npts,)
        assert np.max(np.abs(rho - ref_rho)) <= 2 * np.finfo(float).eps
        assert np.sum(np.abs(w - ref_w)) <= 1e-12 * np.sum(ref_w)

    def test_node_budget_reports_the_counts_used(self, g022):
        """rho_nodes above the cap of 1024 shows as 1024; with_error adds the
        doubled budget's counts, each a power of two."""
        dphi = g022.apply_delta_rs(GaussPoly.iso_gaussian(6))
        sel = KernelSelector.constant(1.0)
        res = pair_k(2, 2, dphi, sel, replace(SMALL, rho_nodes=2048), with_error=False)
        assert res.node_budget["rho_nodes"] == 2048
        assert res.node_budget["rho_nodes_used"] == [[1024]]
        base, doubled = pair_k(2, 2, dphi, sel, SMALL).node_budget["rho_nodes_used"]
        assert base[0] == 64 and doubled[0] == 128 and base[-1] == doubled[-1] == 1024
        assert all(c & (c - 1) == 0 for c in base + doubled)

    def test_node_budget_is_the_budget_of_the_value(self):
        """with_error returns the doubled budget's value, and node_budget names
        that budget: pair_k doubles its rho, radial and sphere counts; the
        second form doubles t_order and r_order only."""
        res = pair_k(1, 2, GaussPoly.iso_gaussian(4), budget=SMALL)
        assert res.node_budget["rho_nodes"] == 2 * SMALL.rho_nodes
        assert res.node_budget["radial_order"] == 2 * SMALL.radial_order
        assert res.node_budget["sphere_pts"] == 2 * SMALL.sphere_pts
        assert res.node_budget["rho_nodes_used"][0][0] == SMALL.rho_nodes
        assert pair_k(1, 2, GaussPoly.iso_gaussian(4), budget=SMALL,
                      with_error=False).node_budget["rho_nodes"] == SMALL.rho_nodes
        budget = pair_second_form(2, 1, GaussPoly.iso_gaussian(5), SMALL).node_budget
        assert budget["t_order"] == 2 * SMALL.t_order and budget["r_order"] == 2 * SMALL.r_order
        assert budget["sphere_pts"] == SMALL.sphere_pts

    @pytest.mark.parametrize("n", [1, 3, 4])
    def test_other_n_keep_the_jacobi_rule(self, n):
        rho, w = pairing._rho_rule_for(n, 1024)
        ref_rho, ref_w = half_disc_rule(1024, (n - 2) / 2.0)
        assert np.array_equal(rho, ref_rho) and np.array_equal(w, ref_w)


def _engine_freqs(monkeypatch, dphi, sphere_pts: int) -> int:
    """The number of frequencies pair_k at (0,2,2) sends to the engine."""
    count = 0
    engine = pairing.batched_osc_integral

    def counting(phi, w, tau, **kw):
        nonlocal count
        count += np.asarray(w).size
        return engine(phi, w, tau, **kw)

    monkeypatch.setattr(pairing, "batched_osc_integral", counting)
    budget = PairBudget(radial_geo_panels=4, radial_lin_panels=4, radial_order=4,
                        sphere_pts=sphere_pts, rho_nodes=32)
    pair_k(2, 2, dphi, KernelSelector.constant(1.0), budget, with_error=False)
    return count


class TestEngineWork:
    """Sphere nodes whose restrictions share a center share one engine row."""

    def test_block_diagonal_independent_of_sphere_budget(self, g022, monkeypatch):
        dphi = g022.apply_delta_rs(PHI6)
        counts = [_engine_freqs(monkeypatch, dphi, m) for m in (8, 16)]
        assert counts[0] > 0
        assert counts[0] == counts[1]

    def test_coupled_grows_with_sphere_budget(self, g022, monkeypatch):
        dphi = g022.apply_delta_rs(g022.left_translate(PHI6, G6))
        counts = [_engine_freqs(monkeypatch, dphi, m) for m in (8, 16)]
        assert counts[1] > counts[0] > 0


# off-centre in x, so the transforms carry a xi-frequency b != 0
OFF6 = GaussPoly(6, np.diag([1.0, 1.3, 0.8, 1.1, 0.9, 1.2]),
                 {(0,) * 6: 1.0, (1, 0, 0, 0, 0, 1): 0.3},
                 shift=np.array([0.4, -0.3, 0.2, 0.1, 0.0, 0.0]))
OFF5 = GaussPoly(5, np.diag([1.0, 1.3, 0.8, 1.1, 0.9]), {(0,) * 5: 1.0, (0, 1, 0, 0, 1): 0.3},
                 shift=np.array([0.4, -0.3, 0.2, 0.1, 0.2]))


class TestOneEnginePass:
    """Both kernel halves in one engine pass against the two-call route
    (`tests/pair_k_reference.py`), which runs the mu-half at -rho/r."""

    @staticmethod
    def close(got, want):
        assert abs(want) >= 1e-3
        assert abs(got - want) <= 1e-13 * abs(want)

    @pytest.mark.parametrize("case", [
        (2, 2, lambda G: OFF6, KernelSelector.constant(0.3 + 0.2j)),
        (2, 1, lambda G: OFF5, KernelSelector.heaviside()),
        (2, 2, lambda G: G.apply_delta_rs(G.left_translate(PHI6, G6)),
         KernelSelector.constant(0.3 + 0.2j)),
        (2, 2, lambda G: PHI6, KernelSelector.constant(0.3 + 0.2j)),
        (2, 1, lambda G: G.apply_delta_rs(PHI5), KernelSelector.heaviside()),
    ], ids=["off_centre", "off_centre_heaviside", "coupled_x_z", "complex_constant", "heaviside"])
    def test_pair_k_matches_two_calls(self, case):
        n, s, make, sel = case
        G = GroupStructure.from_signature(Signature(0, s, n))
        phi = make(G)
        self.close(pair_k(n, s, phi, sel, SMALL, with_error=False).value,
                   pair_k_two_calls(n, s, phi, sel, SMALL))

    def test_one_call_per_rho_block(self, heis2, monkeypatch):
        """A heaviside pairing of a centred term: lam and mu each live on one
        sphere node, and both halves share each block's one engine call, half
        the calls of the two-call route."""
        import pair_k_reference

        calls = []
        engine = pairing.batched_osc_integral

        def counting(phi, w, tau, **kw):
            calls.append(kw.get("conj_coef") is not None)
            return engine(phi, w, tau, **kw)

        monkeypatch.setattr(pairing, "batched_osc_integral", counting)
        monkeypatch.setattr(pair_k_reference, "batched_osc_integral", counting)
        dphi = heis2.apply_delta_rs(PHI5)
        pair_k(2, 1, dphi, KernelSelector.heaviside(), SMALL, with_error=False)
        merged = list(calls)
        pair_k_two_calls(2, 1, dphi, KernelSelector.heaviside(), SMALL)
        assert merged and all(merged)
        assert len(calls) == 3 * len(merged)

    @pytest.mark.parametrize("phi", [
        PHI5,
        GaussPoly(5, np.diag([1.0, 1.3, 0.8, 1.1, 0.9]), {(0,) * 5: 1.0},
                  shift=np.array([0.0, 0.0, 0.0, 0.0, 15.0])),
        OFF5,
        GaussPoly(5, np.diag([1.0, 1.3, 0.8, 1.1, 0.9]), {(0,) * 5: 1.0},
                  freq=np.array([0.5, 0.0, 0.2, 0.0, 0.0])),
    ], ids=["hermite", "trapezoid_odd", "off_centre", "x_frequency"])
    def test_pair_mr_matches_per_node(self, heis2, phi):
        """Mirrored theta nodes share a row (Hermite; the trapezoid, whose odd
        rule has a middle node at theta = 0); with b != 0 every node keeps its own."""
        self.close(pair_mr_heisenberg(heis2, phi, with_error=False).value,
                   pair_mr_per_node(heis2, phi))


class TestInputChecks:
    @pytest.mark.parametrize("call", [
        lambda G: pair_k(2, 2, GaussPoly.iso_gaussian(7), with_error=False),
        lambda G: pair_mr_heisenberg(G, GaussPoly.iso_gaussian(6), with_error=False),
        lambda G: pair_second_form(2, 2, GaussPoly.iso_gaussian(5), with_error=False),
    ])
    def test_wrong_dimension(self, heis2, call):
        with pytest.raises(DimensionMismatch):
            call(heis2)

    @pytest.mark.parametrize("field", ["sphere_pts", "radial_order", "rho_nodes", "t_order"])
    def test_budget_rejects_nonpositive_counts(self, field):
        with pytest.raises(ValueError, match=field):
            PairBudget(**{field: 0})


class TestPairMR:
    def test_requires_even_n(self):
        G = heisenberg(1)
        with pytest.raises(OddN):
            pair_mr_heisenberg(G, GaussPoly.iso_gaussian(3))

    def test_requires_s1(self, g022):
        with pytest.raises(UnsupportedN):
            pair_mr_heisenberg(g022, GaussPoly.iso_gaussian(6))

    def test_delta_reproduction(self, heis2):
        phi = GaussPoly.iso_gaussian(5)
        res = pair_mr_heisenberg(heis2, heis2.apply_delta_rs(phi))
        assert abs(res.value - 1.0) <= 1e-2

    def test_agrees_with_pair_k(self, heis2):
        def both(widths):
            phi = GaussPoly.gaussian(np.diag(widths))
            a = pair_mr_heisenberg(heis2, phi, with_error=False).value
            b = pair_k(2, 1, phi, KernelSelector.heaviside(), with_error=False).value
            return a, b

        # Swapping (x1, x2) with (x3, x4) maps P to -P and flips the sign of
        # both pairings; the isotropic Gaussian is invariant under the swap,
        # so both pairings of it vanish.
        a, b = both([1.0] * 5)
        assert abs(a) <= 1e-12 and abs(b) <= 1e-12
        a, b = both([1.0, 1.3, 0.8, 1.1, 0.9])
        assert abs(a - b) <= 1e-2 * abs(b)

    def test_vanishes_on_concentrated_support(self, heis2):
        """Gaussian concentrated in {4|z| < |P(x)|} pairs to ~0."""
        quad = np.diag([1 / 0.15 ** 2] * 4 + [1 / 0.1 ** 2])
        conc = GaussPoly.gaussian(quad, shift=[2.0, 0, 0, 0, 0.0])
        ref = GaussPoly.gaussian(quad, shift=[2.0, 0, 0, 0, -1.5])
        v1 = pair_mr_heisenberg(heis2, conc, with_error=False).value
        v2 = pair_mr_heisenberg(heis2, ref, with_error=False).value
        assert abs(v1) <= 1e-6 * abs(v2)


class TestSecondForm:
    def test_rejects_n1(self):
        with pytest.raises(UnsupportedN):
            pair_second_form(1, 2, GaussPoly.iso_gaussian(4))

    def test_odd_test_function_zero(self):
        phi = GaussPoly(6, np.eye(6), {(1, 0, 0, 0, 0, 0): 1.0})
        res = pair_second_form(2, 2, phi, with_error=False)
        assert abs(res.value) < 1e-10

    def test_rejects_z_frequency(self):
        """A z-frequency becomes a theta-centre of the partial transform."""
        phi = GaussPoly(5, np.eye(5), {(0,) * 5: 1.0}, freq=[0.0, 0.0, 0.0, 0.0, 0.3])
        with pytest.raises(UnsupportedN):
            pair_second_form(2, 1, phi, with_error=False)

    def test_rejects_xz_coupled_form(self):
        A = np.eye(5)
        A[0, 4] = A[4, 0] = 0.2
        with pytest.raises(DimensionMismatch):
            pair_second_form(2, 1, GaussPoly.gaussian(A), with_error=False)

    def test_agrees_with_pair_k_22(self, g022):
        phi = GaussPoly.iso_gaussian(6)
        a = pair_second_form(2, 2, phi, with_error=False).value
        b = pair_k(2, 2, phi, KernelSelector.constant(1.0), with_error=False).value
        assert abs(a - b) <= 1e-2 * abs(b)

    def test_delta_reproduction_22(self, g022):
        phi = GaussPoly.iso_gaussian(6)
        res = pair_second_form(2, 2, g022.apply_delta_rs(phi), with_error=False)
        assert abs(res.value - 1.0) <= 1e-2

    def test_agrees_with_pair_k_034(self):
        """n = 4, s = 3: three r-derivatives, and the anisotropic theta-block gives
        every sphere node its own c."""
        phi = GaussPoly.gaussian(np.diag(np.linspace(0.9, 1.4, 11)))
        budget = PairBudget(sphere_pts=8)
        a = pair_second_form(4, 3, phi, budget, with_error=False).value
        b = pair_k(4, 3, phi, KernelSelector.constant(1.0), budget, with_error=False).value
        assert abs(b) >= 1e-6
        assert abs(a - b) <= 1e-2 * abs(b)

    @pytest.mark.parametrize("phi", [GaussPoly.iso_gaussian(6), ANISO6], ids=["iso", "aniso"])
    def test_engine_frequencies_per_value(self, phi, monkeypatch):
        """The u-integral comes from one cumulative v-table per term, not from
        a u-grid per t node (which sent 915,800 frequencies at the iso input),
        and the table's subpanels grow with v above the dense points (45,432
        and 42,872 frequencies here; 217,728 and 246,880 at a fixed length)."""
        freqs = 0
        engine = pairing.batched_osc_integral

        def counting(term, w, *args, **kw):
            nonlocal freqs
            freqs += np.size(w)
            return engine(term, w, *args, **kw)

        monkeypatch.setattr(pairing, "batched_osc_integral", counting)
        pair_second_form(2, 2, phi, with_error=False)
        assert 0 < freqs <= 60_000


# one input per kind of moment table: an r^2 monomial at (2,1), sphere nodes
# with different c at (2,2), n = 3 and n = 4 (binomial sums of 2 and 3
# terms), an x-shifted Gaussian with an x-monomial, whose table oscillates
# in the frequency, and a narrow one shifted far in x, whose table carries a
# large centre phase
VTABLE_INPUTS = {
    "021": (2, 1, PHI5),
    "022_aniso": (2, 2, ANISO6),
    "013_aniso": (3, 1, GaussPoly.gaussian(np.diag(np.linspace(1.0, 1.4, 7)))),
    "034_aniso": (4, 3, GaussPoly.gaussian(np.diag(np.linspace(0.9, 1.4, 11)))),
    "021_shifted": (2, 1, GaussPoly(5, np.diag([1.0, 1.3, 0.8, 1.1, 0.9]),
                                    {(0,) * 5: 1.0, (1, 0, 0, 0, 2): 0.25},
                                    shift=[0.3, -0.2, 0.1, 0.25, 0.0])),
    "021_far": (2, 1, GaussPoly.gaussian(np.diag([44.0, 44.0, 44.0, 44.0, 1.0]),
                                         shift=[3.0, 0.0, 0.0, 0.0, 0.0])),
}


class TestSecondFormVTable:
    """The cumulative v-table against the u-quadrature per t node."""

    @pytest.mark.parametrize("case", VTABLE_INPUTS.values(), ids=VTABLE_INPUTS.keys())
    def test_matches_u_quadrature_per_t_node(self, case):
        """The oracle at u_order 40.  At its old order 10 the (0,3,4) value
        is 2.7e-12 off, and at 20 the far-shifted one 1.3e-8 (its u-grid does
        not resolve the centre phase); at 40 and 80 that one agrees with the
        table to 5e-15, and the other inputs do not move."""
        n, s, phi = case
        want = second_form_reference(n, s, phi, u_order=40)
        got = pair_second_form(n, s, phi, with_error=False).value
        assert abs(want) >= 1e-6
        assert abs(got - want) <= 1e-13 * abs(want)

    @pytest.mark.parametrize("case", VTABLE_INPUTS.values(), ids=VTABLE_INPUTS.keys())
    def test_converged_in_subpanels_and_tail(self, case, monkeypatch):
        n, s, phi = case
        base = pair_second_form(n, s, phi, with_error=False).value
        monkeypatch.setattr(pairing, "_V_PANEL", pairing._V_PANEL / 2)
        monkeypatch.setattr(pairing, "_V_TAIL_ORDER", 2 * pairing._V_TAIL_ORDER)
        fine = pair_second_form(n, s, phi, with_error=False).value
        assert abs(fine - base) <= 1e-14 * abs(base)

    def test_blocks_do_not_change_the_table(self, monkeypatch):
        """Engine blocks of one subpanel and contraction blocks of one (t, r)
        node, both sized by the engine's one budget, give the same value to
        rounding."""
        n, s, phi = VTABLE_INPUTS["022_aniso"]
        base = pair_second_form(n, s, phi, with_error=False).value
        monkeypatch.setattr(gausspoly, "_OSC_BYTES", 1)
        one = pair_second_form(n, s, phi, with_error=False).value
        assert abs(one - base) <= 1e-14 * abs(base)


class TestPseudoPair:
    def test_rejects_wrong_n(self):
        G = heisenberg(1)
        with pytest.raises(UnsupportedN):
            pseudo_pair_n2(G, GaussPoly.iso_gaussian(3))

    def test_identity_centered_gaussian(self, heis2):
        phi = GaussPoly.iso_gaussian(5)
        lhs, rhs = pseudo_pair_n2(heis2, phi)
        assert abs(lhs - rhs) <= 1e-3 * abs(rhs)
        # the correction term is exactly 1/4 for this phi: RHS = 1.25
        assert abs(rhs - 1.25) < 1e-6

    def test_parity_zero(self, heis2):
        phi = GaussPoly(5, np.eye(5), {(1, 0, 0, 0, 0): 1.0})
        lhs, rhs = pseudo_pair_n2(heis2, phi)
        assert abs(lhs) < 1e-10 and abs(rhs) < 1e-10

    def test_vanishing_zero_slice_recovers_delta(self, heis2):
        """With [F phi](0, .) = 0 the correction drops and LHS = phi(0).

        phi = (|x|^2 - 4) exp(-(|x|^2 + z^2)/2) integrates to zero in x for
        every z, so its transform vanishes on the {xi = 0} slice.
        """
        poly = {(0, 0, 0, 0, 0): -4.0}
        for j in range(4):
            mono = [0] * 5
            mono[j] = 2
            poly[tuple(mono)] = 1.0
        phi = GaussPoly(5, np.eye(5), poly)
        lhs, rhs = pseudo_pair_n2(heis2, phi)
        want = phi.evaluate(np.zeros(5))  # -4
        assert abs(rhs - want) < 1e-8
        assert abs(lhs - rhs) <= 1e-3 * abs(rhs)


class TestPinnedValues:
    """Values of the per-node quadrature loops, which node batching replaced.

    The batched restriction and engine reorder floating-point sums only, so
    every value must agree to 1e-12 relative.
    """

    @staticmethod
    def close(got, want):
        assert abs(want) >= 1e-6
        assert abs(got - want) <= 1e-12 * abs(want)

    def test_pair_k_22_constant(self, g022):
        res = pair_k(2, 2, g022.apply_delta_rs(PHI6), KernelSelector.constant(1.0), SMALL,
                     with_error=False)
        self.close(res.value, 1.00000217187044 + 4.4338790378363804e-16j)

    # recorded with one engine call per sphere node; one case per way the
    # rows of a restricted family merge

    def test_pair_k_22_complex_selector(self):
        """lam and mu both nonzero and complex: every row takes both signs."""
        res = pair_k(2, 2, PHI6, KernelSelector.constant(0.3 + 0.4j), SMALL, with_error=False)
        self.close(res.value, -0.4108452761010725 - 0.21324825211851026j)

    def test_pair_k_21_heaviside_left_translated(self, heis2):
        """lam and mu each vanish on one sphere node, and the rows do not share a center."""
        res = pair_k(2, 1, heis2.left_translate(PHI5, G5), KernelSelector.heaviside(), SMALL,
                     with_error=False)
        self.close(res.value, -0.09077422777941083 + 5.551115123125783e-17j)

    def test_pair_k_22_left_translated(self, g022):
        """Delta phi of a left-translated Gaussian: every sphere node its own center."""
        dphi = g022.apply_delta_rs(g022.left_translate(PHI6, G6))
        res = pair_k(2, 2, dphi, KernelSelector.constant(0.3 + 0.4j), SMALL, with_error=False)
        self.close(res.value, 0.8881431496383315 - 2.338407245616736e-15j)

    def test_pair_k_21_heaviside(self):
        res = pair_k(2, 1, PHI5, KernelSelector.heaviside(), with_error=False)
        self.close(res.value, -0.042378201375743225 - 6.368455503767739e-17j)

    def test_pair_mr_heisenberg(self, heis2):
        res = pair_mr_heisenberg(heis2, PHI5, with_error=False)
        self.close(res.value, -0.04237820077167745 + 1.4456170758842876e-18j)

    def test_pseudo_pair_n2(self, heis2):
        phi = GaussPoly(5, np.diag([1.0, 1.2, 0.9, 1.1, 1.3]),
                        {(0,) * 5: 1.0, (2, 0, 0, 0, 0): 0.2})
        lhs, rhs = pseudo_pair_n2(heis2, phi)
        self.close(lhs, 1.357813223666066 - 1.0293108611268396e-16j)
        self.close(rhs, 1.3578132236660676)

    def test_pair_second_form_21(self):
        """The z^2 monomial of PHI5 gives r-derivative pieces of different r-powers."""
        res = pair_second_form(2, 1, PHI5, with_error=False)
        self.close(res.value, -0.04237820144583948 + 0.6297005408002172j)

    def test_pair_second_form_22(self):
        res = pair_second_form(2, 2, GaussPoly.iso_gaussian(6), with_error=False)
        self.close(res.value, 0.5213441572527334j)

    def test_pair_second_form_22_anisotropic(self):
        """The sphere nodes have different c; recorded with one r-grid per term,
        sized by the smallest c (est_error 4.4e-9)."""
        res = pair_second_form(2, 2, ANISO6, with_error=False)
        self.close(res.value, 0.02262480905353649 + 0.45774355123419425j)

    @pytest.mark.parametrize("widths, want", [
        (np.ones(7), -1.875069735797396e-18 + 0.4285850775503713j),
        (np.linspace(1.0, 1.4, 7), 0.030843390519422136 + 0.36480448706651913j),
    ], ids=["iso", "aniso"])
    def test_pair_second_form_013(self, widths, want):
        """n = 3: two r-derivatives."""
        res = pair_second_form(3, 1, GaussPoly.gaussian(np.diag(widths)), with_error=False)
        self.close(res.value, want)

    def test_inv_p_power_coupled_form(self):
        A = np.array([[1.0, 0.2, 0.1, 0.0], [0.2, 1.4, 0.0, 0.15],
                      [0.1, 0.0, 0.7, 0.05], [0.0, 0.15, 0.05, 1.2]])
        psi = GaussPoly(4, A, {(0, 0, 0, 0): 1.0, (1, 1, 0, 0): 0.3, (0, 0, 2, 0): -0.1},
                        shift=[0.1, 0, -0.2, 0.05])
        self.close(inv_p_power(psi, 2), -1.329672426448347 + 27.13898442507997j)
