"""Group law, fields, Fourier-side operator, and flow tests."""
import numpy as np
import pytest

from pseudoht.clifford import CATALOG_SIGNATURES, Signature, build_module, p_form
from pseudoht.errors import DimensionMismatch, NonPositiveScale
from pseudoht.gausspoly import GaussPoly, apply_operator
from pseudoht.group import GroupPoint, GroupStructure, heisenberg, tau_signs
from pseudoht.witness import a_eta_apply, b_eta_apply


@pytest.fixture(scope="module")
def heis1():
    return heisenberg(1)


@pytest.fixture(scope="module")
def heis2():
    return heisenberg(2)


def random_group_point(G, rng, scale=1.0):
    return GroupPoint(rng.normal(size=2 * G.sig.n) * scale,
                      rng.normal(size=G.sig.center_dim) * scale)


class TestOmega:
    def test_omega_zero(self, heis1):
        assert np.array_equal(heis1.omega([0.0]), np.zeros((2, 2)))

    def test_omega_heisenberg(self, heis1):
        assert np.allclose(heis1.omega([1.0]), 0.5 * np.array([[0, 1], [-1, 0]]))

    @pytest.mark.parametrize("sig", CATALOG_SIGNATURES, ids=str)
    def test_omega_quadratic_identity(self, sig):
        G = GroupStructure.from_signature(sig)
        rng = np.random.default_rng(5)
        for _ in range(20):
            eta = rng.normal(size=sig.center_dim)
            Om = G.omega(eta)
            assert np.abs(Om + Om.T).max() < 1e-12
            target = 0.25 * sig.eta_form(eta) * G.tau
            assert np.abs(Om.T @ G.tau @ Om - target).max() < 1e-12

    @pytest.mark.parametrize("sig", CATALOG_SIGNATURES, ids=str)
    def test_tau_omega_eigenvalues(self, sig):
        """Eigenvalues +- i sqrt(<eta,eta>)/2, each with multiplicity n."""
        G = GroupStructure.from_signature(sig)
        rng = np.random.default_rng(8)
        for _ in range(10):
            eta = rng.normal(size=sig.center_dim)
            if sig.eta_form(eta) <= 0.1:
                continue
            lam = np.linalg.eigvals(G.tau @ G.omega(eta))
            lam = lam[np.argsort(lam.imag)]
            want = 0.5 * np.sqrt(sig.eta_form(eta))
            expected = np.array([-1j * want] * sig.n + [1j * want] * sig.n)
            assert np.max(np.abs(lam - expected)) < 1e-10


class TestGroupLaw:
    def test_identity_and_inverse(self, heis1):
        rng = np.random.default_rng(0)
        p = random_group_point(heis1, rng)
        e = heis1.identity()
        q = heis1.group_mul(p, e)
        assert np.allclose(q.as_vector(), p.as_vector())
        r = heis1.group_mul(p, heis1.inverse(p))
        assert np.allclose(r.as_vector(), 0.0, atol=1e-15)

    def test_heisenberg_product_example(self, heis1):
        p = GroupPoint([1.0, 0.0], [0.0])
        q = GroupPoint([0.0, 1.0], [0.0])
        out = heis1.group_mul(p, q)
        assert np.allclose(out.x, [1.0, 1.0])
        assert np.allclose(out.z, [0.5])

    @pytest.mark.parametrize("sig", CATALOG_SIGNATURES[:6], ids=str)
    def test_associativity(self, sig):
        G = GroupStructure.from_signature(sig)
        rng = np.random.default_rng(3)
        for _ in range(10):
            p, q, r = (random_group_point(G, rng) for _ in range(3))
            a = G.group_mul(G.group_mul(p, q), r).as_vector()
            b = G.group_mul(p, G.group_mul(q, r)).as_vector()
            assert np.allclose(a, b, atol=1e-12)


class TestDilations:
    def test_identity_scale(self, heis1):
        rng = np.random.default_rng(1)
        p = random_group_point(heis1, rng)
        q = heis1.dilate(1.0, p)
        assert np.allclose(p.as_vector(), q.as_vector())

    def test_rejects_nonpositive(self, heis1):
        with pytest.raises(NonPositiveScale):
            heis1.dilate(0.0, heis1.identity())

    @pytest.mark.parametrize("sig", [Signature(0, 1, 1), Signature(1, 1, 2)], ids=str)
    def test_automorphism_random(self, sig):
        G = GroupStructure.from_signature(sig)
        rng = np.random.default_rng(2)
        for _ in range(100):
            rho = rng.uniform(0.2, 3.0)
            p, q = random_group_point(G, rng), random_group_point(G, rng)
            a = G.dilate(rho, G.group_mul(p, q)).as_vector()
            b = G.group_mul(G.dilate(rho, p), G.dilate(rho, q)).as_vector()
            assert np.max(np.abs(a - b)) <= 1e-12 * max(1, np.max(np.abs(a)))

    def test_delta_homogeneous_degree_2(self, heis1):
        """Delta(phi o delta_rho) = rho^2 (Delta phi) o delta_rho on a grid."""
        phi = GaussPoly.iso_gaussian(3)
        rho = 1.37
        lhs = heis1.apply_delta_rs(heis1.dilate_function(phi, rho))
        rhs = heis1.dilate_function(heis1.apply_delta_rs(phi), rho).scaled(rho ** 2)
        rng = np.random.default_rng(4)
        U = rng.normal(size=(30, 3))
        assert np.max(np.abs(lhs.evaluate_many(U) - rhs.evaluate_many(U))) < 1e-12


class TestDeltaOperator:
    def test_heisenberg_delta_vs_finite_differences(self, heis1):
        """Compose the fields by 4th-order central differences as the oracle."""
        phi = GaussPoly.iso_gaussian(3, a=2.0)
        dphi = heis1.apply_delta_rs(phi)
        rng = np.random.default_rng(10)
        h = 8e-3
        # X_1 = d/dx1 - (x2/2) d/dz ; X_2 = d/dx2 + (x1/2) d/dz
        def field(f, j):
            def g(u):
                cs = [1 / 12, -8 / 12, 8 / 12, -1 / 12]
                offs = [-2, -1, 1, 2]
                coeff = -u[1] / 2 if j == 0 else u[0] / 2
                dx = sum(c * f(u + o * h * np.eye(3)[j]) for c, o in zip(cs, offs)) / h
                dz = sum(c * f(u + o * h * np.eye(3)[2]) for c, o in zip(cs, offs)) / h
                return dx + coeff * dz
            return g
        f0 = lambda u: phi.evaluate(u)
        oracle = lambda u: field(field(f0, 0), 0)(u) - field(field(f0, 1), 1)(u)
        for u in rng.normal(size=(20, 3)):
            assert abs(dphi.evaluate(u) - oracle(u)) < 1e-6

    def test_left_invariance(self, heis2):
        """Delta(phi o L_g) = (Delta phi) o L_g sampled at random points."""
        rng = np.random.default_rng(11)
        phi = GaussPoly.iso_gaussian(5)
        g = random_group_point(heis2, rng, 0.7)
        lhs = heis2.apply_delta_rs(heis2.left_translate(phi, g))
        rhs = heis2.left_translate(heis2.apply_delta_rs(phi), g)
        U = rng.normal(size=(30, 5))
        assert np.max(np.abs(lhs.evaluate_many(U) - rhs.evaluate_many(U))) < 1e-8

    @pytest.mark.parametrize("sig", [Signature(0, 2, 2), Signature(1, 1, 2)], ids=str)
    def test_full_symbol_on_plane_wave_probe(self, sig):
        """Coefficients match -P(xi) - <eta,eta> P(x)/4 + x^T rho(eta) xi.

        Probe: phi = exp(i<(x,z),(xi0,eta0)>) exp(-eps|u|^2/2) at x = x0 with
        eps -> 0 comparison against the symbol at (x0, xi0, eta0).
        """
        G = GroupStructure.from_signature(sig)
        d = sig.total_dim
        n2 = 2 * sig.n
        rng = np.random.default_rng(12)
        xi0 = rng.normal(size=n2)
        eta0 = rng.normal(size=sig.center_dim)
        x0 = rng.normal(size=n2)
        eps = 1e-6
        phi = GaussPoly(d, eps * np.eye(d), {tuple([0] * d): 1.0},
                        freq=np.concatenate([xi0, eta0]))
        dphi = G.apply_delta_rs(phi)
        u0 = np.concatenate([x0, np.zeros(sig.center_dim)])
        val = dphi.evaluate(u0) / phi.evaluate(u0)
        symbol = -p_form(xi0) - sig.eta_form(eta0) * p_form(x0) / 4.0 \
            + x0 @ G.module.rho(eta0) @ xi0
        assert abs(val - symbol) < 1e-4 * max(1.0, abs(symbol))

    @pytest.mark.parametrize("sig", [Signature(1, 1, 2), Signature(0, 2, 2),
                                     Signature(2, 1, 4), Signature(0, 3, 4)], ids=str)
    def test_delta_eta_is_z_fourier_of_delta_rs(self, sig):
        """F_z(Delta_{r,s} phi)(., eta) = Delta_{r,s}(eta) F_z(phi)(., eta)."""
        G = GroupStructure.from_signature(sig)
        d, n2 = sig.total_dim, 2 * sig.n
        rng = np.random.default_rng(18)
        quad = np.diag(np.linspace(0.4, 0.7, d))
        quad[0, 1] = quad[1, 0] = 0.15
        lin = [0] * d
        lin[0] = 1
        phi = GaussPoly(d, quad, {tuple([0] * d): 1.0, tuple(lin): 0.5},
                        shift=0.4 * rng.normal(size=d))
        z = list(range(n2, d))
        eta = rng.normal(size=sig.center_dim)
        lhs = G.apply_delta_rs(phi).partial_fourier(z).restrict(z, eta)
        g = phi.partial_fourier(z).restrict(z, eta)
        rhs = apply_operator(g, G.delta_eta_op(eta))
        X = 0.5 * rng.normal(size=(30, n2))
        want = rhs.evaluate_many(X)
        assert np.max(np.abs(want)) > 0.01
        assert np.max(np.abs(lhs.evaluate_many(X) - want)) <= 1e-12


class TestGOperator:
    @pytest.mark.parametrize("sig", [Signature(0, 1, 1), Signature(0, 2, 2),
                                     Signature(1, 1, 2)], ids=str)
    def test_intertwining_with_fourier(self, sig):
        """F(Delta phi) = G(F phi) pointwise at random points."""
        G = GroupStructure.from_signature(sig)
        d = sig.total_dim
        phi = GaussPoly(d, np.diag(np.linspace(1.0, 1.5, d)), {tuple([0] * d): 1.0})
        lhs = G.apply_delta_rs(phi).fourier()
        rhs = G.apply_g_rs_gausspoly(phi.fourier())
        rng = np.random.default_rng(13)
        U = rng.normal(size=(40, d))
        diff = np.max(np.abs(lhs.evaluate_many(U) - rhs.evaluate_many(U)))
        assert diff < 1e-8

    @pytest.mark.parametrize("sig", [Signature(1, 1, 2), Signature(0, 1, 1),
                                     Signature(0, 2, 2), Signature(2, 1, 4)], ids=str)
    def test_a_plus_b_is_g_at_fixed_eta(self, sig):
        """G_{r,s} psi restricted to eta equals (A_eta + B_eta) psi(., eta)."""
        G = GroupStructure.from_signature(sig)
        d, n2 = sig.total_dim, 2 * sig.n
        rng = np.random.default_rng(17)
        quad = np.diag(np.linspace(0.4, 0.7, d))
        quad[0, 1] = quad[1, 0] = 0.15
        quad[0, n2] = quad[n2, 0] = 0.1
        lin = [0] * d
        lin[1] = 1
        cross = [0] * d
        cross[0] = cross[n2] = 1
        psi = GaussPoly(d, quad, {tuple([0] * d): 1.0, tuple(lin): 0.5, tuple(cross): -0.3},
                        shift=0.3 * rng.normal(size=d))
        z = list(range(n2, d))
        eta = rng.normal(size=sig.center_dim)
        p = psi.restrict(z, eta)
        U = 0.5 * rng.normal(size=(40, n2))
        want = a_eta_apply(G, p, eta).evaluate_many(U) + b_eta_apply(G, p, eta).evaluate_many(U)
        got = G.apply_g_rs_gausspoly(psi).restrict(z, eta).evaluate_many(U)
        assert np.max(np.abs(want)) > 0.01
        assert np.max(np.abs(got - want)) <= 1e-12

    def test_dimension_mismatch(self):
        G = GroupStructure.from_signature(Signature(1, 1, 2))
        with pytest.raises(DimensionMismatch):
            G.apply_delta_rs(GaussPoly.iso_gaussian(4))
        with pytest.raises(DimensionMismatch):
            G.apply_g_rs_gausspoly(GaussPoly.iso_gaussian(4))


class TestExpFlow:
    @pytest.mark.parametrize("sig", CATALOG_SIGNATURES, ids=str)
    def test_matches_series_exponential(self, sig):
        from scipy.linalg import expm

        G = GroupStructure.from_signature(sig)
        rng = np.random.default_rng(14)
        for _ in range(10):
            eta = rng.normal(size=sig.center_dim)
            t = rng.uniform(-2, 2)
            for side in ("right", "left"):
                B = G.omega(eta) @ G.tau if side == "right" else G.tau @ G.omega(eta)
                assert np.abs(G.exp_flow(eta, t, side) - expm(t * B)).max() < 1e-12

    def test_time_zero_identity(self, heis1):
        assert np.array_equal(G := heis1.exp_flow([1.0], 0.0), np.eye(2))

    def test_periodicity(self):
        G = GroupStructure.from_signature(Signature(1, 1, 2))
        eta = np.array([2.0, 1.0])
        q = G.flow_period(eta)
        assert np.abs(G.exp_flow(eta, q) - np.eye(4)).max() < 1e-12

    def test_lightcone_nilpotent_branch(self):
        G = GroupStructure.from_signature(Signature(1, 1, 2))
        eta = np.array([1.0, 1.0])  # <eta,eta>_{1,1} = 0
        B = G.omega(eta) @ G.tau
        assert np.abs(B @ B).max() < 1e-14
        t = 0.7
        assert np.abs(G.exp_flow(eta, t) - (np.eye(4) + t * B)).max() < 1e-14

    def test_p_invariance_under_flow(self):
        G = GroupStructure.from_signature(Signature(1, 2, 2))
        rng = np.random.default_rng(15)
        for _ in range(30):
            eta = rng.normal(size=3)
            t = rng.uniform(-3, 3)
            xi = rng.normal(size=4)
            E = G.exp_flow(eta, t)
            assert abs(p_form(E @ xi) - p_form(xi)) < 1e-10 * max(1, abs(p_form(xi)))

    def test_tau_conjugation_invariance(self):
        """e^{-t tau Omega} tau e^{t Omega tau} = tau."""
        G = GroupStructure.from_signature(Signature(2, 1, 4))
        rng = np.random.default_rng(16)
        for _ in range(20):
            eta = rng.normal(size=3)
            t = rng.uniform(-2, 2)
            lhs = G.exp_flow(eta, -t, "left") @ G.tau @ G.exp_flow(eta, t, "right")
            assert np.abs(lhs - G.tau).max() < 1e-10
