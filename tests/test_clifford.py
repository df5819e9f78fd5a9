"""Catalog construction and validation tests."""
import numpy as np
import pytest

from pseudoht.clifford import (
    CATALOG_SIGNATURES,
    Signature,
    build_module,
    catalog_from_json,
    catalog_to_json,
    validate_module,
)
from pseudoht.errors import DimensionMismatch, UnknownSignature


@pytest.mark.parametrize("sig", CATALOG_SIGNATURES, ids=str)
def test_catalog_entry_validates(sig):
    report = validate_module(build_module(sig))
    assert report.passed, report.residuals
    assert report.max_residual() <= 1e-12


def test_heisenberg_generator_matrix():
    mod = build_module(Signature(0, 1, 1))
    assert np.array_equal(mod.rho([1.0]), [[0.0, 1.0], [1.0, 0.0]])
    # rho(z)^2 = I = -<z,z>_{0,1} I
    assert np.array_equal(mod.rho([1.0]) @ mod.rho([1.0]), np.eye(2))


def test_heisenberg_module_action_v_to_w():
    # J_z v_i = w_i and J_z w_i = v_i in the ordered basis (v..., w...)
    for n in (1, 2, 3):
        mod = build_module(Signature(0, 1, n))
        R = mod.rho([1.0])
        for i in range(n):
            assert np.array_equal(R @ np.eye(2 * n)[i], np.eye(2 * n)[n + i])
            assert np.array_equal(R @ np.eye(2 * n)[n + i], np.eye(2 * n)[i])


def test_n11_bracket_table():
    """[X_1,X_2] = z_1, [X_1,X_4] = z_2, [X_2,X_3] = -z_2, [X_3,X_4] = z_1."""
    mod = build_module(Signature(1, 1, 2))
    tau = mod.tau
    # bracket coefficient of z_k in [X_i, X_j] is 2 (Omega_k)_{ij}
    om = [0.5 * tau @ rk.T for rk in mod.rho_gen]
    table = {(i, j): (2 * om[0][i, j], 2 * om[1][i, j])
             for i in range(4) for j in range(4) if i < j}
    assert table[(0, 1)] == (1.0, 0.0)
    assert table[(0, 3)] == (0.0, 1.0)
    assert table[(1, 2)] == (0.0, -1.0)
    assert table[(2, 3)] == (1.0, 0.0)
    assert table[(0, 2)] == (0.0, 0.0)
    assert table[(1, 3)] == (0.0, 0.0)


def test_corrupted_module_fails():
    mod = build_module(Signature(0, 1, 1))
    mod.rho_gen[0] = mod.rho_gen[0].copy()
    mod.rho_gen[0][0, 1] = -1.0  # flip one sign
    report = validate_module(mod)
    assert not report.passed
    assert report.residuals["rho_eta_squared"] >= 1.0


def test_unknown_signature_raises():
    with pytest.raises(UnknownSignature):
        build_module(Signature(5, 5, 5))


@pytest.mark.parametrize("rsn", [(0, 2, 1), (0, 3, 2), (2, 1, 2)])
def test_inadmissible_dimensions_rejected(rsn):
    """These (r, s, n) admit no admissible module; minimal n is larger."""
    with pytest.raises(UnknownSignature, match="minimal admissible"):
        build_module(Signature(*rsn))


def test_no_admissible_02_module_in_dim2():
    """Exhaustive check: tau J skew + J^2 = I on R^2 forces J = +-[[0,1],[1,0]].

    Hence no two anticommuting generators exist and (0,2) needs n >= 2.
    """
    tau = np.diag([1.0, -1.0])
    sols = []
    grid = np.linspace(-2, 2, 9)
    for a in grid:
        for b in grid:
            for c in grid:
                for d in grid:
                    J = np.array([[a, b], [c, d]])
                    if np.abs(tau @ J + (tau @ J).T).max() < 1e-12 \
                            and np.abs(J @ J - np.eye(2)).max() < 1e-12:
                        sols.append(J)
    assert len(sols) == 2
    assert all(abs(abs(J[0, 1]) - 1) < 1e-12 and J[0, 0] == 0 for J in sols)


def test_rho_linear_and_dimension_check():
    mod = build_module(Signature(1, 2, 2))
    rng = np.random.default_rng(7)
    e1, e2 = rng.normal(size=3), rng.normal(size=3)
    assert np.allclose(mod.rho(e1 + 2 * e2), mod.rho(e1) + 2 * mod.rho(e2), atol=1e-13)
    assert np.array_equal(mod.rho(np.zeros(3)), np.zeros((4, 4)))
    with pytest.raises(DimensionMismatch):
        mod.rho([1.0, 2.0])


@pytest.mark.parametrize("sig", CATALOG_SIGNATURES, ids=str)
def test_rho_eta_squared_random(sig):
    mod = build_module(sig)
    rng = np.random.default_rng(11)
    for _ in range(100):
        eta = rng.normal(size=sig.center_dim)
        R = mod.rho(eta)
        assert np.abs(R @ R + sig.eta_form(eta) * np.eye(2 * sig.n)).max() <= 1e-12


def test_serialization_roundtrip_and_shipped_file():
    cat = catalog_from_json(catalog_to_json())
    assert set(cat) == set(CATALOG_SIGNATURES)
    for sig, mod in cat.items():
        built = build_module(sig)
        assert len(mod.rho_gen) == len(built.rho_gen)
        for a, b in zip(mod.rho_gen, built.rho_gen):
            assert np.array_equal(a, b)


def test_loader_rejects_corrupted_catalog():
    import json

    data = json.loads(catalog_to_json())
    data["catalog"][0]["rho"][0][0][0] = 3
    with pytest.raises(UnknownSignature):
        catalog_from_json(json.dumps(data))
