"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s -m acceptance` to see the
per-criterion lines.  Tolerances are pinned here exactly as stated; the
underlying checks live in pseudoht.verification so the CLI `report` command
runs the same battery.

The two criteria that name (n, s) = (1, 2) ask for the group G_{0,2} with a
2-dimensional module; no admissible module exists at that dimension (shown
exhaustively in test_clifford), so those instances cannot be run as stated.
Each has an xfail test documenting the obstruction plus a passing run at the
minimal admissible module (0, 2, 2).
"""
import json
import math
import time

import mpmath
import numpy as np
import pytest

from pseudoht.clifford import Signature, build_module
from pseudoht.errors import UnknownSignature
from pseudoht.specfun import bessel_j, bessel_y, struve_h
from pseudoht import verification
import acceptance_values

mpmath.mp.dps = 40

pytestmark = pytest.mark.acceptance

_REPORT = {}


def _record(num, res):
    _REPORT[num] = res
    status = "PASS" if res["passed"] else "FAIL"
    details = {k: v for k, v in res.items() if k not in ("name", "passed", "entries")}
    print(f"\nACCEPTANCE {num} [{res['name']}]: {status}  {details}")
    for e in res.get("entries", []):
        print(f"    - {e}")
    return res


def test_criterion_01_algebra_suite():
    t0 = time.perf_counter()
    res = _record(1, verification.check_algebra_suite())
    assert time.perf_counter() - t0 < 10.0  # spec budget is 1 s of arithmetic; allow io slack
    assert res["passed"]
    assert res["max_algebra_residual"] <= 1e-12
    assert res["max_eigenvalue_residual"] <= 1e-10


def test_criterion_02_gbar_constancy():
    res = _record(2, verification.check_gbar_constancy(n_points=1000))
    assert res["passed"]
    assert max(res["worst"].values()) <= 1e-8


def test_criterion_03_delta_reproduction():
    res = _record(3, verification.check_delta_reproduction())
    assert res["passed"]
    for e in res["entries"]:
        assert e["relative_error"] <= e["tol"], e


def test_criterion_03_literal_12_instance():
    """The (n, s) = (1, 2) instance as stated requires the group G_{0,2} on a
    2-dimensional module, which does not exist (tau J skew + J^2 = I on R^2
    forces J = +-[[0,1],[1,0]], so two anticommuting generators are
    impossible).  Criterion blocked; nearest valid instance runs above."""
    with pytest.raises(UnknownSignature):
        build_module(Signature(0, 2, 1))
    pytest.xfail("(n,s)=(1,2): no admissible (0,2) module on R^2; "
                 "substituted by the minimal admissible (0,2,2) instance")


def test_criterion_04_family_equivalence():
    res = _record(4, verification.check_family_equivalence())
    assert res["passed"]
    assert 0.0 < res["relative_spread"] <= 1e-3


def test_criterion_04_fails_when_mu_flips_sign(monkeypatch):
    """Check 4 fails when the pairing reads every selector's mu with the wrong sign."""
    from pseudoht.kernels import KernelSelector

    lam_mu = KernelSelector.lam_mu
    monkeypatch.setattr(KernelSelector, "lam_mu",
                        lambda self, om: (lam_mu(self, om)[0], -lam_mu(self, om)[1]))
    assert not verification.check_family_equivalence(quick=True)["passed"]


# check 5's full-mode entries beyond (2,2), on the isotropic Gaussian: the
# second form and K (relative 3.3e-4 and 6.9e-11), and the reproduced value
CHECK5_PINS = {
    "second form vs K at (3,1)": (0.42858507755037306j, 0.4287279789407935j),
    "second form vs K at (4,3)": (0.28517743159310366j, 0.2851774316128395j),
    "second form delta-reproduction (4,3)": (0.9999999988214713,),
}


def test_criterion_05_representation_crosscheck():
    t0 = time.perf_counter()
    res = _record(5, verification.check_representation_crosscheck())
    assert time.perf_counter() - t0 < 900.0
    assert res["passed"]
    # every cross-check compares values well above zero
    for e in res["entries"]:
        if "k" in e:
            assert math.hypot(*e["k"]) >= verification.VACUOUS_FLOOR, e
    pinned = {e["pair"]: e for e in res["entries"] if e["pair"] in CHECK5_PINS}
    assert pinned.keys() == CHECK5_PINS.keys()
    for pair, want in CHECK5_PINS.items():
        got = [complex(*pinned[pair][k]) for k in ("second", "k", "value") if k in pinned[pair]]
        for g, w in zip(got, want, strict=True):
            assert abs(g - w) <= 1e-12 * abs(w), (pair, g, w)


def test_crosscheck_vacuous_reference_fails():
    """Agreement between two values that are both rounding noise is no check."""
    res = verification._crosscheck(1.5e-18, -1.3e-18 - 1.0e-16j, 1e-2)
    assert res["vacuous"] and not res["passed"]
    res = verification._crosscheck(0.0317091, 0.0317090, 1e-2)
    assert res["passed"] and "vacuous" not in res


def test_criterion_06_support_cone():
    res = _record(6, verification.cone_checks())
    assert res["passed"]
    assert res["concentrated_ratio"] <= 1e-6
    assert res["offcone_relative_error"] <= 1e-3


def test_criterion_07_inv_p_and_continuation():
    res = _record(7, verification.check_inv_p_and_continuation())
    assert res["passed"]
    assert res["rel_eps"] <= 1e-3
    assert res["rel_continuation"] <= 1e-3
    assert res["rel_k_independence"] <= 1e-5
    # lambda = -1 + 0.1i, k = 2 against k = 3: the closed-form moments hold
    # at complex lambda, where the Laguerre quadrature never settled
    assert res["rel_k_independence_complex"] <= 1e-12


def _series_j(nu, v):
    return float(sum((-1) ** k * (mpmath.mpf(v) / 2) ** (nu + 2 * k)
                     / (mpmath.factorial(k) * mpmath.gamma(nu + k + 1))
                     for k in range(80)))


def _series_h(nu, v):
    return float(sum((-1) ** k * (mpmath.mpf(v) / 2) ** (2 * k + nu + 1)
                     / (mpmath.gamma(k + mpmath.mpf(3) / 2)
                        * mpmath.gamma(k + nu + mpmath.mpf(3) / 2))
                     for k in range(80)))


def test_criterion_08_special_functions():
    res = verification.check_special_functions()
    # series oracles at 40 digits on v in [0.1, 20] for nu in {0, 1/2, 1, 3/2}
    worst = 0.0
    for nu in (0.0, 0.5, 1.0, 1.5):
        for v in np.linspace(0.1, 20.0, 9):
            worst = max(worst, abs(bessel_j(nu, v) - _series_j(nu, v)))
            worst = max(worst, abs(struve_h(nu, v) - _series_h(nu, v)))
            worst = max(worst, abs(bessel_y(nu, v) - float(mpmath.bessely(nu, v))))
    res["worst_series_oracle"] = worst
    res["passed"] = bool(res["passed"] and worst <= 1e-10)
    _record(8, res)
    assert worst <= 1e-10
    assert res["worst_ode"] <= 1e-6
    assert res["passed"]


def test_criterion_09_nonexistence_witness():
    t0 = time.perf_counter()
    res = _record(9, verification.check_nonexistence_witness())
    assert time.perf_counter() - t0 < 120.0
    assert res["passed"]
    assert res["relative_residual"] <= 1e-8
    assert res["integral_psi"] > 0
    assert abs(res["phi_at_0"] - 1.0) <= 1e-10
    assert res["node_doubling_drop"] >= 100.0
    # the full mode's second signature, (1,2,2), gated like (1,1,2)
    (e122,) = res["entries"]
    assert e122["passed"]
    assert e122["relative_residual"] <= 1e-8
    assert abs(e122["phi_at_0"] - 1.0) <= 1e-10
    assert abs(e122["integral_psi"] - 7.930726308504409) <= 1e-12 * 7.930726308504409


def test_criterion_10_counterexample_identity():
    res = _record(10, verification.check_counterexample_identity())
    assert res["passed"]
    assert res["relative_error"] <= 1e-3


def test_quick_battery_keeps_its_recorded_values():
    """`pseudoht report --quick` against `acceptance_quick.json`, each value
    at its declared scale (`acceptance_values`)."""
    recorded = json.loads(acceptance_values.RECORDED.read_text())
    assert acceptance_values.moved(recorded, acceptance_values.battery_checks()) == []


def test_full_battery_keeps_its_recorded_values():
    """`pseudoht report` (full mode) against `acceptance_full.json`, under the
    same rule."""
    recorded = json.loads(acceptance_values.RECORDED_FULL.read_text())
    assert acceptance_values.moved(recorded, acceptance_values.battery_checks(quick=False)) == []


def test_recorded_values_rule():
    """A complex value moves by at most 1e-12 of its modulus, a real one by
    1e-12 of itself, a rounding-level one by a thousandth of its gate; a
    verdict or the tree's shape must not change at all."""
    old = {"c": {"tol": 1e-3, "passed": True, "value": [1.0, 1e-14], "psi": 2.0,
                 "relative_error": 4e-15, "entries": [{"tol": 1e-2, "relative_error": 1e-11}]}}

    def with_(**change):
        new = json.loads(json.dumps(old))
        new["c"].update(change)
        return acceptance_values.moved(old, new)

    assert acceptance_values.moved(old, json.loads(json.dumps(old))) == []
    assert with_(value=[1.0, 5e-13]) == []               # the imaginary part is rounding
    assert len(with_(value=[1.0 + 2e-12, 1e-14])) == 1
    assert with_(psi=2.0 + 1e-12) == [] and len(with_(psi=2.0 + 1e-11)) == 1
    assert with_(relative_error=9e-7) == [] and len(with_(relative_error=2e-6)) == 1
    assert with_(entries=[{"tol": 1e-2, "relative_error": 9e-6}]) == []
    assert len(with_(entries=[{"tol": 1e-2, "relative_error": 2e-5}])) == 1
    assert len(with_(passed=False)) == 1 and len(with_(entries=[])) == 1
    assert len(with_(extra=1.0)) == 1


def test_zz_summary():
    """Summary table once the individual criteria have run."""
    if not _REPORT:
        pytest.skip("criteria did not run")
    print("\n" + "=" * 64)
    print("ACCEPTANCE SUMMARY")
    for num in sorted(_REPORT):
        res = _REPORT[num]
        status = "PASS" if res["passed"] else "FAIL"
        print(f"  criterion {num:2d} {res['name']:<28s} {status}")
    print("=" * 64)
