"""The benchmark's tracer (perfbench/tracing.py) still wraps every library name.

`tracing.install` patches methods and functions by name, so a rename in the
library would break the benchmark; this test makes it break Tier-1 first.
"""
import importlib.util
from pathlib import Path

import numpy as np

from pseudoht import gausspoly, kernels, pairing, witness
from pseudoht.clifford import Signature
from pseudoht.gausspoly import GaussPoly
from pseudoht.group import GroupStructure
from pseudoht.kernels import KernelSelector
from pseudoht.pairing import PairBudget

_SPEC = importlib.util.spec_from_file_location(
    "perfbench_tracing", Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py")
tracing = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tracing)

ETA0 = np.array([2.0, 1.0])


def _wrapped():
    """(class, name) of every method the tracer wraps by name."""
    names = [(gausspoly.GaussPoly, "__post_init__")]
    names += [(gausspoly.GaussPoly, n) for ns in tracing.GAUSSPOLY_METHODS.values() for n in ns]
    names += [(gausspoly.GaussMixture, n) for ns in tracing.MIXTURE_METHODS.values() for n in ns]
    return names + [(witness.WitnessFunction, "mixture_at")]


def test_tracer_wraps_a_witness_pass_and_restores_the_library():
    originals = {(cls, name): vars(cls)[name] for cls, name in _wrapped()}
    functions = {name: getattr(witness, name) for name in (
        "d_eta_average", "a_eta_apply", "b_eta_apply", "certify_kernel_residual",
        "nonsolvability_report")}
    G = GroupStructure.from_signature(Signature(1, 1, 2))
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        cfg = witness.WitnessConfig(G.sig, ETA0, 0.5, flow_nodes=8, eta_grid=2, xi_grid=3)
        w = witness.build_witness(G, cfg)
        assert witness.certify_kernel_residual(w)["integral_psi"] > 0
        assert witness.nonsolvability_report(w)["normalization_c"] > 0
        phi = witness.phi_eta(G, ETA0)
        built = tracer.counts["gausspoly.constructions"]
        mix = witness.d_eta_average(G, phi, ETA0, 16)   # phi is even: 8 images
        assert len(mix.terms) == 8
        assert tracer.counts["gausspoly.constructions"] == built
        assert len((mix + mix.map_terms(lambda t: t.scaled(2.0))).terms) == 16
        # certification applies A_eta + B_eta as one operator and calls neither
        # a_eta_apply nor b_eta_apply: call one so witness.ab_apply is exercised
        assert len(witness.a_eta_apply(G, mix, ETA0).terms) == 8
    finally:
        tracer.uninstall()
    assert tracer.counts["witness.d_eta_average.calls"] >= 2
    assert tracer.counts["witness.mixture_terms"] >= 16
    for key in ("witness.certify", "witness.report", "witness.ab_apply", "gausspoly.evaluate",
                "gausspoly.algebra", "gausspoly.integral", "gausspoly.fourier"):
        assert tracer.inclusive[key] > 0, key
    assert all(vars(cls)[name] is f for (cls, name), f in originals.items())
    assert all(getattr(witness, name) is f for name, f in functions.items())


def _pairing_pass():
    """pair_k (heaviside selector), pair_mr_heisenberg and pseudo_pair_n2 at
    (0,1,2) on one off-centre test function, at a small budget."""
    G = GroupStructure.from_signature(Signature(0, 1, 2))
    phi = GaussPoly.gaussian(np.diag([1.0, 1.2, 0.9, 1.1, 1.3]), shift=[0.1, 0.0, -0.2, 0.0, 0.3])
    budget = PairBudget(radial_geo_panels=4, radial_lin_panels=4, radial_order=6, sphere_pts=8,
                        rho_nodes=32, t_panels=4, t_order=6, theta_hermite=16)
    return [pairing.pair_k(2, 1, phi, KernelSelector.heaviside(), budget, with_error=False).value,
            pairing.pair_mr_heisenberg(G, phi, budget, with_error=False).value,
            *pairing.pseudo_pair_n2(G, phi, budget)]


def test_tracer_wraps_a_pairing_pass_and_restores_the_library():
    """The pairing loops run the wrapped mixture methods on node families
    (`scaled` in pair_mr_heisenberg, `inverse_fourier` in inv_p_power); the
    traced values are bit-identical to the untraced ones."""
    originals = {(cls, name): vars(cls)[name] for cls, name in _wrapped()}
    functions = {(mod, name): getattr(mod, name) for mod, name in (
        (pairing, "pair_k"), (pairing, "pair_mr_heisenberg"), (pairing, "pseudo_pair_n2"),
        (pairing, "batched_osc_integral"), (kernels, "batched_osc_integral"),
        (kernels, "inv_p_power"), (gausspoly, "batched_osc_integral"))}
    want = _pairing_pass()
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        got = _pairing_pass()
    finally:
        tracer.uninstall()
    assert got == want
    assert tracer.counts["osc.calls"] > 0 and tracer.counts["gausspoly.restrict.calls"] > 0
    for key in ("pairing.pair_k", "pairing.pair_mr_heisenberg", "pairing.pseudo_pair_n2",
                "kernels.inv_p_power", "osc", "gausspoly.restrict", "gausspoly.algebra",
                "gausspoly.fourier"):
        assert tracer.inclusive[key] > 0, key
    assert all(vars(cls)[name] is f for (cls, name), f in originals.items())
    assert all(getattr(mod, name) is f for (mod, name), f in functions.items())
