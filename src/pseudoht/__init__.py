"""Pseudo H-type groups and fundamental solutions of their ultra-hyperbolic operators.

The package builds the groups G_{r,s} from validated Clifford-module data,
provides an exact polynomial-times-Gaussian test-function calculus, evaluates
the explicit Fourier-side kernel family (Bessel/Struve closed forms included),
pairs the resulting distributions in three independent representations, and
certifies the constructive non-existence of tempered fundamental solutions
for r > 0.
"""
from .clifford import (
    CATALOG_SIGNATURES,
    AdmissibleModule,
    Signature,
    build_module,
    p_form,
    validate_module,
)
from .gausspoly import GaussMixture, GaussPoly
from .group import GroupPoint, GroupStructure, heisenberg
from .kernels import (
    KernelSelector,
    gbar_residual,
    inv_p_power,
    kappa,
    kernel_q,
    kernel_q_lm,
    p_i0_power,
    smooth_kernel_offcone,
    volume_element,
)
from .pairing import (
    PairBudget,
    PairingResult,
    pair_k,
    pair_mr_heisenberg,
    pair_second_form,
    pseudo_pair_n2,
)
from .witness import (
    WitnessConfig,
    WitnessFunction,
    a_eta_apply,
    b_eta_apply,
    build_witness,
    certify_kernel_residual,
    d_eta_average,
    nonsolvability_report,
)

__version__ = "0.1.0"

__all__ = [
    "AdmissibleModule",
    "CATALOG_SIGNATURES",
    "GaussMixture",
    "GaussPoly",
    "GroupPoint",
    "GroupStructure",
    "KernelSelector",
    "PairBudget",
    "PairingResult",
    "Signature",
    "WitnessConfig",
    "WitnessFunction",
    "a_eta_apply",
    "b_eta_apply",
    "build_module",
    "build_witness",
    "certify_kernel_residual",
    "d_eta_average",
    "gbar_residual",
    "heisenberg",
    "inv_p_power",
    "kappa",
    "kernel_q",
    "kernel_q_lm",
    "nonsolvability_report",
    "p_form",
    "p_i0_power",
    "pair_k",
    "pair_mr_heisenberg",
    "pair_second_form",
    "pseudo_pair_n2",
    "smooth_kernel_offcone",
    "validate_module",
    "volume_element",
]
