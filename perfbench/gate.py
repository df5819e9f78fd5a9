"""Correctness gate applied to every job of every pass.

A job fails when it raised, when one of its paper identities misses its
stated tolerance, when an identity's reference value is below the absolute
floor (the identity would then compare rounding noise, so it is vacuous),
when its values drift from the stored references at the default seed, or
when a later pass does not repeat the first pass's values.
"""
from __future__ import annotations

FLOOR = 1e-6         # |reference| below this makes an identity vacuous
DRIFT_TOL = 1e-12    # relative drift allowed against stored and first-pass values


def _drift(values, reference) -> str | None:
    if reference is None:
        return None
    if len(values) != len(reference):
        return f"{len(values)} values against {len(reference)} stored"
    for k, (got, want) in enumerate(zip(values, reference)):
        got, want = complex(*got), complex(*want)
        if not abs(got - want) <= DRIFT_TOL * abs(want):
            return f"value {k} is {got} against {want}"
    return None


def judge(result: dict, stored=None, first=None) -> tuple:
    """(reasons the job failed, largest residual/tol) for one job result.

    `stored` holds the reference values at the default seed, `first` the
    values of the same job in the run's first pass; either may be None.
    """
    if result["error"] is not None:
        return [f"raised {result['error']}"], 0.0
    reasons = []
    tol_used = max((residual / tol for residual, tol, _ in result["identities"]), default=0.0)
    for residual, tol, reference in result["identities"]:
        if not reference >= FLOOR:
            reasons.append(f"vacuous: reference {reference:.3g} below floor {FLOOR:g}")
        if not residual <= tol:
            reasons.append(f"identity residual {residual:.3g} above tolerance {tol:g}")
    for label, ref in (("drift from stored reference", stored),
                       ("differs from first pass", first)):
        problem = _drift(result["values"], ref)
        if problem:
            reasons.append(f"{label}: {problem}")
    return reasons, tol_used
