"""The acceptance battery's recorded values, and the rule a new run must
keep against them.

`acceptance_quick.json` holds the `checks` block of `pseudoht report --quick`,
`acceptance_full.json` that of the full `pseudoht report`.  Every value
carries a declared scale:

- a real value may move by 1e-12 of |old|, and a complex value (an [re, im]
  pair under one of COMPLEX_KEYS) by 1e-12 of its old modulus;
- a rounding-level value (a residual, relative error, spread or ratio that
  its check gates; ROUNDING_GATES) is noise at that scale, so it is compared
  with its gate instead: it may move by ROUNDING_SHARE of the tolerance its
  check applies to it.  A move that small leaves the verdict three orders
  away, and a residual growing toward its gate still shows.

Booleans, strings, integers and the shape of the tree must match exactly.

    PYTHONPATH=src python tests/acceptance_values.py            # print what moved
    PYTHONPATH=src python tests/acceptance_values.py --record   # rewrite the file
    PYTHONPATH=src python tests/acceptance_values.py --full     # the full battery

Re-recording a file changes a check.
"""
import json
import math
import sys
from pathlib import Path

RECORDED = Path(__file__).resolve().parent / "acceptance_quick.json"
RECORDED_FULL = RECORDED.with_name("acceptance_full.json")

REL = 1e-12
ROUNDING_SHARE = 1e-3
COMPLEX_KEYS = {"value", "values", "k", "mr", "second", "lhs", "rhs", "offcone_direct",
                "offcone_pair_k", "closed_form", "direct", "eps_oracle"}
# rounding-level key -> the key of its tolerance in the same (or the nearest
# enclosing) check dict, or the number the check compares it with
ROUNDING_GATES = {
    "max_algebra_residual": "tol", "max_eigenvalue_residual": "eig_tol",
    "worst": "tol", "relative_error": "tol", "relative_spread": "tol",
    "concentrated_ratio": "tol", "offcone_relative_error": "offcone_tol",
    "rel_eps": "tol", "rel_continuation": "tol", "rel_k_independence": "k_tol",
    "rel_k_independence_complex": "k_complex_tol", "odd_value": 1e-10,
    "worst_closed_form": "tol", "worst_ode": "ode_tol",
    "relative_residual": "tol", "residual_sup": "tol", "delta_phi_sup": "tol",
    "node_doubling_drop": 100.0,
}


def _gate(key, scopes):
    gate = ROUNDING_GATES[key]
    if not isinstance(gate, str):
        return gate
    return next(s[gate] for s in reversed(scopes) if gate in s)


def _is_pair(x) -> bool:
    return isinstance(x, list) and len(x) == 2 and all(isinstance(v, float) for v in x)


def moved(old, new) -> list:
    """One message per value of new that left its declared scale around old,
    and per difference of shape or of an exact entry."""
    out = []

    def walk(o, n, path, key, scopes):
        where = "/".join(path)
        if isinstance(o, dict):
            if not isinstance(n, dict) or set(o) != set(n):
                out.append(f"{where}: keys differ")
                return
            for k in sorted(o):
                walk(o[k], n[k], path + [k], k if k in ROUNDING_GATES or k in COMPLEX_KEYS
                     else key, scopes + [o])
        elif key in COMPLEX_KEYS and _is_pair(o):
            if not _is_pair(n):
                out.append(f"{where}: {n!r} is not an [re, im] pair")
            elif abs(complex(*n) - complex(*o)) > REL * abs(complex(*o)):
                out.append(f"{where}: {complex(*o)!r} -> {complex(*n)!r} "
                           f"(scale 1e-12 of the modulus)")
        elif isinstance(o, list):
            if not isinstance(n, list) or len(o) != len(n):
                out.append(f"{where}: lengths differ")
                return
            for i, (a, b) in enumerate(zip(o, n)):
                walk(a, b, path + [str(i)], key, scopes)
        elif isinstance(o, float):
            if not isinstance(n, (int, float)) or isinstance(n, bool):
                out.append(f"{where}: {n!r} is not a number")
            elif key in ROUNDING_GATES:
                allowed = ROUNDING_SHARE * _gate(key, scopes)
                if not abs(n - o) <= allowed:
                    out.append(f"{where}: {o!r} -> {n!r} (rounding-level, allowed {allowed:.1e})")
            elif not (abs(n - o) <= REL * abs(o) or (math.isinf(o) and n == o)):
                out.append(f"{where}: {o!r} -> {n!r} (scale 1e-12 of |old|)")
        elif o != n or type(o) is not type(n):
            out.append(f"{where}: {o!r} -> {n!r}")

    walk(old, new, [], None, [])
    return out


def battery_checks(quick: bool = True) -> dict:
    """The checks block of `pseudoht report` (`--quick` by default), as the
    CLI writes it."""
    from pseudoht.cli import _json_default
    from pseudoht.verification import full_report

    return json.loads(json.dumps(full_report(quick=quick)["checks"], default=_json_default))


if __name__ == "__main__":
    args = sys.argv[1:]
    if not set(args) <= {"--full", "--record"}:
        sys.exit(f"usage: {sys.argv[0]} [--full] [--record]")
    full = "--full" in args
    path = RECORDED_FULL if full else RECORDED
    checks = battery_checks(quick=not full)
    if "--record" in args:
        path.write_text(json.dumps(checks, indent=1, sort_keys=True) + "\n")
    else:
        messages = moved(json.loads(path.read_text()), checks)
        print("\n".join(messages) if messages else "no value moved")
        sys.exit(1 if messages else 0)
