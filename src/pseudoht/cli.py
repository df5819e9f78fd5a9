"""Batch command-line interface.

Subcommands: catalog, validate, kernel (eval | cone), specfun (table), pair,
verify-fs, verify-cone, verify-nonexistence, report.  Every command writes
machine-readable JSON (and CSV for the tabulation commands) with all node
budgets and tolerances echoed.  Reruns byte-reproduce the artifacts (JSON floats
in Python's shortest round-trip repr, CSV floats with 17 significant digits)
apart from the wall times that report and verify-cone keep under "telemetry".

Exit codes: 0 success / all checks passed, 1 usage error (bad arguments or
input, an unreadable file), 2 numerical check failed its tolerance, 3 internal
fault (any other exception; its message goes to stderr).
"""
from __future__ import annotations

import argparse
import csv
import json
import sys

import numpy as np

from .errors import PseudoHTError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CHECK_FAILED = 2
EXIT_INTERNAL = 3


def _json_default(x):
    """Complex values as {"im", "re"}, numpy scalars as Python ones."""
    if isinstance(x, complex):
        return {"re": x.real, "im": x.imag}
    if isinstance(x, np.generic):
        return x.item()
    raise TypeError(f"{type(x).__name__} is not JSON serializable")


def write_json(obj, path):
    text = json.dumps(obj, indent=1, sort_keys=True, default=_json_default)
    if path in (None, "-"):
        print(text)
    else:
        with open(path, "w") as fh:
            fh.write(text + "\n")


def _parse_sig(text):
    from .clifford import Signature

    parts = [int(p) for p in text.split(",")]
    if len(parts) == 2:
        from .clifford import CATALOG_SIGNATURES

        match = [s for s in CATALOG_SIGNATURES if (s.r, s.s) == tuple(parts)]
        if not match:
            raise SystemExit(f"no catalog entry with (r, s) = {tuple(parts)}")
        return match[0]
    if len(parts) == 3:
        return Signature(*parts)
    raise SystemExit("signature must be 'r,s' or 'r,s,n'")


def _at_least_one(text):
    if not text.isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return int(text)


# ---------------------------------------------------------------- commands

def cmd_catalog(args) -> int:
    from .clifford import CATALOG_SIGNATURES, build_module, validate_module

    rows = []
    for sig in CATALOG_SIGNATURES:
        rep = validate_module(build_module(sig))
        rows.append({
            "r": sig.r, "s": sig.s, "n": sig.n,
            "passed": rep.passed,
            "max_residual": rep.max_residual(),
            "residuals": rep.residuals,
        })
    write_json({"catalog": rows}, args.output)
    return EXIT_OK if all(r["passed"] for r in rows) else EXIT_CHECK_FAILED


def cmd_validate(args) -> int:
    from .clifford import build_module, validate_module

    sig = _parse_sig(args.sig)
    rep = validate_module(build_module(sig), tol=args.tol)
    write_json({"sig": [sig.r, sig.s, sig.n], "passed": rep.passed,
                "tol": args.tol, "residuals": rep.residuals}, args.output)
    return EXIT_OK if rep.passed else EXIT_CHECK_FAILED


def cmd_kernel(args) -> int:
    from .kernels import KernelSelector, kernel_q_lm, smooth_kernel_offcone
    from .quadrature import tensor_rule

    if args.mode == "eval":
        sel = KernelSelector.heaviside() if args.selector == "heaviside" \
            else KernelSelector.constant(complex(args.lam))
        rng = np.random.default_rng(args.seed)
        rows = []
        for _ in range(args.count):
            xi = rng.normal(size=2 * args.n)
            th = rng.normal(size=args.s)
            while np.linalg.norm(th) < 1e-3:
                th = rng.normal(size=args.s)
            q = kernel_q_lm(args.n, args.s, xi, th, sel)
            rows.append(list(xi) + list(th) + [q.real, q.imag])
        header = [f"xi{i+1}" for i in range(2 * args.n)] \
            + [f"theta{k+1}" for k in range(args.s)] + ["re_q", "im_q"]
        _write_csv(args.output, header, rows)
        return EXIT_OK
    # cone sampling: K(x, z) on a grid of the smooth region |P| > 4 |z|
    rows = []
    grid = tensor_rule([np.linspace(args.xmin, args.xmax, args.grid),
                        np.linspace(-args.zmax, args.zmax, args.grid)])
    for x1, z1 in grid:
        if x1 * x1 <= 4 * abs(z1) + 1e-9:
            continue
        x, z = np.zeros(2 * args.n), np.zeros(args.s)
        x[0], z[0] = x1, z1
        K = smooth_kernel_offcone(args.n, args.s, x, z)
        rows.append([x1, z1, K.real, K.imag])
    _write_csv(args.output, ["x1", "z1", "re_K", "im_K"], rows)
    return EXIT_OK


def _write_csv(path, header, rows):
    fh = sys.stdout if path in (None, "-") else open(path, "w", newline="")
    try:
        wr = csv.writer(fh)
        wr.writerow(header)
        for row in rows:
            wr.writerow([f"{v:.17g}" if isinstance(v, float) else v for v in row])
    finally:
        if fh is not sys.stdout:
            fh.close()


def cmd_specfun(args) -> int:
    from .specfun import specfun_table

    v = np.linspace(args.vmin, args.vmax, args.count)
    rows = specfun_table(args.nu, v)
    _write_csv(args.output, ["v", "J", "Y", "H"], rows)
    return EXIT_OK


def cmd_pair(args) -> int:
    from .gausspoly import GaussPoly
    from .kernels import KernelSelector
    from .pairing import PairBudget, pair_k

    with open(args.testfn) as fh:
        phi = GaussPoly.from_json_dict(json.load(fh))
    if phi.dim != 2 * args.n + args.s:
        print(f"test function dim {phi.dim} != 2n+s = {2*args.n+args.s}", file=sys.stderr)
        return EXIT_USAGE
    sel = KernelSelector.heaviside() if args.selector == "heaviside" \
        else KernelSelector.constant(complex(args.lam))
    res = pair_k(args.n, args.s, phi, sel, PairBudget())
    write_json({"value": res.value, "est_error": res.est_error,
                "budget": res.node_budget}, args.output)
    return EXIT_OK


def cmd_verify_fs(args) -> int:
    """Delta-reproduction pair_K(Delta phi) = phi(0) for the requested (n, s)."""
    from .clifford import Signature
    from .gausspoly import GaussPoly
    from .kernels import KernelSelector
    from .verification import delta_reproduction

    sig = Signature(0, args.s, args.n)
    sel = KernelSelector.heaviside() if args.s == 1 else KernelSelector.constant(1.0)
    res, rel = delta_reproduction(sig, GaussPoly.iso_gaussian(sig.total_dim), sel,
                                  with_error=True)
    ok = rel <= args.tol
    write_json({"n": args.n, "s": args.s, "value": res.value,
                "phi_at_0": 1.0, "relative_error": rel, "tol": args.tol,
                "est_error": res.est_error, "budget": res.node_budget,
                "passed": ok}, args.output)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_verify_cone(args) -> int:
    """Support/cone checks: vanishing region of the iterated-integral form and
    the off-cone smooth-kernel pairing against the Fourier-side value; the
    wall time goes under "telemetry"."""
    from .verification import cone_checks, timed

    out, runtime = timed(cone_checks)
    write_json({**out, "telemetry": {"runtime_s": runtime}}, args.output)
    return EXIT_OK if out["passed"] else EXIT_CHECK_FAILED


def cmd_verify_nonexistence(args) -> int:
    from .verification import witness_numbers

    sig = _parse_sig(args.sig)
    eta0 = [float(x) for x in args.eta0.split(",")]
    _, cert, rep, _ = witness_numbers(sig, eta0, args.delta, flow_nodes=args.flow_nodes)
    ok = cert["relative_residual"] <= args.tol
    write_json({"sig": [sig.r, sig.s, sig.n], "eta0": eta0,
                "delta": args.delta, "tol": args.tol,
                "residual": cert["residual_sup"],
                "relative_residual": cert["relative_residual"],
                "integral": cert["integral_psi"],
                "phi_at_0": rep["phi_at_0"],
                "delta_phi_sup": rep["delta_phi_sup"],
                "flow_nodes": cert["flow_nodes"], "passed": ok}, args.output)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_report(args) -> int:
    """Run the full acceptance battery and write one JSON report."""
    from .verification import full_report

    out = full_report(quick=args.quick)
    write_json(out, args.output)
    return EXIT_OK if out["all_passed"] else EXIT_CHECK_FAILED


class _Parser(argparse.ArgumentParser):
    """Usage errors exit EXIT_USAGE, not argparse's 2 (EXIT_CHECK_FAILED), subparsers too."""

    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.format_usage()}{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="pseudoht",
                 description="pseudo H-type groups and ultra-hyperbolic fundamental solutions")
    ap.add_argument("--output", "-o", default="-", help="output path (default stdout)")
    sub = ap.add_subparsers(dest="command", required=True)

    sub.add_parser("catalog", help="list shipped signatures with validation residuals")

    p = sub.add_parser("validate", help="re-validate one catalog module")
    p.add_argument("--sig", required=True, help="r,s or r,s,n")
    p.add_argument("--tol", type=float, default=1e-12)

    p = sub.add_parser("kernel", help="tabulate kernels")
    p.add_argument("mode", choices=["eval", "cone"])
    p.add_argument("--n", type=_at_least_one, default=2)
    p.add_argument("--s", type=_at_least_one, default=1)
    p.add_argument("--selector", default="constant", choices=["constant", "heaviside"])
    p.add_argument("--lam", default="1")
    p.add_argument("--count", type=int, default=32)
    p.add_argument("--seed", type=int, default=2024)
    p.add_argument("--grid", type=int, default=21)
    p.add_argument("--xmin", type=float, default=1.0)
    p.add_argument("--xmax", type=float, default=3.0)
    p.add_argument("--zmax", type=float, default=0.45)

    p = sub.add_parser("specfun", help="CSV table of J, Y, H")
    p.add_argument("mode", choices=["table"])
    p.add_argument("--nu", type=float, default=0.5)
    p.add_argument("--vmin", type=float, default=0.1)
    p.add_argument("--vmax", type=float, default=20.0)
    p.add_argument("--count", type=int, default=100)

    p = sub.add_parser("pair", help="pair a JSON test function against the kernel family")
    p.add_argument("--testfn", required=True, help="JSON file with the test function")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--selector", default="constant", choices=["constant", "heaviside"])
    p.add_argument("--lam", default="1")

    p = sub.add_parser("verify-fs", help="delta-reproduction check")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--tol", type=float, default=1e-3)

    sub.add_parser("verify-cone", help="support-cone checks")

    p = sub.add_parser("verify-nonexistence", help="kernel witness for r > 0")
    p.add_argument("--sig", default="1,1")
    p.add_argument("--eta0", default="2,1")
    p.add_argument("--delta", type=float, default=0.5)
    p.add_argument("--flow-nodes", type=int, default=64)
    p.add_argument("--tol", type=float, default=1e-8)

    p = sub.add_parser("report", help="full acceptance battery")
    p.add_argument("--quick", action="store_true", help="reduced budgets")

    return ap


_DISPATCH = {
    "catalog": cmd_catalog,
    "validate": cmd_validate,
    "kernel": cmd_kernel,
    "specfun": cmd_specfun,
    "pair": cmd_pair,
    "verify-fs": cmd_verify_fs,
    "verify-cone": cmd_verify_cone,
    "verify-nonexistence": cmd_verify_nonexistence,
    "report": cmd_report,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _DISPATCH[args.command](args)
    except BrokenPipeError:
        return EXIT_OK
    except (PseudoHTError, ValueError, OSError) as exc:  # bad input
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # a fault in the program, not in the input
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
