"""Per-layer tracing of pseudoht from outside the library.

`Tracer` keeps spans on a stack and counters in memory. A span's time is
added to its key only at the outermost level of that key, so recursion is
not counted twice; its self time is its duration minus the time its child
spans cover. Spans of the calculus layer (keys starting with "gausspoly.")
fold into an enclosing calculus span: an algebra call made inside `fourier`
is Fourier time, so the calculus keys never overlap.

`install` wraps pseudoht's public functions and methods in place, patching
every module binding that holds the original function object (a function
imported by name lives in several module namespaces), and `uninstall`
restores them. Object constructions are counted, not spanned.
"""
from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

FOLDED_PREFIX = "gausspoly."


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.counts = defaultdict(int)
        self.inclusive = defaultdict(float)
        self.self_time = defaultdict(float)
        self._stack = []          # [key, start, child time]
        self._depth = defaultdict(int)
        self._patched = []        # (owner, attribute, original)

    # -- spans ---------------------------------------------------------------
    def folds(self, key: str) -> bool:
        """True when a span of `key` opened now would fold into the open one."""
        return (bool(self._stack) and key.startswith(FOLDED_PREFIX)
                and self._stack[-1][0].startswith(FOLDED_PREFIX))

    def enter(self, key: str) -> None:
        self._depth[key] += 1
        self._stack.append([key, self.clock(), 0.0])

    def exit(self) -> None:
        key, start, child = self._stack.pop()
        dur = self.clock() - start
        self._depth[key] -= 1
        if self._depth[key] == 0:
            self.inclusive[key] += dur
        self.self_time[key] += dur - child
        if self._stack:
            self._stack[-1][2] += dur

    def depth(self, key: str) -> int:
        return self._depth[key]

    def span(self, key: str, fn, count=None):
        """fn wrapped in a span of `key`; count(args, kwargs, result) adds counts."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.folds(key):
                out = fn(*args, **kwargs)
            else:
                self.enter(key)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    self.exit()
            if count is not None:
                count(args, kwargs, out)
            return out
        return wrapper

    def counter(self, name: str, fn):
        """fn wrapped to count its calls in counts[name], without a span."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- patching ------------------------------------------------------------
    def patch_function(self, module, name: str, wrap) -> None:
        """Replace module.name by wrap(original) in every pseudoht module holding it."""
        original = getattr(module, name)
        wrapped = wrap(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] != "pseudoht" or mod is None:
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patched.append((mod, attr, original))
                    setattr(mod, attr, wrapped)

    def patch_method(self, cls, name: str, wrap) -> None:
        original = cls.__dict__[name]
        self._patched.append((cls, name, original))
        setattr(cls, name, wrap(original))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


# -------------------------------------------------------------------- layers

GAUSSPOLY_METHODS = {
    "gausspoly.restrict": ("restrict",),
    "gausspoly.fourier": ("fourier", "inverse_fourier", "partial_fourier"),
    "gausspoly.algebra": ("scaled", "plus", "differentiate", "multiply_monomial",
                          "multiply_linear", "precompose_affine", "laplacian",
                          "laplacian_power"),
    "gausspoly.integral": ("integral", "integrate_against"),
    "gausspoly.evaluate": ("evaluate", "evaluate_many"),
}
MIXTURE_METHODS = {
    "gausspoly.fourier": ("fourier", "inverse_fourier"),
    "gausspoly.algebra": ("map_terms", "scaled", "__add__", "differentiate",
                          "precompose_affine"),
    "gausspoly.integral": ("integral", "integrate_against"),
    "gausspoly.evaluate": ("evaluate", "evaluate_many"),
}
RULES = ("legendre_rule", "hermite_rule", "jacobi_rule", "genlaguerre_rule",
         "half_disc_rule")
PAIRINGS = ("pair_k", "pair_mr_heisenberg", "pair_second_form", "pseudo_pair_n2")
KERNELS = ("gbar_residual", "smooth_kernel_offcone", "p_i0_power", "inv_p_power")
BESSEL = ("bessel_j", "bessel_y", "struve_h", "jh_combo")


def install(tracer: Tracer) -> list:
    """Wrap pseudoht's layers; returns the (unwrapped) cached rule functions."""
    from pseudoht import gausspoly, group, kernels, pairing, quadrature, specfun, witness

    t = tracer
    rules = [getattr(quadrature, name) for name in RULES]
    GaussPoly, GaussMixture = gausspoly.GaussPoly, gausspoly.GaussMixture

    def count_key(name, amount=lambda a, k, out: 1):
        def count(args, kwargs, out):
            t.counts[name] += amount(args, kwargs, out)
        return count

    t.patch_method(GaussPoly, "__post_init__",
                   lambda f: t.counter("gausspoly.constructions", f))
    for key, names in GAUSSPOLY_METHODS.items():
        for name in names:
            count = None
            if name == "restrict":
                count = count_key("gausspoly.restrict.calls")
            elif name == "evaluate_many":
                count = count_key("gausspoly.evaluate.points",
                                  lambda a, k, out: len(a[1] if len(a) > 1 else k["U"]))
            t.patch_method(GaussPoly, name, lambda f, key=key, c=count: t.span(key, f, c))
    for key, names in MIXTURE_METHODS.items():
        for name in names:
            t.patch_method(GaussMixture, name, lambda f, key=key: t.span(key, f))

    def count_osc(args, kwargs, out):
        t.counts["osc.calls"] += 1
        t.counts["osc.freqs"] += out.size

    t.patch_function(gausspoly, "batched_osc_integral", lambda f: t.span("osc", f, count_osc))
    for name in PAIRINGS:
        t.patch_function(pairing, name, lambda f, name=name: t.span(f"pairing.{name}", f))
    for name in RULES:
        t.patch_function(quadrature, name, lambda f: t.span("quadrature.rules", f))
    t.patch_function(quadrature, "refine_until", lambda f: _refine_wrapper(t, f))
    t.patch_function(specfun, "osc_weight_integral", lambda f: t.span(
        "specfun.osc_weight_integral", f, count_key("specfun.osc_weight_integral.calls")))
    for name in BESSEL:
        t.patch_function(specfun, name, lambda f: t.span("specfun.bessel", f))
    for name in KERNELS:
        t.patch_function(kernels, name, lambda f, name=name: t.span(f"kernels.{name}", f))

    # A mixture request is a mixture_at call or a d_eta_average call made
    # outside mixture_at; every d_eta_average call builds one, so the reuse
    # ratio is 1 - builds / requests.
    def count_mixture(args, kwargs, out):
        t.counts["witness.d_eta_average.calls"] += 1
        t.counts["witness.mixture_terms"] += len(out.terms)
        if t.depth("witness.mixture_at") == 0:
            t.counts["witness.mixture_requests"] += 1

    t.patch_function(witness, "d_eta_average",
                     lambda f: t.span("witness.d_eta_average", f, count_mixture))
    t.patch_method(witness.WitnessFunction, "mixture_at",
                   lambda f: t.span("witness.mixture_at", f,
                                    count_key("witness.mixture_requests")))
    for name in ("a_eta_apply", "b_eta_apply"):
        t.patch_function(witness, name, lambda f: t.span("witness.ab_apply", f))
    t.patch_function(witness, "certify_kernel_residual", lambda f: t.span("witness.certify", f))
    t.patch_function(witness, "nonsolvability_report", lambda f: t.span("witness.report", f))
    t.patch_method(group.GroupStructure, "apply_delta_rs",
                   lambda f: t.span("group.apply_delta_rs", f))
    return rules


def _refine_wrapper(t: Tracer, refine_until):
    @functools.wraps(refine_until)
    def wrapper(evaluate, *args, **kwargs):
        def counted(order):
            t.counts["quadrature.refine.evals"] += 1
            return evaluate(order)

        value, err, order = refine_until(counted, *args, **kwargs)
        t.counts["quadrature.refine.calls"] += 1
        if not err < float("inf"):
            t.counts["quadrature.refine.nonconverged"] += 1
        return value, err, order
    return wrapper


def rule_cache_counts(rules) -> tuple:
    """(hits, misses) summed over the lru caches of the quadrature rules."""
    hits = misses = 0
    for rule in rules:
        info = rule.cache_info()
        hits += info.hits
        misses += info.misses
    return hits, misses


def metrics(tracer: Tracer, rules_before: tuple, rules_after: tuple) -> dict:
    """The per-layer metrics of one traced pass (times in s, counts as counts)."""
    c, inc = tracer.counts, tracer.inclusive
    hits = rules_after[0] - rules_before[0]
    misses = rules_after[1] - rules_before[1]
    requests = c["witness.mixture_requests"]
    out = {
        "gausspoly.constructions": c["gausspoly.constructions"],
        "gausspoly.restrict.calls": c["gausspoly.restrict.calls"],
        "gausspoly.restrict.s": inc["gausspoly.restrict"],
        "gausspoly.fourier.s": inc["gausspoly.fourier"],
        "gausspoly.algebra.s": inc["gausspoly.algebra"],
        "gausspoly.integral.s": inc["gausspoly.integral"],
        "gausspoly.evaluate.points": c["gausspoly.evaluate.points"],
        "gausspoly.evaluate.s": inc["gausspoly.evaluate"],
        "osc.calls": c["osc.calls"],
        "osc.freqs": c["osc.freqs"],
        "osc.freqs_per_call": c["osc.freqs"] / c["osc.calls"] if c["osc.calls"] else 0.0,
        "osc.s": inc["osc"],
        "pairing.self_s": sum(v for k, v in tracer.self_time.items()
                              if k.startswith("pairing.")),
        "quadrature.rule_builds": misses,
        "quadrature.rule_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "quadrature.rules.s": inc["quadrature.rules"],
        "quadrature.refine.calls": c["quadrature.refine.calls"],
        "quadrature.refine.evals": c["quadrature.refine.evals"],
        "quadrature.refine.nonconverged": c["quadrature.refine.nonconverged"],
        "specfun.osc_weight_integral.calls": c["specfun.osc_weight_integral.calls"],
        "specfun.osc_weight_integral.s": inc["specfun.osc_weight_integral"],
        "specfun.bessel.s": inc["specfun.bessel"],
        "witness.d_eta_average.calls": c["witness.d_eta_average.calls"],
        "witness.mixture_terms": c["witness.mixture_terms"],
        "witness.mixture_reuse_ratio":
            1.0 - c["witness.d_eta_average.calls"] / requests if requests else 0.0,
        "witness.d_eta_average.s": inc["witness.d_eta_average"],
        "witness.ab_apply.s": inc["witness.ab_apply"],
        "witness.certify.s": inc["witness.certify"],
        "witness.report.s": inc["witness.report"],
        "group.apply_delta_rs.s": inc["group.apply_delta_rs"],
    }
    for name in PAIRINGS:
        out[f"pairing.{name}.s"] = inc[f"pairing.{name}"]
    for name in KERNELS:
        out[f"kernels.{name}.s"] = inc[f"kernels.{name}"]
    return out


COUNT_METRICS = ("gausspoly.constructions", "gausspoly.restrict.calls",
                 "gausspoly.evaluate.points", "osc.calls", "osc.freqs",
                 "osc.freqs_per_call", "quadrature.rule_builds",
                 "quadrature.rule_hit_ratio", "quadrature.refine.calls",
                 "quadrature.refine.evals", "quadrature.refine.nonconverged",
                 "specfun.osc_weight_integral.calls", "witness.d_eta_average.calls",
                 "witness.mixture_terms", "witness.mixture_reuse_ratio")
