"""Per-layer tracing for the traced benchmark run, built from outside ``src/``.

Each layer is one module of ``rankdesign``.  The tracer replaces the names a
caller looks up (a module attribute, a class attribute, or an entry of a
dispatch table) with a wrapper that times the call as a span of its layer.
A name is wrapped in the module that calls it: welfare calls
``rankdesign.welfare.integrate_piecewise``, so the wrapper goes on that name.
Self time is a span's duration minus the time of the spans it encloses.

Spans are aggregated as they close into self time per layer and call counts;
the functions layer alone closes millions of spans per pass, too many to keep.
The untraced run installs nothing.
"""

from __future__ import annotations

import importlib
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

from rankdesign.errors import QuadratureError

LAYERS = ("functions", "policy", "equilibrium", "quadrature", "welfare", "design",
          "groups", "multidim", "oracle", "cli")

# (owner, attribute, layer, call counter or None).  An owner is a module, or
# "module:Class" for a method, which covers every caller of that method.
SPANS = [
    *[(f"rankdesign.functions:{cls}", attr, "functions", f"functions.{attr}_calls")
      for cls in ("Power", "AffinePower", "PiecewiseMonotone") for attr in ("evaluate", "invert")],
    ("rankdesign.functions:PopulationSpec", "cost_inverse", "functions", None),
    ("rankdesign.equilibrium", "validate", "policy", "policy.validate_calls"),
    ("rankdesign.cli", "validate", "policy", "policy.validate_calls"),
    ("rankdesign.design", "validate", "policy", "policy.validate_calls"),
    # welfare, cli and TwoLevelPolicy import two_level at call time from policy
    ("rankdesign.policy", "two_level", "policy", None),
    ("rankdesign.design", "two_level", "policy", None),
    ("rankdesign.cli", "policy_from_json", "policy", None),
    # welfare and cli import solve at call time from equilibrium
    ("rankdesign.equilibrium", "solve", "equilibrium", "equilibrium.solve_calls"),
    ("rankdesign.design", "solve", "equilibrium", "equilibrium.solve_calls"),
    ("rankdesign.cli", "solve", "equilibrium", "equilibrium.solve_calls"),
    ("rankdesign.welfare", "_band_effort", "equilibrium", None),
    ("rankdesign.welfare", "_band_score", "equilibrium", None),
    ("rankdesign.oracle", "effort_at", "equilibrium", None),
    ("rankdesign.welfare", "integrate_piecewise", "quadrature", None),
    ("rankdesign.multidim", "integrate_piecewise", "quadrature", None),
    ("rankdesign.quadrature", "adaptive_simpson", "quadrature", None),
    ("rankdesign.multidim", "adaptive_simpson", "quadrature", None),
    *[("rankdesign.welfare", name, "welfare", "welfare.calls")
      for name in ("two_level_sweep", "welfare_report", "band_effort_cost",
                   "applicant_welfare", "societal_utility", "private_utility")],
    ("rankdesign.design", "private_utility", "welfare", "welfare.calls"),
    ("rankdesign.cli", "welfare_report", "welfare", "welfare.calls"),
    ("rankdesign.design", "optimize_two_level", "design", "design.optimize_two_level_calls"),
    ("rankdesign.design", "find_three_level_improvement", "design", None),
    ("rankdesign.design", "three_level_policy", "design", None),
    ("rankdesign.groups", "f_mix", "groups", "groups.f_mix_calls"),
    ("rankdesign.groups", "f_mix_inverse", "groups", "groups.cdf_calls"),
    *[("rankdesign.groups", name, "groups", None)
      for name in ("audit_sweep", "group_thresholds", "welfare_gap", "access")],
    *[("rankdesign.multidim", name, "multidim", "multidim.calls")
      for name in ("check_multidim_rank_preservation", "beta_for_interior_optimum",
                   "weighted_private_utility", "measurable_conditional_mean",
                   "unmeasurable_conditional_mean", "pre_index")],
    ("rankdesign.oracle:DiscreteInstance", "stratified", "oracle", None),
    ("rankdesign.oracle:DiscreteInstance", "from_schedule", "oracle", None),
    ("rankdesign.oracle", "certify_equilibrium", "oracle", None),
    ("rankdesign.oracle", "best_response_dynamics", "oracle", None),
    ("rankdesign.multidim", "best_response_dynamics", "oracle", None),
    ("rankdesign.cli", "main", "cli", None),
]


def _resolve(owner: str):
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Tracer:
    """Self time per layer and call counts, accumulated while installed."""

    def __init__(self):
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self._children: list[float] = []   # enclosed time of each open span
        self._saved: list = []

    def reset(self) -> None:
        self.self_s.clear()
        self.counts.clear()

    def _span(self, fn, layer: str, counter: str | None):
        children, self_s, counts = self._children, self.self_s, self.counts

        def wrapper(*args, **kwargs):
            if counter:
                counts[counter] += 1
            children.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                self_s[layer] += elapsed - children.pop()
                if children:
                    children[-1] += elapsed

        return wrapper

    def _hooks(self) -> dict:
        """Wrappers that count more than calls, keyed by the attribute they replace."""
        counts = self.counts

        def simpson(orig):
            def counted(f, a, b, *args, **kwargs):
                counts["quadrature.pieces"] += 1

                def integrand(x):
                    counts["quadrature.integrand_evals"] += 1
                    return f(x)

                try:
                    return orig(integrand, a, b, *args, **kwargs)
                except QuadratureError:
                    counts["quadrature.failures"] += 1
                    raise
            return counted

        def solve(orig):
            def counted(*args, **kwargs):
                if counts["design.optimize_two_level_open"]:
                    counts["design.objective_solves"] += 1
                return orig(*args, **kwargs)
            return counted

        def optimize(orig):
            def counted(*args, **kwargs):
                counts["design.optimize_two_level_open"] += 1
                try:
                    return orig(*args, **kwargs)
                finally:
                    counts["design.optimize_two_level_open"] -= 1
            return counted

        def dynamics(orig):
            def counted(instance, *args, **kwargs):
                result = orig(instance, *args, **kwargs)
                counts["oracle.sweeps"] += result.rounds
                counts["oracle.best_responses"] += result.rounds * instance.n
                return result
            return counted

        def certify(orig):
            def counted(instance, *args, **kwargs):
                counts["oracle.certify_cells"] += instance.n * len(instance.effort_grid())
                return orig(instance, *args, **kwargs)
            return counted

        return {"adaptive_simpson": simpson, "solve": solve, "optimize_two_level": optimize,
                "best_response_dynamics": dynamics, "certify_equilibrium": certify}

    def _replace(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        hooks = self._hooks()
        for owner_name, attr, layer, counter in SPANS:
            owner = _resolve(owner_name)
            raw = owner.__dict__[attr]
            fn = raw.__func__ if isinstance(raw, staticmethod) else raw
            if attr in hooks:
                fn = hooks[attr](fn)
            wrapped = self._span(fn, layer, counter)
            self._replace(owner, attr, staticmethod(wrapped) if isinstance(raw, staticmethod) else wrapped)
        # optimize_two_level dispatches through a table built at import time
        design = _resolve("rankdesign.design")
        table = design._EVALUATORS
        for objective, fn in list(table.items()):
            self._saved.append((table, objective, fn))
            table[objective] = self._span(fn, "welfare", "welfare.calls")
        # one standing-score update per best-response move
        standing = _resolve("rankdesign.oracle:_StandingScores")
        update = standing.__dict__["update"]
        counts = self.counts

        def counted_update(self_, *args, **kwargs):
            counts["oracle.moves"] += 1
            return update(self_, *args, **kwargs)

        self._replace(standing, "update", counted_update)

    def uninstall(self) -> None:
        while self._saved:
            owner, key, value = self._saved.pop()
            if isinstance(owner, dict):
                owner[key] = value
            else:
                setattr(owner, key, value)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics of what ran since the last reset."""
        c, s = self.counts, self.self_s
        out = {f"{layer}.self_s": s[layer] for layer in LAYERS}
        for name in ("functions.evaluate_calls", "functions.invert_calls", "policy.validate_calls",
                     "equilibrium.solve_calls", "quadrature.pieces", "quadrature.integrand_evals",
                     "quadrature.failures", "welfare.calls", "groups.f_mix_calls", "groups.cdf_calls",
                     "multidim.calls", "oracle.sweeps", "oracle.moves", "oracle.certify_cells"):
            out[name] = c[name]
        optimizations = c["design.optimize_two_level_calls"]
        out["design.objective_evals"] = c["design.objective_solves"] / optimizations if optimizations else 0.0
        responses = c["oracle.best_responses"]
        out["oracle.move_ratio"] = c["oracle.moves"] / responses if responses else 0.0
        return out
