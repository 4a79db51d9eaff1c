"""Spans and counters for the traced benchmark run.

The tracer wraps public functions of the package from outside: it replaces
the module attributes that name them (every module-level alias inside the
package included), so no package code changes and spans sit at the layer
boundaries the CLI crosses.  Spans are kept in memory as
``[name, start, end, parent, request]`` and written out when the run ends.

A layer's self time is its span's duration minus the durations of its
direct child spans (children of one span never overlap: the package is
single-threaded under ``sweep --jobs 1``).  Reported times are scaled by
each request's host factor (see ``run.py``); the dumped spans are raw.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict

import numpy as np

PACKAGE = "rtbp_resonance"

# Layer metrics the traced run prints, with their units.
PER_LAYER = {
    "cli.main.self_s": "s",
    "cli.output_bytes": "bytes",
    "import.rtbp_resonance.cli_s": "s",
    "import.scipy.optimize_s": "s",
    "import.scipy.integrate_s": "s",
    "import.mpmath_s": "s",
    "coefficient.compute_C.calls": "count",
    "coefficient.compute_C.self_s": "s",
    "coefficient.min_delta1.s": "s",
    "coefficient.nodes_final": "count",
    "coefficient.nodes_evaluated": "count",
    "coefficient.useful_node_ratio": "ratio",
    "coefficient.node_cap_hits": "count",
    "coefficient.node_cap_s": "s",
    "coefficient.collisions": "count",
    "perturbation.track_integrand.s": "s",
    "perturbation.track_integrand.points": "count",
    "perturbation.track_arrays.s": "s",
    "perturbation.track_arrays.points": "count",
    "kepler.true_anomaly.s": "s",
    "kepler.true_anomaly.points": "count",
    "series.leading_coefficient.calls": "count",
    "series.leading_coefficient.self_s": "s",
    "series.laplace_b.calls": "count",
    "series.laplace_b.s": "s",
    "series.beta_series.calls": "count",
    "series.dpoly_binomial.calls": "count",
    "series.order_max": "count",
    "verifier.refine_periodic_orbit.s": "s",
    "verifier.newton_integrations": "count",
    "verifier.monodromy.s": "s",
    "verifier.solve_ivp.calls": "count",
    "verifier.solve_ivp.s": "s",
    "verifier.rhs_evals": "count",
    "verifier.steps": "count",
    "verifier.rhs_evals_per_s": "1/s",
    "verifier.corrector_divergences": "count",
    "trace.overhead_share": "ratio",
}

# Counts that must repeat bit-for-bit between two runs of one seed.
EXACT_COUNTS = (
    "coefficient.nodes_evaluated",
    "verifier.rhs_evals",
    "verifier.steps",
    "series.beta_series.calls",
)

IMPORTS = ("rtbp_resonance.cli", "scipy.optimize", "scipy.integrate", "mpmath")


class Tracer:
    """Records spans and counters while installed; see module docstring."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.request = None
        self._stack = []
        self._patched = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, fn, name, span, post, watch):
        counts, spans, stack = self.counts, self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name + ".calls"] += 1
            if not span:
                return fn(*args, **kwargs)
            idx = len(spans)
            before = counts[watch] if watch else None
            parent = stack[-1] if stack else -1
            spans.append([name, time.perf_counter(), None, parent, self.request])
            stack.append(idx)
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as err:
                exc = err
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx][2] = end
                if post:
                    post(self, args, result, exc, end - spans[idx][1], before)

        return wrapper

    def install(self):
        """Replace every package-level alias of each traced function."""
        import importlib

        for module_name, attr, name, span, post, watch, scope in _TARGETS:
            original = getattr(importlib.import_module(f"{PACKAGE}.{module_name}"), attr)
            wrapper = self._wrap(original, name, span, post, watch)
            for mod_name, mod in list(sys.modules.items()):
                if not mod_name.startswith(PACKAGE) or (scope and mod_name != f"{PACKAGE}.{scope}"):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._patched.append((mod, key, original))

    def uninstall(self):
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()

    # -- reporting ---------------------------------------------------------

    def self_and_total(self, factors):
        """Per span name: (total inclusive seconds, total self seconds).

        Each span's duration is scaled by its request's host factor.
        """
        child = defaultdict(float)
        for _, start, end, parent, req in self.spans:
            if parent >= 0:
                child[parent] += (end - start) * factors[req]
        total, own = Counter(), Counter()
        for i, (name, start, end, _, req) in enumerate(self.spans):
            total[name] += (end - start) * factors[req]
            own[name] += (end - start) * factors[req] - child[i]
        return total, own

    def metrics(self, output_bytes, overhead_share, import_s, factors):
        """Per-layer metrics; ``factors`` maps request id to its host factor."""
        c = self.counts
        total, own = self.self_and_total(factors)
        solve_s = total["verifier.solve_ivp"]
        values = {
            "cli.main.self_s": own["cli.main"],
            "cli.output_bytes": output_bytes,
            "coefficient.compute_C.calls": c["coefficient.compute_C.calls"],
            "coefficient.compute_C.self_s": own["coefficient.compute_C"],
            "coefficient.min_delta1.s": total["coefficient.min_delta1"],
            "coefficient.nodes_final": c["coefficient.nodes_final"],
            "coefficient.nodes_evaluated": c["coefficient.nodes_evaluated"],
            "coefficient.useful_node_ratio": _ratio(
                c["coefficient.nodes_final"], c["coefficient.nodes_evaluated_converged"]
            ),
            "coefficient.node_cap_hits": c["coefficient.node_cap_hits"],
            "coefficient.node_cap_s": c["coefficient.node_cap_s"],
            "coefficient.collisions": c["coefficient.collisions"],
            "perturbation.track_integrand.s": total["perturbation.track_integrand"],
            "perturbation.track_integrand.points": c["perturbation.track_integrand.points"],
            "perturbation.track_arrays.s": total["perturbation.track_arrays"],
            "perturbation.track_arrays.points": c["perturbation.track_arrays.points"],
            "kepler.true_anomaly.s": total["kepler.true_anomaly"],
            "kepler.true_anomaly.points": c["kepler.true_anomaly.points"],
            "series.leading_coefficient.calls": c["series.leading_coefficient.calls"],
            "series.leading_coefficient.self_s": own["series.leading_coefficient"],
            "series.laplace_b.calls": c["series.laplace_b.calls"],
            "series.laplace_b.s": total["series.laplace_b"],
            "series.beta_series.calls": c["series.beta_series.calls"],
            "series.dpoly_binomial.calls": c["series.dpoly_binomial.calls"],
            "series.order_max": c["series.order_max"],
            "verifier.refine_periodic_orbit.s": total["verifier.refine_periodic_orbit"],
            "verifier.newton_integrations": c["verifier.newton_integrations"],
            "verifier.monodromy.s": total["verifier.monodromy"],
            "verifier.solve_ivp.calls": c["verifier.solve_ivp.calls"],
            "verifier.solve_ivp.s": solve_s,
            "verifier.rhs_evals": c["verifier.rhs_evals"],
            "verifier.steps": c["verifier.steps"],
            "verifier.rhs_evals_per_s": _ratio(c["verifier.rhs_evals"], solve_s),
            "verifier.corrector_divergences": c["verifier.corrector_divergences"],
            "trace.overhead_share": overhead_share,
        }
        values.update({f"import.{mod}_s": import_s[mod] for mod in IMPORTS})
        return values

    def dump(self, path, factors):
        with open(path, "w") as fh:
            json.dump(
                {"fields": ["name", "start", "end", "parent", "request"], "spans": self.spans,
                 "host_factors": factors, "counts": dict(self.counts)},
                fh,
            )


def _ratio(num, den):
    return num / den if den else 0.0


# -- per-target bookkeeping --------------------------------------------------


def _points(name, arg):
    def post(tr, args, result, exc, dur, before):
        tr.counts[f"{name}.points"] += int(np.size(args[arg]))

    return post


def _compute_C(tr, args, result, exc, dur, before):
    c = tr.counts
    evaluated = c["perturbation.track_integrand.points"] - before
    c["coefficient.nodes_evaluated"] += evaluated
    if result is not None:
        c["coefficient.nodes_final"] += result.nodes
        c["coefficient.nodes_evaluated_converged"] += evaluated
    elif type(exc).__name__ == "ConvergenceError":
        c["coefficient.node_cap_hits"] += 1
        c["coefficient.node_cap_s"] += dur
    elif type(exc).__name__ == "CollisionError":
        c["coefficient.collisions"] += 1


def _refine(tr, args, result, exc, dur, before):
    c = tr.counts
    c["verifier.newton_integrations"] += c["verifier.solve_ivp.calls"] - before
    if exc is not None:
        c["verifier.corrector_divergences"] += 1


def _solve_ivp(tr, args, result, exc, dur, before):
    if result is not None:
        tr.counts["verifier.rhs_evals"] += int(result.nfev)
        tr.counts["verifier.steps"] += int(result.t.size - 1)


def _leading(tr, args, result, exc, dur, before):
    if result is not None:
        tr.counts["series.order_max"] = max(tr.counts["series.order_max"], result.exponent)


# (module, attribute, span name, record a span?, post hook, counter the hook
#  needs as it was at entry, patch only inside this module)
_TARGETS = (
    ("cli", "main", "cli.main", True, None, None, None),
    ("coefficient", "compute_C", "coefficient.compute_C", True, _compute_C,
     "perturbation.track_integrand.points", None),
    ("coefficient", "min_delta1", "coefficient.min_delta1", True, None, None, None),
    ("perturbation", "track_integrand", "perturbation.track_integrand", True,
     _points("perturbation.track_integrand", 1), None, None),
    ("perturbation", "track_arrays", "perturbation.track_arrays", True,
     _points("perturbation.track_arrays", 1), None, None),
    # timed as called from the track only
    ("kepler", "true_anomaly", "kepler.true_anomaly", True, _points("kepler.true_anomaly", 0),
     None, "perturbation"),
    ("series", "leading_coefficient", "series.leading_coefficient", True, _leading, None, None),
    ("series", "laplace_b", "series.laplace_b", True, None, None, None),
    ("series", "beta_series", "series.beta_series", False, None, None, None),
    ("series", "dpoly_binomial", "series.dpoly_binomial", False, None, None, None),
    ("verifier", "refine_periodic_orbit", "verifier.refine_periodic_orbit", True, _refine,
     "verifier.solve_ivp.calls", None),
    ("verifier", "monodromy", "verifier.monodromy", True, None, None, None),
    ("verifier", "solve_ivp", "verifier.solve_ivp", True, _solve_ivp, None, "verifier"),
)
