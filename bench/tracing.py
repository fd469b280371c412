"""Outside-in tracing of the bwrobust layers for the traced benchmark run.

Nothing here edits the package: each wrapped function is replaced, for the
duration of one timed item, at the module attribute its caller looks up
(``var_bounds.adaptive_quad`` rather than only ``numerics.adaptive_quad``,
because ``var_bounds`` imported the name).  Three kinds of wrapper exist:

* spans, kept in memory with their parent and written out at the end; a
  span's self time is its duration minus the time covered by its children;
* timed leaves (``g_hat``), hot enough that they are summed instead of
  recorded one by one, but whose time still counts as a child of the
  enclosing span;
* counters, for leaves called hundreds of thousands of times
  (``pointwise_divergence``, ``LossDistribution.quantile``) and for the
  evaluations of the callables handed to the root and search kernels.
"""

from __future__ import annotations

import functools
import json
import os
from collections import defaultdict
from time import perf_counter

import numpy as np

from bwrobust import (alpha_maxmin, bregman, cli, distributions,
                      guaranteed_var, indemnity, numerics, tvar, var_bounds)
from bwrobust.errors import NumericsError


class Tracer:
    def __init__(self):
        self.spans = []           # (id, parent, name, start, end, self)
        self.counts = defaultdict(float)
        self._stack = []          # open frames: [id, name, start, child]
        self._depth = defaultdict(int)
        self._next_id = 0
        self._patches = []
        self.untraced = []        # times of the untraced twin of each item

    # -- spans ---------------------------------------------------------------
    def push(self, name):
        self._next_id += 1
        frame = [self._next_id, name, perf_counter(), 0.0,
                 self._depth[name] == 0]
        self._depth[name] += 1
        self._stack.append(frame)
        return frame

    def pop(self, frame):
        end = perf_counter()
        self._stack.pop()
        span_id, name, start, child, outermost = frame
        self._depth[name] -= 1
        dur = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += dur
        self.spans.append((span_id, parent[0] if parent else None, name,
                           start, end, dur - child))
        self.counts[f"{name}.calls"] += 1
        if outermost:
            self.counts[f"{name}.busy_s"] += dur
        self.counts[f"{name}.self_s"] += dur - child
        return dur

    def add_leaf_time(self, name, dur):
        self.counts[f"{name}.self_s"] += dur
        if self._stack:
            self._stack[-1][3] += dur

    # -- installation --------------------------------------------------------
    def patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self):
        for owner, attr, factory in _WRAPPERS:
            self.patch(owner, attr, factory(self, getattr(owner, attr)))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, name, start, end, self_s in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent,
                                     "name": name, "start": start, "end": end,
                                     "self_s": self_s}) + "\n")


# ---------------------------------------------------------------------------
# wrapper factories: (tracer, original) -> replacement
# ---------------------------------------------------------------------------

def span(name, on_result=None):
    def factory(tr, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = tr.push(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tr.pop(frame)
            if on_result is not None:
                on_result(tr, out)
            return out
        return wrapper
    return factory


def counted_callable(tr, key, f, points=False):
    """Wrap the callable handed to a kernel so its evaluations are counted."""
    @functools.wraps(f)
    def g(x, *args, **kwargs):
        tr.counts[key] += np.size(x) if points else 1
        return f(x, *args, **kwargs)
    return g


def quad_span(tr, fn):
    @functools.wraps(fn)
    def wrapper(f, *args, **kwargs):
        frame = tr.push("numerics.adaptive_quad")
        try:
            return fn(counted_callable(
                tr, "numerics.adaptive_quad.integrand_evals", f), *args, **kwargs)
        except NumericsError:
            tr.counts["numerics.adaptive_quad.errors"] += 1
            raise
        finally:
            tr.pop(frame)
    return wrapper


def classify_span(default_caller):
    def factory(tr, fn):
        @functools.wraps(fn)
        def wrapper(f, *args, **kwargs):
            qual = getattr(f, "__qualname__", "")
            if "region_partition" in qual:
                caller = "region_partition"
            elif "_net_price_regions" in qual:
                caller = "net_price"
            else:
                caller = default_caller
            tr.counts["numerics.classify_sign_regions.calls"] += 1
            frame = tr.push(f"numerics.classify_sign_regions.{caller}")
            try:
                return fn(counted_callable(
                    tr, "numerics.classify_sign_regions.f_points", f,
                    points=True), *args, **kwargs)
            finally:
                tr.pop(frame)
        return wrapper
    return factory


def evals_counter(key_of, calls=False):
    """Count evaluations of a root/search kernel's callable, keyed by caller."""
    def factory(tr, fn):
        @functools.wraps(fn)
        def wrapper(f, *args, **kwargs):
            key = key_of(f)
            if calls:
                tr.counts[f"{key}.calls"] += 1
            return fn(counted_callable(tr, f"{key}.evals", f), *args, **kwargs)
        return wrapper
    return factory


def _root_key(f):
    # the outer root over the cap multiplier is the nested ``resid`` of
    # solve_problem2; every other illinois_root call is an inner beta root
    qual = getattr(f, "__qualname__", "")
    if qual.startswith("solve_problem2"):
        return "guaranteed_var.lambda_root"
    return "guaranteed_var.beta_root"


def timed_leaf(name):
    def factory(tr, fn):
        @functools.wraps(fn)
        def wrapper(x, *args, **kwargs):
            t0 = perf_counter()
            out = fn(x, *args, **kwargs)
            tr.add_leaf_time(name, perf_counter() - t0)
            tr.counts[f"{name}.calls"] += 1
            tr.counts[f"{name}.points"] += np.size(x)
            return out
        return wrapper
    return factory


def counter(name, points_arg=None):
    def factory(tr, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tr.counts[f"{name}.calls"] += 1
            if points_arg is not None:
                tr.counts[f"{name}.points"] += np.size(args[points_arg])
            return fn(*args, **kwargs)
        return wrapper
    return factory


def _emitted_bytes(tr, paths):
    tr.counts["cli.emit_plot_data.bytes"] += sum(os.path.getsize(p) for p in paths)


_wcv = span("var_bounds.worst_case_var")
_pwd = counter("bregman.pointwise_divergence")
_premium = span("indemnity.expected_value_premium")

# (owner, attribute, factory): every name a caller looks up
_WRAPPERS = (
    (cli, "validate_config", span("cli.validate_config")),
    (cli, "build_scenario", span("cli.build_scenario")),
    (cli, "run_scenario", span("cli.run_scenario")),
    (cli, "emit_plot_data", span("cli.emit_plot_data", _emitted_bytes)),
    (alpha_maxmin, "solve_maxmin", span("alpha_maxmin.solve_maxmin")),
    (alpha_maxmin, "compute_var_bounds", span("var_bounds.compute_var_bounds")),
    (alpha_maxmin, "classify_sign_regions", classify_span("alpha_maxmin")),
    (alpha_maxmin, "expected_value_premium", _premium),
    (guaranteed_var, "solve_problem2", span("guaranteed_var.solve_problem2")),
    (guaranteed_var, "worst_case_var", _wcv),
    (guaranteed_var, "adaptive_quad", quad_span),
    (guaranteed_var, "region_partition", span("guaranteed_var.region_partition")),
    (guaranteed_var, "classify_sign_regions", classify_span("other")),
    (guaranteed_var, "g_star", span("guaranteed_var.g_star")),
    (guaranteed_var, "g_hat", timed_leaf("guaranteed_var.g_hat")),
    (guaranteed_var, "modified_survival", span("guaranteed_var.modified_survival")),
    (guaranteed_var, "illinois_root", evals_counter(_root_key, calls=True)),
    (guaranteed_var, "golden_max",
     evals_counter(lambda f: "guaranteed_var.flat_level")),
    (guaranteed_var, "expected_value_premium", _premium),
    (indemnity, "expected_value_premium", _premium),
    (var_bounds, "worst_case_var", _wcv),
    (var_bounds, "best_case_var", span("var_bounds.best_case_var")),
    (var_bounds, "witness_near_worst", span("var_bounds.witness_near_worst")),
    (var_bounds, "witness_best", span("var_bounds.witness_best")),
    (var_bounds, "adaptive_quad", quad_span),
    (var_bounds, "bisect_predicate",
     evals_counter(lambda f: "var_bounds.bisect_predicate")),
    (var_bounds, "pointwise_divergence", _pwd),
    (bregman, "adaptive_quad", quad_span),
    (bregman, "pointwise_divergence", _pwd),
    (bregman, "bw_divergence_quantile", span("bregman.bw_divergence_quantile")),
    (bregman, "bw_divergence_survival", span("bregman.bw_divergence_survival")),
    (distributions, "adaptive_quad", quad_span),
    (distributions.LossDistribution, "quantile",
     counter("distributions.quantile", points_arg=1)),
    (numerics, "adaptive_quad", quad_span),
    (tvar, "tvar_g_star_value", span("tvar.tvar_g_star_value")),
)


# per-layer metrics of the traced run: (name, unit, counter key or function
# of the counts); every value is reported per timed item
def _sum(*keys):
    return lambda c: sum(c.get(k, 0.0) for k in keys)


LAYER_METRICS = (
    ("var_bounds.worst_case_var.calls", "count", "var_bounds.worst_case_var.calls"),
    ("var_bounds.worst_case_var.busy_s", "s", "var_bounds.worst_case_var.busy_s"),
    ("var_bounds.best_case_var.busy_s", "s", "var_bounds.best_case_var.busy_s"),
    ("var_bounds.bisect_predicate.evals", "count", "var_bounds.bisect_predicate.evals"),
    ("var_bounds.witness.busy_s", "s", _sum("var_bounds.witness_near_worst.busy_s",
                                            "var_bounds.witness_best.busy_s")),
    ("numerics.adaptive_quad.calls", "count", "numerics.adaptive_quad.calls"),
    ("numerics.adaptive_quad.integrand_evals", "count",
     "numerics.adaptive_quad.integrand_evals"),
    ("numerics.adaptive_quad.busy_s", "s", "numerics.adaptive_quad.busy_s"),
    ("numerics.adaptive_quad.errors", "count", "numerics.adaptive_quad.errors"),
    ("numerics.classify_sign_regions.calls", "count",
     "numerics.classify_sign_regions.calls"),
    ("numerics.classify_sign_regions.f_points", "count",
     "numerics.classify_sign_regions.f_points"),
    ("numerics.classify_sign_regions.alpha_maxmin.busy_s", "s",
     "numerics.classify_sign_regions.alpha_maxmin.busy_s"),
    ("numerics.classify_sign_regions.region_partition.busy_s", "s",
     "numerics.classify_sign_regions.region_partition.busy_s"),
    ("numerics.classify_sign_regions.net_price.busy_s", "s",
     "numerics.classify_sign_regions.net_price.busy_s"),
    ("guaranteed_var.g_hat.calls", "count", "guaranteed_var.g_hat.calls"),
    ("guaranteed_var.g_hat.points", "count", "guaranteed_var.g_hat.points"),
    ("guaranteed_var.g_hat.self_s", "s", "guaranteed_var.g_hat.self_s"),
    ("guaranteed_var.g_star.self_s", "s", "guaranteed_var.g_star.self_s"),
    ("guaranteed_var.region_partition.calls", "count",
     "guaranteed_var.region_partition.calls"),
    ("guaranteed_var.region_partition.busy_s", "s",
     "guaranteed_var.region_partition.busy_s"),
    ("guaranteed_var.beta_root.calls", "count", "guaranteed_var.beta_root.calls"),
    ("guaranteed_var.beta_root.evals", "count", "guaranteed_var.beta_root.evals"),
    ("guaranteed_var.lambda_root.evals", "count", "guaranteed_var.lambda_root.evals"),
    ("guaranteed_var.flat_level.evals", "count", "guaranteed_var.flat_level.evals"),
    ("guaranteed_var.modified_survival.busy_s", "s",
     "guaranteed_var.modified_survival.busy_s"),
    ("guaranteed_var.solve_problem2.self_s", "s",
     "guaranteed_var.solve_problem2.self_s"),
    ("alpha_maxmin.solve_maxmin.self_s", "s", "alpha_maxmin.solve_maxmin.self_s"),
    ("bregman.bw_divergence_quantile.busy_s", "s",
     "bregman.bw_divergence_quantile.busy_s"),
    ("bregman.bw_divergence_survival.busy_s", "s",
     "bregman.bw_divergence_survival.busy_s"),
    ("bregman.pointwise_divergence.calls", "count", "bregman.pointwise_divergence.calls"),
    ("tvar.tvar_g_star_value.busy_s", "s", "tvar.tvar_g_star_value.busy_s"),
    ("indemnity.expected_value_premium.calls", "count",
     "indemnity.expected_value_premium.calls"),
    ("indemnity.expected_value_premium.busy_s", "s",
     "indemnity.expected_value_premium.busy_s"),
    ("distributions.quantile.calls", "count", "distributions.quantile.calls"),
    ("distributions.quantile.points", "count", "distributions.quantile.points"),
    ("cli.validate_config.busy_s", "s", "cli.validate_config.busy_s"),
    ("cli.build_scenario.busy_s", "s", "cli.build_scenario.busy_s"),
    ("cli.emit_plot_data.busy_s", "s", "cli.emit_plot_data.busy_s"),
    ("cli.emit_plot_data.bytes", "B", "cli.emit_plot_data.bytes"),
)


def layer_values(counts, n_items):
    """Per-item values of every layer metric."""
    out = {}
    for name, unit, source in LAYER_METRICS:
        total = source(counts) if callable(source) else counts.get(source, 0.0)
        out[name] = (total / n_items, f"{unit}/item")
    return out


def self_time_table(counts):
    """``{span or leaf name: total self time}`` for every traced name."""
    return {key[: -len(".self_s")]: val for key, val in counts.items()
            if key.endswith(".self_s")}
