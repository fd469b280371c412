"""Build and run one benchmark item.

``prepare`` builds what the program is handed (untimed); ``run`` is the
timed call.  Sweep items go through the CLI's public path in-process:
``validate_config`` on the one-point config, ``run_scenario``, then
``emit_plot_data`` into the item's own directory, whose files the checks
read back.  Module functions are looked up at call time, so a traced run
sees the wrappers installed on those modules.
"""

from __future__ import annotations

import numpy as np

from bwrobust import (bregman, cli, distortions, distributions,
                      guaranteed_var, tvar, var_bounds)
from bwrobust.scenario import MarketScenario

from inputs import audit_generator

TVAR_GRID = 4001


def prepare(item):
    d = item.data
    if item.kind in ("maxmin", "guaranteed"):
        return {"raw": d["config"]}
    if item.kind == "a":
        return {"pairs": [(audit_generator(p["generator"], 4.0),
                           distributions.make_tabulated(p["f1"]),
                           distributions.make_tabulated(p["f2"]))
                          for p in d["pairs"]]}
    texp = distributions.make_truncated_exponential(1.0, 100.0)
    if item.kind == "b":
        name, *args = d["generator"]
        if name == "xlogx":
            gen = bregman.make_xlogx_generator(args[0], 100.0)
        else:
            gen = bregman.make_piecewise_quadratic_generator(args[0], args[1], 100.0)
        return {"gen": gen, "texp": texp}
    xlogx = bregman.make_xlogx_generator(1.0, 100.0)
    if item.kind == "c":
        sc = MarketScenario(theta=0.5, alpha=d["alpha"], epsilon=d["epsilon"],
                            benchmark=texp, insurer_survival=texp,
                            generator=xlogx,
                            distortion=distortions.tvar_distortion(d["alpha"]))
        return {"scenario": sc, "texp": texp}
    if item.kind == "d":
        return {"curve": distributions.make_tabulated(d["knots"]),
                "gen": xlogx, "texp": texp}
    raise ValueError(f"unknown item kind {item.kind!r}")


def run(item, prep, out_dir):
    """The timed part of one item; returns what the checks need."""
    d = item.data
    if item.kind in ("maxmin", "guaranteed"):
        config = cli.validate_config(prep["raw"])
        report, curves = cli.run_scenario(config)
        cli.emit_plot_data(report, curves, out_dir, fmt="csv")
        return {"dir": str(out_dir)}
    if item.kind == "a":
        return {"pairs": [
            {"quantile": bregman.bw_divergence_quantile(gen, f1, f2),
             "survival": bregman.bw_divergence_survival(gen, f1, f2),
             "self": bregman.bw_divergence_quantile(gen, f1, f1)}
            for gen, f1, f2 in prep["pairs"]]}
    if item.kind == "b":
        gen, texp = prep["gen"], prep["texp"]
        alpha, eps = d["alpha"], d["epsilon"]
        near = var_bounds.witness_near_worst(gen, texp, alpha, eps, d["delta"])
        best = var_bounds.witness_best(gen, texp, alpha, eps)
        return {"near_var": float(near.quantile(alpha)),
                "near_div": bregman.bw_divergence_quantile(gen, near, texp),
                "best_var": float(best.quantile(alpha)),
                "best_div": bregman.bw_divergence_quantile(gen, best, texp)}
    if item.kind == "c":
        sc, texp = prep["scenario"], prep["texp"]
        vu = d["v_upper"]
        gaps, uncapped = [], []
        for lam in d["lambdas"]:
            part = guaranteed_var.region_partition(sc, lam, vu)
            xs = np.unique(np.concatenate([
                np.linspace(0.0, sc.support_max, TVAR_GRID),
                [vu, part.x1, part.x2]]))
            capped = (1.0 + lam) * (1.0 + sc.theta) >= 1.0 / (1.0 - sc.alpha)
            for beta in d["betas"]:
                a = np.asarray(guaranteed_var.g_star(xs, beta, lam, sc, vu, part))
                b = np.asarray(tvar.tvar_g_star_value(xs, beta, lam, sc, vu))
                gaps.append(float(np.max(np.abs(a - b))))
                if not capped:
                    uncapped.append(bool(np.allclose(a, texp.survival(xs),
                                                     atol=1e-12)))
        return {"max_gap": max(gaps), "uncapped_is_benchmark": all(uncapped)}
    if item.kind == "d":
        return {"divergence": bregman.bw_divergence_quantile(
            prep["gen"], prep["curve"], prep["texp"], tol=1e-9)}
    raise ValueError(f"unknown item kind {item.kind!r}")
