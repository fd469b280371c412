"""Scenario configs, solver orchestration, and tabular output.

Configs are YAML (JSON works too, being a YAML subset).  A run solves one
scenario per sweep point and writes one CSV per curve panel plus a JSON
summary of every scalar; numbers are printed with 12 significant digits so
repeated runs are byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from . import alpha_maxmin, guaranteed_var
from .bregman import parse_generator, validate_generator
from .distortions import parse_distortion, validate_distortion
from .distributions import load_tabulated, make_tabulated, make_truncated_exponential
from .errors import BwRobustError, NumericsError, ValidationError
from .scenario import MarketScenario

_MODELS = ("alpha_maxmin", "guaranteed_var")
_SWEEPABLE = ("alpha", "theta", "kappa", "epsilon", "A", "generator.k")


@dataclass
class ScenarioConfig:
    model: str
    benchmark: dict
    insurer_survival: object  # dict or "same_as_benchmark"
    generator: str
    alpha: float
    theta: float
    epsilon: float
    kappa: float | None = None
    A: float | None = None
    distortion: str | None = None
    eta: float = 1.0
    sweep: list = field(default_factory=list)
    numerics: dict = field(default_factory=dict)
    output: dict = field(default_factory=dict)

    @property
    def grid(self):
        return int(self.numerics.get("grid", 10_000))

    @property
    def curve_samples(self):
        return int(self.numerics.get("curve_samples", 2000))


def validate_config(raw):
    """Turn a parsed config document into a checked ScenarioConfig.

    Collects every problem before raising, so the validation report is
    itemized rather than stopping at the first offence.
    """
    problems = []
    if not isinstance(raw, dict):
        raise ValidationError("config must be a mapping", ["config must be a mapping"])

    def need(key, typ=None):
        if key not in raw:
            problems.append(f"{key}: required field is missing")
            return None
        val = raw[key]
        if typ is not None and not isinstance(val, typ):
            problems.append(f"{key}: expected {typ}, got {type(val).__name__}")
            return None
        return val

    model = need("model", str)
    if model is not None and model not in _MODELS:
        problems.append(f"model: must be one of {_MODELS}, got {model!r}")

    def number(key, required=True):
        if key not in raw:
            if required:
                problems.append(f"{key}: required field is missing")
            return None
        try:
            return float(raw[key])
        except (TypeError, ValueError):
            problems.append(f"{key}: expected a number, got {raw[key]!r}")
            return None

    alpha = number("alpha")
    if alpha is not None and not (0.0 < alpha < 1.0):
        problems.append(f"alpha: must lie in (0, 1), got {alpha}")
    theta = number("theta")
    if theta is not None and not (theta > 0.0):
        problems.append(f"theta: must be positive, got {theta}")
    epsilon = number("epsilon")
    if epsilon is not None and not (epsilon > 0.0):
        problems.append(f"epsilon: must be positive, got {epsilon}")
    kappa = number("kappa", required=(model == "alpha_maxmin"))
    if kappa is not None and not (0.0 <= kappa <= 1.0):
        problems.append(f"kappa: must lie in [0, 1], got {kappa}")
    a_level = number("A", required=(model == "guaranteed_var"))
    eta = number("eta", required=False)
    if eta is not None and not (0.0 <= eta <= 1.0):
        problems.append(f"eta: must lie in [0, 1], got {eta}")

    benchmark = need("benchmark", dict)
    if benchmark is not None:
        kind = benchmark.get("kind")
        if kind not in ("truncated_exponential", "tabulated", "file"):
            problems.append(f"benchmark.kind: unknown kind {kind!r}")
    insurer = raw.get("insurer_survival", "same_as_benchmark")
    if insurer != "same_as_benchmark" and not isinstance(insurer, dict):
        problems.append("insurer_survival: expected a distribution mapping or "
                        "'same_as_benchmark'")

    generator = need("generator", str)

    sweep = raw.get("sweep", [])
    if not isinstance(sweep, list):
        problems.append("sweep: expected a list of {parameter, values} entries")
        sweep = []
    else:
        for i, entry in enumerate(sweep):
            if not isinstance(entry, dict) or "parameter" not in entry \
                    or "values" not in entry:
                problems.append(f"sweep[{i}]: needs 'parameter' and 'values'")
                continue
            if entry["parameter"] not in _SWEEPABLE:
                problems.append(f"sweep[{i}].parameter: {entry['parameter']!r} "
                                f"not one of {_SWEEPABLE}")
            if not isinstance(entry["values"], list):
                problems.append(f"sweep[{i}].values: expected a list")

    numerics = raw.get("numerics", {}) or {}
    if not isinstance(numerics, dict):
        problems.append("numerics: expected a mapping")
        numerics = {}
    output = raw.get("output", {}) or {}
    if not isinstance(output, dict):
        problems.append("output: expected a mapping")
        output = {}
    fmt = output.get("format", "csv")
    if fmt not in ("csv", "json"):
        problems.append(f"output.format: must be csv or json, got {fmt!r}")

    if problems:
        raise ValidationError(
            f"invalid configuration ({len(problems)} problems)", problems)

    return ScenarioConfig(
        model=model, benchmark=benchmark, insurer_survival=insurer,
        generator=generator, alpha=alpha, theta=theta, epsilon=epsilon,
        kappa=kappa, A=a_level, distortion=raw.get("distortion"),
        eta=eta if eta is not None else 1.0, sweep=sweep,
        numerics=numerics, output=output)


def load_config(path):
    with open(path, "r", encoding="utf-8") as fh:
        return validate_config(yaml.safe_load(fh))


def _build_distribution(spec, base_dir=None):
    kind = spec["kind"]
    if kind == "truncated_exponential":
        return make_truncated_exponential(float(spec["mean"]),
                                          float(spec["support_max"]))
    if kind == "tabulated":
        return make_tabulated([tuple(k) for k in spec["knots"]])
    if kind == "file":
        path = Path(spec["path"])
        if base_dir is not None and not path.is_absolute():
            path = Path(base_dir) / path
        return load_tabulated(path)
    raise ValidationError(f"unknown distribution kind {kind!r}")


def build_scenario(config, overrides=None, base_dir=None):
    """Instantiate the market scenario for one sweep point."""
    ov = dict(overrides or {})
    alpha = float(ov.get("alpha", config.alpha))
    theta = float(ov.get("theta", config.theta))
    kappa = ov.get("kappa", config.kappa)
    epsilon = float(ov.get("epsilon", config.epsilon))
    a_level = ov.get("A", config.A)

    benchmark = _build_distribution(config.benchmark, base_dir)
    if config.insurer_survival == "same_as_benchmark":
        insurer = benchmark
    else:
        insurer = _build_distribution(config.insurer_survival, base_dir)

    gen_spec = config.generator
    if "generator.k" in ov:
        gen_spec = _override_generator_k(gen_spec, float(ov["generator.k"]))
    q_alpha = float(benchmark.quantile(alpha))
    gen = parse_generator(gen_spec, benchmark.support_max, q_alpha=q_alpha)
    validate_generator(gen)

    distortion = None
    if config.model == "guaranteed_var" or config.distortion:
        distortion = parse_distortion(config.distortion or "tvar",
                                      default_alpha=alpha)
        validate_distortion(distortion)

    return MarketScenario(
        theta=theta, alpha=alpha, epsilon=epsilon, benchmark=benchmark,
        insurer_survival=insurer, generator=gen, distortion=distortion,
        kappa=float(kappa) if kappa is not None else 1.0,
        acceptable_var=float(a_level) if a_level is not None else None)


def _override_generator_k(gen_spec, k):
    import re

    m = re.match(r"^\s*piecewise_quadratic\s*\(\s*([^,]+),\s*[^)]+\)\s*$",
                 gen_spec)
    if not m:
        raise ValidationError(
            "sweep over generator.k needs a piecewise_quadratic generator, "
            f"got {gen_spec!r}")
    return f"piecewise_quadratic({m.group(1).strip()},{k:g})"


def _sweep_points(config):
    axes = []
    for entry in config.sweep:
        axes.append([(entry["parameter"], v) for v in entry["values"]])
    if not axes:
        return [("base", {})]
    points = [("", {})]
    for axis in axes:
        points = [(f"{label}__{param}={val:g}" if label else f"{param}={val:g}",
                   {**ov, param: val})
                  for label, ov in points for param, val in axis]
    return points


def _solve_point(config, label, overrides, base_dir):
    scenario = build_scenario(config, overrides, base_dir)
    started = time.perf_counter()
    record = {"label": label, "sweep": {k: float(v) for k, v in overrides.items()}}
    curves = {}
    m = scenario.support_max
    if config.model == "alpha_maxmin":
        sol = alpha_maxmin.solve_maxmin(scenario, eta_on_ties=config.eta)
        record.update(
            v_upper=sol.v_upper, v_lower=sol.v_lower, d1=sol.d1, d2=sol.d2,
            case_id=sol.case_id, lambda_star=None, beta_star=None,
            b_star=None, slack=None, kkt_residual=None, eta_tilde=None,
            premium=sol.premium, objective=sol.objective)
        contract = sol.indemnity
        xs = np.linspace(0.0, min(m, 4.0 * sol.v_upper), config.curve_samples)
        curves["net_price"] = (xs, alpha_maxmin.net_price_H(
            xs, scenario.theta, scenario.kappa, scenario.insurer_survival,
            sol.v_upper, sol.v_lower))
    else:
        sol = guaranteed_var.solve_problem2(scenario, grid=config.grid)
        record.update(
            v_upper=sol.v_upper, v_lower=None, d1=None, d2=None, case_id=None,
            lambda_star=sol.lambda_star, beta_star=sol.beta_star,
            b_star=sol.b_star, slack=sol.slack,
            kkt_residual=sol.kkt_residual, eta_tilde=sol.eta_tilde,
            premium=sol.premium, objective=sol.objective)
        contract = sol.indemnity
        xs = np.linspace(0.0, min(m, 4.0 * sol.v_upper), config.curve_samples)
        curves["worst_survival"] = (xs, sol.worst_survival(xs))
        curves["net_price"] = (xs, guaranteed_var.net_price(
            xs, sol.worst_survival, sol.lambda_star, scenario, sol.v_upper))
    curves["indemnity"] = (xs, contract(xs))
    record["contract"] = {
        "breakpoints": [float(b) for b in contract.breakpoints],
        "slopes": [float(s) for s in contract.slopes],
    }
    record["runtime_seconds"] = time.perf_counter() - started
    return record, curves


def run_scenario(config, *, base_dir=None):
    """Solve every sweep point in declaration order; returns the report dict."""
    results = [_solve_point(config, label, ov, base_dir)
               for label, ov in _sweep_points(config)]
    report = {
        "model": config.model,
        "alpha": config.alpha,
        "theta": config.theta,
        "kappa": config.kappa,
        "epsilon": config.epsilon,
        "A": config.A,
        "generator": config.generator,
        "distortion": config.distortion,
        "records": [rec for rec, _ in results],
    }
    curves = {rec["label"]: cur for rec, cur in results}
    return report, curves


def _fmt(value):
    return format(float(value), ".12g")


def emit_plot_data(report, curves, directory, *, fmt="csv"):
    """Write per-point curve files and the schema-backed JSON summary."""
    out = Path(directory)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    if fmt == "csv":
        for record in report["records"]:
            label = record["label"]
            for panel, header in (("indemnity", "indemnity"),
                                  ("worst_survival", "worst_survival"),
                                  ("net_price", "net_price")):
                if label not in curves or panel not in curves[label]:
                    continue
                xs, ys = curves[label][panel]
                path = out / f"{panel}_{label}.csv"
                with open(path, "w", newline="\n", encoding="utf-8") as fh:
                    writer = csv.writer(fh, lineterminator="\n")
                    writer.writerow(["x", header])
                    for x, y in zip(xs, ys):
                        writer.writerow([_fmt(x), _fmt(y)])
                written.append(path)
    summary = out / "summary.json"
    with open(summary, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True, default=float)
        fh.write("\n")
    written.append(summary)
    return written


def schema_path():
    return Path(__file__).parent / "schemas" / "summary.schema.json"


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="bwrobust",
        description="Robust insurance design over Bregman-Wasserstein balls")
    sub = parser.add_subparsers(dest="command", required=True)
    p_solve = sub.add_parser("solve", help="solve the scenario in a config file")
    p_solve.add_argument("config", type=Path)
    p_solve.add_argument("--out", type=Path, default=None,
                         help="output directory (default: from the config)")
    p_solve.add_argument("--format", choices=("csv", "json"), default=None)
    p_val = sub.add_parser("validate", help="check a config file")
    p_val.add_argument("config", type=Path)
    args = parser.parse_args(argv)

    try:
        config = load_config(args.config)
    except ValidationError as exc:
        print("configuration invalid:", file=sys.stderr)
        for item in exc.items:
            print(f"  - {item}", file=sys.stderr)
        return 1
    except (OSError, yaml.YAMLError) as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return 1

    if args.command == "validate":
        print(f"{args.config}: OK ({config.model}, "
              f"{len(_sweep_points(config))} sweep point(s))")
        return 0

    out_dir = args.out or config.output.get("directory", "out")
    fmt = args.format or config.output.get("format", "csv")
    try:
        report, curves = run_scenario(config, base_dir=args.config.parent)
    except NumericsError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except BwRobustError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 2
    files = emit_plot_data(report, curves, out_dir, fmt=fmt)
    for path in files:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
