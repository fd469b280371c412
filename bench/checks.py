"""Output checks, run after the timed region.

Every check is a certificate or an analytic oracle, never a snapshot of
earlier numbers.  A check returns a list of ``Problem``; an item with any
problem counts as failed.  An item that raised is a failed operation, not
a wrong output.  A wrong output whose signature matches a defect listed in
``KNOWN_DEFECTS`` stays counted as failed and is printed with the defect's
name, but does not mark the run's outputs as wrong; any other wrong output
does.  Remove an entry once the program no longer shows it.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from bwrobust import cli, var_bounds

# the layered-demand oracle of the shipped maxmin config (k = 1, 2, 4)
LAYERED_D1, LAYERED_D2, LAYERED_VL = 0.406, 0.511, 0.563
KKT_TOL = 1e-6

KNOWN_DEFECTS = {
    "kkt-outer-root": (
        "solve_problem2 keeps the evaluated lambda probe nearest the root on "
        "the feasible side instead of the converged root, so a slightly "
        "negative slack leaves |lambda* * slack| above 1e-6 (A = 1.396 on "
        "the shipped config)"),
    "atom-ramp": (
        "the emitted worst-case curve duplicates a knot only at v_upper, so "
        "just left of a benchmark atom it interpolates linearly below the "
        "benchmark survival"),
}
# the nearest-probe residual is tiny; a larger slack with lambda* > 0 is a
# new failure
KKT_DEFECT_SLACK = 1e-4
ATOM_RAMP_WIDTH = 0.05


@dataclass(frozen=True)
class Problem:
    message: str
    wrong: bool = True
    defect: str | None = None


def read_curve(path):
    with open(path, encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    arr = np.array(rows, dtype=float)
    return arr[:, 0], arr[:, 1]


def contract_values(contract, xs):
    bps = np.asarray(contract["breakpoints"], dtype=float)
    slopes = np.asarray(contract["slopes"], dtype=float)
    vals = np.concatenate([[0.0], np.cumsum(slopes * np.diff(bps))])
    return np.interp(xs, bps, vals)


def contract_problems(contract):
    """I(0) = 0, nondecreasing breakpoints and slopes in [0, 1]."""
    bps = np.asarray(contract["breakpoints"], dtype=float)
    slopes = np.asarray(contract["slopes"], dtype=float)
    out = []
    if len(bps) != len(slopes) + 1:
        out.append(Problem("contract needs one more breakpoint than slopes"))
        return out
    if bps[0] != 0.0 or contract_values(contract, 0.0) != 0.0:
        out.append(Problem(f"contract does not start at I(0) = 0 ({bps[0]})"))
    if np.any(np.diff(bps) < 0.0):
        out.append(Problem("contract breakpoints decrease"))
    if np.any(slopes < 0.0) or np.any(slopes > 1.0):
        out.append(Problem(f"contract slope outside [0, 1]: {slopes.tolist()}"))
    return out


def bracket_problems(scenario, v_upper):
    """v_upper is the smallest level whose tail budget reaches epsilon."""
    gen, f0 = scenario.generator, scenario.benchmark
    alpha, eps, m = scenario.alpha, scenario.epsilon, scenario.support_max
    if v_upper >= m:
        full = var_bounds.full_upper_budget(gen, f0, alpha)
        return [] if full < eps else [Problem(
            f"v_upper at the support bound but the full budget {full:.10g} "
            f"reaches epsilon {eps:g}")]
    out = []
    at = var_bounds.tail_budget(gen, f0, alpha, v_upper, "upper")
    if not at >= eps:
        out.append(Problem(f"tail budget {at:.10g} at v_upper is below "
                           f"epsilon {eps:g}"))
    below = v_upper - 1e-8 * max(1.0, m)
    if below > float(f0.quantile(alpha)):
        b = var_bounds.tail_budget(gen, f0, alpha, below, "upper")
        if not b < eps:
            out.append(Problem(f"tail budget {b:.10g} just below v_upper "
                               f"already reaches epsilon {eps:g}"))
    return out


def layered_problems(record):
    """The layered-demand example: d1, d2, v_lower and the layer I(x)."""
    out = []
    for key, want, tol in (("d1", LAYERED_D1, 2e-3), ("d2", LAYERED_D2, 2e-3),
                           ("v_lower", LAYERED_VL, 5e-3)):
        if not abs(record[key] - want) <= tol:
            out.append(Problem(f"{key} = {record[key]:.6g}, oracle {want}"))
    xs = np.linspace(0.0, 100.0, 4001)
    expected = np.clip(np.minimum(xs, record["v_upper"]) - record["d1"], 0.0, None)
    gap = float(np.max(np.abs(contract_values(record["contract"], xs) - expected)))
    if not gap <= 1e-8:
        out.append(Problem(f"contract differs from the layer by {gap:.3g}"))
    return out


def guarantee_problems(record, insurer, theta, a_level):
    """Slack of the VaR cap recomputed from the emitted contract.

    ``slack = premium - I(v_upper) - A + v_upper`` must be <= 0 (the
    guarantee holds) and ``|lambda* * slack| <= 1e-6`` (complementary
    slackness).
    """
    contract = record["contract"]
    bps = np.asarray(contract["breakpoints"], dtype=float)
    slopes = np.asarray(contract["slopes"], dtype=float)
    m = insurer.support_max
    covered = sum(s * insurer.survival_integral(a, min(b, m))
                  for a, b, s in zip(bps[:-1], bps[1:], slopes) if s and a < m)
    vu = record["v_upper"]
    slack = (1.0 + theta) * covered - float(contract_values(contract, vu)) \
        - a_level + vu
    out = []
    if slack > 1e-9 * max(1.0, a_level):
        out.append(Problem(f"guarantee violated: slack {slack:.3g} > 0"))
    kkt = abs(record["lambda_star"] * slack)
    if not kkt <= KKT_TOL:
        known = -KKT_DEFECT_SLACK <= slack <= 0.0
        out.append(Problem(f"|lambda* * slack| = {kkt:.3g} > {KKT_TOL:g} "
                           f"(lambda* = {record['lambda_star']:.6g}, "
                           f"slack = {slack:.3g})",
                           defect="kkt-outer-root" if known else None))
    return out


def benchmark_atoms(dist):
    """``[(x, mass)]`` of a tabulated distribution's atoms."""
    xs = getattr(dist, "xs", None)
    if xs is None:
        return []
    ps = dist.ps
    return [(float(xs[i]), float(ps[i + 1] - ps[i]))
            for i in range(len(xs) - 1) if xs[i + 1] == xs[i]]


def curve_problems(xs, values, benchmark, tol=1e-9):
    """Worst-case survival curve: nonincreasing and above the benchmark."""
    out = []
    rise = float(np.max(np.diff(values), initial=0.0))
    if rise > tol:
        out.append(Problem(f"worst-case curve increases by {rise:.3g}"))
    deficit = benchmark.survival(np.clip(xs, 0.0, benchmark.support_max)) - values
    bad = deficit > tol
    if np.any(bad):
        atoms = benchmark_atoms(benchmark)
        ramp = all(any(0.0 < xa - x <= ATOM_RAMP_WIDTH and dv <= mass + tol
                       for xa, mass in atoms)
                   for x, dv in zip(xs[bad], deficit[bad]))
        out.append(Problem(
            f"worst-case curve is {float(deficit.max()):.3g} below the "
            f"benchmark at {int(bad.sum())} of {len(xs)} points",
            defect="atom-ramp" if ramp else None))
    return out


def sweep_problems(item, out):
    out_dir = Path(out["dir"])
    with open(out_dir / "summary.json", encoding="utf-8") as fh:
        record = json.load(fh)["records"][0]
    config = cli.validate_config(item.data["config"])
    scenario = cli.build_scenario(config)
    problems = contract_problems(record["contract"])
    problems += bracket_problems(scenario, record["v_upper"])
    if item.data.get("layered_oracle"):
        problems += layered_problems(record)
    if item.kind == "guaranteed":
        problems += guarantee_problems(record, scenario.insurer_survival,
                                       scenario.theta, config.A)
        xs, vals = read_curve(out_dir / f"worst_survival_{record['label']}.csv")
        problems += curve_problems(xs, vals, scenario.benchmark)
    return problems


def audit_problems(item, out, prep):
    d = item.data
    if item.kind == "a":
        problems = []
        for j, pair in enumerate(out["pairs"]):
            gap = abs(pair["quantile"] - pair["survival"])
            if not gap <= 1e-6:
                problems.append(Problem(f"pair {j}: representations disagree "
                                        f"by {gap:.3g}"))
            if not pair["self"] <= 1e-10:
                problems.append(Problem(f"pair {j}: self-divergence "
                                        f"{pair['self']:.3g}"))
        return problems
    if item.kind == "b":
        gen, texp = prep["gen"], prep["texp"]
        alpha, eps = d["alpha"], d["epsilon"]
        vu = var_bounds.worst_case_var(gen, texp, alpha, eps)
        vl = var_bounds.best_case_var(gen, texp, alpha, eps)
        problems = []
        if not out["near_div"] <= eps:
            problems.append(Problem(f"near-worst witness outside the ball "
                                    f"({out['near_div']:.10g} > {eps:g})"))
        if not out["near_var"] >= vu - d["delta"]:
            problems.append(Problem(f"near-worst witness VaR {out['near_var']:.8g} "
                                    f"more than delta below {vu:.8g}"))
        if not abs(out["best_var"] - vl) <= 1e-12:
            problems.append(Problem(f"best witness VaR {out['best_var']:.12g} "
                                    f"misses v_lower {vl:.12g}"))
        if not out["best_div"] <= eps:
            problems.append(Problem(f"best witness outside the ball "
                                    f"({out['best_div']:.10g} > {eps:g})"))
        return problems
    if item.kind == "c":
        problems = []
        if not out["max_gap"] <= 1e-8:
            problems.append(Problem(f"closed form and g_star differ by "
                                    f"{out['max_gap']:.3g}"))
        if not out["uncapped_is_benchmark"]:
            problems.append(Problem("uncapped curve leaves the benchmark"))
        return problems
    if item.kind == "d":
        curve, texp = prep["curve"], prep["texp"]
        eps = d["epsilon"]
        problems = []
        if not out["divergence"] <= eps + 1e-6:
            problems.append(Problem(f"emitted curve outside the ball "
                                    f"({out['divergence']:.10g} > {eps:g})"))
        xs = np.asarray([k[0] for k in d["knots"]])
        surv = 1.0 - np.asarray([k[1] for k in d["knots"]])
        # the last knot is closed to probability 1 when tabulating the curve
        problems += curve_problems(xs[:-1], surv[:-1], texp)
        return problems
    raise ValueError(f"unknown item kind {item.kind!r}")


def tally(problem_lists):
    """``(failed, correct)``: items with any problem, and whether no output
    is wrong other than through a known defect."""
    failed = sum(1 for p in problem_lists if p)
    return failed, not any(prob.wrong and prob.defect is None
                           for p in problem_lists for prob in p)


def item_problems(item, out, prep):
    """Every problem of one item's output; an exception is itself a problem."""
    if isinstance(out, BaseException):
        return [Problem(f"raised {type(out).__name__}: {out}", wrong=False)]
    if item.kind in ("maxmin", "guaranteed"):
        return sweep_problems(item, out)
    return audit_problems(item, out, prep)
