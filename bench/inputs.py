"""Seeded inputs for the four benchmark workloads.

Every workload is a pool of *items* built from ``numpy.random.default_rng``
seeded with the workload seed, so the same seed always yields the same
pool.  Sweep items are one-point CLI configs (plain dicts, exactly what a
YAML file would parse to); audit items are small verification tasks.

Items come in *rounds*.  Every round of a workload has the same mix of
input types, and only the continuous parameters inside each type are
drawn from the seed, so whole rounds cost about the same on every seed.
Round 0 holds the items every run must time (the shipped configs' points).
A run times a fixed list: round 0, then further whole rounds while their
*nominal* cost (a constant per item, the typical time on a 2-core Xeon)
ends the run closer to ``--seconds`` than stopping would.  The list
depends on the seed and ``--seconds`` only, never on measured time, so two
runs of one seed attempt the same items and fail the same ones.

Placing some inputs needs the solver itself (the lambda = 0 threshold of
the guaranteed-VaR model, the worst-case VaR of a TVaR check, the curve
whose ball membership is audited).  Those solves happen here, before any
timing starts, and count in no metric; only the families a run uses are
placed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from bwrobust import cli, distributions, guaranteed_var, var_bounds
from bwrobust.bregman import (make_piecewise_quadratic_generator,
                              make_xlogx_generator, quadratic_generator)

TEXP = {"kind": "truncated_exponential", "mean": 1.0, "support_max": 100.0}
NUMERICS = {"tol": 1.0e-8, "grid": 10000}

# the shipped configs' points, always part of their workload
MAXMIN_CONFIG_K = (1.0, 2.0, 4.0)
GUARANTEED_BINDING_A = (1.396, 1.401)
GUARANTEED_SLACK_A = 1.406

WORKLOADS = ("maxmin_sweep", "guaranteed_binding", "guaranteed_slack", "audit")


@dataclass
class Item:
    kind: str          # "maxmin", "guaranteed", or an audit kind a/b/c/d
    label: str
    data: dict
    round: int = 0
    nominal_s: float = 0.0  # typical seconds; sizes a run, never reported


def select_rounds(items, budget_s):
    """Round 0, then each further whole round while the run, at nominal
    cost, ends closer to ``budget_s`` than stopping before that round."""
    rounds = {}
    for it in items:
        rounds.setdefault(it.round, []).append(it)
    chosen = list(rounds.pop(0))
    total = sum(it.nominal_s for it in chosen)
    for r in sorted(rounds):
        cost = sum(it.nominal_s for it in rounds[r])
        if total + cost / 2.0 > budget_s:
            break
        chosen += rounds[r]
        total += cost
    return chosen


def tabulated_benchmark(rng, support_max=100.0):
    """Exponential-shaped tabulated CDF on [0, M] with one atom in the body.

    The atom is a mixture weight ``w`` placed on one of the body knots, so
    the CDF stays below every confidence level used by the workloads there.
    """
    mean = rng.uniform(0.7, 1.4)
    probs = np.array([0.1, 0.25, 0.4, 0.55, 0.7, 0.8, 0.88, 0.93, 0.96,
                      0.98, 0.99, 0.995, 0.998, 0.9995])
    xs = -mean * np.log1p(-probs)
    w = rng.uniform(0.02, 0.08)
    i_atom = int(rng.integers(1, 5))
    knots = [[0.0, 0.0]]
    for i, (x, p) in enumerate(zip(xs, probs)):
        if i == i_atom:
            knots.append([float(x), float((1.0 - w) * p)])
            knots.append([float(x), float((1.0 - w) * p + w)])
        else:
            knots.append([float(x), float((1.0 - w) * p + w * (i > i_atom))])
    knots.append([float(support_max), 1.0])
    return {"kind": "tabulated", "knots": knots}


def maxmin_config(benchmark, generator, alpha, theta, kappa, epsilon):
    return {"model": "alpha_maxmin", "benchmark": benchmark,
            "insurer_survival": "same_as_benchmark", "generator": generator,
            "alpha": alpha, "theta": theta, "kappa": kappa, "epsilon": epsilon,
            "numerics": dict(NUMERICS), "output": {"format": "csv"}}


def guaranteed_config(benchmark, distortion, alpha, epsilon, a_level,
                      theta=0.5):
    return {"model": "guaranteed_var", "benchmark": benchmark,
            "insurer_survival": "same_as_benchmark",
            "generator": "xlogx_shift(1.0)", "distortion": distortion,
            "alpha": alpha, "theta": theta, "epsilon": epsilon, "A": a_level,
            "numerics": dict(NUMERICS), "output": {"format": "csv"}}


# ---------------------------------------------------------------------------
# sweep workloads
# ---------------------------------------------------------------------------

def _strata(rng, n):
    """One uniform draw in each of ``n`` equal strata of [0, 1), shuffled."""
    return (rng.permutation(n) + rng.random(n)) / n


def _log_scale(u, lo, hi):
    return float(np.exp(np.log(lo) + u * (np.log(hi) - np.log(lo))))


# nominal seconds per item (2-core Xeon, Python 3.11); they only size a run
MAXMIN_ITEM_S = 0.75
BINDING_ITEM_S = 8.5
SLACK_ITEM_S = 0.65
AUDIT_ITEM_S = {"a": 1.4, "b": 1.3, "c": 0.1, "d": 13.5}


def maxmin_items(rng, n_blocks=8):
    """The config points, then blocks of twelve seeded points.

    A block crosses the three confidence levels with four strata of
    log-epsilon; three cells use ``xlogx_shift(1)`` and four a tabulated
    benchmark, and k, kappa and theta are drawn one per stratum.  Each
    block is timed as two rounds of six, each holding every level with one
    lower and one upper epsilon stratum.
    """
    items = [Item("maxmin", f"config_k{k:g}", {"config": maxmin_config(
        TEXP, f"piecewise_quadratic(q_alpha, {k!r})", 0.95, 0.5, 0.9, 0.5),
        "layered_oracle": True}, nominal_s=MAXMIN_ITEM_S)
        for k in MAXMIN_CONFIG_K]
    cells = [(a, e) for e in (0, 2, 1, 3) for a in range(3)]
    for blk in range(n_blocks):
        ks, kappas, thetas = (_strata(rng, len(cells)) for _ in range(3))
        for i in range(len(cells)):
            a, e = cells[i]
            r = 2 * blk + i // 6
            bench = tabulated_benchmark(rng) if (a + 2 * e) % 3 == 2 else TEXP
            if (a + e) % 4 == 0:
                gen = "xlogx_shift(1.0)"
            else:
                gen = f"piecewise_quadratic(q_alpha, {_log_scale(ks[i], 0.5, 8.0)!r})"
            cfg = maxmin_config(bench, gen, (0.9, 0.95, 0.99)[a],
                                0.2 + 0.8 * float(thetas[i]),
                                0.5 + 0.5 * float(kappas[i]),
                                _log_scale((e + rng.random()) / 4.0, 0.05, 1.0))
            items.append(Item("maxmin", f"b{blk}_a{a}_e{e}", {"config": cfg},
                              round=r, nominal_s=MAXMIN_ITEM_S))
    return items


EPSILON = (0.003, 0.01)


def _family(rng, distortion, alpha, tabulated, epsilon):
    return {"benchmark": tabulated_benchmark(rng) if tabulated else TEXP,
            "distortion": distortion, "alpha": alpha,
            "epsilon": float(rng.uniform(*epsilon))}


def place_family(fam):
    """Feasibility floor, lambda = 0 threshold and worst-case VaR of a family.

    The threshold does not depend on ``A``: with the cap slack the contract
    is fixed, and ``A0 = premium - I(v_upper) + v_upper`` is where its
    constraint residual changes sign, so one slack solve at a large ``A``
    gives it as ``A + slack``.
    """
    probe_a = 100.0
    scenario = cli.build_scenario(cli.validate_config(guaranteed_config(
        fam["benchmark"], fam["distortion"], fam["alpha"], fam["epsilon"],
        probe_a)))
    sol = guaranteed_var.solve_problem2(scenario)
    vu = sol.v_upper
    sq = scenario.insurer_survival
    theta = scenario.theta
    x1 = min(float(sq.survival_inverse_right(1.0 / (1.0 + theta))), vu)
    floor = vu + (1.0 + theta) * sq.survival_integral(x1, vu) - (vu - x1)
    return {"floor": floor, "threshold": probe_a + sol.slack, "v_upper": vu}


# (distortion, alpha, tabulated benchmark, epsilon range) of the families
BINDING_FAMILIES = tuple((d, a, False, EPSILON) for d, a in (
    ("tvar", 0.95), ("power(0.5)", 0.95), ("tvar", 0.9), ("power(0.5)", 0.9)))
SLACK_FAMILIES = tuple((d, a, tab, EPSILON) for d, a, tab in (
    ("tvar", 0.9, False), ("tvar", 0.95, False), ("power(0.5)", 0.95, False),
    ("tvar", 0.9, False), ("tvar", 0.95, True), ("tvar", 0.95, False),
    ("power(0.5)", 0.9, True), ("tvar", 0.9, False)))


def _seeded_point(r, j, frac, nominal_s):
    """A guaranteed-VaR point of family ``j`` whose A is still to be placed."""
    return Item("guaranteed", f"r{r}_fam{j}_frac{frac:.3f}",
                {"family": j, "frac": frac}, round=r, nominal_s=nominal_s)


def place_points(items, fams, a_of):
    """Give every seeded point its config; ``a_of(placement, frac)`` is its A.

    Only the families of ``items`` are placed, each once.
    """
    places = {}
    for it in items:
        if "family" not in it.data:
            continue
        j = it.data["family"]
        if j not in places:
            places[j] = place_family(fams[j])
        fam = fams[j]
        it.data = {"config": guaranteed_config(
            fam["benchmark"], fam["distortion"], fam["alpha"], fam["epsilon"],
            a_of(places[j], it.data["frac"]))}
    return items


def binding_a(place, frac):
    """A at ``frac`` of the way from the feasibility floor to the lambda = 0
    threshold."""
    return place["floor"] + frac * (place["threshold"] - place["floor"])


def slack_a(place, frac):
    """A at ``frac`` of the way from the lambda = 0 threshold to 1.1 v_upper."""
    return place["threshold"] + frac * (1.1 * place["v_upper"] - place["threshold"])


def binding_items(rng, n_rounds=8):
    """Round 0 is the two config points around one seeded point; after it
    every seeded point is a round of its own.  A seeded point draws its
    family from ``BINDING_FAMILIES`` and its A at a fraction in [0.1, 0.9]
    between the feasibility floor and the lambda = 0 threshold."""
    fams = [_family(rng, *t) for t in BINDING_FAMILIES]
    seeded = [_seeded_point(r, int(rng.integers(len(fams))),
                            float(rng.uniform(0.1, 0.9)), BINDING_ITEM_S)
              for r in range(n_rounds)]
    fixed = [Item("guaranteed", f"config_A{a:g}", {"config": guaranteed_config(
        TEXP, "tvar", 0.95, 0.005, a)}, nominal_s=BINDING_ITEM_S)
        for a in GUARANTEED_BINDING_A]
    return [fixed[0], seeded[0], fixed[1]] + seeded[1:], fams, binding_a


def slack_items(rng, n_rounds=6):
    """The config point A = 1.406, then rounds of one point per family, A
    between the lambda = 0 threshold and 1.1 v_upper.  Every family type
    of ``SLACK_FAMILIES`` is drawn twice (epsilon, tabulated benchmark), so
    no single draw sets the cost of a run."""
    fams = [_family(rng, *t) for _ in range(2) for t in SLACK_FAMILIES]
    fixed = Item("guaranteed", f"config_A{GUARANTEED_SLACK_A:g}",
                 {"config": guaranteed_config(TEXP, "tvar", 0.95, 0.005,
                                              GUARANTEED_SLACK_A)},
                 nominal_s=SLACK_ITEM_S)
    seeded = [_seeded_point(r, j, float(rng.uniform(0.02, 1.0)), SLACK_ITEM_S)
              for r in range(n_rounds) for j in range(len(fams))]
    return [fixed] + seeded, fams, slack_a


# ---------------------------------------------------------------------------
# audit workload
# ---------------------------------------------------------------------------

AUDIT_GENERATORS = ("quadratic", "xlogx", "piecewise_quadratic")


def audit_generator(name, support_max):
    if name == "quadratic":
        return quadratic_generator(support_max)
    if name == "xlogx":
        return make_xlogx_generator(1.0, support_max)
    return make_piecewise_quadratic_generator(1.5, 2.0, support_max)


def random_knots(rng, n, atom, support_max=4.0):
    """Random piecewise-linear CDF with ``n`` interior knots on [0, M]."""
    xs = np.sort(rng.uniform(0.0, support_max, size=n))
    ps = np.sort(rng.uniform(0.0, 1.0, size=n))
    knots = [[0.0, 0.0]] + [[float(x), float(p)] for x, p in zip(xs, ps)]
    if atom:
        i = int(rng.integers(1, n + 1))
        x_at, p_at = knots[i]
        jump = min(1.0, p_at + float(rng.uniform(0.02, 0.2)))
        knots = (knots[: i + 1] + [[x_at, jump]]
                 + [[x, max(p, jump)] for x, p in knots[i + 1:]])
    knots.append([support_max, 1.0])
    return knots


PAIR_SHAPES = ((2, False), (3, True), (4, False), (5, True), (6, False),
               (7, True))  # (interior knots, atom) of the pairs in a batch


def _pair_item(rng, i):
    """A batch of random pairs, one per shape, with seeded generators."""
    pairs = []
    for j, (n, atom) in enumerate(PAIR_SHAPES):
        m, atom2 = PAIR_SHAPES[-1 - j]
        pairs.append({"generator": AUDIT_GENERATORS[(i + j) % 3],
                      "f1": random_knots(rng, n, atom),
                      "f2": random_knots(rng, m, atom2)})
    return Item("a", f"pairs{i}", {"pairs": pairs})


def _witness_item(rng, i):
    texp = distributions.make_truncated_exponential(1.0, 100.0)
    alpha = (0.95, 0.9)[i % 2]
    if i % 4 == 3:
        gen = ("xlogx", 1.0)
    else:
        gen = ("piecewise_quadratic", float(texp.quantile(alpha)),
               _log_scale(rng.random(), 1.0, 4.0))
    return Item("b", f"witness{i}", {
        "generator": gen, "alpha": alpha,
        "epsilon": _log_scale(rng.random(), 0.1, 0.8), "delta": 1e-3})


def _tvar_item(rng, i, vu_by_alpha):
    alphas = sorted(vu_by_alpha)
    alpha = alphas[i % len(alphas)]
    lams = [0.0] + [_log_scale(rng.random(), 0.5, 60.0) for _ in range(2)]
    betas = [_log_scale(rng.random(), 0.3, 60.0) for _ in range(3)]
    return Item("c", f"tvar{i}", {"alpha": alpha, "v_upper": vu_by_alpha[alpha],
                                  "lambdas": lams, "betas": betas,
                                  "epsilon": 0.005})


def audit_curve():
    """Worst-case curve emitted by the shipped config's slack point
    (A = 1.406), solved before timing."""
    scenario = cli.build_scenario(cli.validate_config(guaranteed_config(
        TEXP, "tvar", 0.95, 0.005, GUARANTEED_SLACK_A)))
    curve = guaranteed_var.solve_problem2(scenario).worst_survival
    knots = [[float(x), float(1.0 - v)] for x, v in zip(curve.grid, curve.values)]
    knots[-1] = [knots[-1][0], 1.0]
    return Item("d", "curve", {"knots": knots, "epsilon": scenario.epsilon},
                nominal_s=AUDIT_ITEM_S["d"])


def audit_items(rng, n_rounds=10):
    texp = distributions.make_truncated_exponential(1.0, 100.0)
    xlogx = make_xlogx_generator(1.0, 100.0)
    vu_by_alpha = {a: var_bounds.worst_case_var(xlogx, texp, a, 0.005)
                   for a in (0.8, 0.9, 0.95)}
    items = []
    n_pair = n_wit = n_tvar = 0
    for r in range(n_rounds):
        # TVaR checks, whose cost hardly depends on their parameters, are
        # most of every round, so the per-item median is one of them; round
        # 0 ends with the long check of the emitted curve
        for kind in "acbcac" + "c" * 8:
            if kind == "a":
                it = _pair_item(rng, n_pair)
                n_pair += 1
            elif kind == "b":
                it = _witness_item(rng, n_wit)
                n_wit += 1
            else:
                it = _tvar_item(rng, n_tvar, vu_by_alpha)
                n_tvar += 1
            it.round = r
            it.nominal_s = AUDIT_ITEM_S[kind]
            items.append(it)
        if r == 0:
            items.append(audit_curve())
    return items


def make_items(workload, seed, budget_s):
    """The items one run times, in order: whole rounds of the seeded pool
    (``select_rounds``), with every input the program needs placed."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "maxmin_sweep":
        return select_rounds(maxmin_items(rng), budget_s)
    if workload in ("guaranteed_binding", "guaranteed_slack"):
        make = binding_items if workload == "guaranteed_binding" else slack_items
        pool, fams, a_of = make(rng)
        return place_points(select_rounds(pool, budget_s), fams, a_of)
    if workload == "audit":
        return select_rounds(audit_items(rng), budget_s)
    raise ValueError(f"unknown workload {workload!r}")
