"""Acceptance suite: one test per criterion, one printed line per result.

Run with ``pytest tests/test_acceptance.py -v -rA`` to see the lines.
"""

import time

import numpy as np
import pytest

from bwrobust.alpha_maxmin import solve_maxmin
from bwrobust.bregman import (bw_divergence_quantile, bw_divergence_survival,
                              make_piecewise_quadratic_generator,
                              make_xlogx_generator, quadratic_generator)
from bwrobust.distortions import tvar_distortion
from bwrobust.distributions import make_tabulated
from bwrobust.guaranteed_var import (_InnerProblem, _ScenarioCache,
                                     alternating_best_response, g_star,
                                     region_partition)
from bwrobust.scenario import MarketScenario
from bwrobust.tvar import tvar_g_star_value
from bwrobust.var_bounds import (best_case_var, witness_best,
                                 witness_near_worst, worst_case_var)

from conftest import layered_scenario, random_tabulated


def _report(n, text):
    print(f"ACCEPTANCE {n} PASS: {text}")


def test_criterion_1_layered_demand_example(texp):
    started = time.perf_counter()
    solutions = {k: solve_maxmin(layered_scenario(texp, k))
                 for k in (1.0, 2.0, 4.0)}
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"runtime {elapsed:.1f}s exceeds 10s"
    xs = np.linspace(0.0, 100.0, 4001)
    ceilings = []
    for k in (1.0, 2.0, 4.0):
        sol = solutions[k]
        assert sol.d1 == pytest.approx(0.406, abs=2e-3)
        assert sol.d2 == pytest.approx(0.511, abs=2e-3)
        assert sol.v_lower == pytest.approx(0.563, abs=5e-3)
        expected = np.clip(np.minimum(xs, sol.v_upper) - sol.d1, 0.0, None)
        assert np.max(np.abs(sol.indemnity(xs) - expected)) <= 1e-8
        ceilings.append(sol.v_upper)
    assert ceilings[0] > ceilings[1] > ceilings[2]
    _report(1, f"layered example reproduced in {elapsed:.1f}s; "
               f"ceilings {ceilings[0]:.3f} > {ceilings[1]:.3f} > "
               f"{ceilings[2]:.3f}")


def test_criterion_2_analytic_var_bound_oracle(uniform01):
    gen = quadratic_generator(1.0)
    vu = worst_case_var(gen, uniform01, 0.5, 1.0 / 81.0)
    vl = best_case_var(gen, uniform01, 0.5, 1.0 / 81.0)
    assert vu == pytest.approx(5.0 / 6.0, abs=1e-6)
    assert vl == pytest.approx(1.0 / 6.0, abs=1e-6)
    assert worst_case_var(gen, uniform01, 0.5, 0.05) == 1.0
    _report(2, "uniform analytic bounds match 5/6 and 1/6 within 1e-6; "
               "boundary branch returns the support cap")


def test_criterion_3_representation_equivalence():
    rng = np.random.default_rng(314159)
    gens = (quadratic_generator(4.0), make_xlogx_generator(1.0, 4.0),
            make_piecewise_quadratic_generator(1.5, 2.0, 4.0))
    worst = 0.0
    for _ in range(50):
        f1 = random_tabulated(rng)
        f2 = random_tabulated(rng)
        gen = gens[int(rng.integers(0, 3))]
        a = bw_divergence_quantile(gen, f1, f2)
        b = bw_divergence_survival(gen, f1, f2)
        worst = max(worst, abs(a - b))
        assert abs(a - b) <= 1e-6
    for gen in gens:
        f = random_tabulated(rng)
        assert bw_divergence_quantile(gen, f, f) <= 1e-10
    _report(3, f"quantile and survival representations agree on 50 random "
               f"pairs (max gap {worst:.2e}); self-divergence below 1e-10")


def test_criterion_4_witness_validity(texp):
    q = texp.quantile(0.95)
    gen = make_piecewise_quadratic_generator(q, 2.0, 100.0)
    eps = 0.5
    vu = worst_case_var(gen, texp, 0.95, eps)
    near = witness_near_worst(gen, texp, 0.95, eps, delta=1e-3)
    assert bw_divergence_quantile(gen, near, texp) <= eps
    assert near.quantile(0.95) >= vu - 1e-3
    best = witness_best(gen, texp, 0.95, eps)
    vl = best_case_var(gen, texp, 0.95, eps)
    assert best.quantile(0.95) == pytest.approx(vl, abs=1e-12)
    assert bw_divergence_quantile(gen, best, texp) <= eps
    _report(4, "near-worst witness stays in the ball with VaR within 1e-3 of "
               "the supremum; best-case witness attains the infimum")


def test_criterion_5_guaranteed_var_kkt_suite(guaranteed_solutions):
    _, base = guaranteed_solutions[1.406]
    assert abs(base.lambda_star) <= 1e-4
    xs = np.linspace(base.v_upper, 30.0, 500)
    base_vals = base.worst_survival(xs)
    for a_level in (1.401, 1.396):
        _, sol = guaranteed_solutions[a_level]
        assert sol.lambda_star > 0.0
        assert abs(sol.lambda_star * sol.slack) <= 1e-6
        vals = sol.worst_survival(xs)
        assert np.all(vals >= base_vals - 1e-9)
        assert np.max(vals - base_vals) > 1e-3
    _report(5, f"A=1.406 gives a zero multiplier; tighter guarantees give "
               f"lambda* of {guaranteed_solutions[1.401][1].lambda_star:.1f} "
               f"and {guaranteed_solutions[1.396][1].lambda_star:.1f} with "
               f"KKT residuals below 1e-6 and amplified tails")


def test_criterion_6_tvar_closed_form_oracle(texp, xlogx100):
    worst = 0.0
    for alpha in (0.8, 0.9, 0.95):
        sc = MarketScenario(theta=0.5, alpha=alpha, epsilon=0.005,
                            benchmark=texp, insurer_survival=texp,
                            generator=xlogx100,
                            distortion=tvar_distortion(alpha))
        vu = worst_case_var(xlogx100, texp, alpha, sc.epsilon)
        for lam in (0.0, 2.0, 40.0):
            part = region_partition(sc, lam, vu)
            xs = np.unique(np.concatenate(
                [np.linspace(0.0, 100.0, 701), [vu, part.x1, part.x2]]))
            for beta in (0.5, 2.0, 40.0):
                a = np.asarray(g_star(xs, beta, lam, sc, vu, part))
                b = np.asarray(tvar_g_star_value(xs, beta, lam, sc, vu))
                worst = max(worst, float(np.max(np.abs(a - b))))
                assert worst <= 1e-8
                if (1 + lam) * 1.5 < 1.0 / (1.0 - alpha):
                    assert np.allclose(a, texp.survival(xs), atol=1e-12)
    _report(6, f"closed forms match the generic search on the 27-point "
               f"sweep (max gap {worst:.2e}); benchmark returned exactly in "
               f"the uncapped regime")


def test_criterion_7_desk_scale_saddle_check(texp, xlogx100):
    started = time.perf_counter()
    alpha = 0.7
    gaps = []
    for eps, lam, case in ((0.1, 0.0, "i"), (0.1, 1.5, "ii"), (0.1, 25.0, "iii")):
        sc = MarketScenario(theta=0.5, alpha=alpha, epsilon=eps,
                            benchmark=texp, insurer_survival=texp,
                            generator=xlogx100,
                            distortion=tvar_distortion(alpha))
        cache = _ScenarioCache(sc)
        ip = _InnerProblem(cache, lam)
        beta_star, _ = ip.solve()
        out = alternating_best_response(sc, lam, beta_star)
        gap = abs(out["final"] - out["analytic"])
        gaps.append(gap)
        assert gap <= 1e-3, f"case {case}: gap {gap:.2e}"
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    _report(7, f"alternating grid play matches the analytic pipeline within "
               f"{max(gaps):.1e} on all three pricing regimes in "
               f"{elapsed:.1f}s")


def test_criterion_8_contract_and_curve_invariants(maxmin_solutions,
                                                   guaranteed_solutions,
                                                   texp, xlogx100):
    contracts = [sol.indemnity for sol in maxmin_solutions.values()]
    contracts += [sol.indemnity for _, sol in guaranteed_solutions.values()]
    for contract in contracts:
        assert contract(0.0) == 0.0
        assert np.all(contract.slopes >= 0.0)
        assert np.all(contract.slopes <= 1.0)
    for _, (sc, sol) in sorted(guaranteed_solutions.items()):
        curve = sol.worst_survival
        assert curve.is_nonincreasing(tol=1e-9)
        assert curve.dominates(
            lambda x: texp.survival(np.clip(x, 0, 100)), tol=1e-9)
        knots = [(float(x), float(1.0 - v))
                 for x, v in zip(curve.grid, curve.values)]
        knots[-1] = (knots[-1][0], 1.0)
        tab = make_tabulated(knots)
        bw = bw_divergence_quantile(xlogx100, tab, texp, tol=1e-9)
        assert bw <= sc.epsilon + 1e-6
    _report(8, f"{len(contracts)} emitted contracts admissible; all "
               f"worst-case curves monotone, above the benchmark, and "
               f"inside the ball within 1e-6")
