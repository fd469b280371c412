"""The kappa-weighted worst/best-case VaR demand model."""

import numpy as np
import pytest

from bwrobust.alpha_maxmin import (maxmin_objective, net_price_H,
                                   net_price_regions, solve_maxmin, thresholds)
from bwrobust.bregman import make_piecewise_quadratic_generator, quadratic_generator
from bwrobust.distributions import make_tabulated, make_truncated_exponential
from bwrobust.indemnity import Indemnity, indemnity_from_sign_regions
from bwrobust.numerics import classify_sign_regions
from bwrobust.scenario import MarketScenario

from conftest import layered_scenario


def closed_form_layers(d1, d2, v_lower, v_upper):
    """Layer corners of the explicit optimal contract for each ordering of
    the deductibles and the extremal VaRs (the oracle of the solver)."""
    if d1 < v_lower < v_upper <= d2:
        return [(d1, v_lower)]
    if d1 < v_lower <= d2 < v_upper:
        return [(d1, v_lower), (d2, v_upper)]
    if v_lower <= d1 <= d2 < v_upper:
        return [(d2, v_upper)]
    if d1 <= d2 < v_lower < v_upper:
        return [(d1, v_upper)]
    return []


def scanned_contract(sq, theta, kappa, v_lower, v_upper, eta):
    """The contract from a sampled sign scan of the net price: 10k points,
    every sign change bisected to 1e-12, a zero band of 1e-11 relative to
    the two cancelling magnitudes."""
    m = sq.support_max

    def price(t):
        return net_price_H(t, theta, kappa, sq, v_upper, v_lower)

    def cancel_scale(t):
        t = np.asarray(t, dtype=float)
        premium_part = (1.0 + theta) * sq.survival(np.clip(t, 0.0, m))
        value_part = kappa * (t <= v_upper) + (1.0 - kappa) * (t <= v_lower)
        return np.maximum(premium_part, value_part)

    d1, d2 = thresholds(sq, theta, kappa)
    extra = [p for p in (d1, d2, *sq.x_breakpoints()) if 0.0 < p < m]
    regions = []
    pieces = [(0.0, min(v_lower, m)), (min(v_lower, m), min(v_upper, m)),
              (min(v_upper, m), m)]
    for lo, hi in pieces:
        if hi - lo <= 1e-15 * max(1.0, m):
            continue
        regions.extend(classify_sign_regions(
            price, lo, hi, n=max(64, int(10_000 * (hi - lo) / m)),
            xtol=1e-12 * max(1.0, m), zero_tol=1e-11, zero_scale=cancel_scale,
            extra_points=[p for p in extra if lo < p < hi]))
    return indemnity_from_sign_regions(regions, m, eta=eta).simplified()


def insurer_with_ties(rng, theta, kappa, m=4.0):
    """Random tabulated CDF on ``[0, m]`` with a flat and an atom edge exactly
    at survival levels ``c / (1 + theta)``, where the net price can vanish."""
    ties = [1.0 - c / (1.0 + theta) for c in (1.0, kappa, 0.0)]
    flat = ties[rng.integers(3)]
    edge = ties[rng.integers(2)]
    jump = rng.uniform(0.02, 0.2)
    lo, hi = ((edge, min(1.0, edge + jump)) if rng.random() < 0.5
              else (max(0.0, edge - jump), edge))
    # (probability, order among equal probabilities); the jump's two knots
    # share one loss, so no other knot may fall inside the jump
    knots = [(p, 0) for p in rng.uniform(0.0, 1.0, size=rng.integers(1, 5))]
    knots += [(flat, 0), (flat, 0), (lo, 1), (hi, 2), (1.0, 3)]
    knots = sorted(k for k in knots if k[1] or not lo < k[0] < hi)
    xs = np.sort(rng.uniform(0.0, m, size=len(knots)))
    xs[-1] = m
    i = knots.index((lo, 1))
    xs[i + 1] = xs[i]
    return make_tabulated([(0.0, 0.0)] + [(x, p) for x, (p, _) in zip(xs, knots)])


class TestNetPrice:
    def test_beyond_worst_case_var(self, texp):
        h = net_price_H(10.0, 0.5, 0.9, texp, v_upper=7.0, v_lower=0.5)
        assert h == pytest.approx(1.5 * texp.survival(10.0))
        assert h >= 0.0

    def test_sign_change_at_d1_inside_lower_region(self, texp):
        d1 = np.log(1.5)
        lo = net_price_H(d1 - 1e-4, 0.5, 0.9, texp, 7.0, 0.56)
        hi = net_price_H(d1 + 1e-4, 0.5, 0.9, texp, 7.0, 0.56)
        assert lo > 0.0 > hi
        assert d1 == pytest.approx(0.406, abs=2e-3)

    def test_full_ambiguity_aversion_reduction(self, texp):
        # kappa = 1 removes the best-case indicator entirely
        xs = np.linspace(0.0, 10.0, 101)
        h = net_price_H(xs, 0.5, 1.0, texp, 7.0, 0.56)
        expected = 1.5 * texp.survival(xs) - (xs <= 7.0)
        assert np.allclose(h, expected)


class TestThresholds:
    def test_values(self, texp):
        d1, d2 = thresholds(texp, 0.5, 0.9)
        assert d1 == pytest.approx(np.log(1.5), abs=1e-9)
        assert d1 == pytest.approx(0.406, abs=2e-3)
        assert d2 == pytest.approx(np.log(5.0 / 3.0), abs=1e-9)
        assert d2 == pytest.approx(0.511, abs=2e-3)

    def test_kappa_zero_clamps_to_support(self, texp):
        _, d2 = thresholds(texp, 0.5, 0.0)
        assert d2 == pytest.approx(100.0)

    def test_ordering(self, texp):
        for kappa in (0.0, 0.3, 0.9, 1.0):
            d1, d2 = thresholds(texp, 0.5, kappa)
            assert d1 <= d2


class TestSolve:
    def test_layered_example(self, maxmin_solutions):
        prev_vu = np.inf
        for k in (1.0, 2.0, 4.0):
            sol = maxmin_solutions[k]
            assert sol.case_id == "worst_cap_low_deductible"
            assert sol.d1 == pytest.approx(0.406, abs=2e-3)
            assert sol.d2 == pytest.approx(0.511, abs=2e-3)
            assert sol.v_lower == pytest.approx(0.563, abs=5e-3)
            # contract equals a deductible-d1 layer capped at the worst VaR
            xs = np.linspace(0.0, 100.0, 4001)
            expected = np.clip(np.minimum(xs, sol.v_upper) - sol.d1, 0.0, None)
            assert np.max(np.abs(sol.indemnity(xs) - expected)) <= 1e-8
            assert sol.v_upper < prev_vu
            prev_vu = sol.v_upper

    def test_coverage_shrinks_with_k(self, maxmin_solutions):
        totals = [maxmin_solutions[k].indemnity.total() for k in (1.0, 2.0, 4.0)]
        assert totals[0] > totals[1] > totals[2]

    def test_best_case_var_unchanged_across_k(self, maxmin_solutions):
        vals = {maxmin_solutions[k].v_lower for k in (1.0, 2.0, 4.0)}
        assert max(vals) - min(vals) <= 1e-9

    def test_collapsed_ball_recovers_classical_contract(self, texp):
        q = texp.quantile(0.95)
        gen = make_piecewise_quadratic_generator(q, 2.0, 100.0)
        sc = MarketScenario(theta=0.5, alpha=0.95, epsilon=1e-10, kappa=0.9,
                            benchmark=texp, insurer_survival=texp,
                            generator=gen)
        sol = solve_maxmin(sc)
        xs = np.linspace(0.0, 10.0, 2001)
        classical = np.clip(np.minimum(xs, q) - np.log(1.5), 0.0, None)
        assert np.max(np.abs(sol.indemnity(xs) - classical)) <= 1e-2
        assert sol.v_upper == pytest.approx(q, abs=1e-2)
        assert sol.v_lower == pytest.approx(q, abs=1e-2)

    def test_no_insurance_when_price_exceeds_value(self):
        # high loading keeps the net price positive below both extremes
        u = make_tabulated([(0.0, 0.0), (1.0, 1.0)])
        gen = quadratic_generator(1.0)
        sc = MarketScenario(theta=9.0, alpha=0.5, epsilon=1e-4, kappa=1.0,
                            benchmark=u, insurer_survival=u, generator=gen)
        sol = solve_maxmin(sc)
        assert sol.case_id == "no_insurance"
        assert sol.indemnity.total() == pytest.approx(0.0, abs=1e-12)

    def test_two_layer_branch(self):
        # engineered orderings d1 < v_lower <= d2 < v_upper
        u = make_tabulated([(0.0, 0.0), (1.0, 1.0)])
        gen = quadratic_generator(1.0)
        sc = MarketScenario(theta=0.8, alpha=0.5, epsilon=2e-5, kappa=0.9,
                            benchmark=u, insurer_survival=u, generator=gen)
        sol = solve_maxmin(sc)
        d1, d2 = sol.d1, sol.d2
        assert d1 < sol.v_lower <= d2 < sol.v_upper
        assert sol.case_id == "two_layers"
        xs = np.linspace(0, 1, 2001)
        expected = (np.clip(np.minimum(xs, sol.v_lower) - d1, 0.0, None)
                    + np.clip(np.minimum(xs, sol.v_upper) - d2, 0.0, None))
        assert np.max(np.abs(sol.indemnity(xs) - expected)) <= 1e-8

    def test_closed_form_layer_map(self):
        assert closed_form_layers(0.1, 0.2, 0.5, 0.9) == [(0.1, 0.9)]
        assert closed_form_layers(0.1, 0.6, 0.5, 0.9) == [(0.1, 0.5), (0.6, 0.9)]
        assert closed_form_layers(0.3, 0.4, 0.2, 0.9) == [(0.4, 0.9)]
        assert closed_form_layers(0.1, 0.2, 0.3, 0.95) == [(0.1, 0.95)]
        assert closed_form_layers(0.5, 0.6, 0.2, 0.4) == []


class TestClosedFormAgainstScan:
    def test_layered_example_is_the_closed_form_layer(self, maxmin_solutions):
        for sol in maxmin_solutions.values():
            (attach, detach), = closed_form_layers(sol.d1, sol.d2, sol.v_lower,
                                                   sol.v_upper)
            xs = sol.indemnity.breakpoints
            assert np.array_equal(sol.indemnity.slopes, [0.0, 1.0, 0.0])
            assert abs(xs[1] - attach) <= 2 * np.spacing(attach)
            assert xs[2] == detach
            assert xs[3] == 100.0

    def test_seeded_draws_match_the_sign_scan(self):
        rng = np.random.default_rng(20261019)
        for draw in range(240):
            theta = float(rng.uniform(0.05, 3.0))
            kappa = (0.0, 1.0, float(rng.uniform(0.0, 1.0)))[draw % 3]
            eta = (0.0, 0.37, 1.0)[(draw // 3) % 3]
            if draw % 4:
                sq = insurer_with_ties(rng, theta, kappa)
            else:
                sq = make_truncated_exponential(float(rng.uniform(0.3, 1.5)), 4.0)
            m = sq.support_max
            v_lower, v_upper = np.sort(rng.uniform(0.0, m, size=2))
            if rng.random() < 0.25:
                v_upper = m
            closed = indemnity_from_sign_regions(
                net_price_regions(sq, theta, kappa, v_lower, v_upper), m,
                eta=eta).simplified()
            scanned = scanned_contract(sq, theta, kappa, v_lower, v_upper, eta)
            bc, bs = closed.breakpoints, scanned.breakpoints
            gaps = np.abs(bc[:, None] - bs[None, :])
            assert max(gaps.min(axis=0).max(), gaps.min(axis=1).max()) <= 1e-8, draw
            xs = rng.uniform(0.0, m, size=2000)
            near = np.abs(xs[:, None] - np.concatenate([bc, bs])).min(axis=1) <= 1e-8
            price = net_price_H(xs, theta, kappa, sq, v_upper, v_lower)
            keep = (np.abs(price) > 1e-9) & ~near
            assert np.array_equal(closed.slope_at(xs[keep]),
                                  scanned.slope_at(xs[keep])), draw


class TestOptimality:
    def test_marginal_price_consistency(self, maxmin_solutions, texp):
        sol = maxmin_solutions[2.0]
        xs = np.linspace(0.0, 100.0, 10_001)
        h = net_price_H(xs, 0.5, 0.9, texp, sol.v_upper, sol.v_lower)
        slopes = sol.indemnity.slope_at(xs)
        tol = 1e-9
        assert np.all(slopes[h < -tol] == 1.0)
        assert np.all(slopes[h > tol] == 0.0)

    def test_no_random_contract_beats_solver(self, maxmin_solutions, texp):
        sol = maxmin_solutions[2.0]
        sc = layered_scenario(texp, 2.0)
        best = maxmin_objective(sol.indemnity, sc, sol.v_upper, sol.v_lower)
        rng = np.random.default_rng(42)
        for _ in range(500):
            pts = np.sort(rng.uniform(0.0, 20.0, size=int(rng.integers(1, 4)) * 2))
            layers = list(zip(pts[::2], pts[1::2]))
            contract = Indemnity.from_layers(layers, 100.0)
            value = maxmin_objective(contract, sc, sol.v_upper, sol.v_lower)
            assert value >= best - 1e-8

    def test_emitted_contract_is_admissible(self, maxmin_solutions):
        for sol in maxmin_solutions.values():
            c = sol.indemnity
            assert c(0.0) == 0.0
            assert np.all(c.slopes >= 0.0) and np.all(c.slopes <= 1.0)
            # slopes are bang-bang for this model
            assert np.all((c.slopes < 1e-12) | (np.abs(c.slopes - 1.0) < 1e-12))


class TestEtaKnob:
    def test_tie_region_slope_follows_eta(self):
        # insurer survival flat at exactly 1/(1+theta) on [0.3, 0.5] creates
        # a genuine zero-price region below the best-case VaR
        theta = 1.0
        level = 1.0 / (1.0 + theta)
        d = make_tabulated([(0.0, 0.0), (0.3, level), (0.5, level), (1.0, 1.0)])
        gen = quadratic_generator(1.0)
        sc = MarketScenario(theta=theta, alpha=0.9, epsilon=1e-4, kappa=1.0,
                            benchmark=d, insurer_survival=d, generator=gen)
        full = solve_maxmin(sc, eta_on_ties=1.0)
        none = solve_maxmin(sc, eta_on_ties=0.0)
        mid = 0.4
        assert full.indemnity.slope_at(mid) == pytest.approx(1.0)
        assert none.indemnity.slope_at(mid) == pytest.approx(0.0)
        # past the flat the price is negative again, whatever eta is
        assert none.indemnity.slope_at(0.6) == pytest.approx(1.0)
