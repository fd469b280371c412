"""Extremal VaR over the divergence ball and its witness distributions."""

import numpy as np
import pytest

from bwrobust.bregman import (bw_divergence_quantile,
                              make_piecewise_quadratic_generator,
                              make_xlogx_generator, pointwise_divergence,
                              quadratic_generator)
from bwrobust.distributions import make_tabulated
from bwrobust.errors import DomainError
from bwrobust.numerics import adaptive_quad
from bwrobust.var_bounds import (_budget_points, best_case_var,
                                 compute_var_bounds, full_upper_budget,
                                 tail_budget, witness_best,
                                 witness_near_worst, worst_case_var)


@pytest.fixture(scope="module")
def unit_quad():
    return quadratic_generator(1.0)


class TestTailBudget:
    def test_upper_analytic(self, unit_quad, uniform01):
        # integral of (D - t)^2 over [1/2, D] is (D - 1/2)^3 / 3
        d = 5.0 / 6.0
        assert tail_budget(unit_quad, uniform01, 0.5, d, "upper") == \
            pytest.approx(1.0 / 81.0, abs=1e-10)

    def test_lower_analytic(self, unit_quad, uniform01):
        d = 1.0 / 6.0
        assert tail_budget(unit_quad, uniform01, 0.5, d, "lower") == \
            pytest.approx(1.0 / 81.0, abs=1e-10)

    def test_vanishes_at_benchmark_quantile(self, unit_quad, uniform01):
        assert tail_budget(unit_quad, uniform01, 0.5, 0.5 + 1e-9, "upper") \
            <= 1e-12

    def test_domain_errors(self, unit_quad, uniform01):
        with pytest.raises(DomainError):
            tail_budget(unit_quad, uniform01, 0.5, 0.3, "upper")
        with pytest.raises(DomainError):
            tail_budget(unit_quad, uniform01, 0.5, 0.7, "lower")
        with pytest.raises(DomainError):
            tail_budget(unit_quad, uniform01, 0.5, 0.7, "sideways")


def quadpack_budget(gen, f0, level, lo, hi):
    """Oracle: the flattening integrand and breakpoints of the panel budgets,
    handed to QUADPACK."""
    return adaptive_quad(
        lambda t: pointwise_divergence(gen, level, f0.quantile(t)),
        lo, hi, points=_budget_points(gen, f0, lo, hi), tol=1e-12)


def exponential_tabulated(rng, support_max=100.0):
    """Exponential-shaped tabulated CDF with one atom in the body."""
    probs = np.array([0.1, 0.25, 0.4, 0.55, 0.7, 0.8, 0.88, 0.93, 0.96,
                      0.98, 0.99, 0.995, 0.998, 0.9995])
    xs = -rng.uniform(0.7, 1.4) * np.log1p(-probs)
    w = rng.uniform(0.02, 0.08)
    i_atom = int(rng.integers(1, 5))
    knots = [(0.0, 0.0)]
    for i, (x, p) in enumerate(zip(xs, probs)):
        if i == i_atom:
            knots.append((x, (1.0 - w) * p))
        knots.append((x, (1.0 - w) * p + w * (i >= i_atom)))
    knots.append((support_max, 1.0))
    return make_tabulated(knots)


class TestPanelBudgets:
    """The Gauss-panel tail budgets against the QUADPACK oracle."""

    def test_seeded_budgets_match_quadpack(self, texp):
        rng = np.random.default_rng(2027)
        n_atoms = 0
        for i in range(6):
            f0 = texp if i % 2 == 0 else exponential_tabulated(rng)
            n_atoms += len(f0.atoms())
            for alpha in (0.9, 0.95, 0.99):
                q = float(f0.quantile(alpha))
                for gen in (quadratic_generator(100.0),
                            make_xlogx_generator(1.0, 100.0),
                            make_piecewise_quadratic_generator(
                                q, float(rng.uniform(0.5, 8.0)), 100.0)):
                    up = float(f0.quantile(rng.uniform(alpha, 1.0 - 1e-4)))
                    down = q * rng.uniform(0.0, 1.0)
                    assert tail_budget(gen, f0, alpha, up, "upper") == \
                        pytest.approx(quadpack_budget(
                            gen, f0, up, alpha, float(f0.cdf(up))), abs=1e-10)
                    assert tail_budget(gen, f0, alpha, down, "lower") == \
                        pytest.approx(quadpack_budget(
                            gen, f0, down, float(f0.cdf(down)), alpha),
                            abs=1e-10)
                    assert full_upper_budget(gen, f0, alpha) == \
                        pytest.approx(quadpack_budget(
                            gen, f0, 100.0, alpha, 1.0), abs=1e-10)
        assert n_atoms == 3


class TestVarBounds:
    def test_uniform_analytic_inversion(self, unit_quad, uniform01):
        assert worst_case_var(unit_quad, uniform01, 0.5, 1.0 / 81.0) == \
            pytest.approx(5.0 / 6.0, abs=1e-6)
        assert best_case_var(unit_quad, uniform01, 0.5, 1.0 / 81.0) == \
            pytest.approx(1.0 / 6.0, abs=1e-6)

    def test_uniform_boundary_branches(self, unit_quad, uniform01):
        # full upper budget is 1/24 < 0.05, so the bound hits the support cap
        assert worst_case_var(unit_quad, uniform01, 0.5, 0.05) == 1.0
        # lower budget at zero is 1/24 < 0.05, so the infimum is zero
        assert best_case_var(unit_quad, uniform01, 0.5, 0.05) == 0.0

    def test_attainment_flags(self, unit_quad, uniform01):
        capped = compute_var_bounds(unit_quad, uniform01, 0.5, 0.05)
        assert capped.attained_upper and capped.attained_lower
        interior = compute_var_bounds(unit_quad, uniform01, 0.5, 1.0 / 81.0)
        assert not interior.attained_upper
        assert interior.attained_lower

    def test_layered_example_values(self, texp):
        # independent closed-form oracle for the budgets of the layered
        # demand example: both sides reduce to weighted quadratic integrals
        # against the exponential density
        q = texp.quantile(0.95)
        norm = 1.0 - np.exp(-100.0)

        def upper_budget(d, k):
            w = d - q
            return k * np.exp(-q) * (w * w - 2 * w + 2 - 2 * np.exp(-w)) / norm

        def lower_budget(d):
            w = q - d
            return np.exp(-d) * (2 - np.exp(-w) * (w * w + 2 * w + 2)) / norm

        from scipy.optimize import brentq
        for k in (1.0, 2.0, 4.0):
            gen = make_piecewise_quadratic_generator(q, k, 100.0)
            oracle = brentq(lambda d: upper_budget(d, k) - 0.5, q + 1e-9, 50.0,
                            xtol=1e-12)
            assert worst_case_var(gen, texp, 0.95, 0.5) == \
                pytest.approx(oracle, abs=1e-6)
        gen = make_piecewise_quadratic_generator(q, 2.0, 100.0)
        oracle = brentq(lambda d: lower_budget(d) - 0.5, 0.0, q - 1e-9,
                        xtol=1e-12)
        low = best_case_var(gen, texp, 0.95, 0.5)
        assert low == pytest.approx(oracle, abs=1e-6)
        assert low == pytest.approx(0.563, abs=5e-3)

    def test_monotone_in_epsilon_and_sandwich(self, texp):
        q = texp.quantile(0.95)
        gen = make_piecewise_quadratic_generator(q, 2.0, 100.0)
        prev = None
        for eps in (0.05, 0.2, 0.5, 1.0):
            b = compute_var_bounds(gen, texp, 0.95, eps)
            assert b.v_lower <= q <= b.v_upper
            if prev is not None:
                assert b.v_upper >= prev.v_upper - 1e-9
                assert b.v_lower <= prev.v_lower + 1e-9
            prev = b

    def test_extra_convexity_never_raises_upper(self, texp):
        q = texp.quantile(0.95)
        g1 = make_piecewise_quadratic_generator(q, 1.0, 100.0)
        g2 = make_piecewise_quadratic_generator(q, 3.0, 100.0)
        assert worst_case_var(g2, texp, 0.95, 0.5) <= \
            worst_case_var(g1, texp, 0.95, 0.5) + 1e-9

    def test_discretized_greedy_oracle(self, unit_quad, uniform01):
        # flatten the discretized quantile over the widest window the budget
        # allows; the continuous bounds must land within one grid step
        n = 200
        ts = (np.arange(n) + 0.5) / n
        qs = uniform01.quantile(ts)
        eps = 1.0 / 81.0
        alpha = 0.5

        best_up = qs[np.searchsorted(ts, alpha)]
        for d in np.linspace(alpha + 1e-3, 1.0, 400):
            sel = (ts >= alpha) & (qs <= d)
            cost = np.sum(pointwise_divergence(unit_quad, d, qs[sel])) / n
            if cost <= eps:
                best_up = max(best_up, d)
        vu = worst_case_var(unit_quad, uniform01, alpha, eps)
        assert abs(vu - best_up) <= 2.0 / n + 1e-3

        best_lo = qs[np.searchsorted(ts, alpha)]
        for d in np.linspace(alpha - 1e-3, 0.0, 400):
            sel = (ts <= alpha) & (qs >= d)
            cost = np.sum(pointwise_divergence(unit_quad, d, qs[sel])) / n
            if cost <= eps:
                best_lo = min(best_lo, d)
        vl = best_case_var(unit_quad, uniform01, alpha, eps)
        assert abs(vl - best_lo) <= 2.0 / n + 1e-3


class TestAuditFeasibility:
    """The benchmark audit's checks of the VaR bounds and witnesses, with no
    slack on the ball: each witness lies inside it, ``v_upper`` is the first
    level whose budget reaches epsilon and ``v_lower`` is within budget."""

    def test_seeded_witness_draws(self, texp, xlogx100):
        rng = np.random.default_rng(4099)
        m = texp.support_max
        for i in range(16):
            alpha = (0.95, 0.9)[i % 2]
            q = float(texp.quantile(alpha))
            gen = xlogx100 if i % 4 == 3 else \
                make_piecewise_quadratic_generator(q, 4.0 ** rng.random(), m)
            eps = float(np.exp(np.log(0.1) + rng.random() * np.log(8.0)))
            vu = worst_case_var(gen, texp, alpha, eps)
            vl = best_case_var(gen, texp, alpha, eps)
            assert vu < m
            assert tail_budget(gen, texp, alpha, vu, "upper") >= eps
            assert tail_budget(gen, texp, alpha, vu - 1e-8 * max(1.0, m),
                               "upper") < eps
            assert tail_budget(gen, texp, alpha, vl, "lower") <= eps
            near = witness_near_worst(gen, texp, alpha, eps, 1e-3)
            best = witness_best(gen, texp, alpha, eps)
            assert near.quantile(alpha) >= vu - 1e-3
            assert best.quantile(alpha) == vl
            assert bw_divergence_quantile(gen, near, texp) <= eps
            assert bw_divergence_quantile(gen, best, texp) <= eps


class TestWitnesses:
    def test_near_worst_var_and_feasibility(self, texp):
        q = texp.quantile(0.95)
        gen = make_piecewise_quadratic_generator(q, 2.0, 100.0)
        vu = worst_case_var(gen, texp, 0.95, 0.5)
        for delta in (0.1, 0.01):
            w = witness_near_worst(gen, texp, 0.95, 0.5, delta)
            assert w.quantile(0.95) == pytest.approx(vu - delta, abs=1e-12)
            assert bw_divergence_quantile(gen, w, texp) <= 0.5

    def test_near_worst_matches_benchmark_outside_window(self, texp):
        q = texp.quantile(0.95)
        gen = make_piecewise_quadratic_generator(q, 2.0, 100.0)
        w = witness_near_worst(gen, texp, 0.95, 0.5, 0.1)
        for t in (0.05, 0.3, w.t_lo * 0.99, 0.999):
            assert w.quantile(t) == pytest.approx(texp.quantile(t))

    @pytest.mark.parametrize("alpha, eps", [(0.95, 0.21), (0.9, 0.786)])
    def test_near_worst_where_the_window_closes_in_the_deep_tail(
            self, texp, xlogx100, alpha, eps):
        # F0(v_upper - delta) lies within 1e-5 of 1, where rounding it left
        # the base quantile short of the flat level at the window's end
        vu = worst_case_var(xlogx100, texp, alpha, eps)
        w = witness_near_worst(xlogx100, texp, alpha, eps, 1e-3)
        assert bw_divergence_quantile(xlogx100, w, texp) <= eps
        assert w.quantile(alpha) >= vu - 1e-3

    def test_near_worst_delta_validation(self, texp):
        q = texp.quantile(0.95)
        gen = make_piecewise_quadratic_generator(q, 2.0, 100.0)
        with pytest.raises(DomainError):
            witness_near_worst(gen, texp, 0.95, 0.5, 50.0)

    def test_best_attains_bound(self, unit_quad, uniform01, texp):
        w = witness_best(unit_quad, uniform01, 0.5, 1.0 / 81.0)
        assert w.quantile(0.5) == pytest.approx(1.0 / 6.0, abs=1e-6)
        # flat at the attained level across the collapsed window
        for t in (0.2, 0.35, 0.49):
            assert w.quantile(t) == pytest.approx(w.quantile(0.5), abs=1e-9)
        assert bw_divergence_quantile(unit_quad, w, uniform01) <= 1.0 / 81.0 + 1e-9

        q = texp.quantile(0.95)
        gen = make_piecewise_quadratic_generator(q, 2.0, 100.0)
        wb = witness_best(gen, texp, 0.95, 0.5)
        assert wb.quantile(0.95) == pytest.approx(
            best_case_var(gen, texp, 0.95, 0.5), abs=1e-12)
        assert bw_divergence_quantile(gen, wb, texp) <= 0.5 + 1e-9
