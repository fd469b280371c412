"""Closed-form specialization under the expected-shortfall distortion."""

import numpy as np
import pytest

from bwrobust.distortions import tvar_distortion
from bwrobust.errors import DomainError
from bwrobust.guaranteed_var import g_hat, g_star, region_partition
from bwrobust.numerics import refine_edges
from bwrobust.scenario import MarketScenario
from bwrobust.tvar import classify_case, tvar_g_hat, tvar_g_star_value
from bwrobust.var_bounds import worst_case_var

from conftest import guaranteed_scenario


@pytest.fixture(scope="module")
def scenario(texp, xlogx100):
    return guaranteed_scenario(texp, xlogx100, 1.406)


@pytest.fixture(scope="module")
def v_upper(scenario):
    return worst_case_var(scenario.generator, scenario.benchmark,
                          scenario.alpha, scenario.epsilon)


class TestClassify:
    def test_case_i_at_lambda_zero(self, texp):
        report = classify_case(0.0, 0.5, 0.95, texp, 5.0)
        assert report.case_id == "i"
        assert report.x_tilde == pytest.approx(texp.quantile(0.95))

    def test_boundary_routes_to_case_ii(self, texp, v_upper):
        # (1 + lam)(1 + theta) exactly at the distortion slope
        lam = 1.0 / (0.05 * 1.5) - 1.0
        report = classify_case(lam, 0.5, 0.95, texp, v_upper)
        assert report.case_id == "ii"

    def test_case_iii_beyond_cap_level(self, texp, v_upper):
        s_vu = texp.survival(v_upper)
        lam = 1.0 / (s_vu * 1.5) - 1.0 + 1.0
        report = classify_case(lam, 0.5, 0.95, texp, v_upper)
        assert report.case_id == "iii"

    def test_x_hat_clamps_to_support(self, texp, xlogx100):
        # marginal inverse of the log generator: [phi']^{-1}(u) = e^{u-1} - 1
        report = classify_case(20.0, 0.5, 0.95, texp, 5.0, gen=xlogx100,
                               beta=1.0)
        x_tilde = texp.quantile(0.95)
        raw = np.exp(np.log(x_tilde + 1.0) + 20.0 - 1.0) - 1.0
        assert raw > 100.0
        assert report.x_hat == pytest.approx(100.0)

    def test_unsupported_regime(self, texp):
        with pytest.raises(DomainError):
            classify_case(0.0, 30.0, 0.95, texp, 5.0)


class TestGHatPieces:
    def test_benchmark_piece(self, texp, xlogx100):
        x_tilde = texp.quantile(0.95)
        xs = np.linspace(0.0, x_tilde * 0.999, 65)
        vals = tvar_g_hat(xs, 2.0, 0.95, texp, xlogx100)
        assert np.allclose(vals, texp.survival(xs), atol=1e-12)

    def test_plateau_piece(self, texp, xlogx100):
        # beta small enough that the handover point exceeds the support
        xs = np.linspace(texp.quantile(0.95) + 0.01, 100.0, 65)
        vals = tvar_g_hat(xs, 0.5, 0.95, texp, xlogx100)
        assert np.allclose(vals, 0.05, atol=1e-12)

    def test_shifted_survival_piece(self, texp, xlogx100):
        beta = 40.0
        shift = 1.0 / (beta * 0.05)
        x_tilde = texp.quantile(0.95)
        x_hat = float(xlogx100.dphi_inv(xlogx100.dphi(x_tilde) + shift))
        xs = np.linspace(x_hat + 0.1, 30.0, 33)
        args = xlogx100.dphi_inv(np.asarray(xlogx100.dphi(xs)) - shift)
        vals = tvar_g_hat(xs, beta, 0.95, texp, xlogx100)
        assert np.allclose(vals, texp.survival(args), atol=1e-12)

    def test_beta_zero_delegates(self, texp, xlogx100):
        xs = np.linspace(0.0, 100.0, 33)
        vals = tvar_g_hat(xs, 0.0, 0.95, texp, xlogx100)
        assert np.allclose(vals, np.maximum(0.05, texp.survival(xs)), atol=1e-15)

    def test_matches_generic_search(self, scenario, texp, xlogx100):
        xs = np.linspace(0.0, 100.0, 801)
        for beta in (0.5, 2.0, 40.0):
            closed = tvar_g_hat(xs, beta, 0.95, texp, xlogx100)
            generic = g_hat(xs, beta, scenario)
            assert np.max(np.abs(closed - generic)) <= 1e-8

    def test_plateau_level_hit_by_generic_search(self, scenario, texp):
        x_tilde = texp.quantile(0.95)
        xs = np.linspace(x_tilde + 0.05, x_tilde + 2.0, 33)
        generic = g_hat(xs, 0.5, scenario)
        assert np.max(np.abs(generic - 0.05)) <= 1e-8


class TestGStarClosedForms:
    def test_case_i_identity(self, scenario, texp, v_upper):
        xs = np.linspace(0.0, 100.0, 257)
        vals = tvar_g_star_value(xs, 1.0, 0.0, scenario, v_upper)
        assert np.allclose(vals, texp.survival(xs), atol=1e-14)
        # a 4,000-cell grid through the curve's knots
        report = classify_case(0.0, 0.5, 0.95, texp, v_upper,
                               gen=scenario.generator, beta=1.0)
        x2 = float(np.clip(texp.survival_inverse_right(1.0 / 1.5), v_upper, 100))
        knots = [v_upper, report.x_tilde, min(report.x_hat, 100.0), x2]
        grid = refine_edges(knots, 0.0, 100.0, max_cell=100.0 / 4000)
        vals = tvar_g_star_value(grid, 1.0, 0.0, scenario, v_upper)
        assert np.allclose(vals, texp.survival(grid), atol=1e-14)

    def test_case_ii_scaled_tail(self, scenario, texp, v_upper):
        lam = 30.0
        beta = 0.5  # plateau handover beyond the support
        load = (1 + lam) * 1.5
        xs = np.linspace(v_upper, 30.0, 129)
        vals = tvar_g_star_value(xs, beta, lam, scenario, v_upper)
        expected = np.minimum(0.05, 0.05 * load * texp.survival(xs))
        assert np.allclose(vals, expected, atol=1e-12)

    def test_case_iii_plateau_between(self, scenario, texp, v_upper):
        s_vu = texp.survival(v_upper)
        lam = 1.0 / (1.5 * s_vu) + 3.0
        load = (1 + lam) * 1.5
        report = classify_case(lam, 0.5, 0.95, texp, v_upper,
                               gen=scenario.generator, beta=0.5)
        assert report.case_id == "iii"
        assert report.sub_case == "x_hat_gt_x2"
        x2 = float(texp.survival_inverse_right(1.0 / load))
        mid = 0.5 * (v_upper + x2)
        val = tvar_g_star_value(mid, 0.5, lam, scenario, v_upper)
        assert val == pytest.approx(0.05, abs=1e-12)

    def test_oracle_equivalence_sweep(self, texp, xlogx100):
        # the acceptance suite runs the full 27-point sweep; spot-check here
        worst = 0.0
        for alpha in (0.9, 0.95):
            sc = guaranteed_scenario(texp, xlogx100, 1.406, alpha=alpha)
            vu = worst_case_var(xlogx100, texp, alpha, sc.epsilon)
            for lam in (0.0, 40.0):
                part = region_partition(sc, lam, vu)
                xs = np.unique(np.concatenate(
                    [np.linspace(0.0, 100.0, 501), [vu, part.x1, part.x2]]))
                for beta in (0.7, 20.0):
                    a = g_star(xs, beta, lam, sc, vu, part)
                    b = tvar_g_star_value(xs, beta, lam, sc, vu)
                    worst = max(worst, float(np.max(np.abs(a - b))))
        assert worst <= 1e-8

    def test_requires_matching_beliefs(self, texp, xlogx100):
        from bwrobust.distributions import make_truncated_exponential

        other = make_truncated_exponential(2.0, 100.0)
        sc = MarketScenario(theta=0.5, alpha=0.95, epsilon=0.005,
                            benchmark=texp, insurer_survival=other,
                            generator=xlogx100,
                            distortion=tvar_distortion(0.95))
        with pytest.raises(DomainError):
            tvar_g_star_value(1.0, 1.0, 0.0, sc, 5.0)
