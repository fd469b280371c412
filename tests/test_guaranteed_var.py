"""Guaranteed worst-case-VaR model: adversary curves, multipliers, KKT."""

import numpy as np
import pytest

from bwrobust.bregman import (bw_divergence_quantile,
                              make_piecewise_quadratic_generator,
                              make_xlogx_generator, quadratic_generator)
from bwrobust.distortions import power_distortion, tvar_distortion
from bwrobust.distributions import make_tabulated
from bwrobust.errors import DomainError, InfeasibleError
from bwrobust.guaranteed_var import (SurvivalCurve, _calibrate_eta,
                                     _g_hat_bisect, _InnerProblem,
                                     _ScenarioCache,
                                     alternating_best_response,
                                     g_hat, g_star, indemnity_from_survival,
                                     modified_survival, net_price,
                                     region_partition, solve_inner,
                                     solve_problem2)
from bwrobust.numerics import adaptive_quad, gauss_nodes_weights
from bwrobust.scenario import MarketScenario
from bwrobust.var_bounds import worst_case_var

from conftest import guaranteed_scenario


@pytest.fixture(scope="module")
def tvar_scenario(texp, xlogx100):
    return guaranteed_scenario(texp, xlogx100, 1.406)


@pytest.fixture(scope="module")
def v_upper(tvar_scenario):
    return worst_case_var(tvar_scenario.generator, tvar_scenario.benchmark,
                          tvar_scenario.alpha, tvar_scenario.epsilon)


class TestNetPrice:
    def test_direct_value(self, texp, xlogx100):
        sc = guaranteed_scenario(texp, xlogx100, 1.406)
        x = texp.quantile(0.5)  # S_Q(x) = 0.5
        h = net_price(x, texp.survival, 0.0, sc, v_upper=7.0)
        assert h == pytest.approx(1.5 * 0.5 - 1.0, abs=1e-9)

    def test_positive_beyond_cap_for_large_lambda(self, texp, xlogx100):
        sc = guaranteed_scenario(texp, xlogx100, 1.406, alpha=0.5)
        x = 3.0
        h = net_price(x, texp.survival, 50.0, sc, v_upper=2.0)
        assert h > 0.0

    def test_decreasing_in_curve_level(self, texp, xlogx100, v_upper):
        sc = guaranteed_scenario(texp, xlogx100, 1.406)
        x = 2.0
        lows = net_price(x, lambda _: 0.2, 1.0, sc, v_upper)
        high = net_price(x, lambda _: 0.8, 1.0, sc, v_upper)
        assert high <= lows


class TestRegionPartition:
    def test_x1_threshold(self, tvar_scenario, v_upper):
        part = region_partition(tvar_scenario, 0.0, v_upper)
        assert part.x1 == pytest.approx(np.log(1.5), abs=1e-9)

    def test_x1_at_an_insurer_knot(self, texp, xlogx100):
        # the insurer survival reaches 1/(1 + theta) = 0.5 at its knot x = 2
        # and keeps falling, so the level set ends there, not at the next knot
        insurer = make_tabulated([(0, 0), (2, 0.5), (10, 0.97), (100, 1)])
        sc = MarketScenario(theta=1.0, alpha=0.95, epsilon=0.005,
                            benchmark=texp, insurer_survival=insurer,
                            generator=xlogx100, distortion=tvar_distortion(0.95),
                            acceptable_var=20.0)
        assert region_partition(sc, 0.0, 20.0).x1 == 2.0

    def test_x2_collapses_at_lambda_zero(self, tvar_scenario, v_upper):
        part = region_partition(tvar_scenario, 0.0, v_upper)
        assert part.x2 == pytest.approx(v_upper, abs=1e-12)

    def test_x2_grows_toward_support_with_lambda(self, tvar_scenario, v_upper):
        parts = [region_partition(tvar_scenario, lam, v_upper).x2
                 for lam in (20.0, 200.0, 1e6, 1e45)]
        assert all(b >= a - 1e-12 for a, b in zip(parts, parts[1:]))
        assert parts[-1] > 99.0

    def test_case_i_is_all_fully_ceded(self, tvar_scenario, v_upper):
        part = region_partition(tvar_scenario, 0.0, v_upper)
        # the price vanishes exactly at x1, so a measure-zero capped sliver
        # at the left endpoint is legitimate; everything else is ceded
        total_a = sum(hi - lo for lo, hi in part.a1 + part.a2)
        assert total_a <= 1e-8
        total_b = sum(hi - lo for lo, hi in part.b1 + part.b2)
        assert total_b == pytest.approx(100.0 - part.x1, abs=1e-6)


class TestGHat:
    def test_beta_zero_branch(self, tvar_scenario):
        xs = np.linspace(0.0, 100.0, 101)
        vals = g_hat(xs, 0.0, tvar_scenario)
        expected = np.maximum(0.05, tvar_scenario.benchmark.survival(xs))
        assert np.allclose(vals, expected, atol=1e-12)

    def test_matches_benchmark_below_its_quantile(self, tvar_scenario, texp):
        x_tilde = texp.quantile(0.95)
        xs = np.linspace(0.0, x_tilde * 0.999, 64)
        vals = g_hat(xs, 2.0, tvar_scenario)
        assert np.allclose(vals, texp.survival(xs), atol=1e-10)

    def test_against_direct_maximization(self, tvar_scenario, texp, xlogx100):
        # brute-force the pointwise objective K(t; x) on a fine t-grid
        cache = _ScenarioCache(tvar_scenario, v_upper=5.0)
        beta = 1.5
        for x in (0.5, 2.0, 3.5, 8.0, 30.0):
            s0 = texp.survival(x)
            ts = np.linspace(s0, 1.0, 200_001)
            k_vals = (tvar_scenario.distortion.g(ts)
                      - beta * ((xlogx100.dphi(x) - xlogx100.dphi(0.0)) * ts
                                - cache.w_of_s(ts)))
            brute = ts[int(np.argmax(k_vals))]
            assert g_hat(x, beta, tvar_scenario) == pytest.approx(
                brute, abs=2e-5)

    def test_monotone_nonincreasing_left_of_x1(self, tvar_scenario):
        xs = np.linspace(0.0, np.log(1.5), 200)
        vals = g_hat(xs, 1.0, tvar_scenario)
        assert np.all(np.diff(vals) <= 1e-10)


class TestTvarMaximizer:
    """The TVaR distortion's closed-form maximizer against the bisection."""

    BENCHMARKS = {
        "atom": [(0, 0.0), (2, 0.6), (2, 0.8), (10, 1.0)],
        # the atom at 0 leaves S0(0) = 0.03 below the tail mass 0.05
        "atom_at_zero": [(0, 0.0), (0, 0.97), (5, 0.99), (5, 0.995), (10, 1.0)],
    }

    @pytest.mark.parametrize("name", ["texp", "atom", "atom_at_zero"])
    @pytest.mark.parametrize("gen_kind", ["xlogx", "quadratic", "piecewise"])
    def test_matches_bisection(self, texp, name, gen_kind):
        bench = texp if name == "texp" else make_tabulated(self.BENCHMARKS[name])
        m = bench.support_max
        gen = {"xlogx": make_xlogx_generator(1.0, m),
               "quadratic": quadratic_generator(m),
               "piecewise": make_piecewise_quadratic_generator(0.3 * m, 3.0, m),
               }[gen_kind]
        knots = np.asarray(bench.x_breakpoints(), dtype=float)
        # random points: where phi'(x) - 1/(beta (1-a)) equals phi' at an atom
        # exactly (x = 5.005 on a round grid, quadratic generator, beta = 1e3),
        # k' vanishes across the atom's survival gap, every level in the gap
        # is a maximizer, and the bisection's rounding takes its upper end
        rng = np.random.default_rng(8)
        xs = np.unique(np.concatenate([
            rng.uniform(0.0, m, 2000), [0.0, m], knots,
            np.clip(np.nextafter(knots, -np.inf), 0.0, m)]))
        s0 = bench.survival(xs)
        phix = np.asarray(gen.dphi(xs), dtype=float)
        for alpha in (0.9, 0.95):
            sc = MarketScenario(theta=0.5, alpha=alpha, epsilon=0.01,
                                benchmark=bench, insurer_survival=bench,
                                generator=gen, distortion=tvar_distortion(alpha))
            for beta in (0.0, 1e-3, 0.3, 1.0, 34.6, 1e3):
                closed = g_hat(xs, beta, sc)
                bisected = _g_hat_bisect(phix, s0, beta, sc)
                assert np.max(np.abs(closed - bisected)) <= 1e-10, (alpha, beta)

    def test_power_distortion_keeps_the_bisection(self, texp, xlogx100):
        sc = MarketScenario(theta=0.5, alpha=0.9, epsilon=0.01, benchmark=texp,
                            insurer_survival=texp, generator=xlogx100,
                            distortion=power_distortion(0.5))
        assert sc.distortion.maximizer is None
        xs = np.linspace(0.0, 100.0, 101)
        expected = _g_hat_bisect(np.asarray(xlogx100.dphi(xs)),
                                 texp.survival(xs), 2.0, sc)
        assert np.array_equal(g_hat(xs, 2.0, sc), expected)


class TestGStar:
    def test_fully_ceded_regions_keep_benchmark(self, tvar_scenario, texp,
                                                v_upper):
        part = region_partition(tvar_scenario, 30.0, v_upper)
        for lo, hi in part.b1:
            mid = 0.5 * (lo + hi)
            val = g_star(mid, 1.0, 30.0, tvar_scenario, v_upper, part)
            assert val == pytest.approx(texp.survival(mid), abs=1e-12)

    def test_case_i_returns_benchmark(self, tvar_scenario, texp, v_upper):
        part = region_partition(tvar_scenario, 0.0, v_upper)
        xs = np.linspace(0.0, 100.0, 257)
        vals = g_star(xs, 1.0, 0.0, tvar_scenario, v_upper, part)
        assert np.allclose(vals, texp.survival(xs), atol=1e-12)

    def test_upward_jump_with_concave_power_distortion(self, texp, xlogx100):
        # parameters placing the point just left of the worst-case VaR in a
        # capped region and the point itself in the tail capped region
        lam, theta, alpha = 0.2, 0.5, 0.40
        sc = MarketScenario(theta=theta, alpha=alpha, epsilon=1e-4,
                            benchmark=texp, insurer_survival=texp,
                            generator=xlogx100,
                            distortion=power_distortion(0.5))
        vu = worst_case_var(xlogx100, texp, alpha, sc.epsilon)
        part = region_partition(sc, lam, vu)
        s_vu = texp.survival(vu)
        load = (1.0 + lam) * (1.0 + theta)
        h_left = load * s_vu - np.sqrt(s_vu) - lam
        assert h_left >= 0.0  # just left of the VaR: capped, not ceded
        assert part.x2 == pytest.approx(vu, abs=1e-9)
        left = g_star(vu * (1 - 1e-12), 0.0, lam, sc, vu, part)
        right = g_star(vu, 0.0, lam, sc, vu, part)
        assert left == pytest.approx((load * s_vu - lam) ** 2, abs=1e-9)
        assert right == pytest.approx((load * s_vu) ** 2, abs=1e-9)
        assert left < right


class TestModifiedSurvival:
    def build_jump_curve(self):
        grid = np.array([0.0, 1.0, 2.0, 2.0, 3.0, 4.0])
        vals = np.array([1.0, 0.8, 0.6, 0.9, 0.5, 0.0])
        return SurvivalCurve(grid, vals)

    def test_no_jump_returns_curve_unchanged(self):
        grid = np.linspace(0.0, 4.0, 9)
        vals = np.linspace(1.0, 0.0, 9)
        curve = SurvivalCurve(grid, vals)
        out = modified_survival(curve, curve(2.0), 2.0)
        assert np.allclose(out(grid), vals, atol=1e-12)

    def test_flat_bridges_jump(self):
        curve = self.build_jump_curve()
        out = modified_survival(curve, 0.75, 2.0)
        assert out.is_nonincreasing(tol=1e-12)
        assert out(2.0) == pytest.approx(0.75)
        # exact crossings inserted: the flat starts where values hit 0.75
        xs = np.linspace(0.0, 4.0, 401)
        assert np.min(np.abs(out(xs) - 0.75)) <= 1e-12

    def test_boundary_level_flattens_one_side(self):
        curve = self.build_jump_curve()
        out = modified_survival(curve, 0.9, 2.0)
        assert out.is_nonincreasing(tol=1e-12)
        assert out(1.9) == pytest.approx(0.9)

    def test_level_outside_interval_rejected(self):
        curve = self.build_jump_curve()
        with pytest.raises(DomainError):
            modified_survival(curve, 0.3, 2.0)


class TestBatchedInnerEvaluations:
    """The array passes of the inner solve against per-level and per-cell
    evaluations of the same quantities."""

    @pytest.fixture(scope="class")
    def binding_inner(self, texp, xlogx100):
        # the multipliers of the A = 1.401 solution: the relaxed curve jumps
        # up at the worst-case VaR, so the flat level has a real interval
        sc = guaranteed_scenario(texp, xlogx100, 1.401)
        ip = _InnerProblem(_ScenarioCache(sc), 53.5)
        return ip, 34.6

    def test_flat_level_values_match_per_level_objective(self, binding_inner):
        ip, beta = binding_inner
        blo, bhi = ip.admissible_b(beta)
        assert bhi - blo > 1e-3
        bs = np.linspace(blo, bhi, 65)
        batched = ip.flat_level_values(beta, bs)
        gstar = ip._node_curves(beta)["gstar"]
        per_level = np.array([ip.lagrangian_nodes(ip.clip_values(gstar, b), beta)
                              for b in bs])
        assert np.allclose(batched, per_level, rtol=1e-12, atol=0.0)

    def test_refined_budget_matches_per_cell_loop(self, binding_inner):
        ip, beta = binding_inner
        b, _ = ip.best_b(beta)
        gstar = ip._node_curves(beta)["gstar"]
        svals = ip.clip_values(gstar, b)
        ncell = len(ip.edges) - 1
        base_cells = (ip.cache.phi_budget_values(ip.nodes, svals)
                      * ip.weights).reshape(ncell, 7).sum(axis=1)
        flags = ip._flag_cells(gstar.reshape(ncell, 7), svals.reshape(ncell, 7), b)
        assert flags.any()
        total = float(base_cells.sum())
        for i in np.nonzero(flags)[0]:
            nodes, weights = gauss_nodes_weights(
                np.linspace(ip.edges[i], ip.edges[i + 1], 17))
            gs = g_star(nodes, beta, ip.lam, ip.sc, ip.vu, ip.partition)
            sv = np.where(nodes < ip.vu, np.maximum(gs, b), np.minimum(gs, b))
            total += float(np.dot(weights, ip.cache.phi_budget_values(nodes, sv))
                           - base_cells[i])
        assert ip._refined_budget(beta, b) == pytest.approx(total, rel=1e-12,
                                                            abs=1e-15)


class TestPsiAndInner:
    def test_case_i_budget_identity(self, tvar_scenario, texp, xlogx100):
        # at lambda = 0 the adversary keeps the benchmark, whose budget
        # equals -int d2phi(y) y S0(y) dy by the survival representation
        cache = _ScenarioCache(tvar_scenario)
        val = _InnerProblem(cache, 0.0).psi(0.0)[0]
        oracle = -adaptive_quad(
            lambda y: float(xlogx100.d2phi(y)) * y * texp.survival(min(y, 100.0)),
            0.0, 100.0, tol=1e-11)
        assert val == pytest.approx(oracle, abs=1e-7)

    def test_inner_case_i(self, tvar_scenario, texp):
        curve, beta_star, b_star = solve_inner(0.0, tvar_scenario)
        assert beta_star == 0.0
        assert np.allclose(curve.values, texp.survival(np.clip(curve.grid, 0, 100)),
                           atol=1e-12)

    def test_budget_root_and_feasibility(self, texp, xlogx100):
        # small ball, large multiplier: the budget constraint must bind
        sc = guaranteed_scenario(texp, xlogx100, 1.40, epsilon=5e-4)
        cache = _ScenarioCache(sc)
        ip = _InnerProblem(cache, 30.0)
        beta_star, b_star = ip.solve()
        assert beta_star > 0.0
        val, _ = ip.psi(beta_star)
        assert abs(val - cache.zeta) <= 1e-6 * max(1.0, abs(cache.zeta))
        curve = ip.materialize(beta_star, b_star)
        assert curve.is_nonincreasing(tol=1e-9)
        assert curve.dominates(lambda x: texp.survival(np.clip(x, 0, 100)),
                               tol=1e-9)
        # independent ball check through the quantile representation
        knots = [(float(x), float(1.0 - v))
                 for x, v in zip(curve.grid, curve.values)]
        knots[-1] = (knots[-1][0], 1.0)
        tab = make_tabulated(knots)
        bw = bw_divergence_quantile(xlogx100, tab, texp, tol=1e-9)
        assert bw <= sc.epsilon + 1e-6

    def test_psi_nonincreasing_scan(self, texp, xlogx100):
        sc = guaranteed_scenario(texp, xlogx100, 1.40, epsilon=5e-4)
        cache = _ScenarioCache(sc)
        ip = _InnerProblem(cache, 30.0)
        vals = [ip.psi(b)[0] for b in (0.0, 5.0, 20.0, 80.0)]
        assert all(b <= a + 1e-9 for a, b in zip(vals, vals[1:]))

    def test_lagrangian_dominance_over_random_feasible_curves(self, texp,
                                                              xlogx100):
        sc = guaranteed_scenario(texp, xlogx100, 1.40, epsilon=5e-4)
        cache = _ScenarioCache(sc)
        lam = 30.0
        ip = _InnerProblem(cache, lam)
        beta_star, b_star = ip.solve()
        star_vals = ip.clip_values(ip._node_curves(beta_star)["gstar"], b_star)
        best = ip.lagrangian_nodes(star_vals, beta_star)
        rng = np.random.default_rng(11)
        s0 = ip.s0
        count = 0
        while count < 100:
            # random monotone bump above the benchmark, scaled into the ball
            centre = rng.uniform(0.5, 8.0)
            width = rng.uniform(0.2, 3.0)
            height = rng.uniform(0.0, 0.3)
            bump = height * np.exp(-np.maximum(ip.nodes - centre, 0.0) / width)
            cand = np.clip(np.maximum(s0, np.minimum(1.0, s0 + bump)), 0.0, 1.0)
            cand = np.minimum.accumulate(np.maximum(cand, s0))
            cand = np.maximum(cand, s0)
            if ip.phi_budget(cand) > cache.zeta:
                continue  # outside the ball: not a feasible perturbation
            count += 1
            assert ip.lagrangian_nodes(cand, beta_star) <= best + 1e-7


class TestIndemnityFromSurvival:
    def test_zero_contract_when_price_positive(self, texp, xlogx100, v_upper):
        overpriced = MarketScenario(theta=30.0, alpha=0.95, epsilon=0.005,
                                    benchmark=texp, insurer_survival=texp,
                                    generator=xlogx100,
                                    distortion=tvar_distortion(0.95))
        contract = indemnity_from_survival(texp.survival, 0.0, overpriced,
                                           v_upper)
        assert contract.total() == pytest.approx(0.0, abs=1e-12)

    def test_classical_stop_loss_at_lambda_zero(self, tvar_scenario, texp,
                                                v_upper):
        contract = indemnity_from_survival(texp.survival, 0.0, tvar_scenario,
                                           v_upper)
        xs = np.linspace(0.0, 50.0, 2001)
        expected = np.clip(xs - np.log(1.5), 0.0, None)
        assert np.max(np.abs(contract(xs) - expected)) <= 1e-7

    def test_eta_dial_on_structural_zero_set(self, texp, xlogx100):
        sc = guaranteed_scenario(texp, xlogx100, 1.40, epsilon=0.005)
        cache = _ScenarioCache(sc)
        lam = 60.0
        ip = _InnerProblem(cache, lam)
        beta_star, b_star = ip.solve()
        fn = ip.exact_curve(beta_star, b_star)
        full = indemnity_from_survival(fn, lam, sc, cache.v_upper, eta_tilde=1.0)
        none = indemnity_from_survival(fn, lam, sc, cache.v_upper, eta_tilde=0.0)
        xs = np.linspace(0.0, 100.0, 4001)
        diff = full(xs) - none(xs)
        assert np.max(diff) > 0.1  # the zero set has real length
        # the contracts agree wherever the price is strictly signed
        h = net_price(xs, fn, lam, sc, cache.v_upper)
        strict = np.abs(h) > 1e-6
        d_slope = full.slope_at(xs) - none.slope_at(xs)
        assert np.allclose(d_slope[strict], 0.0, atol=1e-12)


class TestSolveProblem2:
    def test_lambda_zero_at_loose_guarantee(self, guaranteed_solutions):
        _, sol = guaranteed_solutions[1.406]
        assert sol.lambda_star == 0.0
        assert sol.slack <= 0.0
        assert abs(sol.lambda_star * sol.slack) <= 1e-6 * (1 + 1.406)
        xs = np.linspace(0.0, 50.0, 1001)
        expected = np.clip(xs - np.log(1.5), 0.0, None)
        assert np.max(np.abs(sol.indemnity(xs) - expected)) <= 1e-6

    def test_binding_guarantee_pushes_multiplier(self, guaranteed_solutions):
        for a_level in (1.401, 1.396):
            sc, sol = guaranteed_solutions[a_level]
            assert sol.lambda_star > 0.0
            assert abs(sol.lambda_star * sol.slack) <= 1e-6 * (1 + a_level)
            assert abs(sol.slack) <= 1e-8

    def test_reported_kkt_residual(self, guaranteed_solutions):
        for a_level in (1.401, 1.396):
            _, sol = guaranteed_solutions[a_level]
            assert sol.kkt_residual <= 1e-6

    def test_eta_keeps_full_coverage_within_root_tolerance(self):
        # no zero-price set (r0 == r1): a residual inside the outer root's
        # tolerance closes the constraint whatever its sign
        ftol = 1e-9
        assert _calibrate_eta({0.0: (ftol / 2,), 1.0: (ftol / 2,)}, ftol) == 1.0
        assert _calibrate_eta({0.0: (2 * ftol,), 1.0: (2 * ftol,)}, ftol) == 0.0

    def test_multiplier_grows_as_guarantee_tightens(self, guaranteed_solutions):
        l1 = guaranteed_solutions[1.401][1].lambda_star
        l2 = guaranteed_solutions[1.396][1].lambda_star
        assert l2 > l1 > 0.0

    def test_worst_tail_dominates_unconstrained_curve(self, guaranteed_solutions,
                                                      texp):
        _, base = guaranteed_solutions[1.406]
        xs = np.linspace(base.v_upper, 30.0, 500)
        base_vals = base.worst_survival(xs)
        for a_level in (1.401, 1.396):
            _, sol = guaranteed_solutions[a_level]
            vals = sol.worst_survival(xs)
            assert np.all(vals >= base_vals - 1e-9)
            assert np.max(vals - base_vals) > 1e-3

    def test_curve_jumps_at_benchmark_atom(self):
        # a slack point on a benchmark with mass 0.2 at x = 2: the emitted
        # curve must keep the benchmark's left limit up to the atom instead
        # of interpolating down to the post-jump value
        tab = make_tabulated([(0, 0.0), (2, 0.6), (2, 0.8), (10, 1.0)])
        sc = MarketScenario(theta=0.5, alpha=0.9, epsilon=0.01, benchmark=tab,
                            insurer_survival=tab,
                            generator=make_xlogx_generator(1.0, 10.0),
                            distortion=tvar_distortion(0.9),
                            acceptable_var=50.0)
        curve = solve_problem2(sc).worst_survival
        xs = np.concatenate([2.0 - np.geomspace(1e-6, 1e-12, 7),
                             np.linspace(0.0, 10.0, 2001)])
        assert np.all(curve(xs) >= tab.survival(xs) - 1e-9)
        assert curve.is_nonincreasing(tol=1e-12)

    def test_infeasible_guarantee_reports_floor(self, texp, xlogx100):
        sc = guaranteed_scenario(texp, xlogx100, 1.30, epsilon=0.005)
        with pytest.raises(InfeasibleError) as err:
            solve_problem2(sc)
        assert err.value.bound is not None
        assert err.value.bound > 1.30

    def test_vacuous_guarantee_keeps_zero_contract(self, texp):
        # enormous loading under a tight ball: the net price is strictly
        # positive except in a vanishing sliver at the truncation point
        # (where survival ratios blow up), so the optimum is essentially no
        # insurance and A above the worst-case VaR stays slack
        from bwrobust.bregman import quadratic_generator

        sc = MarketScenario(theta=30.0, alpha=0.9, epsilon=1e-4,
                            benchmark=texp, insurer_survival=texp,
                            generator=quadratic_generator(100.0),
                            distortion=tvar_distortion(0.9),
                            acceptable_var=12.0)
        sol = solve_problem2(sc)
        assert sol.lambda_star == 0.0
        assert sol.slack < 0.0
        assert sol.indemnity(99.9) == pytest.approx(0.0, abs=1e-12)
        assert sol.indemnity.total() <= 0.05

    def test_worst_curve_invariants(self, guaranteed_solutions, texp, xlogx100):
        for a_level, (sc, sol) in guaranteed_solutions.items():
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


class TestSaddleCheck:
    def test_three_regimes(self, texp, xlogx100):
        alpha = 0.7
        combos = ((0.1, 0.0, "i"), (0.1, 1.5, "ii"), (0.1, 25.0, "iii"))
        for eps, lam, _case in combos:
            sc = MarketScenario(theta=0.5, alpha=alpha, epsilon=eps,
                                benchmark=texp, insurer_survival=texp,
                                generator=xlogx100,
                                distortion=tvar_distortion(alpha))
            cache = _ScenarioCache(sc)
            ip = _InnerProblem(cache, lam)
            beta_star, _ = ip.solve()
            out = alternating_best_response(sc, lam, beta_star, n_cells=60)
            assert out["final"] == pytest.approx(out["analytic"], abs=1e-3)
