"""Generators and the two representations of the divergence."""

import numpy as np
import pytest

from bwrobust.bregman import (_quantile_points, bw_divergence_quantile,
                              bw_divergence_survival,
                              make_piecewise_quadratic_generator,
                              make_xlogx_generator, parse_generator,
                              pointwise_divergence, quadratic_generator,
                              validate_generator)
from bwrobust.distributions import (FlattenedQuantile, make_tabulated,
                                    make_truncated_exponential)
from bwrobust.errors import DomainError, ValidationError
from bwrobust.numerics import adaptive_quad

from conftest import random_tabulated


class TestPointwise:
    def test_quadratic_is_squared_distance(self):
        gen = quadratic_generator(4.0)
        assert pointwise_divergence(gen, 3.0, 1.0) == pytest.approx(4.0)

    def test_diagonal_is_zero(self, xlogx100):
        xs = np.linspace(0.0, 100.0, 23)
        assert np.max(pointwise_divergence(xlogx100, xs, xs)) <= 1e-12

    def test_xlogx_value(self):
        gen = make_xlogx_generator(1.0, 4.0)
        assert pointwise_divergence(gen, 1.0, 0.0) == pytest.approx(
            2.0 * np.log(2.0) - 1.0, abs=1e-14)

    def test_domain_check(self, quad1):
        with pytest.raises(DomainError):
            pointwise_divergence(quad1, 2.0, 0.5)

    def test_nonnegative_and_zero_only_on_diagonal(self, xlogx100):
        rng = np.random.default_rng(7)
        x = rng.uniform(0, 100, 500)
        y = rng.uniform(0, 100, 500)
        vals = pointwise_divergence(xlogx100, x, y)
        assert np.all(vals >= 0.0)
        off = np.abs(x - y) > 1e-3
        assert np.all(vals[off] > 1e-12)

    def test_monotone_away_from_anchor(self, xlogx100):
        # x -> B(x, y) decreases below y and increases above y
        y = 3.0
        left = np.linspace(0.0, y, 200)
        right = np.linspace(y, 100.0, 200)
        assert np.all(np.diff(pointwise_divergence(xlogx100, left, y)) <= 1e-12)
        assert np.all(np.diff(pointwise_divergence(xlogx100, right, y)) >= -1e-12)


class TestPiecewiseQuadratic:
    def test_k_one_reduces_to_quadratic(self):
        gen = make_piecewise_quadratic_generator(3.0, 1.0, 10.0)
        xs = np.linspace(0, 10, 101)
        assert np.max(np.abs(gen.phi(xs) - xs ** 2)) <= 1e-12

    def test_c1_gluing(self):
        for k in (0.5, 2.0, 4.0):
            gen = make_piecewise_quadratic_generator(3.0, k, 10.0)
            eps = 1e-9
            assert gen.phi(3.0 - eps) == pytest.approx(gen.phi(3.0 + eps), abs=1e-7)
            assert gen.dphi(3.0 - eps) == pytest.approx(6.0, abs=1e-7)
            assert gen.dphi(3.0 + eps) == pytest.approx(6.0, abs=1e-7)

    def test_direct_value(self):
        gen = make_piecewise_quadratic_generator(3.0, 2.0, 10.0)
        assert gen.phi(4.0) == pytest.approx(17.0)

    def test_invalid_parameters(self):
        with pytest.raises(DomainError):
            make_piecewise_quadratic_generator(0.0, 1.0, 10.0)
        with pytest.raises(DomainError):
            make_piecewise_quadratic_generator(3.0, -1.0, 10.0)

    def test_convex_order_in_k(self, texp):
        q = texp.quantile(0.95)
        g1 = make_piecewise_quadratic_generator(q, 1.0, 100.0)
        g2 = make_piecewise_quadratic_generator(q, 2.0, 100.0)
        ds = np.linspace(q + 0.1, 20.0, 50)
        ys = np.linspace(0.0, q, 7)
        for y in ys:
            b1 = pointwise_divergence(g1, ds, y)
            b2 = pointwise_divergence(g2, ds, y)
            assert np.all(b2 >= b1 - 1e-12)


class TestValidation:
    def test_named_generators_pass(self, texp):
        for gen in (quadratic_generator(100.0),
                    make_xlogx_generator(1.0, 100.0),
                    make_piecewise_quadratic_generator(3.0, 2.0, 100.0)):
            validate_generator(gen)

    def test_parse(self):
        gen = parse_generator("piecewise_quadratic(q_alpha, 2.0)", 100.0,
                              q_alpha=3.0)
        assert gen.kinks == (3.0,)
        assert parse_generator("quadratic", 5.0).name == "quadratic"
        assert parse_generator("xlogx_shift(2.0)", 5.0).name == "xlogx_shift(2)"
        with pytest.raises(ValidationError):
            parse_generator("mystery(1)", 5.0)
        with pytest.raises(ValidationError):
            parse_generator("piecewise_quadratic(q_alpha, 2.0)", 5.0)


def knots_with_atom(rng, n, atom, support_max=4.0):
    """Random piecewise-linear CDF with ``n`` interior knots on [0, M], with
    one atom at an interior knot when ``atom`` is set."""
    xs = np.sort(rng.uniform(0.0, support_max, size=n))
    ps = np.sort(rng.uniform(0.0, 1.0, size=n))
    knots = [(0.0, 0.0)] + list(zip(xs, ps))
    if atom:
        i = int(rng.integers(1, n + 1))
        x_at, p_at = knots[i]
        jump = min(1.0, p_at + rng.uniform(0.02, 0.2))
        knots = (knots[: i + 1] + [(x_at, jump)]
                 + [(x, max(p, jump)) for x, p in knots[i + 1:]])
    return make_tabulated(knots + [(support_max, 1.0)])


class TestDivergenceRepresentations:
    def test_uniform_pair_analytic(self, quad1):
        gen = quadratic_generator(2.0)
        u1 = make_tabulated([(0, 0), (1, 1)])
        u2 = make_tabulated([(0, 0), (2, 1)])
        # integral of (t - 2t)^2 over (0, 1)
        assert bw_divergence_quantile(gen, u1, u2) == pytest.approx(1 / 3, abs=1e-9)
        assert bw_divergence_quantile(gen, u2, u1) == pytest.approx(1 / 3, abs=1e-9)
        assert bw_divergence_survival(gen, u1, u2) == pytest.approx(1 / 3, abs=1e-8)

    def test_self_divergence_zero(self, texp, xlogx100):
        assert bw_divergence_quantile(xlogx100, texp, texp) <= 1e-10
        assert abs(bw_divergence_survival(xlogx100, texp, texp)) <= 1e-10

    def test_asymmetry_of_orderings(self):
        gen = make_xlogx_generator(1.0, 2.0)
        u1 = make_tabulated([(0, 0), (1, 1)])
        u2 = make_tabulated([(0, 0), (2, 1)])
        a = bw_divergence_quantile(gen, u1, u2)
        b = bw_divergence_quantile(gen, u2, u1)
        assert abs(a - b) > 1e-3

    def test_truncated_exponential_pair(self, xlogx100):
        d1 = make_truncated_exponential(1.0, 100.0)
        d2 = make_truncated_exponential(2.0, 100.0)
        a = bw_divergence_quantile(xlogx100, d1, d2)
        b = bw_divergence_survival(xlogx100, d1, d2)
        assert a == pytest.approx(b, abs=1e-6)

    def test_representation_equivalence_random_pairs(self):
        rng = np.random.default_rng(2024)
        gens = (quadratic_generator(4.0), make_xlogx_generator(1.0, 4.0),
                make_piecewise_quadratic_generator(1.5, 2.0, 4.0))
        for _ in range(10):
            f1 = random_tabulated(rng)
            f2 = random_tabulated(rng)
            for gen in gens:
                a = bw_divergence_quantile(gen, f1, f2)
                b = bw_divergence_survival(gen, f1, f2)
                assert a == pytest.approx(b, abs=1e-6)

    def test_representation_equivalence_pairs_with_atoms(self):
        # pairs shaped like the benchmark audit's: 2-7 interior knots, every
        # other CDF with an atom, so the survival form's cross term kinks
        # where one survival curve crosses the other's levels on both sides
        # of an atom
        rng = np.random.default_rng(5)
        shapes = ((2, False), (3, True), (4, False), (5, True), (6, False),
                  (7, True))
        gens = (quadratic_generator(4.0), make_xlogx_generator(1.0, 4.0),
                make_piecewise_quadratic_generator(1.5, 2.0, 4.0))
        for i in range(8):
            for j, (n, atom) in enumerate(shapes):
                m, atom2 = shapes[-1 - j]
                gen = gens[(i + j) % 3]
                f1 = knots_with_atom(rng, n, atom)
                f2 = knots_with_atom(rng, m, atom2)
                assert bw_divergence_quantile(gen, f1, f2) == pytest.approx(
                    bw_divergence_survival(gen, f1, f2), abs=1e-9)

    def test_matches_sorted_coupling_wasserstein(self, texp):
        gen = quadratic_generator(100.0)
        d2 = make_truncated_exponential(2.0, 100.0)
        n = 20_000
        ts = (np.arange(n) + 0.5) / n
        coupled = np.mean((texp.quantile(ts) - d2.quantile(ts)) ** 2)
        assert bw_divergence_quantile(gen, texp, d2) == pytest.approx(
            coupled, abs=5e-3)


def quadpack_divergence(gen, f1, f2):
    """Oracle: the same paired-quantile integrand and breakpoints, handed to
    QUADPACK."""
    return adaptive_quad(
        lambda t: pointwise_divergence(gen, f1.quantile(t), f2.quantile(t)),
        0.0, 1.0, points=_quantile_points(gen, f1, f2), tol=1e-12)


class TestPanelDivergence:
    """The Gauss-panel quantile divergence against the QUADPACK oracle."""

    def test_random_pairs_with_and_without_atoms(self):
        rng = np.random.default_rng(606)
        gens = (quadratic_generator(4.0), make_xlogx_generator(1.0, 4.0),
                make_piecewise_quadratic_generator(1.5, 2.0, 4.0))
        n_atoms = 0
        for i in range(12):
            f1 = random_tabulated(rng, allow_atoms=i % 2 == 1)
            f2 = random_tabulated(rng, allow_atoms=i % 2 == 1)
            n_atoms += sum(bool(np.any(np.diff(f.xs) == 0.0)) for f in (f1, f2))
            for gen in gens:
                assert bw_divergence_quantile(gen, f1, f2) == pytest.approx(
                    quadpack_divergence(gen, f1, f2), abs=1e-10)
                assert bw_divergence_quantile(gen, f1, f1) <= 1e-10
        assert n_atoms > 0

    def test_flattened_quantile_witnesses(self, texp, xlogx100):
        gens = (xlogx100,
                make_piecewise_quadratic_generator(texp.quantile(0.95), 2.0, 100.0))
        for alpha, level_t in ((0.95, 0.999), (0.9, 0.99999)):
            level = float(texp.quantile(level_t))
            upper = FlattenedQuantile(texp, alpha - 0.02, level_t, level)
            lower = FlattenedQuantile(texp, 0.5, alpha, float(texp.quantile(0.6)))
            for gen in gens:
                for w in (upper, lower):
                    assert bw_divergence_quantile(gen, w, texp) == pytest.approx(
                        quadpack_divergence(gen, w, texp), abs=1e-10)

    def test_self_divergence(self, texp, xlogx100):
        d2 = make_truncated_exponential(2.0, 100.0)
        for f in (d2, FlattenedQuantile(texp, 0.9, 0.99, texp.quantile(0.95))):
            assert bw_divergence_quantile(xlogx100, f, f) <= 1e-10
