"""Distribution algebra: CDFs, survival tails, generalized inverses."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bwrobust.distributions import (FlattenedQuantile, load_tabulated,
                                    make_tabulated, make_truncated_exponential)
from bwrobust.errors import DomainError, ValidationError

from conftest import random_tabulated


class TestTruncatedExponential:
    def test_quantile_closed_form(self, texp):
        # inversion of F(x) = (1 - e^-x) / (1 - e^-100)
        expected = -np.log1p(-0.95 * (1.0 - np.exp(-100.0)))
        assert texp.quantile(0.95) == pytest.approx(expected, abs=1e-12)
        assert texp.quantile(0.95) == pytest.approx(2.9957, abs=1e-4)

    def test_survival_closed_form(self, texp):
        x = np.log(1.5)
        expected = (np.exp(-x) - np.exp(-100.0)) / (1.0 - np.exp(-100.0))
        assert texp.survival(x) == pytest.approx(expected, abs=1e-15)
        assert texp.survival(x) == pytest.approx(2.0 / 3.0, abs=1e-6)

    def test_normalization(self, texp):
        assert texp.cdf(100.0) == pytest.approx(1.0, abs=1e-15)
        assert texp.survival(100.0) == 0.0
        assert texp.survival(0.0) == pytest.approx(1.0, abs=1e-15)
        assert texp.cdf(texp.quantile(0.95)) == pytest.approx(0.95, abs=1e-12)

    def test_deep_tail_survival_keeps_precision(self, texp):
        # 1 - F(x) underflows at x ~ 37; the direct formula must not
        assert texp.survival(50.0) == pytest.approx(np.exp(-50.0), rel=1e-10)

    def test_parameter_validation(self):
        with pytest.raises(DomainError):
            make_truncated_exponential(-1.0, 10.0)
        with pytest.raises(DomainError):
            make_truncated_exponential(2.0, 1.0)

    def test_survival_integral_closed_form(self, texp):
        a, b = 0.3, 7.0
        grid = np.linspace(a, b, 200_001)
        trapezoid = getattr(np, "trapezoid", None) or np.trapz
        brute = trapezoid(texp.survival(grid), grid)
        assert texp.survival_integral(a, b) == pytest.approx(brute, abs=1e-9)


class TestTabulated:
    def test_uniform(self, uniform01):
        assert uniform01.quantile(0.5) == pytest.approx(0.5)
        assert uniform01.survival(0.25) == pytest.approx(0.75)

    def test_two_point_discrete(self):
        d = make_tabulated([(1, 0.0), (1, 0.5), (2, 0.5), (2, 1.0)])
        assert d.quantile(0.5) == pytest.approx(1.0)
        assert d.quantile(0.6) == pytest.approx(2.0)

    def test_atom_quantile(self):
        d = make_tabulated([(0, 0.0), (1, 0.5), (1, 0.8), (2, 1.0)])
        # mass 0.3 sits at x = 1
        assert d.quantile(0.7) == pytest.approx(1.0)
        assert d.cdf(1.0) == pytest.approx(0.8)

    def test_atoms_are_the_jumps(self, uniform01):
        assert make_tabulated([(0, 0.0), (1, 0.5), (1, 0.8), (2, 1.0)]).atoms() == (1.0,)
        two_point = make_tabulated([(1, 0.0), (1, 0.5), (2, 0.5), (2, 1.0)])
        assert two_point.atoms() == (1.0, 2.0)
        assert uniform01.atoms() == ()

    def test_validation(self):
        with pytest.raises(ValidationError):
            make_tabulated([])
        with pytest.raises(ValidationError):
            make_tabulated([(0, 0.0), (1, 0.5)])  # final < 1
        with pytest.raises(ValidationError):
            make_tabulated([(1, 0.0), (0, 1.0)])  # unsorted
        with pytest.raises(ValidationError):
            make_tabulated([(0, 0.0), (1, 1.2)])  # probability > 1

    def test_file_roundtrip(self, tmp_path):
        path = tmp_path / "cdf.txt"
        path.write_text("x F\n0.0 0.0\n1.0 0.4\n2.0 1.0\n")
        d = load_tabulated(path)
        assert d.quantile(0.4) == pytest.approx(1.0)
        bad = tmp_path / "bad.txt"
        bad.write_text("0.0 0.0\n0.0 0.5\n1.0 1.0\n")
        with pytest.raises(ValidationError):
            load_tabulated(bad)


class TestFlattenedQuantile:
    def test_matches_base_outside_window(self, texp):
        level = texp.quantile(0.95)
        flat = FlattenedQuantile(texp, 0.9, 0.95, level)
        for t in (0.1, 0.5, 0.89, 0.96, 0.999):
            assert flat.quantile(t) == pytest.approx(texp.quantile(t))
        assert flat.quantile(0.92) == pytest.approx(level)

    def test_cdf_is_clamped_base(self, texp):
        level = 2.0
        flat = FlattenedQuantile(texp, texp.cdf(2.0), 0.95, level)
        assert flat.cdf(1.0) == pytest.approx(texp.cdf(1.0))
        assert flat.cdf(2.5) == pytest.approx(max(0.95, texp.cdf(2.5)))

    def test_level_is_an_atom(self, texp):
        assert texp.atoms() == ()
        assert FlattenedQuantile(texp, 0.9, 0.95, texp.quantile(0.95)).atoms() == (
            texp.quantile(0.95),)

    def test_invalid_window(self, texp):
        with pytest.raises(DomainError):
            FlattenedQuantile(texp, 0.9, 0.5, 1.0)


class TestGeneralizedInverseProperties:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_galois_inequality(self, seed):
        d = random_tabulated(np.random.default_rng(seed))
        ts = np.linspace(1e-6, 1.0, 1000)
        q = d.quantile(ts)
        assert np.all(d.cdf(q) >= ts - 1e-12)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_monotonicity(self, seed):
        d = random_tabulated(np.random.default_rng(seed))
        ts = np.linspace(1e-6, 1.0, 600)
        assert np.all(np.diff(d.quantile(ts)) >= -1e-12)
        xs = np.linspace(0.0, d.support_max, 600)
        assert np.all(np.diff(d.survival(xs)) <= 1e-12)

    def test_quantile_left_continuous_at_flat(self):
        d = make_tabulated([(0, 0.0), (1, 0.5), (2, 0.5), (3, 1.0)])
        # flat CDF on [1, 2]: the generalized inverse picks the left end
        assert d.quantile(0.5) == pytest.approx(1.0)
        assert d.quantile(0.5 + 1e-12) == pytest.approx(2.0, abs=1e-9)

    def test_round_trip_continuous(self, texp, uniform01):
        # x-grid through quantiles, keeping 1 - F(x) far enough from the
        # machine epsilon that F(x) is still invertible in floats
        for d in (texp, uniform01):
            xs = d.quantile(np.linspace(1e-3, 1.0 - 1e-5, 257))
            assert np.max(np.abs(d.quantile(d.cdf(xs)) - xs)) <= 1e-10

    def test_quantile_domain_errors(self, texp):
        with pytest.raises(DomainError):
            texp.quantile(0.0)
        with pytest.raises(DomainError):
            texp.quantile(1.5)
        with pytest.raises(DomainError):
            texp.survival(101.0)
