"""Contract class invariants and the expected-value premium."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bwrobust.distributions import make_tabulated
from bwrobust.errors import ValidationError
from bwrobust.indemnity import (Indemnity, expected_value_premium,
                                indemnity_from_sign_regions)


class TestIndemnity:
    def test_layers(self):
        c = indemnity_from_sign_regions([(1.0, 3.0, -1), (5.0, 6.0, -1)], 10.0)
        xs = np.array([0.0, 1.0, 2.0, 3.0, 4.0, 5.5, 7.0, 10.0])
        expected = np.array([0.0, 0.0, 1.0, 2.0, 2.0, 2.5, 3.0, 3.0])
        assert np.allclose(c(xs), expected)
        assert c.total() == pytest.approx(3.0)

    def test_validation(self):
        with pytest.raises(ValidationError):
            Indemnity([0.0, 1.0], [1.5])
        with pytest.raises(ValidationError):
            Indemnity([1.0, 2.0], [0.5])  # must start at 0

    def test_slope_at(self):
        c = Indemnity([0.0, 1.0, 2.0], [0.0, 1.0])
        assert c.slope_at(0.5) == 0.0
        assert c.slope_at(1.5) == 1.0
        assert c.slope_at(np.array([0.5, 1.0, 2.5])).tolist() == [0.0, 1.0, 0.0]

    def test_simplified_merges(self):
        c = Indemnity([0.0, 1.0, 2.0, 2.5, 3.0], [1.0, 1.0, 0.5, 1.0])
        s = c.simplified()
        assert len(s.slopes) == 3
        xs = np.linspace(0, 3, 61)
        assert np.allclose(s(xs), c(xs))

    def test_simplified_drops_zero_width(self):
        c = Indemnity([0.0, 1.0, 1.0, 2.0], [1.0, 0.5, 1.0])
        s = c.simplified()
        assert len(s.slopes) == 1
        assert np.allclose(s(np.linspace(0, 2, 21)), c(np.linspace(0, 2, 21)))

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 99_999))
    def test_lipschitz_and_bounds(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 6))
        xs = np.concatenate([[0.0], np.sort(rng.uniform(0, 10, n))])
        sl = rng.uniform(0, 1, n)
        c = Indemnity(xs, sl)
        grid = np.linspace(0, 10, 300)
        vals = c(grid)
        assert vals[0] == 0.0
        diffs = np.diff(vals)
        step = grid[1] - grid[0]
        assert np.all(diffs >= -1e-12)
        assert np.all(diffs <= step + 1e-12)
        assert np.all(vals <= grid + 1e-12)


class TestPremium:
    def test_identity_on_uniform(self, uniform01):
        ident = Indemnity([0.0, 1.0], [1.0])
        assert expected_value_premium(ident, uniform01, 0.0) == \
            pytest.approx(0.5, abs=1e-12)

    def test_zero_contract(self, uniform01):
        zero = Indemnity.zero(1.0)
        assert expected_value_premium(zero, uniform01, 0.7) == 0.0

    def test_stop_loss_truncated_exponential(self, texp):
        a = np.log(1.5)
        c = Indemnity([0.0, a, 100.0], [0.0, 1.0])
        norm = 1.0 - np.exp(-100.0)
        oracle = 1.5 * ((np.exp(-a) - np.exp(-100.0))
                        - (100.0 - a) * np.exp(-100.0)) / norm
        prem = expected_value_premium(c, texp, 0.5)
        assert prem == pytest.approx(oracle, abs=1e-10)
        assert prem == pytest.approx(1.0, abs=1e-3)

    def test_atom_handling(self):
        d = make_tabulated([(0, 0.0), (1, 0.5), (1, 0.8), (2, 1.0)])
        c = Indemnity([0.0, 2.0], [1.0])  # identity
        # E[X] = integral of survival: trapezoid on [0,1] plus [1,2] piece
        expect = 0.5 * (1.0 + 0.5) + 0.5 * 0.2
        assert expected_value_premium(c, d, 0.0) == pytest.approx(expect, abs=1e-12)


class TestFromSignRegions:
    def test_slopes_by_sign(self):
        regions = [(0.0, 1.0, 1), (1.0, 2.0, -1), (2.0, 3.0, 0)]
        c = indemnity_from_sign_regions(regions, 4.0, eta=0.25)
        assert c.slope_at(0.5) == 0.0
        assert c.slope_at(1.5) == 1.0
        assert c.slope_at(2.5) == 0.25
        assert c.slope_at(3.5) == 0.0
