"""Quadrature kernels: the Gauss-panel integrator."""

import numpy as np
import pytest

from bwrobust.errors import NumericsError
from bwrobust.numerics import _GAUSS_NODES, _PANEL_BATCH, panel_quad


def test_smooth_integrand_over_many_breakpoints():
    sizes = []

    def f(t):
        sizes.append(t.size)
        return np.exp(t)

    val = panel_quad(f, 0.0, 1.0, points=np.linspace(0.0, 1.0, 5001), tol=1e-12)
    assert val == pytest.approx(np.e - 1.0, abs=1e-12)
    # 5000 panels, yet each call of the integrand stays one batch in size
    assert len(sizes) > 1
    assert max(sizes) <= 3 * _GAUSS_NODES.size * _PANEL_BATCH


def test_endpoint_log_singularity():
    # integral of -log(1 - t) over (0, 1) is 1
    val = panel_quad(lambda t: -np.log1p(-t), 0.0, 1.0, tol=1e-10)
    assert val == pytest.approx(1.0, abs=1e-10)


def test_breakpoint_kink_and_empty_interval():
    val = panel_quad(lambda t: np.abs(t - 0.3), 0.0, 1.0, points=(0.3, 2.0),
                     tol=1e-12)
    assert val == pytest.approx(0.5 * (0.3 ** 2 + 0.7 ** 2), abs=1e-14)
    assert panel_quad(np.exp, 1.0, 1.0) == 0.0


def test_non_convergent_integrand_raises_with_partial():
    with pytest.raises(NumericsError) as info:
        panel_quad(lambda t: 1.0 / t, 0.0, 1.0, tol=1e-10)
    assert np.isfinite(info.value.partial) and info.value.partial > 1.0


def test_integrand_noisy_beyond_tol_raises_at_panel_limit():
    # noise of 1e-7 never settles below tol = 1e-10: every panel keeps
    # splitting, and the open-panel limit stops the doubling
    with pytest.raises(NumericsError) as info:
        panel_quad(lambda t: 1.0 + 1e-7 * np.sin(1e12 * t), 0.0, 1.0, tol=1e-10)
    assert info.value.partial == pytest.approx(1.0, abs=1e-6)


def test_non_finite_integrand_raises():
    with pytest.raises(NumericsError) as info:
        panel_quad(lambda t: np.where(t > 0.5, np.nan, 1.0), 0.0, 1.0)
    assert info.value.partial is not None
