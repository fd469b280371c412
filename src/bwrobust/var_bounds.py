"""Worst- and best-case value-at-risk over a Bregman-Wasserstein ball.

The extremal quantile at level ``alpha`` over the ball of radius ``epsilon``
around a benchmark ``F0`` is located by inverting a monotone tail budget:
the divergence cost of flattening the benchmark quantile to a level ``D``
across the probability window between ``alpha`` and ``F0(D)``.  The upper
extreme is an unattained supremum (approached by explicit witnesses), the
lower extreme is attained.  Budgets run on the divergence's Gauss panels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bregman import pointwise_divergence
from .distributions import FlattenedQuantile
from .errors import DomainError
from .numerics import bisect_predicate, panel_quad
# not called here; the traced benchmark run (bench/tracing.py) wraps it by name
from .numerics import adaptive_quad  # noqa: F401


@dataclass(frozen=True)
class VarBounds:
    """Extremal VaR levels over the ambiguity ball."""

    v_upper: float
    v_lower: float
    alpha: float
    epsilon: float
    attained_upper: bool  # only possible on the v_upper == support_max branch
    attained_lower: bool = True


def _budget_points(gen, f0, lo, hi):
    pts = [p for p in f0.quantile_breakpoints() if lo < p < hi]
    for kx in gen.kinks:
        t = float(f0.cdf(kx))
        if lo < t < hi:
            pts.append(t)
    return pts


def _flat_budget(gen, f0, level, lo, hi, tol):
    """Divergence of flattening the quantile of ``f0`` to ``level`` on
    ``[lo, hi]``: the integral of ``B(level, F0^{-1}(t))`` over that window."""
    return panel_quad(lambda t: pointwise_divergence(gen, level, f0.quantile(t)),
                      lo, hi, points=_budget_points(gen, f0, lo, hi), tol=tol)


def tail_budget(gen, f0, alpha, d, side):
    """Divergence cost of moving the quantile to ``d`` on one side of alpha.

    ``side='upper'`` integrates ``B(d, F0^{-1}(t))`` for t in
    ``[alpha, F0(d)]`` and requires ``d > F0^{-1}(alpha)``; ``side='lower'``
    integrates over ``[F0(d), alpha]`` and requires ``d < F0^{-1}(alpha)``.
    """
    q_alpha = float(f0.quantile(alpha))
    d = float(d)
    if side == "upper":
        if not (q_alpha < d <= f0.support_max):
            raise DomainError(
                f"upper budget needs d in (F0^-1(alpha), M], got {d}")
        lo, hi = alpha, float(f0.cdf(d))
    elif side == "lower":
        if not (0.0 <= d < q_alpha):
            raise DomainError(
                f"lower budget needs d in [0, F0^-1(alpha)), got {d}")
        lo, hi = float(f0.cdf(d)), alpha
    else:
        raise DomainError(f"side must be 'upper' or 'lower', got {side!r}")
    return _flat_budget(gen, f0, d, lo, hi, 1e-10)


def full_upper_budget(gen, f0, alpha):
    """Budget of pushing the quantile all the way to the support bound."""
    return _flat_budget(gen, f0, f0.support_max, alpha, 1.0, 1e-10)


def worst_case_var(gen, f0, alpha, epsilon):
    """Supremum of VaR_alpha over the ball: smallest d with budget >= epsilon.

    Returns the support bound when even the full flattening stays inside the
    ball; that is the only case in which the supremum can be attained.
    """
    if not (0.0 < alpha < 1.0):
        raise DomainError(f"alpha must lie in (0, 1), got {alpha}")
    if not (epsilon > 0.0):
        raise DomainError(f"epsilon must be positive, got {epsilon}")
    m = f0.support_max
    if epsilon > full_upper_budget(gen, f0, alpha):
        return m
    q_alpha = float(f0.quantile(alpha))
    lo = q_alpha + 1e-9 * max(1.0, m)
    if lo >= m:
        return m
    return bisect_predicate(
        lambda d: tail_budget(gen, f0, alpha, d, "upper") >= epsilon,
        lo, m, xtol=1e-8 * max(1.0, m))


def best_case_var(gen, f0, alpha, epsilon):
    """Infimum of VaR_alpha over the ball: smallest d with budget <= epsilon."""
    if not (0.0 < alpha < 1.0):
        raise DomainError(f"alpha must lie in (0, 1), got {alpha}")
    if not (epsilon > 0.0):
        raise DomainError(f"epsilon must be positive, got {epsilon}")
    q_alpha = float(f0.quantile(alpha))
    if q_alpha <= 0.0:
        return 0.0
    if tail_budget(gen, f0, alpha, 0.0, "lower") <= epsilon:
        return 0.0
    hi = q_alpha * (1.0 - 1e-12)
    return bisect_predicate(
        lambda d: tail_budget(gen, f0, alpha, d, "lower") <= epsilon,
        0.0, hi, xtol=1e-8 * max(1.0, f0.support_max))


def compute_var_bounds(gen, f0, alpha, epsilon):
    """Both extremes bundled with attainment flags."""
    vu = worst_case_var(gen, f0, alpha, epsilon)
    vl = best_case_var(gen, f0, alpha, epsilon)
    attained_up = bool(vu >= f0.support_max
                       and epsilon > full_upper_budget(gen, f0, alpha))
    return VarBounds(v_upper=vu, v_lower=vl, alpha=alpha, epsilon=epsilon,
                     attained_upper=attained_up)


def witness_near_worst(gen, f0, alpha, epsilon, delta):
    """A ball member whose VaR_alpha is within ``delta`` of the supremum.

    The benchmark quantile is flattened to ``v_upper - delta`` on the widest
    window ``(alpha - xi, F0(v_upper - delta)]`` that keeps the divergence
    budget within ``epsilon``; the window is then shrunk slightly so
    feasibility is strict rather than marginal.
    """
    v_upper = worst_case_var(gen, f0, alpha, epsilon)
    q_alpha = float(f0.quantile(alpha))
    if not (0.0 < delta < v_upper - q_alpha):
        raise DomainError(
            f"delta must lie in (0, v_upper - benchmark VaR) = "
            f"(0, {v_upper - q_alpha}), got {delta}")
    level = v_upper - delta
    # F0(level) is rounded; where the quantile is steep its right quantile
    # can fall short of the level by more than the slop, so step up to the
    # first float where the base quantile has caught up
    t_hi = float(f0.cdf(level))
    while (t_hi < 1.0 and f0.quantile_right(t_hi)
           < level - FlattenedQuantile.LEVEL_SLOP):
        t_hi = float(np.nextafter(t_hi, 2.0))

    def budget(xi):
        return _flat_budget(gen, f0, level, alpha - xi, t_hi, 1e-12)

    xi_max = alpha * (1.0 - 1e-12)
    if budget(xi_max) <= epsilon:
        xi = xi_max
    else:
        # leftmost xi whose budget exceeds epsilon, then step back inside
        xi = bisect_predicate(lambda s: budget(s) > epsilon, 0.0, xi_max,
                              xtol=1e-10 * alpha)
    while xi > 0.0 and budget(xi) > epsilon - 1e-9 * max(1.0, epsilon):
        xi *= 0.5
    return FlattenedQuantile(f0, alpha - xi, t_hi, level)


def witness_best(gen, f0, alpha, epsilon):
    """The ball member attaining the best-case VaR.

    Flattens the quantile to ``v_lower`` on ``(F0(v_lower), alpha]``; its
    VaR at alpha equals ``v_lower`` exactly and the divergence budget is the
    lower tail budget, which is within ``epsilon`` by construction.
    """
    v_lower = best_case_var(gen, f0, alpha, epsilon)
    t_lo = float(f0.cdf(v_lower))
    if t_lo >= alpha:
        # degenerate: the benchmark already attains its own quantile
        t_lo = min(t_lo, alpha * (1.0 - 1e-15))
    return FlattenedQuantile(f0, t_lo, alpha, v_lower)
