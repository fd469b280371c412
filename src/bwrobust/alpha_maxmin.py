"""Insurance demand under the kappa-weighted worst/best-case VaR criterion.

The inner extremes over the ambiguity ball depend only on the loss, not on
the contract, so the problem collapses to pricing marginal coverage: buy a
layer wherever its net price is negative.  The optimal contract is a union
of at most two layers whose corners are the two premium-driven deductibles
and the two extremal VaR levels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .indemnity import Indemnity, expected_value_premium, indemnity_from_sign_regions
# not called here: the traced benchmark run (bench/tracing.py) wraps this
# module attribute, so the name must keep resolving
from .numerics import classify_sign_regions  # noqa: F401
from .var_bounds import compute_var_bounds

_CASES = (
    # (predicate over (d1, d2, vl, vu), case id)
    (lambda d1, d2, vl, vu: d1 < vl < vu <= d2, "best_cap_layer"),
    (lambda d1, d2, vl, vu: d1 < vl <= d2 < vu, "two_layers"),
    (lambda d1, d2, vl, vu: vl <= d1 <= d2 < vu, "worst_cap_high_deductible"),
    (lambda d1, d2, vl, vu: d1 <= d2 < vl < vu, "worst_cap_low_deductible"),
)


@dataclass(frozen=True)
class MaxminSolution:
    indemnity: Indemnity
    d1: float
    d2: float
    v_upper: float
    v_lower: float
    premium: float
    objective: float
    case_id: str


def net_price_H(t, theta, kappa, insurer_dist, v_upper, v_lower):
    """Net price of marginal coverage at loss level ``t``.

    ``(1 + theta) S_Q(t) - kappa 1[t <= v_upper] - (1 - kappa) 1[t <= v_lower]``:
    the premium rate of one more unit of coverage minus its value to the
    kappa-blended evaluation of the two extremal retained losses.
    """
    t = np.asarray(t, dtype=float)
    out = ((1.0 + theta) * insurer_dist.survival(np.clip(t, 0.0, insurer_dist.support_max))
           - kappa * (t <= v_upper)
           - (1.0 - kappa) * (t <= v_lower))
    return float(out) if out.ndim == 0 else out


def thresholds(insurer_dist, theta, kappa):
    """Deductibles where coverage stops paying for itself.

    ``d1 = inf{x : S_Q(x) <= 1/(1+theta)}`` prices coverage valued by both
    extremes, ``d2`` the part valued only in the worst case; ``d2`` clamps to
    the support bound when the level ``kappa/(1+theta)`` is never crossed.
    """
    if not (theta > 0.0):
        raise DomainError(f"theta must be positive, got {theta}")
    if not (0.0 <= kappa <= 1.0):
        raise DomainError(f"kappa must lie in [0, 1], got {kappa}")
    d1 = float(insurer_dist.quantile(1.0 - 1.0 / (1.0 + theta)))
    level = kappa / (1.0 + theta)
    if level <= 0.0:
        d2 = insurer_dist.support_max
    else:
        d2 = float(insurer_dist.quantile(1.0 - level))
    return d1, min(d2, insurer_dist.support_max)


def _case_id(d1, d2, vl, vu):
    for pred, case_id in _CASES:
        if pred(d1, d2, vl, vu):
            return case_id
    return "no_insurance"


def maxmin_objective(contract, scenario, v_upper, v_lower):
    """kappa-blend of extremal retained losses plus the premium."""
    premium = expected_value_premium(contract, scenario.insurer_survival,
                                     scenario.theta)
    kappa = scenario.kappa
    return (kappa * (v_upper - contract(v_upper))
            + (1.0 - kappa) * (v_lower - contract(v_lower))
            + premium)


def net_price_regions(insurer_dist, theta, kappa, v_lower, v_upper):
    """Sign regions ``(a, b, sign)`` of :func:`net_price_H` on ``[0, M]``.

    On ``(0, v_lower]``, ``(v_lower, v_upper]`` and ``(v_upper, M]`` the net
    price is ``(1 + theta) S_Q - c`` with ``c = 1, kappa, 0``.  On each piece
    it is positive until the survival falls to ``c / (1 + theta)``, zero
    across a flat of the survival at that level and negative after it.
    """
    m = insurer_dist.support_max
    regions = []
    for lo, hi, c in ((0.0, v_lower, 1.0), (v_lower, v_upper, kappa),
                      (v_upper, m, 0.0)):
        lo, hi = min(lo, m), min(hi, m)
        level = c / (1.0 + theta)
        zero_lo = min(max(insurer_dist.survival_inverse(level), lo), hi)
        zero_hi = min(max(insurer_dist.survival_inverse_right(level), zero_lo), hi)
        regions += [(lo, zero_lo, 1), (zero_lo, zero_hi, 0), (zero_hi, hi, -1)]
    return regions


def solve_maxmin(scenario, *, eta_on_ties=1.0):
    """Closed-form optimal contract for the maxmin VaR model.

    The contract has slope 1 where the net price is negative and
    ``eta_on_ties`` where it vanishes on a set of positive length, which
    only happens when the insurer survival is flat at a threshold level.
    The case label follows the ordering of the four corner points.
    """
    bounds = compute_var_bounds(scenario.generator, scenario.benchmark,
                                scenario.alpha, scenario.epsilon)
    vu, vl = bounds.v_upper, bounds.v_lower
    sq = scenario.insurer_survival
    d1, d2 = thresholds(sq, scenario.theta, scenario.kappa)
    regions = net_price_regions(sq, scenario.theta, scenario.kappa, vl, vu)
    contract = indemnity_from_sign_regions(
        regions, scenario.support_max, eta=eta_on_ties).simplified()

    premium = expected_value_premium(contract, sq, scenario.theta)
    objective = (scenario.kappa * (vu - contract(vu))
                 + (1.0 - scenario.kappa) * (vl - contract(vl))
                 + premium)
    return MaxminSolution(indemnity=contract, d1=d1, d2=d2, v_upper=vu,
                          v_lower=vl, premium=premium, objective=objective,
                          case_id=_case_id(d1, d2, vl, vu))
