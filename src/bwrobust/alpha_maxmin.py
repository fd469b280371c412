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
from .numerics import classify_sign_regions
from .var_bounds import compute_var_bounds

_CASES = (
    # (predicate over (d1, d2, vl, vu), case id, layer builder)
    (lambda d1, d2, vl, vu: d1 < vl < vu <= d2, "best_cap_layer",
     lambda d1, d2, vl, vu: [(d1, vl)]),
    (lambda d1, d2, vl, vu: d1 < vl <= d2 < vu, "two_layers",
     lambda d1, d2, vl, vu: [(d1, vl), (d2, vu)]),
    (lambda d1, d2, vl, vu: vl <= d1 <= d2 < vu, "worst_cap_high_deductible",
     lambda d1, d2, vl, vu: [(d2, vu)]),
    (lambda d1, d2, vl, vu: d1 <= d2 < vl < vu, "worst_cap_low_deductible",
     lambda d1, d2, vl, vu: [(d1, vu)]),
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


def _classify_case(d1, d2, vl, vu):
    for pred, case_id, builder in _CASES:
        if pred(d1, d2, vl, vu):
            return case_id, builder(d1, d2, vl, vu)
    return "no_insurance", []


def maxmin_objective(contract, scenario, v_upper, v_lower):
    """kappa-blend of extremal retained losses plus the premium."""
    premium = expected_value_premium(contract, scenario.insurer_survival,
                                     scenario.theta)
    kappa = scenario.kappa
    return (kappa * (v_upper - contract(v_upper))
            + (1.0 - kappa) * (v_lower - contract(v_lower))
            + premium)


def solve_maxmin(scenario, *, tol=None, eta_on_ties=1.0, grid=10_000):
    """Closed-form optimal contract for the maxmin VaR model.

    The contract is built from the sign of the net price (slope 1 where it is
    negative, ``eta_on_ties`` where it vanishes on a set of positive length,
    which only happens when the insurer survival is flat at a threshold
    level).  The case label follows the ordering of the four corner points.
    """
    bounds = compute_var_bounds(scenario.generator, scenario.benchmark,
                                scenario.alpha, scenario.epsilon, tol)
    vu, vl = bounds.v_upper, bounds.v_lower
    sq = scenario.insurer_survival
    d1, d2 = thresholds(sq, scenario.theta, scenario.kappa)
    m = scenario.support_max

    regions = []
    pieces = [(0.0, min(vl, m)), (min(vl, m), min(vu, m)), (min(vu, m), m)]
    extra = [p for p in (d1, d2, *sq.x_breakpoints()) if 0.0 < p < m]

    def cancel_scale(t):
        # the two magnitudes whose near-cancellation defines a genuine tie
        t = np.asarray(t, dtype=float)
        premium_part = (1.0 + scenario.theta) * sq.survival(
            np.clip(t, 0.0, sq.support_max))
        value_part = (scenario.kappa * (t <= vu)
                      + (1.0 - scenario.kappa) * (t <= vl))
        return np.maximum(premium_part, value_part)

    for lo, hi in pieces:
        if hi - lo <= 1e-15 * max(1.0, m):
            continue
        regions.extend(classify_sign_regions(
            lambda t: net_price_H(t, scenario.theta, scenario.kappa, sq, vu, vl),
            lo, hi, n=max(64, int(grid * (hi - lo) / m)),
            xtol=1e-12 * max(1.0, m),
            zero_tol=1e-11, zero_scale=cancel_scale,
            extra_points=[p for p in extra if lo < p < hi]))
    contract = indemnity_from_sign_regions(regions, m, eta=eta_on_ties).simplified()

    case_id, _ = _classify_case(d1, d2, vl, vu)
    premium = expected_value_premium(contract, sq, scenario.theta)
    objective = (scenario.kappa * (vu - contract(vu))
                 + (1.0 - scenario.kappa) * (vl - contract(vl))
                 + premium)
    return MaxminSolution(indemnity=contract, d1=d1, d2=d2, v_upper=vu,
                          v_lower=vl, premium=premium, objective=objective,
                          case_id=case_id)


def closed_form_layers(d1, d2, v_lower, v_upper):
    """Layer corners of the explicit optimal contract for each ordering."""
    _, layers = _classify_case(d1, d2, v_lower, v_upper)
    return layers
