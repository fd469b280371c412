"""Closed forms for the worst-case curve under the expected-shortfall
distortion.

When the benchmark coincides with the insurer's belief and the distortion is
the TVaR one, the pointwise adversary maximizer has an explicit three-piece
shape (benchmark, a plateau at the tail mass ``1 - alpha``, then a shifted
copy of the benchmark survival), and the capped regions reduce to scaled
copies of the insurer survival.  These formulas cross-validate the generic
search path to tight pointwise tolerance.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class TvarCaseReport:
    """Pricing regime of the capped tail and the plateau geometry.

    ``case_id``: 'i' when the cap never binds (the adversary keeps the
    benchmark), 'ii' when it binds beyond the worst-case VaR only, 'iii'
    when the free region extends past it.  ``x_hat`` is where the plateau
    hands over to the shifted survival (clamped to the support bound);
    ``sub_case`` locates it relative to ``(v_upper, x2)``.
    """

    case_id: str
    x_tilde: float
    x_hat: float | None
    sub_case: str | None


def classify_case(lam, theta, alpha, insurer_dist, v_upper, *, gen=None,
                  beta=None):
    """Regime of ``(1+lam)(1+theta)`` against the distortion slope.

    ``x_hat`` is computed only when a generator and positive ``beta`` are
    supplied, since it involves the inverse marginal ``[phi']^{-1}``.
    """
    if (1.0 + theta) * (1.0 - alpha) >= 1.0:
        raise DomainError("unsupported regime: the safety loading prices "
                          "coverage beyond the distortion slope "
                          f"((1+theta)(1-alpha) = {(1 + theta) * (1 - alpha):g} >= 1)")
    load = (1.0 + lam) * (1.0 + theta)
    tail = 1.0 - alpha
    s_vu = float(insurer_dist.survival(v_upper))
    if load < 1.0 / tail:
        case_id = "i"
    elif s_vu <= 0.0 or load <= 1.0 / s_vu:
        case_id = "ii"
        if load * s_vu > 1.0 + 1e-9:
            logger.warning("cap level exceeds 1 at the worst-case VaR in "
                           "case ii; check the inputs")
    else:
        case_id = "iii"
    x_tilde = float(insurer_dist.quantile(alpha))
    x_hat = None
    sub_case = None
    if gen is not None and beta is not None and beta > 0.0:
        m = insurer_dist.support_max
        target = float(gen.dphi(x_tilde)) + 1.0 / (beta * tail)
        x_hat = float(np.clip(gen.dphi_inv(target), 0.0, m))
        if case_id != "i":
            c2 = 1.0 / load
            x2 = float(np.clip(insurer_dist.survival_inverse_right(c2),
                               v_upper, m))
            # locate the handover point through marginals so clamping to the
            # support bound cannot flip the sub-case
            if target <= float(gen.dphi(v_upper)):
                sub_case = "x_hat_le_v_upper"
            elif target <= float(gen.dphi(x2)):
                sub_case = "x_hat_in_v_upper_x2"
            else:
                sub_case = "x_hat_gt_x2"
    return TvarCaseReport(case_id=case_id, x_tilde=x_tilde, x_hat=x_hat,
                          sub_case=sub_case)


def tvar_g_hat(x, beta, alpha, insurer_dist, gen):
    """Three-piece pointwise maximizer: benchmark, plateau, shifted survival."""
    tail = 1.0 - alpha
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    m = insurer_dist.support_max
    sq = insurer_dist.survival(np.clip(x_arr, 0.0, m))
    if beta == 0.0:
        out = np.maximum(tail, sq)
    else:
        if beta < 0.0:
            raise DomainError(f"beta must be nonnegative, got {beta}")
        x_tilde = float(insurer_dist.quantile(alpha))
        shift = 1.0 / (beta * tail)
        dphix = np.asarray(gen.dphi(np.clip(x_arr, 0.0, m)), dtype=float)
        # branch on marginals, not on the clamped x_hat: the plateau holds
        # wherever phi'(x) has not yet risen by the shift above phi'(x_tilde)
        plateau = dphix < float(gen.dphi(x_tilde)) + shift
        shifted_arg = np.clip(gen.dphi_inv(dphix - shift), 0.0, m)
        s_hat = insurer_dist.survival(shifted_arg)
        out = np.where(x_arr < x_tilde, sq, np.where(plateau, tail, s_hat))
    return float(out[0]) if np.asarray(x).ndim == 0 else out


def tvar_g_star_value(x, beta, lam, scenario, v_upper):
    """Pointwise closed-form adversary curve for the TVaR distortion."""
    if scenario.distortion is None or not scenario.distortion.name.startswith("tvar"):
        raise DomainError("closed forms require the TVaR distortion")
    xs = np.linspace(0.0, scenario.support_max, 257)
    if not np.allclose(scenario.benchmark.survival(xs),
                       scenario.insurer_survival.survival(xs), atol=1e-12):
        raise DomainError("closed forms require the benchmark to equal the "
                          "insurer's distribution")
    theta = scenario.theta
    alpha = scenario.alpha
    load = (1.0 + lam) * (1.0 + theta)
    tail = 1.0 - alpha
    sq_dist = scenario.insurer_survival
    m = scenario.support_max
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    sq = sq_dist.survival(np.clip(x_arr, 0.0, m))
    report = classify_case(lam, theta, alpha, sq_dist, v_upper,
                           gen=scenario.generator, beta=beta)
    if report.case_id == "i":
        out = sq.copy()
    else:
        ghat = np.atleast_1d(tvar_g_hat(x_arr, beta, alpha, sq_dist,
                                        scenario.generator))
        x2 = (v_upper if report.case_id == "ii"
              else float(np.clip(sq_dist.survival_inverse_right(1.0 / load),
                                 v_upper, m)))
        capped = np.minimum(ghat, np.minimum(tail * load * sq, 1.0))
        out = np.where(x_arr < v_upper, sq,
                       np.where(x_arr < x2, ghat, np.maximum(capped, sq)))
    return float(out[0]) if np.asarray(x).ndim == 0 else out
