"""Robust insurance indemnity design over Bregman-Wasserstein ambiguity balls.

The package computes the divergence between loss distributions, extremal
value-at-risk over divergence balls, and optimal indemnity contracts for two
robust models: the kappa-weighted worst/best-case VaR criterion and the
worst-case distortion-risk model under a guaranteed worst-case-VaR cap.
"""

from .alpha_maxmin import (MaxminSolution, maxmin_objective, net_price_H,
                           solve_maxmin, thresholds)
from .bregman import (BregmanGenerator, bw_divergence_quantile,
                      bw_divergence_survival, make_piecewise_quadratic_generator,
                      make_xlogx_generator, parse_generator,
                      pointwise_divergence, quadratic_generator,
                      validate_generator)
from .distortions import (DistortionFunction, parse_distortion,
                          power_distortion, tvar_distortion,
                          validate_distortion)
from .distributions import (FlattenedQuantile, LossDistribution, TabulatedCdf,
                            TruncatedExponential, load_tabulated,
                            make_tabulated, make_truncated_exponential)
from .errors import (BwRobustError, DomainError, InfeasibleError,
                     NumericsError, ValidationError)
from .guaranteed_var import (RegionPartition, RobustSolution, SurvivalCurve,
                             alternating_best_response, g_hat, g_star,
                             indemnity_from_survival, modified_survival,
                             net_price, region_partition, solve_inner,
                             solve_problem2)
from .indemnity import Indemnity, expected_value_premium
from .scenario import MarketScenario
from .tvar import TvarCaseReport, classify_case, tvar_g_hat, tvar_g_star, tvar_g_star_value
from .var_bounds import (VarBounds, best_case_var, compute_var_bounds,
                         tail_budget, witness_best, witness_near_worst,
                         worst_case_var)

__version__ = "0.1.0"

__all__ = [
    "BregmanGenerator", "BwRobustError", "DistortionFunction", "DomainError",
    "FlattenedQuantile", "Indemnity", "InfeasibleError", "LossDistribution",
    "MarketScenario", "MaxminSolution", "NumericsError", "RegionPartition",
    "RobustSolution", "SurvivalCurve", "TabulatedCdf", "TruncatedExponential",
    "TvarCaseReport", "ValidationError", "VarBounds",
    "alternating_best_response", "best_case_var", "bw_divergence_quantile",
    "bw_divergence_survival", "classify_case", "compute_var_bounds",
    "expected_value_premium", "g_hat", "g_star", "indemnity_from_survival",
    "load_tabulated", "make_piecewise_quadratic_generator", "make_tabulated",
    "make_truncated_exponential", "make_xlogx_generator", "maxmin_objective",
    "modified_survival", "net_price", "net_price_H", "parse_distortion",
    "parse_generator", "pointwise_divergence", "power_distortion",
    "quadratic_generator", "region_partition", "solve_inner", "solve_maxmin",
    "solve_problem2", "tail_budget", "thresholds", "tvar_distortion",
    "tvar_g_hat", "tvar_g_star", "tvar_g_star_value", "validate_distortion",
    "validate_generator", "witness_best", "witness_near_worst",
    "worst_case_var",
]
