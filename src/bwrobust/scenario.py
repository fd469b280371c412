"""Market scenario: the full data of one contracting problem instance."""

from __future__ import annotations

from dataclasses import dataclass, field

from .bregman import BregmanGenerator
from .distortions import DistortionFunction
from .distributions import LossDistribution
from .errors import ValidationError


@dataclass(frozen=True)
class MarketScenario:
    """Everything one solve needs: beliefs, pricing, preferences, ambiguity.

    ``benchmark`` is the decision maker's reference loss distribution (the
    center of the ambiguity ball); ``insurer_survival`` carries the insurer's
    belief used for pricing.  ``acceptable_var`` (the guaranteed worst-case
    VaR level) is only meaningful for the guaranteed-performance model.
    """

    theta: float
    alpha: float
    epsilon: float
    benchmark: LossDistribution
    insurer_survival: LossDistribution
    generator: BregmanGenerator
    distortion: DistortionFunction | None = None
    kappa: float = field(default=1.0)
    acceptable_var: float | None = None

    def __post_init__(self):
        problems = []
        if not (0.0 < self.alpha < 1.0):
            problems.append(f"alpha must lie in (0, 1), got {self.alpha}")
        if not (self.theta > 0.0):
            problems.append(f"theta must be positive, got {self.theta}")
        if not (0.0 <= self.kappa <= 1.0):
            problems.append(f"kappa must lie in [0, 1], got {self.kappa}")
        if not (self.epsilon > 0.0):
            problems.append(f"epsilon must be positive, got {self.epsilon}")
        m = self.benchmark.support_max
        if abs(self.insurer_survival.support_max - m) > 1e-9 * max(1.0, m):
            problems.append("benchmark and insurer supports disagree")
        if self.generator.domain_max < m * (1.0 - 1e-12):
            problems.append("generator domain does not cover the loss support")
        if problems:
            raise ValidationError("invalid scenario", items=problems)

    @property
    def support_max(self):
        return self.benchmark.support_max
