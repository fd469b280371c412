"""Bregman generators and the Bregman-Wasserstein divergence.

The divergence between two loss distributions is the optimal-transport cost
with pointwise cost ``phi(x) - phi(y) - phi'(y)(x - y)``; on the real line
the optimal coupling is comonotone, so the cost reduces to an integral over
paired quantiles.  A second representation in terms of survival functions is
also provided and the two must agree; tests exploit that as an independent
cross-check.  Both are integrated on the Gauss panels of ``panel_quad``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, ValidationError
from .numerics import TailIntegral, panel_quad
# not called here; the traced benchmark run (bench/tracing.py) wraps it by name
from .numerics import adaptive_quad  # noqa: F401


@dataclass(frozen=True)
class BregmanGenerator:
    """Strictly convex C1 generator on ``[0, domain_max]``.

    ``d2phi`` may be discontinuous on a null set (the right limit is used at
    kinks, whose locations are listed in ``kinks``).  ``dphi_inverse`` is the
    closed-form inverse of the increasing derivative.
    """

    phi: Callable
    dphi: Callable
    d2phi: Callable
    domain_max: float
    dphi_inverse: Callable
    name: str = ""
    kinks: tuple = ()

    def dphi_inv(self, u):
        lo = self.dphi(0.0)
        hi = self.dphi(self.domain_max)
        return np.clip(self.dphi_inverse(np.clip(u, lo, hi)), 0.0, self.domain_max)


def quadratic_generator(domain_max):
    """phi(x) = x^2; the divergence reduces to squared distance."""
    return BregmanGenerator(
        phi=lambda x: np.square(x),
        dphi=lambda x: 2.0 * np.asarray(x, dtype=float),
        d2phi=lambda x: np.full_like(np.asarray(x, dtype=float), 2.0),
        domain_max=float(domain_max),
        name="quadratic",
        dphi_inverse=lambda u: 0.5 * np.asarray(u, dtype=float),
    )


def make_piecewise_quadratic_generator(q_alpha, k, domain_max):
    """Quadratic below ``q_alpha``, curvature ``k`` above, glued C1.

    ``phi(x) = x^2`` on ``[0, q_alpha)`` and
    ``q_alpha^2 + 2 q_alpha (x - q_alpha) + k (x - q_alpha)^2`` above, so k
    scales the penalty on losses exceeding ``q_alpha`` only.
    """
    if not (0.0 < q_alpha < domain_max):
        raise DomainError(f"q_alpha must lie in (0, domain_max), got {q_alpha}")
    if not (k > 0.0):
        raise DomainError(f"curvature k must be positive, got {k}")
    q = float(q_alpha)
    k = float(k)

    def phi(x):
        x = np.asarray(x, dtype=float)
        return np.where(x < q, x * x, q * q + 2.0 * q * (x - q) + k * np.square(x - q))

    def dphi(x):
        x = np.asarray(x, dtype=float)
        return np.where(x < q, 2.0 * x, 2.0 * q + 2.0 * k * (x - q))

    def d2phi(x):
        x = np.asarray(x, dtype=float)
        return np.where(x < q, 2.0, 2.0 * k)

    def dphi_inverse(u):
        u = np.asarray(u, dtype=float)
        return np.where(u < 2.0 * q, 0.5 * u, q + (u - 2.0 * q) / (2.0 * k))

    return BregmanGenerator(phi=phi, dphi=dphi, d2phi=d2phi,
                            domain_max=float(domain_max),
                            name=f"piecewise_quadratic({q:g},{k:g})",
                            kinks=(q,), dphi_inverse=dphi_inverse)


def make_xlogx_generator(shift, domain_max):
    """phi(x) = (x + a) ln(x + a): asymmetric, lighter penalty at large x."""
    if not (shift > 0.0):
        raise DomainError(f"shift must be positive, got {shift}")
    a = float(shift)
    return BregmanGenerator(
        phi=lambda x: (np.asarray(x, dtype=float) + a) * np.log(np.asarray(x, dtype=float) + a),
        dphi=lambda x: np.log(np.asarray(x, dtype=float) + a) + 1.0,
        d2phi=lambda x: 1.0 / (np.asarray(x, dtype=float) + a),
        domain_max=float(domain_max),
        name=f"xlogx_shift({a:g})",
        dphi_inverse=lambda u: np.exp(np.asarray(u, dtype=float) - 1.0) - a,
    )


_GEN_PATTERN = re.compile(r"^\s*([a-z_]+)\s*(?:\(\s*([^)]*)\s*\))?\s*$")


def parse_generator(spec, domain_max, q_alpha=None):
    """Build a generator from a config string.

    Accepted forms: ``quadratic``, ``piecewise_quadratic(q, k)`` where ``q``
    may be the literal ``q_alpha`` (resolved against the benchmark quantile),
    and ``xlogx_shift(a)``.
    """
    m = _GEN_PATTERN.match(str(spec))
    if not m:
        raise ValidationError(f"cannot parse generator spec {spec!r}")
    name, args = m.group(1), m.group(2)
    argv = [a.strip() for a in args.split(",")] if args else []

    def num(s):
        if s == "q_alpha":
            if q_alpha is None:
                raise ValidationError("generator spec uses q_alpha but no "
                                      "benchmark quantile is available")
            return float(q_alpha)
        return float(s)

    if name == "quadratic":
        if argv:
            raise ValidationError("quadratic takes no arguments")
        return quadratic_generator(domain_max)
    if name == "piecewise_quadratic":
        if len(argv) != 2:
            raise ValidationError("piecewise_quadratic needs (q, k)")
        return make_piecewise_quadratic_generator(num(argv[0]), num(argv[1]), domain_max)
    if name == "xlogx_shift":
        if len(argv) != 1:
            raise ValidationError("xlogx_shift needs (a)")
        return make_xlogx_generator(num(argv[0]), domain_max)
    raise ValidationError(f"unknown generator {name!r}")


def validate_generator(gen):
    """Spot-check convexity and derivative consistency on a grid."""
    rel_tol = 1e-6
    xs = np.linspace(0.0, gen.domain_max, 512)
    if np.any(gen.d2phi(xs) <= 0.0):
        raise ValidationError(f"generator {gen.name!r} is not strictly convex")
    if not np.all(np.isfinite(gen.dphi(xs))):
        raise ValidationError(f"generator {gen.name!r} has unbounded derivative")
    h = 1e-6 * max(1.0, gen.domain_max)
    interior = xs[(xs > 2 * h) & (xs < gen.domain_max - 2 * h)]
    near_kink = np.zeros_like(interior, dtype=bool)
    for kx in gen.kinks:
        near_kink |= np.abs(interior - kx) < 4 * h
    interior = interior[~near_kink]
    fd1 = (gen.phi(interior + h) - gen.phi(interior - h)) / (2 * h)
    err1 = np.abs(fd1 - gen.dphi(interior)) / np.maximum(1.0, np.abs(gen.dphi(interior)))
    fd2 = (gen.dphi(interior + h) - gen.dphi(interior - h)) / (2 * h)
    err2 = np.abs(fd2 - gen.d2phi(interior)) / np.maximum(1.0, np.abs(gen.d2phi(interior)))
    if err1.size and err1.max() > rel_tol:
        raise ValidationError(f"dphi disagrees with finite differences of phi "
                              f"(max rel err {err1.max():.2e})")
    if err2.size and err2.max() > 100 * rel_tol:
        raise ValidationError(f"d2phi disagrees with finite differences of dphi "
                              f"(max rel err {err2.max():.2e})")


def _check_domain(gen, *vals):
    slop = 1e-9 * max(1.0, gen.domain_max)
    for v in vals:
        arr = np.asarray(v, dtype=float)
        if np.any(arr < -slop) or np.any(arr > gen.domain_max + slop):
            raise DomainError(f"argument outside [0, {gen.domain_max}]")


def pointwise_divergence(gen, x, y):
    """B(x, y) = phi(x) - phi(y) - phi'(y)(x - y); nonnegative, 0 iff x == y."""
    _check_domain(gen, x, y)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    out = gen.phi(x) - gen.phi(y) - gen.dphi(y) * (x - y)
    out = np.maximum(out, 0.0)  # clip roundoff at the diagonal
    return float(out) if out.ndim == 0 else out


def _quantile_points(gen, f1, f2):
    pts = set(f1.quantile_breakpoints()) | set(f2.quantile_breakpoints())
    for kx in gen.kinks:
        pts.add(float(f1.cdf(kx)))
        pts.add(float(f2.cdf(kx)))
    return sorted(p for p in pts if 0.0 < p < 1.0)


def bw_divergence_quantile(gen, f1, f2, tol=1e-9):
    """Divergence from ``f1`` to ``f2`` via the paired-quantile integral.

    Both quantiles are smooth between their breakpoints (a tabulated CDF has
    a piecewise-linear quantile), so the integral goes to error-controlled
    Gauss panels on the merged breakpoints; ``tol`` is absolute.
    """
    for d in (f1, f2):
        if d.support_max > gen.domain_max + 1e-9 * max(1.0, gen.domain_max):
            raise DomainError("distribution support exceeds the generator domain")

    def integrand(t):
        return pointwise_divergence(gen, f1.quantile(t), f2.quantile(t))

    val = panel_quad(integrand, 0.0, 1.0, points=_quantile_points(gen, f1, f2),
                     tol=tol)
    return max(val, 0.0)


def bw_divergence_survival(gen, f1, f2, tol=1e-9):
    """Same divergence through the survival-function representation.

    Requires a bounded generator derivative on the support (true for every
    generator built by this module).  The three terms are::

        int (phi'(x) - phi'(0)) S1(x) dx
      + int phi''(x) x S2(x) dx
      - int int phi''(y) min(S2(y), S1(x)) dy dx
    """
    for d in (f1, f2):
        if d.support_max > gen.domain_max + 1e-9 * max(1.0, gen.domain_max):
            raise DomainError("distribution support exceeds the generator domain")
    m1, m2 = f1.support_max, f2.support_max
    dphi0 = float(gen.dphi(0.0))
    pts1 = tuple(f1.x_breakpoints()) + tuple(gen.kinks)
    pts2 = tuple(f2.x_breakpoints()) + tuple(gen.kinks)
    # every integrand vanishes where its survival function does
    term1 = panel_quad(lambda x: (gen.dphi(x) - dphi0) * f1.survival(x),
                       0.0, m1, points=pts1, tol=tol / 4)
    term2 = panel_quad(lambda x: gen.d2phi(x) * x * f2.survival(x),
                       0.0, m2, points=pts2, tol=tol / 4)
    tail = TailIntegral(lambda y: gen.d2phi(y) * f2.survival(y),
                        pts2, 0.0, m2, max_cell=max(1e-3, m2 / 4096))

    def w2(s):
        # integral of phi''(y) * min(S2(y), s) over [0, m2]
        q = np.where(s < 1.0, f2.survival_inverse(s), 0.0)
        return np.where(s > 0.0, s * (gen.dphi(q) - dphi0) + tail(q), 0.0)

    # w2(S1(x)) kinks where S1 crosses the level of S2 at a breakpoint of S2
    # (either side of an atom) or a kink of phi, at either end of a flat of S1
    lv = 1.0 - np.concatenate([f2.quantile_breakpoints(),
                               f2.cdf(np.asarray(gen.kinks, dtype=float))])
    lv = lv[(lv > 0.0) & (lv < 1.0)]
    cross_pts = pts1 + tuple(f1.survival_inverse(lv)) + tuple(
        f1.survival_inverse_right(lv))
    cross = panel_quad(lambda x: w2(f1.survival(x)), 0.0, m1, points=cross_pts,
                       tol=tol / 2)
    return term1 + term2 - cross
