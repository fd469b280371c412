"""Distortion functions for distortion risk measures.

A distortion is an increasing map of [0, 1] onto itself; the induced risk
measure integrates the distorted survival function.  Concave distortions
(all instances here) give convex, coherent risk measures.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, ValidationError


@dataclass(frozen=True)
class DistortionFunction:
    """Distortion ``g`` with generalized inverse and right derivative.

    ``ginv(u) = inf{t : g(t) >= u}``; ``gprime_right`` is the right
    derivative, which is the object the worst-case-curve search needs because
    concave distortions may kink.  ``kink_levels`` lists the probabilities
    where ``g`` is not differentiable, so quadrature can split panels there.

    ``maximizer(dphix, s0, beta, benchmark, generator)``, when set, returns
    the pointwise maximizer of ``g(t) - beta * (marginal divergence cost)``
    over ``t`` in ``[S_0(x), 1]`` in closed form, given ``dphix = phi'(x)``,
    ``s0 = S_0(x)`` and ``beta > 0``; without it the worst-case-curve search
    bisects on the right derivative.
    """

    name: str
    g: Callable
    ginv: Callable
    gprime_right: Callable
    kink_levels: tuple = ()
    maximizer: Callable | None = None

    def __call__(self, t):
        return self.g(t)


def tvar_distortion(alpha):
    """Expected shortfall beyond the alpha quantile: g(t) = min(t/(1-a), 1)."""
    if not (0.0 < alpha < 1.0):
        raise DomainError(f"alpha must lie in (0, 1), got {alpha}")
    tail = 1.0 - alpha

    def g(t):
        t = np.asarray(t, dtype=float)
        out = np.minimum(t / tail, 1.0)
        return float(out) if out.ndim == 0 else out

    def ginv(u):
        u = np.asarray(u, dtype=float)
        out = np.clip(u, 0.0, 1.0) * tail
        return float(out) if out.ndim == 0 else out

    def gprime_right(t):
        t = np.asarray(t, dtype=float)
        out = np.where(t < tail, 1.0 / tail, 0.0)
        return float(out) if out.ndim == 0 else out

    def maximizer(dphix, s0, beta, benchmark, generator):
        # below the kink, k'(t) = 1/(1-a) - beta (phi'(x) - phi'(Q0(t))) <= 0
        # iff Q0(t) <= y with phi'(y) = phi'(x) - 1/(beta (1-a)), iff
        # S0(y) <= t (right-continuity handles atoms); at and above the kink
        # k'(t) <= 0 for every t >= S0(x).  A target below phi'(0) admits no
        # t under the kink: S0(y) is 1 there, which S0(0) is unless 0 is an atom.
        target = np.asarray(dphix, dtype=float) - 1.0 / (beta * tail)
        y = generator.dphi_inv(target)
        s_y = np.where(target < generator.dphi(0.0), 1.0,
                       benchmark.survival(np.minimum(y, benchmark.support_max)))
        return np.maximum(s0, np.minimum(tail, s_y))

    return DistortionFunction(name=f"tvar({alpha:g})", g=g, ginv=ginv,
                              gprime_right=gprime_right, kink_levels=(tail,),
                              maximizer=maximizer)


def power_distortion(exponent):
    """g(t) = t^c for c in (0, 1]; c = 1 is the plain expectation."""
    if not (0.0 < exponent <= 1.0):
        raise DomainError(f"exponent must lie in (0, 1], got {exponent}")
    c = float(exponent)

    def g(t):
        t = np.asarray(t, dtype=float)
        out = np.power(np.clip(t, 0.0, 1.0), c)
        return float(out) if out.ndim == 0 else out

    def ginv(u):
        u = np.asarray(u, dtype=float)
        out = np.power(np.clip(u, 0.0, 1.0), 1.0 / c)
        return float(out) if out.ndim == 0 else out

    def gprime_right(t):
        t = np.asarray(t, dtype=float)
        with np.errstate(divide="ignore"):
            out = np.where(t <= 0.0, np.inf if c < 1.0 else 1.0,
                           c * np.power(np.maximum(t, 1e-300), c - 1.0))
        return float(out) if out.ndim == 0 else out

    name = "expected_value" if c == 1.0 else f"power({c:g})"
    return DistortionFunction(name=name, g=g, ginv=ginv,
                              gprime_right=gprime_right)


_DIST_PATTERN = re.compile(r"^\s*([a-z_]+)\s*(?:\(\s*([^)]*)\s*\))?\s*$")


def parse_distortion(spec, default_alpha=None):
    """Build a distortion from a config string.

    ``tvar`` (using the scenario confidence level), ``tvar(a)``,
    ``power(c)``, ``expected_value``.
    """
    m = _DIST_PATTERN.match(str(spec))
    if not m:
        raise ValidationError(f"cannot parse distortion spec {spec!r}")
    name, args = m.group(1), m.group(2)
    argv = [a.strip() for a in args.split(",")] if args else []
    if name == "tvar":
        if argv:
            return tvar_distortion(float(argv[0]))
        if default_alpha is None:
            raise ValidationError("tvar distortion needs an alpha")
        return tvar_distortion(float(default_alpha))
    if name == "power":
        if len(argv) != 1:
            raise ValidationError("power distortion needs one exponent")
        return power_distortion(float(argv[0]))
    if name == "expected_value":
        if argv:
            raise ValidationError("expected_value takes no arguments")
        return power_distortion(1.0)
    raise ValidationError(f"unknown distortion {name!r}")


def validate_distortion(dist, n_grid=512, tol=1e-9):
    """Check boundary values, monotonicity, midpoint concavity, inverse."""
    ts = np.linspace(0.0, 1.0, n_grid)
    gs = np.asarray(dist.g(ts))
    problems = []
    if abs(gs[0]) > tol or abs(gs[-1] - 1.0) > tol:
        problems.append("g(0) != 0 or g(1) != 1")
    if np.any(np.diff(gs) < -tol):
        problems.append("g is not nondecreasing")
    mid = dist.g(0.5 * (ts[:-1] + ts[1:]))
    if np.any(mid + tol < 0.5 * (gs[:-1] + gs[1:])):
        problems.append("g fails the midpoint concavity test")
    us = np.linspace(0.0, 1.0, 64)
    if np.any(np.asarray(dist.g(dist.ginv(us))) < us - 1e-7):
        problems.append("g(ginv(u)) < u somewhere")
    if np.any(np.asarray(dist.ginv(dist.g(ts))) > ts + 1e-7):
        problems.append("ginv(g(t)) > t somewhere")
    if problems:
        raise ValidationError(f"invalid distortion {dist.name!r}", items=problems)
