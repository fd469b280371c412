"""Piecewise-linear indemnity contracts and the expected-value premium.

An indemnity maps a realized loss to the insurer's payout.  Admissible
contracts start at zero and are nondecreasing and 1-Lipschitz (slopes in
[0, 1]), which rules out payout schedules that reward loss inflation.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, ValidationError

_SLOPE_TOL = 1e-9


class Indemnity:
    """Piecewise-linear contract: breakpoints plus per-segment slopes.

    ``breakpoints`` has n+1 sorted entries starting at 0; ``slopes`` has n
    entries in [0, 1].  The contract is constant beyond the last breakpoint.
    """

    def __init__(self, breakpoints, slopes):
        xs = np.asarray(breakpoints, dtype=float)
        sl = np.asarray(slopes, dtype=float)
        if xs.ndim != 1 or sl.ndim != 1 or len(xs) != len(sl) + 1:
            raise ValidationError("need n+1 breakpoints for n slopes")
        if xs[0] != 0.0:
            raise ValidationError(f"first breakpoint must be 0, got {xs[0]}")
        if np.any(np.diff(xs) < 0):
            raise ValidationError("breakpoints must be nondecreasing")
        if np.any(sl < -_SLOPE_TOL) or np.any(sl > 1.0 + _SLOPE_TOL):
            raise ValidationError(f"slopes outside [0, 1]: {sl}")
        self.breakpoints = xs
        self.slopes = np.clip(sl, 0.0, 1.0)
        self._values = np.concatenate(
            [[0.0], np.cumsum(self.slopes * np.diff(xs))])

    @classmethod
    def zero(cls, support_max):
        return cls([0.0, float(support_max)], [0.0])

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        out = np.interp(x, self.breakpoints, self._values)
        # constant extension beyond the last breakpoint is what interp does
        return float(out) if out.ndim == 0 else out

    def slope_at(self, x):
        """Right-continuous marginal payout rate."""
        x = np.asarray(x, dtype=float)
        idx = np.searchsorted(self.breakpoints, x, side="right") - 1
        idx = np.clip(idx, 0, len(self.slopes) - 1)
        out = np.where(x >= self.breakpoints[-1], 0.0, self.slopes[idx])
        return float(out) if out.ndim == 0 else out

    def total(self):
        """Payout at the top of the support."""
        return float(self._values[-1])

    def simplified(self):
        """Merge equal-slope and zero-width segments for stable reporting."""
        tol = 1e-12
        width_tol = tol * max(1.0, float(self.breakpoints[-1]))
        segs = []  # (start, end, slope)
        for a, b, sl in zip(self.breakpoints[:-1], self.breakpoints[1:],
                            self.slopes):
            if b - a <= width_tol:
                continue
            if segs and abs(sl - segs[-1][2]) <= tol and abs(a - segs[-1][1]) <= width_tol:
                segs[-1] = (segs[-1][0], b, segs[-1][2])
            else:
                start = segs[-1][1] if segs else 0.0
                segs.append((start, b, sl))
        if not segs:
            return Indemnity.zero(self.breakpoints[-1])
        xs = [0.0] + [s[1] for s in segs]
        sl = [s[2] for s in segs]
        return Indemnity(xs, sl)

    def __repr__(self):
        s = self.simplified()
        segs = ", ".join(
            f"[{a:g},{b:g}]@{sl:g}"
            for a, b, sl in zip(s.breakpoints[:-1], s.breakpoints[1:], s.slopes)
            if sl > 0)
        return f"Indemnity({segs or 'zero'})"


def indemnity_from_sign_regions(regions, support_max, eta=1.0):
    """Contract integrating the marginal rule over classified regions.

    ``regions`` is a list of ``(a, b, sign)``: slope 1 where the net price is
    negative, ``eta`` where it vanishes, 0 where it is positive.
    """
    if not (0.0 <= eta <= 1.0):
        raise DomainError(f"eta must lie in [0, 1], got {eta}")
    width_tol = 1e-12 * max(1.0, float(support_max))
    regions = [(a, b, s) for a, b, s in regions if b - a > width_tol]
    pts = {0.0, float(support_max)}
    for a, b, _ in regions:
        pts.update((float(a), float(b)))
    xs = np.array(sorted(pts))
    slopes = np.zeros(len(xs) - 1)
    mids = 0.5 * (xs[:-1] + xs[1:])
    for a, b, sign in regions:
        inside = (mids > a) & (mids < b)
        if sign < 0:
            slopes[inside] = 1.0
        elif sign == 0:
            slopes[inside] = eta
    return Indemnity(xs, slopes)


def expected_value_premium(contract, insurer_dist, theta):
    """Premium ``(1 + theta) * E_Q[I(X)]`` for a piecewise-linear contract.

    Uses ``E_Q[I(X)] = integral of I'(x) S_Q(x) dx``, computed segment by
    segment with the distribution's exact survival integral.
    """
    if theta < 0.0:
        raise DomainError(f"safety loading must be nonnegative, got {theta}")
    m = insurer_dist.support_max
    total = 0.0
    for a, b, sl in zip(contract.breakpoints[:-1], contract.breakpoints[1:],
                        contract.slopes):
        if sl == 0.0 or a >= m:
            continue
        total += sl * insurer_dist.survival_integral(a, min(b, m))
    return (1.0 + theta) * total
