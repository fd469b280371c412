"""Loss distributions on a bounded support ``[0, M]``.

Every distribution exposes the CDF, the survival function and the
generalized-inverse (left) quantile ``inf{x : F(x) >= t}``, with atoms and
flat CDF segments handled exactly.  All evaluators accept floats or numpy
arrays and are pure, so instances are safe to share across threads.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, ValidationError
from .numerics import adaptive_quad

_REL_SLOP = 1e-9  # tolerance for floating-point slop at domain edges


def _as_array(x):
    arr = np.asarray(x, dtype=float)
    return arr, arr.ndim == 0


def _ret(values, scalar):
    if scalar:
        return float(np.asarray(values).reshape(-1)[0])
    return values


class LossDistribution:
    """Base class: a CDF on ``[0, support_max]`` with exact quantile algebra."""

    support_max: float

    # -- abstract evaluators (vectorized) -----------------------------------
    def _cdf(self, x):
        raise NotImplementedError

    def _quantile(self, t):
        raise NotImplementedError

    def _quantile_right(self, t):
        """``inf{x : F(x) > t}`` (right-continuous inverse)."""
        raise NotImplementedError

    def _survival(self, x):
        # subclasses with an exact tail formula override this; the generic
        # complement loses precision once F(x) is within an ulp of 1
        return 1.0 - np.clip(self._cdf(x), 0.0, 1.0)

    # -- public API ----------------------------------------------------------
    def cdf(self, x):
        """F(x), extended by 0 below the support and 1 above it."""
        arr, scalar = _as_array(x)
        out = np.clip(self._cdf(np.clip(arr, 0.0, self.support_max)), 0.0, 1.0)
        out = np.where(arr < 0.0, 0.0, out)
        return _ret(out, scalar)

    def survival(self, x):
        """S(x) = 1 - F(x) for x in [0, support_max]."""
        arr, scalar = _as_array(x)
        slop = _REL_SLOP * max(1.0, self.support_max)
        if np.any(arr < -slop) or np.any(arr > self.support_max + slop):
            raise DomainError(
                f"loss {arr!r} outside the support [0, {self.support_max}]")
        arr = np.clip(arr, 0.0, self.support_max)
        return _ret(np.clip(self._survival(arr), 0.0, 1.0), scalar)

    def quantile(self, t):
        """Generalized inverse ``inf{x : F(x) >= t}`` for t in (0, 1]."""
        arr, scalar = _as_array(t)
        if np.any(arr <= 0.0) or np.any(arr > 1.0):
            raise DomainError(f"probability level {arr!r} outside (0, 1]")
        return _ret(np.clip(self._quantile(arr), 0.0, self.support_max), scalar)

    def quantile_right(self, t):
        """``inf{x : F(x) > t}``, the right endpoint of the level set at t."""
        arr, scalar = _as_array(t)
        if np.any(arr < 0.0) or np.any(arr > 1.0):
            raise DomainError(f"probability level {arr!r} outside [0, 1]")
        out = np.where(arr >= 1.0, self.support_max,
                       np.clip(self._quantile_right(arr), 0.0, self.support_max))
        return _ret(out, scalar)

    def survival_inverse(self, s):
        """``inf{x : S(x) <= s}``; overridden where the complement of the
        CDF would lose the deep tail to cancellation."""
        arr, scalar = _as_array(s)
        arr = np.clip(arr, 0.0, 1.0)
        out = self._quantile(np.minimum(np.maximum(1.0 - arr, 1e-300), 1.0))
        return _ret(np.clip(out, 0.0, self.support_max), scalar)

    def survival_inverse_right(self, s):
        """``sup{x : S(x) >= s}``, the right endpoint of the survival level
        set (differs from ``survival_inverse`` only across flat segments)."""
        arr, scalar = _as_array(s)
        arr = np.clip(arr, 0.0, 1.0)
        out = self._quantile_right(np.minimum(np.maximum(1.0 - arr, 0.0), 1.0))
        return _ret(np.clip(out, 0.0, self.support_max), scalar)

    # -- structure for quadrature --------------------------------------------
    def quantile_breakpoints(self):
        """Probability levels where the quantile function kinks or jumps."""
        return ()

    def x_breakpoints(self):
        """Loss levels where F kinks (atoms, tabulation knots)."""
        return ()

    def atoms(self):
        """Loss levels carrying positive mass, where the survival jumps."""
        return ()

    def survival_integral(self, a, b):
        """Exact-ish integral of the survival function over ``[a, b]``."""
        a = float(np.clip(a, 0.0, self.support_max))
        b = float(np.clip(b, 0.0, self.support_max))
        if b <= a:
            return 0.0
        return adaptive_quad(lambda x: self.survival(x), a, b,
                             points=self.x_breakpoints(), tol=1e-12)


class TruncatedExponential(LossDistribution):
    """Exponential with the given mean parameter, conditioned on ``[0, M]``.

    ``F(x) = (1 - exp(-x/mean)) / (1 - exp(-M/mean))``.  The conditioning
    pulls the actual mean slightly below the nominal parameter.
    """

    def __init__(self, mean, support_max):
        if not (mean > 0.0):
            raise DomainError(f"mean must be positive, got {mean}")
        if not (support_max > mean):
            raise DomainError(
                f"support_max must exceed the mean, got {support_max} <= {mean}")
        self.mean = float(mean)
        self.support_max = float(support_max)
        self._norm = -np.expm1(-self.support_max / self.mean)  # 1 - e^{-M/m}

    def _cdf(self, x):
        return -np.expm1(-x / self.mean) / self._norm

    def _survival(self, x):
        # exact in the far tail, where 1 - F(x) would round to zero
        return (np.exp(-x / self.mean)
                - np.exp(-self.support_max / self.mean)) / self._norm

    def _quantile(self, t):
        # log of the clamped complement instead of log1p: warning-free at
        # t = 1 and accurate enough everywhere the value is used
        out = -self.mean * np.log(np.maximum(1.0 - t * self._norm, 1e-300))
        return np.minimum(out, self.support_max)

    def _quantile_right(self, t):
        return self._quantile(np.clip(t, 1e-300, 1.0))

    def survival_inverse(self, s):
        # exact through the survival scale: x = -m ln(s (1 - e^-M/m) + e^-M/m)
        s = np.clip(np.asarray(s, dtype=float), 0.0, 1.0)
        tail = np.exp(-self.support_max / self.mean)
        out = -self.mean * np.log(s * self._norm + tail)
        out = np.clip(out, 0.0, self.support_max)
        return float(out) if out.ndim == 0 else out

    def survival_inverse_right(self, s):
        return self.survival_inverse(s)

    def survival_integral(self, a, b):
        a = float(np.clip(a, 0.0, self.support_max))
        b = float(np.clip(b, 0.0, self.support_max))
        if b <= a:
            return 0.0
        m, tail = self.mean, np.exp(-self.support_max / self.mean)
        return (m * (np.exp(-a / m) - np.exp(-b / m)) - (b - a) * tail) / self._norm

    def __repr__(self):
        return f"TruncatedExponential(mean={self.mean}, support_max={self.support_max})"


class TabulatedCdf(LossDistribution):
    """Piecewise-linear CDF through knots, with atoms via duplicated losses.

    Knots are ``(x, F(x))`` pairs with nondecreasing x; two consecutive knots
    sharing the same x encode a jump (an atom).  The final probability must
    be 1 and probabilities must be nondecreasing.
    """

    def __init__(self, knots):
        knots = [(float(x), float(p)) for x, p in knots]
        if not knots:
            raise ValidationError("tabulated CDF needs at least one knot")
        xs = np.array([k[0] for k in knots])
        ps = np.array([k[1] for k in knots])
        problems = []
        if np.any(np.diff(xs) < 0):
            problems.append("knot losses must be nondecreasing")
        if np.any(np.diff(ps) < 0):
            problems.append("knot probabilities must be nondecreasing")
        if np.any(ps > 1.0) or np.any(ps < 0.0):
            problems.append("knot probabilities must lie in [0, 1]")
        if abs(ps[-1] - 1.0) > 1e-12:
            problems.append(f"final probability must be 1, got {ps[-1]}")
        if xs[0] < 0.0:
            problems.append("knot losses must be nonnegative")
        # at most two knots may share one abscissa (jump encoding)
        for x in np.unique(xs):
            if np.count_nonzero(xs == x) > 2:
                problems.append(f"more than two knots at x={x}")
        if problems:
            raise ValidationError("invalid tabulated CDF", items=problems)
        ps[-1] = 1.0
        self.xs = xs
        self.ps = ps
        self.support_max = float(xs[-1])

    def _cdf(self, x):
        # np.interp is right-continuous at duplicated abscissae, which is
        # exactly the atom convention used here
        return np.interp(x, self.xs, self.ps)

    def _quantile(self, t):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        idx = np.searchsorted(self.ps, t, side="left")
        idx = np.clip(idx, 0, len(self.ps) - 1)
        x_hi = self.xs[idx]
        p_hi = self.ps[idx]
        prev = np.maximum(idx - 1, 0)
        x_lo = self.xs[prev]
        p_lo = self.ps[prev]
        rising = (idx > 0) & (p_hi > p_lo) & (x_hi > x_lo) & (t > p_lo)
        frac = np.where(rising, (t - p_lo) / np.where(p_hi > p_lo, p_hi - p_lo, 1.0), 1.0)
        out = np.where(rising, x_lo + frac * (x_hi - x_lo), x_hi)
        # t at or below the first knot probability maps to the first loss
        out = np.where(t <= self.ps[0], self.xs[0], out)
        return out

    def _quantile_right(self, t):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        idx = np.searchsorted(self.ps, t, side="right")
        inside = idx < len(self.ps)
        idx_c = np.clip(idx, 0, len(self.ps) - 1)
        x_hi = self.xs[idx_c]
        p_hi = self.ps[idx_c]
        prev = np.maximum(idx_c - 1, 0)
        x_lo = self.xs[prev]
        p_lo = self.ps[prev]
        # t == p_lo: the level set ends at the knot x_lo, frac is 0
        rising = inside & (idx_c > 0) & (p_hi > p_lo) & (x_hi > x_lo) & (t >= p_lo)
        frac = np.where(rising, (t - p_lo) / np.where(p_hi > p_lo, p_hi - p_lo, 1.0), 0.0)
        out = np.where(rising, x_lo + frac * (x_hi - x_lo), x_hi)
        out = np.where(~inside, self.support_max, out)
        out = np.where(t < self.ps[0], self.xs[0], out)
        return out

    def quantile_breakpoints(self):
        return tuple(np.unique(self.ps))

    def x_breakpoints(self):
        return tuple(np.unique(self.xs))

    def atoms(self):
        jumps = (self.xs[1:] == self.xs[:-1]) & (self.ps[1:] > self.ps[:-1])
        return tuple(self.xs[1:][jumps])

    def survival_integral(self, a, b):
        a = float(np.clip(a, 0.0, self.support_max))
        b = float(np.clip(b, 0.0, self.support_max))
        if b <= a:
            return 0.0
        total = 0.0
        if a < self.xs[0]:  # survival is 1 below the first knot
            total += min(b, self.xs[0]) - a
        # per-segment trapezoids on the raw knot pairs keep jump knots
        # (duplicate abscissae) from leaking their right value leftward
        for i in range(len(self.xs) - 1):
            lo, hi = self.xs[i], self.xs[i + 1]
            if hi <= lo or hi <= a or lo >= b:
                continue
            s_lo = 1.0 - self.ps[i]
            s_hi = 1.0 - self.ps[i + 1]
            aa, bb = max(lo, a), min(hi, b)
            frac_a = (aa - lo) / (hi - lo)
            frac_b = (bb - lo) / (hi - lo)
            sa = s_lo + frac_a * (s_hi - s_lo)
            sb = s_lo + frac_b * (s_hi - s_lo)
            total += 0.5 * (sa + sb) * (bb - aa)
        return total

    def __repr__(self):
        return f"TabulatedCdf({len(self.xs)} knots, support_max={self.support_max})"


class FlattenedQuantile(LossDistribution):
    """A distribution whose quantile equals a base quantile outside a window.

    On ``(t_lo, t_hi]`` the quantile is the constant ``level``; elsewhere it
    coincides with the base distribution.  This is the shape of the extremal
    distributions for value-at-risk over a divergence ball: mass from the
    window is collapsed onto a single point.
    """

    # how far the level may cross the base quantile at the window's ends,
    # for rounding in the window probabilities
    LEVEL_SLOP = 1e-12

    def __init__(self, base, t_lo, t_hi, level):
        if not (0.0 <= t_lo < t_hi <= 1.0):
            raise DomainError(f"need 0 <= t_lo < t_hi <= 1, got ({t_lo}, {t_hi})")
        eps = self.LEVEL_SLOP
        if t_lo > 0.0 and base.quantile(t_lo) > level + eps:
            raise DomainError("flat level lies below the base quantile at t_lo")
        if t_hi < 1.0 and base.quantile_right(t_hi) < level - eps:
            raise DomainError("flat level lies above the base quantile beyond t_hi")
        self.base = base
        self.t_lo = float(t_lo)
        self.t_hi = float(t_hi)
        self.level = float(level)
        self.support_max = base.support_max

    def _cdf(self, x):
        base = self.base.cdf(x)
        return np.where(x < self.level, np.minimum(base, self.t_lo),
                        np.maximum(base, self.t_hi))

    def _survival(self, x):
        base = self.base._survival(np.clip(x, 0.0, self.base.support_max))
        return np.where(x < self.level, np.maximum(base, 1.0 - self.t_lo),
                        np.minimum(base, 1.0 - self.t_hi))

    def _quantile(self, t):
        inside = (t > self.t_lo) & (t <= self.t_hi)
        safe = np.where(inside, 0.5, t)  # any valid level; overwritten below
        return np.where(inside, self.level, self.base._quantile(safe))

    def _quantile_right(self, t):
        inside = (t >= self.t_lo) & (t < self.t_hi)
        safe = np.where(inside, 0.5, t)
        return np.where(inside, self.level, self.base._quantile_right(safe))

    def quantile_breakpoints(self):
        return tuple(sorted(set(self.base.quantile_breakpoints())
                            | {self.t_lo, self.t_hi}))

    def x_breakpoints(self):
        extra = {self.level}
        if self.t_lo > 0.0:
            extra.add(float(self.base.quantile(self.t_lo)))
        if self.t_hi < 1.0:
            extra.add(float(self.base.quantile_right(self.t_hi)))
        return tuple(sorted(set(self.base.x_breakpoints()) | extra))

    def atoms(self):
        # the window's mass t_hi - t_lo > 0 sits at the level
        return tuple(sorted(set(self.base.atoms()) | {self.level}))

    def __repr__(self):
        return (f"FlattenedQuantile(level={self.level}, "
                f"window=({self.t_lo}, {self.t_hi}], base={self.base!r})")


def make_truncated_exponential(mean, support_max):
    """Truncated-exponential benchmark distribution."""
    return TruncatedExponential(mean, support_max)


def make_tabulated(knots):
    """Tabulated piecewise-linear CDF (duplicate losses encode atoms)."""
    return TabulatedCdf(knots)


def load_tabulated(path):
    """Load a tabulated CDF from a two-column text file ``x F(x)``.

    An optional non-numeric header line is skipped.  Losses must be strictly
    increasing (atoms cannot be expressed through files).
    """
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.replace(",", " ").split()
            try:
                vals = [float(p) for p in parts]
            except ValueError:
                if lineno == 1 or (lineno == 2 and not rows):
                    continue  # header
                raise ValidationError(f"{path}:{lineno}: cannot parse {line!r}")
            if len(vals) != 2:
                raise ValidationError(f"{path}:{lineno}: expected two columns")
            rows.append((vals[0], vals[1]))
    if not rows:
        raise ValidationError(f"{path}: no data rows")
    xs = [r[0] for r in rows]
    if any(b <= a for a, b in zip(xs[:-1], xs[1:])):
        raise ValidationError(f"{path}: losses must be strictly increasing")
    return TabulatedCdf(rows)
