"""Quadrature and one-dimensional search kernels.

Everything here works on plain floats and numpy arrays.  Vectorized
integrands that are smooth between known breakpoints go to :func:`panel_quad`,
an error-controlled Gauss-Legendre panel rule evaluated in array calls; every
divergence integral runs on it.  Scalar adaptive quadrature is delegated to
QUADPACK (:func:`adaptive_quad`).  The same Gauss panels back the tail-integral
tables and the fixed panel machinery of the worst-case-distribution solver.
"""

from __future__ import annotations

import numpy as np
from scipy.integrate import quad

from .errors import NumericsError

_GAUSS_NODES, _GAUSS_WEIGHTS = np.polynomial.legendre.leggauss(7)
_PANEL_ROUNDS = 100  # halvings of a unit panel reach the float spacing at 1 in 53
_PANEL_BATCH = 512  # panels per integrand call: memory does not grow with panels
_PANEL_LIMIT = 1 << 17  # open panels; an integrand noisy beyond tol doubles them


def adaptive_quad(f, a, b, *, points=(), tol=1e-10):
    """Integrate ``f`` over ``[a, b]`` to absolute tolerance ``tol``.

    ``points`` lists known interior breakpoints (kinks, jumps); values outside
    ``(a, b)`` are ignored.  Raises :class:`NumericsError` carrying the partial
    estimate when the error estimate does not meet the requested tolerance.
    """
    if b <= a:
        return 0.0
    pts = sorted({float(p) for p in points if a < p < b})
    value, err = quad(f, a, b, points=pts or None, epsabs=tol, epsrel=1e-12,
                      limit=max(500, 2 * len(pts) + 50), full_output=False)
    if not np.isfinite(value):
        raise NumericsError("quadrature produced a non-finite value", partial=value)
    if err > 50.0 * max(tol, 1e-14 * abs(value)):
        raise NumericsError(
            f"quadrature error estimate {err:.3e} exceeds budget for tol {tol:.1e}",
            partial=value,
        )
    return value


def gauss_sums(f, lo, hi):
    """Gauss-Legendre sums of a vectorized ``f`` over the panels ``[lo, hi]``
    (arrays of one shape), in one call of ``f``."""
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    nodes = mid[..., None] + half[..., None] * _GAUSS_NODES
    vals = f(nodes.ravel()).reshape(nodes.shape)
    return (vals * _GAUSS_WEIGHTS).sum(axis=-1) * half


def panel_quad(f, a, b, *, points=(), tol=1e-10):
    """Integrate a vectorized ``f`` over ``[a, b]`` to absolute tolerance ``tol``.

    The starting panels run between the breakpoints ``points`` (values
    outside ``(a, b)`` are ignored), so ``f`` should be smooth on each.  Every
    round evaluates each open panel and its two halves: the halves' sum is the
    panel's value and ``|halves - whole|`` its error estimate.  A panel whose
    estimate is within ``tol * width / (b - a)`` is accepted and the others
    are halved, which resolves endpoint singularities such as a logarithmic
    one.  The integral is returned as soon as the estimates of all panels,
    accepted and open, add up to ``tol`` or less; panels next to a
    singularity, whose estimate is mostly rounding noise far below ``tol``,
    therefore stop there instead of splitting down to the float floor.
    Raises :class:`NumericsError` carrying the partial estimate on a
    non-finite value or when the round or open-panel limit is reached.
    """
    if b <= a:
        return 0.0
    edges = np.unique([a, b] + [float(p) for p in points if a < p < b])
    lo, hi = edges[:-1], edges[1:]
    share = tol / (b - a)
    total = err_done = 0.0
    for _ in range(_PANEL_ROUNDS):
        mid = 0.5 * (lo + hi)
        parts = []
        for i in range(0, lo.size, _PANEL_BATCH):
            lo_i, mid_i, hi_i = (x[i:i + _PANEL_BATCH] for x in (lo, mid, hi))
            # rows: whole panel, left half, right half
            parts.append(gauss_sums(f, np.stack([lo_i, lo_i, mid_i]),
                                    np.stack([hi_i, mid_i, hi_i])))
        sums = np.concatenate(parts, axis=1)
        val = sums[1] + sums[2]
        err = np.abs(val - sums[0])
        if not np.all(np.isfinite(sums)):
            raise NumericsError("quadrature produced a non-finite value",
                                partial=total + float(val.sum()))
        ok = err <= share * (hi - lo)
        if ok.all() or err_done + err.sum() <= tol:
            return total + float(val.sum())
        total += float(val[ok].sum())
        err_done += float(err[ok].sum())
        lo, hi, mid = lo[~ok], hi[~ok], mid[~ok]
        lo, hi = np.concatenate([lo, mid]), np.concatenate([mid, hi])
        if lo.size > _PANEL_LIMIT:
            break
    raise NumericsError(
        f"panel quadrature did not reach tol {tol:.1e} within {_PANEL_ROUNDS} "
        f"rounds and {_PANEL_LIMIT} open panels ({lo.size} open)",
        partial=total + float(val[~ok].sum()))


def bisect_predicate(pred, lo, hi, *, xtol):
    """Leftmost point of ``[lo, hi]`` where a monotone predicate turns true.

    ``pred`` must be false-then-true as its argument increases, with
    ``pred(hi)`` true.  Returns a point within ``xtol`` of the boundary, on
    the true side.
    """
    if pred(lo):
        return lo
    if not pred(hi):
        raise NumericsError(f"predicate is false on the whole bracket [{lo}, {hi}]")
    for _ in range(200):
        if hi - lo <= xtol:
            break
        mid = 0.5 * (lo + hi)
        if pred(mid):
            hi = mid
        else:
            lo = mid
    return hi


def illinois_root(f, lo, hi, *, flo=None, fhi=None, ftol, xtol, max_iter=100):
    """Bracketed regula falsi with Illinois damping.

    Requires a sign change on ``[lo, hi]``; stops once ``|f| <= ftol`` or the
    bracket is narrower than ``xtol``.  Returns ``(x, fx)`` for the first
    iterate meeting either test, whichever the sign of ``fx``: callers that
    need a side must treat ``|fx| <= ftol`` as the root, not test its sign.
    """
    flo = f(lo) if flo is None else flo
    fhi = f(hi) if fhi is None else fhi
    if abs(flo) <= ftol:
        return lo, flo
    if abs(fhi) <= ftol:
        return hi, fhi
    if flo * fhi > 0:
        raise NumericsError(f"no sign change on [{lo}, {hi}]")
    side = 0
    x, fx = hi, fhi
    for _ in range(max_iter):
        x = (lo * fhi - hi * flo) / (fhi - flo)
        if not (lo < x < hi):
            x = 0.5 * (lo + hi)
        fx = f(x)
        if abs(fx) <= ftol or hi - lo <= xtol:
            return x, fx
        if fx * flo < 0:
            hi, fhi = x, fx
            if side == -1:
                flo *= 0.5
            side = -1
        else:
            lo, flo = x, fx
            if side == 1:
                fhi *= 0.5
            side = 1
    return x, fx


def golden_max(f, a, b, *, xtol):
    """Golden-section maximizer of a scalar function on ``[a, b]``.

    Assumes unimodality; callers that cannot guarantee it should pre-scan on
    a grid and keep the better of the two answers.
    """
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    x1 = b - invphi * (b - a)
    x2 = a + invphi * (b - a)
    f1, f2 = f(x1), f(x2)
    for _ in range(200):
        if b - a <= xtol:
            break
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + invphi * (b - a)
            f2 = f(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - invphi * (b - a)
            f1 = f(x1)
    x = 0.5 * (a + b)
    return x, f(x)


def gauss_nodes_weights(edges):
    """Gauss-Legendre nodes/weights for the panels defined by ``edges``.

    Returns flat arrays ``(nodes, weights)``; zero-width panels contribute
    nothing.  ``edges`` must be nondecreasing.
    """
    edges = np.asarray(edges, dtype=float)
    lo = edges[:-1]
    hi = edges[1:]
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    nodes = (mid[:, None] + half[:, None] * _GAUSS_NODES[None, :]).ravel()
    weights = (half[:, None] * _GAUSS_WEIGHTS[None, :]).ravel()
    return nodes, weights


def refine_edges(knots, lo, hi, *, max_cell):
    """Sorted panel edges covering ``[lo, hi]``: knots plus uniform fill.

    Every interval between consecutive knots is subdivided so no cell is
    wider than ``max_cell``.
    """
    pts = {float(lo), float(hi)}
    for p in knots:
        p = float(p)
        if lo < p < hi:
            pts.add(p)
    base = np.array(sorted(pts))
    out = [base[:1]]
    for a, b in zip(base[:-1], base[1:]):
        n = max(1, int(np.ceil((b - a) / max_cell)))
        out.append(np.linspace(a, b, n + 1)[1:])
    return np.concatenate(out)


class TailIntegral:
    """Tail integrals ``x -> integral of f over [x, M]`` for vectorized ``f``.

    Panel sums are cached at cell edges; queries add an exact Gauss
    correction over the partial cell, so accuracy does not depend on the
    query landing on the grid.
    """

    def __init__(self, f, knots, lo, hi, *, max_cell):
        self.f = f
        self.lo = float(lo)
        self.hi = float(hi)
        self.edges = refine_edges(knots, lo, hi, max_cell=max_cell)
        cell = gauss_sums(f, self.edges[:-1], self.edges[1:])
        # cum[i] = integral from edges[i] to hi
        self.cum = np.concatenate([np.cumsum(cell[::-1])[::-1], [0.0]])

    def __call__(self, x):
        x = np.clip(np.asarray(x, dtype=float), self.lo, self.hi)
        scalar = x.ndim == 0
        xf = np.atleast_1d(x)
        idx = np.searchsorted(self.edges, xf, side="left")
        idx = np.clip(idx, 0, len(self.edges) - 1)
        out = self.cum[idx] + gauss_sums(self.f, xf, self.edges[idx])
        return float(out[0]) if scalar else out


def classify_sign_regions(f, lo, hi, *, n=10_000, xtol=1e-12, zero_tol=0.0,
                          zero_scale=None, extra_points=()):
    """Partition ``[lo, hi]`` into maximal regions where ``f`` is <0, =0, >0.

    ``f`` must be vectorized and continuous on the interval.  Sampling uses
    ``n`` points plus ``extra_points``; region boundaries are then refined by
    bisection on the classification to within ``xtol``.  Returns a list of
    ``(a, b, sign)`` with sign in {-1, 0, +1}; zero means ``|f|`` is within
    ``zero_tol`` times the local cancellation scale ``zero_scale(x)``
    (default 1), so structural zero sets are recognized without sweeping in
    regions where ``f`` itself decays to zero.
    """
    if hi <= lo:
        return []
    xs = np.linspace(lo, hi, max(int(n), 2))
    if extra_points:
        ex = np.asarray([p for p in extra_points if lo < p < hi], dtype=float)
        if ex.size:
            xs = np.unique(np.concatenate([xs, ex]))
    fs = np.asarray(f(xs), dtype=float)

    def tol_at(x):
        if zero_scale is None:
            return zero_tol
        return zero_tol * np.maximum(np.asarray(zero_scale(x), dtype=float), 1e-300)

    tols = tol_at(xs)
    labels = np.where(fs > tols, 1, np.where(fs < -tols, -1, 0))

    # refine every classification boundary in lockstep so f is evaluated on
    # one small batch per bisection step instead of point by point
    change = np.nonzero(labels[1:] != labels[:-1])[0]
    cuts = {}
    if change.size:
        a = xs[change].copy()
        b = xs[change + 1].copy()
        target = labels[change + 1]
        span = float(np.max(b - a))
        n_steps = int(np.ceil(np.log2(max(span / max(xtol, 1e-300), 2.0)))) + 1
        for _ in range(min(n_steps, 200)):
            if np.all(b - a <= xtol):
                break
            mid = 0.5 * (a + b)
            fm = np.asarray(f(mid), dtype=float)
            tm = tol_at(mid)
            lab = np.where(fm > tm, 1, np.where(fm < -tm, -1, 0))
            hit = lab == target
            b = np.where(hit, mid, b)
            a = np.where(hit, a, mid)
        cuts = {int(i): 0.5 * (ai + bi) for i, ai, bi in zip(change, a, b)}

    regions = []
    start = xs[0]
    cur = labels[0]
    for i in range(1, len(xs)):
        if labels[i] == cur:
            continue
        cut = cuts[int(i - 1)]
        regions.append((start, cut, int(cur)))
        start, cur = cut, labels[i]
    regions.append((start, xs[-1], int(cur)))
    return [(a, b, s) for a, b, s in regions if b > a]
