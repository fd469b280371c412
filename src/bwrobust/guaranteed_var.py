"""Robust indemnity design under a guaranteed worst-case-VaR constraint.

The decision maker minimizes the worst-case concave-distortion risk of the
insured position over the ambiguity ball, subject to a cap ``A`` on the
worst-case VaR of the same position.  Dualizing the cap (multiplier
``lam``) and the ball budget (multiplier ``beta``) reduces the inner
adversary problem to a pointwise maximization whose solution ``G*`` may
jump upward at the worst-case VaR ``v_upper``; a flat-segment modification
at a level ``b`` restores monotonicity.  The pointwise maximizer belongs to
the distortion: TVaR supplies it in closed form, other distortions are
bisected on the right derivative.  The outer searches pick ``beta``
to exhaust the divergence budget, ``b`` to maximize the dual objective,
and ``lam`` (with the marginal-coverage tie-break ``eta_tilde``) to
satisfy the KKT conditions of the VaR cap.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InfeasibleError, NumericsError
from .indemnity import Indemnity, expected_value_premium, indemnity_from_sign_regions
from .numerics import (TailIntegral, adaptive_quad, classify_sign_regions,
                       gauss_nodes_weights, gauss_sums, golden_max,
                       illinois_root)
from .var_bounds import worst_case_var

logger = logging.getLogger(__name__)

_TINY = 1e-300
_GRID = 10_000  # sign-scan samples over [0, M]; also sets the node density
_LAM_DOUBLINGS = 20  # the cap multiplier's bracket search stops at 2^20


# ---------------------------------------------------------------------------
# curve container
# ---------------------------------------------------------------------------

class SurvivalCurve:
    """Tabulated survival curve on ``[0, M]``; duplicate grid points encode
    jumps (value before, value after).  Evaluation is right-continuous with
    linear interpolation between grid points."""

    def __init__(self, grid, values):
        grid = np.asarray(grid, dtype=float)
        values = np.asarray(values, dtype=float)
        if grid.ndim != 1 or grid.shape != values.shape or len(grid) < 2:
            raise DomainError("curve needs matching 1-d grid and values")
        if np.any(np.diff(grid) < 0):
            raise DomainError("curve grid must be nondecreasing")
        if np.any(values < -1e-12) or np.any(values > 1.0 + 1e-12):
            raise DomainError("curve values must lie in [0, 1]")
        self.grid = grid
        self.values = np.clip(values, 0.0, 1.0)

    def __call__(self, x):
        out = np.interp(np.asarray(x, dtype=float), self.grid, self.values)
        return float(out) if out.ndim == 0 else out

    def left_value(self, x):
        """Limit from the left (differs from the value only at jumps)."""
        idx = int(np.searchsorted(self.grid, float(x), side="left"))
        if idx < len(self.grid) and self.grid[idx] == x and idx > 0:
            return float(self.values[idx])
        return float(self(x))

    def is_nonincreasing(self, tol=1e-9):
        return bool(np.all(np.diff(self.values) <= tol))

    def dominates(self, other, tol=1e-9):
        """Pointwise >= comparison against a callable on this curve's grid."""
        return bool(np.all(self.values >= np.asarray(other(self.grid)) - tol))


@dataclass(frozen=True)
class RegionPartition:
    """Domain split driving the pointwise adversary solution.

    ``x1``/``x2`` are the losses where the insurer survival crosses the
    pricing thresholds below/above ``v_upper``; ``a1``/``a2`` list the
    intervals where the benchmark net price is nonnegative (coverage is not
    bought there, so the adversary is capped), ``b1``/``b2`` their
    complements (fully ceded, adversary pinned to the benchmark).
    """

    x1: float
    x2: float
    a1: tuple
    b1: tuple
    a2: tuple
    b2: tuple


@dataclass(frozen=True)
class RobustSolution:
    indemnity: Indemnity
    worst_survival: SurvivalCurve
    lambda_star: float
    beta_star: float
    b_star: float
    slack: float
    kkt_residual: float
    eta_tilde: float
    v_upper: float
    premium: float
    objective: float


# ---------------------------------------------------------------------------
# pointwise building blocks
# ---------------------------------------------------------------------------

def net_price(x, survival, lam, scenario, v_upper, closed_at_vu=True):
    """Net price of marginal coverage at ``x`` against an adversary curve.

    ``(1+lam)(1+theta) S_Q(x) - g(S(x)) - lam 1[x <= v_upper]``; the
    indicator is ``1[x < v_upper]`` when ``closed_at_vu`` is false.
    """
    x = np.asarray(x, dtype=float)
    sq = scenario.insurer_survival.survival(np.clip(x, 0.0, scenario.support_max))
    svals = np.clip(np.asarray(survival(x), dtype=float), 0.0, 1.0)
    ind = (x <= v_upper) if closed_at_vu else (x < v_upper)
    out = ((1.0 + lam) * (1.0 + scenario.theta) * sq
           - np.asarray(scenario.distortion.g(svals), dtype=float)
           - lam * ind)
    return float(out) if out.ndim == 0 else out


def _benchmark_curve(scenario):
    m = scenario.support_max
    return lambda x: scenario.benchmark.survival(np.clip(x, 0.0, m))


def region_partition(scenario, lam, v_upper):
    """Locate ``x1``, ``x2`` and the sign regions of the benchmark net price."""
    if lam < 0.0:
        raise DomainError(f"lambda must be nonnegative, got {lam}")
    m = scenario.support_max
    s0 = _benchmark_curve(scenario)
    sq = scenario.insurer_survival
    theta = scenario.theta
    c1 = 1.0 / (1.0 + theta)
    x1 = min(float(sq.survival_inverse_right(c1)), v_upper)
    c2 = 1.0 / ((1.0 + lam) * (1.0 + theta))
    x2 = float(np.clip(sq.survival_inverse_right(c2), v_upper, m))

    def signed_regions(lo, hi, closed_at_vu):
        if hi - lo <= 1e-15 * max(1.0, m):
            return [], []
        pts = [p for p in sq.x_breakpoints() if lo < p < hi]

        def scale(x):
            x = np.asarray(x, dtype=float)
            sqv = sq.survival(np.clip(x, 0.0, m))
            g0 = np.asarray(scenario.distortion.g(s0(x)), dtype=float)
            ind = (x <= v_upper) if closed_at_vu else (x < v_upper)
            return np.maximum((1.0 + lam) * (1.0 + theta) * sqv, g0 + lam * ind)

        regs = classify_sign_regions(
            lambda x: net_price(x, s0, lam, scenario, v_upper,
                                closed_at_vu=closed_at_vu),
            lo, hi, n=max(64, int(_GRID * (hi - lo) / m)),
            xtol=1e-12 * max(1.0, m), zero_tol=1e-11, zero_scale=scale,
            extra_points=pts)
        a = [(lo_, hi_) for lo_, hi_, s in regs if s >= 0]
        b = [(lo_, hi_) for lo_, hi_, s in regs if s < 0]
        return a, b

    # the VaR-cap indicator is closed on the left piece and open on the
    # right piece, matching the one-sided limits the curve formulas use
    a1, b1 = signed_regions(x1, v_upper, True)
    a2, b2 = signed_regions(x2, m, False)
    return RegionPartition(x1=x1, x2=x2, a1=tuple(a1), b1=tuple(b1),
                           a2=tuple(a2), b2=tuple(b2))


def g_hat(x, beta, scenario):
    """Pointwise maximizer of the budget-penalized distortion gain.

    The smallest ``t`` in ``[S_0(x), 1]`` past which the right derivative of
    ``g(t) - beta * (marginal divergence cost)`` is nonpositive; at
    ``beta = 0`` this is ``ginv(1) v S_0(x)``.  A distortion that carries a
    closed-form ``maximizer`` (TVaR) supplies it; any other is bisected.
    """
    if beta < 0.0:
        raise DomainError(f"beta must be nonnegative, got {beta}")
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    f0 = scenario.benchmark
    s0 = f0.survival(np.clip(x_arr, 0.0, f0.support_max))
    dist = scenario.distortion
    if beta == 0.0:
        out = np.maximum(float(dist.ginv(1.0)), s0)
    else:
        gen = scenario.generator
        phix = np.asarray(gen.dphi(np.clip(x_arr, 0.0, gen.domain_max)), dtype=float)
        if dist.maximizer is not None:
            out = dist.maximizer(phix, s0, beta, f0, gen)
        else:
            out = _g_hat_bisect(phix, s0, beta, scenario)
    return float(out[0]) if np.asarray(x).ndim == 0 else out


def _g_hat_bisect(phix, s0, beta, scenario):
    """Bisect ``k'(t) <= 0`` over ``[S_0(x), 1]`` given ``phi'(x)``, ``S_0(x)``
    and ``beta > 0``; valid for every concave distortion since ``k'`` is
    nonincreasing in ``t``."""
    gpr = scenario.distortion.gprime_right
    dphi = scenario.generator.dphi
    surv_inv = scenario.benchmark.survival_inverse  # exact in the deep tail

    def kprime(t):
        q = surv_inv(t)
        return np.asarray(gpr(t), dtype=float) - beta * (
            phix - np.asarray(dphi(q), dtype=float))

    # bisect in log space: the deep tail needs relative, not absolute,
    # resolution in the survival level
    lo = np.log(np.maximum(s0, _TINY))
    hi = np.zeros_like(s0)
    at_lo = kprime(s0) <= 0.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        pred = kprime(np.exp(mid)) <= 0.0
        hi = np.where(pred, mid, hi)
        lo = np.where(pred, lo, mid)
    return np.where(at_lo, s0, np.maximum(np.exp(hi), s0))


def _in_intervals(x, intervals, closes_at=None):
    x = np.asarray(x, dtype=float)
    mask = np.zeros(x.shape, dtype=bool)
    for lo, hi in intervals:
        m = (x >= lo) & (x < hi)
        if closes_at is not None and hi >= closes_at:
            m |= x == hi
        mask |= m
    return mask


def g_star(x, beta, lam, scenario, v_upper, partition):
    """Pointwise adversary curve before the monotonicity modification.

    Evaluates the relaxed maximizer: free ``g_hat`` on ``[0, x1)`` and
    ``[v_upper, x2)``, capped by the inverse distortion of the net-pricing
    level on the a-regions, pinned to the benchmark on the b-regions.
    """
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    m = scenario.support_max
    s0 = scenario.benchmark.survival(np.clip(x_arr, 0.0, m))
    sq = scenario.insurer_survival.survival(np.clip(x_arr, 0.0, m))
    ghat = np.atleast_1d(g_hat(x_arr, beta, scenario))
    left = x_arr < v_upper
    capval = (1.0 + lam) * (1.0 + scenario.theta) * sq - lam * left
    cap = np.asarray(scenario.distortion.ginv(np.clip(capval, 0.0, 1.0)),
                     dtype=float)
    in_a = np.where(left, _in_intervals(x_arr, partition.a1),
                    _in_intervals(x_arr, partition.a2, closes_at=m))
    in_b = np.where(left, _in_intervals(x_arr, partition.b1),
                    _in_intervals(x_arr, partition.b2, closes_at=m))
    out = ghat.copy()
    out = np.where(in_a, np.maximum(s0, np.minimum(ghat, cap)), out)
    out = np.where(in_b, s0, out)
    return float(out[0]) if np.asarray(x).ndim == 0 else out


def modified_survival(gstar_curve, b, v_upper):
    """Monotone survival curve obtained by flattening ``gstar`` at level ``b``.

    ``b`` must lie between the curve's left and right values at ``v_upper``
    (a singleton when there is no upward jump).  The output replaces the
    curve by ``b`` on ``[a1, a2)``, where the crossings are solved exactly on
    the curve's linear segments.
    """
    lo = gstar_curve.left_value(v_upper)
    hi = gstar_curve(v_upper)
    blo, bhi = (lo, hi) if lo < hi else (hi, hi)
    slack = 1e-12 * max(1.0, abs(bhi))
    if not (blo - slack <= b <= bhi + slack):
        raise DomainError(
            f"flat level {b} outside the admissible interval [{blo}, {bhi}]")
    b = float(np.clip(b, blo, bhi))
    grid = gstar_curve.grid
    vals = gstar_curve.values
    left = grid < v_upper
    new_vals = np.where(left, np.maximum(vals, b), np.minimum(vals, b))
    # v_upper may appear twice (jump); both copies flatten to b
    new_vals = np.where(grid == v_upper, b, new_vals)
    # insert the points where the linear segments cross b, so the flat
    # segment starts and ends on the grid
    x0, x1, v0, v1 = grid[:-1], grid[1:], vals[:-1], vals[1:]
    cross = (x1 > x0) & ((v0 - b) * (v1 - b) < 0.0)
    x0, x1, v0, v1 = x0[cross], x1[cross], v0[cross], v1[cross]
    xs = x0 + (b - v0) / (v1 - v0) * (x1 - x0)
    grid = np.concatenate([grid, xs])
    order = np.argsort(grid, kind="stable")
    new_vals = np.concatenate([new_vals, np.full(xs.size, b)])[order]
    return SurvivalCurve(grid[order], new_vals)


# ---------------------------------------------------------------------------
# inner problem workspace
# ---------------------------------------------------------------------------

class _ScenarioCache:
    """Per-scenario quantities shared across multiplier values."""

    def __init__(self, scenario, v_upper=None):
        self.scenario = scenario
        if scenario.distortion is None:
            raise DomainError("guaranteed-VaR model needs a distortion function")
        gen = scenario.generator
        f0 = scenario.benchmark
        m = scenario.support_max
        self.v_upper = (worst_case_var(gen, f0, scenario.alpha, scenario.epsilon)
                        if v_upper is None else float(v_upper))
        knots = list(f0.x_breakpoints()) + list(gen.kinks)
        self.tail = TailIntegral(
            lambda y: np.asarray(gen.d2phi(y), dtype=float)
            * f0.survival(np.minimum(y, m)),
            knots, 0.0, m, max_cell=max(1e-3, m / 8192))
        self.dphi0 = float(gen.dphi(0.0))
        self.c0 = adaptive_quad(
            lambda y: float(gen.d2phi(y)) * y * f0.survival(min(y, m)),
            0.0, m, points=knots, tol=1e-11)
        self.zeta = scenario.epsilon - self.c0

    def w_of_s(self, s):
        """Integral of d2phi(y) * min(S0(y), s) over the support."""
        sc = self.scenario
        s = np.clip(np.asarray(s, dtype=float), 0.0, 1.0)
        q = sc.benchmark.survival_inverse(s)
        return (s * (np.asarray(sc.generator.dphi(q), dtype=float) - self.dphi0)
                + self.tail(q))

    def phi_budget_values(self, x, s):
        """Integrand of the divergence budget at curve values ``s``."""
        gen = self.scenario.generator
        phip = np.asarray(gen.dphi(np.clip(x, 0.0, gen.domain_max)),
                          dtype=float) - self.dphi0
        return phip * s - self.w_of_s(s)


class _InnerProblem:
    """Fixed (scenario, lambda): adversary curve search over (beta, b)."""

    def __init__(self, cache, lam):
        self.cache = cache
        self.sc = cache.scenario
        self.lam = float(lam)
        self.vu = cache.v_upper
        m = self.sc.support_max
        self.m = m
        self.partition = region_partition(self.sc, lam, self.vu)
        self.edges = self._build_edges()
        self.nodes, self.weights = gauss_nodes_weights(self.edges)
        self.left = self.nodes < self.vu
        self.s0 = self.sc.benchmark.survival(np.clip(self.nodes, 0.0, m))
        self.sq = self.sc.insurer_survival.survival(np.clip(self.nodes, 0.0, m))
        theta = self.sc.theta
        self.capval = ((1.0 + lam) * (1.0 + theta) * self.sq
                       - lam * self.left)
        gen = self.sc.generator
        self.phip = np.asarray(gen.dphi(np.clip(self.nodes, 0.0, gen.domain_max)),
                               dtype=float) - cache.dphi0
        self._beta_cache = {}

    def _build_edges(self):
        m, vu = self.m, self.vu
        knots = {0.0, m, vu, self.partition.x1, self.partition.x2}
        for iv in (self.partition.a1, self.partition.b1,
                   self.partition.a2, self.partition.b2):
            for lo, hi in iv:
                knots.update((lo, hi))
        knots.update(self.sc.benchmark.x_breakpoints())
        knots.update(self.sc.insurer_survival.x_breakpoints())
        knots.update(k for k in self.sc.generator.kinks if k < m)
        # dense near the action, quantile-graded in the tail
        n_dense = max(256, _GRID // 16)
        dense_hi = min(m, vu + 0.25 * (m - vu))
        base = np.unique(np.concatenate([
            np.linspace(0.0, dense_hi, n_dense),
            self.sc.benchmark.quantile(np.linspace(1e-9, 1.0 - 1e-12, max(128, _GRID // 48))),
            np.linspace(dense_hi, m, 64),
        ]))
        pts = np.unique(np.concatenate([base, np.array(sorted(knots))]))
        return pts[(pts >= 0.0) & (pts <= m)]

    # -- adversary curve at quadrature nodes --------------------------------
    def _node_curves(self, beta):
        key = float(beta)
        hit = self._beta_cache.get(key)
        if hit is not None:
            return hit
        gstar = np.atleast_1d(g_star(self.nodes, beta, self.lam, self.sc,
                                     self.vu, self.partition))
        jump_lo = self._left_value_at_vu(beta)
        jump_hi = float(np.atleast_1d(
            g_star(np.array([self.vu]), beta, self.lam, self.sc, self.vu,
                   self.partition))[0])
        g_of = np.asarray(self.sc.distortion.g(gstar), dtype=float)
        w_of = self.cache.w_of_s(gstar)
        # a flat level b in [blo, bhi] can only replace left values below bhi
        # and right values above blo; every other node adds a constant to the
        # dual objective, summed once per beta
        blo, bhi = min(jump_lo, jump_hi), jump_hi
        active = np.where(self.left, gstar < bhi, gstar > blo)
        fixed = ~active
        integrand = (np.minimum(g_of[fixed], self.capval[fixed])
                     - beta * (self.phip[fixed] * gstar[fixed] - w_of[fixed]))
        data = {"gstar": gstar, "w_of_gstar": w_of,
                "jump": (jump_lo, jump_hi),
                "fixed_value": float(np.dot(self.weights[fixed], integrand)),
                "active": {k: v[active] for k, v in (
                    ("left", self.left), ("gstar", gstar), ("g", g_of),
                    ("w", w_of), ("cap", self.capval), ("phip", self.phip),
                    ("weights", self.weights))}}
        if len(self._beta_cache) > 8:
            self._beta_cache.clear()
        self._beta_cache[key] = data
        return data

    def _left_value_at_vu(self, beta):
        """Left limit of the relaxed adversary curve at v_upper."""
        sc, vu = self.sc, self.vu
        s0 = sc.benchmark.survival(vu)
        sq = sc.insurer_survival.survival(vu)
        ghat = float(g_hat(vu, beta, sc))
        capval = (1.0 + self.lam) * (1.0 + sc.theta) * sq - self.lam
        cap = float(sc.distortion.ginv(float(np.clip(capval, 0.0, 1.0))))
        x1 = self.partition.x1
        if x1 >= vu * (1.0 - 1e-15):
            return ghat
        if net_price(vu, _benchmark_curve(sc), self.lam, sc, vu) >= 0.0:
            return max(s0, min(ghat, cap))
        return s0

    def clip_values(self, gstar, b):
        return np.where(self.left, np.maximum(gstar, b), np.minimum(gstar, b))

    def lagrangian_nodes(self, svals, beta):
        g = np.asarray(self.sc.distortion.g(svals), dtype=float)
        gain = np.minimum(g, self.capval)
        budget = self.phip * svals - self.cache.w_of_s(svals)
        return float(np.dot(self.weights, gain - beta * budget))

    def flat_level_values(self, beta, bs):
        """Dual objective of the curve flattened at each level in ``bs``,
        which must lie in ``admissible_b(beta)``.

        Clipping replaces curve values by the constant b, so the distortion
        and budget transforms of the clipped curve are selections between
        cached arrays and per-level scalars; one (levels x nodes) pass covers
        the nodes that an admissible level can clip.
        """
        data = self._node_curves(beta)
        act = data["active"]
        bs = np.atleast_1d(np.asarray(bs, dtype=float))
        g_b = np.asarray(self.sc.distortion.g(bs), dtype=float)[:, None]
        w_b = self.cache.w_of_s(bs)[:, None]
        b = bs[:, None]
        gstar = act["gstar"]
        clipped = np.where(act["left"], gstar < b, gstar > b)
        svals = np.where(clipped, b, gstar)
        gain = np.minimum(np.where(clipped, g_b, act["g"]), act["cap"])
        budget = act["phip"] * svals - np.where(clipped, w_b, act["w"])
        return data["fixed_value"] + (gain - beta * budget) @ act["weights"]

    def phi_budget(self, svals):
        return float(np.dot(self.weights,
                            self.phip * svals - self.cache.w_of_s(svals)))

    # -- refined budget integral around clip and min kinks -------------------
    def _refined_budget(self, beta, b):
        """Divergence budget of the clipped curve, with cells containing
        kinks re-integrated on a sub-split so the panel quadrature stays
        spectrally accurate."""
        data = self._node_curves(beta)
        gstar = data["gstar"]
        svals = self.clip_values(gstar, b)
        clipped = svals != gstar
        w = np.where(clipped, float(self.cache.w_of_s(float(b))),
                     data["w_of_gstar"])
        per_node = self.phip * svals - w
        ncell = len(self.edges) - 1
        node_mat = per_node.reshape(ncell, 7)
        w_mat = self.weights.reshape(ncell, 7)
        base_cells = (node_mat * w_mat).sum(axis=1)

        flags = self._flag_cells(gstar.reshape(ncell, 7), svals.reshape(ncell, 7), b)
        total = float(base_cells.sum())
        cells = np.nonzero(flags)[0]
        if cells.size:
            # 16 sub-panels per flagged cell, all evaluated in one call
            sub = np.linspace(self.edges[cells], self.edges[cells + 1], 17,
                              axis=-1)
            curve = self.exact_curve(beta, b)
            refined = gauss_sums(
                lambda x: self.cache.phi_budget_values(x, curve(x)),
                sub[:, :-1], sub[:, 1:]).sum(axis=1)
            total += float((refined - base_cells[cells]).sum())
        return total

    def _flag_cells(self, gstar_mat, svals_mat, b):
        # cells where the clip boundary, a distortion kink level, the lower
        # bind against the benchmark, or the gain cap switches inside; strict
        # tolerances keep structurally-tied regions (exact equality up to
        # roundoff) from being flagged wholesale
        tol = 1e-11
        flags = (gstar_mat.min(axis=1) < b - tol) & (gstar_mat.max(axis=1) > b + tol)
        gvals = np.asarray(self.sc.distortion.g(svals_mat), dtype=float)
        capm = self.capval.reshape(gvals.shape)
        diff = gvals - capm
        flags |= (diff.min(axis=1) < -tol) & (diff.max(axis=1) > tol)
        for level in getattr(self.sc.distortion, "kink_levels", ()):
            flags |= ((svals_mat.min(axis=1) < level - tol)
                      & (svals_mat.max(axis=1) > level + tol))
        bind = gstar_mat - self.s0.reshape(gstar_mat.shape)
        flags |= (bind.min(axis=1) < tol) & (bind.max(axis=1) > tol)
        return flags

    # -- searches -------------------------------------------------------------
    def admissible_b(self, beta):
        jump_lo, jump_hi = self._node_curves(beta)["jump"]
        if jump_lo < jump_hi:
            return jump_lo, jump_hi
        return jump_hi, jump_hi

    def best_b(self, beta, *, coarse=False):
        """Maximize the dual objective over the admissible flat levels."""
        blo, bhi = self.admissible_b(beta)
        if bhi - blo <= 1e-14:
            return bhi, None

        def value(b):
            return float(self.flat_level_values(beta, b)[0])

        bs = np.linspace(blo, bhi, 17 if coarse else 65)
        vals = self.flat_level_values(beta, bs)
        i = int(np.argmax(vals))  # first max: ties break toward smaller b
        lo = bs[max(i - 1, 0)]
        hi = bs[min(i + 1, len(bs) - 1)]
        b_g, v_g = golden_max(value, lo, hi,
                              xtol=1e-7 * max(1e-6, bhi - blo))
        if vals[i] >= v_g:
            return float(bs[i]), float(vals[i])
        return float(b_g), float(v_g)

    def psi(self, beta, *, coarse=False):
        """Divergence budget of the modified adversary curve at ``beta``."""
        b, _ = self.best_b(beta, coarse=coarse)
        return self._refined_budget(beta, b), b

    def materialize(self, beta, b):
        """Dense curve with the jump knots duplicated and the flat inserted.

        The grid is refined around the worst-case VaR so the returned
        piecewise-linear curve carries the same divergence budget as the
        exact curve to well below the feasibility tolerance.  The knot at
        ``v_upper`` and at every benchmark or insurer atom is duplicated, the
        first copy holding the curve's left limit, so interpolation jumps
        where the exact curve does instead of ramping below the benchmark.
        """
        m = self.m
        span = max(1.0, min(m - self.vu, 4.0 * self.vu))
        dense = np.linspace(max(0.0, self.vu - 0.5 * span),
                            min(m, self.vu + span), 4001)
        atoms = np.array(sorted(
            {float(a) for dist in (self.sc.benchmark, self.sc.insurer_survival)
             for a in dist.atoms() if 0.0 < a <= m and a != self.vu}))
        grid = np.unique(np.concatenate([self.edges, dense, [self.vu], atoms]))
        vals = np.atleast_1d(g_star(grid, beta, self.lam, self.sc, self.vu,
                                    self.partition))
        jump_lo, _ = self._node_curves(beta)["jump"]
        left_limits = g_star(np.nextafter(atoms, -np.inf), beta, self.lam,
                             self.sc, self.vu, self.partition)
        at = np.concatenate([atoms, [self.vu]])
        idx = np.searchsorted(grid, at)
        grid = np.insert(grid, idx, at)
        vals = np.insert(vals, idx, np.concatenate([left_limits, [jump_lo]]))
        curve = SurvivalCurve(grid, vals)
        return modified_survival(curve, b, self.vu)

    def exact_curve(self, beta, b):
        """Pointwise-exact modified curve (used for net-price sign tests)."""

        def f(x):
            x = np.asarray(x, dtype=float)
            gs = np.atleast_1d(g_star(x, beta, self.lam, self.sc, self.vu,
                                      self.partition))
            out = np.where(np.atleast_1d(x) < self.vu,
                           np.maximum(gs, b), np.minimum(gs, b))
            return float(out[0]) if x.ndim == 0 else out

        return f

    def solve(self, *, beta_hint=None):
        """Find beta with an exhausted budget (or 0 when slack) and its b."""
        zeta = self.cache.zeta
        scale = max(1.0, abs(zeta))
        psi0, b0 = self.psi(0.0)
        if psi0 <= zeta + 1e-8 * scale:
            return 0.0, b0

        def f(be):
            return self.psi(be)[0] - zeta

        # geometric expansion until the budget residual changes sign
        lo = 0.0
        beta = beta_hint / 4.0 if beta_hint and beta_hint > 0 else 1e-3
        hi = None
        seen = []
        for _ in range(80):
            val, _ = self.psi(beta, coarse=True)
            seen.append((beta, val))
            if val <= zeta and f(beta) <= 0.0:
                hi = beta
                break
            lo = beta
            beta *= 4.0
        if hi is None:
            raise NumericsError(
                "could not bracket the budget multiplier: psi stays above "
                f"zeta={zeta:.6g} up to beta={beta:.3g}")
        if any(v2 > v1 + 1e-7 * scale for (b1, v1), (b2, v2)
               in zip(seen, seen[1:]) if b2 > b1):
            logger.warning("budget profile psi(beta) is not monotone on the "
                           "scanned points; root finding proceeds by sign")
        beta_star, res = illinois_root(f, lo, hi, ftol=1e-8 * scale,
                                       xtol=1e-13 * max(1.0, hi))
        psi_star, b_star = self.psi(beta_star)
        if abs(psi_star - zeta) > 1e-6 * scale:
            logger.warning("budget residual |psi - zeta| = %.3g at beta* = %.6g",
                           abs(psi_star - zeta), beta_star)
        # only beta*'s node curves are read again (by materialize)
        self._beta_cache = {float(beta_star): self._beta_cache[float(beta_star)]}
        return float(beta_star), b_star


# ---------------------------------------------------------------------------
# public solver surface
# ---------------------------------------------------------------------------

def _net_price_regions(survival, lam, scenario, v_upper):
    """Sign regions of the net price against an adversary curve."""
    m = scenario.support_max
    theta = scenario.theta
    last = {"x": None, "s": None}

    def curve(x):
        # the classifier asks for the price and its zero scale on the same
        # point array: evaluate the adversary curve once for both
        if last["x"] is not x:
            last["x"] = x
            last["s"] = np.clip(np.asarray(survival(x), dtype=float), 0.0, 1.0)
        return last["s"]

    def h(x):
        return np.atleast_1d(net_price(x, curve, lam, scenario, v_upper))

    def scale(x):
        x = np.asarray(x, dtype=float)
        sq = scenario.insurer_survival.survival(np.clip(x, 0.0, m))
        g = np.asarray(scenario.distortion.g(curve(x)), dtype=float)
        return np.maximum((1.0 + lam) * (1.0 + theta) * sq,
                          g + lam * (x <= v_upper))

    regions = []
    for lo, hi in ((0.0, min(v_upper, m)), (min(v_upper, m), m)):
        if hi - lo <= 1e-15 * max(1.0, m):
            continue
        regions.extend(classify_sign_regions(
            h, lo, hi, n=max(64, int(_GRID * (hi - lo) / m)),
            xtol=1e-12 * max(1.0, m), zero_tol=1e-9,
            zero_scale=scale,
            extra_points=[p for p in scenario.insurer_survival.x_breakpoints()
                          if lo < p < hi]))
    return regions


def _residual_pair(lam, curve_fn, scenario, v_upper):
    """Constraint residual at eta = 0 and eta = 1 (regions computed once)."""
    regions = _net_price_regions(curve_fn, lam, scenario, v_upper)
    out = {"regions": regions}
    for eta in (0.0, 1.0):
        contract = indemnity_from_sign_regions(
            regions, scenario.support_max, eta=eta).simplified()
        premium = expected_value_premium(contract, scenario.insurer_survival,
                                         scenario.theta)
        resid = (premium - float(contract(v_upper))
                 - scenario.acceptable_var + v_upper)
        out[eta] = (resid, contract, premium)
    return out


def solve_problem2(scenario):
    """Full guaranteed-VaR solve: multipliers, contract, worst-case curve.

    The cap multiplier is zero when the unconstrained contract already meets
    the guarantee; otherwise it is pushed up until the calibrated marginal
    coverage on the zero-price set can close the constraint exactly
    (complementary slackness).
    """
    if scenario.acceptable_var is None:
        raise DomainError("guaranteed-VaR model needs acceptable_var")
    if scenario.distortion is None:
        raise DomainError("guaranteed-VaR model needs a distortion function")
    cache = _ScenarioCache(scenario)
    v_upper = cache.v_upper
    a_level = scenario.acceptable_var
    if a_level >= v_upper:
        logger.warning("acceptable_var %.6g is not below the worst-case VaR "
                       "%.6g; the guarantee may be vacuous", a_level, v_upper)

    # feasibility floor: cheapest achievable constraint value over contracts
    theta = scenario.theta
    sq = scenario.insurer_survival
    x1 = float(sq.survival_inverse_right(1.0 / (1.0 + theta)))
    x1 = min(x1, v_upper)
    mstar = ((1.0 + theta) * sq.survival_integral(x1, v_upper)
             - (v_upper - x1))
    if not (mstar < a_level - v_upper):
        raise InfeasibleError(
            "the guarantee cannot be met by any admissible contract: "
            f"minimal achievable worst-case VaR is {v_upper + mstar:.6g}, "
            f"requested {a_level:.6g}", bound=v_upper + mstar)

    def inner(lam, beta_hint=None):
        ip = _InnerProblem(cache, lam)
        beta_star, b_star = ip.solve(beta_hint=beta_hint)
        curve_fn = ip.exact_curve(beta_star, b_star)
        pair = _residual_pair(lam, curve_fn, scenario, v_upper)
        return ip, beta_star, b_star, pair

    ip0, beta0, b0, pair0 = inner(0.0)
    if pair0[1.0][0] <= 0.0:
        # the unconstrained contract (full marginal coverage on ties, as in
        # the maxmin model) already meets the guarantee
        lam_star, eta, chosen = 0.0, 1.0, (ip0, beta0, b0, pair0)
    else:
        # push the multiplier up until full coverage of the zero-price set
        # closes the constraint; this is the right edge of the flat dual
        # optimum, the branch whose worst-case tail grows as A tightens
        lam_lo, f_lo = 0.0, pair0[1.0][0]
        lam_hi = 1.0
        hint = beta0
        state_hi = None
        for _ in range(_LAM_DOUBLINGS + 1):
            state_hi = inner(lam_hi, beta_hint=hint)
            hint = state_hi[1]
            if state_hi[3][1.0][0] <= 0.0:
                break
            lam_lo, f_lo = lam_hi, state_hi[3][1.0][0]
            lam_hi *= 2.0
        else:
            raise InfeasibleError(
                f"no multiplier up to 2^{_LAM_DOUBLINGS} closes the "
                "guarantee", bound=None)
        ftol = 1e-9 * max(1.0, abs(a_level))
        # keep the smallest evaluated multiplier that closes the constraint;
        # a residual within the root's tolerance closes it whatever its sign
        best = [lam_hi, state_hi]

        def resid(lam):
            state = inner(lam, beta_hint=state_hi[1])
            r = state[3][1.0][0]
            if r <= ftol and lam <= best[0]:
                best[:] = [lam, state]
            return r

        illinois_root(resid, lam_lo, lam_hi, flo=f_lo,
                      fhi=state_hi[3][1.0][0], ftol=ftol,
                      xtol=1e-9 * max(1.0, lam_hi), max_iter=60)
        lam_star, chosen = best
        eta = _calibrate_eta(chosen[3], ftol)

    ip, beta_star, b_star, pair = chosen
    contract = indemnity_from_sign_regions(
        pair["regions"], scenario.support_max, eta=eta).simplified()
    premium = expected_value_premium(contract, sq, theta)
    slack = premium - float(contract(v_upper)) - a_level + v_upper
    curve = ip.materialize(beta_star, b_star)
    kkt = max(abs(lam_star * slack), max(slack, 0.0))
    if kkt > 1e-6 * max(1.0, abs(a_level)):
        logger.warning("KKT residual max(|lambda* * slack|, slack+) = %.3g at "
                       "lambda* = %.6g (slack %.3g)", kkt, lam_star, slack)

    # worst-case distortion risk of the insured position
    edges = np.unique(np.concatenate([curve.grid, contract.breakpoints]))
    nodes, weights = gauss_nodes_weights(edges)
    gvals = np.asarray(scenario.distortion.g(
        np.clip(curve(nodes), 0.0, 1.0)), dtype=float)
    retained = 1.0 - contract.slope_at(nodes)
    objective = premium + float(np.dot(weights, retained * gvals))

    return RobustSolution(indemnity=contract, worst_survival=curve,
                          lambda_star=float(lam_star), beta_star=float(beta_star),
                          b_star=float(b_star), slack=float(slack),
                          kkt_residual=float(kkt), eta_tilde=float(eta),
                          v_upper=float(v_upper), premium=float(premium),
                          objective=float(objective))


def _calibrate_eta(pair, ftol):
    """Root of the affine residual in the zero-set coverage fraction.

    Without a zero-price set both residuals coincide; full coverage is kept
    when that residual closes the constraint to within ``ftol``.
    """
    r0 = pair[0.0][0]
    r1 = pair[1.0][0]
    if abs(r1 - r0) < 1e-15:
        return 1.0 if r1 <= ftol else 0.0
    eta = -r0 / (r1 - r0)
    return float(np.clip(eta, 0.0, 1.0))


# ---------------------------------------------------------------------------
# discrete saddle-point check
# ---------------------------------------------------------------------------

def alternating_best_response(scenario, lam, beta):
    """Coarse-grid best-response check of the closed-form pipeline.

    The curve step brute-forces the discretized dual objective cell by cell
    (1-d concave maximization plus the flat-segment repair at the worst-case
    VaR), the contract step applies the marginal rule to that curve.  A pure
    play against a fixed contract has no pure saddle on the zero-price set,
    so the curve responds to the reduced integrand, which already embeds the
    pointwise contract optimization; the curve response therefore does not
    depend on the contract, and one round of the alternation is its fixed
    point.  The resulting objective must match the analytic solution
    evaluated on the same grid.
    """
    cache = _ScenarioCache(scenario)
    vu = cache.v_upper
    m = scenario.support_max
    # 60 cells, 48 of them below 2.5 v_upper where the curves move, with
    # v_upper as a cell edge
    lo_part = np.linspace(0.0, min(vu * 2.5, m), 49)
    hi_part = np.linspace(min(vu * 2.5, m), m, 13)
    edges = np.unique(np.concatenate([lo_part, hi_part, [vu]]))
    mids = 0.5 * (edges[:-1] + edges[1:])
    widths = np.diff(edges)
    left = mids < vu
    theta = scenario.theta
    sq = scenario.insurer_survival.survival(np.clip(mids, 0.0, m))
    s0 = scenario.benchmark.survival(np.clip(mids, 0.0, m))
    cap = (1.0 + lam) * (1.0 + theta) * sq - lam * left
    gen = scenario.generator
    phip = np.asarray(gen.dphi(mids), dtype=float) - cache.dphi0
    dist = scenario.distortion

    def value(i_vals, s_vals):
        g = np.asarray(dist.g(s_vals), dtype=float)
        gain = g + i_vals * (cap - g)
        budget = phip * s_vals - cache.w_of_s(s_vals)
        return float(np.dot(widths, gain - beta * budget))

    def reduced(s_vals):
        # per cell: min(g(s), cap) - beta * budget(s)
        g = np.asarray(dist.g(s_vals), dtype=float)
        return np.minimum(g, cap) - beta * (phip * s_vals - cache.w_of_s(s_vals))

    def contract_response(s_vals):
        g = np.asarray(dist.g(s_vals), dtype=float)
        return np.where(cap - g < 0.0, 1.0, 0.0)

    def curve_response():
        # per-cell concave maximization of the reduced integrand
        lo = s0.copy()
        hi = np.ones_like(s0)
        for _ in range(90):
            m1 = lo + (hi - lo) / 3.0
            m2 = hi - (hi - lo) / 3.0
            take_lo = reduced(m1) < reduced(m2)
            lo = np.where(take_lo, m1, lo)
            hi = np.where(take_lo, hi, m2)
        s = 0.5 * (lo + hi)
        # restore monotonicity: flatten the upward jump at v_upper
        s_left = s[left]
        s_right = s[~left]
        if s_right.size and s_left.size and s_right[0] > s_left[-1]:
            b_lo, b_hi = s_left[-1], s_right[0]
            best_b, best_v = b_lo, -np.inf
            for b in np.linspace(b_lo, b_hi, 129):
                cand = np.where(left, np.maximum(s, b), np.minimum(s, b))
                v = float(np.dot(widths, reduced(cand)))
                if v > best_v:
                    best_v, best_b = v, b
            s = np.where(left, np.maximum(s, best_b), np.minimum(s, best_b))
        return s

    s = curve_response()
    final = value(contract_response(s), s)

    ip = _InnerProblem(cache, lam)
    b_star, _ = ip.best_b(beta)
    curve_fn = ip.exact_curve(beta, b_star)
    s_exact = np.clip(np.asarray(curve_fn(mids)), 0.0, 1.0)
    # evaluate the analytic curve through the same grid contract response,
    # so the comparison is free of cell-boundary assignment noise
    analytic = value(contract_response(s_exact), s_exact)
    return {"analytic": analytic, "final": final}
