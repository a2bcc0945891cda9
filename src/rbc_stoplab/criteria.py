"""Stopping rules for recursive Bayesian classification.

Seven rule families share a single confidence anchor ``tau``: the plain
confidence threshold (M1), three entropy thresholds (M2, M3, M4) whose
cutoffs are chosen so their boundaries pass through the same anchor point
as M1, the consecutive-KL rule (M5), the top-two-gap rule (MP), and the
matched lower confidence bound (M1bar).  Calibrating every family from
one ``tau`` makes cross-family comparisons meaningful.

All threshold comparisons are strict; with continuous evidence the
boundary has probability zero, so strictness never changes Monte-Carlo
results but it keeps edge cases deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .simplex import (
    SimplexPoint,
    _normalize_log_weights,
    _top_two_union,
    confidence,
    kl_bits,
    renyi_bits,
    renyi_entropy,
    shannon_bits,
    shannon_entropy,
    special_point,
    top_two_gap,
)
from .simplex import kl_divergence, top_two  # noqa: F401 - unused; bench/tracer.py wraps them

__all__ = [
    "FAMILIES",
    "StoppingRule",
    "CriterionState",
    "calibrate",
    "should_stop",
    "stop_statistic",
    "in_stop_region",
    "min_confidence_on_entropy_contour",
    "delta2_divergence",
    "boundary_sample",
    "matched_lower_confidence",
]

FAMILIES = ("M1", "M2", "M3", "M4", "M5", "MP", "M1bar")

_DEFAULT_ALPHA = {"M2": 2.0, "M4": 0.2}
_DEFAULT_KL_THRESHOLD = 1e-2


def matched_lower_confidence(tau: float, n: int) -> float:
    """Confidence level whose plain threshold matches the gap rule's weakest point."""
    return ((2.0 * tau - 1.0) * (n - 1) + 1.0) / n


_SHARED = {"M1bar": "M1", "M4": "M2"}  # families that share another's statistic


@dataclass(frozen=True)
class StoppingRule:
    """A calibrated stopping criterion.

    ``threshold`` carries the family-specific cutoff: the confidence level
    for M1/M1bar, the entropy bound in bits for M2-M4, the KL bound in
    bits for M5, and the ball radius ``tau_bar`` for MP (whose gap cutoff
    is ``1 - tau_bar``).
    """

    family: str
    n: int
    source_tau: float
    threshold: float
    alpha: float | None = None

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.n < 2:
            raise ValueError("n must be at least 2")

    @property
    def statistic_key(self) -> tuple:
        """What :func:`stop_statistic` computes for the rule: M1 and M1bar
        both read the confidence, M2 and M4 of one order one Renyi entropy."""
        return _SHARED.get(self.family, self.family), self.alpha


@dataclass(frozen=True)
class CriterionState:
    """Evaluation state threaded through repeated rule checks.

    Only the consecutive-KL family uses it: ``previous`` holds the
    distribution seen at the preceding evaluation, absent before the
    first one.
    """

    previous: SimplexPoint | None = None


def calibrate(family: str, tau: float, n: int, *, alpha: float | None = None) -> StoppingRule:
    """Build a rule of the given family anchored at confidence ``tau``.

    M1 thresholds ``tau`` directly.  M2/M3/M4 take the entropy of the
    one-heavy reference point at ``tau`` so that their boundaries meet
    M1's there.  MP uses ball radius ``2 - 2 tau``, which makes its
    boundary meet M1's on the simplex edge.  M1bar lowers the confidence
    to the gap rule's weakest point.  M5 is the consecutive-KL rule with
    a fixed small cutoff (1e-2 bits), independent of ``tau``.

    ``alpha`` overrides the Renyi order for M2 (default 2) and M4
    (default 0.2).

    For ``n >= 3`` the domain holds ``tau < 1/2``, where the stop region of
    MP and M1bar is the whole simplex: both stop on the prior.  At ``1/2``
    it lacks only top-two ties (MP) or the center (M1bar).
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    if n < 2:
        raise ValueError("n must be at least 2")
    tau = float(tau)
    if not (1.0 / n < tau <= 1.0):
        raise ValueError(f"tau must lie in (1/{n}, 1], got {tau}")

    if family == "M1":
        return StoppingRule("M1", n, tau, tau)
    if family == "M1bar":
        return StoppingRule("M1bar", n, tau, matched_lower_confidence(tau, n))
    if family == "MP":
        return StoppingRule("MP", n, tau, 2.0 - 2.0 * tau)
    if family == "M5":
        return StoppingRule("M5", n, tau, _DEFAULT_KL_THRESHOLD)

    anchor = special_point("v", n, tau)
    if family == "M3":
        if alpha is not None:
            raise ValueError("M3 is the Shannon rule; alpha is fixed")
        return StoppingRule("M3", n, tau, shannon_entropy(anchor))
    a = float(alpha) if alpha is not None else _DEFAULT_ALPHA[family]
    return StoppingRule(family, n, tau, renyi_entropy(anchor, a), alpha=a)


def stop_statistic(rule: StoppingRule, log_probs: np.ndarray,
                   previous: np.ndarray | None = None) -> np.ndarray:
    """The statistic ``rule`` compares with its cutoff, over log-domain
    distributions ``(..., n)``.

    The consecutive-KL rule (M5) compares each distribution with
    ``previous``, the distributions one evaluation earlier.  Before there
    is one, its statistic is infinite: M5 cannot stop on its first
    evaluation.
    """
    family = rule.family
    if family in ("M1", "M1bar"):
        return confidence(log_probs)
    if family == "MP":
        return top_two_gap(log_probs)
    if family == "M3":
        return shannon_bits(log_probs)
    if family in ("M2", "M4"):
        return renyi_bits(log_probs, rule.alpha)
    if previous is None:
        return np.full(np.shape(log_probs)[:-1], np.inf)
    return kl_bits(log_probs, previous)


def stop_cutoff(rule: StoppingRule) -> float:
    """The value at which the rule's statistic crosses into its stop region."""
    return 1.0 - rule.threshold if rule.family == "MP" else rule.threshold


def stop_test(rule: StoppingRule) -> tuple[np.ufunc, float]:
    """The rule's strict stop test as a comparison and a cutoff: a statistic
    ``x`` lies in the stop region when ``compare(x, cutoff)``.  Confidence
    and gap rules stop above the cutoff, entropy and KL rules below it."""
    compare = np.greater if rule.family in ("M1", "M1bar", "MP") else np.less
    return compare, stop_cutoff(rule)


def in_stop_region(rule: StoppingRule, statistic):
    """Whether ``statistic`` lies in the rule's stop region (:func:`stop_test`)."""
    compare, cutoff = stop_test(rule)
    return compare(statistic, cutoff)


def rule_statistic(rule: StoppingRule, p: SimplexPoint) -> float:
    """The scalar each rule compares against its threshold (M5 excluded)."""
    return float(stop_statistic(rule, p.log_probs))


def should_stop(rule: StoppingRule, state: CriterionState,
                p: SimplexPoint) -> tuple[bool, CriterionState]:
    """Evaluate the rule on the latest distribution.

    Returns the stop decision and the state to carry into the next
    evaluation.
    """
    if p.n != rule.n:
        raise ValueError(f"dimension mismatch: rule has n={rule.n}, point has n={p.n}")
    previous = None if state.previous is None else state.previous.log_probs
    stop = bool(in_stop_region(rule, stop_statistic(rule, p.log_probs, previous)))
    return stop, (CriterionState(previous=p) if rule.family == "M5" else state)


def _binary_entropy_bits(t: float) -> float:
    if t <= 0.0 or t >= 1.0:
        return 0.0
    return float(-(t * np.log2(t) + (1.0 - t) * np.log2(1.0 - t)))


def min_confidence_on_entropy_contour(tau: float, n: int) -> float | None:
    """Smallest max-probability on the Shannon contour anchored at ``tau``.

    The contour through the one-heavy reference point reaches the simplex
    edge only when its entropy is below one bit; there, the weakest point
    is a two-class mixture whose heavy mass solves the binary-entropy
    equation.  Returns ``None`` when the contour does not reach the edge.
    Solved by bisection (binary entropy is strictly decreasing on
    [1/2, 1]) to an argument tolerance of 1e-10.
    """
    target = calibrate("M3", tau, n).threshold
    if target >= 1.0:
        return None
    lo, hi = 0.5, 1.0 - 1e-15
    while hi - lo > 1e-10:
        mid = 0.5 * (lo + hi)
        if _binary_entropy_bits(mid) > target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def delta2_divergence(p: SimplexPoint, q: SimplexPoint) -> float:
    """Two-element interest-set divergence with the remainder-mass term.

    Half the sum of top-two coordinate differences plus the difference of
    the leftover masses.  Against a one-hot distribution this equals one
    minus the largest coordinate, i.e. it reduces to plain confidence
    thresholding.
    """
    pp, qq = _top_two_union(p, q)
    p_rest, q_rest = 1.0 - sum(pp), 1.0 - sum(qq)
    return float(0.5 * (sum(abs(pp - qq)) + abs(p_rest - q_rest)))


# Orthonormal basis of the plane {x : sum(x) = 0} in R^3, used to cast
# rays from the simplex center for boundary tracing.
_PLANE_BASIS = np.array([
    [1.0, -1.0, 0.0],
    [1.0, 1.0, -2.0],
])
_PLANE_BASIS = _PLANE_BASIS / np.linalg.norm(_PLANE_BASIS, axis=1, keepdims=True)


def boundary_sample(rule: StoppingRule, resolution: int) -> list[SimplexPoint]:
    """Trace the rule's decision boundary on the three-class simplex.

    Casts ``resolution`` rays from the simplex center, keeps those along
    which the rule's stop indicator flips, and bisects all of them at once
    to the point where the defining statistic meets its cutoff (within
    1e-9).  Points come back ordered by ray angle, ready for polyline
    plotting.  Rays that never cross are skipped, and when fewer than 90%
    cross the fan is re-traced denser, so the count can differ from
    ``resolution``; it is 0 when the stop region covers all of the simplex
    or none of it, and 1 (the center) when the cutoff passes through it.
    """
    if rule.n != 3:
        raise ValueError("boundary tracing is a three-class helper")
    if rule.family == "M5":
        raise ValueError("the consecutive-KL rule has no pointwise boundary")
    if resolution < 3:
        raise ValueError("resolution must be at least 3")
    # a nonempty stop region of every family holds the corners; an empty
    # one has no boundary, though a ray aimed at a corner ends on its cutoff
    if not in_stop_region(rule, rule_statistic(rule, SimplexPoint.corner(3, 0))):
        return []

    target = stop_cutoff(rule)
    center = np.full(3, 1.0 / 3.0)

    def at(t: np.ndarray, d: np.ndarray) -> np.ndarray:
        """Log probabilities at ``center + t d``, one row per ray."""
        with np.errstate(divide="ignore"):
            return _normalize_log_weights(np.log(np.maximum(center + t[:, None] * d, 0.0)))

    def excess(t: np.ndarray, d: np.ndarray) -> np.ndarray:
        return stop_statistic(rule, at(t, d)) - target

    start = at(np.zeros(1), _PLANE_BASIS[:1])  # every ray starts at the center
    g0 = stop_statistic(rule, start)[0] - target

    def trace(n_rays: int) -> np.ndarray:
        theta = 2.0 * np.pi * np.arange(n_rays) / n_rays
        d = np.cos(theta)[:, None] * _PLANE_BASIS[0] + np.sin(theta)[:, None] * _PLANE_BASIS[1]
        t_max = np.divide(center, -d, out=np.full_like(d, np.inf), where=d < 0).min(1)
        g1 = excess(t_max, d)
        crossing = (np.sign(g1) != np.sign(g0)) | (g1 == 0.0)
        d, lo, hi = d[crossing], np.zeros(crossing.sum()), t_max[crossing]
        t, live = np.empty(len(d)), np.arange(len(d))
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            gm = excess(mid, d[live])
            # a ray ends on its cutoff, or once the midpoint is an end of its
            # bracket: every later step would give the same midpoint
            done = (np.abs(gm) <= 1e-12) | (mid == lo) | (mid == hi)
            t[live[done]] = mid[done]
            lower, keep = np.sign(gm) == np.sign(g0), ~done
            lo, hi = np.where(lower, mid, lo)[keep], np.where(lower, hi, mid)[keep]
            live = live[keep]
            if not live.size:
                break
        t[live] = 0.5 * (lo + hi)
        return at(t, d)

    if g0 == 0.0:
        out = start  # a cutoff through the center is the one point all rays share
    else:
        # regions that hug the corners cross only a fraction of the rays, so
        # re-trace with a denser fan until roughly `resolution` points land
        out = trace(resolution)
        if len(out) < 0.9 * resolution and len(out):
            out = trace(int(np.ceil(resolution * resolution / len(out))))
    out.flags.writeable = False
    return list(map(SimplexPoint._normalized, out))
