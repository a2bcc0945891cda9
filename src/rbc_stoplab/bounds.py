"""Closed-form stopping-time thresholds and stopping probabilities.

These cover the single-positive-channel evidence model: every update
multiplies the true class by a draw ``eps`` (constant, or lognormal with
log-mean ``mu`` and log-sd ``c``) while all other classes keep neutral
evidence.  Under that model the first-stop sequence for the confidence,
gap, and norm rules has a closed form, and the probability of sitting in
a stop region after ``s`` updates is a normal tail.  The confidence and
gap cutoffs are those of the simulator's rules in ``criteria``.

Natural logarithms are used throughout this module (the lognormal algebra
lives in nats); entropies elsewhere in the package are in bits.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from .criteria import calibrate, stop_cutoff
from .simplex import SimplexPoint

__all__ = [
    "RULE_KINDS",
    "BoundQuery",
    "Prop5Report",
    "erf",
    "stop_ratio_constant",
    "min_sequences_constant_evidence",
    "stop_probability_lognormal",
    "false_stop_probability",
    "verify_prop5_ordering",
]

RULE_KINDS = ("M1", "MP", "M2norm", "M1bar")


def erf(x):
    """``math.erf`` of a scalar, or of each element of an ndarray, giving one."""
    if np.ndim(x) == 0:
        return math.erf(x)
    return np.vectorize(math.erf, otypes=[float])(x)


@dataclass(frozen=True)
class BoundQuery:
    """Inputs shared by the analytic stopping formulas.

    ``mu`` and ``c`` parameterize the log of the positive-channel draw;
    ``s`` is the number of evidence rounds; ``rule_kind`` picks which
    stop region the query concerns.
    """

    prior: SimplexPoint
    true_index: int
    competitor_index: int
    tau: float
    mu: float = 0.0
    c: float = 1.0
    s: int = 1
    rule_kind: str = "M1"

    def __post_init__(self) -> None:
        n = self.prior.n
        if not 0 <= self.true_index < n or not 0 <= self.competitor_index < n:
            raise ValueError("class indices out of range")
        if self.true_index == self.competitor_index:
            raise ValueError("true and competitor classes must differ")
        if not (1.0 / n < self.tau < 1.0):
            raise ValueError(f"tau must lie in (1/{n}, 1)")
        if not math.isfinite(self.mu):
            raise ValueError(f"mu must be finite, got {self.mu}")
        if not 0.0 <= self.c < math.inf:
            raise ValueError(f"c must be finite and nonnegative, got {self.c}")
        if not 1 <= self.s <= sys.float_info.max:
            raise ValueError(f"s must lie in [1, {sys.float_info.max:.3g}], got {self.s}")
        if self.rule_kind not in RULE_KINDS:
            raise ValueError(f"unknown rule kind {self.rule_kind!r}")

    @property
    def p1(self) -> float:
        return float(self.prior.probs[self.true_index])

    @property
    def p2(self) -> float:
        return float(self.prior.probs[self.competitor_index])


def _cutoff(q: BoundQuery, kind: str) -> float:
    """The cutoff of the ``criteria`` rule ``kind`` anchored at the query's tau."""
    return stop_cutoff(calibrate(kind, q.tau, q.prior.n))


def stop_ratio_constant(q: BoundQuery) -> float:
    """The evidence ratio ``k`` whose crossing triggers the stop.

    The true-class evidence product must exceed ``k`` for the posterior
    to sit in the queried stop region.
    """
    p1, p2, tau = q.p1, q.p2, q.tau
    if not 0.0 < p1 < 1.0:
        raise ValueError(f"prior mass of the true class must lie in (0, 1), got {p1}")
    if q.rule_kind == "M2norm":
        # the l2-norm form of the quadratic-entropy rule, not a criteria family
        if tau <= 0.5:
            raise ValueError("the norm rule needs tau > 0.5 (discriminant realness)")
        return (1.0 - p1) * (tau + math.sqrt(2.0 * tau - 1.0)) / ((1.0 - tau) ** 2 * p1)
    t = _cutoff(q, q.rule_kind)
    if q.rule_kind == "MP":  # the true class must lead the competitor by t
        return ((1.0 - p1) * t + p2) / ((1.0 - t) * p1)
    return (1.0 - p1) * t / ((1.0 - t) * p1)  # its confidence must pass t


def min_sequences_constant_evidence(q: BoundQuery, eps: float) -> float:
    """Real-valued stop threshold under constant evidence ``eps > 1``.

    Stopping first occurs at the smallest integer sequence strictly above
    the returned value.
    """
    if eps <= 1.0:
        raise ValueError("eps must exceed 1")
    k = stop_ratio_constant(q)
    if k <= 0.0:
        return -math.inf  # region already contains the prior direction
    return math.log(k) / math.log(eps)


def _tail(q: BoundQuery, k: float, above: bool) -> float:
    """Probability that the product of ``s`` draws, lognormal with log-mean
    ``s mu`` and log-variance ``s c^2``, lies strictly above (or below) ``k``."""
    if q.c == 0.0:
        return float(q.s * q.mu > math.log(k) if above else q.s * q.mu < math.log(k))
    # 2 sqrt(s / 2) is sqrt(2 s) bit for bit, and finite for every s
    top, bottom = math.log(k) - q.s * q.mu, 2.0 * math.sqrt(0.5 * q.s) * q.c
    arg = top / bottom
    if math.isfinite(math.log(k)) and not (math.isfinite(top) and math.isfinite(bottom)):
        # a term past the float range: the same ratio rescaled by s, finite
        # or the right infinity for every s
        arg = (math.log(k) / q.s - q.mu) * (math.sqrt(0.5 * q.s) / q.c)
    return 0.5 * math.erfc(arg if above else -arg)


def stop_probability_lognormal(q: BoundQuery) -> float:
    """Probability that ``s`` lognormal rounds land in the stop region."""
    k = stop_ratio_constant(q)
    if k <= 0.0:
        return 1.0  # any positive evidence product crosses a nonpositive ratio
    return _tail(q, k, above=True)


def _false_ratio(q: BoundQuery, variant: str) -> float:
    if variant not in ("M1", "MP", "M1bar"):
        raise ValueError(f"unknown false-stop variant {variant!r}")
    t = _cutoff(q, variant)
    # the competitor's confidence must pass t, or, for the gap rule, its
    # lead over the true class must
    scale = 1.0 + t if variant == "MP" else t
    return (q.p2 - (1.0 - q.p1) * t) / (scale * q.p1)


def false_stop_probability(q: BoundQuery, variant: str) -> float:
    """Probability of landing in the competitor's stop region.

    The competitor wins only when the aggregate true-class evidence falls
    below a variant-specific ratio ``k'``; a nonpositive ratio means the
    event is impossible (the evidence product is positive), giving zero.
    """
    kp = _false_ratio(q, variant)
    return 0.0 if kp <= 0.0 else _tail(q, kp, above=False)


@dataclass
class Prop5Report:
    """True-positive and false-alarm curves plus any ordering violations."""

    s_values: list[int] = field(default_factory=list)
    tp_m1: list[float] = field(default_factory=list)
    tp_mp: list[float] = field(default_factory=list)
    fa_m1: list[float] = field(default_factory=list)
    fa_mp: list[float] = field(default_factory=list)
    fa_m1bar: list[float] = field(default_factory=list)
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def verify_prop5_ordering(q: BoundQuery, s_range) -> Prop5Report:
    """Check the rule-ordering guarantees over a range of round counts.

    For every ``s``: the gap rule's true-positive probability must not
    fall below the confidence rule's, and the false-alarm probabilities
    must be ordered confidence <= gap <= lowered-confidence.
    """
    report = Prop5Report()
    for s in s_range:
        qs = replace(q, s=int(s), rule_kind="M1")
        tp1 = stop_probability_lognormal(qs)
        tp2 = stop_probability_lognormal(replace(qs, rule_kind="MP"))
        fa1 = false_stop_probability(qs, "M1")
        fa2 = false_stop_probability(qs, "MP")
        fa3 = false_stop_probability(qs, "M1bar")
        report.s_values.append(int(s))
        report.tp_m1.append(tp1)
        report.tp_mp.append(tp2)
        report.fa_m1.append(fa1)
        report.fa_mp.append(fa2)
        report.fa_m1bar.append(fa3)
        tol = 1e-12
        if not all(map(math.isfinite, (tp1, tp2, fa1, fa2, fa3))):
            report.violations.append(f"s={s}: non-finite TP {tp1}, {tp2} or FA {fa1}, {fa2}, {fa3}")
        if tp2 < tp1 - tol:
            report.violations.append(f"s={s}: TP(MP)={tp2:.6g} < TP(M1)={tp1:.6g}")
        if fa1 > fa2 + tol or fa2 > fa3 + tol:
            report.violations.append(
                f"s={s}: FA ordering broken: M1={fa1:.6g}, MP={fa2:.6g}, M1bar={fa3:.6g}")
    return report
