"""Geometry of categorical distributions on the probability simplex.

Distributions are held in the log domain so that long chains of
multiplicative Bayes updates neither underflow nor lose relative precision.
Entries that are exactly zero are permitted (they encode boundary points
such as two-class mixtures) and are absorbing under perturbation: once a
category has zero mass no amount of evidence revives it.

All entropies and divergences are reported in bits.  Each stop statistic
is defined once, over log-domain arrays of shape ``(..., n)``, so one
function serves a single point and a whole tensor of simulated states;
the functions on :class:`SimplexPoint` are calls on a batch of one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "SimplexPoint",
    "LikelihoodVector",
    "TopTwo",
    "oplus",
    "otimes",
    "special_point",
    "confidence",
    "top_two_gap",
    "shannon_bits",
    "renyi_bits",
    "kl_bits",
    "shannon_entropy",
    "renyi_entropy",
    "kl_divergence",
    "project_to_center_line",
    "center_line_distance",
    "top_two",
    "delta_mp",
]

_LOG2 = np.log(2.0)


def _class_sum(x: np.ndarray) -> np.ndarray:
    """Sum along the last (class) axis in index order, ``x_0 + x_1 + ...``,
    at every layout and batch size.  numpy reduces a class-major batch of
    two or more rows one class at a time, but would add any other layout
    (a single row too) pairwise, so that takes the running sum."""
    if x.flags.f_contiguous and x.size > x.shape[-1]:
        return np.add.reduce(x, -1, initial=-0.0)  # -0.0 + x_0 is x_0, a zero's sign too
    return np.add.accumulate(x, -1)[..., -1]


def _normalize_log_weights(logw: np.ndarray) -> np.ndarray:
    """Shift log weights along the last axis so the implied masses sum to
    one (log-sum-exp).

    Every row must have positive mass: a finite maximum and no ``nan`` or
    ``+inf``.  The kernel does not check it, since it runs on every
    sequence of every trial; :class:`SimplexPoint` checks user input once,
    and the harness passes only rows that keep it (random priors whose
    true class holds ``true_mass > 0``, boundary rays inside the simplex,
    and finite evidence added to a normalized state).
    """
    m = np.maximum.reduce(logw, -1, keepdims=True)
    return logw - (m + np.log(_class_sum(np.exp(logw - m)))[..., None])


@dataclass(frozen=True, slots=True)
class SimplexPoint:
    """A categorical distribution ``p`` with ``n >= 2`` classes.

    Parameters
    ----------
    log_probs : array_like
        Log probabilities; ``-inf`` encodes an exactly-zero entry. The
        vector is renormalized on construction, so any vector of log
        weights with at least one finite entry is accepted.

    Notes
    -----
    Instances are immutable; ``n`` never changes for the lifetime of a
    value and every operation returns a fresh point whose masses sum to
    one within 1e-12.  Points are equal, and hash alike, when their log
    probabilities are equal bit for bit; :meth:`allclose` compares within
    a tolerance.
    """

    log_probs: np.ndarray

    def __post_init__(self) -> None:
        lp = np.array(self.log_probs, dtype=float, copy=True)
        if lp.ndim != 1 or lp.size < 2:
            raise ValueError("a distribution needs at least two categories")
        if np.isnan(lp).any() or np.isposinf(lp).any():
            raise ValueError("log probabilities must lie in [-inf, finite]")
        if np.isneginf(lp).all():
            raise ValueError("distribution has no positive mass")
        lp = _normalize_log_weights(lp)
        lp.flags.writeable = False
        object.__setattr__(self, "log_probs", lp)

    @classmethod
    def _normalized(cls, log_probs: np.ndarray) -> "SimplexPoint":
        """Wrap normalized, read-only log probabilities as they are, bit
        for bit."""
        point = object.__new__(cls)
        object.__setattr__(point, "log_probs", log_probs)
        return point

    @classmethod
    def from_probs(cls, probs) -> "SimplexPoint":
        """Build a point from (possibly unnormalized) nonnegative masses."""
        p = np.asarray(probs, dtype=float)
        if p.ndim != 1 or p.size < 2:
            raise ValueError("a distribution needs at least two categories")
        if np.isnan(p).any() or np.isinf(p).any() or (p < 0).any():
            raise ValueError("masses must be finite and nonnegative")
        with np.errstate(divide="ignore"):
            return cls(np.log(p))

    @classmethod
    def uniform(cls, n: int) -> "SimplexPoint":
        """The center of the simplex, ``u_n``."""
        if n < 2:
            raise ValueError("n must be at least 2")
        return cls(np.zeros(n))

    @classmethod
    def corner(cls, n: int, i: int) -> "SimplexPoint":
        """The one-hot distribution at index ``i``."""
        if n < 2:
            raise ValueError("n must be at least 2")
        if not 0 <= i < n:
            raise ValueError("corner index out of range")
        lp = np.full(n, -np.inf)
        lp[i] = 0.0
        return cls(lp)

    @property
    def n(self) -> int:
        return self.log_probs.size

    @property
    def probs(self) -> np.ndarray:
        out = np.exp(self.log_probs)
        out.flags.writeable = False
        return out

    @property
    def max_prob(self) -> float:
        return float(confidence(self.log_probs))

    @property
    def argmax(self) -> int:
        # np.argmax returns the first maximizer, i.e. lowest-index tie-break
        return int(np.argmax(self.log_probs))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SimplexPoint):
            return NotImplemented
        return self.log_probs.tobytes() == other.log_probs.tobytes()

    def __hash__(self) -> int:
        return hash(self.log_probs.tobytes())

    def allclose(self, other: "SimplexPoint", atol: float = 1e-12) -> bool:
        return self.n == other.n and bool(
            np.allclose(self.probs, other.probs, rtol=0.0, atol=atol)
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        with np.printoptions(precision=6, suppress=True):
            return f"SimplexPoint({self.probs})"


@dataclass(frozen=True)
class LikelihoodVector:
    """Unnormalized per-class evidence; every entry strictly positive."""

    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.array(self.values, dtype=float, copy=True)
        if v.ndim != 1 or v.size < 2:
            raise ValueError("evidence needs at least two categories")
        if np.isnan(v).any() or np.isinf(v).any() or (v <= 0).any():
            raise ValueError("evidence entries must be finite and strictly positive")
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    @classmethod
    def neutral(cls, n: int) -> "LikelihoodVector":
        """Evidence that leaves any distribution unchanged."""
        return cls(np.ones(n))

    @property
    def n(self) -> int:
        return self.values.size

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LikelihoodVector):
            return NotImplemented
        return self.values.tobytes() == other.values.tobytes()

    def __hash__(self) -> int:
        return hash(self.values.tobytes())


@dataclass(frozen=True)
class TopTwo:
    """Indices of the two largest masses and their gap.

    Ties are broken toward the lowest index, so the result is
    deterministic for any input.
    """

    j1: int
    j2: int
    gap: float


def _check_same_n(a, b) -> None:
    if a.n != b.n:
        raise ValueError(f"dimension mismatch: {a.n} vs {b.n}")


def oplus(p: SimplexPoint, e: LikelihoodVector) -> SimplexPoint:
    """Perturb ``p`` by evidence ``e`` (the Bayes update).

    Returns the normalized componentwise product ``p_i e_i / sum_k p_k e_k``.
    Zero entries of ``p`` stay zero.
    """
    _check_same_n(p, e)
    return SimplexPoint(p.log_probs + np.log(e.values))


def otimes(p: SimplexPoint, lam: float) -> SimplexPoint:
    """Scalar power: ``p_i^lam`` renormalized.

    ``lam <= 0`` requires a strictly positive ``p`` (a zero entry has no
    finite power there); for ``lam > 0`` zeros stay zero.
    """
    lam = float(lam)
    if lam <= 0 and np.isneginf(p.log_probs).any():
        raise ValueError("power with lam <= 0 undefined for zero entries")
    if lam == 0.0:
        return SimplexPoint.uniform(p.n)
    return SimplexPoint(lam * p.log_probs)


def special_point(kind: str, n: int, tau: float | None = None, i: int = 0) -> SimplexPoint:
    """Construct one of the named reference distributions.

    Parameters
    ----------
    kind : {"uniform", "v", "w", "corner"}
        ``uniform`` is the simplex center.  ``v`` puts mass ``tau`` at
        index ``i`` and spreads the rest evenly.  ``w`` puts ``tau`` at
        ``i`` and ``1 - tau`` on the lowest other index, zero elsewhere.
        ``corner`` is one-hot at ``i``.
    tau : float, optional
        Required for ``v`` and ``w``; must lie in ``[1/n, 1]``.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    if not 0 <= i < n:
        raise ValueError("index out of range")
    if kind == "uniform":
        return SimplexPoint.uniform(n)
    if kind == "corner":
        return SimplexPoint.corner(n, i)
    if kind not in ("v", "w"):
        raise ValueError(f"unknown special point kind {kind!r}")
    if tau is None:
        raise ValueError(f"kind {kind!r} requires tau")
    tau = float(tau)
    if not (1.0 / n <= tau <= 1.0):
        raise ValueError(f"tau must lie in [1/{n}, 1], got {tau}")
    p = np.zeros(n)
    if kind == "v":
        p[:] = (1.0 - tau) / (n - 1)
        p[i] = tau
    else:
        j = 0 if i != 0 else 1
        p[i] = tau
        p[j] = 1.0 - tau
    return SimplexPoint.from_probs(p)


def confidence(log_probs: np.ndarray) -> np.ndarray:
    """Largest mass along the last axis of log-domain distributions."""
    return np.exp(np.max(log_probs, axis=-1))


def top_two_gap(log_probs: np.ndarray) -> np.ndarray:
    """Largest minus second-largest mass along the last axis: contiguous
    rows are partitioned, other layouts (a class-major batch) keep a running
    top two over the classes; both select entries, so their bits agree."""
    if log_probs.flags.c_contiguous:
        top = log_probs.copy()
        top.partition(-2, -1)
        top = np.exp(top[..., -2:])
        return top[..., 1] - top[..., 0]
    c0, c1 = log_probs[..., 0], log_probs[..., 1]
    m1, m2 = np.maximum(c0, c1), np.minimum(c0, c1)
    for j in range(2, log_probs.shape[-1]):
        c = log_probs[..., j]
        m1, m2 = np.maximum(m1, c), np.maximum(m2, np.minimum(m1, c))
    return np.exp(m1) - np.exp(m2)


def shannon_bits(log_probs: np.ndarray) -> np.ndarray:
    """Shannon entropy in bits along the last axis, with ``0 log 0 = 0``."""
    terms = np.exp(log_probs)
    np.multiply(terms, log_probs, out=terms, where=np.isfinite(log_probs))
    return -_class_sum(terms) / _LOG2


def renyi_bits(log_probs: np.ndarray, alpha: float) -> np.ndarray:
    """Order-``alpha`` Renyi entropy in bits along the last axis.

    The sum of ``p_i^alpha`` runs over the support only and is taken by
    log-sum-exp, so its range is safe for any ``alpha`` (``alpha = 0``
    counts the support).
    """
    if alpha > 0:
        scaled = np.multiply(log_probs, alpha)  # a zero's -inf stays -inf
    else:
        scaled = np.multiply(log_probs, alpha, out=np.full_like(log_probs, -np.inf),
                             where=np.isfinite(log_probs))
    m = scaled.max(-1)
    np.exp(np.subtract(scaled, m[..., None], out=scaled), out=scaled)
    return (m + np.log(_class_sum(scaled))) / ((1.0 - alpha) * _LOG2)


def kl_bits(log_p: np.ndarray, log_q: np.ndarray) -> np.ndarray:
    """``KL(p || q)`` in bits along the last axis; ``p``'s zeros add nothing."""
    terms = np.subtract(log_p, log_q, out=np.zeros_like(log_p), where=np.isfinite(log_p))
    return _class_sum(np.multiply(terms, np.exp(log_p), out=terms)) / _LOG2


def shannon_entropy(p: SimplexPoint) -> float:
    """Shannon entropy in bits with the convention ``0 log 0 = 0``."""
    return float(shannon_bits(p.log_probs))


def renyi_entropy(p: SimplexPoint, alpha: float) -> float:
    """Order-``alpha`` Renyi entropy in bits.

    Defined for ``alpha >= 0`` except ``alpha = 1`` (use
    :func:`shannon_entropy` there); the value converges to the Shannon
    entropy as ``alpha -> 1``.
    """
    alpha = float(alpha)
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    if alpha == 1.0:
        raise ValueError("alpha = 1 is the Shannon limit; use shannon_entropy")
    return float(renyi_bits(p.log_probs, alpha))


def kl_divergence(p: SimplexPoint, q: SimplexPoint) -> float:
    """Kullback-Leibler divergence ``KL(p || q)`` in bits.

    Requires absolute continuity: wherever ``q`` is zero, ``p`` must be
    zero too.
    """
    _check_same_n(p, q)
    if np.any(np.isneginf(q.log_probs) & ~np.isneginf(p.log_probs)):
        raise ValueError("support violation: p has mass where q is zero")
    return float(kl_bits(p.log_probs, q.log_probs))


def project_to_center_line(p: SimplexPoint, i: int) -> SimplexPoint:
    """Euclidean projection of ``p`` onto the center line through corner ``i``.

    The center line joins the uniform distribution to the ``i``-th corner;
    the projection keeps ``p_i`` and spreads the remaining mass evenly.
    """
    if not 0 <= i < p.n:
        raise ValueError("index out of range")
    pi = float(p.probs[i])
    out = np.full(p.n, (1.0 - pi) / (p.n - 1))
    out[i] = pi
    return SimplexPoint.from_probs(out)


def center_line_distance(p: SimplexPoint, i: int) -> float:
    """Euclidean distance from ``p`` to its center-line projection."""
    return float(np.linalg.norm(p.probs - project_to_center_line(p, i).probs))


def top_two(p: SimplexPoint) -> TopTwo:
    """Largest and second-largest coordinates, lowest index on ties."""
    order = np.argsort(-p.probs, kind="stable")
    return TopTwo(j1=int(order[0]), j2=int(order[1]), gap=float(top_two_gap(p.log_probs)))


def _top_two_union(p: SimplexPoint, q: SimplexPoint) -> tuple[np.ndarray, np.ndarray]:
    """Masses of ``p`` and ``q`` on the union of their top-two index sets,
    in index order."""
    _check_same_n(p, q)
    tp, tq = top_two(p), top_two(q)
    idx = sorted({tp.j1, tp.j2, tq.j1, tq.j2})
    return p.probs[idx], q.probs[idx]


def delta_mp(p: SimplexPoint, q: SimplexPoint) -> float:
    """Top-two coordinate distance between ``p`` and ``q``.

    Sums ``|p_i - q_i|`` over the union of both arguments' top-two index
    sets (duplicates counted once).  Symmetric and nonnegative; zero on
    identical arguments.
    """
    pp, qq = _top_two_union(p, q)
    return float(sum(abs(pp - qq)))
