"""The recursive classification loop: evidence, update, stop, decide.

A trial starts from a prior, repeatedly queries a set of classes, fuses
the returned evidence into the posterior, and checks a stopping rule.
Evidence comes from two lognormal channels: queried true class draws from
the positive channel, queried non-true classes draw independently from
the negative channel, and unqueried classes receive exactly neutral
evidence.

Reproducibility contract: every trial consumes a dedicated substream
derived from ``(master_seed, trial_index)`` via numpy's SeedSequence
spawn-key mechanism feeding a Philox generator, and each sequence draws
one standard normal per class (unqueried draws are discarded).  Results
are therefore bit-identical regardless of execution order or of how
trials are batched.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# should_stop and oplus are unused here, but bench/tracer.py instruments them
from .criteria import StoppingRule, in_stop_region, should_stop, stop_statistic  # noqa: F401
from .simplex import SimplexPoint, _normalize_log_weights, oplus  # noqa: F401

__all__ = [
    "EvidenceModel",
    "Broadcast",
    "TopN",
    "TrialConfig",
    "TrialOutcome",
    "trial_stream",
    "resolve_queried",
    "log_evidence",
    "classify_until_stop",
    "run_trial",
]


@dataclass(frozen=True)
class EvidenceModel:
    """Lognormal evidence channels: log-mean and log-sd per channel.

    Zero log-sd is allowed and gives deterministic evidence, which
    reduces the loop to the constant-evidence model.
    """

    mu_pos: float
    c_pos: float
    mu_neg: float
    c_neg: float

    def __post_init__(self) -> None:
        for key in ("mu_pos", "c_pos", "mu_neg", "c_neg"):
            if not np.isfinite(getattr(self, key)):
                raise ValueError(f"{key} must be finite, got {getattr(self, key)}")
        if self.c_pos < 0 or self.c_neg < 0:
            raise ValueError("channel log-sds must be nonnegative")


@dataclass(frozen=True)
class Broadcast:
    """Every class receives a channel draw each sequence."""


@dataclass(frozen=True)
class TopN:
    """Only the ``n_queries`` currently most probable classes are queried."""

    n_queries: int

    def __post_init__(self) -> None:
        if self.n_queries < 1:
            raise ValueError("n_queries must be at least 1")


QueryScheme = Broadcast | TopN

_FLOAT_MAX = float(np.finfo(float).max)


@dataclass(frozen=True)
class TrialConfig:
    prior: SimplexPoint
    true_index: int
    rule: StoppingRule
    model: EvidenceModel
    scheme: QueryScheme = Broadcast()
    max_sequences: int = 100
    seed: int = 0
    trial_index: int = 0
    check_prior: bool = True

    def __post_init__(self) -> None:
        if not 0 <= self.true_index < self.prior.n:
            raise ValueError("true_index out of range")
        if self.prior.n != self.rule.n:
            raise ValueError("prior and rule dimensions differ")
        if self.max_sequences < 1:
            raise ValueError("max_sequences must be at least 1")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        if self.trial_index < 0:
            raise ValueError(f"trial_index must be nonnegative, got {self.trial_index}")
        if isinstance(self.scheme, TopN) and self.scheme.n_queries > self.prior.n:
            raise ValueError(f"scheme queries {self.scheme.n_queries} classes "
                             f"but only {self.prior.n} exist")
        # Channel parameters of magnitude at most p move a log weight by at
        # most 15 p a sequence (Generator.standard_normal never reaches
        # |z| = 14), so the log state spreads by at most 30 p a sequence; the
        # statistics scale it by up to the Renyi order (2 by default).
        limit = _FLOAT_MAX / (30.0 * max(2.0, self.rule.alpha or 0.0) * (self.max_sequences + 1))
        for key in ("mu_pos", "c_pos", "mu_neg", "c_neg"):
            if abs(getattr(self.model, key)) > limit:
                raise ValueError(f"{key} must be at most {limit:.3g} in magnitude for max_sequences"
                                 f" = {self.max_sequences}, so that the log evidence stays "
                                 f"finite; got {getattr(self.model, key)}")


@dataclass(frozen=True)
class TrialOutcome:
    """Result of one trial.

    ``stopped_at`` is the sequence index at which the rule fired (0 means
    the prior already satisfied it; ``None`` means censored at
    ``max_sequences``).  The trajectory holds the prior plus one point
    per executed sequence.
    """

    stopped_at: int | None
    decision: int | None
    correct: bool | None
    trajectory: tuple[SimplexPoint, ...] = field(repr=False)


def trial_stream(master_seed: int, trial_index: int) -> np.random.Generator:
    """Independent, order-insensitive random stream for one trial."""
    # the spawn key keeps its leading 0 so that every trial keeps its earlier bits
    ss = np.random.SeedSequence(entropy=int(master_seed), spawn_key=(0, int(trial_index)))
    return np.random.Generator(np.random.Philox(ss))


def resolve_queried(scheme: QueryScheme, probs: np.ndarray) -> np.ndarray:
    """Boolean mask of queried classes along the last axis of ``probs``;
    top-N ties go to the lowest index."""
    if isinstance(scheme, Broadcast):
        return np.ones(probs.shape, dtype=bool)
    # a class's rank is its position in the stable descending order
    rank = np.argsort(np.argsort(-probs, axis=-1, kind="stable"), axis=-1)
    return rank < scheme.n_queries


def log_evidence(model: EvidenceModel, true_index: int, z: np.ndarray,
                 queried: np.ndarray) -> np.ndarray:
    """Log evidence from standard normals ``z`` of shape ``(..., n)``.

    A queried true class reads the positive channel, other queried
    classes the negative one, and unqueried classes get exactly 0.
    """
    log_e = model.mu_neg + model.c_neg * z
    log_e[..., true_index] = model.mu_pos + model.c_pos * z[..., true_index]
    log_e[~queried] = 0.0
    return log_e


def classify_until_stop(cfg, rules, log_priors: np.ndarray, rngs: list,
                        keep_states: bool = False) -> tuple[np.ndarray, np.ndarray, list | None]:
    """The classify-until-stop loop over a batch of trials.

    ``cfg`` (a :class:`TrialConfig` or an experiment config) supplies the
    model, true class, scheme, ``max_sequences`` and ``check_prior``;
    ``log_priors`` holds each trial's prior log weights ``(T, n)`` and
    ``rngs`` its random stream, which gives ``n`` normals per sequence.

    Each sequence updates every trial in the log domain and tests every
    rule on the new states (and on the priors with ``check_prior``).
    Rules differing only in threshold share their statistic; M5 compares
    with the state of its previous evaluation.  A trial leaves the batch
    once every rule has stopped it.

    Returns ``first`` and ``decision`` ``(R, T)``: each rule's first stop
    and argmax decision there, -1 if it never stopped.  ``keep_states``
    also returns the log states, one ``(T_s, n)`` array per state for the
    trials still in the batch; with no rules, that is every trial.
    """
    horizon = cfg.max_sequences
    t_count, n = log_priors.shape
    first, decision = np.full((2, len(rules), t_count), -1)
    rows = np.arange(t_count)
    pending = first < 0
    families = {(rule.family, rule.alpha): rule for rule in rules}
    logp = _normalize_log_weights(log_priors)
    previous = None
    states = [logp] if keep_states else None
    z = np.empty((t_count, 0, n))
    start = drawn = 0
    for s in range(horizon + 1):
        if s:
            if s > drawn:
                # blocks of 8, 8, 16, 32, ... sequences: a trial draws at most
                # twice the normals it uses, or 8 sequences' worth
                size = min(max(drawn, 8), horizon - drawn)
                z = np.array([rng.standard_normal((size, n)) for rng in rngs])
                start, drawn = drawn, drawn + size
            queried = resolve_queried(cfg.scheme, np.exp(logp))
            log_e = log_evidence(cfg.model, cfg.true_index, z[:, s - 1 - start], queried)
            logp = _normalize_log_weights(logp + log_e)
            if keep_states:
                states.append(logp)
        if not rules or not (s or cfg.check_prior):
            continue
        statistics = {key: stop_statistic(rule, logp, previous)
                      for key, rule in families.items()}
        hits = pending & np.array([in_stop_region(rule, statistics[rule.family, rule.alpha])
                                   for rule in rules])
        previous = logp
        if not hits.any():
            continue
        r_new, t_new = np.nonzero(hits)
        first[r_new, rows[t_new]] = s
        decision[r_new, rows[t_new]] = logp[t_new].argmax(-1)
        pending ^= hits
        keep = pending.any(0)
        if not keep.any():
            break
        if not keep.all():
            rows, pending, z = rows[keep], pending[:, keep], z[keep]
            logp = previous = logp[keep]
            rngs = [rng for rng, k in zip(rngs, keep) if k]
    return first, decision, states


def run_trial(config: TrialConfig) -> TrialOutcome:
    """Run the classify-until-stop loop for a single trial.

    The stopping rule is checked on the prior before any evidence when
    ``check_prior`` is set (an edge prior can terminate immediately), then
    after every update.  On stop, the decision is the posterior argmax
    with lowest-index tie-break; reaching ``max_sequences`` without a stop
    censors the trial.  The trajectory holds the loop's own states, so
    they equal the harness's states for the same trial bit for bit.
    """
    first, decision, states = classify_until_stop(
        config, (config.rule,), config.prior.log_probs[None],
        [trial_stream(config.seed, config.trial_index)], keep_states=True)
    path = np.concatenate(states)
    path.flags.writeable = False
    trajectory = tuple(map(SimplexPoint._normalized, path))
    if first[0, 0] < 0:
        return TrialOutcome(None, None, None, trajectory)
    stopped_at, choice = int(first[0, 0]), int(decision[0, 0])
    return TrialOutcome(stopped_at, choice, choice == config.true_index, trajectory)
