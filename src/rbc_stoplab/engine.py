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
are therefore bit-identical regardless of execution order or worker
count.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .criteria import CriterionState, StoppingRule, should_stop
from .simplex import LikelihoodVector, SimplexPoint, oplus

__all__ = [
    "EvidenceModel",
    "Broadcast",
    "TopN",
    "TrialConfig",
    "TrialOutcome",
    "trial_stream",
    "resolve_queried",
    "log_evidence",
    "sample_evidence",
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
        if isinstance(self.scheme, TopN) and self.scheme.n_queries > self.prior.n:
            raise ValueError(f"scheme queries {self.scheme.n_queries} classes "
                             f"but only {self.prior.n} exist")


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


def trial_stream(master_seed: int, trial_index: int, stream: int = 0) -> np.random.Generator:
    """Independent, order-insensitive random stream for one trial."""
    ss = np.random.SeedSequence(entropy=int(master_seed),
                                spawn_key=(int(stream), int(trial_index)))
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


def sample_evidence(model: EvidenceModel, queried: np.ndarray, true_index: int,
                    rng: np.random.Generator) -> LikelihoodVector:
    """Draw one sequence of evidence.

    One standard normal is drawn per class regardless of the query mask so
    that the stream layout does not depend on the scheme; unqueried
    classes get evidence exactly 1.
    """
    z = rng.standard_normal(queried.size)
    return LikelihoodVector(np.exp(log_evidence(model, true_index, z, queried)))


def run_trial(config: TrialConfig) -> TrialOutcome:
    """Run the classify-until-stop loop for a single trial.

    The stopping rule is checked on the prior before any evidence when
    ``check_prior`` is set (an edge prior can terminate immediately), then
    after every update.  On stop, the decision is the posterior argmax
    with lowest-index tie-break; reaching ``max_sequences`` without a stop
    censors the trial.
    """
    rng = trial_stream(config.seed, config.trial_index)
    posterior = config.prior
    trajectory = [posterior]
    state = CriterionState()
    stopped_at: int | None = None

    if config.check_prior:
        stop, state = should_stop(config.rule, state, posterior)
        if stop:
            stopped_at = 0

    if stopped_at is None:
        for s in range(1, config.max_sequences + 1):
            queried = resolve_queried(config.scheme, posterior.probs)
            evidence = sample_evidence(config.model, queried, config.true_index, rng)
            posterior = oplus(posterior, evidence)
            trajectory.append(posterior)
            stop, state = should_stop(config.rule, state, posterior)
            if stop:
                stopped_at = s
                break

    if stopped_at is None:
        return TrialOutcome(None, None, None, tuple(trajectory))
    decision = posterior.argmax
    return TrialOutcome(stopped_at, decision, decision == config.true_index,
                        tuple(trajectory))
