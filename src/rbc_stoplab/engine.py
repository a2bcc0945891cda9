"""The recursive classification loop: evidence, update, stop, decide.

A trial starts from a prior, repeatedly queries a set of classes, fuses
the returned evidence into the posterior, and checks a stopping rule.
Evidence comes from two lognormal channels: queried true class draws from
the positive channel, queried non-true classes draw independently from
the negative channel, and unqueried classes receive exactly neutral
evidence.

Reproducibility contract: trials come in blocks of ``BLOCK`` and every
block reads one Philox stream, ``trial_stream(master_seed, block)``,
keyed by ``(master_seed, block)``.  The stream is a fixed grid of cells
read by position: cell ``(row, trial)`` holds ``CHUNK`` sequences of
``w`` uniforms (``n`` rounded up to a multiple of 4, so every cell starts
on a Philox counter boundary), cells run row-major over the block's
trials, and one uniform takes one 64-bit output.  Row 0 holds the
uniforms of a random prior, row ``c + 1`` evidence chunk ``c``, whose
uniforms become normals by Box-Muller; each sequence uses ``n`` of them,
one per class, whatever the query scheme.  A trial's draws therefore
depend only on ``(master_seed, trial_index, row)``, and results are
bit-identical regardless of execution order, of how trials are batched,
and of how many rows a trial reads.
"""

from __future__ import annotations

import functools
import threading
from dataclasses import dataclass, field

import numpy as np

# should_stop and oplus are unused here, but bench/tracer.py instruments them
from .criteria import StoppingRule, should_stop, stop_statistic, stop_test  # noqa: F401
from .simplex import SimplexPoint, _normalize_log_weights, oplus  # noqa: F401

__all__ = [
    "EvidenceModel",
    "Broadcast",
    "TopN",
    "TrialConfig",
    "TrialOutcome",
    "BLOCK",
    "CHUNK",
    "RNG_LAYOUT",
    "trial_stream",
    "read_cells",
    "draw_normals",
    "trial_normals",
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
        for key in ("c_pos", "c_neg"):
            if getattr(self, key) < 0:
                raise ValueError(f"{key} must be nonnegative, got {getattr(self, key)}")
        self.__dict__["_channel_vectors"] = {}

    def _channels(self, true_index: int, n: int) -> tuple[np.ndarray, np.ndarray]:
        """Per-class log-sd and log-mean vectors ``(n,)``, the true class on
        the positive channel, made once per class and width.  They are kept
        on the model itself, not keyed by it: equal models may differ in a
        zero's sign, which the evidence would carry."""
        cache = self._channel_vectors
        if (true_index, n) not in cache:
            sd, mu = np.full(n, self.c_neg), np.full(n, self.mu_neg)
            sd[true_index], mu[true_index] = self.c_pos, self.mu_pos
            sd.flags.writeable = mu.flags.writeable = False
            cache[true_index, n] = sd, mu
        return cache[true_index, n]


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

BLOCK = 1024  # trials per random stream
CHUNK = 8  # sequences per cell of a stream
RNG_LAYOUT = f"philox-block{BLOCK}-chunk{CHUNK}"


@dataclass(frozen=True, slots=True)
class TrialConfig:
    """One trial of the classify-until-stop loop (:func:`run_trial`).

    The trial's path of log states depends on ``seed``, ``trial_index``,
    ``prior``, ``true_index``, ``model`` (bit for bit: equal models may
    differ in a zero's sign) and ``scheme`` only.  ``rule``,
    ``max_sequences`` and ``check_prior`` decide where on the path the
    trial stops, not the path itself, so calls that differ only in those
    read one path, which a thread's back-to-back calls on a trial reuse:
    its stream's record keeps the path of its last trial under those six
    fields, the prior as its normalized log weights, which equal priors
    share (:func:`_log_prior`), and the model by identity (:func:`_thread_stream`).
    """

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
        if self.max_sequences > _FLOAT_MAX:
            raise ValueError(f"max_sequences = {self.max_sequences} lies beyond the float range")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must lie in [0, 2**64), got {self.seed}")
        if self.trial_index < 0:
            raise ValueError(f"trial_index must be nonnegative, got {self.trial_index}")
        if isinstance(self.scheme, TopN) and self.scheme.n_queries > self.prior.n:
            raise ValueError(f"scheme queries {self.scheme.n_queries} classes "
                             f"but only {self.prior.n} exist")
        # Channel parameters of magnitude at most p move a log weight by at
        # most 15 p a sequence: a Box-Muller radius reads a uniform 1 - u of
        # at least 2**-53, so |z| <= sqrt(-2 ln 2**-53) < 8.58 < 14.  The log
        # state then spreads by at most 30 p a sequence; the statistics
        # scale it by up to the Renyi order (2 by default).
        limit = _FLOAT_MAX / (30.0 * max(2.0, self.rule.alpha or 0.0) * (self.max_sequences + 1))
        for key in ("mu_pos", "c_pos", "mu_neg", "c_neg"):
            if abs(getattr(self.model, key)) > limit:
                raise ValueError(f"{key} must be at most {limit:.3g} in magnitude for max_sequences"
                                 f" = {self.max_sequences}, so that the log evidence stays "
                                 f"finite; got {getattr(self.model, key)}")


@dataclass(frozen=True, slots=True)
class TrialOutcome:
    """Result of one trial.

    ``stopped_at`` is the sequence index at which the rule fired (0 means
    the prior already satisfied it; ``None`` means censored at
    ``max_sequences``).  ``log_probs`` is the trial's path as one read-only
    ``(S + 1, n)`` array of log states: the prior plus one row per executed
    sequence.  ``trajectory`` wraps its rows as points each time it is
    read, so a held outcome keeps one array, not one object per state.
    Outcomes are equal when their stop records and paths are, bit for bit.
    """

    stopped_at: int | None
    decision: int | None
    correct: bool | None
    log_probs: np.ndarray = field(repr=False)

    @property
    def trajectory(self) -> tuple[SimplexPoint, ...]:
        return tuple(map(SimplexPoint._normalized, self.log_probs))

    def _key(self) -> tuple:
        return (self.stopped_at, self.decision, self.correct, self.log_probs.shape,
                self.log_probs.tobytes())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TrialOutcome):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())


@functools.cache
def _keyed_philox() -> type:
    """The ``Philox`` type of a block stream: keyed as given, and holding
    the state through which :func:`read_cells` positions it.

    ``Philox(key=...)`` would first gather OS entropy for a seed sequence
    it does not use, which costs more than the rest of the construction.
    The held state is the fresh one, with lists for arrays, which the state
    setter reads twice as fast; it is written, never read back, so its
    buffer stays empty.  The type is made on first use: importing
    ``numpy.random`` takes about 9 ms, which commands that draw nothing
    need not pay.
    """
    from numpy.random.bit_generator import ISeedSequence

    class KeySeed(ISeedSequence):
        def __init__(self, key: np.ndarray) -> None:
            self.key = key

        def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
            return self.key

    class KeyedPhilox(np.random.Philox):
        def __init__(self, key: np.ndarray) -> None:
            super().__init__(KeySeed(key))
            state = self.state
            self.held = {**state, "state": {k: v.tolist() for k, v in state["state"].items()},
                         "buffer": state["buffer"].tolist()}

    return KeyedPhilox


def trial_stream(master_seed: int, block: int) -> np.random.Generator:
    """The random stream of trials ``block * BLOCK`` to ``block * BLOCK +
    BLOCK - 1``, keyed by ``(master_seed, block)`` and read by position
    through :func:`read_cells`."""
    return np.random.Generator(_keyed_philox()(np.array([master_seed, block], np.uint64)))


@functools.lru_cache(maxsize=16)
def _thread_stream(thread: int, master_seed: int, block: int) -> tuple[np.random.Generator, list]:
    """The stream of block ``block``, and with it its held state, that
    :func:`run_trial` reuses across its calls in thread ``thread``, and the
    stream's record ``[path key, log states]`` of the last trial it ran.
    :func:`read_cells` positions a stream before every read, so a used
    stream reads as a fresh one.  Threads do not share a stream: another
    thread's positioning between one's positioning and its read would move
    it."""
    return trial_stream(master_seed, block), [None, None]


@functools.lru_cache(maxsize=64)
def _log_prior(prior: SimplexPoint) -> np.ndarray:
    """The prior's log weights as :func:`classify_until_stop` takes them:
    ``(1, n)``, normalized once more as a batch of one, and read-only."""
    logp = _normalize_log_weights(prior.log_probs[None])
    logp.flags.writeable = False
    return logp


def read_cells(streams: dict, trials: np.ndarray, row: int, n: int) -> np.ndarray:
    """Uniforms ``(T, CHUNK, w)`` of cell row ``row`` for the sorted trial
    indices ``trials``, ``w`` being ``n`` rounded up to a multiple of 4;
    ``streams`` maps a block to its stream.

    Each run of consecutive listed trials within one block is generated
    straight into the result by one positioned read.  A read is
    positioned by writing the counter of the state that its stream's bit
    generator holds (:func:`trial_stream`), not by reading the state back.
    """
    w = -(-n // 4) * 4
    out = np.empty((len(trials), CHUNK, w))
    edges = [0, len(trials)] if len(trials) < 2 else [0, *(np.flatnonzero(
        (np.diff(trials) != 1) | np.diff(trials // BLOCK)) + 1).tolist(), len(trials)]
    block = None
    for start, stop in zip(edges, edges[1:]):
        lo = trials.item(start)
        if lo // BLOCK != block:
            block = lo // BLOCK
            stream = streams[block]
            bits = stream.bit_generator
            state = bits.held
        # a counter step gives 4 outputs, and with the held state's buffer
        # empty the next output comes from the next step
        state["state"]["counter"][0] = (row * BLOCK + lo % BLOCK) * CHUNK * w // 4
        bits.state = state
        stream.random(out=out[start:stop])
    return out


def _polar(streams: dict, trials: np.ndarray, chunk: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Box-Muller radii and angles ``(CHUNK / 2, n, T)``, class-major, of
    chunk ``chunk`` of ``trials``: a cell's first ``CHUNK / 2`` sequences give
    radii (of ``1 - u``, never 0), its last ones angles, from ``n`` columns,
    each made in place of its uniforms."""
    u = read_cells(streams, trials, chunk + 1, n)[..., :n].transpose(1, 2, 0).copy()
    radius, angle = u[:CHUNK // 2], u[CHUNK // 2:]
    np.log1p(np.negative(radius, out=radius), out=radius)
    radius *= -2.0
    np.sqrt(radius, out=radius)
    angle *= 2.0 * np.pi
    return radius, angle


def _half_normals(polar: tuple, half: int, live: np.ndarray | None = None) -> np.ndarray:
    """The normals ``(CHUNK / 2, n, T)`` of half ``half`` of a chunk from its
    :func:`_polar` output: cosines for the first half, sines for the second;
    ``live`` (None for all) picks the trial columns to compute.  The sines
    take the angles' place, as no later half reads them."""
    radius, angle = polar if live is None else (part.take(live, 2) for part in polar)
    z = np.sin(angle, out=angle) if half else np.cos(angle)
    z *= radius
    return z


def draw_normals(streams: dict, trials: np.ndarray, chunk: int, n: int) -> np.ndarray:
    """Standard normals ``(T, CHUNK, n)`` of evidence chunk ``chunk`` (sequences
    ``CHUNK * chunk + 1`` on) for the sorted trial indices ``trials``."""
    polar = _polar(streams, trials, chunk, n)
    return np.concatenate([_half_normals(polar, half) for half in (0, 1)]).transpose(2, 0, 1)


def trial_normals(master_seed: int, trial_index: int, n: int, sequences: int) -> np.ndarray:
    """The standard normals ``(sequences, n)`` that trial ``trial_index``
    reads, one row per sequence, as the harness and ``run_trial`` read them."""
    block = trial_index // BLOCK
    streams, trials = {block: trial_stream(master_seed, block)}, np.array([trial_index])
    chunks = [draw_normals(streams, trials, chunk, n)[0] for chunk in range(-(-sequences // CHUNK))]
    return np.concatenate([np.empty((0, n)), *chunks])[:sequences]


def _ranked(probs: np.ndarray) -> np.ndarray:
    """The classes along the last axis of ``probs`` in top-N querying's order:
    one stable descending sort, so ties go to the lowest index."""
    return (-probs).argsort(-1, kind="stable")


def resolve_queried(scheme: QueryScheme, probs: np.ndarray) -> np.ndarray:
    """Boolean mask of queried classes along the last axis of ``probs``;
    top-N ties go to the lowest index."""
    queried = np.ones(probs.shape, dtype=bool)
    if isinstance(scheme, TopN):
        np.put_along_axis(queried, _ranked(probs)[..., scheme.n_queries:], False, -1)
    return queried


def _evidence(model: EvidenceModel, true_index: int, z: np.ndarray,
              classes: np.ndarray | None = None) -> np.ndarray:
    """Log evidence made in place of the standard normals ``z``, of every
    class along its last axis, or with ``classes`` of the class each cell
    holds.  The true class reads the positive channel, the others the
    negative one: one scale and one shift per cell."""
    if classes is None:
        sd, mu = model._channels(true_index, z.shape[-1])
    else:
        pos = classes == true_index
        sd, mu = np.where(pos, model.c_pos, model.c_neg), np.where(pos, model.mu_pos, model.mu_neg)
    z *= sd
    z += mu
    return z


def log_evidence(model: EvidenceModel, true_index: int, z: np.ndarray,
                 queried: np.ndarray | None = None) -> np.ndarray:
    """Log evidence from standard normals ``z`` of shape ``(..., n)``.

    A queried true class reads the positive channel, other queried
    classes the negative one, and unqueried classes get exactly 0;
    ``queried`` None queries every class.
    """
    log_e = _evidence(model, true_index, np.array(z, dtype=float))
    if queried is not None:
        log_e[~queried] = 0.0
    return log_e


def classify_until_stop(cfg, rules, log_priors: np.ndarray, streams: dict, trials: np.ndarray,
                        states: list | None = None) -> tuple[np.ndarray, np.ndarray, list | None]:
    """The classify-until-stop loop over a batch of trials.

    ``cfg`` (a :class:`TrialConfig` or an experiment config) supplies the
    model, true class, scheme, ``max_sequences`` and ``check_prior``;
    ``log_priors`` holds each trial's normalized prior log weights
    ``(T, n)``, class-major, which the loop reads but never writes (see
    ``montecarlo._batch`` and :func:`run_trial`); ``trials`` holds the
    sorted trial indices and ``streams`` the stream of each of their
    blocks.  Each chunk's Box-Muller radii and angles are made in place of
    its uniforms.  A top-N slice of several trials takes each step's
    cosines (first half) or sines (second half) for the cells it queries
    only, and scatters their log evidence into zeros.  Otherwise a chunk
    gives the cosines of its first half for the whole batch, the sines of
    its second half for the trials still in it, and each half's log
    evidence at once, in place of its normals; a step's unqueried cells are
    zeroed as the step reads them.  For a batch of one, per-step calls
    would cost more than the trig they save.

    Each sequence updates every trial in the log domain and tests every
    rule on the new states (and on the priors with ``check_prior``).
    Each distinct statistic (``StoppingRule.statistic_key``) is computed
    once per sequence and compared into each rule's row of one hit mask
    (``criteria.stop_test``); M5 compares with the state of its previous
    evaluation.  A trial leaves the batch once every rule has stopped it.

    The batch is held class-major: the states and each sequence's evidence
    are ``(T, n)`` arrays in Fortran order, so every reduction over the
    classes runs as ``n`` vector passes over the trials.

    Returns ``first`` and ``correct`` ``(R, T)``: each rule's first stop,
    -1 if it never stopped, and whether the argmax decision there (lowest
    index on ties) is the true class, False if it never stopped.

    ``states``, if given, holds the batch's log states so far, one
    ``(T_s, n)`` array per state for the trials still in the batch,
    starting with ``log_priors``.  The loop reads the states past the
    first back instead of updating, runs the stop tests on them as on new
    ones, resumes the update at the list's end, mid-half if need be, and
    appends the states it makes; it returns the list up to the last state
    it tested, which with no rules holds every trial.  (:func:`run_trial`
    passes the path it keeps for its trial.)
    """
    t_count, n = log_priors.shape
    first = np.empty((len(rules), t_count), int)
    first.fill(-1)
    correct = np.zeros(first.shape, bool)
    rows = np.arange(t_count)
    pending = ~correct
    hits = np.empty(pending.shape, bool)
    keys = [rule.statistic_key for rule in rules]
    # each distinct statistic's rule, and the dict its values are written to
    # each sequence: a comprehension would make a function call of each fill
    plan, statistics = list(dict(zip(keys, rules)).items()), {}
    tests = [(key, *stop_test(rule)) for key, rule in zip(keys, rules)]
    logp = log_priors
    # live: the batch's trials' columns of the evidence held (of the polar
    # on the per-step path), None while every column is
    previous = live = polar = None
    some_stopped = False
    # resume: the first state made, not read back from states; made: the
    # half-chunk whose evidence the loop holds
    resume, made = len(states) if states else 1, -1
    top = cfg.scheme.n_queries if isinstance(cfg.scheme, TopN) else 0
    per_step = t_count > 1 and top
    for s in range(cfg.max_sequences + 1):
        if s >= resume:
            h, step = divmod(s - 1, CHUNK // 2)
            if h != made:
                # spent evidence, and at a new chunk the spent polar, are
                # freed before the next is made
                made, evidence = h, None
                chunk, half = divmod(h, 2)
                if not half:
                    polar = None
                if polar is None:
                    polar, live = _polar(streams, trials, chunk, n), None
                if not per_step:
                    # a chunk's second half only for the trials still in the
                    # batch; evidence (CHUNK / 2, T, n)
                    z, live = _half_normals(polar, half, live), None
                    evidence = _evidence(cfg.model, cfg.true_index, z.transpose(0, 2, 1))
            if per_step:
                # the queried cells (N, T): gathered from the chunk's polar, scattered into zeros
                queried, at = _ranked(np.exp(logp)).T[:top], np.arange(len(logp))
                cells = queried * polar[0].shape[2] + (at if live is None else live)
                z = (np.sin if half else np.cos)(polar[1][step].take(cells))
                z *= polar[0][step].take(cells)
                log_e = np.zeros((n, len(logp)))
                log_e.put(queried * len(at) + at, _evidence(cfg.model, cfg.true_index, z, queried))
                log_e = log_e.T
            else:
                log_e = evidence[step] if live is None else evidence[step].T.take(live, 1).T
                if top:
                    # only this step reads its cells, so they take its zeros in place
                    log_e[np.arange(len(logp))[:, None], _ranked(np.exp(logp))[:, top:]] = 0.0
            logp = _normalize_log_weights(logp + log_e)
            if states is not None:
                states.append(logp)
        elif s:
            logp = states[s]
        if not rules or not (s or cfg.check_prior):
            continue
        for key, rule in plan:
            statistics[key] = stop_statistic(rule, logp, previous)
        # the tests first: zip then stops without asking the mask for a row
        # past its end, which numpy answers with a costly IndexError
        for (key, compare, cutoff), hit in zip(tests, hits):
            compare(statistics[key], cutoff, out=hit)
        # pending is all true until some rule stops
        if some_stopped:
            hits &= pending
        previous = logp
        # count_nonzero and take cost a batch of one least
        if not np.count_nonzero(hits):
            continue
        some_stopped = True
        if t_count == 1:
            # one trial leaves the batch only whole, so its stops need no lookup
            first[hits] = s
            correct[hits] = logp.argmax() == cfg.true_index
            pending ^= hits
            if np.count_nonzero(pending):
                continue
            break
        # one argmax per stopped trial; a flat nonzero outruns a two-axis one
        stopped = hits.any(0).nonzero()[0]
        j, r_new = np.divmod(hits.T.take(stopped, 0).ravel().nonzero()[0], len(rules))
        t_new = rows[stopped[j]]
        first[r_new, t_new] = s
        correct[r_new, t_new] = (logp.take(stopped, 0).argmax(-1) == cfg.true_index)[j]
        pending ^= hits
        keep = pending.any(0)
        kept = np.count_nonzero(keep)
        if not kept:
            break
        if kept < len(keep):
            rows, trials, pending, hits = rows[keep], trials[keep], pending[:, keep], hits[:, :kept]
            live = keep.nonzero()[0] if live is None else live[keep]
            # indexing would return the kept states row-major
            logp = previous = logp.T.compress(keep, 1).T
    return first, correct, None if states is None else states[:s + 1]


def run_trial(config: TrialConfig) -> TrialOutcome:
    """Run the classify-until-stop loop for a single trial.

    The stopping rule is checked on the prior before any evidence when
    ``check_prior`` is set (an edge prior can terminate immediately), then
    after every update.  On stop, the decision is the posterior argmax
    with lowest-index tie-break; reaching ``max_sequences`` without a stop
    censors the trial.  The outcome's path holds the loop's own states, so
    they equal the harness's states for the same trial bit for bit; the
    decision is read off the path's row at the stop, the state on which the
    loop tested it.

    Each thread reuses its stream of a ``(seed, block)`` across calls,
    with a record of the path of log states of the last trial it ran, so
    back-to-back calls on one trial that share its path (see
    :class:`TrialConfig`) update it once and replay it after; each prior
    is normalized for the loop once; both are kept in small bounded
    caches.  The path is keyed by the trial, the prior's normalized log
    weights and the model, held by identity (equal models may differ in a
    zero's sign), and the true class and scheme; another key replaces it.
    """
    block, logp = config.trial_index // BLOCK, _log_prior(config.prior)
    stream, record = _thread_stream(threading.get_ident(), config.seed, block)
    key = record[0]
    if (key is None or key[0] != config.trial_index or key[1] is not logp
            or key[2] is not config.model or key[3] != config.true_index
            or key[4] != config.scheme):
        record[:] = (config.trial_index, logp, config.model, config.true_index,
                     config.scheme), [logp]
    first, _, states = classify_until_stop(config, (config.rule,), logp, {block: stream},
                                           np.array([config.trial_index]), record[1])
    path = np.concatenate(states)
    path.flags.writeable = False
    stopped_at = int(first[0, 0])
    if stopped_at < 0:
        return TrialOutcome(None, None, None, path)
    choice = int(path[stopped_at].argmax())
    return TrialOutcome(stopped_at, choice, choice == config.true_index, path)
