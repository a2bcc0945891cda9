"""Monte-Carlo experiment harness and reference-table comparisons.

The harness simulates many independent classification trials, evaluates
every requested stopping rule on shared (common-random-number) evidence
streams, and aggregates cumulative stop-probability and conditional
accuracy matrices:

* ``p_stop[m, s-1]``  -- fraction of trials stopped by sequence ``s``
  under method ``m``; a stop on the bare prior counts toward the first
  column.
* ``p_true_given_stop[m, s-1]`` -- fraction of those stopped trials whose
  locked-in decision was correct.

Three bundled benchmark scenarios (``T2``, ``T3``, ``T4``) carry
reference matrices; ``reproduce_table`` reruns them and reports per-cell
agreement.  Trials run through ``engine.classify_until_stop``, the same
loop ``run_trial`` runs on a batch of one, in the fewest equal slices of
at most ``SLICE`` trials.  Trial ``t`` reads the cells of its own trial
index in the Philox stream of its block of ``engine.BLOCK`` trials, so
its draws do not depend on ``n_trials``, on its slice or on which other
trials are still running.
"""

from __future__ import annotations

import contextlib
import math
import os
from dataclasses import dataclass, field, replace

import numpy as np

from .criteria import FAMILIES, calibrate
from .engine import (
    BLOCK,
    Broadcast,
    EvidenceModel,
    QueryScheme,
    TrialConfig,
    _log_prior,
    classify_until_stop,
    read_cells,
    trial_stream,
)
from .simplex import SimplexPoint, _normalize_log_weights

__all__ = [
    "TooLarge",
    "RandomRemainder",
    "ExperimentConfig",
    "ExperimentResult",
    "TableCell",
    "TableComparison",
    "TABLE_IDS",
    "TABLE_TOLERANCE",
    "DEFAULT_TABLE_SEED",
    "run_experiment",
    "reproduce_table",
    "table_config",
    "speed_accuracy_sweep",
    "SweepPoint",
    "trajectory_ensemble",
    "EnsembleResult",
    "letters_projection",
    "write_matrix_csv",
    "read_matrix_csv",
    "result_to_csv_dir",
    "result_from_csv_dir",
    "comparison_to_csv",
    "write_csv",
    "format_cell",
]

DEFAULT_TABLE_SEED = 20210814
SLICE = 4 * BLOCK  # most trials that one classify_until_stop call takes


class TooLarge(MemoryError):
    """An array that a run allocates before its first trial does not fit in
    memory; ``fields`` names the config fields that set its size."""

    def __init__(self, fields: tuple[str, ...], what: str, reason: str) -> None:
        super().__init__(f"{what} do not fit in memory ({reason})")
        self.fields = fields


@contextlib.contextmanager
def _held(fields: tuple[str, ...], what: str):
    """Allocations that :class:`TooLarge` reports as ``what``, sized by
    ``fields``."""
    try:
        yield
    except (MemoryError, ValueError) as exc:  # ValueError: a size past the address space
        raise TooLarge(fields, what, str(exc)) from None


@dataclass(frozen=True)
class RandomRemainder:
    """Prior spec: fixed true-class mass, the rest random per trial.

    The non-true classes receive independent uniform [0, 1) raw weights,
    normalized to ``1 - true_mass``, redrawn for every trial: they are
    the first ``n - 1`` uniforms of the trial's row-0 cell in its block
    stream, which no evidence draw reads.
    """

    true_mass: float

    def __post_init__(self) -> None:
        if not 0.0 < self.true_mass < 1.0:
            raise ValueError("true_mass must lie in (0, 1)")


@dataclass(frozen=True)
class ExperimentConfig:
    n: int
    prior: SimplexPoint | RandomRemainder
    tau: float
    methods: tuple[str, ...]
    model: EvidenceModel
    true_index: int = 0
    scheme: QueryScheme = Broadcast()
    n_trials: int = 5000
    max_sequences: int = 100
    master_seed: int = 0
    check_prior: bool = True

    def __post_init__(self) -> None:
        unknown = set(self.methods) - set(FAMILIES)
        if unknown:
            raise ValueError(f"unknown methods: {sorted(unknown)}")
        if not self.methods:
            raise ValueError("at least one method required")
        if self.n_trials < 1:
            raise ValueError("n_trials must be at least 1")
        # M1's calibration checks n and tau without holding a point of n
        # classes, as an entropy rule's would; a trial checks the rest, with
        # the same bound for every rule at its default order
        rule = calibrate("M1", self.tau, self.n)
        with _held(("n",), f"points of {self.n} classes"):
            prior = (self.prior if isinstance(self.prior, SimplexPoint)
                     else SimplexPoint.uniform(self.n))
        TrialConfig(prior=prior, true_index=self.true_index, rule=rule, model=self.model,
                    scheme=self.scheme, max_sequences=self.max_sequences,
                    seed=self.master_seed)


@dataclass
class ExperimentResult:
    """Aggregated matrices plus per-trial stop records.

    ``first_stop`` rows hold, per method, the stop sequence of each trial
    (0 = stopped on the prior, -1 = censored); ``stop_correct`` marks
    whether the locked decision was right.  Both are omitted from CSV
    serialization.
    """

    methods: tuple[str, ...]
    sequences: np.ndarray
    p_stop: np.ndarray
    p_true_given_stop: np.ndarray
    mean_sequences_to_stop: np.ndarray
    overall_accuracy: np.ndarray
    stopped_fraction: np.ndarray
    n_trials: int
    first_stop: np.ndarray | None = field(default=None, repr=False)
    stop_correct: np.ndarray | None = field(default=None, repr=False)

    def method_row(self, method: str) -> int:
        return self.methods.index(method)


def _batch(cfg: ExperimentConfig, lo: int, hi: int) -> tuple[np.ndarray, dict, np.ndarray]:
    """Normalized prior log weights ``(hi - lo, n)``, class-major, the random
    stream of every block they touch and the trial indices, for trials
    ``lo`` to ``hi - 1`` of ``cfg``: the input of :func:`classify_until_stop`.

    A fixed prior is normalized once, as ``run_trial`` normalizes it, and
    tiled; random priors are normalized as one class-major batch.
    """
    trials = np.arange(lo, hi)
    streams = {block: trial_stream(cfg.master_seed, block)
               for block in range(lo // BLOCK, -(-hi // BLOCK))}
    if isinstance(cfg.prior, SimplexPoint):
        logp = np.empty((hi - lo, cfg.n), order="F")
        logp[:] = _log_prior(cfg.prior)
        return logp, streams, trials
    raw = read_cells(streams, trials, 0, cfg.n).reshape(hi - lo, -1)[:, :cfg.n - 1]
    p = np.full((hi - lo, cfg.n), cfg.prior.true_mass, order="F")
    p[:, np.arange(cfg.n) != cfg.true_index] = ((1.0 - cfg.prior.true_mass) * raw
                                                / raw.sum(1)[:, None])
    return _normalize_log_weights(np.log(p)), streams, trials


def _classify(cfg: ExperimentConfig, rules) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each rule's first stop and correctness ``(R, T)`` over every trial of
    ``cfg``, as one :func:`classify_until_stop` call over all of them gives,
    and their :func:`_tally`.

    The trials run in the fewest equal slices of at most ``SLICE``; each
    trial reads its own cells and carries its own state, so slicing moves
    no bit.  Each slice is tallied as it finishes, so only the stop records
    grow with ``n_trials``: 9 bytes per trial and rule.  They and the tally
    are allocated before any trial runs, and raise :class:`TooLarge` if
    they cannot be held.
    """
    with _held(("n_trials",), f"the stop records of {cfg.n_trials} trials"):
        first = np.empty((len(rules), cfg.n_trials), dtype=int)
        correct = np.empty(first.shape, dtype=bool)
    with _held(("max_sequences",), f"the tallies of {cfg.max_sequences} sequences"):
        tally = np.zeros((2, len(rules), cfg.max_sequences + 2), dtype=int)
    for lo, hi in _slices(cfg.n_trials):
        first[:, lo:hi], correct[:, lo:hi], _ = classify_until_stop(cfg, rules,
                                                                    *_batch(cfg, lo, hi))
        tally += _tally(first[:, lo:hi], correct[:, lo:hi], tally.shape[2])
    return first, correct, tally


def _slices(n_trials: int):
    """The fewest equal slices ``(lo, hi)`` of at most ``SLICE`` of
    ``n_trials`` trials."""
    count = -(-n_trials // SLICE)
    edges = [n_trials * k // count for k in range(count + 1)]
    return zip(edges, edges[1:])


def _tally(first: np.ndarray, correct: np.ndarray, width: int) -> np.ndarray:
    """Per rule of the stop records ``(R, T)``, the count of trials censored
    (bin 0) or stopped at sequence ``s`` (bin ``s + 1``), then the same count
    of correct stops: ``(2, R, width)``."""
    rows = len(first)
    bins = (first + 1 + width * np.arange(rows)[:, None]).ravel()
    return np.stack([np.bincount(b, minlength=rows * width)
                     for b in (bins, bins[correct.ravel()])]).reshape(2, rows, width)


def _aggregate(cfg: ExperimentConfig, methods, first: np.ndarray, correct: np.ndarray,
               tally: np.ndarray) -> ExperimentResult:
    """The result matrices from :func:`_classify`'s tally, one row per rule,
    holding its stop records ``first`` and ``correct``."""
    # a stop on the bare prior counts toward the first column
    stopped_by, correct_by = tally[:, :, 1:].cumsum(2)[:, :, 1:]
    stopped = stopped_by[:, -1]
    p_true = np.divide(correct_by, stopped_by, out=np.zeros(stopped_by.shape),
                       where=stopped_by > 0)
    return ExperimentResult(
        methods=tuple(methods),
        sequences=np.arange(1, cfg.max_sequences + 1),
        p_stop=stopped_by / cfg.n_trials,
        p_true_given_stop=p_true,
        mean_sequences_to_stop=np.divide(_stop_sums(cfg, tally), stopped,
                                         out=np.full(len(stopped), math.nan), where=stopped > 0),
        overall_accuracy=p_true[:, -1],
        stopped_fraction=stopped / cfg.n_trials,
        n_trials=cfg.n_trials,
        first_stop=first,
        stop_correct=correct,
    )


def _stop_sums(cfg: ExperimentConfig, tally: np.ndarray) -> np.ndarray:
    """Each rule's sum of its stop sequences over its stopped trials."""
    return tally[0, :, 1:] @ np.arange(cfg.max_sequences + 1)


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Run all trials for all methods and aggregate the matrices.

    Every method reads the same draws of each trial (common random
    numbers), so method comparisons are paired; independent draws per
    method come from separate runs with different ``master_seed``.
    """
    rules = [calibrate(m, cfg.tau, cfg.n) for m in cfg.methods]
    return _aggregate(cfg, cfg.methods, *_classify(cfg, rules))


# ---------------------------------------------------------------------------
# Bundled benchmark tables
# ---------------------------------------------------------------------------

TABLE_IDS = ("T2", "T3", "T4")
TABLE_TOLERANCE = 0.03  # largest |paper - repro| with which a cell still passes

_METHOD_ORDER = ("MP", "M1", "M2", "M3", "M4", "M5", "M1bar")

_T3_PRIOR = [0.13, 0.52, 0.30] + [0.05 / 7] * 7

_REFERENCE_TABLES: dict[str, dict] = {
    "T2": {
        "tau": 0.8,
        "prior": [0.42, 0.55, 0.03],
        "model": EvidenceModel(0.6, 0.5, 0.0, 0.5),
        "columns": list(range(1, 8)),
        "p_stop": {
            "MP":    [0.00, 0.06, 0.22, 0.43, 0.59, 0.67, 0.77],
            "M1":    [0.00, 0.06, 0.22, 0.43, 0.59, 0.67, 0.77],
            "M2":    [0.00, 0.08, 0.27, 0.47, 0.62, 0.70, 0.79],
            "M3":    [0.00, 0.34, 0.56, 0.70, 0.80, 0.85, 0.90],
            "M4":    [1.00, 1.00, 1.00, 1.00, 1.00, 1.00, 1.00],
            "M5":    [0.00, 0.00, 0.37, 0.41, 0.46, 0.55, 0.66],
            "M1bar": [0.00, 0.16, 0.37, 0.56, 0.71, 0.77, 0.84],
        },
        "p_true_given_stop": {
            "MP":    [0.00, 0.67, 0.86, 0.96, 0.97, 0.98, 0.99],
            "M1":    [0.00, 0.67, 0.86, 0.96, 0.97, 0.98, 0.99],
            "M2":    [0.00, 0.67, 0.85, 0.95, 0.95, 0.97, 0.98],
            "M3":    [0.00, 0.20, 0.48, 0.63, 0.74, 0.80, 0.87],
            "M4":    [0.00, 0.55, 0.72, 0.82, 0.87, 0.90, 0.94],
            "M5":    [0.00, 0.00, 0.58, 0.76, 0.87, 0.91, 0.95],
            "M1bar": [0.00, 0.64, 0.84, 0.93, 0.95, 0.97, 0.98],
        },
    },
    "T3": {
        "tau": 0.75,
        "prior": _T3_PRIOR,
        "model": EvidenceModel(0.8, 0.5, -0.3, 0.5),
        "columns": list(range(1, 10)),
        "p_stop": {
            "MP":    [0.00, 0.08, 0.26, 0.42, 0.61, 0.70, 0.78, 0.82, 0.88],
            "M1":    [0.00, 0.03, 0.18, 0.35, 0.54, 0.66, 0.76, 0.81, 0.86],
            "M2":    [0.00, 0.05, 0.23, 0.41, 0.61, 0.72, 0.81, 0.85, 0.88],
            "M3":    [1.00, 1.00, 1.00, 1.00, 1.00, 1.00, 1.00, 1.00, 1.00],
            "M4":    [1.00, 1.00, 1.00, 1.00, 1.00, 1.00, 1.00, 1.00, 1.00],
            "M5":    [0.00, 0.00, 0.35, 0.40, 0.47, 0.55, 0.62, 0.69, 0.76],
            "M1bar": [0.00, 0.48, 0.67, 0.79, 0.88, 0.92, 0.94, 0.95, 0.97],
        },
        "p_true_given_stop": {
            "MP":    [0.00, 0.36, 0.78, 0.89, 0.94, 0.96, 0.97, 0.98, 0.98],
            "M1":    [0.00, 0.29, 0.83, 0.90, 0.94, 0.97, 0.97, 0.98, 0.98],
            "M2":    [0.00, 0.32, 0.80, 0.89, 0.94, 0.96, 0.97, 0.98, 0.98],
            "M3":    [0.00, 0.43, 0.63, 0.74, 0.84, 0.87, 0.91, 0.93, 0.94],
            "M4":    [0.00, 0.43, 0.63, 0.74, 0.84, 0.87, 0.91, 0.93, 0.94],
            "M5":    [0.00, 0.00, 0.46, 0.65, 0.82, 0.88, 0.92, 0.95, 0.96],
            "M1bar": [0.00, 0.38, 0.70, 0.80, 0.87, 0.90, 0.93, 0.95, 0.96],
        },
    },
    "T4": {
        "tau": 0.85,
        "prior": RandomRemainder(0.1),
        "n": 10,
        "model": EvidenceModel(0.8, 0.5, -0.3, 0.5),
        "columns": list(range(10, 18)),
        "p_stop": {
            "MP":    [0.09, 0.18, 0.31, 0.45, 0.60, 0.70, 0.77, 0.86],
            "M1":    [0.05, 0.11, 0.21, 0.33, 0.48, 0.60, 0.70, 0.81],
            "M2":    [0.05, 0.11, 0.21, 0.33, 0.48, 0.61, 0.70, 0.81],
            "M3":    [0.05, 0.12, 0.22, 0.34, 0.49, 0.61, 0.71, 0.81],
            "M4":    [0.05, 0.13, 0.23, 0.35, 0.49, 0.62, 0.72, 0.82],
            "M5":    [0.00, 0.00, 0.00, 0.00, 0.00, 0.01, 0.03, 0.08],
            "M1bar": [0.10, 0.20, 0.33, 0.47, 0.61, 0.72, 0.79, 0.88],
        },
        "p_true_given_stop": {
            "MP":    [0.95, 0.98, 0.98, 0.99, 0.99, 0.99, 1.00, 1.00],
            "M1":    [1.00, 0.99, 0.99, 1.00, 1.00, 1.00, 1.00, 1.00],
            "M2":    [1.00, 0.99, 0.99, 1.00, 1.00, 1.00, 1.00, 1.00],
            "M3":    [1.00, 0.99, 0.99, 1.00, 1.00, 1.00, 1.00, 1.00],
            "M4":    [0.98, 0.99, 0.99, 1.00, 1.00, 1.00, 1.00, 1.00],
            "M5":    [0.00, 0.00, 0.00, 0.00, 0.00, 1.00, 1.00, 1.00],
            "M1bar": [0.94, 0.98, 0.98, 0.99, 0.99, 0.99, 0.99, 1.00],
        },
    },
}


def table_config(table_id: str, n_trials: int = 5000,
                 master_seed: int = DEFAULT_TABLE_SEED) -> ExperimentConfig:
    """The bundled configuration behind one of the benchmark tables."""
    if table_id not in TABLE_IDS:
        raise ValueError(f"unknown table {table_id!r}; expected one of {TABLE_IDS}")
    ref = _REFERENCE_TABLES[table_id]
    if isinstance(ref["prior"], RandomRemainder):
        prior = ref["prior"]
        n = ref["n"]
    else:
        prior = SimplexPoint.from_probs(ref["prior"])
        n = prior.n
    return ExperimentConfig(
        n=n,
        prior=prior,
        tau=ref["tau"],
        methods=_METHOD_ORDER,
        model=ref["model"],
        n_trials=n_trials,
        max_sequences=max(ref["columns"]),
        master_seed=master_seed,
    )


@dataclass(frozen=True)
class TableCell:
    table: str
    method: str
    sequence: int
    metric: str
    paper: float
    repro: float

    @property
    def abs_delta(self) -> float:
        return abs(self.paper - self.repro)


@dataclass
class TableComparison:
    table: str
    tolerance: float
    cells: list[TableCell]
    result: ExperimentResult

    @property
    def all_pass(self) -> bool:
        return all(c.abs_delta <= self.tolerance for c in self.cells)

    def failures(self) -> list[TableCell]:
        return [c for c in self.cells if c.abs_delta > self.tolerance]


def reproduce_table(table_id: str, n_trials: int = 5000,
                    master_seed: int = DEFAULT_TABLE_SEED) -> TableComparison:
    """Rerun a benchmark table and compare every cell to its reference value."""
    cfg = table_config(table_id, n_trials=n_trials, master_seed=master_seed)
    result = run_experiment(cfg)
    ref = _REFERENCE_TABLES[table_id]
    cells: list[TableCell] = []
    for method in _METHOD_ORDER:
        row = result.method_row(method)
        for metric, matrix in (("p_stop", result.p_stop),
                               ("p_true_given_stop", result.p_true_given_stop)):
            for j, col in enumerate(ref["columns"]):
                cells.append(TableCell(
                    table=table_id,
                    method=method,
                    sequence=col,
                    metric=metric,
                    paper=float(ref[metric][method][j]),
                    repro=float(matrix[row, col - 1]),
                ))
    return TableComparison(table_id, TABLE_TOLERANCE, cells, result)


# ---------------------------------------------------------------------------
# Sweeps, ensembles, and the typing projection
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepPoint:
    method: str
    tau: float
    mean_sequences: float
    mean_accuracy: float


def speed_accuracy_sweep(cfg: ExperimentConfig, tau_list,
                         include_m5: bool = False) -> list[SweepPoint]:
    """Speed-accuracy operating points over a grid of confidence anchors.

    One evidence simulation is shared by every ``tau`` and method.
    Censored trials count ``max_sequences`` toward the mean stop time.
    The consecutive-KL rule is excluded by default (it does not depend on
    ``tau`` and dominates the time axis).  Each anchor must lie in
    :func:`calibrate`'s domain ``(1/n, 1]``.
    """
    taus = [float(t) for t in tau_list]
    methods = tuple(m for m in cfg.methods if include_m5 or m != "M5")

    pairs = [(method, tau) for method in methods for tau in taus]
    rules = [calibrate(method, tau, cfg.n) for method, tau in pairs]
    first, correct, tally = _classify(cfg, rules)
    accuracy = _aggregate(cfg, [m for m, _ in pairs], first, correct, tally).overall_accuracy
    mean_sequences = ((_stop_sums(cfg, tally) + cfg.max_sequences * tally[0, :, 0])
                      / cfg.n_trials)
    return [SweepPoint(method, tau, float(seq), float(acc))
            for (method, tau), seq, acc in zip(pairs, mean_sequences, accuracy)]


@dataclass
class EnsembleResult:
    paths: np.ndarray  # (n_paths, max_sequences + 1, n) probabilities
    mean: np.ndarray   # (max_sequences + 1, n)


def trajectory_ensemble(cfg: ExperimentConfig, n_paths: int = 100) -> EnsembleResult:
    """Probability paths of ``n_paths`` unstopped trials from ``cfg.prior``
    plus their mean path; trial ``t`` reads the cells of trial ``t``, and
    only those, so its path is the one ``run_experiment`` and ``run_trial``
    see.  The paths are allocated before any path runs, and raise
    :class:`TooLarge` if they cannot be held; they run in the harness's
    slices, so one slice's states are held besides them."""
    sub = replace(cfg, n_trials=n_paths)
    # row-major paths, so that the mean adds them path by path
    with _held(("n_trials", "max_sequences"), f"{n_paths} paths of {cfg.max_sequences + 1} states"):
        paths = np.empty((n_paths, cfg.max_sequences + 1, cfg.n))
    for lo, hi in _slices(n_paths):
        out = paths[lo:hi]
        np.stack(classify_until_stop(sub, [], *_batch(sub, lo, hi), keep_states=True)[2], axis=1,
                 out=out)
        np.exp(out, out=out)
    return EnsembleResult(paths=paths, mean=paths.mean(axis=0))


def letters_projection(acc: float, e_seq: float, total_letters: int = 100,
                       literal: bool = False) -> float:
    """Expected sequences to finish a copy-typing task of given length.

    Each round attempts every remaining letter at ``e_seq`` sequences per
    attempt; a fraction ``acc`` of the attempts sticks (rounded up), the
    rest repeat next round.  The default counts a round's attempts before
    removing its successes; ``literal`` instead adds the post-decrement
    remainder each round, which yields a much smaller total.
    """
    if not 0.0 < acc <= 1.0:
        raise ValueError(f"acc must lie in (0, 1], got {acc}")
    if not 0.0 < e_seq < math.inf:
        raise ValueError(f"e_seq must be positive and finite, got {e_seq}")
    if total_letters < 1:
        raise ValueError(f"total_letters must be at least 1, got {total_letters}")
    remaining = int(total_letters)
    total = 0.0
    while remaining > 0:
        done = math.ceil(remaining * acc)
        if literal:
            remaining -= done
            total += remaining * e_seq
        else:
            total += remaining * e_seq
            remaining -= done
    if not math.isfinite(total):
        raise ValueError(f"e_seq = {e_seq} gives a total beyond the float range")
    return total


# ---------------------------------------------------------------------------
# CSV serialization (17 significant digits keeps round-trips lossless)
# ---------------------------------------------------------------------------


def format_cell(x) -> str:
    """One CSV cell or manifest value: text as given, a boolean as
    ``true``/``false``, an integer in full, any other number at 17
    significant digits."""
    if isinstance(x, str):
        return x
    if isinstance(x, (bool, np.bool_)):
        return str(bool(x)).lower()
    return str(x) if isinstance(x, (int, np.integer)) else format(float(x), ".17g")


def write_csv(path, header, rows) -> None:
    """Write a header line of column names, then one line per row of cells."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(map(format_cell, row)) + "\n")


def write_matrix_csv(path, methods, sequences, matrix) -> None:
    write_csv(path, ["method"] + [f"s{int(s)}" for s in sequences],
              ([m, *row] for m, row in zip(methods, matrix)))


def read_matrix_csv(path) -> tuple[tuple[str, ...], np.ndarray, np.ndarray]:
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
        sequences = np.array([int(h[1:]) for h in header[1:]])
        methods, rows = [], []
        for line in fh:
            parts = line.rstrip("\n").split(",")
            methods.append(parts[0])
            rows.append([float(v) for v in parts[1:]])
    return tuple(methods), sequences, np.array(rows)


def result_to_csv_dir(result: ExperimentResult, out_dir) -> None:
    os.makedirs(out_dir, exist_ok=True)
    for name in ("p_stop", "p_true_given_stop"):
        write_matrix_csv(os.path.join(out_dir, f"{name}.csv"),
                         result.methods, result.sequences, getattr(result, name))
    write_csv(os.path.join(out_dir, "summary.csv"),
              ["method", "mean_sequences_to_stop", "overall_accuracy", "stopped_fraction",
               "n_trials"],
              ([*cells, result.n_trials] for cells in zip(
                  result.methods, result.mean_sequences_to_stop, result.overall_accuracy,
                  result.stopped_fraction)))


def result_from_csv_dir(out_dir) -> ExperimentResult:
    methods, sequences, p_stop = read_matrix_csv(os.path.join(out_dir, "p_stop.csv"))
    methods2, _, p_true = read_matrix_csv(
        os.path.join(out_dir, "p_true_given_stop.csv"))
    if methods != methods2:
        raise ValueError("matrix files list different methods")
    mean_stop, overall, stopped, n_trials = [], [], [], 0
    with open(os.path.join(out_dir, "summary.csv"), "r", encoding="utf-8") as fh:
        fh.readline()
        for line in fh:
            parts = line.rstrip("\n").split(",")
            mean_stop.append(float(parts[1]))
            overall.append(float(parts[2]))
            stopped.append(float(parts[3]))
            n_trials = int(parts[4])
    return ExperimentResult(
        methods=methods,
        sequences=sequences,
        p_stop=p_stop,
        p_true_given_stop=p_true,
        mean_sequences_to_stop=np.array(mean_stop),
        overall_accuracy=np.array(overall),
        stopped_fraction=np.array(stopped),
        n_trials=n_trials,
    )


def comparison_to_csv(comp: TableComparison, path) -> None:
    write_csv(path, ["table", "method", "sequence", "metric", "paper", "repro", "abs_delta",
                     "pass"],
              ([c.table, c.method, c.sequence, c.metric, c.paper, c.repro, c.abs_delta,
                c.abs_delta <= comp.tolerance] for c in comp.cells))
