"""One benchmark workload in a fresh process: set up, time, check, report.

``bench/run.py`` starts this script with ``src`` on ``PYTHONPATH`` and
``RBC_STOPLAB_THREADS`` unset, so the harness runs its default single
worker.  The script prints one JSON object as its last line of output.

Modes: ``setup`` stops after set-up and reports its time, as measured
and scaled by the reference kernel run just after it; ``timed`` runs
operations with tracing off; ``traced`` alternates operations with the
layer spans of ``tracer.py`` installed and operations without them.

Every operation of a run uses the same inputs, all derived from
``--seed``, so every repeat must write byte-identical CSVs; the output
checks below hold for any random-number layout and run after the timed
region.

The speed of a shared CPU moves by half or more in phases of tens of
seconds, longer than a run.  So fixed reference kernels (``Gauge``) run
between the timed steps, and the run's times are also reported scaled by
the kernels' median slowdown over the run: a run of the same work reads
about the same whatever the phase.
"""

import time

SETUP_START = time.perf_counter()  # set-up time covers the package import

import argparse  # noqa: E402
import contextlib  # noqa: E402
import functools  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from dataclasses import replace  # noqa: E402

import numpy as np  # noqa: E402

import rbc_stoplab  # noqa: E402
from rbc_stoplab import cli, criteria, engine, montecarlo  # noqa: E402

TAU_LIST = "0.65,0.69,0.72,0.76,0.79,0.83,0.86,0.9"
POINTWISE = tuple(f for f in criteria.FAMILIES if f != "M5")
CELLS = {"T2": 98, "T3": 126, "T4": 112}
INTERP_S, VECTOR_S = 0.002, 0.008  # nominal times of the Gauge kernels
# Shares of the interpreted slowdown (see Gauge) in the scale of the
# workload's steps and set-up, and in that of run_trial calls.
STEP_INTERPRETED, TRIAL_INTERPRETED = 0.3, 0.5
GAUGE_BLOCK = 4  # Gauge samples after each operation, so few-step operations get enough

# Steps of a second or less give a run many repeats to take the median of;
# "tiny" is for the smoke test.
SIZES = {
    "full": {"table_trials": 5000, "sim_trials": 5000, "sweep_trials": 5000,
             "scalar_trials": 400, "boundary_resolution": 50, "probe_trials": 600,
             "thread_trials": 500},
    "tiny": {"table_trials": 200, "sim_trials": 300, "sweep_trials": 300,
             "scalar_trials": 10, "boundary_resolution": 24, "probe_trials": 10,
             "thread_trials": 100},
}


class Gauge:
    """Times two fixed reference kernels between the steps to gauge the
    CPU's speed for interpreted and for vectorised code.

    On a shared CPU the two slow down by different amounts, and in phases
    of different kinds, so a time is scaled by a mix of the two slowdowns.
    The interpreted kernel is a float loop and small numpy calls, like
    ``run_trial``; the vectorised kernel is numpy passes over 3.2 MB into
    buffers allocated here, so its time does not depend on what the
    workload has allocated.  The mixes (``STEP_INTERPRETED``,
    ``TRIAL_INTERPRETED``) are a compromise between those that gave the
    steadiest times in each of four sets of ten runs per workload on a
    shared 2-vCPU Xeon, whose phases moved the raw times by up to 45%;
    the best mix differed from set to set.
    """

    def __init__(self) -> None:
        self.interp: list[float] = []
        self.vector: list[float] = []
        self.values = [i * 0.001 for i in range(5_000)]
        self.small = np.ones(10)
        self.array = np.linspace(0.0, 1.0, 400_000)
        self.out = self.array.copy()

    def sample(self) -> float:
        t0 = time.perf_counter()
        total = 0.0
        for _ in range(4):
            for v in self.values:
                total += v * v if v > 0.5 else -v
        x = self.small
        for _ in range(500):
            x = np.maximum(x * 0.5, 0.1)
            total += float(x.sum())
        t1 = time.perf_counter()
        for _ in range(2):
            np.exp(self.array, out=self.out)
            total += float(np.cumsum(self.out, out=self.out)[-1])
        self.interp.append(t1 - t0)
        self.vector.append(time.perf_counter() - t1)
        return total

    def slowdowns(self) -> tuple[float, float]:
        """Median kernel times over their nominal times."""
        return (statistics.median(self.interp) / INTERP_S,
                statistics.median(self.vector) / VECTOR_S)

    def scale(self, interpreted: float) -> float:
        """The factor that scales times to the nominal speed, from the two
        slowdowns mixed in the given shares."""
        slow_interp, slow_vector = self.slowdowns()
        return 1.0 / (interpreted * slow_interp + (1.0 - interpreted) * slow_vector)


class Report:
    """Operations attempted and the checks their outputs failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def unit(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def csv_digests(dirs, root: str) -> dict[str, str]:
    """SHA-256 of every CSV in ``dirs``, keyed by its path under ``root``."""
    out = {}
    for d in dirs:
        for name in sorted(os.listdir(d)):
            if name.endswith(".csv"):
                path = os.path.join(d, name)
                with open(path, "rb") as fh:
                    out[os.path.relpath(path, root)] = hashlib.sha256(fh.read()).hexdigest()
    return out


def write_config(path: str, *, prior, tau: float, model, scheme: str, trials: int,
                 max_sequences: int, seed: int, out_dir: str) -> str:
    probs = list(prior.probs)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"n = {len(probs)}\n"
                 f"prior = {','.join(repr(float(p)) for p in probs)}\n"
                 f"true_index = 0\ntau = {tau!r}\n"
                 f"mu_pos = {model.mu_pos!r}\nc_pos = {model.c_pos!r}\n"
                 f"mu_neg = {model.mu_neg!r}\nc_neg = {model.c_neg!r}\n"
                 f"scheme = {scheme}\ntrials = {trials}\n"
                 f"max_sequences = {max_sequences}\nseed = {seed}\n"
                 f"out_dir = {out_dir}\n")
    return path


def check_matrices(rep: Report, out_dir: str) -> None:
    _, _, p_stop = montecarlo.read_matrix_csv(os.path.join(out_dir, "p_stop.csv"))
    _, _, p_true = montecarlo.read_matrix_csv(
        os.path.join(out_dir, "p_true_given_stop.csv"))
    rep.unit(bool(np.all(np.diff(p_stop, axis=1) >= 0)
                  and np.all((p_stop >= 0) & (p_stop <= 1))),
             f"{out_dir}: p_stop not nondecreasing within [0, 1]")
    rep.unit(bool(np.all((p_true >= 0) & (p_true <= 1))),
             f"{out_dir}: p_true_given_stop outside [0, 1]")


def cli_step(argv: list[str]):
    """A step running one CLI command.  ``cli.main`` is looked up when the
    step runs, so a tracer installed after the step was built wraps it."""
    return lambda: cli.main(argv)


def thread_invariance(rep: Report, argv_for, work: str) -> None:
    """The same small run under 1 and 2 workers writes identical CSVs."""
    digests = []
    for threads in ("1", "2"):
        out = os.path.join(work, f"threads{threads}")
        os.environ["RBC_STOPLAB_THREADS"] = threads
        try:
            cli.main(argv_for(out))
        finally:
            del os.environ["RBC_STOPLAB_THREADS"]
        digests.append(csv_digests([out], out))
    rep.unit(digests[0] == digests[1], "CSV digests differ between 1 and 2 workers")


class Probe:
    """Trials of one experiment config, to run one ``run_trial`` call each.

    ``rows`` are the methods whose stops count toward the needed-state
    share.
    """

    def __init__(self, cfg, trials, rows=None) -> None:
        self.cfg = cfg
        self.rows = range(len(cfg.methods)) if rows is None else rows
        rules = [criteria.calibrate(m, cfg.tau, cfg.n) for m in cfg.methods]
        self.keys = [(row, t) for row in range(len(rules)) for t in trials]
        self.configs = [
            engine.TrialConfig(prior=cfg.prior, true_index=cfg.true_index,
                               rule=rules[row], model=cfg.model, scheme=cfg.scheme,
                               max_sequences=cfg.max_sequences, seed=cfg.master_seed,
                               trial_index=t, check_prior=cfg.check_prior)
            for row, t in self.keys]

    def check(self, rep: Report, outcomes) -> tuple[int, int]:
        """``run_experiment`` and ``run_trial`` agree on each trial's first
        stop.  Returns the states needed before every method has stopped
        (a censored trial needs them all) and the states a full run holds."""
        cfg = self.cfg
        result = montecarlo.run_experiment(cfg)
        for (row, t), outcome in zip(self.keys, outcomes):
            first = int(result.first_stop[row, t])
            ok = (outcome.stopped_at == (None if first < 0 else first)
                  and bool(outcome.correct) == bool(result.stop_correct[row, t]))
            rep.unit(ok, f"{cfg.methods[row]} trial {t}: run_trial stop "
                         f"{outcome.stopped_at}, run_experiment stop {first}")
        first = result.first_stop[list(self.rows)]
        latest = np.where(first < 0, cfg.max_sequences, first).max(axis=0)
        return int(latest.sum()), latest.size * cfg.max_sequences


class Workload:
    """Inputs built in set-up, one timed operation, and its output checks.

    An operation is a list of named steps (``steps``), each timed on its
    own.  Subclasses set ``out_dirs``, ``trials_per_op`` and ``probes`` in
    ``setup``.  ``probe_steps`` run every probe trial once more, after the
    operation and untraced, for the ``run_trial`` latencies.
    """

    trial_steps: tuple[str, ...] | None = None  # steps that run trials; None: all

    def __init__(self, seed: int, size: dict, work: str) -> None:
        self.seed, self.size, self.work = seed, size, work
        self.outcomes: dict[tuple[int, int], object] = {}
        self.latencies: dict[tuple[int, int], list[float]] = {}
        self.cells_within_tol = 0
        self.needed_state_frac = 0.0

    def path(self, name: str) -> str:
        return os.path.join(self.work, name)

    def all_trials(self) -> list[tuple[int, int]]:
        return [(p, k) for p, probe in enumerate(self.probes)
                for k in range(len(probe.configs))]

    def run_trials(self, order) -> None:
        """Run the given (probe, trial) pairs, one timed call each."""
        run_trial, clock = engine.run_trial, time.perf_counter
        outcomes, latencies = self.outcomes, self.latencies
        for key in order:
            tc = self.probes[key[0]].configs[key[1]]
            start = clock()
            outcomes[key] = run_trial(tc)
            latencies.setdefault(key, []).append(clock() - start)

    def probe_steps(self):
        """Probe trials in chunks of about 0.1 s."""
        trials = self.all_trials()
        return [("probe", functools.partial(self.run_trials, trials[i:i + 500]))
                for i in range(0, len(trials), 500)]

    def units(self) -> dict[object, object]:
        """Per-operation outputs that every repeat must reproduce."""
        units: dict[object, object] = {"csv": csv_digests(self.out_dirs, self.work)}
        units.update((key, (o.stopped_at, o.decision)) for key, o in self.outcomes.items())
        return units

    def check_outputs(self, rep: Report) -> None:
        for d in self.out_dirs:
            check_matrices(rep, d)

    def check_after(self, rep: Report) -> None:
        needed = total = 0
        for p, probe in enumerate(self.probes):
            n, d = probe.check(rep, [self.outcomes[p, k] for k in range(len(probe.configs))])
            needed, total = needed + n, total + d
        self.needed_state_frac = needed / total
        thread_invariance(rep, self.thread_argv, self.work)


class Tables(Workload):
    """The paper's reproduction path: ``table T2``, ``T3`` and ``T4``."""


    def setup(self) -> None:
        self.trials = self.size["table_trials"]
        self.dirs = {t: self.path(f"table_{t}") for t in montecarlo.TABLE_IDS}
        self.out_dirs = list(self.dirs.values())
        self.trials_per_op = self.trials * len(self.dirs)
        self.probes = []
        for t in montecarlo.TABLE_IDS:
            cfg = montecarlo.table_config(t, n_trials=self.trials, master_seed=self.seed)
            # run_trial takes a fixed prior, so T4's random priors are not probed
            fixed = not isinstance(cfg.prior, montecarlo.RandomRemainder)
            sample = random.Random(self.seed).sample(
                range(self.trials), self.size["probe_trials"] // 2) if fixed else []
            self.probes.append(Probe(cfg, sample))

    def steps(self):
        self.codes = {}

        def table(t: str) -> None:
            self.codes[t] = cli.main(["table", t, "--trials", str(self.trials),
                                      "--seed", str(self.seed), "--out-dir", self.dirs[t]])
        return [(t, functools.partial(table, t)) for t in self.dirs]

    def units(self) -> dict[object, object]:
        units = super().units()
        units["codes"] = self.codes
        return units

    def check_outputs(self, rep: Report) -> None:
        super().check_outputs(rep)
        for t, d in self.dirs.items():
            with open(os.path.join(d, f"comparison_{t}.csv"), encoding="utf-8") as fh:
                verdicts = [line.rstrip("\n").rsplit(",", 1)[1] for line in fh][1:]
            rep.unit(len(verdicts) == CELLS[t],
                     f"{t}: {len(verdicts)} comparison cells, expected {CELLS[t]}")
            passing = verdicts.count("true")
            rep.unit(self.codes[t] == (0 if passing == len(verdicts) else 1),
                     f"{t}: exit code {self.codes[t]} with {passing} passing cells")
            self.cells_within_tol += passing

    def thread_argv(self, out: str) -> list[str]:
        return ["table", "T4", "--trials", str(self.size["thread_trials"]),
                "--seed", str(self.seed), "--out-dir", out]


class ExperimentWorkload(Workload):
    """A CLI run on an n=10 config with the T4 model and the fixed T3 prior."""

    scheme = "broadcast"
    max_sequences = 100
    trials_key = "sim_trials"

    def config(self, name: str, trials: int, out_dir: str) -> str:
        t4 = montecarlo.table_config("T4")
        return write_config(self.path(name), prior=montecarlo.table_config("T3").prior,
                            tau=t4.tau, model=t4.model, scheme=self.scheme,
                            trials=trials, max_sequences=self.max_sequences,
                            seed=self.seed, out_dir=out_dir)

    def setup(self) -> None:
        self.trials_per_op = self.size[self.trials_key]
        self.out = self.path("out")
        self.out_dirs = [self.out]
        self.cfg_path = self.config("run.cfg", self.trials_per_op, self.out)
        self.cfg, _ = cli.build_experiment_config(cli.parse_config_file(self.cfg_path))
        self.probes = [self.probe()]

    def sample(self) -> list[int]:
        return random.Random(self.seed).sample(range(self.trials_per_op),
                                               self.size["probe_trials"])

    def probe(self) -> Probe:
        return Probe(self.cfg, self.sample())

    def steps(self):
        argv = self.argv(self.cfg_path)
        return [(argv[0], cli_step(argv))]

    def thread_argv(self, out: str) -> list[str]:
        return self.argv(self.config(os.path.basename(out) + ".cfg",
                                     self.size["thread_trials"], out))


class SimulateLong(ExperimentWorkload):
    """``simulate`` with all seven rules over a 100-sequence horizon."""


    def argv(self, cfg_path: str) -> list[str]:
        return ["simulate", cfg_path]


class SweepTopN(ExperimentWorkload):
    """``sweep`` over eight anchors with top-3 querying: one simulation,
    read by every rule at every anchor."""

    scheme = "topN:3"
    max_sequences = 40
    trials_key = "sweep_trials"

    def argv(self, cfg_path: str) -> list[str]:
        return ["sweep", cfg_path, "--tau-list", TAU_LIST]

    def probe(self) -> Probe:
        # Stop regions are nested in tau, so the largest anchor needs the
        # most states; a sweep leaves M5 out.
        cfg = replace(self.cfg, tau=max(float(t) for t in TAU_LIST.split(",")))
        return Probe(cfg, self.sample(),
                     rows=[i for i, m in enumerate(cfg.methods) if m != "M5"])

    def check_outputs(self, rep: Report) -> None:
        rows: dict[str, list[float]] = {}
        with open(os.path.join(self.out, "sweep.csv"), encoding="utf-8") as fh:
            next(fh)
            for line in fh:
                method, _tau, mean_sequences, _acc = line.split(",")
                rows.setdefault(method, []).append(float(mean_sequences))
        for method, values in rows.items():
            rep.unit(len(values) == len(TAU_LIST.split(","))
                     and all(a <= b for a, b in zip(values, values[1:])),
                     f"sweep {method}: mean_sequences not nondecreasing in tau")


class ScalarGeometry(Workload):
    """Single trials of every rule under both query schemes, boundary
    tracing on the three-class simplex, and the analytic bounds.  The
    timed operation itself supplies the ``run_trial`` latencies."""

    max_sequences = 30
    tau = 0.8
    trial_chunk = 100  # trials per step: 1400 calls, a step of about 0.3 s
    trial_steps = ("run_trial",)

    def setup(self) -> None:
        t2 = montecarlo.table_config("T2")
        n_trials = self.size["scalar_trials"]
        self.probes = [
            Probe(montecarlo.ExperimentConfig(
                n=3, prior=t2.prior, tau=self.tau, methods=criteria.FAMILIES,
                model=t2.model, scheme=scheme, n_trials=n_trials,
                max_sequences=self.max_sequences, master_seed=self.seed), range(n_trials))
            for scheme in (engine.Broadcast(), engine.TopN(2))]
        self.trials_per_op = sum(len(p.configs) for p in self.probes)
        # Trial-major order, so every chunk mixes the rules and schemes alike;
        # Probe keys run rule-major over the same trial list.
        order = sorted(self.all_trials(), key=lambda pk: (pk[1] % n_trials, pk))
        size = self.trial_chunk * self.trials_per_op // n_trials
        self.chunks = [order[i:i + size] for i in range(0, len(order), size)]
        self.boundary_dir = self.path("boundary")
        self.bounds_dir = self.path("bounds")
        self.out_dirs = [self.boundary_dir, self.bounds_dir]
        self.bounds_cfg = self.write_cfg("bounds.cfg", "broadcast", self.bounds_dir)

    def write_cfg(self, name: str, scheme: str, out_dir: str) -> str:
        t2 = montecarlo.table_config("T2")
        return write_config(self.path(name), prior=t2.prior, tau=self.tau, model=t2.model,
                            scheme=scheme, trials=self.size["thread_trials"],
                            max_sequences=self.max_sequences, seed=self.seed,
                            out_dir=out_dir)

    def steps(self):
        steps = [(f"run_trial.{i}", functools.partial(self.run_trials, chunk))
                 for i, chunk in enumerate(self.chunks)]
        steps += [(f"boundary.{family}", cli_step(
            ["boundary", family, "--tau", str(self.tau), "--resolution",
             str(self.size["boundary_resolution"]), "--out-dir", self.boundary_dir]))
            for family in POINTWISE]
        steps.append(("bounds", cli_step(["bounds", self.bounds_cfg, "--s-range", "1:20"])))
        return steps

    def probe_steps(self):
        return []

    def check_outputs(self, rep: Report) -> None:
        for family in POINTWISE:
            rule = criteria.calibrate(family, self.tau, 3)
            target = 1.0 - rule.threshold if family == "MP" else rule.threshold
            path = os.path.join(self.boundary_dir, f"boundary_{family}.csv")
            with open(path, encoding="utf-8") as fh:
                points = [[float(v) for v in line.split(",")] for line in list(fh)[1:]]
            worst = max((abs(criteria.rule_statistic(
                rule, rbc_stoplab.SimplexPoint.from_probs(p)) - target) for p in points),
                default=math.inf)
            rep.unit(worst <= 1e-9,
                     f"boundary {family}: a point misses its threshold by {worst:.3g}")
        with open(os.path.join(self.bounds_dir, "bounds.csv"), encoding="utf-8") as fh:
            flags = {line.rstrip("\n").rsplit(",", 1)[1] for line in list(fh)[1:]}
        rep.unit(flags == {"true"}, "bounds: Prop5Report.ok does not hold")

    def thread_argv(self, out: str) -> list[str]:
        return ["simulate", self.write_cfg(os.path.basename(out) + ".cfg", "topN:2", out)]


WORKLOADS = {
    "tables": Tables,
    "simulate_long": SimulateLong,
    "sweep_topn": SweepTopN,
    "scalar_geometry": ScalarGeometry,
}


def measure(wl: Workload, seconds: float, rep: Report, gauge: Gauge,
            tracer) -> dict[str, dict[str, list[float]]]:
    """Run operations for about ``seconds``; returns each step's times as
    measured, for untraced (``plain``) and traced operations.  ``gauge``
    samples its kernel before each step and probe step and
    ``GAUGE_BLOCK`` times after the operation.

    With a tracer, operations alternate between traced and untraced, so
    both kinds see the same load on the machine.  Repeats must match the
    first operation's outputs; the content checks run once, on the first
    operation's outputs.
    """
    times: dict[str, dict[str, list[float]]] = {"plain": {}, "traced": {}}
    first = None
    ops = 0
    start = time.perf_counter()
    while True:
        steps = wl.steps()
        traced = tracer is not None and ops % 2 == 0
        kind = times["traced" if traced else "plain"]
        if traced:
            tracer.install()
        try:
            for name, step in steps:
                gauge.sample()
                t0 = time.perf_counter()
                step()
                kind.setdefault(name, []).append(time.perf_counter() - t0)
        finally:
            if traced:
                tracer.restore()
        for _ in range(GAUGE_BLOCK):
            gauge.sample()
        for _, step in wl.probe_steps():
            step()
            gauge.sample()
        ops += 1
        units = wl.units()
        if first is None:
            first = units
            rep.attempted += len(units)
            wl.check_outputs(rep)
        else:
            for key, value in units.items():
                rep.unit(value == first[key], f"operation {ops}: {key} differs "
                                              "from the first operation's output")
        elapsed = time.perf_counter() - start
        if elapsed * (ops + 1) / ops > seconds and (tracer is None or ops >= 2):
            return times


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--size", choices=SIZES, default="full")
    parser.add_argument("--mode", choices=("setup", "timed", "traced"), required=True)
    parser.add_argument("--work", required=True)
    args = parser.parse_args(argv)

    os.makedirs(args.work, exist_ok=True)
    wl = WORKLOADS[args.workload](args.seed, SIZES[args.size], args.work)
    wl.setup()
    setup_s = time.perf_counter() - SETUP_START
    setup_gauge = Gauge()
    for _ in range(GAUGE_BLOCK):
        setup_gauge.sample()
    out = {"setup_s": setup_s * setup_gauge.scale(STEP_INTERPRETED), "raw_setup_s": setup_s,
           "setup_slowdowns": setup_gauge.slowdowns(),
           "package": rbc_stoplab.__file__,
           "numpy": np.__version__, "python": sys.version.split()[0],
           "threads_env": os.environ.get("RBC_STOPLAB_THREADS", "unset"),
           "blas_env": {k: os.environ.get(k, "unset") for k in
                        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}}
    if args.mode != "setup":
        tracer = None
        if args.mode == "traced":
            from tracer import Tracer
            tracer = Tracer()
        rep = Report()
        gauge = Gauge()
        with contextlib.redirect_stdout(io.StringIO()):
            times = measure(wl, args.seconds, rep, gauge, tracer)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            digests = csv_digests(wl.out_dirs, args.work)
            wl.check_after(rep)
        scale = gauge.scale(STEP_INTERPRETED)
        latencies = [statistics.median(v) for v in wl.latencies.values()]
        p50, p99 = np.percentile(latencies, [50, 99]) * gauge.scale(TRIAL_INTERPRETED)
        plain = {k: [t * scale for t in v] for k, v in times["plain"].items()}
        out.update({
            "step_times": plain,
            "raw_step_times": times["plain"],
            "slowdowns": gauge.slowdowns(),
            "raw_trial_p50_us": float(np.percentile(latencies, 50)) * 1e6,
            "raw_trial_p99_us": float(np.percentile(latencies, 99)) * 1e6,
            "trial_steps": [k for k in plain if wl.trial_steps is None
                            or k.split(".")[0] in wl.trial_steps],
            "trials_per_op": wl.trials_per_op,
            "peak_rss_mb": peak_rss_mb,
            "trial_p50_us": p50 * 1e6, "trial_p99_us": p99 * 1e6,
            "trial_samples": len(latencies),
            "attempted": rep.attempted, "failures": rep.failures,
            "needed_state_frac": wl.needed_state_frac,
            "cells_within_tol": wl.cells_within_tol,
            "csv_sha256": digests,
        })
        if tracer is not None:
            traced = times["traced"]
            out["traced_step_times"] = {k: [t * scale for t in v] for k, v in traced.items()}
            out["layers"] = tracer.metrics(len(next(iter(traced.values()))),
                                           sum(map(sum, traced.values())))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
