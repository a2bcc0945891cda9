"""In-process A/B of ``run_trial`` between this checkout and another.

    python tools/ab_run_trial.py OTHER_SRC [--rounds 8] [--seed 7] [--harness]

``OTHER_SRC`` is the ``src`` directory of another checkout, for example
of the parent commit unpacked with ``git archive``.  This checkout's
package and a copy of the other one, imported as ``rbc_stoplab_other``,
are loaded into one process.  Three config mixes are run:

* ``scalar_geometry``: the benchmark workload's mix, every rule on the T2
  prior and model at tau 0.8 and 30 sequences, under broadcast and top-2
  querying, trials 0 to 399, trial-major as the workload calls them, so a
  trial's calls after its first read the normals that its thread's stream
  keeps, and those under the scheme of the call before read back its
  path of states;
* ``probes``: every rule of tables T2 and T3 on 300 sampled trials each,
  rule-major as the benchmark's table probes, so no call finds its
  trial's normals or path kept;
* ``sweep_probes``: every rule of the ``sweep_topn`` workload's probe
  config (the T3 prior and T4 model, n = 10, top-3 querying, 40
  sequences, tau 0.9) on 600 sampled trials, rule-major: calls that span
  several chunks and never find their normals or path kept.

The gain on a mix depends on how often its calls come back to the trial
of the call before, so for each mix the script first runs this
checkout's calls once in order, from fresh streams, and prints the share
of calls that find their trial's path kept and the share of updates
(sequences run) that are read back from a kept path instead of made.
Both sides must give equal outcomes (stop, decision and path, bit for
bit) on every call, or the script exits 1.  Then each round calls every
config once on each side, alternating which side goes first.  For the
median call and for the 99th-percentile call of each round, the script
prints each side's median over rounds, their ratio (this checkout over
the other) and the rounds each side won.  A shared CPU
moves whole-process benchmark runs by about 10%; calls interleaved in one
process see the same machine, so a few rounds resolve a smaller change.

``--harness`` runs the batched loop instead, which shares ``read_cells``
and the update with ``run_trial`` but stops slices of many trials by its
own event: ``run_experiment`` on tables T3 and
T4 at 5,000 trials, and the ``sweep_topn`` benchmark workload's sweep (the
T3 prior and T4 model with top-3 querying, 5,000 trials of 40 sequences,
48 rule-and-tau pairs).  Both sides must give equal stop records and sweep
points, or the script exits 1.  Each round runs every job once on each
side, alternating which side goes first, and the script prints each job's
median time per side, their ratio and the rounds each side won.
"""

from __future__ import annotations

import argparse
import functools
import importlib.util
import os
import random
import statistics
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SWEEP_TAUS = [0.65, 0.69, 0.72, 0.76, 0.79, 0.83, 0.86, 0.9]  # bench/workload.py's TAU_LIST


def load_other(src: str):
    """The package under ``src``, imported as ``rbc_stoplab_other``."""
    package = os.path.join(os.path.abspath(src), "rbc_stoplab")
    spec = importlib.util.spec_from_file_location(
        "rbc_stoplab_other", os.path.join(package, "__init__.py"),
        submodule_search_locations=[package])
    if spec is None:
        raise SystemExit(f"no rbc_stoplab package under {src}")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def configs(pkg, mix: str, seed: int) -> list:
    """The ``TrialConfig``s of one mix, built from package ``pkg``."""
    engine, montecarlo = pkg.engine, pkg.montecarlo
    calibrate, families = pkg.criteria.calibrate, pkg.criteria.FAMILIES
    if mix == "scalar_geometry":
        t2 = montecarlo.table_config("T2")
        return [engine.TrialConfig(prior=t2.prior, true_index=t2.true_index,
                                   rule=calibrate(family, 0.8, 3), model=t2.model,
                                   scheme=scheme, max_sequences=30, seed=seed, trial_index=t)
                for scheme in (engine.Broadcast(), engine.TopN(2))
                for t in range(400) for family in families]
    if mix == "probes":
        cfgs = [(montecarlo.table_config(table, master_seed=seed), 300) for table in ("T2", "T3")]
    else:
        t3, t4 = montecarlo.table_config("T3"), montecarlo.table_config("T4")
        cfgs = [(montecarlo.ExperimentConfig(
            n=t3.n, prior=t3.prior, tau=max(SWEEP_TAUS), methods=families, model=t4.model,
            scheme=engine.TopN(3), n_trials=5000, max_sequences=40, master_seed=seed), 600)]
    out = []
    for cfg, count in cfgs:
        trials = random.Random(seed).sample(range(cfg.n_trials), count)
        out += [engine.TrialConfig(prior=cfg.prior, true_index=cfg.true_index,
                                   rule=calibrate(family, cfg.tau, cfg.n), model=cfg.model,
                                   scheme=cfg.scheme, max_sequences=cfg.max_sequences,
                                   seed=seed, trial_index=t)
                for family in cfg.methods for t in trials]
    return out


def outcome_key(outcome) -> tuple:
    return (outcome.stopped_at, outcome.decision, outcome.correct,
            outcome.log_probs.shape, outcome.log_probs.tobytes())


def path_shares(engine, cfgs: list) -> tuple[int, int, int]:
    """Run ``cfgs`` in order in this thread from fresh streams; returns the
    calls that find their trial's path kept, the updates they read back
    from it and the updates of all calls.  A call has found the path when
    its stream keeps the same path list after the call as before it."""
    engine._thread_stream.cache_clear()
    thread, found, replayed, updates = threading.get_ident(), 0, 0, 0
    for cfg in cfgs:
        block = cfg.trial_index // engine.BLOCK
        bits = engine._thread_stream(thread, cfg.seed, block).bit_generator
        path = bits.kept[3]
        # the call appends to a path it finds, so its length is read first
        made = len(path) - 1 if path is not None else 0
        sequences = len(engine.run_trial(cfg).log_probs) - 1
        updates += sequences
        if bits.kept[3] is path:
            found += 1
            replayed += min(made, sequences)
    return found, replayed, updates


def compare(mix: str, this, other, rounds: int) -> bool:
    """Check ``this`` and ``other`` (a run function and its configs each)
    for equal outcomes, then time them in alternating rounds and print the
    summary line; False if an outcome differs."""
    (run_a, cfgs_a), (run_b, cfgs_b) = this, other
    for k, (a, b) in enumerate(zip(cfgs_a, cfgs_b)):
        if outcome_key(run_a(a)) != outcome_key(run_b(b)):
            print(f"{mix}: outcomes differ at config {k} ({a.rule.family}, trial "
                  f"{a.trial_index}, {a.scheme})")
            return False
    times = alternate([(functools.partial(run_a, a), functools.partial(run_b, b))
                       for a, b in zip(cfgs_a, cfgs_b)], rounds)
    # the inclusive method is numpy's default, which gives trial_p99_us
    p99 = functools.partial(statistics.quantiles, n=100, method="inclusive")
    for label, per_round in (("median", statistics.median), ("p99", lambda calls: p99(calls)[98])):
        report(f"{mix}: {len(cfgs_a)} calls a round, {label} call",
               [[per_round(calls) for calls in side] for side in times], 1e6, "us")
    return True


def alternate(jobs: list, rounds: int) -> tuple[list, list]:
    """Each side's times ``[round][job]`` of the ``(this, other)`` callables
    ``jobs``, run once each per round, alternating which side goes first."""
    clock = time.perf_counter
    times: tuple[list, list] = ([], [])
    for r in range(rounds):
        for side in times:
            side.append([])
        for k, pair in enumerate(jobs):
            for side in ((0, 1) if (r + k) % 2 == 0 else (1, 0)):
                start = clock()
                pair[side]()
                times[side][r].append(clock() - start)
    return times


def report(label: str, per_round: list, scale: float, unit: str) -> None:
    """Print the median over rounds of each side's per-round times, their
    ratio (this over other) and the rounds each side won."""
    this, other = (scale * statistics.median(side) for side in per_round)
    rounds = len(per_round[0])
    won = sum(a < b for a, b in zip(*per_round))
    print(f"{label} this {this:.1f} {unit}, other {other:.1f} {unit}, ratio "
          f"x{this / other:.3f}, this faster in {won}/{rounds} rounds, other in "
          f"{rounds - won}/{rounds}")


def harness_jobs(pkg, seed: int) -> dict:
    """The ``--harness`` jobs of package ``pkg``: name to a callable that
    returns what both sides must agree on."""
    montecarlo, engine, criteria = pkg.montecarlo, pkg.engine, pkg.criteria
    t3, t4 = (montecarlo.table_config(t, master_seed=seed) for t in ("T3", "T4"))
    sweep = montecarlo.ExperimentConfig(
        n=t3.n, prior=t3.prior, tau=t4.tau, methods=criteria.FAMILIES, model=t4.model,
        scheme=engine.TopN(3), n_trials=5000, max_sequences=40, master_seed=seed)

    def records(cfg):
        result = montecarlo.run_experiment(cfg)
        return result.first_stop.tobytes(), result.stop_correct.tobytes()

    def points():
        return [(p.method, p.tau, p.mean_sequences, p.mean_accuracy)
                for p in montecarlo.speed_accuracy_sweep(sweep, SWEEP_TAUS)]
    return {"T3": functools.partial(records, t3), "T4": functools.partial(records, t4),
            "sweep_topn": points}


def compare_harness(this, other, seed: int, rounds: int) -> bool:
    """Check the harness jobs of packages ``this`` and ``other`` for equal
    results, then time them in alternating rounds and print one summary
    line per job; False if a result differs."""
    jobs_a, jobs_b = harness_jobs(this, seed), harness_jobs(other, seed)
    for name in jobs_a:
        if jobs_a[name]() != jobs_b[name]():
            print(f"harness {name}: results differ")
            return False
    times = alternate([(jobs_a[name], jobs_b[name]) for name in jobs_a], rounds)
    for k, name in enumerate(jobs_a):
        report(f"harness {name}: median run", [[run[k] for run in side] for side in times],
               1e3, "ms")
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("other_src", metavar="OTHER_SRC")
    parser.add_argument("--rounds", type=int, default=8)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--harness", action="store_true",
                        help="time run_experiment on T3 and T4 and the sweep_topn sweep")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import rbc_stoplab as this

    other = load_other(args.other_src)
    print(f"this: {os.path.dirname(this.__file__)}\nother: {os.path.dirname(other.__file__)}")
    if args.harness:
        return 0 if compare_harness(this, other, args.seed, args.rounds) else 1
    ok = True
    for mix in ("scalar_geometry", "probes", "sweep_probes"):
        cfgs = configs(this, mix, args.seed)
        found, replayed, updates = path_shares(this.engine, cfgs)
        print(f"{mix}: path kept for {found / len(cfgs):.3f} of calls ({found} of {len(cfgs)}), "
              f"{replayed / max(updates, 1):.3f} of updates replayed ({replayed} of {updates})")
        ok &= compare(mix, (this.engine.run_trial, cfgs),
                      (other.engine.run_trial, configs(other, mix, args.seed)), args.rounds)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
