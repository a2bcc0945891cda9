"""In-process A/B of ``run_trial`` between this checkout and another.

    python tools/ab_run_trial.py OTHER_SRC [--rounds 8] [--seed 7]

``OTHER_SRC`` is the ``src`` directory of another checkout, for example
of the parent commit unpacked with ``git archive``.  This checkout's
package and a copy of the other one, imported as ``rbc_stoplab_other``,
are loaded into one process.  Two config mixes are run:

* ``scalar_geometry``: the benchmark workload's mix, every rule on the T2
  prior and model at tau 0.8 and 30 sequences, under broadcast and top-2
  querying, trials 0 to 399;
* ``probes``: every rule of tables T2 and T3 on 300 sampled trials each.

Both sides must give equal outcomes (stop, decision and path, bit for
bit) on every call, or the script exits 1.  Then each round calls every
config once on each side, alternating which side goes first, and the
script prints the median call time of each side, their ratio (this
checkout over the other) and the rounds each side won.  A shared CPU
moves whole-process benchmark runs by about 10%; calls interleaved in one
process see the same machine, so a few rounds resolve a smaller change.
"""

from __future__ import annotations

import argparse
import importlib.util
import os
import random
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


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
    out = []
    for table in ("T2", "T3"):
        cfg = montecarlo.table_config(table, master_seed=seed)
        trials = random.Random(seed).sample(range(cfg.n_trials), 300)
        out += [engine.TrialConfig(prior=cfg.prior, true_index=cfg.true_index,
                                   rule=calibrate(family, cfg.tau, cfg.n), model=cfg.model,
                                   scheme=cfg.scheme, max_sequences=cfg.max_sequences,
                                   seed=seed, trial_index=t)
                for t in trials for family in cfg.methods]
    return out


def outcome_key(outcome) -> tuple:
    return (outcome.stopped_at, outcome.decision, outcome.correct,
            outcome.log_probs.shape, outcome.log_probs.tobytes())


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
    clock = time.perf_counter
    medians: tuple[list, list] = ([], [])
    for r in range(rounds):
        times: tuple[list, list] = ([], [])
        for k, (a, b) in enumerate(zip(cfgs_a, cfgs_b)):
            for side in ((0, 1) if (r + k) % 2 == 0 else (1, 0)):
                run, cfg = (run_a, a) if side == 0 else (run_b, b)
                start = clock()
                run(cfg)
                times[side].append(clock() - start)
        for side in (0, 1):
            medians[side].append(statistics.median(times[side]))
    this_us, other_us = (1e6 * statistics.median(m) for m in medians)
    won = sum(a < b for a, b in zip(*medians))
    print(f"{mix}: {len(cfgs_a)} calls a round, median call this {this_us:.1f} us, other "
          f"{other_us:.1f} us, ratio x{this_us / other_us:.3f}, this faster in "
          f"{won}/{rounds} rounds, other in {rounds - won}/{rounds}")
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("other_src", metavar="OTHER_SRC")
    parser.add_argument("--rounds", type=int, default=8)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import rbc_stoplab as this

    other = load_other(args.other_src)
    print(f"this: {os.path.dirname(this.__file__)}\nother: {os.path.dirname(other.__file__)}")
    ok = True
    for mix in ("scalar_geometry", "probes"):
        ok &= compare(mix, (this.engine.run_trial, configs(this, mix, args.seed)),
                      (other.engine.run_trial, configs(other, mix, args.seed)), args.rounds)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
