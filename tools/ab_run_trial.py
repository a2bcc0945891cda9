"""In-process A/B of this checkout against another, job by job.

    python tools/ab_run_trial.py OTHER_SRC [--rounds 8] [--seed 7]

``OTHER_SRC`` is the ``src`` directory of another checkout, for example
of the parent commit unpacked with ``git archive``, imported as
``rbc_stoplab_other`` next to this checkout's package.  The jobs take
their sizes, taus and horizons from ``bench/workload.py``:

* ``run_trial`` mixes, one call per config: ``scalar_geometry`` is that
  workload's mix in its order (per T2 trial, broadcast then top-2, each
  over the seven rules, so later calls find the path kept for the
  trial); ``probes`` (tables T2 and T3) and ``sweep_probes`` (the
  ``sweep_topn`` config at its largest tau) run the workloads' sampled
  trials rule-major, so no call finds its path kept;
* harness jobs, one run each: ``run_experiment`` on T3 and T4 and the
  ``sweep_topn`` and ``simulate_long`` workloads' runs;
* ``reads`` jobs: each harness job's ``read_cells`` calls on this side,
  replayed on both, which resolve a change to the draws alone.

Every job takes the same three steps.  Check: both sides' results agree
bit for bit, or the script names the job and exits 1.  Count: each side
runs the job once more from fresh streams with every counter installed:
chunks of normals (``_polar`` calls), Box-Muller trig evaluations,
``read_cells`` calls with their positioned reads and uniforms, the
``run_trial`` calls and updates that find their trial's path kept, and
the ``run_trial`` calls that reach the loop (``classify_until_stop``)
rather than being answered from the kept path.
Time: job by job, each round runs every call of the job once on each
side, alternating which side goes first, and the script prints each
side's median over rounds of the round's median call (or run) and, for
the mixes, of its 99th-percentile call, their ratio (this over other)
and the rounds this side won.  Calls interleaved in one process see the same machine, so a
few rounds resolve less than the 10% that whole-process runs move by.
"""

from __future__ import annotations

import argparse
import collections
import functools
import importlib.util
import os
import random
import sys
import time
from dataclasses import replace

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HARNESS = ("T3", "T4", "sweep_topn", "simulate_long")


def load(name: str, path: str):
    """The module at ``path``, or the package in directory ``path``,
    imported as ``name``."""
    package = os.path.isdir(path)
    init = os.path.join(path, "__init__.py") if package else path
    if not os.path.isfile(init):
        raise SystemExit(f"no module at {path}")
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[path] if package else None)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def build_jobs(pkg, workload, seed: int) -> dict:
    """Each job's calls in package ``pkg``: name to a list of callables that
    return what both sides must agree on."""
    engine, montecarlo, families = pkg.engine, pkg.montecarlo, pkg.criteria.FAMILIES
    size, taus = workload.SIZES["full"], [float(t) for t in workload.TAU_LIST.split(",")]
    t2, t3, t4 = (montecarlo.table_config(t, n_trials=size["table_trials"], master_seed=seed)
                  for t in ("T2", "T3", "T4"))
    geometry = workload.ScalarGeometry
    scalar = [replace(t2, tau=geometry.tau, max_sequences=geometry.max_sequences, scheme=scheme)
              for scheme in (engine.Broadcast(), engine.TopN(2))]
    # the experiment workloads' n = 10 config: T3's prior and T4's model
    sweep, simulate_long = (replace(
        t3, tau=t4.tau, methods=families, model=t4.model, n_trials=size[kind.trials_key],
        max_sequences=kind.max_sequences, scheme=scheme) for kind, scheme in (
        (workload.SweepTopN, engine.TopN(3)), (workload.SimulateLong, engine.Broadcast())))

    def calls(cfg, pairs) -> list:
        rules = {family: pkg.criteria.calibrate(family, cfg.tau, cfg.n) for family in families}
        return [functools.partial(engine.run_trial, engine.TrialConfig(
            prior=cfg.prior, true_index=cfg.true_index, rule=rules[family], model=cfg.model,
            scheme=cfg.scheme, max_sequences=cfg.max_sequences, seed=seed, trial_index=t))
            for family, t in pairs]

    def sample(cfg, count: int) -> list:
        # rule-major over the workload's sample of trials, as its Probe runs them
        trials = random.Random(seed).sample(range(cfg.n_trials), count)
        return calls(cfg, [(family, t) for family in families for t in trials])

    def records(cfg) -> tuple:
        result = montecarlo.run_experiment(cfg)
        return result.first_stop, result.stop_correct

    def points(cfg) -> list:
        return [(p.method, p.tau, p.mean_sequences, p.mean_accuracy)
                for p in montecarlo.speed_accuracy_sweep(cfg, taus)]
    return {
        "scalar_geometry": [call for t in range(size["scalar_trials"]) for cfg in scalar
                            for call in calls(cfg, [(family, t) for family in families])],
        "probes": sample(t2, size["probe_trials"] // 2) + sample(t3, size["probe_trials"] // 2),
        "sweep_probes": sample(replace(sweep, tau=max(taus)), size["probe_trials"]),
        "T3": [functools.partial(records, t3)], "T4": [functools.partial(records, t4)],
        "sweep_topn": [functools.partial(points, sweep)],
        "simulate_long": [functools.partial(records, simulate_long)],
    }


def replay(pkg, seed: int, reads: list) -> list:
    """One call that makes the recorded ``read_cells`` calls ``reads`` in
    package ``pkg``, on streams of ``seed`` made once."""
    blocks = {block for call in reads for block in call[0]}
    streams = {block: pkg.engine.trial_stream(seed, block) for block in blocks}
    return [lambda: [pkg.engine.read_cells(streams, *call[1:]) for call in reads]]


def digest(result):
    """``result`` with arrays as their bytes and floats as their bits, for
    comparing bit for bit."""
    if isinstance(result, np.ndarray):
        return result.dtype.str, result.shape, result.tobytes()
    if isinstance(result, (list, tuple)):
        return [digest(part) for part in result]
    if isinstance(result, float):
        return result.hex()
    if hasattr(result, "log_probs"):  # a TrialOutcome
        return digest([result.stopped_at, result.decision, result.correct, result.log_probs])
    return result


class CountedStream:
    """A stream that counts its reads and the uniforms they generate."""

    def __init__(self, stream, counts: collections.Counter) -> None:
        self.stream, self.bit_generator, self.counts = stream, stream.bit_generator, counts

    def random(self, size=None, out=None):
        result = self.stream.random(size, out=out)
        self.counts["positioned reads"] += 1
        self.counts["uniforms"] += result.size
        return result


class CountedNumpy:
    """numpy as a package's ``engine`` reads it, counting the elements of the
    cosines and sines it takes."""

    def __init__(self, counts: collections.Counter) -> None:
        self.counts = counts

    def __getattr__(self, name: str):
        function = getattr(np, name)
        if name not in ("cos", "sin"):
            return function

        def counted(x, *args, **kwargs):
            self.counts["cosines" if name == "cos" else "sines"] += np.size(x)
            return function(x, *args, **kwargs)
        return counted


def count(pkg, calls: list) -> tuple[collections.Counter, list]:
    """Run ``calls`` once in order in package ``pkg``, from fresh streams,
    with every counter installed; returns the counts and the
    ``read_cells`` calls made (their blocks, trials, row and ``n``).  A
    ``run_trial`` call has found its trial's path kept when its stream's
    record holds the same path list after the call as before it."""
    engine, montecarlo = pkg.engine, pkg.montecarlo
    counts, reads, opened = collections.Counter(), [], []
    saved = [(module, name, getattr(module, name)) for module, name in (
        (engine, "np"), (engine, "_polar"), (engine, "read_cells"),
        (montecarlo, "read_cells"), (engine, "_thread_stream"), (engine, "classify_until_stop"))]
    polar, read, thread_stream = engine._polar, engine.read_cells, engine._thread_stream
    loop = engine.classify_until_stop

    def counted_polar(*args):
        counts["chunks"] += 1
        return polar(*args)

    def counted_read(streams, trials, row, n):
        counts["read_cells calls"] += 1
        reads.append((tuple(streams), trials.copy(), row, n))
        return read({b: CountedStream(s, counts) for b, s in streams.items()}, trials, row, n)

    def counted_loop(*args):
        # run_trial's loop: the harness calls montecarlo's name, not engine's
        counts["loop calls"] += 1
        return loop(*args)

    def recorded_stream(*args):
        # the record and its path list as the call finds them
        stream, record = thread_stream(*args)
        opened.append((record, record[1], len(record[1]) - 1 if record[1] else 0))
        return stream, record

    thread_stream.cache_clear()
    try:
        engine.np = CountedNumpy(counts)
        engine._polar, engine._thread_stream = counted_polar, recorded_stream
        engine.classify_until_stop = counted_loop
        engine.read_cells = montecarlo.read_cells = counted_read
        for call in calls:
            result = call()
            if opened:
                (record, path, made), sequences = opened.pop(), len(result.log_probs) - 1
                counts["calls"] += 1
                counts["updates"] += sequences
                if record[1] is path:
                    counts["kept calls"] += 1
                    counts["kept updates"] += min(made, sequences)
    finally:
        for module, name, value in saved:
            setattr(module, name, value)
    return counts, reads


def describe(c: collections.Counter) -> str:
    kept = (f"path kept for {c['kept calls']}/{c['calls']} calls and {c['kept updates']}/"
            f"{c['updates']} updates, {c['loop calls']}/{c['calls']} calls reached the loop, "
            if c["calls"] else "")
    return (f"{kept}{c['chunks']:,} chunks, {c['cosines'] + c['sines']:,} trig evaluations "
            f"({c['cosines']:,} cosines, {c['sines']:,} sines), {c['read_cells calls']:,} "
            f"read_cells calls making {c['positioned reads']:,} positioned reads of "
            f"{c['uniforms']:,} uniforms")


def alternate(calls: list, rounds: int) -> tuple[list, list]:
    """Each side's call times ``[round][call]`` of one job's calls ``(this,
    other)``, every call run once on each side per round, alternating which
    side goes first."""
    clock = time.perf_counter
    times: tuple[list, list] = ([], [])
    for r in range(rounds):
        times[0].append([])
        times[1].append([])
        for k, pair in enumerate(zip(*calls)):
            for side in ((0, 1) if (r + k) % 2 == 0 else (1, 0)):
                start = clock()
                pair[side]()
                times[side][r].append(clock() - start)
    return times


def report(name: str, times: tuple) -> str:
    """Per statistic of a round's calls, each side's median over rounds,
    their ratio (this over other) and the rounds this side won."""
    calls, rounds = len(times[0][0]), len(times[0])
    scale, unit, what = (1e6, "us", "call") if calls > 1 else (1e3, "ms", "run")
    parts = []
    # numpy's default percentile method is the one that gives trial_p99_us
    for label, q in [("median", 50), ("p99", 99)][:1 + (calls > 1)]:
        this, other = (np.percentile(side, q, axis=1) for side in times)
        won = np.count_nonzero(this < other)
        this, other = scale * np.median(this), scale * np.median(other)
        parts.append(f"{label} {what} this {this:.1f} {unit}, other {other:.1f} {unit}, "
                     f"ratio x{this / other:.3f}, this faster in {won}/{rounds} rounds")
    return f"{name}: " + (f"{calls} calls a round; " if calls > 1 else "") + "; ".join(parts)


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

    other = load("rbc_stoplab_other", os.path.join(os.path.abspath(args.other_src), "rbc_stoplab"))
    workload = load("bench_workload", os.path.join(ROOT, "bench", "workload.py"))
    print(f"this: {os.path.dirname(this.__file__)}\nother: {os.path.dirname(other.__file__)}")
    sides = (this, other)
    built = [build_jobs(pkg, workload, args.seed) for pkg in sides]
    jobs = [(name, *(side[name] for side in built)) for name in built[0]]
    # the loop appends each harness job's replay, which it then reaches
    for name, *calls in jobs:
        differ = (k for k, (a, b) in enumerate(zip(*calls)) if digest(a()) != digest(b()))
        if (k := next(differ, None)) is not None:
            print(f"{name}: results differ at call {k}")
            return 1
        (counts, reads), (other_counts, _) = (count(pkg, c) for pkg, c in zip(sides, calls))
        print(f"{name} this: {describe(counts)}\n{name} other: {describe(other_counts)}")
        if name in HARNESS:
            jobs.append((f"reads {name}", *(replay(pkg, args.seed, reads) for pkg in sides)))
    for name, *calls in jobs:
        print(report(name, alternate(calls, args.rounds)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
