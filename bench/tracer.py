"""Layer spans recorded from outside the package.

The tracer rebinds the module attributes through which one module calls a
public function of another (for example ``rbc_stoplab.engine.oplus``,
the name ``run_trial`` looks up), so no file of the package changes.
Spans nest on a stack: a span's self time is its duration minus the time
of the spans it caused, and the outermost spans' durations say how much
of an operation any span covers.  Only per-span totals are kept, which
holds the memory flat however many calls a run makes.
"""

from __future__ import annotations

import os
import time
from collections import defaultdict

from rbc_stoplab import bounds, cli, criteria, engine, montecarlo

# (module whose attribute is rebound, attribute, span name).  The span name
# is "<layer>.<operation>", the layer being the module that does the work.
BOUNDARIES = (
    (cli, "main", "cli.main"),
    (cli, "run_experiment", "montecarlo.run_experiment"),
    (cli, "reproduce_table", "montecarlo.reproduce_table"),
    (cli, "speed_accuracy_sweep", "montecarlo.speed_accuracy_sweep"),
    (cli, "result_to_csv_dir", "montecarlo.csv_write"),
    (cli, "comparison_to_csv", "montecarlo.csv_write"),
    (cli, "calibrate", "criteria.calibrate"),
    (cli, "boundary_sample", "criteria.boundary_sample"),
    (bounds, "verify_prop5_ordering", "bounds.verify"),
    (montecarlo, "trial_stream", "engine.trial_stream"),
    (montecarlo, "calibrate", "criteria.calibrate"),
    (engine, "run_trial", "engine.run_trial"),
    (engine, "should_stop", "criteria.should_stop"),
    (engine, "oplus", "simplex.oplus"),
    (criteria, "shannon_entropy", "simplex.stat"),
    (criteria, "renyi_entropy", "simplex.stat"),
    (criteria, "kl_divergence", "simplex.stat"),
    (criteria, "top_two", "simplex.stat"),
)

LAYERS = ("cli", "montecarlo", "engine", "criteria", "simplex", "bounds")


def _csv_bytes(tracer: "Tracer", result, args) -> None:
    target = args[1]
    paths = ([os.path.join(target, f) for f in
              ("p_stop.csv", "p_true_given_stop.csv", "summary.csv")]
             if os.path.isdir(target) else [target])
    tracer.counts["montecarlo.csv_bytes"] += sum(os.path.getsize(p) for p in paths)


def _sequences(tracer: "Tracer", outcome, args) -> None:
    tracer.counts["engine.sequences_run"] += len(outcome.trajectory) - 1


_ON_RESULT = {
    "montecarlo.csv_write": _csv_bytes,
    "engine.run_trial": _sequences,
}


class Tracer:
    """Aggregated span timings for the calls made while installed."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.covered_s = 0.0
        self._stack: list[float] = []
        self._originals: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for module, attr, span in BOUNDARIES:
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            setattr(module, attr, self._wrap(original, span))

    def restore(self) -> None:
        while self._originals:
            module, attr, original = self._originals.pop()
            setattr(module, attr, original)

    def _wrap(self, original, span: str):
        stack, clock, on_result = self._stack, time.perf_counter, _ON_RESULT.get(span)

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                else:
                    self.covered_s += elapsed
                self.calls[span] += 1
                self.total_s[span] += elapsed
                self.self_s[span] += elapsed - children
            if on_result is not None:
                on_result(self, result, args)
            return result

        return traced

    def metrics(self, ops: int, wall_s: float) -> dict[str, float]:
        """Layer metrics per timed operation, from ``ops`` operations that
        took ``wall_s`` seconds in all.

        The self times partition the wall time: ``cli.self_s`` +
        ``montecarlo.self_s`` + ``montecarlo.csv_write_s`` + the other
        layers' ``self_s`` + ``trace.uncovered_s`` = ``trace.wall_s``.
        """
        calls, total = self.calls, self.total_s
        out = {
            "engine.trial_stream_calls": calls["engine.trial_stream"],
            "engine.trial_stream_s": total["engine.trial_stream"],
            "montecarlo.csv_write_s": total["montecarlo.csv_write"],
            "montecarlo.csv_bytes": self.counts["montecarlo.csv_bytes"],
            "criteria.calibrate_calls": calls["criteria.calibrate"],
            "criteria.calibrate_s": total["criteria.calibrate"],
            "engine.run_trial_calls": calls["engine.run_trial"],
            "engine.run_trial_s": total["engine.run_trial"],
            "engine.sequences_run": self.counts["engine.sequences_run"],
            "criteria.should_stop_calls": calls["criteria.should_stop"],
            "criteria.should_stop_s": total["criteria.should_stop"],
            "simplex.oplus_calls": calls["simplex.oplus"],
            "simplex.oplus_s": total["simplex.oplus"],
            "criteria.boundary_sample_s": total["criteria.boundary_sample"],
            "simplex.stat_calls": calls["simplex.stat"],
            "simplex.stat_s": total["simplex.stat"],
            "bounds.verify_calls": calls["bounds.verify"],
            "bounds.verify_s": total["bounds.verify"],
            "trace.wall_s": wall_s,
            "trace.uncovered_s": wall_s - self.covered_s,
        }
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(
                v for k, v in self.self_s.items()
                if k.split(".", 1)[0] == layer and k != "montecarlo.csv_write")
        return {k: v / ops for k, v in out.items()}
