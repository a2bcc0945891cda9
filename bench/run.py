"""rbc-stoplab benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload tables --seed 1 --seconds 20 --trace 0

Workloads, metrics and bounds are listed in ``BENCHMARK.json`` at the
repository root.  Each workload runs in a fresh Python process
(``bench/workload.py``) that imports the package from ``src``, with
``RBC_STOPLAB_THREADS`` unset and one BLAS thread.

``--trace 0`` reports the end-to-end metrics.  A process repeats the
workload's operation for ``--seconds``.  The speed of a shared CPU moves
by half or more in phases longer than a run, so every time below is
scaled to a nominal machine speed: fixed reference kernels run between
the steps of the operation (a CLI call, or a chunk of ``run_trial``
calls), and the run's times are divided by the kernels' median slowdown
over the run (``Gauge`` in ``workload.py``).  Each
step counts with its median repeat: ``wall_s`` is the sum of those, and
``trials_per_s`` divides the trials of one operation by the steps that run
them.  ``trial_p50_us`` and ``trial_p99_us`` take each ``run_trial``
call's median repeat and the percentiles over the distinct calls (their
number is printed as ``trial_latency_calls``).  On scalar_geometry those
calls are the timed operation; on the other workloads they run after each
operation, on sampled trials of the workload's own configuration.  The
provenance line gives the wall time and latencies as measured
(``raw_wall_s``, ``raw_trial_p50_us``, ``raw_trial_p99_us``) and the
kernels' slowdowns.  ``setup_s`` is the median over eleven
fresh processes, before, during and after the timed run, of the time to
import the package and build the workload's inputs, each scaled by the
reference kernels run just after it in the same process;
``raw_setup_s`` in the provenance line is the median as measured.

``--trace 1`` reports the per-layer metrics, per traced operation.  Its
process alternates traced and untraced operations; the ratio of their
wall times gives the tracing overhead.

The last line of output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it record the
machine and run provenance and print each metric with its unit.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("tables", "simulate_long", "sweep_topn", "scalar_geometry")
SETUP_REPEATS = 11
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
DEADLINE_S = 170.0


class BenchError(Exception):
    pass


def run_child(args, mode: str, seconds: float, work: str, deadline: float) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "RBC_STOPLAB_THREADS"}
    # The package does no large linear algebra, so BLAS worker threads only
    # add start-up time that depends on how busy the other cores are.
    env.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, os.path.join(BENCH, "workload.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(seconds), "--size", args.size,
           "--mode", mode, "--work", work]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} process did not finish in time") from None
    if proc.returncode != 0:
        raise BenchError(f"{mode} process exited with code {proc.returncode}")
    out = json.loads(proc.stdout.splitlines()[-1])
    if not out["package"].startswith(SRC + os.sep):
        raise BenchError(f"package imported from {out['package']}, not from {SRC}")
    return out


def cpu_caches() -> dict[str, str]:
    caches = {}
    for d in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            fields = [open(os.path.join(d, f), encoding="ascii").read().strip()
                      for f in ("level", "type", "size")]
        except OSError:
            continue
        caches[f"L{fields[0]} {fields[1]}"] = fields[2]
    return caches


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="ascii") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="ascii") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def median_wall(step_times: dict[str, list[float]], steps=None) -> float:
    """An operation's wall time from the median repeat of each of its steps."""
    return sum(statistics.median(step_times[s]) for s in (steps or step_times))


def end_to_end(args, work: str, deadline: float) -> tuple[dict, dict]:
    # Set-up runs on both sides of the timed run, to span the same phases.
    half = SETUP_REPEATS // 2
    setups = [run_child(args, "setup", 0, work, deadline) for _ in range(half)]
    timed = run_child(args, "timed", args.seconds, work, deadline)
    setups += [timed] + [run_child(args, "setup", 0, work, deadline)
                         for _ in range(SETUP_REPEATS - 1 - half)]
    timed["raw_setup_s"] = statistics.median(s["raw_setup_s"] for s in setups)
    timed["setup_runs"] = [[s["raw_setup_s"], *s["setup_slowdowns"]] for s in setups]
    return {
        "wall_s": median_wall(timed["step_times"]),
        "trials_per_s": (timed["trials_per_op"]
                         / median_wall(timed["step_times"], timed["trial_steps"])),
        "peak_rss_mb": timed["peak_rss_mb"],
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "trial_p50_us": timed["trial_p50_us"],
        "trial_p99_us": timed["trial_p99_us"],
    }, timed


def per_layer(args, work: str, deadline: float) -> tuple[dict, dict]:
    run = run_child(args, "traced", args.seconds, work, deadline)
    values = dict(run["layers"])
    values["trace.overhead_frac"] = (median_wall(run["traced_step_times"])
                                     / median_wall(run["step_times"]) - 1.0)
    values["montecarlo.needed_state_frac"] = run["needed_state_frac"]
    values["montecarlo.cells_within_tol"] = run["cells_within_tol"]
    return values, run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="input sizes; 'tiny' is for the smoke test")
    args = parser.parse_args(argv)

    deadline = time.monotonic() + DEADLINE_S
    if not os.path.isfile(os.path.join(SRC, "rbc_stoplab", "__init__.py")):
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    section = "per_layer" if args.trace else "end_to_end"

    work = os.path.join(ROOT, ".bench_work", f"{args.workload}-{os.getpid()}")
    try:
        measure = per_layer if args.trace else end_to_end
        values, run = measure(args, work, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass

    failures = run["failures"]
    values["failed_frac"] = len(failures) / run["attempted"]
    for failure in failures[:20]:
        print(f"check failed: {failure}", file=sys.stderr)

    print("provenance " + json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "git_commit": git_commit(),
        "nproc": os.cpu_count(), "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": run["python"], "numpy": run["numpy"],
        "RBC_STOPLAB_THREADS": run["threads_env"], "cpu_caches": cpu_caches(),
        "blas_threads": {k: run["blas_env"][k] for k in BLAS_THREAD_VARS},
        "operations_timed": {k: len(next(iter(run[k].values())))
                             for k in ("step_times", "traced_step_times") if k in run},
        "trials_per_operation": run["trials_per_op"],
        "raw_wall_s": median_wall(run["raw_step_times"]),
        "raw_setup_s": run.get("raw_setup_s"),
        "slowdowns": run["slowdowns"],
        "raw_trial_p50_us": run["raw_trial_p50_us"],
        "raw_trial_p99_us": run["raw_trial_p99_us"],
        "setup_runs": run.get("setup_runs"),
        "trial_latency_calls": run["trial_samples"],
        "csv_sha256": run["csv_sha256"],
    }, sort_keys=True))
    metrics = {}
    for m in spec[section]:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"{m['name']:32s} {values[m['name']]:>16.6g} {m['unit']}")
    print(json.dumps({"correct": not failures, "attempted": run["attempted"],
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
