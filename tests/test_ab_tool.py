"""The A/B tool's counting pass: exact counts on a tiny job, and every
patched name restored, also when the job raises; a stand-in left behind
would skew every later timing in the process."""

import functools
import importlib.util
from pathlib import Path

import pytest

import rbc_stoplab
from rbc_stoplab import criteria, engine, montecarlo
from rbc_stoplab.simplex import SimplexPoint

TOOL = Path(__file__).resolve().parents[1] / "tools" / "ab_run_trial.py"


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("ab_run_trial", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def tiny_experiment():
    # tau 1.0: no trial ever stops, so every trial reads all its cells
    cfg = montecarlo.ExperimentConfig(n=3, prior=SimplexPoint.uniform(3), tau=1.0,
                                      methods=("M1",), model=montecarlo.table_config("T2").model,
                                      n_trials=10, max_sequences=8, master_seed=3)
    return functools.partial(montecarlo.run_experiment, cfg)


def test_counts_of_a_tiny_harness_job(tool):
    counts, reads = tool.count(rbc_stoplab, [tiny_experiment()])
    assert counts["chunks"] == 1
    assert counts["read_cells calls"] == len(reads) == 1
    # 10 trials x 8 sequences x 4 uniforms (n = 3 rounded up to 4), one read
    assert counts["positioned reads"] == 1
    assert counts["uniforms"] == 10 * 8 * 4 == 320
    # each half-chunk: 4 sequences x 3 classes x 10 trials
    assert (counts["cosines"], counts["sines"]) == (120, 120)
    assert counts["calls"] == 0
    blocks, trials, row, n = reads[0]
    assert (blocks, trials.tolist(), row, n) == ((0,), list(range(10)), 1, 3)


def test_kept_path_counts_of_run_trial_calls(tool):
    t2 = montecarlo.table_config("T2")
    calls = [functools.partial(engine.run_trial, engine.TrialConfig(
        prior=t2.prior, true_index=0, rule=criteria.calibrate(family, 0.8, 3), model=t2.model,
        max_sequences=30, seed=5, trial_index=trial))
        for trial, family in ((0, "M1"), (0, "M2"), (1, "M1"))]
    counts, _ = tool.count(rbc_stoplab, calls)
    outcomes = [call() for call in calls]
    sequences = [len(o.log_probs) - 1 for o in outcomes]
    assert (counts["calls"], counts["kept calls"]) == (3, 1)
    assert counts["updates"] == sum(sequences)
    assert counts["kept updates"] == min(sequences[:2])
    # the fresh calls reach the loop; the kept call only if it runs past
    # the path that the first call left
    assert counts["loop calls"] == 2 + (sequences[1] > sequences[0])


def test_every_patched_name_is_restored_when_a_job_raises(tool):
    originals = (engine.np, engine._polar, engine.read_cells, montecarlo.read_cells,
                 engine._thread_stream, engine.classify_until_stop)

    def job():
        tiny_experiment()()
        raise RuntimeError("job failed")

    with pytest.raises(RuntimeError, match="job failed"):
        tool.count(rbc_stoplab, [job])
    restored = (engine.np, engine._polar, engine.read_cells, montecarlo.read_cells,
                engine._thread_stream, engine.classify_until_stop)
    assert all(a is b for a, b in zip(restored, originals))


def test_digest_tells_apart_what_equality_would_not(tool):
    assert tool.digest([0.0]) != tool.digest([-0.0])
    assert tool.digest((float("nan"),)) == tool.digest((float("nan"),))
