"""Harness: aggregation semantics, determinism, serialization, projections."""

import inspect
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from rbc_stoplab import engine, montecarlo
from rbc_stoplab.criteria import FAMILIES, CriterionState, boundary_sample, calibrate, should_stop
from rbc_stoplab.engine import (
    CHUNK,
    Broadcast,
    EvidenceModel,
    TopN,
    TrialConfig,
    classify_until_stop,
    log_evidence,
    read_cells,
    resolve_queried,
    run_trial,
    trial_normals,
    trial_stream,
)
from rbc_stoplab.montecarlo import (
    ExperimentConfig,
    RandomRemainder,
    _batch,
    comparison_to_csv,
    letters_projection,
    read_matrix_csv,
    reproduce_table,
    result_from_csv_dir,
    result_to_csv_dir,
    run_experiment,
    speed_accuracy_sweep,
    table_config,
    trajectory_ensemble,
    write_csv,
    write_matrix_csv,
)
from rbc_stoplab.simplex import SimplexPoint, center_line_distance


def sp(values):
    return SimplexPoint.from_probs(values)


def small_config(**overrides):
    base = dict(
        n=3,
        prior=sp([0.42, 0.55, 0.03]),
        tau=0.8,
        methods=("MP", "M1", "M3", "M5", "M1bar"),
        model=EvidenceModel(0.6, 0.5, 0.0, 0.5),
        n_trials=400,
        max_sequences=12,
        master_seed=777,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestRunExperiment:
    def test_stop_matrix_cumulative_and_monotone(self):
        res = run_experiment(small_config())
        assert res.p_stop.shape == (5, 12)
        assert np.all(np.diff(res.p_stop, axis=1) >= 0)
        assert np.all((res.p_stop >= 0) & (res.p_stop <= 1))
        assert np.all((res.p_true_given_stop >= 0) & (res.p_true_given_stop <= 1))

    def test_seed_reproducibility(self):
        a = run_experiment(small_config())
        b = run_experiment(small_config())
        np.testing.assert_array_equal(a.p_stop, b.p_stop)
        np.testing.assert_array_equal(a.p_true_given_stop, b.p_true_given_stop)
        c = run_experiment(small_config(master_seed=778))
        assert not np.array_equal(a.p_stop, c.p_stop)

    def test_rerun_repeats_stop_records(self):
        # a run of another config in between leaves nothing behind that a
        # rerun would read
        a = run_experiment(small_config())
        run_experiment(small_config(n=10, prior=RandomRemainder(0.1), tau=0.85,
                                    model=EvidenceModel(0.8, 0.5, -0.3, 0.5), scheme=TopN(3)))
        b = run_experiment(small_config())
        assert a.first_stop.tobytes() == b.first_stop.tobytes()
        assert a.stop_correct.tobytes() == b.stop_correct.tobytes()

    def test_shared_streams_order_gap_rule_before_confidence(self):
        # with common random numbers the confidence stop can never come
        # before the matched gap-rule stop on the same trial
        res = run_experiment(small_config(methods=("MP", "M1")))
        mp, m1 = res.first_stop[0], res.first_stop[1]
        stopped_m1 = m1 >= 0
        assert np.all(mp[stopped_m1] >= 0)
        assert np.all(mp[stopped_m1] <= m1[stopped_m1])

    def test_harness_matches_single_trial_engine(self):
        cfg = small_config(n_trials=5, methods=("M1",))
        res = run_experiment(cfg)
        for t in range(5):
            trial = TrialConfig(prior=cfg.prior, true_index=0,
                                rule=calibrate("M1", cfg.tau, cfg.n),
                                model=cfg.model, max_sequences=cfg.max_sequences,
                                seed=cfg.master_seed, trial_index=t)
            out = run_trial(trial)
            expected = -1 if out.stopped_at is None else out.stopped_at
            assert res.first_stop[0, t] == expected

    @pytest.mark.parametrize("check_prior", [True, False])
    @pytest.mark.parametrize("method", ["M1", "MP", "M3", "M5"])
    def test_harness_matches_engine_under_top_n(self, method, check_prior):
        # same substreams, same tie-breaks, same draw layout: the vectorized
        # stepping must agree with the sequential loop stop-for-stop
        cfg = small_config(n_trials=8, methods=(method,), scheme=TopN(2),
                           max_sequences=15, check_prior=check_prior)
        res = run_experiment(cfg)
        for t in range(8):
            trial = TrialConfig(prior=cfg.prior, true_index=0,
                                rule=calibrate(method, cfg.tau, cfg.n),
                                model=cfg.model, scheme=TopN(2),
                                max_sequences=cfg.max_sequences,
                                seed=cfg.master_seed, trial_index=t,
                                check_prior=check_prior)
            out = run_trial(trial)
            expected = -1 if out.stopped_at is None else out.stopped_at
            assert res.first_stop[0, t] == expected
            if out.stopped_at is not None:
                assert bool(res.stop_correct[0, t]) == out.correct

    def test_prior_check_flag_defers_first_column(self):
        cfg = small_config(prior=sp([0.85, 0.1, 0.05]), methods=("M1",),
                           n_trials=60, check_prior=False)
        res = run_experiment(cfg)
        assert np.all(res.first_stop >= 1)

    @pytest.mark.parametrize("scheme", [Broadcast(), TopN(2)])
    def test_method_stops_do_not_depend_on_other_methods(self, scheme):
        # common random numbers: every method reads each trial's one stream,
        # random prior included, so a method's stops are the same whether it
        # runs alone or with every other method
        cfg = small_config(n=10, prior=RandomRemainder(0.1), tau=0.85, methods=FAMILIES,
                           model=EvidenceModel(0.8, 0.5, -0.3, 0.5), scheme=scheme,
                           max_sequences=8)
        together = run_experiment(cfg)
        for m, method in enumerate(FAMILIES):
            alone = run_experiment(replace(cfg, methods=(method,)))
            assert (together.first_stop[m] >= 0).any(), method
            np.testing.assert_array_equal(alone.first_stop[0], together.first_stop[m])
            np.testing.assert_array_equal(alone.stop_correct[0], together.stop_correct[m])

    def test_prior_stop_lands_in_first_column(self):
        cfg = small_config(prior=sp([0.85, 0.1, 0.05]), methods=("M1",),
                           n_trials=50)
        res = run_experiment(cfg)
        assert np.all(res.first_stop == 0)
        assert res.p_stop[0, 0] == 1.0
        # argmax of the prior is the true class here
        assert res.p_true_given_stop[0, 0] == 1.0

    def test_gap_rules_stop_on_the_prior_below_one_half(self):
        # at tau 0.4 the stop regions of MP and M1bar are the whole simplex:
        # both stop on the uniform prior, where M1 does not, and neither has
        # a boundary to trace.  Such anchors are accepted, so that one
        # --tau-list can sweep every family over calibrate's domain.
        res = run_experiment(small_config(prior=SimplexPoint.uniform(3), tau=0.4,
                                          methods=("MP", "M1bar", "M1")))
        assert np.all(res.p_stop[:2, 0] == 1) and np.all(res.first_stop[:2] == 0)
        assert not np.any(res.first_stop[2] == 0)
        for family in ("MP", "M1bar"):
            assert boundary_sample(calibrate(family, 0.4, 3), 200) == []

    def test_random_remainder_prior(self):
        cfg = small_config(n=10, prior=RandomRemainder(0.1), tau=0.85,
                           methods=("M1",), n_trials=200,
                           model=EvidenceModel(0.8, 0.5, -0.3, 0.5))
        res = run_experiment(cfg)
        assert res.p_stop.shape == (1, 12)
        # reruns reproduce the same random priors
        res2 = run_experiment(cfg)
        np.testing.assert_array_equal(res.first_stop, res2.first_stop)

    def test_top_n_scheme_runs(self):
        cfg = small_config(scheme=TopN(2), n_trials=100)
        res = run_experiment(cfg)
        assert np.all(np.diff(res.p_stop, axis=1) >= 0)


@st.composite
def trial_cases(draw):
    """A harness config over every family, with priors that may hold a
    zero-mass class and evidence far outside the bundled tables."""
    n = draw(st.integers(2, 20))
    weights = draw(st.lists(st.one_of(st.just(0.0), st.floats(0.01, 1.0)),
                            min_size=n, max_size=n).filter(lambda w: sum(w) > 0))
    scheme = draw(st.one_of(st.just(Broadcast()), st.integers(1, n).map(TopN)))
    log_mean = st.floats(-300.0, 300.0)
    log_sd = st.floats(0.0, 50.0)
    return ExperimentConfig(
        n=n,
        prior=sp(weights),
        tau=draw(st.floats(1.0 / n, 1.0, exclude_min=True)),
        methods=FAMILIES,
        model=EvidenceModel(draw(log_mean), draw(log_sd), draw(log_mean), draw(log_sd)),
        true_index=draw(st.integers(0, n - 1)),
        scheme=scheme,
        n_trials=6,
        max_sequences=draw(st.integers(1, 10)),
        master_seed=draw(st.integers(0, 2**32 - 1)),
        check_prior=draw(st.booleans()),
    )


def oracle_trial(cfg, rule, trial_index):
    """First stop (-1 if censored) and decision of one trial, stepped one
    point at a time through the public single-point API: the reference
    the batched loop is checked against."""
    z = trial_normals(cfg.master_seed, trial_index, cfg.n, cfg.max_sequences)
    point, state = SimplexPoint(cfg.prior.log_probs), CriterionState()
    for s in range(cfg.max_sequences + 1):
        if s:
            queried = resolve_queried(cfg.scheme, point.probs)
            point = SimplexPoint(point.log_probs
                                 + log_evidence(cfg.model, cfg.true_index, z[s - 1],
                                                queried))
        if s or cfg.check_prior:
            stop, state = should_stop(rule, state, point)
            if stop:
                return s, point.argmax
    return -1, None


def extreme_case(model, **overrides):
    return ExperimentConfig(**{**dict(
        n=3, prior=sp([0.42, 0.55, 0.03]), tau=0.8, methods=FAMILIES, model=model,
        n_trials=6, max_sequences=5, master_seed=7), **overrides})


class TestHarnessMatchesEngine:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(trial_cases())
    # evidence of exactly zero after exp: the log-domain paths still agree
    @example(extreme_case(EvidenceModel(0.6, 0.5, -800.0, 0.0)))
    @example(extreme_case(EvidenceModel(800.0, 0.0, 0.0, 0.5)))
    # a uniform prior on the stop boundaries, moved by evidence of log-sd 2.2e-16
    @example(extreme_case(EvidenceModel(1.0, 2.2e-16, 1.0, 0.0), n=2,
                          prior=SimplexPoint.uniform(2), tau=0.5000000000000001,
                          max_sequences=2, master_seed=0, check_prior=False))
    def test_first_stop_and_correctness_per_trial(self, cfg):
        # the batched harness and the single-trial run agree with a
        # point-by-point oracle, trial by trial
        res = run_experiment(cfg)
        for m, method in enumerate(cfg.methods):
            rule = calibrate(method, cfg.tau, cfg.n)
            for t in range(cfg.n_trials):
                first, decision = oracle_trial(cfg, rule, t)
                assert res.first_stop[m, t] == first, (method, t)
                assert bool(res.stop_correct[m, t]) == (decision == cfg.true_index), (method, t)
                out = run_trial(TrialConfig(
                    prior=cfg.prior, true_index=cfg.true_index, rule=rule,
                    model=cfg.model, scheme=cfg.scheme,
                    max_sequences=cfg.max_sequences, seed=cfg.master_seed,
                    trial_index=t, check_prior=cfg.check_prior))
                assert (out.stopped_at, out.decision) == \
                    ((None, None) if first < 0 else (first, decision)), (method, t)

    # numpy would sum one row pairwise from 8 classes on, in blocks of 8 from
    # 16 and split above 128: at 17 and 130 classes a batch of one and a
    # batch of many must still add in index order
    @pytest.mark.parametrize("n", [3, 17, 130])
    @pytest.mark.parametrize("scheme", [Broadcast(), TopN(2)])
    def test_run_trial_trajectory_is_the_harness_path(self, scheme, n):
        prior = small_config().prior if n == 3 else sp(np.linspace(1.0, 2.0, n))
        cfg = small_config(n=n, prior=prior, n_trials=20, methods=("M1",), scheme=scheme)
        kept = trajectory_ensemble(cfg, n_paths=cfg.n_trials).paths
        for t in range(cfg.n_trials):
            out = run_trial(TrialConfig(
                prior=cfg.prior, true_index=0, rule=calibrate("M1", cfg.tau, cfg.n),
                model=cfg.model, scheme=scheme, max_sequences=cfg.max_sequences,
                seed=cfg.master_seed, trial_index=t))
            # one read-only array of log states, wrapped as points when read
            assert not out.log_probs.flags.writeable
            assert out.log_probs.shape == (len(out.trajectory), n)
            for row, point, harness in zip(out.log_probs, out.trajectory, kept[t]):
                assert row.tobytes() == point.log_probs.tobytes()
                assert np.exp(row).tobytes() == harness.tobytes()
            path = np.exp([point.log_probs for point in out.trajectory])
            np.testing.assert_array_equal(path, kept[t, :len(path)])

    def test_states_of_leaving_trials_are_the_ensemble_paths(self):
        # ten classes, one of zero mass, top-3 querying: trials leave the
        # batch in the middle of a chunk of normals, and every state the
        # loop still holds, like every run_trial trajectory, is the no-rule
        # ensemble path bit for bit
        prior = sp([0.13, 0.52, 0.30, 0.01, 0.01, 0.01, 0.0, 0.01, 0.005, 0.005])
        cfg = small_config(n=10, prior=prior, true_index=1, tau=0.75, methods=("M1",),
                           model=EvidenceModel(0.8, 0.5, -0.3, 0.5), scheme=TopN(3),
                           n_trials=300, max_sequences=20)
        rule = calibrate("M1", cfg.tau, cfg.n)
        kept = trajectory_ensemble(cfg, n_paths=cfg.n_trials).paths
        first, _, states = classify_until_stop(cfg, [rule], *_batch(cfg, 0, cfg.n_trials),
                                              keep_states=True)
        sizes = [len(state) for state in states]
        # a state s was updated with step (s - 1) % CHUNK of its chunk
        assert any(sizes[s] < sizes[s - 1] for s in range(2, len(sizes)) if (s - 1) % CHUNK)
        for s, state in enumerate(states):
            alive = (first[0] < 0) | (first[0] >= s)
            assert np.exp(state).tobytes() == kept[alive, s].tobytes(), s
        for t in range(0, cfg.n_trials, 7):
            out = run_trial(TrialConfig(
                prior=prior, true_index=1, rule=rule, model=cfg.model, scheme=cfg.scheme,
                max_sequences=cfg.max_sequences, seed=cfg.master_seed, trial_index=t))
            path = np.exp([point.log_probs for point in out.trajectory])
            assert path.tobytes() == kept[t, :len(path)].tobytes(), t

    @pytest.mark.parametrize("scheme", [Broadcast(), TopN(3)])
    def test_trials_leave_in_either_half_of_a_chunk(self, scheme):
        # trials leave after steps of both halves of a chunk, so a chunk's
        # second half of normals is made for part of its trials only, and
        # the batch straddles the first block boundary; every stop record
        # and path is still run_trial's bit for bit
        prior = sp([0.13, 0.52, 0.30, 0.01, 0.01, 0.01, 0.0, 0.01, 0.005, 0.005])
        cfg = small_config(n=10, prior=prior, true_index=1, tau=0.9, methods=("M1", "MP"),
                           model=EvidenceModel(0.4, 0.5, -0.3, 0.5), scheme=scheme,
                           n_trials=1100, max_sequences=20)
        rules = [calibrate(m, cfg.tau, cfg.n) for m in cfg.methods]
        res = run_experiment(cfg)
        kept = trajectory_ensemble(cfg, n_paths=cfg.n_trials).paths
        first, _, states = classify_until_stop(cfg, rules, *_batch(cfg, 0, cfg.n_trials),
                                              keep_states=True)
        np.testing.assert_array_equal(first, res.first_stop)
        # state s + 1 is the first without the trials that left at state s
        left = {(s - 1) % CHUNK for s in range(1, len(states) - 1)
                if len(states[s + 1]) < len(states[s])}
        assert {1, 2, 3, 5, 6, 7} <= left, left
        for s, state in enumerate(states):
            alive = (first < 0).any(0) | (first.max(0) >= s)
            assert np.exp(state).tobytes() == kept[alive, s].tobytes(), s
        for t in [*range(1010, 1040), *range(0, cfg.n_trials, 50)]:
            for m, rule in enumerate(rules):
                out = run_trial(TrialConfig(
                    prior=prior, true_index=1, rule=rule, model=cfg.model, scheme=scheme,
                    max_sequences=cfg.max_sequences, seed=cfg.master_seed, trial_index=t))
                assert (out.stopped_at, out.correct) == (
                    (None, None) if res.first_stop[m, t] < 0
                    else (res.first_stop[m, t], bool(res.stop_correct[m, t]))), (m, t)
                path = np.exp([point.log_probs for point in out.trajectory])
                assert path.tobytes() == kept[t, :len(path)].tobytes(), (m, t)


class TestBatchLayout:
    def test_harness_batches_are_class_major(self, monkeypatch):
        # a row-major batch gives the same numbers, only slower, so no
        # output check would notice one
        seen = []

        def spy(module, name, parameter, per_step=False):
            original = getattr(module, name)
            signature = inspect.signature(original)

            def call(*args, **kwargs):
                batch = signature.bind(*args, **kwargs).arguments[parameter]
                # a half-chunk's evidence is built at once, one (T, n) step a row
                for step in (batch if per_step else [batch]):
                    if len(step) > 1:
                        seen.append((f"{module.__name__.rsplit('.', 1)[1]}.{name}",
                                     step.shape, step.flags.f_contiguous))
                return original(*args, **kwargs)
            monkeypatch.setattr(module, name, call)

        spy(montecarlo, "_normalize_log_weights", "logw")  # the random priors of _batch
        spy(engine, "_normalize_log_weights", "logw")
        spy(engine, "_evidence", "z", per_step=True)
        spy(engine, "stop_statistic", "log_probs")
        for table in ("T3", "T4"):
            run_experiment(table_config(table, n_trials=2000))
        assert {name for name, _, _ in seen} == {
            "montecarlo._normalize_log_weights", "engine._normalize_log_weights",
            "engine._evidence", "engine.stop_statistic"}
        assert all(shape[1] == 10 for _, shape, _ in seen)
        assert [entry for entry in seen if not entry[2]] == []


class TestMemory:
    def test_sweep_memory_grows_only_by_the_stop_records(self):
        # a sweep keeps each trial's 8-byte first stop and 1-byte correctness
        # per rule and tallies each slice as it finishes; all else is held
        # for one slice at a time.  4,000 and 16,000 trials both run in
        # slices of 4,000, so their traced peaks differ by the records: 9
        # bytes per added (trial, rule), bounded by 12.  Records of int64
        # decisions, aggregated through full-size bins, took about 22.
        cfg = small_config(n=10, prior=table_config("T3").prior, tau=0.85, methods=FAMILIES,
                           model=EvidenceModel(0.8, 0.5, -0.3, 0.5), scheme=TopN(3),
                           max_sequences=40)
        taus = [0.65, 0.69, 0.72, 0.76, 0.79, 0.83, 0.86, 0.9]
        speed_accuracy_sweep(replace(cfg, n_trials=100), taus)  # lazy set-up, untraced
        peaks = []
        for trials in (4000, 16000):
            tracemalloc.start()
            try:
                points = speed_accuracy_sweep(replace(cfg, n_trials=trials), taus)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert len(points) == 48
        assert (peaks[1] - peaks[0]) / (12_000 * 48) <= 12.0, peaks


class TestConfigValidation:
    def test_configs_compare_and_hash(self):
        # equal priors compare by their bits, so equal configs are equal
        assert small_config() == small_config() != small_config(master_seed=778)
        assert hash(small_config()) == hash(small_config())
        assert small_config(prior=RandomRemainder(0.5)) == small_config(prior=RandomRemainder(0.5))

    def test_rejects_more_queries_than_classes(self):
        with pytest.raises(ValueError, match="scheme"):
            small_config(scheme=TopN(5))

    def test_rejects_tau_outside_calibration_domain(self):
        with pytest.raises(ValueError, match="tau"):
            small_config(tau=0.1)

    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError, match="seed"):
            small_config(master_seed=-1)

    def test_seed_must_fit_the_philox_key(self):
        # the seed is one 64-bit word of the key
        assert run_experiment(small_config(master_seed=2**64 - 1, n_trials=3)).n_trials == 3
        with pytest.raises(ValueError, match="seed"):
            small_config(master_seed=2**64)


class TestBlockStreams:
    """A trial reads its own cells of its block's stream, so its draws do
    not depend on how many trials run or which of them are still running."""

    @pytest.mark.parametrize("prior", [sp([0.42, 0.55, 0.03]), RandomRemainder(0.4)])
    def test_stop_records_do_not_depend_on_the_batch(self, prior):
        base = dict(prior=prior, methods=FAMILIES, max_sequences=20)
        small = run_experiment(small_config(n_trials=1030, **base))
        large = run_experiment(small_config(n_trials=2100, **base))
        np.testing.assert_array_equal(small.first_stop, large.first_stop[:, :1030])
        np.testing.assert_array_equal(small.stop_correct, large.stop_correct[:, :1030])

    def test_slices_give_the_records_of_one_batch(self, monkeypatch):
        # 9,000 trials run as three slices of 3,000 that straddle block
        # boundaries; every record, matrix and sweep point equals that of
        # one call over all 9,000 trials bit for bit, M5's included
        cfg = small_config(n=10, prior=RandomRemainder(0.1), tau=0.85, methods=FAMILIES,
                           model=EvidenceModel(0.8, 0.5, -0.3, 0.5), scheme=TopN(3),
                           n_trials=9000, max_sequences=20)
        taus = [0.7, 0.85]
        sizes = []

        def spy(cfg, rules, log_priors, *args):
            sizes.append(len(log_priors))
            return classify_until_stop(cfg, rules, log_priors, *args)
        monkeypatch.setattr(montecarlo, "classify_until_stop", spy)
        sliced = run_experiment(cfg), speed_accuracy_sweep(cfg, taus, include_m5=True)
        assert sizes == [3000] * 6
        monkeypatch.setattr(montecarlo, "SLICE", cfg.n_trials)
        whole = run_experiment(cfg), speed_accuracy_sweep(cfg, taus, include_m5=True)
        assert sizes[6:] == [9000] * 2
        for name in ("first_stop", "stop_correct", "p_stop", "p_true_given_stop"):
            assert getattr(sliced[0], name).tobytes() == getattr(whole[0], name).tobytes(), name
        assert sliced[1] == whole[1]

    def test_random_prior_reads_row_0(self):
        # the non-true masses are the first n - 1 uniforms of the trial's row-0 cell
        cfg = small_config(n=4, prior=RandomRemainder(0.4), n_trials=1030, methods=("M1",))
        priors = trajectory_ensemble(cfg, n_paths=cfg.n_trials).paths[:, 0]
        streams = {0: trial_stream(cfg.master_seed, 0), 1: trial_stream(cfg.master_seed, 1)}
        raw = read_cells(streams, np.arange(cfg.n_trials), 0, 4).reshape(cfg.n_trials, -1)[:, :3]
        np.testing.assert_allclose(priors[:, 0], 0.4, rtol=1e-12)
        np.testing.assert_allclose(priors[:, 1:], 0.6 * raw / raw.sum(1, keepdims=True),
                                   rtol=1e-12)

    def test_run_trial_matches_the_harness_across_blocks(self):
        cfg = small_config(n_trials=2100, methods=FAMILIES, max_sequences=20)
        res = run_experiment(cfg)
        for t in (0, 1023, 1024, 1029, 2047, 2048, 2099):
            for m, method in enumerate(cfg.methods):
                out = run_trial(TrialConfig(
                    prior=cfg.prior, true_index=0, rule=calibrate(method, cfg.tau, cfg.n),
                    model=cfg.model, max_sequences=cfg.max_sequences,
                    seed=cfg.master_seed, trial_index=t))
                first = res.first_stop[m, t]
                assert out.stopped_at == (None if first < 0 else first), (method, t)
                assert bool(out.correct) == bool(res.stop_correct[m, t]), (method, t)


class TestReferenceTables:
    def test_comparison_covers_every_cell(self):
        comp = reproduce_table("T2", n_trials=300)
        # 7 methods x 7 sequences x 2 metrics
        assert len(comp.cells) == 98
        methods = {c.method for c in comp.cells}
        assert methods == {"MP", "M1", "M2", "M3", "M4", "M5", "M1bar"}

    def test_table_config_shapes(self):
        cfg = table_config("T3")
        assert cfg.n == 10
        assert cfg.max_sequences == 9
        assert isinstance(table_config("T4").prior, RandomRemainder)
        with pytest.raises(ValueError):
            table_config("T9")

    def test_deterministic_cells(self):
        a = reproduce_table("T2", n_trials=200)
        b = reproduce_table("T2", n_trials=200)
        assert [(c.repro, c.paper) for c in a.cells] == \
               [(c.repro, c.paper) for c in b.cells]

    def test_t2_confidence_and_gap_rows_nearly_coincide(self):
        # with a collapsed third class the gap and confidence regions almost
        # agree, which is why the reference prints identical rows for them
        res = reproduce_table("T2", n_trials=2000).result
        m1, mp = res.method_row("M1"), res.method_row("MP")
        assert np.abs(res.p_stop[m1] - res.p_stop[mp]).max() <= 0.03
        from rbc_stoplab.montecarlo import _REFERENCE_TABLES
        t2 = _REFERENCE_TABLES["T2"]
        assert t2["p_stop"]["M1"] == t2["p_stop"]["MP"]
        assert t2["p_true_given_stop"]["M1"] == t2["p_true_given_stop"]["MP"]


class TestSweep:
    def test_points_per_method_and_tau(self):
        cfg = small_config(methods=("M1", "MP", "M5"), n_trials=300)
        points = speed_accuracy_sweep(cfg, [0.7, 0.8])
        # M5 excluded by default
        assert {(p.method, p.tau) for p in points} == {
            ("M1", 0.7), ("M1", 0.8), ("MP", 0.7), ("MP", 0.8)}
        points = speed_accuracy_sweep(cfg, [0.7], include_m5=True)
        assert {p.method for p in points} == {"M1", "MP", "M5"}

    def test_single_tau_single_point(self):
        cfg = small_config(methods=("M1",), n_trials=200)
        points = speed_accuracy_sweep(cfg, [0.75])
        assert len(points) == 1

    def test_confidence_slows_with_higher_tau(self):
        cfg = small_config(methods=("M1",), n_trials=2000, max_sequences=30)
        points = speed_accuracy_sweep(cfg, [0.65, 0.72, 0.79, 0.86])
        seqs = [p.mean_sequences for p in points]
        assert all(b >= a for a, b in zip(seqs, seqs[1:]))

    @pytest.mark.parametrize("check_prior", [True, False])
    def test_points_equal_one_run_per_tau(self, check_prior):
        # one simulation read at every anchor gives exactly what a separate
        # run at each anchor gives
        cfg = small_config(methods=FAMILIES, scheme=TopN(2), n_trials=300,
                           check_prior=check_prior)
        taus = [0.65, 0.8, 0.9]
        points = speed_accuracy_sweep(cfg, taus, include_m5=True)
        assert len(points) == len(FAMILIES) * len(taus)
        runs = {tau: run_experiment(replace(cfg, tau=tau)) for tau in taus}
        for p in points:
            res = runs[p.tau]
            first = res.first_stop[res.method_row(p.method)]
            censored_mean = np.where(first >= 0, first, cfg.max_sequences).mean()
            assert p.mean_sequences == censored_mean
            assert p.mean_accuracy == res.overall_accuracy[res.method_row(p.method)]

    def test_tau_domain_checked(self):
        with pytest.raises(ValueError):
            speed_accuracy_sweep(small_config(), [0.2])

    def test_tau_one_never_stops(self):
        # calibrate's domain (1/n, 1] is the sweep's: at tau = 1 no rule
        # can stop, so every trial counts max_sequences
        cfg = small_config(methods=("MP", "M1", "M3", "M1bar"), n_trials=100)
        points = speed_accuracy_sweep(cfg, [1.0])
        assert len(points) == 4
        assert all(p.mean_sequences == cfg.max_sequences for p in points)


class TestTrajectoryEnsemble:
    def test_symmetric_prior_stays_near_center_line(self):
        cfg = small_config(n_trials=100, max_sequences=10)
        ens = trajectory_ensemble(replace(cfg, prior=SimplexPoint.uniform(3)), n_paths=400)
        for s in range(ens.mean.shape[0]):
            assert center_line_distance(sp(ens.mean[s]), 0) <= 0.01

    def test_edge_prior_bends_toward_center_line(self):
        cfg = small_config(n_trials=100, max_sequences=12)
        ens = trajectory_ensemble(replace(cfg, prior=sp([0.49, 0.49, 0.02])), n_paths=1500)
        dists = [center_line_distance(sp(row), 0) for row in ens.mean]
        assert all(b <= a + 1e-3 for a, b in zip(dists, dists[1:]))
        assert dists[-1] < dists[0]

    def test_path_count_honored(self):
        cfg = small_config(prior=SimplexPoint.uniform(3), max_sequences=5)
        ens = trajectory_ensemble(cfg, n_paths=37)
        assert ens.paths.shape == (37, 6, 3)
        np.testing.assert_allclose(ens.paths.sum(-1), 1.0, atol=1e-12)

    def test_slices_give_the_paths_of_one_batch(self, monkeypatch):
        # 2,100 paths from random priors over three blocks, in one batch and
        # in five slices of 420 that straddle block boundaries
        cfg = small_config(n=4, prior=RandomRemainder(0.3), methods=("M1",), max_sequences=20)
        whole = trajectory_ensemble(cfg, n_paths=2100)
        sizes = []

        def spy(cfg, rules, log_priors, *args, **kwargs):
            sizes.append(len(log_priors))
            return classify_until_stop(cfg, rules, log_priors, *args, **kwargs)
        monkeypatch.setattr(montecarlo, "classify_until_stop", spy)
        monkeypatch.setattr(montecarlo, "SLICE", 500)
        sliced = trajectory_ensemble(cfg, n_paths=2100)
        assert sizes == [420] * 5
        assert sliced.paths.tobytes() == whole.paths.tobytes()
        assert sliced.mean.tobytes() == whole.mean.tobytes()

    def test_peak_memory_stays_near_the_paths(self):
        # one slice's states are held besides the paths: 20,000 paths of 101
        # states run in five slices of 4,000, so the traced peak is about
        # 1.2 times the paths; all states held at once took 2.25 times
        cfg = replace(table_config("T2"), max_sequences=100)
        trajectory_ensemble(cfg, n_paths=10)  # lazy set-up, untraced
        tracemalloc.start()
        try:
            ens = trajectory_ensemble(cfg, n_paths=20_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * ens.paths.nbytes, (peak, ens.paths.nbytes)


class TestLettersProjection:
    def test_perfect_accuracy_single_round(self):
        assert letters_projection(1.0, 10.0) == 1000.0

    def test_reference_scenarios(self):
        no_lm = letters_projection(0.90, 15.44)
        assert no_lm == pytest.approx(1713.84, abs=0.01)
        assert abs(no_lm - 1735) / 1735 <= 0.05
        with_lm = letters_projection(0.85, 13.08)
        assert with_lm == pytest.approx(1530.36, abs=0.01)
        assert abs(with_lm - 1580) / 1580 <= 0.05

    def test_literal_variant_is_smaller_and_documented(self):
        # adding the post-decrement remainder each round gives a very
        # different (much smaller) count
        literal = letters_projection(0.90, 15.44, literal=True)
        assert literal == pytest.approx(169.84, abs=0.01)
        assert literal < letters_projection(0.90, 15.44)

    def test_guards(self):
        with pytest.raises(ValueError):
            letters_projection(0.0, 10.0)
        with pytest.raises(ValueError):
            letters_projection(0.9, 0.0)
        with pytest.raises(ValueError):
            letters_projection(1.2, 10.0)
        for e_seq in (np.nan, np.inf):
            with pytest.raises(ValueError, match="e_seq must be positive and finite"):
                letters_projection(0.9, e_seq)
        # finite e_seq whose total passes the float range
        with pytest.raises(ValueError, match="e_seq"):
            letters_projection(0.9, 1e308)
        assert letters_projection(0.9, 1e306) == pytest.approx(1.11e308)


class TestCsvRoundTrip:
    def test_matrix_round_trip(self, tmp_path):
        path = tmp_path / "m.csv"
        methods = ("M1", "MP")
        seqs = np.arange(1, 4)
        matrix = np.array([[0.1, 0.2, 1 / 3], [0.0, 1e-17, 0.9999999999999999]])
        write_matrix_csv(path, methods, seqs, matrix)
        m2, s2, mat2 = read_matrix_csv(path)
        assert m2 == methods
        np.testing.assert_array_equal(s2, seqs)
        np.testing.assert_array_equal(mat2, matrix)

    def test_result_round_trip(self, tmp_path):
        res = run_experiment(small_config(n_trials=200))
        result_to_csv_dir(res, tmp_path)
        back = result_from_csv_dir(tmp_path)
        assert back.methods == res.methods
        np.testing.assert_array_equal(back.p_stop, res.p_stop)
        np.testing.assert_array_equal(back.p_true_given_stop, res.p_true_given_stop)
        np.testing.assert_array_equal(back.overall_accuracy, res.overall_accuracy)
        assert back.n_trials == res.n_trials

    def test_write_csv_cells(self, tmp_path):
        path = tmp_path / "cells.csv"
        write_csv(path, ["a", "b", "c", "d", "e", "f"],
                  [["M1bar", "0.50", 5000, np.float64(0.1), np.nan, True]])
        assert path.read_text() == \
            "a,b,c,d,e,f\nM1bar,0.50,5000,0.10000000000000001,nan,true\n"

    def test_comparison_csv_format(self, tmp_path):
        comp = reproduce_table("T2", n_trials=100)
        path = tmp_path / "cmp.csv"
        comparison_to_csv(comp, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "table,method,sequence,metric,paper,repro,abs_delta,pass"
        assert len(lines) == 99
        assert all(line.split(",")[7] in ("true", "false") for line in lines[1:])
