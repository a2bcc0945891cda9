"""Trial loop: evidence sampling, determinism, stop/censor behavior."""

import functools
import gc
import hashlib
import math
import sys
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rbc_stoplab.bounds import BoundQuery, min_sequences_constant_evidence
from rbc_stoplab import engine, montecarlo
from rbc_stoplab.criteria import FAMILIES, calibrate
from rbc_stoplab.engine import (
    BLOCK,
    CHUNK,
    SEEK,
    Broadcast,
    EvidenceModel,
    TopN,
    TrialConfig,
    TrialOutcome,
    _log_prior,
    _thread_stream,
    classify_until_stop,
    draw_normals,
    log_evidence,
    read_cells,
    resolve_queried,
    run_trial,
    trial_normals,
    trial_stream,
)
from rbc_stoplab.montecarlo import ExperimentConfig, run_experiment, table_config
from rbc_stoplab.simplex import (
    SimplexPoint,
    _normalize_log_weights,
    center_line_distance,
    special_point,
)


def sp(values):
    return SimplexPoint.from_probs(values)


def cell_width(n):
    """Uniforms per sequence of a cell: ``n`` rounded up to a multiple of 4."""
    return -(-n // 4) * 4


@st.composite
def sparse_reads(draw):
    """A row, an ``n`` and sorted trials over blocks 0 to 2, stepping by
    neighbours, by gaps at the cut between runs and one either side of it,
    and by gaps that leave lone trials."""
    n, row = draw(st.integers(2, 20)), draw(st.integers(0, 3))
    # the fewest skipped cells that end a run
    cut = SEEK // (CHUNK * cell_width(n)) + 1
    trial = draw(st.one_of(st.sampled_from([0, BLOCK - 2, BLOCK - 1, BLOCK, 2 * BLOCK - 1]),
                           st.integers(0, 3 * BLOCK - 1)))
    steps = draw(st.lists(st.one_of(st.sampled_from([1, 2, cut, cut + 1, cut + 2]),
                                    st.integers(1, 1500)), max_size=30))
    trials = [trial]
    for step in steps:
        if trials[-1] + step >= 3 * BLOCK:
            break
        trials.append(trials[-1] + step)
    return n, row, np.array(trials)


class CountingStream:
    """A stream that counts its reads and the uniforms they generate."""

    def __init__(self, stream):
        self.stream, self.bit_generator = stream, stream.bit_generator
        self.reads = self.uniforms = 0

    def random(self, size=None, out=None):
        result = self.stream.random(size, out=out)
        self.reads += 1
        self.uniforms += result.size
        return result


NOISY = EvidenceModel(mu_pos=0.6, c_pos=0.5, mu_neg=0.0, c_neg=0.5)


def deterministic_model(eps):
    return EvidenceModel(mu_pos=math.log(eps), c_pos=0.0, mu_neg=0.0, c_neg=0.0)


class TestSampleEvidence:
    """One sequence of evidence: a trial's normals through ``log_evidence``."""

    def test_broadcast_channels(self):
        z = trial_normals(1, 0, 3, 1)[0]
        log_e = log_evidence(deterministic_model(2.0), 0, z, np.ones(3, dtype=bool))
        np.testing.assert_allclose(np.exp(log_e), [2.0, 1.0, 1.0])

    def test_unqueried_get_neutral_evidence(self):
        z = trial_normals(1, 0, 3, 1)[0]
        queried = np.array([False, True, False])
        log_e = log_evidence(deterministic_model(2.0), 0, z, queried)
        # the true class was not queried, so it gets exactly 1
        np.testing.assert_array_equal(log_e, [0.0, 0.0, 0.0])

    def test_all_entries_positive(self):
        z = trial_normals(5, 3, 4, 100)
        log_e = log_evidence(NOISY, 2, z, np.ones((100, 4), dtype=bool))
        assert np.all(np.exp(log_e) > 0) and np.all(np.isfinite(log_e))

    def test_draw_layout_independent_of_mask(self):
        # one normal per class is consumed each sequence whatever the query
        # mask, so top-1 querying reads the draws broadcast would
        z = trial_normals(9, 0, 3, 2)
        cfg = TrialConfig(prior=sp([0.5, 0.3, 0.2]), true_index=0,
                          rule=calibrate("M1", 1.0, 3), model=NOISY, scheme=TopN(1),
                          max_sequences=2, seed=9, check_prior=False)
        point = cfg.prior
        for s, state in enumerate(run_trial(cfg).trajectory[1:]):
            queried = resolve_queried(TopN(1), point.probs)
            point = SimplexPoint(point.log_probs + log_evidence(NOISY, 0, z[s], queried))
            np.testing.assert_allclose(state.probs, point.probs, rtol=1e-12)


class TestNormals:
    """The block streams' Box-Muller normals."""

    @staticmethod
    def span_normals(seed, n_trials, n, chunk):
        streams = {b: trial_stream(seed, b) for b in range(-(-n_trials // BLOCK))}
        return draw_normals(streams, np.arange(n_trials), chunk, n)

    def test_standard_normal_moments(self):
        z = self.span_normals(2024, 2500, 10, 0).ravel()
        assert z.size == 200_000
        se = 1.0 / math.sqrt(z.size)
        tail = 2.0 * (1.0 - 0.5 * (1.0 + math.erf(2.0 / math.sqrt(2.0))))
        # each tolerance is 5 standard errors of its estimate
        assert abs(z.mean()) < 5 * se
        assert abs(z.var() - 1.0) < 5 * math.sqrt(2.0) * se
        assert abs(np.mean(np.abs(z) > 2.0) - tail) < 5 * math.sqrt(tail * (1 - tail)) * se
        # a radius reads 1 - u >= 2**-53
        assert np.abs(z).max() < 8.58

    def test_cells_tile_the_stream_row_major(self):
        # each uniform takes one output; a row holds BLOCK cells of CHUNK * w
        n, w = 5, 8
        streams = {1: trial_stream(3, 1)}
        rows = [read_cells(streams, np.arange(BLOCK, 2 * BLOCK), row, n) for row in range(3)]
        flat = trial_stream(3, 1).random(3 * BLOCK * CHUNK * w)
        np.testing.assert_array_equal(np.concatenate(rows).ravel(), flat)

    def test_uniforms_are_pinned(self):
        # a numpy or code change that moves any uniform breaks manifest reruns;
        # normals are not pinned, since libm may round them differently
        u = read_cells({1: trial_stream(20210814, 1)}, np.array([1024, 1500, 2047]), 1, 10)
        assert hashlib.sha256(u.astype("<f8").tobytes()).hexdigest() == (
            "0d3f1913f0114fd08a2119b782a186434c3118cba2785f0c8eb6fecd0a3e0033")

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(sparse_reads())
    def test_sparse_reads_equal_whole_block_reads(self, case):
        n, row, trials = case
        blocks = range(trials[-1] // BLOCK + 1)
        whole = np.concatenate([read_cells({b: trial_stream(4, b)},
                                           np.arange(b * BLOCK, (b + 1) * BLOCK), row, n)
                                for b in blocks])
        streams = {b: trial_stream(4, b) for b in blocks}
        np.testing.assert_array_equal(read_cells(streams, trials, row, n), whole[trials])

    def test_reads_generate_only_listed_cells(self):
        n = 5
        cell = CHUNK * cell_width(n)
        stream = CountingStream(trial_stream(6, 0))
        u = read_cells({0: stream}, np.array([0, BLOCK - 1]), 2, n)
        assert stream.uniforms == 2 * cell
        whole = read_cells({0: trial_stream(6, 0)}, np.arange(BLOCK), 2, n)
        np.testing.assert_array_equal(u, whole[[0, BLOCK - 1]])
        streams = {b: CountingStream(trial_stream(6, b)) for b in range(5)}
        read_cells(streams, np.arange(5000), 1, n)
        assert [s.reads for s in streams.values()] == [1] * 5
        assert sum(s.uniforms for s in streams.values()) == 5000 * cell

    def test_chunk_c_reads_row_c_plus_1(self):
        # reference Box-Muller: radii from a cell's first four sequences,
        # angles from its last four; row 0 is left to random priors
        streams, trials = {2: trial_stream(8, 2)}, np.array([2050])
        z = trial_normals(8, 2050, 3, 16)
        for chunk in (0, 1):
            u = read_cells(streams, trials, chunk + 1, 3)[0]
            radius, angle = np.sqrt(-2.0 * np.log1p(-u[:4])), 2.0 * np.pi * u[4:]
            expected = np.concatenate((radius * np.cos(angle), radius * np.sin(angle)))
            np.testing.assert_array_equal(z[8 * chunk:8 * chunk + 8], expected[:, :3])

    @pytest.mark.parametrize("chunk", [0, 2])
    def test_a_trial_reads_its_own_cells(self, chunk):
        # random access: one trial's draws equal its rows of a whole-span draw
        span = self.span_normals(11, 1100, 5, chunk)
        for t in (0, 1, 1023, 1024, 1099):
            z = trial_normals(11, t, 5, 8 * (chunk + 1))
            np.testing.assert_array_equal(z[8 * chunk:], span[t])


class TestResolveQueried:
    def test_broadcast(self):
        assert resolve_queried(Broadcast(), np.array([0.2, 0.5, 0.3])).all()

    def test_top_n_with_ties(self):
        mask = resolve_queried(TopN(2), np.array([0.4, 0.4, 0.2]))
        np.testing.assert_array_equal(mask, [True, True, False])
        mask = resolve_queried(TopN(1), np.array([0.3, 0.4, 0.3]))
        np.testing.assert_array_equal(mask, [False, True, False])


class TestRunTrial:
    def test_deterministic_stop_matches_threshold_formula(self):
        cfg = TrialConfig(prior=sp([0.5, 0.5]), true_index=0,
                          rule=calibrate("M1", 0.8, 2),
                          model=deterministic_model(2.0), max_sequences=10, seed=3)
        out = run_trial(cfg)
        assert out.stopped_at == 3
        assert out.decision == 0 and out.correct
        assert len(out.trajectory) == 4

    def test_gap_rule_deterministic_stop(self):
        cfg = TrialConfig(prior=sp([0.5, 0.3, 0.2]), true_index=0,
                          rule=calibrate("MP", 0.8, 3),
                          model=deterministic_model(2.0), max_sequences=10, seed=3)
        out = run_trial(cfg)
        assert out.stopped_at == 2
        np.testing.assert_allclose(out.trajectory[2].probs, [0.8, 0.12, 0.08],
                                   atol=1e-12)

    def test_prior_stop_runs_zero_sequences(self):
        cfg = TrialConfig(prior=special_point("v", 3, 0.81), true_index=1,
                          rule=calibrate("M1", 0.8, 3), model=NOISY,
                          max_sequences=10, seed=1)
        out = run_trial(cfg)
        assert out.stopped_at == 0
        assert out.decision == 0  # argmax of the prior, not the true class
        assert out.correct is False
        assert len(out.trajectory) == 1

    def test_prior_check_can_be_disabled(self):
        cfg = TrialConfig(prior=special_point("v", 3, 0.81), true_index=1,
                          rule=calibrate("M1", 0.8, 3),
                          model=deterministic_model(1.000001),
                          max_sequences=3, seed=1, check_prior=False)
        out = run_trial(cfg)
        assert out.stopped_at == 1  # still inside the region after one update

    def test_censoring(self):
        cfg = TrialConfig(prior=sp([0.5, 0.5]), true_index=0,
                          rule=calibrate("M1", 0.9, 2),
                          model=deterministic_model(1.0001),
                          max_sequences=5, seed=1)
        out = run_trial(cfg)
        assert out.stopped_at is None
        assert out.decision is None and out.correct is None
        assert len(out.trajectory) == 6

    def test_determinism_bitwise(self):
        cfg = TrialConfig(prior=sp([0.42, 0.55, 0.03]), true_index=0,
                          rule=calibrate("M1", 0.8, 3), model=NOISY,
                          max_sequences=30, seed=12345, trial_index=7)
        a, b = run_trial(cfg), run_trial(cfg)
        assert a.stopped_at == b.stopped_at
        for pa, pb in zip(a.trajectory, b.trajectory):
            np.testing.assert_array_equal(pa.log_probs, pb.log_probs)

    def test_outcomes_and_configs_compare_and_hash(self):
        base = dict(prior=sp([0.42, 0.55, 0.03]), true_index=0,
                    rule=calibrate("M1", 0.8, 3), model=NOISY,
                    max_sequences=30, seed=12345)
        cfg = TrialConfig(**base, trial_index=7)
        assert cfg == TrialConfig(**base, trial_index=7) != TrialConfig(**base, trial_index=8)
        assert hash(cfg) == hash(TrialConfig(**base, trial_index=7))
        a, b = run_trial(cfg), run_trial(cfg)
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        # the same stop record with another path, or the same path with
        # another stop record or shape, is another outcome
        nudged = np.nextafter(a.log_probs, 0.0)
        assert replace(a, log_probs=nudged) != a
        assert replace(a, stopped_at=None, decision=None, correct=None) != a
        assert replace(a, log_probs=a.log_probs.reshape(-1, 1)) != a
        assert a != (a.stopped_at, a.decision, a.correct)

    def test_held_outcomes_are_compact(self):
        # an outcome holds its path as one array: one point per state cost
        # 1,116 B an outcome on this mix (4.4 states), one array 325 B
        t2 = table_config("T2")
        configs = [TrialConfig(prior=t2.prior, true_index=0, rule=calibrate(family, 0.8, 3),
                               model=t2.model, scheme=scheme, max_sequences=30, seed=7,
                               trial_index=t)
                   for scheme in (Broadcast(), TopN(2)) for family in FAMILIES
                   for t in range(72)][:1000]
        assert len(configs) == 1000 and not hasattr(configs[0], "__dict__")
        run_trial(configs[0])
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            held = [run_trial(c) for c in configs]
            per_outcome = (tracemalloc.get_traced_memory()[0] - before) / len(held)
        finally:
            if started:
                tracemalloc.stop()
        assert isinstance(held[0], TrialOutcome)
        assert per_outcome < 800, per_outcome

    def test_different_trials_differ(self):
        base = dict(prior=sp([0.42, 0.55, 0.03]), true_index=0,
                    rule=calibrate("M1", 0.8, 3), model=NOISY,
                    max_sequences=30, seed=12345)
        a = run_trial(TrialConfig(**base, trial_index=0))
        b = run_trial(TrialConfig(**base, trial_index=1))
        assert not np.array_equal(a.trajectory[1].probs, b.trajectory[1].probs)

    def test_kl_rule_stops_on_static_posterior(self):
        cfg = TrialConfig(prior=sp([0.5, 0.3, 0.2]), true_index=0,
                          rule=calibrate("M5", 0.8, 3),
                          model=deterministic_model(1.0), max_sequences=10, seed=1)
        out = run_trial(cfg)
        # neutral evidence leaves the posterior unchanged, so the first
        # comparable pair already has zero divergence
        assert out.stopped_at == 1

    def test_zero_variance_grid_matches_closed_form(self):
        rng = np.random.default_rng(61)
        cases = 0
        while cases < 20:
            n = int(rng.integers(2, 6))
            raw = rng.dirichlet(np.ones(n))
            true_index = int(np.argmin(raw))
            others = [i for i in range(n) if i != true_index]
            competitor = max(others, key=lambda i: raw[i])
            tau = float(rng.uniform(0.6, 0.9))
            eps = float(rng.uniform(1.3, 4.0))
            prior = sp(raw)
            for kind in ("M1", "MP"):
                from rbc_stoplab.criteria import CriterionState, should_stop
                rule = calibrate(kind, tau, n)
                if should_stop(rule, CriterionState(), prior)[0]:
                    continue  # the formula assumes the loop actually starts
                q = BoundQuery(prior, true_index, competitor, tau, rule_kind=kind)
                shat = min_sequences_constant_evidence(q, eps)
                if abs(shat - round(shat)) < 1e-6 or shat < 0:
                    continue
                cfg = TrialConfig(prior=prior, true_index=true_index,
                                  rule=rule, model=deterministic_model(eps),
                                  max_sequences=int(shat) + 5, seed=1,
                                  check_prior=True)
                out = run_trial(cfg)
                assert out.stopped_at == math.floor(shat) + 1
                cases += 1


class TestStreamReuse:
    """``run_trial`` reuses a thread's stream of a block across calls, and
    a prior's normalized log weights across calls."""

    @staticmethod
    def configs(seed, count):
        return [TrialConfig(prior=sp([0.42, 0.55, 0.03]), true_index=0,
                            rule=calibrate("M1", 0.95, 3), model=NOISY, scheme=TopN(2),
                            max_sequences=20, seed=seed, trial_index=t)
                for t in range(count)]

    def test_threads_calling_at_once_give_the_serial_outcomes(self):
        # four threads over interleaved trials of one (seed, block); a stream
        # shared between threads is moved by one between another's
        # positioning and its read, which a short switch interval provokes
        configs = self.configs(seed=31, count=240)
        serial = [run_trial(c) for c in configs]
        workers, rounds = 4, 3
        results = {}
        start = threading.Barrier(workers)

        def work(k):
            start.wait(timeout=30)
            results[k] = [run_trial(c) for _ in range(rounds) for c in configs[k::workers]]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(workers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for k in range(workers):
            assert results[k] == serial[k::workers] * rounds, k

    def test_trial_stream_still_starts_at_counter_0(self):
        seed, block = 17, 1
        fresh = np.random.Generator(np.random.Philox(key=np.array([seed, block], np.uint64)))
        expected = fresh.random(64)
        run_trial(replace(self.configs(seed, 1)[0], trial_index=BLOCK + 5))
        np.testing.assert_array_equal(trial_stream(seed, block).random(64), expected)
        assert trial_stream(seed, block) is not trial_stream(seed, block)

    def test_held_streams_move_back_and_forth(self):
        # Two threads at once each run every rule on trials of three blocks,
        # in orders that position each held stream backwards as well as
        # forwards: trial 1030 read to chunk 2, then trials 5 and 2050, then
        # 1030 again from chunk 0.  M1 at tau 1 never stops, so it reads to
        # max_sequences.  Every outcome equals the harness's stop records and
        # the path that trial_normals gives, bit for bit.
        seed, prior = 41, sp([0.42, 0.55, 0.03])
        harness = run_experiment(ExperimentConfig(
            n=3, prior=prior, tau=0.8, methods=FAMILIES, model=NOISY, n_trials=2100,
            max_sequences=24, master_seed=seed))
        rules = [calibrate(family, 0.8, 3) for family in FAMILIES] + [calibrate("M1", 1.0, 3)]
        order = [(1030, 24), (5, 24), (2050, 24), (1030, 8), (5, 8), (2050, 8), (1040, 16),
                 (1000, 24), (2099, 16), (1030, 24)]
        workers = 2
        results = {}
        start = threading.Barrier(workers)

        def work(k):
            calls = [TrialConfig(prior=prior, true_index=0, rule=rule, model=NOISY,
                                 max_sequences=sequences, seed=seed, trial_index=t)
                     for t, sequences in order[k:] + order[:k] for rule in rules]
            start.wait(timeout=30)
            results[k] = [(c, run_trial(c)) for c in calls]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(workers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for k in range(workers):
            assert len(results[k]) == len(order) * len(rules)
            for cfg, out in results[k]:
                t, where = cfg.trial_index, (k, cfg.trial_index, cfg.rule)
                if cfg.rule.source_tau == 1.0:
                    expected_stop = None
                else:
                    first = harness.first_stop[FAMILIES.index(cfg.rule.family), t]
                    expected_stop = first if 0 <= first <= cfg.max_sequences else None
                assert out.stopped_at == expected_stop, where
                if expected_stop is not None:
                    correct = harness.stop_correct[FAMILIES.index(cfg.rule.family), t]
                    assert out.correct == bool(correct), where
                sequences = cfg.max_sequences if expected_stop is None else expected_stop
                logp, path = _log_prior(prior), [_log_prior(prior)]
                for z in trial_normals(seed, t, 3, sequences):
                    logp = _normalize_log_weights(logp + log_evidence(NOISY, 0, z[None]))
                    path.append(logp)
                assert out.log_probs.tobytes() == np.concatenate(path).tobytes(), where

    # Calls for the kept-normals tests: two seeds, trials of two blocks
    # around the block edge, n from 2 to 10, broadcast and every top-N,
    # every rule, horizons that use one or both halves of up to 3 chunks,
    # and the prior check on and off.
    SEEDS, TRIALS, WIDTHS = (3, 2**63 + 5), (0, 1, 600, 1022, 1023, 1024, 1025, 1099), (2, 3, 5, 10)

    @staticmethod
    def call(seed, t, n, queries, family, max_sequences, check_prior):
        """The ``TrialConfig`` of one call; ``queries`` 0 is broadcast."""
        return TrialConfig(prior=sp(np.arange(n + 1.0, 1.0, -1.0)), true_index=0,
                           rule=calibrate(family, 0.8, n), model=NOISY,
                           scheme=TopN(queries) if queries else Broadcast(),
                           max_sequences=max_sequences, seed=seed, trial_index=t,
                           check_prior=check_prior)

    @staticmethod
    @functools.cache
    def harness(seed, n, queries, check_prior):
        cfg = TestStreamReuse.call(seed, 0, n, queries, "M1", 20, check_prior)
        return run_experiment(ExperimentConfig(
            n=n, prior=cfg.prior, tau=0.8, methods=FAMILIES, model=NOISY, scheme=cfg.scheme,
            n_trials=1100, max_sequences=20, master_seed=seed, check_prior=check_prior))

    @staticmethod
    def fresh(cfg):
        """``run_trial``'s outcome from a stream that has run nothing."""
        _thread_stream.cache_clear()
        return run_trial(cfg)

    def assert_outcome(self, args, outcome, fresh):
        cfg = self.call(*args)
        harness = self.harness(cfg.seed, cfg.prior.n, args[3], cfg.check_prior)
        row = FAMILIES.index(cfg.rule.family)
        first = int(harness.first_stop[row, cfg.trial_index])
        assert outcome.stopped_at == (first if 0 <= first <= cfg.max_sequences else None), args
        if outcome.stopped_at is not None:
            assert outcome.correct == bool(harness.stop_correct[row, cfg.trial_index]), args
        assert outcome == fresh, args

    @st.composite
    def call_sequences(draw):
        # a few (seed, trial, n) subjects, so that calls come back to a trial
        # right away or after others
        subjects = draw(st.lists(st.tuples(st.sampled_from(TestStreamReuse.SEEDS),
                                           st.sampled_from(TestStreamReuse.TRIALS),
                                           st.sampled_from(TestStreamReuse.WIDTHS)),
                                 min_size=1, max_size=3))
        calls = []
        for _ in range(draw(st.integers(1, 10))):
            seed, t, n = draw(st.sampled_from(subjects))
            calls.append((seed, t, n, draw(st.integers(0, n)), draw(st.sampled_from(FAMILIES)),
                          draw(st.integers(1, 20)), draw(st.booleans())))
        return calls

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(call_sequences())
    def test_outcomes_do_not_depend_on_earlier_calls(self, calls):
        # each call's outcome equals a fresh call's and the harness's stop
        # records, whatever its thread ran before
        expected = [self.fresh(self.call(*args)) for args in calls]
        _thread_stream.cache_clear()
        for args, fresh in zip(calls, expected):
            self.assert_outcome(args, run_trial(self.call(*args)), fresh)

    def test_two_threads_interleaving_calls_give_fresh_outcomes(self):
        # two threads at once run back-to-back calls on trials of one (seed,
        # block), each returning to trials that the other also reads, under
        # both schemes and several widths
        calls = [(3, t, n, queries, family, 20, True)
                 for t in (1022, 1023) for n in (3, 5) for queries in (0, 1)
                 for family in FAMILIES]
        expected = {args: self.fresh(self.call(*args)) for args in calls}
        workers, rounds = 2, 3
        results = {}
        start = threading.Barrier(workers)

        def work(k):
            order = calls[::-1] if k else calls
            start.wait(timeout=30)
            results[k] = [(args, run_trial(self.call(*args)))
                          for _ in range(rounds) for args in order]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(workers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for k in range(workers):
            assert len(results[k]) == rounds * len(calls)
            for args, outcome in results[k]:
                self.assert_outcome(args, outcome, expected[args])

    # Calls for the kept-path tests: one (seed, trial, n) each, so that every
    # call comes back to the trial of the call before.  The priors of each
    # width fall, give the last class no mass, or sit on the vertex of class
    # 0 with a log weight of -0.0; the models are noisy, or all zero
    # channels of either sign, which compare equal but carry their zeros'
    # sign into the path through that vertex.  The rules are the seven
    # families at tau 0.8 and M1 at tau 1, which never stops.
    MODELS = (NOISY, EvidenceModel(0.0, 0.0, 0.0, 0.0), EvidenceModel(-0.0, -0.0, -0.0, -0.0))
    HORIZON = 24  # 3 chunks

    @staticmethod
    @functools.cache
    def priors(n):
        return (sp(np.arange(n + 1.0, 1.0, -1.0)), sp([*np.arange(n, 1.0, -1.0), 0.0]),
                SimplexPoint(np.array([-0.0] + [-np.inf] * (n - 1))))

    @staticmethod
    @functools.cache
    def rules(n):
        return (*(calibrate(family, 0.8, n) for family in FAMILIES), calibrate("M1", 1.0, n))

    @staticmethod
    def path_call(seed, t, n, prior, true_index, model, queries, rule, max_sequences,
                  check_prior):
        """The ``TrialConfig`` of one call, by index into the priors, models
        and rules; ``queries`` 0 is broadcast."""
        return TrialConfig(prior=TestStreamReuse.priors(n)[prior], true_index=true_index,
                           rule=TestStreamReuse.rules(n)[rule],
                           model=TestStreamReuse.MODELS[model],
                           scheme=TopN(queries) if queries else Broadcast(),
                           max_sequences=max_sequences, seed=seed, trial_index=t,
                           check_prior=check_prior)

    @staticmethod
    @functools.cache
    def slice_records(seed, t, n, prior, true_index, model, queries, check_prior):
        """Every rule's first stop and correctness on trial ``t`` as the
        harness records them, from its slice of trials ``t`` and ``t + 1``."""
        cfg = TestStreamReuse.path_call(seed, t, n, prior, true_index, model, queries, 0,
                                        TestStreamReuse.HORIZON, check_prior)
        experiment = ExperimentConfig(
            n=n, prior=cfg.prior, tau=0.8, methods=FAMILIES, model=cfg.model,
            true_index=true_index, scheme=cfg.scheme, n_trials=t + 2,
            max_sequences=TestStreamReuse.HORIZON, master_seed=seed, check_prior=check_prior)
        first, correct, _ = classify_until_stop(experiment, TestStreamReuse.rules(n),
                                                *montecarlo._batch(experiment, t, t + 2))
        return first[:, 0], correct[:, 0]

    @st.composite
    def one_trial_sequences(draw):
        # one (seed, trial, n); each call keeps the path key (prior, true
        # class, model, scheme) of the call before, half the time, or
        # changes one part of it, so that calls come back to a path or move
        # to one that differs in one part
        seed = draw(st.sampled_from(TestStreamReuse.SEEDS))
        t = draw(st.sampled_from(TestStreamReuse.TRIALS))
        n = draw(st.sampled_from((2, 3, 5)))
        parts = (st.integers(0, 2), st.integers(0, n - 1),
                 st.integers(0, len(TestStreamReuse.MODELS) - 1), st.integers(0, n))
        key = [draw(part) for part in parts]
        calls = []
        for _ in range(draw(st.integers(2, 8))):
            part = draw(st.integers(0, 2 * len(parts) - 1))
            if part < len(parts):
                key[part] = draw(parts[part])
            calls.append((seed, t, n, *key, draw(st.integers(0, len(FAMILIES))),
                          draw(st.integers(1, TestStreamReuse.HORIZON)), draw(st.booleans())))
        return calls

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(one_trial_sequences())
    def test_calls_on_one_trial_give_fresh_outcomes(self, calls):
        # back-to-back calls on one trial that change the prior, true class,
        # model, scheme, rule, prior check or horizon, so that a kept path is
        # replayed, extended mid-half or across chunks, or replaced; each
        # outcome equals a fresh call's and the harness's stop record
        expected = [self.fresh(self.path_call(*args)) for args in calls]
        _thread_stream.cache_clear()
        for args, fresh in zip(calls, expected):
            cfg = self.path_call(*args)
            outcome = run_trial(cfg)
            assert outcome == fresh, args
            seed, t, n, prior, true_index, model, queries, rule, sequences, check_prior = args
            first, correct = self.slice_records(seed, t, n, prior, true_index, model, queries,
                                                check_prior)
            stop = int(first[rule])
            assert outcome.stopped_at == (stop if 0 <= stop <= sequences else None), args
            if outcome.stopped_at is not None:
                assert outcome.correct == bool(correct[rule]), args

    def test_equal_models_keep_their_own_paths(self):
        # the all-zero models compare equal, but from the vertex prior's -0.0
        # their paths differ in a zero's sign wherever the vertex class draws
        # a positive normal; a call under one must not replay the other's
        t = next(t for t in range(100) if trial_normals(3, t, 3, 1)[0, 0] > 0)
        calls = [(3, t, 3, 2, 0, model, 0, 7, 8, True) for model in (1, 2, 1)]
        assert self.MODELS[1] == self.MODELS[2]
        expected = [self.fresh(self.path_call(*args)) for args in calls]
        assert expected[0].log_probs.tobytes() != expected[1].log_probs.tobytes()
        _thread_stream.cache_clear()
        for args, fresh in zip(calls, expected):
            assert run_trial(self.path_call(*args)) == fresh, args

    def test_later_calls_replay_the_kept_path(self, monkeypatch):
        # calls on one trial that share its path run only the updates past
        # the states that the calls before them made; another scheme starts
        # a new path, and so does coming back to the first one
        calls = [(3, 1023, 3, 0, 0, 0, queries, rule, sequences, True)
                 for queries, rule, sequences in [(0, 7, 6), (0, 0, 24), (0, 7, 14), (0, 7, 24),
                                                  (0, 4, 24), (1, 7, 10), (0, 7, 5)]]
        expected = [self.fresh(self.path_call(*args)) for args in calls]
        updates = []

        def normalize(logw):
            updates.append(len(logw))
            return _normalize_log_weights(logw)

        monkeypatch.setattr(engine, "_normalize_log_weights", normalize)
        _thread_stream.cache_clear()
        made, scheme = [], None
        kept = 1  # states of the kept path
        for args, fresh in zip(calls, expected):
            if args[6] != scheme:
                scheme, kept = args[6], 1
            updates.clear()
            outcome = run_trial(self.path_call(*args))
            assert outcome == fresh, args
            assert len(updates) == max(0, len(outcome.log_probs) - kept), args
            kept = max(kept, len(outcome.log_probs))
            made.append(len(updates))
        assert made == [6, 3, 5, 10, 0, 10, 5]

    def test_kept_normals_own_their_memory(self):
        # a kept half-chunk of sines is made out of place, so it does not
        # hold its chunk's uniforms: 200 halves of 4 x 50 normals hold
        # 320 KB, not the 480 KB that sines in place of the angles held
        _thread_stream.cache_clear()
        cfg = TrialConfig(prior=SimplexPoint.uniform(50), true_index=0,
                          rule=calibrate("M1", 1.0, 50), model=NOISY, max_sequences=800,
                          seed=5, trial_index=7)
        run_trial(cfg)
        normals = _thread_stream(threading.get_ident(), 5, 0).bit_generator.kept[1]
        assert len(normals) == 200
        assert all(z.base is None for z in normals)
        assert sum(z.nbytes for z in normals) == 320_000

    def test_caches_stay_bounded(self, monkeypatch):
        # streams, the states they hold, the half-chunks of normals and the
        # states of the paths they keep and priors that run_trial keeps,
        # counted among live objects; the harness's streams, one per block
        # of each slice, and their states are dropped with the slice, and
        # keep no normals or paths
        def live():
            gc.collect()
            objects = gc.get_objects()
            kept = [o.kept for o in objects
                    if isinstance(o, np.random.Philox) and o.kept is not None]
            return np.array([sum(isinstance(o, kind) for o in objects)
                             for kind in (np.random.Generator, SimplexPoint)]
                            + [sum(isinstance(o, dict) and "bit_generator" in o for o in objects),
                               sum(len(k[1]) for k in kept), sum(len(k[3] or ()) for k in kept)])

        monkeypatch.setattr(montecarlo, "SLICE", BLOCK)
        before = live()
        for seed in range(1000):
            prior = sp([1.0 + seed, 2.0, 3.0])
            # two trials of up to two chunks: a stream keeps the last one's
            # halves, at most 4, and its path, at most 17 states, so 16
            # streams keep at most 64 halves and 272 states
            for t in (0, 1):
                run_trial(replace(self.configs(seed, 1)[0], prior=prior, trial_index=t,
                                  rule=calibrate("M1", 1.0, 3), max_sequences=1 + seed % 16))
            if seed % 100 == 0:
                run_experiment(ExperimentConfig(
                    n=3, prior=prior, tau=0.8, methods=("M1",), model=NOISY,
                    n_trials=3 * BLOCK, max_sequences=1, master_seed=seed))
        assert (live() - before <= [64, 64, 64, 64, 16 * 17]).all(), live() - before


class TestTrajectoryGeometry:
    def test_single_query_updates_are_collinear(self):
        # querying one class moves the posterior along the line to that
        # class's corner
        cfg = TrialConfig(prior=sp([0.3, 0.25, 0.25, 0.2]), true_index=0,
                          rule=calibrate("M1", 0.95, 4), model=NOISY,
                          scheme=TopN(1), max_sequences=40, seed=17)
        out = run_trial(cfg)
        assert len(out.trajectory) >= 3
        for prev, cur in zip(out.trajectory, out.trajectory[1:]):
            queried = int(np.argmax(resolve_queried(TopN(1), prev.probs)))
            p, x = prev.probs, cur.probs
            ref = (x[queried] - 1) / (p[queried] - 1)
            for j in range(4):
                if j != queried:
                    assert abs(x[j] / p[j] - ref) <= 1e-9

    def test_mean_trajectory_contracts_toward_center_line(self):
        # averaged over many trials, the distance to the true class's
        # center line shrinks once evidence accumulates
        model = NOISY
        n_trials, s_max = 1000, 12
        dists = np.zeros(s_max + 1)
        for t in range(n_trials):
            cfg = TrialConfig(prior=sp([0.42, 0.55, 0.03]), true_index=0,
                              rule=calibrate("M1", 1.0, 3), model=model,
                              max_sequences=s_max, seed=99, trial_index=t)
            out = run_trial(cfg)
            for s, point in enumerate(out.trajectory):
                dists[s] += center_line_distance(point, 0)
        dists /= n_trials
        assert np.all(np.diff(dists) <= 1e-3)


class TestConfigValidation:
    def test_rejects_bad_configs(self):
        rule = calibrate("M1", 0.8, 3)
        prior = sp([0.5, 0.3, 0.2])
        with pytest.raises(ValueError):
            TrialConfig(prior=prior, true_index=5, rule=rule, model=NOISY)
        with pytest.raises(ValueError):
            TrialConfig(prior=sp([0.5, 0.5]), true_index=0, rule=rule, model=NOISY)
        with pytest.raises(ValueError):
            TrialConfig(prior=prior, true_index=0, rule=rule, model=NOISY,
                        max_sequences=0)
        with pytest.raises(ValueError):
            TrialConfig(prior=prior, true_index=0, rule=rule, model=NOISY,
                        scheme=TopN(7))
        with pytest.raises(ValueError):
            EvidenceModel(0.5, -0.1, 0.0, 0.5)
        with pytest.raises(ValueError, match="seed"):
            TrialConfig(prior=prior, true_index=0, rule=rule, model=NOISY, seed=-1)

    def test_rejects_seed_beyond_64_bits(self):
        with pytest.raises(ValueError, match="seed"):
            TrialConfig(prior=sp([0.5, 0.3, 0.2]), true_index=0,
                        rule=calibrate("M1", 0.8, 3), model=NOISY, seed=2**64)

    def test_rejects_negative_trial_index(self):
        with pytest.raises(ValueError, match="trial_index"):
            TrialConfig(prior=sp([0.5, 0.3, 0.2]), true_index=0,
                        rule=calibrate("M1", 0.8, 3), model=NOISY, trial_index=-1)

    @pytest.mark.parametrize("key", ["mu_pos", "c_pos", "mu_neg", "c_neg"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_channels(self, key, value):
        params = dict(mu_pos=0.6, c_pos=0.5, mu_neg=0.0, c_neg=0.5)
        with pytest.raises(ValueError, match=key):
            EvidenceModel(**{**params, key: value})

    @pytest.mark.parametrize("family, alpha", [("M1", None), ("M2", None), ("M2", 5.0)])
    def test_largest_channels_stay_finite(self, family, alpha):
        # channels just inside the bound run a full, never-stopping horizon
        # with every state finite; twice the bound is rejected
        rule = calibrate(family, 1.0, 3, alpha=alpha)
        factor = max(2.0, alpha or 0.0)
        limit = np.finfo(float).max / (2.0 * factor * 15.0 * 21)
        for mu_pos, mu_neg in ((limit, -limit), (-limit, limit)):
            cfg = TrialConfig(prior=sp([0.5, 0.5, 1e-300]), true_index=0, rule=rule,
                              model=EvidenceModel(mu_pos, limit, mu_neg, limit),
                              max_sequences=20, seed=3)
            with np.errstate(over="raise", invalid="raise"):
                out = run_trial(cfg)
            assert out.stopped_at is None and len(out.trajectory) == 21
        with pytest.raises(ValueError, match="c_neg must be at most"):
            TrialConfig(prior=sp([0.5, 0.5, 1e-300]), true_index=0, rule=rule,
                        model=EvidenceModel(0.0, 0.0, 0.0, 2.0 * limit), max_sequences=20)
