"""Analytic stopping bounds: special function, thresholds, probabilities."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rbc_stoplab.bounds import (
    RULE_KINDS,
    BoundQuery,
    _false_ratio,
    erf,
    false_stop_probability,
    min_sequences_constant_evidence,
    stop_probability_lognormal,
    stop_ratio_constant,
    verify_prop5_ordering,
)
from rbc_stoplab.criteria import (
    calibrate,
    in_stop_region,
    rule_statistic,
    stop_cutoff,
    stop_statistic,
)
from rbc_stoplab.engine import EvidenceModel
from rbc_stoplab.montecarlo import ExperimentConfig, run_experiment, trajectory_ensemble
from rbc_stoplab.simplex import SimplexPoint


def sp(values):
    return SimplexPoint.from_probs(values)


class TestErf:
    def test_against_high_precision_oracle(self):
        xs = np.concatenate([np.linspace(-6, 6, 4001), [-0.5, 0.25, 3.7]])
        ours = erf(xs)
        exact = np.array([float(mpmath.erf(x)) for x in xs])
        assert np.max(np.abs(ours - exact)) <= 1.5e-7

    def test_zero(self):
        assert erf(0.0) == 0.0

    def test_odd_symmetry_exact(self):
        for x in (0.1, 0.77, 2.5, 9.0):
            assert erf(-x) == -erf(x)

    def test_known_values(self):
        assert erf(1.0) == pytest.approx(0.8427008, abs=1.5e-7)
        # high-precision value is -0.8510771; the figure -0.8513 seen in
        # rounded references is itself off by ~2e-4
        assert erf(-1.0206) == pytest.approx(float(mpmath.erf(-1.0206)), abs=1.5e-7)
        assert erf(-1.0206) == pytest.approx(-0.8513, abs=3e-4)

    def test_scalar_and_array_types(self):
        assert isinstance(erf(0.3), float)
        out = erf(np.array([0.0, 1.0]))
        assert isinstance(out, np.ndarray) and out.shape == (2,)


def first_stop_by_recursion(prior, true_index, eps, stops) -> int:
    """Independent oracle: linear-domain recursion until `stops` fires."""
    p = np.asarray(prior, dtype=float).copy()
    for s in range(1, 10_000):
        p[true_index] *= eps
        p /= p.sum()
        if stops(p):
            return s
    raise AssertionError("recursion oracle never stopped")


class TestConstantEvidenceThreshold:
    def test_confidence_example(self):
        q = BoundQuery(sp([0.5, 0.5]), 0, 1, 0.8, rule_kind="M1")
        shat = min_sequences_constant_evidence(q, 2.0)
        assert shat == pytest.approx(2.0, abs=1e-12)
        oracle = first_stop_by_recursion([0.5, 0.5], 0, 2.0,
                                         lambda p: p[0] > 0.8)
        assert oracle == 3  # the threshold itself is hit exactly, strictness defers
        assert oracle == math.floor(shat) + 1

    def test_gap_example(self):
        q = BoundQuery(sp([0.5, 0.3, 0.2]), 0, 1, 0.8, rule_kind="MP")
        assert stop_ratio_constant(q) == pytest.approx(3.0, abs=1e-12)
        shat = min_sequences_constant_evidence(q, 2.0)
        assert shat == pytest.approx(math.log2(3.0), abs=1e-12)

        def gap_stop(p):
            srt = np.sort(p)
            return srt[-1] - srt[-2] > 0.6

        oracle = first_stop_by_recursion([0.5, 0.3, 0.2], 0, 2.0, gap_stop)
        assert oracle == 2 == math.floor(shat) + 1

    def test_threshold_vanishes_as_tau_meets_prior(self):
        prior = sp([0.5, 0.5])
        for tau in (0.51, 0.501, 0.5001):
            q = BoundQuery(prior, 0, 1, tau, rule_kind="M1")
            assert 0 < min_sequences_constant_evidence(q, 2.0) < 0.06

    def test_generic_grid_matches_recursion(self):
        # the closed form concerns the true class's own stop region, so the
        # oracle checks p_true against the rest (not whichever class leads)
        rng = np.random.default_rng(41)
        cases = 0
        while cases < 20:
            n = int(rng.integers(2, 6))
            raw = rng.dirichlet(np.ones(n))
            true_index = int(np.argmin(raw))  # keep p1 modest so stops take a while
            others = [i for i in range(n) if i != true_index]
            competitor = max(others, key=lambda i: raw[i])
            tau = float(rng.uniform(0.6, 0.9))
            eps = float(rng.uniform(1.3, 4.0))
            prior = sp(raw)
            for kind in ("M1", "MP"):
                q = BoundQuery(prior, true_index, competitor, tau, rule_kind=kind)
                shat = min_sequences_constant_evidence(q, eps)
                if abs(shat - round(shat)) < 1e-6:
                    continue  # avoid knife-edge grid cases

                if kind == "M1":
                    stops = lambda p: p[true_index] > tau
                else:
                    stops = lambda p: (
                        p[true_index] - max(p[i] for i in others) > 2 * tau - 1)

                oracle = first_stop_by_recursion(raw, true_index, eps, stops)
                assert oracle == math.floor(shat) + 1
                cases += 1

    def test_norm_rule_requires_strong_tau(self):
        q = BoundQuery(sp([0.5, 0.3, 0.2]), 0, 1, 0.45, rule_kind="M2norm")
        with pytest.raises(ValueError):
            min_sequences_constant_evidence(q, 2.0)

    def test_eps_domain(self):
        q = BoundQuery(sp([0.5, 0.5]), 0, 1, 0.8, rule_kind="M1")
        with pytest.raises(ValueError):
            min_sequences_constant_evidence(q, 1.0)


class TestLognormalStopProbability:
    def test_hand_example(self):
        q = BoundQuery(sp([0.5, 0.5]), 0, 1, 0.8, mu=0.6, c=0.5, s=5, rule_kind="M1")
        got = stop_probability_lognormal(q)
        # oracle recomputation with the high-precision error function
        arg = (math.log(4.0) - 5 * 0.6) / (math.sqrt(10.0) * 0.5)
        exact = 0.5 - 0.5 * float(mpmath.erf(arg))
        assert got == pytest.approx(exact, abs=2e-7)
        assert got == pytest.approx(0.9257, abs=5e-4)

    def test_limits(self):
        prior = sp([0.5, 0.5])
        big_s = BoundQuery(prior, 0, 1, 0.8, mu=0.6, c=0.5, s=5000, rule_kind="M1")
        assert stop_probability_lognormal(big_s) == pytest.approx(1.0, abs=1e-9)
        # zero drift with the ratio at one gives one half (up to the
        # approximation's ~1e-9 error floor near the origin)
        q = BoundQuery(sp([0.8, 0.2]), 0, 1, 0.8, mu=0.0, c=0.5, s=7, rule_kind="M1")
        assert stop_ratio_constant(q) == pytest.approx(1.0, abs=1e-12)
        assert stop_probability_lognormal(q) == pytest.approx(0.5, abs=1e-8)

    def test_monotone_in_s_and_mu(self):
        prior = sp([0.4, 0.3, 0.3])
        vals = [stop_probability_lognormal(
            BoundQuery(prior, 0, 1, 0.8, mu=0.5, c=0.5, s=s, rule_kind="M1"))
            for s in range(1, 25)]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
        by_mu = [stop_probability_lognormal(
            BoundQuery(prior, 0, 1, 0.8, mu=mu, c=0.5, s=5, rule_kind="M1"))
            for mu in (0.2, 0.4, 0.8, 1.2)]
        assert all(b >= a for a, b in zip(by_mu, by_mu[1:]))

    def test_noise_hurts_true_positive_helps_false_alarm(self):
        prior = sp([0.5, 0.3, 0.2])
        tps = [stop_probability_lognormal(
            BoundQuery(prior, 0, 1, 0.8, mu=0.8, c=c, s=5, rule_kind="M1"))
            for c in (0.2, 0.4, 0.8, 1.2)]
        assert all(b <= a for a, b in zip(tps, tps[1:]))
        fas = [false_stop_probability(
            BoundQuery(prior, 0, 1, 0.55, mu=0.8, c=c, s=5), "M1")
            for c in (0.2, 0.4, 0.8, 1.2)]
        assert all(b >= a for a, b in zip(fas, fas[1:]))

    def test_against_monte_carlo(self):
        rng = np.random.default_rng(43)
        prior = sp([0.5, 0.3, 0.2])
        draws = rng.standard_normal((100_000, 10))
        sums = np.cumsum(draws, axis=1)
        for tau in (0.7, 0.9):
            for kind in ("M1", "MP"):
                for s in (1, 5, 10):
                    q = BoundQuery(prior, 0, 1, tau, mu=0.6, c=0.5, s=s,
                                   rule_kind=kind)
                    analytic = stop_probability_lognormal(q)
                    log_prod = s * 0.6 + 0.5 * sums[:, s - 1]
                    mc = float(np.mean(log_prod > math.log(stop_ratio_constant(q))))
                    assert abs(analytic - mc) <= 0.01


def region_share(paths, s, leader, rule):
    """Share of ``paths`` whose state after ``s`` sequences has class
    ``leader`` in the lead and lies in ``rule``'s stop region."""
    log_state = np.log(paths[:, s])
    return np.mean((log_state.argmax(1) == leader)
                   & in_stop_region(rule, stop_statistic(rule, log_state)))


class TestHarnessAgainstBounds:
    """With the negative channel off (``mu_neg = c_neg = 0``) the harness
    runs the bounds' model: only the true class gets lognormal evidence.
    The share of its paths in the true class's stop region after ``s``
    sequences, and in the competitor's, must then match the closed forms.

    The bound is 5 binomial standard errors of the predicted share over
    ``PATHS`` paths.  45 comparisons are made (36 for the true class, 9 for
    the competitor); at 5 standard errors a correct program fails one of
    them with probability about 45 * 6e-7 under the normal approximation,
    and at most about 1e-4 at the grid's extreme shares (0.0007 and
    0.9997), where the counts are Poisson-like.  At the grid's central
    shares 5 standard errors are under 0.018, so a wrong channel, cutoff or
    region moves the share past it.  The seed is the config's default, 0,
    fixed before the first run.
    """

    PATHS = 20_000

    def ensemble(self, prior, mu, c, max_sequences):
        cfg = ExperimentConfig(n=prior.n, prior=prior, tau=0.7, methods=("M1",),
                               model=EvidenceModel(mu, c, 0.0, 0.0),
                               max_sequences=max_sequences)
        return trajectory_ensemble(cfg, n_paths=self.PATHS).paths

    def assert_within_noise(self, share, predicted, case):
        se = math.sqrt(predicted * (1.0 - predicted) / self.PATHS)
        assert abs(share - predicted) <= 5.0 * se, (*case, share, predicted)

    @pytest.mark.parametrize("mu, c", [(0.6, 0.5), (0.3, 0.6), (0.0, 1.0)])
    def test_stop_region_share_matches_the_closed_form(self, mu, c):
        prior = sp([0.5, 0.3, 0.2])
        paths = self.ensemble(prior, mu, c, 10)
        for s in (1, 5, 10):
            for tau in (0.7, 0.9):
                for kind in ("M1", "MP"):
                    share = region_share(paths, s, 0, calibrate(kind, tau, 3))
                    predicted = stop_probability_lognormal(
                        BoundQuery(prior, 0, 1, tau, mu=mu, c=c, s=s, rule_kind=kind))
                    self.assert_within_noise(share, predicted, (s, tau, kind))

    def test_competitor_region_share_matches_the_closed_form(self):
        # the competitor leads in its stop region only when the true class's
        # evidence product falls below the variant's ratio k'
        prior, tau, mu, c = sp([0.3, 0.6, 0.1]), 0.6, 0.3, 0.6
        paths = self.ensemble(prior, mu, c, 8)
        for s in (1, 4, 8):
            for kind in ("M1", "MP", "M1bar"):
                share = region_share(paths, s, 1, calibrate(kind, tau, 3))
                predicted = false_stop_probability(
                    BoundQuery(prior, 0, 1, tau, mu=mu, c=c, s=s), kind)
                self.assert_within_noise(share, predicted, (s, kind))

    def test_prop5_orderings_hold_on_the_harness_shares(self):
        # calibrate nests the stop regions of M1, MP and M1bar, so the
        # orderings verify_prop5_ordering reports of the closed forms hold
        # path by path, and the harness's shares keep them with no noise
        prior, tau, mu, c = sp([0.3, 0.6, 0.1]), 0.6, 0.3, 0.6
        paths = self.ensemble(prior, mu, c, 8)
        s_values = range(1, 9)
        assert verify_prop5_ordering(BoundQuery(prior, 0, 1, tau, mu=mu, c=c), s_values).ok
        for s in s_values:
            tp_m1, tp_mp = (region_share(paths, s, 0, calibrate(kind, tau, 3))
                            for kind in ("M1", "MP"))
            fa_m1, fa_mp, fa_m1bar = (region_share(paths, s, 1, calibrate(kind, tau, 3))
                                      for kind in ("M1", "MP", "M1bar"))
            assert tp_mp >= tp_m1, (s, tp_m1, tp_mp)
            assert fa_m1 <= fa_mp <= fa_m1bar, (s, fa_m1, fa_mp, fa_m1bar)
            assert fa_m1bar > 0 and tp_m1 > 0, s

    def test_constant_evidence_first_stop_is_the_closed_form(self):
        # c = 0: every trial multiplies the true class by eps each sequence,
        # so run_experiment's first stop is the smallest s >= 0 strictly above
        # min_sequences_constant_evidence (0 below zero or at -inf).  The
        # comparisons are strict: at an integer threshold m the statistic
        # meets its cutoff at s = m in exact arithmetic, so the stop comes at
        # m + 1, and floor(threshold) + 1 says so.  Which side of its cutoff a
        # rounded statistic lands on would then decide the case, so the grid
        # holds no threshold within 1e-9 of an integer, and that is asserted
        # rather than any case dropped: all 54 are checked.  No other class
        # starts in a stop region, and the others only shrink, so each stop is
        # the true class's and correct.
        priors = [[0.5, 0.28, 0.22], [0.25, 0.4, 0.35], [0.15, 0.35, 0.3, 0.2]]
        cases = 0
        for probs in priors:
            prior = sp(probs)
            competitor = 1 + int(np.argmax(probs[1:]))
            for eps in (1.3, 2.0, 3.7):
                for tau in (0.6, 0.75, 0.9):
                    cfg = ExperimentConfig(n=len(probs), prior=prior, tau=tau,
                                           methods=("M1", "MP"),
                                           model=EvidenceModel(math.log(eps), 0.0, 0.0, 0.0),
                                           n_trials=1, max_sequences=40)
                    result = run_experiment(cfg)
                    for row, kind in enumerate(cfg.methods):
                        threshold = min_sequences_constant_evidence(
                            BoundQuery(prior, 0, competitor, tau, rule_kind=kind), eps)
                        case = (probs, eps, tau, kind, threshold)
                        if threshold < 0:
                            expected = 0
                        else:
                            assert abs(threshold - round(threshold)) > 1e-9, case
                            expected = math.floor(threshold) + 1
                        assert result.first_stop[row, 0] == expected, case
                        assert result.stop_correct[row, 0], case
                        cases += 1
        assert cases == 54


class TestFalseStopProbability:
    def test_weak_competitor_gives_zero(self):
        # competitor mass below (1 - p1) tau makes the event impossible
        q = BoundQuery(sp([0.6, 0.3, 0.1]), 0, 1, 0.8, mu=0.5, c=0.5, s=3)
        assert false_stop_probability(q, "M1") == 0.0

    def test_ratio_difference_identity(self):
        # k'_MP - k'_M1 = (1 - p1 - p2) / (2 tau p1)
        q = BoundQuery(sp([0.4, 0.5, 0.1]), 0, 1, 0.8)
        from rbc_stoplab.bounds import _false_ratio
        diff = _false_ratio(q, "MP") - _false_ratio(q, "M1")
        assert diff == pytest.approx(0.1 / 0.64, abs=1e-12)
        assert diff == pytest.approx(0.15625, abs=1e-12)

    def test_two_class_boundary_identity(self):
        from rbc_stoplab.bounds import _false_ratio
        q = BoundQuery(sp([0.35, 0.65]), 0, 1, 0.8)
        assert _false_ratio(q, "M1bar") == pytest.approx(_false_ratio(q, "MP"),
                                                         abs=1e-12)

    def test_against_monte_carlo(self):
        rng = np.random.default_rng(47)
        prior = sp([0.3, 0.6, 0.1])
        draws = rng.standard_normal((100_000, 8))
        sums = np.cumsum(draws, axis=1)
        from rbc_stoplab.bounds import _false_ratio
        for s in (1, 4, 8):
            q = BoundQuery(prior, 0, 1, 0.6, mu=0.3, c=0.6, s=s)
            for variant in ("M1", "MP", "M1bar"):
                kp = _false_ratio(q, variant)
                analytic = false_stop_probability(q, variant)
                log_prod = s * 0.3 + 0.6 * sums[:, s - 1]
                mc = float(np.mean(log_prod < math.log(kp))) if kp > 0 else 0.0
                assert abs(analytic - mc) <= 0.01


class TestRatioIdentities:
    def test_gap_ratio_below_confidence_ratio(self):
        # k1 - k2 = (1 - p1 - p2) / (2 (1 - tau) p1), nonnegative
        rng = np.random.default_rng(53)
        for _ in range(300):
            raw = rng.dirichlet(np.ones(4))
            tau = float(rng.uniform(0.55, 0.95))
            order = np.argsort(-raw)
            ti, ci = int(order[1]), int(order[0])
            prior = sp(raw)
            k1 = stop_ratio_constant(BoundQuery(prior, ti, ci, tau, rule_kind="M1"))
            k2 = stop_ratio_constant(BoundQuery(prior, ti, ci, tau, rule_kind="MP"))
            p1, p2 = raw[ti], raw[ci]
            expected = (1 - p1 - p2) / (2 * (1 - tau) * p1)
            assert k1 - k2 == pytest.approx(expected, rel=1e-10)
            assert k2 <= k1 + 1e-12

    def test_universal_false_ratio_orderings(self):
        # gap-rule ratio always dominates the confidence ratio, and the
        # lowered-confidence ratio always dominates the confidence ratio
        from rbc_stoplab.bounds import _false_ratio
        rng = np.random.default_rng(59)
        for _ in range(500):
            n = int(rng.integers(3, 12))
            raw = rng.dirichlet(np.ones(n))
            order = np.argsort(-raw)
            ti, ci = int(order[-1]), int(order[0])
            tau = float(rng.uniform(0.51, 0.99))
            q = BoundQuery(sp(raw), ti, ci, tau)
            assert _false_ratio(q, "M1") <= _false_ratio(q, "MP") + 1e-12
            assert _false_ratio(q, "M1") <= _false_ratio(q, "M1bar") + 1e-12

    def test_false_ratio_ordering_with_dominant_competitor(self):
        # the full chain k_M1 <= k_MP <= k_M1bar needs the competitor to
        # carry most of the non-true mass: p2 >= (1-p1) A / (n + 2 tau - 2)
        # with A = (n-1)(2 tau - 1) + 1
        from rbc_stoplab.bounds import _false_ratio
        p1 = 0.5
        p2 = 0.98 * (1 - p1)
        for n in (3, 5, 10, 20):
            probs = np.concatenate([[p1, p2], np.full(n - 2, (1 - p1 - p2) / (n - 2))])
            prior = sp(probs)
            for tau in (0.55, 0.7, 0.85, 0.95):
                a = (n - 1) * (2 * tau - 1) + 1
                assert p2 >= (1 - p1) * a / (n + 2 * tau - 2) - 1e-12
                q = BoundQuery(prior, 0, 1, tau)
                k1 = _false_ratio(q, "M1")
                k2 = _false_ratio(q, "MP")
                k3 = _false_ratio(q, "M1bar")
                assert k1 <= k2 + 1e-12
                assert k2 <= k3 + 1e-12

    def test_ordering_gap_counterexample_with_weak_competitor(self):
        # documents why the chain above is conditional: a competitor with
        # only a modest share breaks k_MP <= k_M1bar even though it still
        # satisfies p2 >= (1 - p1) tau
        from rbc_stoplab.bounds import _false_ratio
        q = BoundQuery(sp([0.5, 0.36, 0.14]), 0, 1, 0.7)
        assert 0.36 >= (1 - 0.5) * 0.7
        assert _false_ratio(q, "M1bar") < _false_ratio(q, "MP")


class TestOrderingReport:
    def test_reference_configuration_clean(self):
        q = BoundQuery(sp([0.5, 0.3, 0.2]), 0, 1, 0.8, mu=0.8, c=0.6)
        report = verify_prop5_ordering(q, range(1, 21))
        assert report.ok
        assert len(report.s_values) == 20

    def test_degenerate_high_tau(self):
        q = BoundQuery(sp([0.5, 0.3, 0.2]), 0, 1, 1.0 - 1e-9, mu=0.8, c=0.6)
        report = verify_prop5_ordering(q, range(1, 6))
        assert report.ok
        assert all(tp <= 1e-6 for tp in report.tp_m1)

    def test_symmetric_single_round_strict(self):
        q = BoundQuery(sp([0.5, 0.3, 0.2]), 0, 1, 0.8, mu=0.0, c=0.6)
        report = verify_prop5_ordering(q, [1])
        assert report.ok
        assert report.tp_mp[0] > report.tp_m1[0]


class TestQueryValidation:
    def test_rejects_bad_queries(self):
        prior = sp([0.5, 0.3, 0.2])
        with pytest.raises(ValueError):
            BoundQuery(prior, 0, 0, 0.8)
        with pytest.raises(ValueError):
            BoundQuery(prior, 0, 5, 0.8)
        with pytest.raises(ValueError):
            BoundQuery(prior, 0, 1, 0.2)
        with pytest.raises(ValueError):
            BoundQuery(prior, 0, 1, 0.8, s=0)
        with pytest.raises(ValueError):
            BoundQuery(prior, 0, 1, 0.8, rule_kind="bogus")

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_mu(self, value):
        with pytest.raises(ValueError, match="mu must be finite"):
            BoundQuery(sp([0.5, 0.3, 0.2]), 0, 1, 0.8, mu=value)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rejects_non_finite_c(self, value):
        with pytest.raises(ValueError, match="c must be finite"):
            BoundQuery(sp([0.5, 0.3, 0.2]), 0, 1, 0.8, c=value)


def exact_tail(k, q, above):
    """High-precision probability that the lognormal product lies above
    (or below) ``k``."""
    if k <= 0.0:
        return 1.0 if above else 0.0
    with mpmath.workdps(50):
        arg = (mpmath.log(k) - q.s * mpmath.mpf(q.mu)) / (mpmath.sqrt(2 * q.s) * q.c)
        return float(0.5 * mpmath.erfc(arg if above else -arg))


class TestTailsMatchHighPrecision:
    def test_against_mpmath_erfc(self):
        # the T2 prior: several tails fall to 1e-12 and below, where a
        # five-term erf approximation is off by over 0.5% in relative terms
        prior = sp([0.42, 0.55, 0.03])
        for s in range(1, 21):
            for kind in RULE_KINDS:
                q = BoundQuery(prior, 0, 1, 0.8, mu=0.6, c=0.5, s=s, rule_kind=kind)
                exact = exact_tail(stop_ratio_constant(q), q, above=True)
                assert stop_probability_lognormal(q) == pytest.approx(exact, rel=1e-12, abs=0)
            for variant in ("M1", "MP", "M1bar"):
                exact = exact_tail(_false_ratio(q, variant), q, above=False)
                assert false_stop_probability(q, variant) == pytest.approx(
                    exact, rel=1e-12, abs=0)


def anchored_tau(kind, n, u):
    """A tau in (1/n, 1); below 1/2 the gap and lowered-confidence rules stop
    everywhere, so they draw from (1/2, 1)."""
    lo = 1.0 / n if kind == "M1" else 0.5
    return lo + (1.0 - lo) * u


def scaled(probs, i, factor):
    """The posterior after the evidence ``factor`` on class ``i``."""
    w = np.array(probs)
    w[i] *= factor
    return sp(w)


class TestRatiosMatchCriteria:
    """The ratios that ``bounds`` derives bracket the stop regions that
    ``criteria`` tests: an evidence product just above (or below) the ratio
    lands inside the region, one just below (or above) it outside."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.sampled_from(("M1", "MP", "M1bar")), st.integers(2, 8),
           st.floats(0.001, 0.999), st.lists(st.floats(0.01, 1.0), min_size=8, max_size=8),
           st.integers(0, 7))
    def test_true_class_ratio(self, kind, n, u, weights, true_index):
        tau = anchored_tau(kind, n, u)
        rule = calibrate(kind, tau, n)
        probs = np.array(weights[:n]) / sum(weights[:n])
        # pull the prior toward the center, which lies outside the region
        while in_stop_region(rule, rule_statistic(rule, sp(probs))):
            probs = 0.5 * (probs + 1.0 / n)
        ti = true_index % n
        ci = max((i for i in range(n) if i != ti), key=lambda i: probs[i])
        k = stop_ratio_constant(BoundQuery(sp(probs), ti, ci, tau, rule_kind=kind))
        for factor, inside in ((1.0 + 1e-9, True), (1.0 - 1e-9, False)):
            post = scaled(probs, ti, k * factor)
            assert bool(in_stop_region(rule, rule_statistic(rule, post))) is inside

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.sampled_from(("M1", "M1bar")), st.integers(2, 8), st.floats(0.001, 0.999),
           st.floats(0.05, 0.9), st.floats(0.1, 1.0),
           st.lists(st.floats(0.01, 1.0), min_size=6, max_size=6))
    def test_competitor_ratio(self, kind, n, u, p1, share, weights):
        # the competitor holds more than the cutoff's share of the non-true
        # mass, so weak enough true-class evidence lets it stop
        tau = anchored_tau(kind, n, u)
        rule = calibrate(kind, tau, n)
        t = stop_cutoff(rule)
        rest = np.array(weights[:n - 2]) / sum(weights[:n - 2]) if n > 2 else np.zeros(0)
        p2 = (1.0 - p1) * (t + (1.0 - t) * share) if n > 2 else 1.0 - p1
        probs = np.concatenate([[p1, p2], (1.0 - p1 - p2) * rest])
        kp = _false_ratio(BoundQuery(sp(probs), 0, 1, tau), kind)
        assert kp > 0.0
        for factor, inside in ((1.0 - 1e-9, True), (1.0 + 1e-9, False)):
            post = scaled(probs, 0, kp * factor)
            assert bool(in_stop_region(rule, post.probs[1])) is inside
