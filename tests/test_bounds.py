"""Analytic stopping bounds: special function, thresholds, probabilities."""

import math
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rbc_stoplab import bounds
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
from rbc_stoplab.engine import Broadcast, EvidenceModel, TopN, TrialConfig, run_trial
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


def first_passage(l0, laws, bound, sequences, check_prior, cells):
    """P(first stop = s) and P(first stop = s, correct) for s = 0 to
    ``sequences``, of a walk from ``l0`` that stops once |L| > ``bound``,
    correctly above it.  A step from L adds N(drift, var) of ``laws[0]``
    where L >= 0 and of ``laws[1]`` where L < 0.

    The walk on (-bound, bound) is held as ``cells`` cell masses; ``cells``
    is even, so a grid edge sits at 0 and each cell takes one law.  The
    first step runs from the point ``l0``; later steps move each cell's
    mass from the cell's midpoint, so the masses carry an O(h**2) error.
    """
    def tails(law):  # P(step > x) and P(step < x)
        drift, var = law
        scale = math.sqrt(2.0 * var)  # the step's sd times sqrt(2), as erfc takes it
        return (lambda x: 0.5 * math.erfc((x - drift) / scale),
                lambda x: 0.5 * math.erfc((drift - x) / scale))

    stop, right = np.zeros(sequences + 1), np.zeros(sequences + 1)
    if check_prior and abs(l0) > bound:
        stop[0], right[0] = 1.0, float(l0 > 0)
        return stop, right
    assert cells % 2 == 0
    h = 2.0 * bound / cells
    edges = -bound + h * np.arange(cells + 1)
    above, below = tails(laws[l0 < 0])
    tail = np.array([above(e - l0) for e in edges])
    mass = tail[:-1] - tail[1:]
    right[1] = above(bound - l0)
    stop[1] = right[1] + below(-bound - l0)
    mids = edges[:-1] + h / 2
    sides = [mids >= 0, mids < 0]
    up, down, kernels = np.zeros(cells), np.zeros(cells), []
    for law, side in zip(laws, sides):
        above, below = tails(law)
        # the mass a midpoint moves to the cell d cells on, d = 1 - cells to cells - 1
        tail = np.array([above((k - cells + 0.5) * h) for k in range(2 * cells)])
        kernels.append(tail[:-1] - tail[1:])
        up[side] = [above(bound - x) for x in mids[side]]
        down[side] = [below(-bound - x) for x in mids[side]]
    for s in range(2, sequences + 1):
        right[s] = mass @ up
        stop[s] = right[s] + mass @ down
        mass = sum(np.convolve(np.where(side, mass, 0.0), kernel)[cells - 1:2 * cells - 1]
                   for side, kernel in zip(sides, kernels))
    return stop, right


def _log_sigmoid(y):
    return -np.logaddexp(0.0, -y)


def bernoulli_kl_bits(after, before):
    """KL(Bernoulli(sigma(after)) || Bernoulli(sigma(before))) in bits: M5's
    statistic at n = 2 between log-odds ``after`` and ``before``."""
    p = np.exp(_log_sigmoid(after))
    return (p * (_log_sigmoid(after) - _log_sigmoid(before))
            + (1.0 - p) * (_log_sigmoid(-after) - _log_sigmoid(-before))) / math.log(2.0)


def kl_stop_interval(x, cutoff, reach=200.0):
    """The ends ``(a, b)`` of the log-odds that stop M5 after log-odds ``x``
    (an array): the statistic is 0 at ``x`` and grows on each side of it, so
    its stop set is an interval, unbounded on a side whose limit, -log2 of
    sigma(+-x), lies below ``cutoff``.  Each end is found by bisection."""
    ends = []
    for sign in (-1.0, 1.0):
        near, out = x.copy(), x + sign * reach
        unbounded = bernoulli_kl_bits(out, x) < cutoff
        for _ in range(200):
            mid = 0.5 * (near + out)
            inside = bernoulli_kl_bits(mid, x) < cutoff
            near, out = np.where(inside, mid, near), np.where(inside, out, mid)
        ends.append(np.where(unbounded, sign * np.inf, near))
    return ends


def kl_first_passage(l0, law, cutoff, sequences, check_prior, cells, span=(-14.0, 22.0)):
    """P(first stop = s) and P(first stop = s, correct) for s = 0 to
    ``sequences`` of M5 on a walk from ``l0`` with steps N(drift, var) of
    ``law``, and the mass that left ``span`` unstopped.

    M5 stops at s when L_s lies in :func:`kl_stop_interval` of L_{s-1},
    correctly when L_s > 0; its first evaluation, at s = 0 with
    ``check_prior`` and at s = 1 without, compares with nothing.  So a
    source point x moves to a cell the masses of the step's law over the
    cell less its overlap with x's interval, and stops with the law's mass
    over the interval: differences of ``math.erfc`` values.  The walk on
    ``span`` is held as ``cells`` cell masses; the first step runs from the
    point ``l0``, later ones from each cell's midpoint (an O(h**2) error).
    """
    drift, var = law
    scale = math.sqrt(2.0 * var)
    cdf = np.vectorize(lambda x: 0.5 * math.erfc((drift - x) / scale))  # P(step < x)
    h = (span[1] - span[0]) / cells
    edges = span[0] + h * np.arange(cells + 1)

    def step(points, below):
        """Stop, correct-stop and per-cell onward masses from ``points``, of
        which ``below`` holds P(step < edge - point) at every edge: the
        overlap with an interval (a, b) clips those to [P(< a), P(< b)]."""
        a, b = kl_stop_interval(points, cutoff)
        fa, fb, f0 = cdf(a - points), cdf(b - points), cdf(-points)
        onward = np.diff(below) - np.diff(np.clip(below, fa[:, None], fb[:, None]))
        return fb - fa, np.maximum(fb - np.maximum(fa, f0), 0.0), onward

    # P(step < edge - midpoint) depends on the edge's offset from the cell
    table = cdf((np.arange(-cells, cells + 2) - 0.5) * h)
    stops, rights, moves = np.empty(cells), np.empty(cells), np.empty((cells, cells))
    for lo in range(0, cells, 256):
        i = np.arange(lo, min(cells, lo + 256))
        stops[i], rights[i], moves[i] = step(edges[i] + h / 2,
                                             table[np.arange(cells + 1) - i[:, None] + cells])
    stop, right = np.zeros(sequences + 1), np.zeros(sequences + 1)
    below = cdf(edges - l0)[None]
    if check_prior:
        (stop[1],), (right[1],), (mass,) = step(np.array([l0]), below)
    else:
        mass = np.diff(below[0])
    left = 1.0 - stop[1] - mass.sum()
    for s in range(2, sequences + 1):
        stop[s], right[s] = mass @ stops, mass @ rights
        left += mass @ (1.0 - stops - moves.sum(1))
        mass = mass @ moves
    return stop, right, left


class TestFirstPassage:
    """At n = 2, the log-odds L = log p_true - log p_other is a Gaussian
    random walk.  Under broadcast querying each sequence adds N(mu_pos -
    mu_neg, c_pos**2 + c_neg**2).  Under top-1 querying only the leader is
    queried (the true class on a tie), so the step depends on the sign of
    L: N(mu_pos, c_pos**2) when L >= 0, and -N(mu_neg, c_neg**2) when L <
    0.  M1 stops once |L| > logit(tau), correctly when L > 0 there, so its
    whole first-passage law follows from a 1-D Chapman-Kolmogorov
    recursion (:func:`first_passage`).  M5 stops on the pair (L_{s-1},
    L_s), so its recursion moves mass between grid cells by a matrix
    (:func:`kl_first_passage`); its run_trial check makes each M5 call right
    after an M1 call on the same trial, so that it is answered from the
    kept path or extends it.

    The share of trials that first stop at each s, and first stop
    correctly there, must lie within 5 binomial standard errors of the
    oracle's plus one trial, and equal it where the oracle gives 0 or 1.
    2 curves of 13 points over 4 priors make 104 comparisons per test; at
    5 standard errors a correct program fails one with probability about
    104 * 6e-7 where the normal approximation holds.  The extra trial
    covers shares far below one trial, where the count is Poisson: the
    competitor-side prior stops correctly at s = 1 with probability 2e-7,
    so a single such trial of 5,000 reads 31 standard errors; the bound
    fails on two of 5,000 or three of 200,000, which come with probability
    5e-7 and 1e-5.  The grid
    error, the change from 1,100 cells to 2,200, must stay under a
    hundredth of each point's standard error.  The seed, 1, was fixed
    before the first run.
    """

    TAU, MODEL, SEQUENCES = 0.9, EvidenceModel(0.6, 0.8, 0.0, 0.5), 12

    def laws(self, scheme):
        m = self.MODEL
        if isinstance(scheme, TopN):
            return (m.mu_pos, m.c_pos ** 2), (-m.mu_neg, m.c_neg ** 2)
        law = (m.mu_pos - m.mu_neg, m.c_pos ** 2 + m.c_neg ** 2)
        return law, law

    def oracle(self, probs, check_prior, scheme, trials):
        l0 = math.log(probs[0]) - math.log(probs[1])
        args = (l0, self.laws(scheme), math.log(self.TAU / (1.0 - self.TAU)), self.SEQUENCES,
                check_prior)
        coarse, fine = first_passage(*args, 1100), first_passage(*args, 2200)
        for p, q in zip(coarse, fine):
            assert np.all(np.abs(p - q) <= 0.01 * np.sqrt(q * (1.0 - q) / trials))
        return fine

    def kl_oracle(self, probs, check_prior, scheme, trials):
        l0 = math.log(probs[0]) - math.log(probs[1])
        args = (l0, self.laws(scheme)[0], calibrate("M5", self.TAU, 2).threshold,
                self.SEQUENCES, check_prior)
        (*coarse, _), (*fine, left) = kl_first_passage(*args, 900), kl_first_passage(*args, 1800)
        for p, q in zip(coarse, fine):
            assert np.all(np.abs(p - q) <= 0.01 * np.sqrt(q * (1.0 - q) / trials))
        assert abs(left) < 1e-12
        return fine

    def assert_matches(self, first, correct, probs, check_prior, scheme=Broadcast(), family="M1"):
        trials = len(first)
        oracle = self.kl_oracle if family == "M5" else self.oracle
        stop, right = oracle(probs, check_prior, scheme, trials)
        for s in range(self.SEQUENCES + 1):
            at_s = first == s
            for share, p, what in ((at_s.mean(), stop[s], "stop"),
                                   ((at_s & correct).mean(), right[s], "correct stop")):
                bound = 5.0 * math.sqrt(p * (1.0 - p) / trials) + (0.0 < p < 1.0) / trials
                assert abs(share - p) <= bound, (probs, check_prior, s, what, share, p)

    def harness(self, probs, check_prior, scheme, family="M1"):
        cfg = ExperimentConfig(n=2, prior=sp(probs), tau=self.TAU, methods=(family,),
                               model=self.MODEL, scheme=scheme, n_trials=200_000,
                               max_sequences=self.SEQUENCES, master_seed=1,
                               check_prior=check_prior)
        result = run_experiment(cfg)
        self.assert_matches(result.first_stop[0], result.stop_correct[0], probs, check_prior,
                            scheme, family)

    def single_trials(self, probs, check_prior, scheme, family="M1"):
        # each trial's calls run M1 first, and the outcome of the last call counts
        rules = [calibrate(f, self.TAU, 2) for f in dict.fromkeys(("M1", family))]
        outcomes = [[run_trial(TrialConfig(prior=sp(probs), true_index=0, rule=rule,
                                           model=self.MODEL, scheme=scheme,
                                           max_sequences=self.SEQUENCES, seed=1, trial_index=t,
                                           check_prior=check_prior)) for rule in rules][-1]
                    for t in range(5000)]
        first = np.array([-1 if o.stopped_at is None else o.stopped_at for o in outcomes])
        self.assert_matches(first, np.array([bool(o.correct) for o in outcomes]), probs,
                            check_prior, scheme, family)

    # priors outside the stop region, inside it on the true class's side,
    # and inside it on the competitor's
    CASES = [([0.6, 0.4], True), ([0.95, 0.05], True), ([0.95, 0.05], False),
             ([0.04, 0.96], False)]

    @pytest.mark.parametrize("probs, check_prior", CASES)
    def test_harness_first_stops_follow_the_walk(self, probs, check_prior):
        self.harness(probs, check_prior, Broadcast())

    @pytest.mark.parametrize("probs, check_prior", CASES)
    def test_single_trial_first_stops_follow_the_walk(self, probs, check_prior):
        self.single_trials(probs, check_prior, Broadcast())

    @pytest.mark.parametrize("probs, check_prior", CASES)
    def test_harness_top1_first_stops_follow_the_signed_walk(self, probs, check_prior):
        self.harness(probs, check_prior, TopN(1))

    @pytest.mark.parametrize("probs, check_prior", CASES)
    def test_single_trial_top1_first_stops_follow_the_signed_walk(self, probs, check_prior):
        self.single_trials(probs, check_prior, TopN(1))

    # M5 cannot stop on the prior, so its first stop comes at s = 1 with the
    # prior check and at s = 2 without; priors on both sides of 1/2
    KL_CASES = [([0.6, 0.4], True), ([0.6, 0.4], False), ([0.3, 0.7], True),
                ([0.3, 0.7], False)]

    @pytest.mark.parametrize("probs, check_prior", KL_CASES)
    def test_harness_m5_first_stops_follow_the_pair_walk(self, probs, check_prior):
        self.harness(probs, check_prior, Broadcast(), "M5")

    @pytest.mark.parametrize("probs, check_prior", KL_CASES)
    def test_single_trial_m5_first_stops_follow_the_pair_walk(self, probs, check_prior):
        self.single_trials(probs, check_prior, Broadcast(), "M5")


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
        with pytest.raises(ValueError, match="^s must lie in"):
            BoundQuery(prior, 0, 1, 0.8, s=10**400)  # past the float range
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
        # s as an mpf: 2 s of a float s past 9e307 is inf in floats
        s = mpmath.mpf(q.s)
        arg = (mpmath.log(k) - s * q.mu) / (mpmath.sqrt(2 * s) * q.c)
        # past 100 the tail is 0 or 1 in floats; mpmath's erfc fails past 1e300
        arg = max(min(arg, 100), -100)
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


class TestTailsPastTheFloatRange:
    # 2 s overflows past s = 9e307, s mu past s = 3.6e307 at mu = 5, and
    # sqrt(2 s) c past c = 1.3e154 at the largest s
    @pytest.mark.parametrize("mu", [0.6, 5.0])
    def test_largest_counts_keep_their_tails(self, mu):
        q = BoundQuery(sp([0.42, 0.55, 0.03]), 0, 1, 0.8, mu=mu, c=0.5)
        # a float count takes the same path as an int one
        report = verify_prop5_ordering(q, [10**200, 10**308, 1e308])
        assert report.ok
        assert report.tp_m1 == report.tp_mp == [1.0] * 3
        assert report.fa_m1 == report.fa_mp == report.fa_m1bar == [0.0] * 3

    @pytest.mark.parametrize("mu", [0.6, 5.0, -5.0, 1e-150, 1e300])
    @pytest.mark.parametrize("c", [0.5, 3e153, 1e155, 1e308])
    @pytest.mark.parametrize("s", [10**200, 10**308, int(sys.float_info.max), 1e308,
                                   sys.float_info.max],
                             ids=["1e200", "1e308", "float-max", "1e308-float", "float-max-float"])
    def test_tails_match_high_precision(self, s, c, mu):
        prior = sp([0.42, 0.55, 0.03])
        for kind in RULE_KINDS:
            q = BoundQuery(prior, 0, 1, 0.8, mu=mu, c=c, s=s, rule_kind=kind)
            exact = exact_tail(stop_ratio_constant(q), q, above=True)
            assert stop_probability_lognormal(q) == pytest.approx(exact, rel=1e-12, abs=0)
        for variant in ("M1", "MP", "M1bar"):
            ratio = _false_ratio(q, variant)
            exact = 0.0 if ratio <= 0.0 else exact_tail(ratio, q, above=False)
            assert false_stop_probability(q, variant) == pytest.approx(exact, rel=1e-12, abs=0)

    def test_a_non_finite_probability_is_a_violation(self, monkeypatch):
        monkeypatch.setattr(bounds, "false_stop_probability", lambda q, variant: math.nan)
        report = verify_prop5_ordering(BoundQuery(sp([0.42, 0.55, 0.03]), 0, 1, 0.8), [3])
        assert not report.ok
        assert report.violations[0].startswith("s=3: non-finite TP")


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
