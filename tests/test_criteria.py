"""Stopping-rule calibration, evaluation, and decision-boundary anchors."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from rbc_stoplab.criteria import (
    CriterionState,
    boundary_sample,
    calibrate,
    delta2_divergence,
    matched_lower_confidence,
    min_confidence_on_entropy_contour,
    rule_statistic,
    should_stop,
    stop_cutoff,
)
from rbc_stoplab.simplex import (
    SimplexPoint,
    delta_mp,
    renyi_entropy,
    shannon_entropy,
    special_point,
    top_two,
)


def sp(values):
    return SimplexPoint.from_probs(values)


class TestCalibrate:
    def test_shannon_threshold(self):
        rule = calibrate("M3", 0.8, 3)
        assert rule.threshold == pytest.approx(0.92193, abs=1e-5)

    def test_gap_radius(self):
        rule = calibrate("MP", 0.8, 3)
        assert rule.threshold == pytest.approx(0.4, abs=1e-12)
        assert 1 - rule.threshold == pytest.approx(0.6, abs=1e-12)

    def test_lowered_confidence(self):
        rule = calibrate("M1bar", 0.75, 10)
        assert rule.threshold == pytest.approx(0.55, abs=1e-12)
        assert matched_lower_confidence(0.75, 10) == pytest.approx(0.55)

    def test_renyi_orders(self):
        assert calibrate("M2", 0.8, 3).alpha == 2.0
        assert calibrate("M4", 0.8, 3).alpha == 0.2
        # order stays adjustable for boundary studies
        rule = calibrate("M2", 0.8, 3, alpha=1.5)
        assert rule.alpha == 1.5
        assert rule.threshold == pytest.approx(
            renyi_entropy(special_point("v", 3, 0.8), 1.5), abs=1e-12)

    def test_kl_constant(self):
        assert calibrate("M5", 0.8, 3).threshold == 1e-2

    def test_tau_domain(self):
        with pytest.raises(ValueError):
            calibrate("M1", 1.0 / 3.0, 3)
        with pytest.raises(ValueError):
            calibrate("M1", 1.2, 3)
        with pytest.raises(ValueError):
            calibrate("bogus", 0.8, 3)


class TestShouldStop:
    def test_gap_rule_fires(self):
        rule = calibrate("MP", 0.8, 4)
        stop, _ = should_stop(rule, CriterionState(), sp([0.75, 0.10, 0.10, 0.05]))
        assert stop  # gap 0.65 > 0.6

    def test_gap_rule_boundary_is_strict(self):
        rule = calibrate("MP", 0.8, 3)
        stop, _ = should_stop(rule, CriterionState(), special_point("w", 3, 0.8))
        assert not stop  # gap exactly at the cutoff

    def test_confidence_strict(self):
        rule = calibrate("M1", 0.8, 3)
        assert should_stop(rule, CriterionState(), sp([0.81, 0.1, 0.09]))[0]
        assert not should_stop(rule, CriterionState(), sp([0.79, 0.11, 0.10]))[0]

    def test_kl_rule_needs_history(self):
        rule = calibrate("M5", 0.8, 3)
        state = CriterionState()
        p = sp([0.5, 0.3, 0.2])
        stop, state = should_stop(rule, state, p)
        assert not stop  # first evaluation can never stop
        stop, state = should_stop(rule, state, p)
        assert stop  # identical consecutive posteriors have zero divergence

    def test_kl_rule_moving_posterior(self):
        rule = calibrate("M5", 0.8, 3)
        state = CriterionState()
        _, state = should_stop(rule, state, sp([0.5, 0.3, 0.2]))
        stop, _ = should_stop(rule, state, sp([0.7, 0.2, 0.1]))
        assert not stop

    def test_dimension_check(self):
        rule = calibrate("M1", 0.8, 3)
        with pytest.raises(ValueError):
            should_stop(rule, CriterionState(), sp([0.5, 0.5]))

    def test_entropy_rules(self):
        for family in ("M2", "M3", "M4"):
            rule = calibrate(family, 0.8, 3)
            assert should_stop(rule, CriterionState(), sp([0.9, 0.05, 0.05]))[0]
            assert not should_stop(rule, CriterionState(), SimplexPoint.uniform(3))[0]


class TestContourConfidence:
    def test_hand_example_with_bisection_oracle(self):
        got = min_confidence_on_entropy_contour(0.8, 3)
        assert got is not None
        # oracle: binary entropy of the answer reproduces the contour level
        target = shannon_entropy(special_point("v", 3, 0.8))
        h = -(got * np.log2(got) + (1 - got) * np.log2(1 - got))
        assert h == pytest.approx(target, abs=1e-9)
        assert got == pytest.approx(0.6629, abs=2e-4)

    def test_contour_missing_edge(self):
        # entropy 1.5 bits stays above every edge value
        assert min_confidence_on_entropy_contour(0.5, 3) is None

    def test_tau_near_one(self):
        got = min_confidence_on_entropy_contour(0.999, 3)
        assert got is not None and got > 0.99


class TestDeltaSquaredDivergence:
    def test_hand_example(self):
        got = delta2_divergence(sp([0.7, 0.2, 0.1]), SimplexPoint.corner(3, 0))
        assert got == pytest.approx(0.3, abs=1e-12)

    def test_identity(self):
        p = sp([0.4, 0.35, 0.25])
        assert delta2_divergence(p, p) == pytest.approx(0.0, abs=1e-15)

    def test_corner_reduces_to_confidence(self):
        rng = np.random.default_rng(29)
        for _ in range(2000):
            p = sp(rng.dirichlet(np.ones(5)))
            corner = SimplexPoint.corner(5, p.argmax)
            assert abs(delta2_divergence(p, corner) + p.max_prob - 1.0) <= 1e-12


class TestGapRuleBallEquivalence:
    """Gap thresholding equals membership in the union of corner balls."""

    def test_exact_agreement_at_scale(self):
        # ball distance to corner k over the two-element interest set; the
        # corner's runner-up index is tied among zeros and resolves to the
        # point's own runner-up, giving (1 - p_k) + max_{i != k} p_i
        rng = np.random.default_rng(31)
        n = 4
        tau_bar = 0.45
        P = rng.dirichlet(np.ones(n), size=100_000)
        srt = np.sort(P, axis=1)
        gap_rule = (srt[:, -1] - srt[:, -2]) > 1 - tau_bar
        in_union = np.zeros(P.shape[0], dtype=bool)
        for k in range(n):
            others = P[:, [i for i in range(n) if i != k]]
            dist = (1.0 - P[:, k]) + others.max(axis=1)
            in_union |= dist < tau_bar
        assert np.array_equal(gap_rule, in_union)

    def test_api_agreement_when_runner_up_matches(self):
        # with the package's lowest-index tie-break the corner divergence
        # coincides with the ball distance whenever the point's runner-up
        # is the corner's tie-break winner
        rng = np.random.default_rng(37)
        tau_bar = 0.45
        checked = 0
        while checked < 300:
            p = sp(rng.dirichlet(np.ones(4)))
            t = top_two(p)
            tie_winner = 0 if t.j1 != 0 else 1
            if t.j2 != tie_winner:
                continue
            ball = delta_mp(p, SimplexPoint.corner(4, t.j1))
            assert (ball < tau_bar) == (t.gap > 1 - tau_bar)
            assert ball == pytest.approx(1 - p.probs[t.j1] + p.probs[t.j2], abs=1e-12)
            checked += 1


def _flip_on_center_ray(rule_stop, n, lo=0.0, hi=1.0, iters=200):
    """Bisect the stop flip along the segment uniform -> corner 0."""
    u = np.full(n, 1.0 / n)
    corner = np.zeros(n)
    corner[0] = 1.0

    def point(t):
        return sp((1 - t) * u + t * corner)

    assert not rule_stop(point(lo)) and rule_stop(point(hi))
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if rule_stop(point(mid)):
            hi = mid
        else:
            lo = mid
    return point(0.5 * (lo + hi))


class TestBoundaryAnchors:
    def test_flip_at_anchor_point(self):
        # every tau-calibrated pointwise rule flips exactly at the
        # one-heavy anchor along the center ray
        for tau, n in ((0.8, 3), (0.75, 10)):
            v = special_point("v", n, tau)
            for family in ("M1", "M2", "M3", "M4"):
                rule = calibrate(family, tau, n)
                flip = _flip_on_center_ray(
                    lambda p, r=rule: should_stop(r, CriterionState(), p)[0], n)
                np.testing.assert_allclose(flip.probs, v.probs, atol=1e-9)

    def test_edge_intersection_of_gap_and_confidence(self):
        # along the two-class edge both rules flip at the same point
        tau, n = 0.8, 3
        m1 = calibrate("M1", tau, n)
        mp = calibrate("MP", tau, n)

        def edge(t):
            return sp([t, 1 - t, 0.0])

        flips = []
        for rule in (m1, mp):
            lo, hi = 0.5, 1.0 - 1e-12
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                if should_stop(rule, CriterionState(), edge(mid))[0]:
                    hi = mid
                else:
                    lo = mid
            flips.append(0.5 * (lo + hi))
        assert abs(flips[0] - flips[1]) <= 1e-9
        assert abs(flips[0] - tau) <= 1e-9

    def test_gap_boundary_confidence_range(self):
        # max confidence on the gap boundary is the anchor tau; the point
        # closest to uniform is the one-heavy point at psi
        tau, n = 0.8, 3
        rule = calibrate("MP", tau, n)
        pts = boundary_sample(rule, 3600)
        maxima = np.array([p.max_prob for p in pts])
        psi = (1 + (n - 1) * (1 - rule.threshold)) / n
        assert psi == pytest.approx(0.73333, abs=1e-5)
        assert maxima.max() <= tau + 1e-9
        assert maxima.max() >= tau - 1e-3
        assert maxima.min() >= psi - 1e-9
        assert maxima.min() <= psi + 1e-3
        # the one-heavy point at psi sits exactly on the boundary
        v_psi = special_point("v", n, psi)
        assert top_two(v_psi).gap == pytest.approx(1 - rule.threshold, abs=1e-12)


class TestBoundarySample:
    def test_confidence_boundary_points(self):
        rule = calibrate("M1", 0.8, 3)
        pts = boundary_sample(rule, 200)
        assert len(pts) > 50
        for p in pts:
            assert abs(p.max_prob - 0.8) <= 1e-9

    def test_gap_boundary_points(self):
        rule = calibrate("MP", 0.8, 3)
        pts = boundary_sample(rule, 200)
        assert len(pts) > 50
        for p in pts:
            assert abs(top_two(p).gap - 0.6) <= 1e-9

    def test_shannon_boundary_hits_anchors(self):
        tau = 0.8
        rule = calibrate("M3", tau, 3)
        pts = boundary_sample(rule, 720)
        arr = np.array([p.probs for p in pts])
        v = special_point("v", 3, tau).probs
        assert np.min(np.linalg.norm(arr - v, axis=1)) <= 0.01
        tt = min_confidence_on_entropy_contour(tau, 3)
        w = special_point("w", 3, tt).probs
        assert np.min(np.linalg.norm(arr - w, axis=1)) <= 0.01

    def test_rejects_unsupported(self):
        with pytest.raises(ValueError):
            boundary_sample(calibrate("M5", 0.8, 3), 100)
        with pytest.raises(ValueError):
            boundary_sample(calibrate("M1", 0.8, 4), 100)


POINTWISE = ("M1", "M2", "M3", "M4", "MP", "M1bar")


def oracle_boundary(rule, resolution):
    """The boundary fan traced one ray at a time through the single-point
    API, each crossing ray bisected on its own: the reference the batched
    tracer is checked against."""
    if not should_stop(rule, CriterionState(), SimplexPoint.corner(3, 0))[0]:
        return []  # a stop region without the corners is empty
    target = stop_cutoff(rule)
    center = np.full(3, 1.0 / 3.0)
    basis = np.array([[1.0, -1.0, 0.0], [1.0, 1.0, -2.0]])
    basis = basis / np.linalg.norm(basis, axis=1, keepdims=True)

    def trace(n_rays):
        found = []
        for k in range(n_rays):
            theta = 2.0 * np.pi * k / n_rays
            d = np.cos(theta) * basis[0] + np.sin(theta) * basis[1]
            neg = d < 0
            t_max = float(np.min(center[neg] / -d[neg]))

            def point_at(t):
                return SimplexPoint.from_probs(np.maximum(center + t * d, 0.0))

            def excess(t):
                return rule_statistic(rule, point_at(t)) - target

            g0, g1 = excess(0.0), excess(t_max)
            if g0 == 0.0:
                found.append(point_at(0.0))
                continue
            if np.sign(g0) == np.sign(g1) and g1 != 0.0:
                continue
            lo, hi = 0.0, t_max
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                gm = excess(mid)
                if abs(gm) <= 1e-12:
                    lo = hi = mid
                    break
                if np.sign(gm) == np.sign(g0):
                    lo = mid
                else:
                    hi = mid
            found.append(point_at(0.5 * (lo + hi)))
        return found

    out = trace(resolution)
    if len(out) < 0.9 * resolution and out:
        out = trace(int(np.ceil(resolution * resolution / len(out))))
    return out


def assert_matches_oracle(family, tau, resolution):
    rule = calibrate(family, tau, 3)
    got = [p.log_probs.tobytes() for p in boundary_sample(rule, resolution)]
    assert got == [p.log_probs.tobytes() for p in oracle_boundary(rule, resolution)]
    return len(got)


class TestBoundaryMatchesOracle:
    # tau 0.5 puts the cutoffs of MP and M1bar at the center, which every
    # ray then returns; at 0.8 and 0.95 several families re-trace a denser
    # fan (M2 at 0.8 lands 54 points from 50 rays)
    @pytest.mark.parametrize("resolution", [50, 200])
    @pytest.mark.parametrize("tau", [0.5, 0.8, 0.95])
    @pytest.mark.parametrize("family", POINTWISE)
    def test_bit_for_bit(self, family, tau, resolution):
        assert_matches_oracle(family, tau, resolution)

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(st.sampled_from(POINTWISE), st.floats(1.0 / 3.0, 1.0, exclude_min=True),
           st.integers(3, 120))
    # stop regions that cover none of the simplex (tau 1) or all of it
    @example("M1", 1.0, 200)
    @example("M2", 1.0, 200)
    @example("M3", 1.0, 200)
    @example("M4", 1.0, 200)
    @example("MP", 1.0, 200)
    @example("M1bar", 1.0, 200)
    @example("MP", 0.34, 200)
    @example("M1bar", 0.34, 200)
    def test_bit_for_bit_any_anchor(self, family, tau, resolution):
        assert_matches_oracle(family, tau, resolution)

    @pytest.mark.parametrize("family, tau", [
        *((family, 1.0) for family in POINTWISE), ("MP", 0.34), ("M1bar", 0.34)])
    def test_empty_boundaries(self, family, tau):
        # at tau 1 a ray aimed exactly at a corner, which 12 and 120 rays
        # include, ends on the cutoff there
        for resolution in (12, 120, 200):
            assert assert_matches_oracle(family, tau, resolution) == 0
