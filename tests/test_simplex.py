"""Geometry core: examples with independent oracles plus invariant sweeps."""

import functools
import operator

import numpy as np
import pytest

from rbc_stoplab.simplex import (
    LikelihoodVector,
    SimplexPoint,
    _class_sum,
    _normalize_log_weights,
    center_line_distance,
    delta_mp,
    kl_bits,
    kl_divergence,
    oplus,
    otimes,
    project_to_center_line,
    renyi_bits,
    renyi_entropy,
    shannon_bits,
    shannon_entropy,
    special_point,
    top_two,
    top_two_gap,
)


def random_points(rng, count, n, min_mass=0.0):
    P = rng.dirichlet(np.ones(n), size=count)
    if min_mass:
        P = (1 - n * min_mass) * P + min_mass
    return P


def sp(values):
    return SimplexPoint.from_probs(values)


class TestConstruction:
    def test_normalizes_and_freezes(self):
        p = sp([2.0, 1.0, 1.0])
        assert abs(p.probs.sum() - 1.0) <= 1e-12
        with pytest.raises(ValueError):
            p.log_probs[0] = 0.0

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            sp([1.0])
        with pytest.raises(ValueError):
            sp([0.5, -0.1, 0.6])
        with pytest.raises(ValueError):
            sp([0.0, 0.0])
        with pytest.raises(ValueError):
            sp([0.5, np.inf])

    def test_huge_masses_need_no_sum(self):
        # the mass check used to sum the masses, which overflows here
        p = sp([1e308, 1e308, 1e308])
        assert p.allclose(sp([1, 1, 1]))
        with pytest.raises(ValueError, match="distribution has no positive mass"):
            sp([0.0, 0.0, 0.0])
        with pytest.raises(ValueError, match="distribution has no positive mass"):
            SimplexPoint(np.full(4, -np.inf))

    def test_zero_entries_allowed(self):
        p = sp([0.8, 0.2, 0.0])
        assert p.probs[2] == 0.0
        assert np.isneginf(p.log_probs[2])

    def test_equality_is_bitwise_and_hash_agrees(self):
        p = [0.42, 0.55, 0.03]
        a, b = sp(p), sp(p)
        assert a == b and not a != b
        assert hash(a) == hash(b) and len({a, b}) == 1
        # a row of a read-only array is the same point as its copy
        rows = np.stack([a.log_probs, sp([0.5, 0.5, 0.0]).log_probs])
        rows.flags.writeable = False
        assert SimplexPoint._normalized(rows[0]) == a
        assert SimplexPoint._normalized(rows[1]) == sp([0.5, 0.5, 0.0])
        # one ulp apart, or another dimension, is another point
        nudged = SimplexPoint._normalized(np.nextafter(a.log_probs, 0.0))
        assert nudged != a and nudged.allclose(a)
        assert sp([0.5, 0.5]) != sp([0.5, 0.5, 0.0])
        assert a != p and a != a.log_probs.tobytes()

    def test_likelihood_vector_equality_is_bitwise_and_hash_agrees(self):
        a, b = LikelihoodVector(np.ones(3)), LikelihoodVector(np.ones(3))
        assert a == b and not a != b
        assert hash(a) == hash(b) and len({a, b}) == 1
        assert a == LikelihoodVector.neutral(3) != LikelihoodVector.neutral(2)
        # one ulp apart is other evidence
        assert LikelihoodVector(np.nextafter(np.ones(3), 2.0)) != a
        assert a != [1.0, 1.0, 1.0] and a != a.values.tobytes()

    def test_likelihood_vector_strictly_positive(self):
        with pytest.raises(ValueError):
            LikelihoodVector(np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            LikelihoodVector(np.array([1.0, np.inf]))


class TestOplus:
    def test_hand_example_with_direct_oracle(self):
        p = sp([0.42, 0.55, 0.03])
        e = LikelihoodVector(np.array([2.0, 1.0, 1.0]))
        got = oplus(p, e).probs
        # independent oracle: elementwise product, then plain normalization
        oracle = np.array([0.42, 0.55, 0.03]) * np.array([2.0, 1.0, 1.0])
        oracle /= oracle.sum()
        np.testing.assert_allclose(got, oracle, atol=1e-15)
        np.testing.assert_allclose(got, [0.59155, 0.38732, 0.02113], atol=1e-5)

    def test_neutral_evidence_is_identity(self):
        p = sp([0.3, 0.45, 0.25])
        assert oplus(p, LikelihoodVector.neutral(3)).allclose(p)

    def test_symmetric_case(self):
        p = sp([0.5, 0.5])
        assert oplus(p, LikelihoodVector(np.array([0.5, 0.5]))).allclose(p)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            oplus(sp([0.5, 0.5]), LikelihoodVector(np.ones(3)))

    def test_zeros_absorbing(self):
        p = sp([0.8, 0.2, 0.0])
        out = oplus(p, LikelihoodVector(np.array([1.0, 1.0, 100.0])))
        assert out.probs[2] == 0.0

    def test_bayes_equivalence_linear_domain(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            pv = rng.dirichlet(np.ones(4))
            ev = rng.uniform(0.1, 10.0, size=4)
            got = oplus(sp(pv), LikelihoodVector(ev)).probs
            lin = pv * ev
            lin /= lin.sum()
            np.testing.assert_allclose(got, lin, atol=1e-10)


class TestOtimes:
    def test_one_is_identity(self):
        p = sp([0.3, 0.45, 0.25])
        assert otimes(p, 1.0).allclose(p)

    def test_zero_gives_uniform(self):
        p = sp([0.3, 0.45, 0.25])
        assert otimes(p, 0.0).allclose(SimplexPoint.uniform(3))

    def test_hand_example(self):
        np.testing.assert_allclose(otimes(sp([0.8, 0.2]), 2.0).probs,
                                   [0.94118, 0.05882], atol=1e-5)

    def test_zero_entries_need_positive_lambda(self):
        p = sp([0.8, 0.2, 0.0])
        assert otimes(p, 2.0).probs[2] == 0.0
        with pytest.raises(ValueError):
            otimes(p, 0.0)
        with pytest.raises(ValueError):
            otimes(p, -1.0)


class TestSpecialPoints:
    def test_v_point(self):
        np.testing.assert_allclose(special_point("v", 3, 0.8).probs,
                                   [0.8, 0.1, 0.1], atol=1e-15)

    def test_w_point(self):
        np.testing.assert_allclose(special_point("w", 3, 0.8).probs,
                                   [0.8, 0.2, 0.0], atol=1e-15)

    def test_v_at_uniform_mass_is_uniform(self):
        assert special_point("v", 3, 1.0 / 3.0).allclose(SimplexPoint.uniform(3))

    def test_position_index(self):
        v = special_point("v", 4, 0.7, i=2)
        assert v.argmax == 2
        w = special_point("w", 4, 0.7, i=2)
        assert w.probs[2] == pytest.approx(0.7)
        assert w.probs[0] == pytest.approx(0.3)

    def test_corner(self):
        c = special_point("corner", 5, i=3)
        assert c.probs[3] == 1.0
        assert c.probs.sum() == 1.0

    def test_tau_out_of_range(self):
        with pytest.raises(ValueError):
            special_point("v", 3, 0.2)
        with pytest.raises(ValueError):
            special_point("w", 3, 1.1)


class TestShannonEntropy:
    def test_ten_class_motivating_pair(self):
        p = sp([0.6, 0.4] + [0.0] * 8)
        q = sp([0.7] + [0.3 / 9] * 9)
        # reference figures are rounded to two decimals
        assert shannon_entropy(p) == pytest.approx(0.97, abs=0.02)
        assert shannon_entropy(q) == pytest.approx(1.82, abs=0.02)
        assert shannon_entropy(p) < shannon_entropy(q)

    def test_uniform_is_log2_n(self):
        assert shannon_entropy(SimplexPoint.uniform(8)) == pytest.approx(3.0, abs=1e-12)

    def test_v_point_hand_value(self):
        # -0.8 lg 0.8 - 0.2 lg 0.1
        assert shannon_entropy(special_point("v", 3, 0.8)) == pytest.approx(
            0.92193, abs=1e-5)

    def test_zero_entries_contribute_nothing(self):
        assert shannon_entropy(sp([1.0, 0.0])) == 0.0


class TestRenyiEntropy:
    def test_quadratic_hand_value(self):
        got = renyi_entropy(special_point("v", 3, 0.8), 2.0)
        assert got == pytest.approx(-np.log2(0.66), abs=1e-12)
        assert got == pytest.approx(0.59946, abs=1e-5)

    def test_uniform_for_every_alpha(self):
        u = SimplexPoint.uniform(6)
        for alpha in (0.0, 0.2, 0.5, 2.0, 5.0):
            assert renyi_entropy(u, alpha) == pytest.approx(np.log2(6), abs=1e-12)

    def test_one_hot_is_zero(self):
        assert renyi_entropy(SimplexPoint.corner(4, 0), 2.0) == pytest.approx(0.0, abs=1e-12)

    def test_alpha_one_rejected(self):
        with pytest.raises(ValueError):
            renyi_entropy(SimplexPoint.uniform(3), 1.0)

    def test_converges_to_shannon(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            p = sp(rng.dirichlet(np.ones(5)))
            h = shannon_entropy(p)
            assert abs(renyi_entropy(p, 1.0 + 1e-6) - h) <= 1e-4
            assert abs(renyi_entropy(p, 1.0 - 1e-6) - h) <= 1e-4


class TestKLDivergence:
    def test_identity(self):
        p = sp([0.3, 0.45, 0.25])
        assert kl_divergence(p, p) == pytest.approx(0.0, abs=1e-15)

    def test_hand_values(self):
        got = kl_divergence(sp([0.5, 0.5]), sp([0.75, 0.25]))
        assert got == pytest.approx(0.20752, abs=1e-5)
        got = kl_divergence(SimplexPoint.uniform(2), sp([0.9, 0.1]))
        assert got == pytest.approx(0.73697, abs=1e-5)

    def test_support_violation(self):
        with pytest.raises(ValueError):
            kl_divergence(sp([0.5, 0.5]), sp([1.0, 0.0]))

    def test_nonnegative(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            p, q = (sp(rng.dirichlet(np.ones(4))) for _ in range(2))
            assert kl_divergence(p, q) >= 0.0


class TestCenterLineProjection:
    def test_hand_example_and_grid_oracle(self):
        p = sp([0.5, 0.3, 0.2])
        proj = project_to_center_line(p, 0)
        np.testing.assert_allclose(proj.probs, [0.5, 0.25, 0.25], atol=1e-12)
        # grid-search oracle over the line parameter at resolution 1e-4
        taus = np.arange(0.0, 1.0 + 1e-9, 1e-4)
        line = np.stack([taus, (1 - taus) / 2, (1 - taus) / 2], axis=1)
        dists = np.linalg.norm(line - p.probs, axis=1)
        best = taus[np.argmin(dists)]
        assert abs(best - proj.probs[0]) <= 1e-4

    def test_grid_oracle_random_points(self):
        rng = np.random.default_rng(5)
        taus = np.arange(0.0, 1.0 + 1e-9, 1e-4)
        for _ in range(20):
            pv = rng.dirichlet(np.ones(4))
            proj = project_to_center_line(sp(pv), 1)
            line = np.empty((taus.size, 4))
            line[:, :] = ((1 - taus) / 3)[:, None]
            line[:, 1] = taus
            best = taus[np.argmin(np.linalg.norm(line - pv, axis=1))]
            assert abs(best - proj.probs[1]) <= 1e-4

    def test_fixed_point_on_line(self):
        v = special_point("v", 5, 0.6)
        assert project_to_center_line(v, 0).allclose(v)

    def test_uniform_projects_to_itself(self):
        u = SimplexPoint.uniform(4)
        for i in range(4):
            assert project_to_center_line(u, i).allclose(u)

    def test_distances(self):
        assert center_line_distance(sp([0.5, 0.3, 0.2]), 0) == pytest.approx(
            0.070711, abs=1e-6)
        assert center_line_distance(special_point("v", 3, 0.8), 0) == pytest.approx(
            0.0, abs=1e-12)
        assert center_line_distance(special_point("w", 3, 0.8), 0) == pytest.approx(
            0.14142, abs=1e-5)


class TestTopTwoAndDeltaMP:
    def test_basic(self):
        t = top_two(sp([0.5, 0.3, 0.2]))
        assert (t.j1, t.j2) == (0, 1)
        assert t.gap == pytest.approx(0.2, abs=1e-12)

    def test_tie_breaks_lowest_index(self):
        t = top_two(sp([0.4, 0.4, 0.2]))
        assert (t.j1, t.j2) == (0, 1)
        assert t.gap == pytest.approx(0.0, abs=1e-15)
        t = top_two(SimplexPoint.uniform(4))
        assert (t.j1, t.j2) == (0, 1)

    def test_delta_mp_hand_example(self):
        got = delta_mp(sp([0.7, 0.2, 0.1]), SimplexPoint.corner(3, 0))
        assert got == pytest.approx(0.5, abs=1e-12)
        # matches the gap identity 1 - p1 + p2 against the argmax corner
        assert got == pytest.approx(1 - 0.7 + 0.2, abs=1e-12)

    def test_delta_mp_identity_and_symmetry(self):
        rng = np.random.default_rng(9)
        for _ in range(300):
            p, q = (sp(rng.dirichlet(np.ones(5))) for _ in range(2))
            assert delta_mp(p, p) == pytest.approx(0.0, abs=1e-15)
            assert delta_mp(p, q) == pytest.approx(delta_mp(q, p), abs=1e-15)
            assert delta_mp(p, q) >= 0.0


class TestVectorSpaceAxioms:
    """Perturbation/power algebra on strictly positive points, 1e-10 wise."""

    def setup_method(self):
        rng = np.random.default_rng(21)
        self.triples = [
            tuple(sp(rng.dirichlet(np.ones(4)) + 1e-3) for _ in range(3))
            for _ in range(100)
        ]

    @staticmethod
    def _oplus_points(a, b):
        return oplus(a, LikelihoodVector(b.probs))

    def test_closure_commutativity_associativity(self):
        for p, q, r in self.triples:
            pq = self._oplus_points(p, q)
            assert abs(pq.probs.sum() - 1) <= 1e-12
            np.testing.assert_allclose(pq.probs, self._oplus_points(q, p).probs,
                                       atol=1e-10)
            left = self._oplus_points(pq, r)
            right = self._oplus_points(p, self._oplus_points(q, r))
            np.testing.assert_allclose(left.probs, right.probs, atol=1e-10)

    def test_identity_and_scalars(self):
        u = SimplexPoint.uniform(4)
        for p, _, _ in self.triples:
            np.testing.assert_allclose(self._oplus_points(p, u).probs, p.probs,
                                       atol=1e-10)
            np.testing.assert_allclose(otimes(p, 1.0).probs, p.probs, atol=1e-10)
            np.testing.assert_allclose(otimes(p, 0.0).probs, u.probs, atol=1e-10)

    def test_scalar_associativity(self):
        rng = np.random.default_rng(33)
        for p, _, _ in self.triples[:50]:
            lam, mu = rng.uniform(0.1, 3.0, size=2)
            left = otimes(otimes(p, lam), mu)
            right = otimes(p, lam * mu)
            np.testing.assert_allclose(left.probs, right.probs, atol=1e-10)


def _shannon_rows(P):
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(P > 0, P * np.log2(np.where(P > 0, P, 1.0)), 0.0)
    return -t.sum(-1)


class TestMaxEntropyOnConfidenceSet:
    """The one-heavy point maximizes entropy at fixed confidence and
    maximizes confidence at fixed entropy."""

    def test_entropy_max_on_confidence_line_grid(self):
        for tau in (0.5, 0.65, 0.8):
            v = special_point("v", 3, tau)
            h_v = shannon_entropy(v)
            xs = np.arange(max(0.0, 1 - 2 * tau), min(tau, 1 - tau) + 1e-12, 1e-3)
            pts = np.stack([np.full_like(xs, tau), xs, 1 - tau - xs], axis=1)
            assert _shannon_rows(pts).max() <= h_v + 1e-6

    def test_confidence_max_on_entropy_contour(self):
        # walk rays from the center and bisect onto the contour
        tau = 0.8
        target = shannon_entropy(special_point("v", 3, tau))
        center = np.full(3, 1 / 3)
        basis = np.array([[1.0, -1.0, 0.0], [1.0, 1.0, -2.0]])
        basis /= np.linalg.norm(basis, axis=1, keepdims=True)
        best = 0.0
        for theta in np.linspace(0, 2 * np.pi, 720, endpoint=False):
            d = np.cos(theta) * basis[0] + np.sin(theta) * basis[1]
            t_max = np.min(center[d < 0] / -d[d < 0])
            lo, hi = 0.0, t_max
            if _shannon_rows(center + t_max * d) > target:
                continue
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                if _shannon_rows(center + mid * d) > target:
                    lo = mid
                else:
                    hi = mid
            best = max(best, (center + hi * d).max())
        assert best <= tau + 1e-6
        assert best >= tau - 1e-3  # attained along the corner direction


class TestConfidenceEntropyInclusion:
    """Confidence regions sit inside the matching entropy regions."""

    def test_inclusion_at_scale(self):
        rng = np.random.default_rng(17)
        for n in (3, 5, 10):
            P = rng.dirichlet(np.ones(n), size=100_000)
            H = _shannon_rows(P)
            mx = P.max(axis=1)
            for tau in (0.6, 0.8, 0.95):
                h_v = shannon_entropy(special_point("v", n, tau))
                sel = mx >= tau
                assert np.all(H[sel] <= h_v + 1e-9)

    def test_inclusion_is_strict(self):
        # a two-class edge point below the confidence cut still beats the
        # entropy cut, witnessing strictness
        tau, n = 0.8, 3
        h_v = shannon_entropy(special_point("v", n, tau))
        w = special_point("w", n, 0.75)
        assert w.max_prob < tau
        assert shannon_entropy(w) < h_v

    def test_api_matches_vectorized_oracle(self):
        rng = np.random.default_rng(19)
        P = rng.dirichlet(np.ones(5), size=1000)
        api = np.array([shannon_entropy(sp(row)) for row in P])
        np.testing.assert_allclose(api, _shannon_rows(P), atol=1e-12)


class TestCollinearUpdates:
    """Single-class evidence moves the point along the line to that corner."""

    def test_line_equation(self):
        rng = np.random.default_rng(23)
        for _ in range(500):
            pv = rng.dirichlet(np.ones(4))
            k = rng.uniform(0.2, 8.0)
            e = np.ones(4)
            e[0] = k
            post = oplus(sp(pv), LikelihoodVector(e)).probs
            # line through p and the first corner: (x1-1)/(p1-1) = xj/pj
            ref = (post[0] - 1) / (pv[0] - 1)
            for j in range(1, 4):
                assert abs(post[j] / pv[j] - ref) <= 1e-9


def class_sum_terms(rng, batch, n):
    """Signed terms of every magnitude, a fifth of them exactly zero as
    ``exp`` of a ``-inf`` log entry; from three rows on, one row holds
    zeros of either sign only and the last row negative zeros only."""
    logs = rng.normal(0.0, 20.0, (batch, n))
    logs[rng.random((batch, n)) < 0.2] = -np.inf
    signs = np.where(rng.random((batch, n)) < 0.3, -1.0, 1.0)
    if batch > 2:
        logs[[batch // 2, -1]] = -np.inf
        signs[-1] = -1.0
    return signs * np.exp(logs)


def in_order_sum(x):
    """``x_0 + x_1 + ...`` along the last axis, one Python float at a time."""
    rows = x.reshape(-1, x.shape[-1]).tolist()
    return np.array([functools.reduce(operator.add, row) for row in rows]).reshape(x.shape[:-1])


def layouts(x):
    """``x`` row-major, class-major, and as views with gaps or reversed
    axes, each holding the same values."""
    batch, n = x.shape
    spaced = np.zeros((2 * batch, 2 * n))
    spaced[::2, ::2] = x
    yield "C", x
    yield "F", np.asfortranarray(x)
    yield "rows sliced", spaced[::2, ::2]
    yield "F rows sliced", np.asfortranarray(spaced)[::2, ::2]
    yield "reversed", np.ascontiguousarray(x[::-1, ::-1])[::-1, ::-1]
    yield "F reversed", np.asfortranarray(x[::-1, ::-1])[::-1, ::-1]


class TestClassSum:
    """The class sum adds the classes in index order, checked against a
    Python loop at every layout, batch size and class count.  A class-major
    batch of two or more rows takes numpy's reduction and every other
    layout numpy's running sum: if a numpy release orders either one
    differently, these fail first."""

    @staticmethod
    def check(x):
        want = in_order_sum(x)
        for name, view in layouts(x):
            assert _class_sum(view).tobytes() == want.tobytes(), (name, x.shape)

    def test_every_class_count_at_small_batches(self):
        rng = np.random.default_rng(29)
        for n in range(1, 301):
            for batch in (1, 2, 3, 37):
                self.check(class_sum_terms(rng, batch, n))

    @pytest.mark.parametrize("n", [1, 3, 7, 8, 9, 10, 15, 16, 17, 127, 128, 129, 136, 256, 300])
    def test_large_batch(self, n):
        self.check(class_sum_terms(np.random.default_rng(n), 5000, n))

    def test_batch_axes_and_single_rows(self):
        rng = np.random.default_rng(31)
        for n in (5, 12, 200):
            x = class_sum_terms(rng, 24, n).reshape(4, 6, n)
            want = in_order_sum(x)
            for batch in (x, np.asfortranarray(x), x.T.copy().T):
                assert _class_sum(batch).tobytes() == want.tobytes()
            spaced = np.zeros(2 * n)
            for row, total in zip(x.reshape(-1, n), want.ravel()):
                spaced[::2] = row
                for single in (row, row[None], row[::-1].copy()[::-1], spaced[::2]):
                    assert _class_sum(single).tobytes() == total.tobytes()

    def test_statistics_of_a_class_major_batch_are_its_rows(self):
        # a batch of thousands gives each row the bits of a batch of one
        rng = np.random.default_rng(37)
        stats = (shannon_bits, lambda lp: renyi_bits(lp, 2.0), lambda lp: renyi_bits(lp, 0.2),
                 lambda lp: kl_bits(lp, np.roll(lp, 1, axis=0)))
        for n in (3, 10, 130):
            logw = np.log(rng.dirichlet(np.full(n, 0.3), size=3000))
            logw[rng.random(logw.shape) < 0.1] = -np.inf
            logw[:, 0] = np.log(0.5)
            batch = _normalize_log_weights(np.asfortranarray(logw))
            rows = np.array([_normalize_log_weights(row) for row in logw])
            assert batch.tobytes(order="C") == rows.tobytes()
            for stat in stats:
                want = np.concatenate([stat(rows[[t - 1, t]])[1:] for t in range(len(rows))])
                assert stat(batch).tobytes() == want.tobytes()


def gap_terms(rng, batch, n):
    """Log masses ``(batch, n)``: a fifth of the classes of zero mass, a
    fifth of the rows with their largest mass in a second class too, and
    one row with a single finite entry."""
    logs = rng.normal(0.0, 3.0, (batch, n))
    logs[rng.random((batch, n)) < 0.2] = -np.inf
    top = logs.argmax(1)
    tied = np.flatnonzero(rng.random(batch) < 0.2)
    logs[tied, (top[tied] + rng.integers(1, n, len(tied))) % n] = logs[tied, top[tied]]
    logs[batch // 2] = -np.inf
    logs[batch // 2, rng.integers(n)] = rng.normal()
    return logs


class TestTopTwoGapLayouts:
    """A batch that is not row-major takes a running top two over its
    classes, contiguous rows the partition: both give every row the bits
    of a single point."""

    @staticmethod
    def check(x):
        want = top_two_gap(np.ascontiguousarray(x))
        assert want.tobytes() == np.array([top_two_gap(row) for row in x]).tobytes()
        for name, view in layouts(x):
            assert top_two_gap(view).tobytes() == want.tobytes(), (name, x.shape)
        return want

    def test_every_class_count_at_small_batches(self):
        rng = np.random.default_rng(41)
        for n in range(2, 301):
            for batch in (2, 37):
                self.check(gap_terms(rng, batch, n))

    @pytest.mark.parametrize("n", [2, 3, 10, 300])
    def test_large_batch_with_ties_and_single_entries(self, n):
        x = gap_terms(np.random.default_rng(n), 5000, n)
        gap = self.check(x)
        assert (gap == 0.0).any()
        single = x[len(x) // 2]
        assert gap[len(x) // 2] == np.exp(single.max())
