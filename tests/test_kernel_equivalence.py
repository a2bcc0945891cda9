"""The per-sequence kernels against the formulas they replaced, bit for bit.

The normalize, the Renyi statistic and the evidence transform were cut to
fewer numpy calls.  The replaced formulas are written out below; property
tests compare each kernel with its formula on random inputs and layouts,
and one end-to-end test swaps the formulas back into the package and
compares whole runs.  Outputs are compared with each other, never with
stored digests: float64 ``exp`` and ``log`` may differ by CPU.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from rbc_stoplab import criteria, engine, montecarlo, simplex
from rbc_stoplab.criteria import FAMILIES, calibrate
from rbc_stoplab.engine import (
    CHUNK,
    Broadcast,
    EvidenceModel,
    TopN,
    TrialConfig,
    _evidence,
    run_trial,
)
from rbc_stoplab.montecarlo import (
    ExperimentConfig,
    run_experiment,
    speed_accuracy_sweep,
    table_config,
)
from rbc_stoplab.simplex import SimplexPoint, _class_sum, _normalize_log_weights, renyi_bits

_LOG2 = np.log(2.0)


def formula_normalize(logw):
    m = logw.max(-1)[..., None]
    if not np.isfinite(m).all():
        raise ValueError("distribution has no positive mass")
    return logw - (m + np.log(_class_sum(np.exp(logw - m)))[..., None])


def formula_renyi(log_probs, alpha):
    scaled = np.multiply(log_probs, alpha, out=np.full_like(log_probs, -np.inf),
                         where=np.isfinite(log_probs))
    m = scaled.max(-1)
    np.exp(np.subtract(scaled, m[..., None], out=scaled), out=scaled)
    return (m + np.log(_class_sum(scaled))) / ((1.0 - alpha) * _LOG2)


def formula_evidence(model, true_index, z, classes=None):
    true = np.broadcast_to(np.arange(z.shape[-1]) if classes is None else classes,
                           z.shape) == true_index
    positive = z[true] * model.c_pos
    positive += model.mu_pos
    z *= model.c_neg
    z += model.mu_neg
    z[true] = positive
    return z


def layout(values, kind):
    """``values`` ``(T, n)`` as a batch of one (its first row), a row-major
    batch, a class-major batch, or the loop's half-chunk of evidence: a
    ``(CHUNK / 2, T, n)`` view of a ``(CHUNK / 2, n, T)`` array."""
    if kind == "one":
        return values[:1].copy()
    if kind == "rows":
        return values.copy()
    if kind == "classes":
        return values.copy(order="F")
    half = np.empty((CHUNK // 2, values.shape[1], len(values)))
    half[:] = values.T
    return half.transpose(0, 2, 1)


LAYOUTS = ("one", "rows", "classes")


@st.composite
def log_weights(draw, finite=st.floats(-1e3, 1e3)):
    """``(T, n)`` log weights, n from 2 to 12, with ``-inf`` entries; each
    row keeps one finite entry, so it has positive mass."""
    n, t = draw(st.integers(2, 12)), draw(st.integers(1, 40))
    logw = draw(hnp.arrays(np.float64, (t, n), elements=finite | st.just(-np.inf)))
    rows = np.isneginf(logw).all(1)
    logw[rows, draw(st.integers(0, n - 1))] = draw(finite)
    return logw


class TestKernelsMatchTheirFormulas:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(log_weights(), st.sampled_from(LAYOUTS))
    def test_normalize(self, logw, kind):
        batch = layout(logw, kind)
        assert _normalize_log_weights(batch).tobytes() == formula_normalize(batch).tobytes()

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(log_weights(), st.sampled_from(LAYOUTS), st.sampled_from((0.0, 0.2, 2.0, 30.0)))
    def test_renyi(self, logw, kind, alpha):
        batch = layout(formula_normalize(logw), kind)
        assert renyi_bits(batch, alpha).tobytes() == formula_renyi(batch, alpha).tobytes()

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.data(), st.sampled_from((*LAYOUTS, "half")),
           st.tuples(*[st.floats(-50, 50)] * 2), st.tuples(*[st.floats(0, 50)] * 2))
    def test_evidence(self, data, kind, mu, c):
        n, t = data.draw(st.integers(2, 12)), data.draw(st.integers(1, 40))
        z = data.draw(hnp.arrays(np.float64, (t, n), elements=st.floats(-9, 9)))
        true_index = data.draw(st.integers(0, n - 1))
        model = EvidenceModel(mu[0], c[0], mu[1], c[1])
        got, want = layout(z, kind), layout(z, kind)
        assert _evidence(model, true_index, got) is got
        formula_evidence(model, true_index, want)
        assert got.tobytes() == want.tobytes()

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.data(), st.tuples(*[st.floats(-50, 50)] * 2), st.tuples(*[st.floats(0, 50)] * 2))
    def test_evidence_of_queried_cells(self, data, mu, c):
        # a top-N slice's step: the (N, T) normals of its queried cells and
        # their classes, class-major like the loop's ranking
        n, t = data.draw(st.integers(2, 12)), data.draw(st.integers(1, 40))
        classes = data.draw(hnp.arrays(np.intp, (t, data.draw(st.integers(1, n))),
                                       elements=st.integers(0, n - 1))).T
        z = data.draw(hnp.arrays(np.float64, classes.shape, elements=st.floats(-9, 9)))
        true_index = data.draw(st.integers(0, n - 1))
        model = EvidenceModel(mu[0], c[0], mu[1], c[1])
        got = z.copy()
        assert _evidence(model, true_index, got, classes) is got
        assert got.tobytes() == formula_evidence(model, true_index, z.copy(), classes).tobytes()
        want = formula_evidence(model, true_index, np.repeat(z[..., None], n, -1))
        assert got.tobytes() == np.take_along_axis(want, classes[..., None], -1)[..., 0].tobytes()


def outputs():
    """Records of T3 and of a zero-mass ``TopN(2)`` config, a ``TopN(3)``
    sweep, and ``run_trial`` paths of every family under both schemes.  The
    two top-N slices make each step's normals for its queried cells only."""
    out = []
    zero_mass = ExperimentConfig(
        n=5, prior=SimplexPoint.from_probs([0.5, 0.0, 0.3, 0.2, 0.0]), tau=0.8,
        methods=FAMILIES, model=EvidenceModel(0.6, 0.5, 0.0, 0.5), scheme=TopN(2),
        n_trials=600, max_sequences=20, master_seed=3)
    for cfg in (table_config("T3", n_trials=600), zero_mass):
        result = run_experiment(cfg)
        out += [result.first_stop, result.stop_correct, result.p_stop, result.p_true_given_stop]
    sweep = speed_accuracy_sweep(replace(table_config("T3", n_trials=400), scheme=TopN(3)),
                                 [0.65, 0.75, 0.9])
    out.append(np.array([(p.mean_sequences, p.mean_accuracy) for p in sweep]))
    t2 = table_config("T2")
    for scheme in (Broadcast(), TopN(2)):
        for family in FAMILIES:
            for trial in range(0, 1200, 97):
                outcome = run_trial(TrialConfig(
                    prior=t2.prior, true_index=1, rule=calibrate(family, 0.8, 3),
                    model=t2.model, scheme=scheme, max_sequences=30, seed=5,
                    trial_index=trial))
                out += [repr((outcome.stopped_at, outcome.decision)), outcome.log_probs]
    return [a if isinstance(a, str) else a.tobytes() for a in out]


@pytest.fixture
def fresh_prior_cache():
    engine._log_prior.cache_clear()
    yield
    engine._log_prior.cache_clear()


def test_runs_match_with_the_formulas_swapped_back(monkeypatch, fresh_prior_cache):
    kernels = outputs()
    engine._log_prior.cache_clear()
    for module in (simplex, engine, montecarlo, criteria):
        monkeypatch.setattr(module, "_normalize_log_weights", formula_normalize)
    for module in (simplex, criteria):
        monkeypatch.setattr(module, "renyi_bits", formula_renyi)
    calls = []

    def evidence(model, true_index, z, classes=None):
        calls.append(classes is not None and len(z.T) > 1)
        return formula_evidence(model, true_index, z, classes)
    monkeypatch.setattr(engine, "_evidence", evidence)
    formulas = outputs()
    # the top-N sweep and zero-mass config make a step's queried cells alone
    assert any(calls) and not all(calls)
    assert len(kernels) == len(formulas)
    assert [i for i, (a, b) in enumerate(zip(kernels, formulas)) if a != b] == []
