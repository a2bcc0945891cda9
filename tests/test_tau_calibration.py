"""What tau means: the RBC posterior against the Bayes posterior.

T2's model has c_pos = c_neg = c under broadcast querying, so class h's
log-likelihood of a sequence's evidence x differs between classes only by
x_h (mu_pos - mu_neg) / c^2.  The Bayes posterior is therefore the RBC
posterior with its accumulated evidence scaled by
lambda = (mu_pos - mu_neg) / c^2, 2.4 for T2:
log p_bayes = log prior + lambda (log p_rbc - log prior), normalized.

For any stopping rule, with the true class drawn from the prior,
P(correct) = E[p_bayes(decision at the stop)] (optional stopping).  The
checks run it stratified over the true class: per class, ``run_experiment``
gives each trial's stop and ``trajectory_ensemble`` its state there (trial
t of the one is trial t of the other), and the classes' mean gaps
1{correct} - p(decision) are weighted by the prior.  The Bayes posterior
must close the gap to within 4 paired standard errors; the RBC posterior
(lambda = 1) must miss it by more, or the check would have no power.
"""

from dataclasses import replace

import numpy as np
import pytest

from rbc_stoplab.montecarlo import run_experiment, table_config, trajectory_ensemble

T2 = table_config("T2")
LAMBDA = (T2.model.mu_pos - T2.model.mu_neg) / T2.model.c_pos ** 2
TRIALS = 20_000
SEEDS = (1901, 1902, 1903)  # one per true class, fixed before the first run


def calibration_gaps(method: str, tau: float, sequences: int) -> dict[float, tuple[float, float]]:
    """Per tempering lambda (Bayes and plain RBC), the prior-weighted gap
    P(correct) - E[p(decision)] and its standard error."""
    prior = np.array(T2.prior.probs)
    means, variances = {LAMBDA: [], 1.0: []}, {LAMBDA: [], 1.0: []}
    for k, seed in enumerate(SEEDS):
        cfg = replace(T2, tau=tau, methods=(method,), true_index=k, n_trials=TRIALS,
                      max_sequences=sequences, master_seed=seed)
        result = run_experiment(cfg)
        first, stop_correct = result.first_stop[0], result.stop_correct[0]
        at = np.where(first < 0, sequences, first)  # a censored trial stops at the horizon
        state = trajectory_ensemble(cfg, TRIALS).paths[np.arange(TRIALS), at]
        decision = state.argmax(1)
        stopped = first >= 0
        np.testing.assert_array_equal((decision == k)[stopped], stop_correct[stopped])
        for lam in means:
            log_w = np.log(prior) + lam * (np.log(state) - np.log(prior))
            p = np.exp(log_w - log_w.max(1, keepdims=True))
            p /= p.sum(1, keepdims=True)
            gap = (decision == k) - p[np.arange(TRIALS), decision]
            means[lam].append(gap.mean())
            variances[lam].append(gap.var(ddof=1) / TRIALS)
    return {lam: (float(prior @ means[lam]), float(np.sqrt(prior ** 2 @ variances[lam])))
            for lam in means}


@pytest.mark.parametrize("method, tau, sequences", [
    ("M1", 0.8, 7),
    ("M3", 0.8, 7),
    ("M1", 1.0, 4),  # no stop: every trial is read at the horizon
])
def test_bayes_posterior_is_calibrated_at_the_stop(method, tau, sequences):
    assert T2.model.c_pos == T2.model.c_neg and LAMBDA == pytest.approx(2.4)
    gaps = calibration_gaps(method, tau, sequences)
    delta, se = gaps[LAMBDA]
    assert abs(delta) <= 4 * se, (delta, se)
    # the RBC posterior is under-confident: accuracy beats its mass at the decision
    delta_rbc, se_rbc = gaps[1.0]
    assert delta_rbc > 4 * se_rbc, (delta_rbc, se_rbc)
