"""Recursive Bayesian classification with calibrated stopping rules.

The package bundles the simplex-geometry core, the stopping-criterion
suite, closed-form stopping bounds, the trial engine, and a Monte-Carlo
experiment harness with bundled benchmark tables.
"""

from .simplex import (
    LikelihoodVector,
    SimplexPoint,
    TopTwo,
    center_line_distance,
    delta_mp,
    kl_divergence,
    oplus,
    otimes,
    project_to_center_line,
    renyi_entropy,
    shannon_entropy,
    special_point,
    top_two,
)
from .criteria import (
    FAMILIES,
    CriterionState,
    StoppingRule,
    boundary_sample,
    calibrate,
    delta2_divergence,
    matched_lower_confidence,
    min_confidence_on_entropy_contour,
    should_stop,
)
from .bounds import (
    BoundQuery,
    Prop5Report,
    erf,
    false_stop_probability,
    min_sequences_constant_evidence,
    stop_probability_lognormal,
    stop_ratio_constant,
    verify_prop5_ordering,
)
from .engine import (
    Broadcast,
    EvidenceModel,
    TopN,
    TrialConfig,
    TrialOutcome,
    run_trial,
    trial_normals,
    trial_stream,
)
from .montecarlo import (
    ExperimentConfig,
    ExperimentResult,
    RandomRemainder,
    letters_projection,
    reproduce_table,
    run_experiment,
    speed_accuracy_sweep,
    trajectory_ensemble,
)

__version__ = "0.1.0"
