"""Online sparse spectrum estimation from sub-Nyquist random samples."""

from .estimators import (
    Estimator,
    EstimatorConfig,
    EstimatorState,
    prediction_error,
)
from .harness import (
    AlgorithmSpec,
    ExperimentSpec,
    TrackingSpec,
    TrialRecord,
    rmse,
    rmse_db,
    run_experiment,
    run_trial,
)
from .sensing import (
    MeasurementSample,
    RepeatedPass,
    SensingConfig,
    StreamExhausted,
    Windowed,
    make_stream,
    regressor_row,
    sample_indices,
)
from .signals import SignalSpec, multisine, true_spectrum
from .sparse_ops import (
    complex_sign,
    hard_threshold,
    selective_penalty,
    ser,
    support,
    theorem2_check,
    theorem3_check,
)
from .tracker import (
    TrackerParams,
    TrackerState,
    corrected_estimate,
    estimate_sparsity,
    make_tracker,
    tracker_update,
)

__version__ = "0.1.0"
