"""Event-driven sampling and source coding of a Wiener process.

A sampler watches the process and transmits one of four codewords when the
increment since the last sample crosses a constant band threshold or one of
two linearly growing catch-up thresholds.  The package provides the
closed-form event statistics, hitting-time analytics, one MSE/sampling-rate
model whose large-slope regime is mu = inf, an optimal code-length/threshold
optimizer, and a discrete-time simulator that validates the analytics.
"""

from .code_optimizer import (
    LENGTH_CAP,
    DinkelbachResult,
    OptimizationResult,
    RateConstraint,
    dinkelbach_solve,
    integer_oracle,
    optimize_threshold,
)
from .errors import (
    HorizonError,
    InfeasibleError,
    ParameterError,
    SearchError,
    UnsupportedConfigurationError,
    WienerCodingError,
)
from .gauss_stats import (
    EventProbabilities,
    SchemeConstants,
    ThresholdConfig,
    event_probabilities,
    scheme_constants,
)
from .hitting_times import DriftHitSpec, hit_moments, sample_hit_times
from .mse_model import (
    BandStop,
    Codebook,
    DeterministicStop,
    IntegralCheck,
    MseBreakdown,
    SlopedStop,
    ideal_benchmark_mse,
    mse_exact,
    mse_integral_oracle,
    scale_to_sigma,
)
from .simulator import (
    CycleLog,
    IndependenceResult,
    SimConfig,
    SimulationReport,
    length_independence_test,
    run,
    run_benchmark,
)

__version__ = "0.1.0"
