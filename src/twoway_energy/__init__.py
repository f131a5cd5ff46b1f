"""Rate bounds and protocol simulation for a two-way binary noiseless
channel whose nodes share a fixed pool of exchangeable energy units.

Sending "1" costs the sender one unit, which the receiver harvests; a
node without energy can only send "0". The package computes the
achievable rates of independent per-level codebooks, an outer bound
from correlated per-state symbol distributions, and Monte Carlo
validation of the achievable coding scheme, plus the three single-unit
strategies.
"""

from .chain import (
    MarginalPolicy,
    NotIrreducibleError,
    TransitionKernel,
    build_kernel,
    simulate_chain,
    stationary,
    uniform_policy,
)
from .entropy import (
    JointSymbolDist,
    binary_entropy,
    joint_entropy,
    joint_from_marginals,
)
from .inner import (
    OptimizationResult,
    RatePair,
    SearchConfig,
    optimize_sum_rate,
    rates_for_policy,
    region_sweep,
)
from .outer import (
    JointStatePolicy,
    OuterBoundValues,
    SweepRow,
    optimize_outer_sum,
    optimize_outer_weighted,
    outer_values,
    sweep_details,
)
from .protocol import (
    CodebookLevel,
    CodebookSet,
    MarginExhaustedError,
    MonteCarloReport,
    Transcript,
    TrialOutcome,
    U1SimResult,
    build_codebooks,
    draw_messages,
    monte_carlo_error,
    naive_frame_rate,
    optimal_timeshare_sim,
    run_trial,
    validate_transcript,
    variable_length_sim,
)

__version__ = "0.1.0"

__all__ = [
    "MarginalPolicy",
    "NotIrreducibleError",
    "TransitionKernel",
    "build_kernel",
    "simulate_chain",
    "stationary",
    "uniform_policy",
    "JointSymbolDist",
    "binary_entropy",
    "joint_entropy",
    "joint_from_marginals",
    "OptimizationResult",
    "RatePair",
    "SearchConfig",
    "optimize_sum_rate",
    "rates_for_policy",
    "region_sweep",
    "JointStatePolicy",
    "OuterBoundValues",
    "SweepRow",
    "optimize_outer_sum",
    "optimize_outer_weighted",
    "outer_values",
    "sweep_details",
    "CodebookLevel",
    "CodebookSet",
    "MarginExhaustedError",
    "MonteCarloReport",
    "Transcript",
    "TrialOutcome",
    "U1SimResult",
    "build_codebooks",
    "draw_messages",
    "monte_carlo_error",
    "naive_frame_rate",
    "optimal_timeshare_sim",
    "run_trial",
    "validate_transcript",
    "variable_length_sim",
    "__version__",
]
