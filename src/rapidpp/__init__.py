"""Simulation and analytics for point processes with rapidly fluctuating rates.

The package samples the time-t counts and infinite-server occupancy of
Markov-modulated, periodic and thinned arrival streams whose intensity
fluctuates on a fast time scale eps, computes the matching
constant-rate Poisson approximation together with its first-order
eps-corrections for arrival counts and infinite-server occupancy, evaluates
the limiting path total-variation distance between the fluctuating stream
and its constant-rate approximation, and validates every expansion with a
deterministic Monte Carlo harness.
"""

from .arrivals import (
    PeriodicIntensity,
    PoissonBase,
    RenewalGammaBase,
    sample_cox_counts,
    sample_periodic_counts,
    sample_thinned_counts,
)
from .errors import (
    ArgumentError,
    ConfigError,
    EnumerationTooLargeError,
    RapidppError,
    SingularSystemError,
)
from .expansions import (
    ErlangService,
    ExponentialService,
    PmfVector,
    ServiceModel,
    UniformService,
    corrected_count_pmf,
    corrected_count_pmf_periodic,
    corrected_queue_pmf,
    default_kmax,
    eta_squared,
    mean_q0,
    periodic_correction_integral,
    poisson_pmf,
    tv_limit_exact,
    tv_limit_mc,
)
from .harness import (
    ExperimentSpec,
    PmfEstimate,
    ResidualEntry,
    ResidualReport,
    convergence_study,
    estimate_pmf,
)
from .markov_env import (
    CtmcModel,
    GeneratorMatrix,
    StationaryAnalysis,
    analyze,
    sample_occupation_integrals,
    stationary_distribution,
    validate_generator,
)
from .queue_sim import sample_queue_counts

__version__ = "0.1.0"
