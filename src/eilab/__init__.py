"""Arbitrary-precision laboratory for 1D expected-improvement optimization.

The lab runs the EI loop under Gaussian-process kernels at hundreds of
decimal digits, reproduces the collapse of the optimization trajectory to
its starting point under analytic kernels, and numerically verifies the
conditional-variance and trajectory bounds that explain it.
"""

from .config import ExperimentConfig, load_config, parse_config
from .ei import (
    CandidateGrid,
    EIEvaluation,
    TrajectoryRun,
    ei_integral_oracle,
    expected_improvement,
    objective_function,
    run_trajectory,
)
from .errors import (
    ConfigError,
    DimensionMismatch,
    DuplicatePoint,
    EILabError,
    EmptyGrid,
    MaximizationDiverged,
    NonPositivePivot,
    QuadratureNotConverged,
    UnknownObjective,
    VariantUnsupported,
)
from .kernels import (
    GaussianKernel,
    KernelSpec,
    LegendreProfile,
    OrnsteinUhlenbeckKernel,
    SpectralPowerKernel,
    covariance,
    covariance_by_quadrature,
    legendre_conjugate,
    rate_function,
    spectral_density,
)
from .linalg import CholeskyFactor, gram_det
from .posterior import (
    FittedPosterior,
    PosteriorMoments,
    TrajectoryState,
    add_point,
    variance_spectral_oracle,
)
from .precision import PrecisionContext
from .verifier import (
    BoundReport,
    DecayScan,
    SandwichSweep,
    decay_scan,
    ei_oracle_trials,
    gram_distance_oracle,
    lagrange_weights,
    posterior_oracle_trials,
    rkhs_approx_error,
    sandwich_sweep,
    tail_integral_check,
    trajectory_envelope_check,
    vandermonde_distance,
    vandermonde_trials,
    variance_sandwich_check,
)

__version__ = "0.1.0"
