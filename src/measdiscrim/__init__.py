"""Optimal discrimination of a pair of projective qubit measurements.

Closed-form trade-off curves between success and inconclusive rates for
entangled and single-qubit probes, numerical re-derivations of both, and a
Monte Carlo model of the bench experiment. The `*_array` curve functions
take numpy arrays of angles and budgets.
"""

__version__ = "0.1.9"

from .errors import (
    BranchCrossingError,
    DomainError,
    SingularityError,
    ValidationError,
)
from .geometry import (
    MeasurementPair,
    measurement_pair,
    overlap,
)
from .strategies import (
    CurveSamples,
    HullReport,
    SingleQubitStrategy,
    StrategyPoint,
    advantage,
    boundary_PIB,
    concave_branch,
    entangled_success,
    entangled_success_array,
    helstrom_point,
    hull_verify,
    relative_success,
    single_optimal,
    single_optimal_array,
    single_pure_curve,
    single_pure_curve_array,
    tangent_PIT,
    unambiguous_points,
)
from .convexity import (
    DerivativeBundle,
    concave_second_derivative,
    finite_difference_check,
    second_derivative,
    y_root,
)
from .oracle import (
    OracleResult,
    PovmTriple,
    optimize_povm,
    reduced_probabilities,
)
from .simulator import (
    CoincidenceCounts,
    EstimateResult,
    ExperimentConfig,
    ImperfectionModel,
    estimate,
    load_imperfections,
    run_trials,
    scan_intermediate,
    scan_unambiguous,
)

__all__ = [
    "__version__",
    "BranchCrossingError",
    "DomainError",
    "SingularityError",
    "ValidationError",
    "MeasurementPair",
    "measurement_pair",
    "overlap",
    "CurveSamples",
    "HullReport",
    "SingleQubitStrategy",
    "StrategyPoint",
    "advantage",
    "boundary_PIB",
    "concave_branch",
    "entangled_success",
    "entangled_success_array",
    "helstrom_point",
    "hull_verify",
    "relative_success",
    "single_optimal",
    "single_optimal_array",
    "single_pure_curve",
    "single_pure_curve_array",
    "tangent_PIT",
    "unambiguous_points",
    "DerivativeBundle",
    "concave_second_derivative",
    "finite_difference_check",
    "second_derivative",
    "y_root",
    "OracleResult",
    "PovmTriple",
    "optimize_povm",
    "reduced_probabilities",
    "CoincidenceCounts",
    "EstimateResult",
    "ExperimentConfig",
    "ImperfectionModel",
    "estimate",
    "load_imperfections",
    "run_trials",
    "scan_intermediate",
    "scan_unambiguous",
]
