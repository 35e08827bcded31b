"""Simulator for self-predictive representation dynamics on tabular chains."""

from types import ModuleType as _ModuleType

from .errors import (
    DegenerateCovarianceError,
    InnerSolveFailureError,
    InvalidInputError,
    NonConvergenceError,
    NonFiniteStateError,
    NotDoublyStochasticError,
    NotSymmetricError,
    SelfPredictError,
    ShapeMismatchError,
    StepSizeUnderflowError,
    UnknownScenarioError,
)
from .markov import (
    SpectralSummary,
    TransitionMatrix,
    fixed_example_2x2,
    fixed_example_3x3,
    gen_doubly_stochastic,
    gen_symmetric,
    n_step_matrix,
    sinkhorn_normalize,
    spectral,
    uniform_distribution,
    validate_distribution,
)
from .metrics import (
    CollapseMetrics,
    MetricBundle,
    Normalizers,
    collapse_metrics,
    normalizers,
    reference_normalizer,
    svd_trace_objective,
    trace_objective,
)
from .dynamics import (
    DynamicsConfig,
    TrajectoryRecord,
    covariance_solve,
    flow_residual,
    full_gradient_step,
    integrate_ode,
    integrate_ode_batch,
    noisy_predictor,
    ode_rhs,
    optimal_predictor,
    orthonormal_init,
    prediction_loss,
    predictor_gradient,
    run_discrete,
    run_discrete_batch,
    semi_gradient_step,
    solve_predictor,
)
from .bidirectional import (
    BidirState,
    bidir_ode_rhs,
    bidir_optimal_predictors,
    integrate_bidir,
    integrate_bidir_batch,
    run_discrete_bidir,
)
from .seeding import (
    STREAM_INIT_LEFT,
    STREAM_INIT_RIGHT,
    STREAM_MATRIX,
    STREAM_NOISE,
    stream_rng,
    stream_seed,
)

__version__ = "0.1.0"

# The public names are the ones imported above: every global not private and not a module.
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
