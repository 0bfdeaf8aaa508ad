"""Random pairwise row-orthogonalization for linear systems.

The walk repeatedly picks two rows of a row-normalized system A x = b and
replaces one by its unit-length component orthogonal to the other,
co-updating b so the solution set is untouched. Small singular values
grow toward 1 at a predictable rate, which makes the walk a solver
preconditioner; the two-column case reduces to angle dynamics on the
circle with a mean-field density limit.

Modules: ``linalg`` (dense kernels), ``walk`` (the core process),
``theory`` (exact gain oracle and growth predictions), ``solver``
(randomized row-projection baseline; walk-then-solve is ``run_walk``
then ``kaczmarz_solve``), ``meanfield`` (circle dynamics and the density
equation), ``systems`` (seeded generators), ``io`` (byte-stable
CSV/JSON), ``experiments`` and ``cli`` (the ``kkw`` command).
"""

from kacwalk.linalg import (
    frobenius_sq,
    normalize_rows,
    singular_values,
)
from kacwalk.meanfield import (
    CircleEnsemble,
    DensityGrid,
    circle_step,
    cosine_grid,
    fourier_decay_rate,
    meanfield_integrate,
    meanfield_rhs,
    mode_amplitude,
    order_parameter_4,
    run_circle_walk,
    uniform_grid,
)
from kacwalk.solver import (
    SolveConfig,
    SolveTrace,
    kaczmarz_solve,
)
from kacwalk.systems import (
    gaussian_system,
    random_circle_ensemble,
    random_orthogonal_system,
)
from kacwalk.theory import (
    GainReport,
    expected_gain_exact,
    logistic_ode_check,
    predict_linear,
    predict_logistic,
)
from kacwalk.walk import (
    LinearSystem,
    SpectrumSnapshot,
    StepLog,
    WalkConfig,
    residual_at_reference,
    run_walk,
    sample_pair,
    take_snapshot,
    walk_step,
)

__version__ = "0.1.0"

__all__ = [
    "frobenius_sq",
    "normalize_rows",
    "singular_values",
    "CircleEnsemble",
    "DensityGrid",
    "circle_step",
    "cosine_grid",
    "fourier_decay_rate",
    "meanfield_integrate",
    "meanfield_rhs",
    "mode_amplitude",
    "order_parameter_4",
    "run_circle_walk",
    "uniform_grid",
    "SolveConfig",
    "SolveTrace",
    "kaczmarz_solve",
    "gaussian_system",
    "random_circle_ensemble",
    "random_orthogonal_system",
    "GainReport",
    "expected_gain_exact",
    "logistic_ode_check",
    "predict_linear",
    "predict_logistic",
    "LinearSystem",
    "SpectrumSnapshot",
    "StepLog",
    "WalkConfig",
    "residual_at_reference",
    "run_walk",
    "sample_pair",
    "take_snapshot",
    "walk_step",
    "__version__",
]
