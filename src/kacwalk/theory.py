"""Exact one-step gain oracle and closed-form growth predictions.

The oracle averages ||A' x||^2 exactly over every ordered row pair, in
closed form; no sampling, no Monte Carlo. That average provably dominates

    ||A x||^2 + 2/(m(m-1)) * (||A x||^2 - ||A^T A x||^2),

which is what the audit in the test-suite checks instance by instance.
The prediction helpers turn the per-step version of that bound into
trajectories for the smallest singular values: compounding the mean
one-step growth gives an exponential curve, and keeping the saturation
term gives a logistic curve that levels off at 1.
"""

import math
from dataclasses import dataclass

import numpy as np

from kacwalk import linalg
from kacwalk.meanfield import _rk4_step
from kacwalk.walk import DEGENERATE_TOL

__all__ = [
    "GainReport",
    "expected_gain_exact",
    "predict_linear",
    "predict_logistic",
    "logistic_ode_check",
]


@dataclass(frozen=True)
class GainReport:
    """Exact expected gain of one step at a fixed direction x.

    expected_norm_sq  E ||A' x||^2 over the uniform ordered pair choice
    base_norm_sq      ||A x||^2 before the step
    bound_rhs         base + 2/(m(m-1)) * (base - ||A^T A x||^2)
    sigma_sum         sum over ordered pairs of (y_j - c_ij y_i)^2 - y_j^2
                      with y = A x, i.e. the pair sum with the
                      1/(1 - c^2) amplification dropped
    sigma2_sum        sum over ordered pairs of c_ij^2 (y_j - c_ij y_i)^2,
                      the first amplification correction recovered from
                      1/(1 - t) >= 1 + t

    As in walk_step, the pair (i, j) moves row j against row i. Each sum
    runs over all ordered pairs, so it does not depend on which index
    is called the moving one.
    """

    expected_norm_sq: float
    base_norm_sq: float
    bound_rhs: float
    sigma_sum: float
    sigma2_sum: float


def expected_gain_exact(A, x):
    """Average ||A' x||^2 over every ordered row pair (i, j), in closed form.

    For each of the m(m-1) ordered pairs the update replaces row j by its
    component orthogonal to row i, rescaled to unit length, as walk_step
    does. Only entry j of y = A x changes, to
    (y_j - c_ij y_i) / sqrt(1 - c_ij^2) with c_ij = <A_i, A_j>, so the
    pair contributes

        ||y||^2 - y_j^2 + (y_j - c_ij y_i)^2 / (1 - c_ij^2)

    exactly. The average runs over all ordered pairs, so it does not
    depend on which index of a pair is called the moving one. Summing
    over all pairs costs O(m^2 n), dominated by the Gram matrix.

    Raises
    ------
    ValueError
        If rows are not unit length, dimensions mismatch, or some pair is
        degenerate (1 - c^2 < DEGENERATE_TOL), where the update itself is
        undefined.
    """
    A = linalg.as_matrix(A)
    x = linalg.as_vector(x)
    m, n = A.shape
    if m < 2:
        raise ValueError("need at least two rows")
    if x.shape[0] != n:
        raise ValueError(f"x has length {x.shape[0]}, expected {n}")
    linalg.check_unit_rows(A)

    # Every ordered pair (i, j) with i != j, flattened i-major.
    off = ~np.eye(m, dtype=bool)
    c = (A @ A.T)[off]
    rest = 1.0 - c * c
    if rest.min() < DEGENERATE_TOL:
        raise ValueError("some row pair is parallel up to sign")

    y = A @ x
    base = float(y @ y)
    w = A.T @ y
    pairs = m * (m - 1)
    bound_rhs = base + 2.0 / pairs * (base - float(w @ w))

    # Here the first index of each flattened pair is the row that moves;
    # over all ordered pairs the sums come out the same.
    yi = np.repeat(y, m - 1)
    yj = np.broadcast_to(y, (m, m))[off]
    num_sq = (yi - c * yj) ** 2
    return GainReport(
        expected_norm_sq=float((base - yi * yi + num_sq / rest).sum()) / pairs,
        base_norm_sq=base,
        bound_rhs=bound_rhs,
        sigma_sum=float((num_sq - yi * yi).sum()),
        sigma2_sum=float((c * c * num_sq).sum()),
    )


def _check_prediction_args(n, sigma0):
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if not sigma0 > 0.0:
        raise ValueError(f"sigma0 must be positive, got {sigma0}")


def predict_linear(n, sigma0, k):
    """Compounded small-value growth sigma0 * (1 + 2/(n(n-1)))^(k/2).

    Valid while the value stays well below 1; it ignores saturation and
    eventually overshoots. ``k`` may be a scalar or an array of step
    counts.
    """
    _check_prediction_args(n, sigma0)
    k = np.asarray(k, dtype=np.float64)
    out = sigma0 * (1.0 + 2.0 / (n * (n - 1))) ** (k / 2.0)
    return float(out) if out.ndim == 0 else out


def predict_logistic(n, sigma0, k):
    """Saturating growth curve through sigma0 that levels off at 1.

    Closed form (1 + (1/sigma0^2 - 1) exp(-2k/(n(n-1))))^(-1/2), the
    solution of y' = 2/(n(n-1)) * (y - y^2) for y = sigma^2 started at
    sigma0^2. Requires 0 < sigma0 <= 1.
    """
    _check_prediction_args(n, sigma0)
    if sigma0 > 1.0:
        raise ValueError(f"sigma0 must be <= 1, got {sigma0}")
    k = np.asarray(k, dtype=np.float64)
    decay = np.exp(-2.0 * k / (n * (n - 1)))
    out = (1.0 + (1.0 / sigma0**2 - 1.0) * decay) ** -0.5
    return float(out) if out.ndim == 0 else out


def logistic_ode_check(n, sigma0, t_max):
    """Max gap between an RK4 integration of y' = 2/(n(n-1)) (y - y^2)
    and the square of :func:`predict_logistic`, over [0, t_max].

    The integration takes the mean-field integrator's RK4 step, with the
    step size chosen so rate * h <= 0.01 (at least 100 steps); at that
    resolution the two should agree to ~1e-10, so any visible gap means
    the shipped predictor is wrong.
    """
    _check_prediction_args(n, sigma0)
    if t_max < 0:
        raise ValueError(f"t_max must be >= 0, got {t_max}")
    rate = 2.0 / (n * (n - 1))
    nsteps = max(100, math.ceil(t_max * rate / 0.01))
    h = t_max / nsteps
    exact = predict_logistic(n, sigma0, h * np.arange(1, nsteps + 1)) ** 2

    def f(v):
        return rate * (v - v * v)

    y = sigma0 * sigma0
    worst = 0.0
    for target in exact.tolist():
        y = _rk4_step(f, y, h)
        worst = max(worst, abs(y - target))
    return worst
