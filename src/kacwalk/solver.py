"""Randomized row-projection solver.

The solver is the classical randomized projection iteration: sample a row
uniformly at random, project the iterate onto that row's hyperplane,
repeat. Every row of a LinearSystem has unit length, so uniform is the
squared-norm rule of Strohmer and Vershynin, and the projection is
x += (b_i - a_i . x) a_i. Its expected squared error contracts by
(1 - sigma_min^2 / m) per iteration, so it takes fewer iterations on the
system ``run_walk`` returns, whose smallest singular value has grown
while its solution stayed put.

Every iterate is x0 plus a combination of rows, x = x0 + A^T w, and the
projection onto row i changes w[i] alone, by
delta = (b_i - a_i . x0) - (A A^T)_i . w. When m <= n the m x m matrix
A A^T is no larger than A, and the loop iterates on w in this form (the
randomized Gauss-Seidel view of Leventhal and Lewis): one dot product
and one scalar update, where the projection on x adds a whole n-vector.
It forms x = x0 + A^T w only where it checks or records it. When m > n
A A^T would outgrow A, so the loop projects x itself, and memory stays a
few copies of A on tall input. In exact arithmetic both forms produce
the same iterates; in floating point they part in the last bits.

The row indices are the walk's one stream of ``rng.integers(m)``
(``walk._draws``, fetched in blocks), which yields the same values as
drawing all max_iters at once, so memory and set-up time follow the
iterations run, not the cap.
The loop does not compute ||A x - b|| every iteration. It computes the
exact residual of x at fixed check points: every m iterations, at each
record point and at max_iters; it stops at the first check point where
that residual is at most the target. Between check points each
iteration is the projection alone. The iterates never depend on when
checks run, so only the stopping iteration moves against a loop that
checks every iteration: it comes later, by at most m - 1, never earlier.
"""

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from kacwalk import linalg
from kacwalk.walk import _draws

__all__ = [
    "SolveConfig",
    "SolveTrace",
    "kaczmarz_solve",
]


@dataclass(frozen=True)
class SolveConfig:
    """seed drives row sampling; the iteration stops at max_iters or at
    the first check point (every m iterations, and every record point)
    where ||A x - b||_2 <= target_residual; the error trace is recorded
    every record_every iterations (plus iteration 0 and the stopping
    iteration)."""

    seed: int
    max_iters: int
    target_residual: float
    record_every: int = 100

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        if not self.target_residual > 0.0:
            raise ValueError(
                f"target_residual must be positive, got {self.target_residual}"
            )
        if self.record_every < 1:
            raise ValueError(
                f"record_every must be >= 1, got {self.record_every}"
            )


@dataclass(frozen=True)
class SolveTrace:
    """Recorded error curve: error_sq[p] is the squared error at
    iteration iters[p]. The error is ||x_k - x_ref||^2 when the system
    knows its solution and the squared residual norm otherwise."""

    iters: np.ndarray = field(repr=False)
    error_sq: np.ndarray = field(repr=False)
    converged: bool = False

    def __post_init__(self):
        if len(self.iters) != len(self.error_sq):
            raise ValueError(
                f"{len(self.iters)} iterations against "
                f"{len(self.error_sq)} errors"
            )
        if np.any(np.diff(self.iters) <= 0):
            raise ValueError("trace iterations must be strictly increasing")

    def __len__(self):
        return self.iters.shape[0]


def kaczmarz_solve(system, x0, config):
    """Iterate row projections from x0 until the residual target or the
    iteration budget is hit.

    Rows are drawn uniformly from the walk's one ``rng.integers(m)``
    stream, ``walk._draws``. When m <= n the iteration runs on the
    coefficients w of x = x0 + A^T w (see the module docstring), and
    the residual, the trace and the result come from that x. The exact
    residual is checked every m iterations, at every record point and
    at max_iters, and the run stops at the first check that meets the
    target. Returns the final iterate and a SolveTrace.
    """
    x = linalg.as_vector(x0)
    if x.shape[0] != system.n:
        raise ValueError(f"x0 has length {x.shape[0]}, expected {system.n}")
    A, b, m = system.A, system.b, system.m
    rows = _draws(np.random.default_rng(config.seed), m)

    if system.x_ref is not None:
        ref = system.x_ref

        def err(v):
            d = v - ref
            return float(d @ d)
    else:

        def err(v):
            r = A @ v - b
            return float(r @ r)

    # ndarray.dot makes the same BLAS gemv call as @ with less overhead
    # on small arrays; it runs at every exact check.
    def residual(v):
        r = A.dot(v) - b
        return math.sqrt(float(r.dot(r)))

    # The loop's unknown is v, and projection i makes lhs[i] . v equal
    # rhs[i]. For m <= n, v is w in x = x0 + A^T w: lhs is A A^T, no
    # larger than A, and the projection moves w[i] alone. For m > n, v is
    # x itself and lhs is A. Row views are bound once: indexing a list is
    # cheaper than indexing the matrix.
    coefficients = m <= system.n
    if coefficients:
        start = x
        v = np.zeros(m)
        # w is v seen through a memoryview: w[i] += delta updates the
        # double in place with no NumPy scalar made, the same bits faster.
        w = memoryview(v)
        lhs, rhs = list(A @ A.T), (b - A @ start).tolist()
    else:
        v, lhs, rhs = x, list(A), b.tolist()
    target, every, last = (config.target_residual, config.record_every,
                           config.max_iters)
    iters = [0]
    errors = [err(x)]
    converged = residual(x) <= target
    k = 0
    while not converged and k < last:
        # Project up to the next check point, then check.
        stop = min(last, k - k % m + m, k - k % every + every)
        if coefficients:
            for i in itertools.islice(rows, stop - k):
                w[i] += rhs[i] - float(lhs[i].dot(v))
            x = start + v.dot(A)
        else:
            for i in itertools.islice(rows, stop - k):
                row = lhs[i]
                v += (rhs[i] - float(row.dot(v))) * row
        k = stop
        converged = residual(x) <= target
        if converged or k == last or k % every == 0:
            iters.append(k)
            errors.append(err(x))
    return x, SolveTrace(
        iters=np.asarray(iters, dtype=np.int64),
        error_sq=np.asarray(errors, dtype=np.float64),
        converged=bool(converged),
    )
