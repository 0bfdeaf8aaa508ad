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

The row indices are one stream of ``rng.integers(m)`` drawn _ROW_BLOCK
at a time, which yields the same values as drawing all max_iters at
once, so memory and set-up time follow the iterations run, not the cap.
The loop does not compute ||A x - b|| every iteration. Projecting onto
row i moves A x - b by delta * A a_i, whose norm is |delta| * reach[i]
with reach[i] = ||A a_i||, computed once from the n x n Gram matrix as
reach[i]^2 = a_i . (A^T A) a_i. So after each exact residual res, the
scalar room = res - _STOP_GUARD * target, decremented by
|delta| * reach[i] per projection, is a lower bound on how far the
residual still sits above _STOP_GUARD * target. The exact residual of
x is computed only when room reaches 0 or at a record point, and it
alone decides the stop. Iterates, trace and stopping iteration are
therefore bitwise those of a loop, in the same form, that checks the
exact residual every iteration, as long as the rounding in room since
the last exact check stays below the target (it is many orders of
magnitude smaller unless the target sits at the rounding floor of
||A x - b||; there the run can only stop later, never earlier).
"""

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from kacwalk import linalg

__all__ = [
    "SolveConfig",
    "SolveTrace",
    "kaczmarz_solve",
]

# The exact residual is computed whenever the bound on it falls to this
# multiple of the target; only the exact one decides the stop.
_STOP_GUARD = 2.0
# Row indices drawn per call on the generator.
_ROW_BLOCK = 4096


@dataclass(frozen=True)
class SolveConfig:
    """seed drives row sampling; the iteration stops at the first of
    max_iters or ||A x - b||_2 <= target_residual; the error trace is
    recorded every record_every iterations (plus iteration 0 and the
    stopping iteration)."""

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
        if np.any(np.diff(self.iters) <= 0):
            raise ValueError("trace iterations must be strictly increasing")

    def __len__(self):
        return self.iters.shape[0]


def kaczmarz_solve(system, x0, config):
    """Iterate row projections from x0 until the residual target or the
    iteration budget is hit.

    Rows are drawn uniformly, _ROW_BLOCK at a time from one
    ``rng.integers(m)`` stream. When m <= n the iteration runs on the
    coefficients w of x = x0 + A^T w (see the module docstring), and
    the residual, the trace and the result come from that x. Returns the
    final iterate and a SolveTrace.
    """
    x = linalg.as_vector(x0)
    if x.shape[0] != system.n:
        raise ValueError(f"x0 has length {x.shape[0]}, expected {system.n}")
    A, b = system.A, system.b
    rng = np.random.default_rng(config.seed)
    rows = itertools.chain.from_iterable(
        iter(lambda: rng.integers(system.m, size=_ROW_BLOCK).tolist(), None))

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

    # reach[i] = ||A a_i||, from the n x n Gram matrix: the m x m one
    # would take m^2 floats for an m x n system.
    reach = np.sqrt(np.vecdot(A @ (A.T @ A), A)).tolist()
    # The loop's unknown is v, and projection i makes lhs[i] . v equal
    # rhs[i]. For m <= n, v is w in x = x0 + A^T w: lhs is A A^T, no
    # larger than A, and the projection moves w[i] alone. For m > n, v is
    # x itself and lhs is A. Row views are bound once: indexing a list is
    # cheaper than indexing the matrix.
    coefficients = system.m <= system.n
    if coefficients:
        start = x
        v = np.zeros(system.m)
        # w is v seen through a memoryview: w[i] += delta updates the
        # double in place with no NumPy scalar made, the same bits faster.
        w = memoryview(v)
        lhs, rhs = list(A @ A.T), (b - A @ start).tolist()
    else:
        v, lhs, rhs = x, list(A), b.tolist()
    target, every, last = (config.target_residual, config.record_every,
                           config.max_iters)
    guard = _STOP_GUARD * target
    res = residual(x)
    room = res - guard
    iters = [0]
    errors = [err(x)]
    converged = res <= target
    if not converged:
        for k, i in enumerate(itertools.islice(rows, last), 1):
            row = lhs[i]
            delta = rhs[i] - float(row.dot(v))
            if coefficients:
                w[i] += delta
            else:
                v += delta * row
            room -= abs(delta) * reach[i]
            record = k == last or k % every == 0
            if record or room <= 0.0:
                if coefficients:
                    x = start + v.dot(A)
                res = residual(x)
                converged = res <= target
                room = res - guard
                if converged or record:
                    iters.append(k)
                    errors.append(err(x))
                    if converged:
                        break
    return x, SolveTrace(
        iters=np.asarray(iters, dtype=np.int64),
        error_sq=np.asarray(errors, dtype=np.float64),
        converged=bool(converged),
    )

