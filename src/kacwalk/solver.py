"""Randomized row-projection solver.

The solver is the classical randomized projection iteration: sample a row
with probability proportional to its squared norm, project the iterate
onto that row's hyperplane, repeat. Its expected squared error contracts
by (1 - sigma_min^2 / ||A||_F^2) per iteration, so it takes fewer
iterations on the system ``run_walk`` returns, whose smallest singular
value has grown while its solution stayed put.

The row indices are drawn in one vectorized pass. The loop keeps a
running residual r = A x - b, moved by delta * G[i] per projection with
G = A A^T built once, so an iteration costs O(m + n) rather than the
O(mn) of a fresh ||A x - b||. r is set exactly at every record point,
and whenever its norm falls to _STOP_GUARD times the target the exact
residual is computed. The stop is decided on that alone, so iterates,
trace and stopping iteration are bitwise those of a loop that checks the
exact residual every iteration, as long as the rounding drift of r over
one record interval stays below the target (it is many orders of
magnitude smaller unless the target sits at the rounding floor of
||A x - b||; there the run can only stop later, never earlier).
"""

import math
from dataclasses import dataclass, field

import numpy as np

from kacwalk import linalg

__all__ = [
    "SolveConfig",
    "SolveTrace",
    "kaczmarz_solve",
]

# The exact residual is computed whenever the running one falls to this
# multiple of the target; only the exact one decides the stop.
_STOP_GUARD = 2.0


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

    Rows are sampled with probability ||A_i||^2 / ||A||_F^2 (uniform for
    the row-normalized systems this package produces). Returns the final
    iterate and a SolveTrace.
    """
    x = linalg.as_vector(x0)
    if x.shape[0] != system.n:
        raise ValueError(f"x0 has length {x.shape[0]}, expected {system.n}")
    A, b = system.A, system.b
    row_sq = (A * A).sum(axis=1)
    cum = np.cumsum(row_sq)
    cum /= cum[-1]
    rng = np.random.default_rng(config.seed)
    rows = np.searchsorted(cum, rng.random(config.max_iters),
                           side="right").tolist()

    if system.x_ref is not None:
        ref = system.x_ref

        def err(v):
            d = v - ref
            return float(d @ d)
    else:

        def err(v):
            r = A @ v - b
            return float(r @ r)

    # r tracks A x - b: projecting onto row i moves it by delta * G[i].
    G = A @ A.T
    b_list, row_sq_list = b.tolist(), row_sq.tolist()
    target, every, last = (config.target_residual, config.record_every,
                           config.max_iters)
    guard = _STOP_GUARD * target
    r = A @ x - b
    iters = [0]
    errors = [err(x)]
    converged = math.sqrt(float(r.dot(r))) <= target
    k = 0
    while not converged and k < last:
        i = rows[k]
        k += 1
        a = A[i]
        delta = (b_list[i] - float(a.dot(x))) / row_sq_list[i]
        x += delta * a
        r += delta * G[i]
        record = k == last or k % every == 0
        if record or math.sqrt(float(r.dot(r))) <= guard:
            r = A @ x - b
            converged = math.sqrt(float(r.dot(r))) <= target
            if converged or record:
                iters.append(k)
                errors.append(err(x))
    return x, SolveTrace(
        iters=np.asarray(iters, dtype=np.int64),
        error_sq=np.asarray(errors, dtype=np.float64),
        converged=bool(converged),
    )
