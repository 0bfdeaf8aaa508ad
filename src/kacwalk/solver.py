"""Randomized row-projection solver.

The solver is the classical randomized projection iteration: sample a row
with probability proportional to its squared norm, project the iterate
onto that row's hyperplane, repeat. Its expected squared error contracts
by (1 - sigma_min^2 / ||A||_F^2) per iteration, so it takes fewer
iterations on the system ``run_walk`` returns, whose smallest singular
value has grown while its solution stayed put.

The row indices are drawn _ROW_BLOCK at a time from one generator, which
yields the same stream as drawing all max_iters at once, so memory and
set-up time follow the iterations run, not the cap. The loop does not
compute ||A x - b|| every iteration. Projecting onto row i moves A x - b
by delta * A a_i, whose norm is |delta| * reach[i] with reach[i] =
||A a_i|| computed once. So after each exact residual res, the scalar
room = res - _STOP_GUARD * target, decremented by |delta| * reach[i] per
projection, is a lower bound on how far the residual still sits above
_STOP_GUARD * target. The exact residual is computed only when room
reaches 0 or at a record point, and it alone decides the stop. Iterates,
trace and stopping iteration are therefore bitwise those of a loop that
checks the exact residual every iteration, as long as the rounding in
room since the last exact check stays below the target (it is many
orders of magnitude smaller unless the target sits at the rounding floor
of ||A x - b||; there the run can only stop later, never earlier).
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

    if system.x_ref is not None:
        ref = system.x_ref

        def err(v):
            d = v - ref
            return float(d @ d)
    else:

        def err(v):
            r = A @ v - b
            return float(r @ r)

    def residual(v):
        r = A @ v - b
        return math.sqrt(float(r.dot(r)))

    # Views bound once: indexing a list is cheaper than A[i] per iteration.
    A_rows = list(A)
    # reach[i] = ||A a_i||; the m x m Gram matrix is dropped once it is read.
    reach = np.linalg.norm(A @ A.T, axis=1).tolist()
    b_list, row_sq_list = b.tolist(), row_sq.tolist()
    target, every, last = (config.target_residual, config.record_every,
                           config.max_iters)
    guard = _STOP_GUARD * target
    res = residual(x)
    room = res - guard
    iters = [0]
    errors = [err(x)]
    converged = res <= target
    if not converged:
        for k, i in enumerate(_rows(cum, rng, last), 1):
            a = A_rows[i]
            delta = (b_list[i] - float(a.dot(x))) / row_sq_list[i]
            x += delta * a
            room -= abs(delta) * reach[i]
            record = k == last or k % every == 0
            if record or room <= 0.0:
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


def _rows(cum, rng, count):
    """count row indices, searchsorted from uniform draws made _ROW_BLOCK
    at a time: consecutive rng.random blocks continue one stream."""
    for start in range(0, count, _ROW_BLOCK):
        u = rng.random(min(_ROW_BLOCK, count - start))
        yield from np.searchsorted(cum, u, side="right").tolist()

