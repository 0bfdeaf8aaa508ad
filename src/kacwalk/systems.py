"""Seeded generators for the systems and ensembles used in experiments.

All generators take an integer seed and are deterministic given it; every
matrix comes out row-normalized with a consistent right-hand side built
from a known solution, so walk and solver error metrics are exact.
"""

import numpy as np

from kacwalk import linalg
from kacwalk.meanfield import TWO_PI, CircleEnsemble
from kacwalk.walk import LinearSystem

__all__ = [
    "gaussian_system",
    "random_orthogonal_system",
    "random_circle_ensemble",
]

_MAX_DRAWS = 100
# Draws with a smaller sigma_min are numerically rank-deficient.
MIN_SIGMA = 1e-10


def gaussian_system(m, n, seed):
    """Row-normalized standard Gaussian system with a known solution.

    Entries are drawn N(0, 1), rows are normalized, and b = A @ x_ref for
    a Gaussian x_ref drawn from the same stream. Draws whose smallest
    singular value falls below MIN_SIGMA are rejected and redrawn (the
    walk's progress measure is meaningless there).
    """
    if m < 2 or n < 1:
        raise ValueError(f"need m >= 2 and n >= 1, got m={m}, n={n}")
    if m < n:  # every wide draw has sigma_min 0 < MIN_SIGMA
        raise ValueError(f"need m >= n, got {m}x{n}")
    rng = np.random.default_rng(seed)
    for _ in range(_MAX_DRAWS):
        A = linalg.normalize_rows(rng.standard_normal((m, n)))
        smallest = float(linalg.singular_values(A)[-1])
        if smallest < MIN_SIGMA:
            continue
        x_ref = rng.standard_normal(n)
        return LinearSystem(A, A @ x_ref, x_ref)
    raise RuntimeError(
        f"no acceptable {m}x{n} draw in {_MAX_DRAWS} attempts for seed {seed}"
    )


def random_orthogonal_system(n, seed):
    """System whose rows are already orthonormal (a fixed point of the
    walk up to rounding): Q from the QR factorization of a Gaussian
    square matrix, with b = Q @ x_ref."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    x_ref = rng.standard_normal(n)
    return LinearSystem(q, q @ x_ref, x_ref)


def random_circle_ensemble(n_points, seed):
    """n_points angles drawn uniformly on [0, 2*pi)."""
    if n_points < 1:
        raise ValueError(f"need at least one angle, got {n_points}")
    rng = np.random.default_rng(seed)
    return CircleEnsemble(rng.uniform(0.0, TWO_PI, size=n_points))
