"""Dense matrix/vector kernels shared by the walk, the solver, and the oracles.

Everything here operates on plain float64 numpy arrays: matrices are 2-d,
vectors are 1-d. The helpers validate shape and finiteness and then defer
to numpy/LAPACK, which at the sizes this package targets (a few hundred
rows) is both the fastest and the most accurate option available.
"""

import numpy as np

# How far row norms may stray from 1 before a matrix is rejected.
ROW_NORM_TOL = 1e-12

__all__ = [
    "ROW_NORM_TOL",
    "as_matrix",
    "as_vector",
    "check_unit_rows",
    "normalize_rows",
    "frobenius_sq",
    "singular_values",
]


def as_matrix(a):
    """Coerce ``a`` to a fresh float64 matrix.

    Parameters
    ----------
    a : array_like
        Anything numpy can turn into a 2-d array.

    Returns
    -------
    ndarray
        A new float64 array, so callers never alias the input.

    Raises
    ------
    ValueError
        If the result is not 2-d, is empty, or contains NaN/inf.
    """
    A = np.array(a, dtype=np.float64)
    if A.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got ndim={A.ndim}")
    if A.shape[0] == 0 or A.shape[1] == 0:
        raise ValueError(f"matrix must be nonempty, got shape {A.shape}")
    if not np.isfinite(A).all():
        raise ValueError("matrix entries must be finite")
    return A


def as_vector(v):
    """Coerce ``v`` to a fresh, nonempty, finite float64 vector."""
    x = np.array(v, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError(f"expected a 1-d vector, got ndim={x.ndim}")
    if x.shape[0] == 0:
        raise ValueError("vector must be nonempty")
    if not np.isfinite(x).all():
        raise ValueError("vector entries must be finite")
    return x


def check_unit_rows(A):
    """Raise ValueError unless every row of the matrix ``A`` has unit
    Euclidean length, within ROW_NORM_TOL."""
    if np.abs(np.linalg.norm(A, axis=1) - 1.0).max() > ROW_NORM_TOL:
        raise ValueError(
            "rows must have unit length; normalize the matrix first"
        )


def normalize_rows(A):
    """Rescale every row of ``A`` to unit Euclidean length.

    Raises
    ------
    ValueError
        If any row is exactly zero.
    """
    A = as_matrix(A)
    norms = np.linalg.norm(A, axis=1)
    if np.any(norms == 0.0):
        raise ValueError("cannot normalize a zero row")
    return A / norms[:, None]


def frobenius_sq(A):
    """Squared Frobenius norm, i.e. the sum of all squared entries."""
    A = as_matrix(A)
    return float((A * A).sum())


def singular_values(A):
    """Singular values of ``A`` in descending order.

    The result always has length ``A.shape[1]``: if the matrix has fewer
    rows than columns, the missing values are exact zeros. Backed by
    LAPACK's SVD; the squares agree with the eigenvalues of ``A.T @ A``
    to high relative accuracy.
    """
    A = as_matrix(A)
    sig = np.linalg.svd(A, compute_uv=False)
    n = A.shape[1]
    if sig.shape[0] < n:
        sig = np.concatenate([sig, np.zeros(n - sig.shape[0])])
    return sig
