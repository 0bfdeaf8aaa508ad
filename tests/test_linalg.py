import numpy as np
import pytest

from kacwalk import linalg, walk
from kacwalk.meanfield import CircleEnsemble
from kacwalk.theory import expected_gain_exact


def test_as_matrix_copies_and_coerces():
    raw = [[1, 2], [3, 4]]
    A = linalg.as_matrix(raw)
    assert A.dtype == np.float64
    A[0, 0] = 99.0
    assert raw[0][0] == 1


@pytest.mark.parametrize("bad", [np.zeros(3), np.zeros((2, 2, 2)),
                                 np.zeros((0, 3)), [[np.nan, 1.0]]])
def test_as_matrix_rejects(bad):
    with pytest.raises(ValueError):
        linalg.as_matrix(bad)


@pytest.mark.parametrize("bad", [np.zeros((2, 2)), [], [np.inf]])
def test_as_vector_rejects(bad):
    with pytest.raises(ValueError):
        linalg.as_vector(bad)


def test_normalize_rows_unit_norms():
    rng = np.random.default_rng(7)
    A = linalg.normalize_rows(rng.standard_normal((8, 5)))
    assert np.abs(np.linalg.norm(A, axis=1) - 1.0).max() < 1e-14


def test_normalize_rows_zero_row():
    with pytest.raises(ValueError, match="zero row"):
        linalg.normalize_rows(np.array([[1.0, 0.0], [0.0, 0.0]]))


def test_frobenius_sq_known_value():
    assert linalg.frobenius_sq([[3.0, 4.0], [0.0, 1.0]]) == pytest.approx(26.0)


def test_frobenius_sq_equals_sum_of_squared_singular_values():
    rng = np.random.default_rng(3)
    A = rng.standard_normal((6, 4))
    sig = linalg.singular_values(A)
    assert linalg.frobenius_sq(A) == pytest.approx(float((sig**2).sum()),
                                                   rel=1e-12)


def test_singular_values_closed_form_2x2():
    # Rows e1 and (e1 + e2)/sqrt(2): A^T A has trace 2 and det 1/2, so the
    # squared singular values are 1 +- sqrt(2)/2.
    A = np.array([[1.0, 0.0], [1.0, 1.0]]) / np.array([[1.0], [np.sqrt(2.0)]])
    sig = linalg.singular_values(A)
    expected = np.sqrt([1.0 + np.sqrt(2.0) / 2.0, 1.0 - np.sqrt(2.0) / 2.0])
    assert np.abs(sig - expected).max() < 1e-12


def test_singular_values_match_gram_eigenvalues():
    rng = np.random.default_rng(11)
    A = rng.standard_normal((7, 4))
    sig = linalg.singular_values(A)
    eig = np.sort(np.linalg.eigvalsh(A.T @ A))[::-1]
    assert np.abs(sig**2 - eig).max() < 1e-10
    assert np.all(np.diff(sig) <= 0)


def test_singular_values_padded_to_column_count():
    sig = linalg.singular_values(np.array([[1.0, 0.0, 0.0]]))
    assert sig.shape == (3,)
    assert np.allclose(sig, [1.0, 0.0, 0.0])


def _scaled_rows(scale):
    """3x2 unit rows with row 1 multiplied by scale."""
    A = np.array([[1.0, 0.0], [0.6, 0.8], [0.0, 1.0]])
    A[1] *= scale
    return A


def test_check_unit_rows_accepts_rows_within_tolerance():
    linalg.check_unit_rows(_scaled_rows(1.0 + 0.5 * linalg.ROW_NORM_TOL))
    linalg.check_unit_rows(_scaled_rows(1.0 - 0.5 * linalg.ROW_NORM_TOL))


@pytest.mark.parametrize("scale", [1.0 + 2.0 * linalg.ROW_NORM_TOL,
                                   1.0 - 2.0 * linalg.ROW_NORM_TOL, 2.0])
def test_check_unit_rows_refuses_a_row_outside_tolerance(scale):
    with pytest.raises(ValueError, match="unit length"):
        linalg.check_unit_rows(_scaled_rows(scale))


def test_every_unit_row_check_is_the_linalg_one():
    # LinearSystem, CircleEnsemble.from_matrix and expected_gain_exact
    # refuse a non-unit row with linalg.check_unit_rows' own message.
    assert walk.ROW_NORM_TOL is linalg.ROW_NORM_TOL
    A = _scaled_rows(1.0 + 2.0 * linalg.ROW_NORM_TOL)
    with pytest.raises(ValueError) as want:
        linalg.check_unit_rows(A)
    for refuse in (lambda: walk.LinearSystem(A, np.zeros(3)),
                   lambda: CircleEnsemble.from_matrix(A),
                   lambda: expected_gain_exact(A, np.ones(2))):
        with pytest.raises(ValueError) as got:
            refuse()
        assert str(got.value) == str(want.value)
