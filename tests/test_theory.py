import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kacwalk import linalg, theory
from kacwalk.theory import (
    expected_gain_exact,
    logistic_ode_check,
    predict_linear,
    predict_logistic,
)
from kacwalk.walk import LinearSystem, walk_step


def random_instance(m, n, seed):
    rng = np.random.default_rng(seed)
    A = linalg.normalize_rows(rng.standard_normal((m, n)))
    return A, rng.standard_normal(n)


@pytest.mark.parametrize("m,n", [(5, 3), (8, 3), (3, 7), (12, 5)])
def test_oracle_matches_brute_force_single_steps(m, n):
    # Independent route: apply the actual walk update to every ordered
    # pair and average ||A' x||^2 directly. The oracle sums the same
    # pairs with the roles of the two rows exchanged, which gives the
    # same total.
    A, x = random_instance(m, n, 10)
    total = 0.0
    for i in range(m):
        for j in range(m):
            if i == j:
                continue
            sys_ij = LinearSystem(A.copy(), np.zeros(m))
            walk_step(sys_ij, i, j)
            y = sys_ij.A @ x
            total += float(y @ y)
    brute = total / (m * (m - 1))
    rep = expected_gain_exact(A, x)
    assert rep.expected_norm_sq == pytest.approx(brute, rel=1e-12)


@pytest.mark.parametrize("m,n,seed", [(4, 4, 0), (6, 6, 1), (5, 4, 2),
                                      (8, 3, 3), (10, 2, 4)])
def test_expected_gain_dominates_bound(m, n, seed):
    A, x = random_instance(m, n, seed)
    rep = expected_gain_exact(A, x)
    assert rep.expected_norm_sq - rep.bound_rhs >= -1e-12
    assert rep.base_norm_sq == pytest.approx(float(((A @ x) ** 2).sum()),
                                             rel=1e-12)


@pytest.mark.parametrize("m,n,seed", [(4, 4, 5), (6, 3, 6), (8, 5, 7)])
def test_pair_sum_chain_of_bounds(m, n, seed):
    # expected = base + S_exact/(m(m-1)) with the full amplification;
    # dropping it gives sigma_sum, recovering the first correction gives
    # sigma_sum + sigma2_sum; each refinement can only shrink the total.
    A, x = random_instance(m, n, seed)
    rep = expected_gain_exact(A, x)
    G = A @ A.T
    y = A @ x
    s_exact = 0.0
    for i in range(m):
        for j in range(m):
            if i == j:
                continue
            c = G[i, j]
            s_exact += (y[i] - c * y[j]) ** 2 / (1.0 - c * c) - y[i] ** 2
    pairs = m * (m - 1)
    assert rep.expected_norm_sq == pytest.approx(
        rep.base_norm_sq + s_exact / pairs, rel=1e-11)
    assert rep.sigma2_sum >= 0.0
    refined = rep.base_norm_sq + (rep.sigma_sum + rep.sigma2_sum) / pairs
    assert rep.expected_norm_sq >= refined - 1e-11
    assert refined >= rep.base_norm_sq + rep.sigma_sum / pairs - 1e-11
    # un-amplified pair sum still dominates the two-term bound
    t2 = float(((A.T @ y) ** 2).sum())
    assert rep.sigma_sum >= 2.0 * (rep.base_norm_sq - t2) - 1e-11


def test_orthogonal_rows_gain_nothing():
    x = np.array([0.3, -1.2, 0.8, 0.1])
    rep = expected_gain_exact(np.eye(4), x)
    assert rep.expected_norm_sq == pytest.approx(rep.base_norm_sq, rel=1e-14)
    assert rep.bound_rhs == pytest.approx(rep.base_norm_sq, rel=1e-14)
    assert abs(rep.sigma_sum) < 1e-14
    assert abs(rep.sigma2_sum) < 1e-14


def test_oracle_rejects_degenerate_and_invalid_input():
    A = np.array([[1.0, 0.0], [1.0, 0.0]])
    with pytest.raises(ValueError, match="parallel"):
        expected_gain_exact(A, np.ones(2))
    with pytest.raises(ValueError, match="unit length"):
        expected_gain_exact(2.0 * np.eye(3), np.ones(3))
    with pytest.raises(ValueError):
        expected_gain_exact(np.eye(3), np.ones(2))


# ------------------------------------------------------------ predictions


def test_predict_linear_anchor_and_recurrence():
    assert predict_linear(100, 0.05, 0) == pytest.approx(0.05, rel=1e-15)
    n, s0 = 30, 0.01
    ratio = 1.0 + 2.0 / (n * (n - 1))
    for k in (0, 7, 100):
        assert predict_linear(n, s0, k + 2) == pytest.approx(
            ratio * predict_linear(n, s0, k), rel=1e-12)


def test_predict_logistic_anchor_saturation_and_limit():
    assert predict_logistic(50, 0.2, 0) == pytest.approx(0.2, rel=1e-15)
    assert predict_logistic(50, 1.0, 12345) == pytest.approx(1.0, rel=1e-15)
    assert predict_logistic(50, 0.01, 10**9) == pytest.approx(1.0, rel=1e-9)


def test_predictions_agree_while_small():
    # Saturation is negligible while sigma << 1, so the two curves track.
    n, s0 = 100, 0.005
    k = np.arange(0, 20000, 500)
    lin = predict_linear(n, s0, k)
    logi = predict_logistic(n, s0, k)
    mask = lin < 0.05
    assert np.abs(lin[mask] / logi[mask] - 1.0).max() < 2e-3


def test_prediction_argument_validation():
    with pytest.raises(ValueError):
        predict_linear(1, 0.1, 5)
    with pytest.raises(ValueError):
        predict_linear(10, 0.0, 5)
    with pytest.raises(ValueError):
        predict_logistic(10, 1.5, 5)


def test_prediction_array_and_scalar_forms():
    arr = predict_linear(10, 0.1, np.array([0, 2, 4]))
    assert arr.shape == (3,)
    assert isinstance(predict_linear(10, 0.1, 4), float)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(2, 200),
       s0=st.floats(1e-6, 1.0),
       k=st.integers(0, 10**6))
def test_logistic_stays_in_unit_interval_and_grows(n, s0, k):
    a = predict_logistic(n, s0, k)
    b = predict_logistic(n, s0, k + 1000)
    assert 0.0 < a <= 1.0 + 1e-12
    assert b >= a - 1e-12


# -------------------------------------------------------------- ODE check


def test_logistic_ode_check_is_tiny():
    n = 10
    assert logistic_ode_check(n, 0.5, 5 * n * (n - 1)) < 1e-8


def test_logistic_ode_check_exact_at_fixed_point():
    assert logistic_ode_check(10, 1.0, 500.0) == 0.0


def test_logistic_ode_check_runs_the_shipped_predictor(monkeypatch):
    # A closed form off by 1e-6 relative must show in the gap, so the
    # check measures predict_logistic itself, not a copy of its formula.
    shipped = theory.predict_logistic

    def perturbed(n, sigma0, k):
        return shipped(n, sigma0, k) * (1.0 + 1e-6)

    monkeypatch.setattr(theory, "predict_logistic", perturbed)
    n = 10
    assert logistic_ode_check(n, 0.5, 5 * n * (n - 1)) > 1e-8


def test_logistic_ode_check_validation():
    with pytest.raises(ValueError):
        logistic_ode_check(10, 0.5, -1.0)
    with pytest.raises(ValueError, match="sigma0 must be <= 1"):
        logistic_ode_check(10, 2.0, 1.0)
