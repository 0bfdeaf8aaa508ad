import numpy as np
import pytest

from kacwalk import systems
from kacwalk.meanfield import TWO_PI
from kacwalk.systems import (
    gaussian_system,
    random_circle_ensemble,
    random_orthogonal_system,
)


def test_gaussian_system_shape_and_consistency():
    sys0 = gaussian_system(7, 4, seed=0)
    assert sys0.m == 7 and sys0.n == 4
    assert np.abs(np.linalg.norm(sys0.A, axis=1) - 1.0).max() < 1e-12
    assert np.array_equal(sys0.A @ sys0.x_ref, sys0.b)


def test_gaussian_system_seed_determinism():
    a = gaussian_system(6, 6, seed=5)
    b = gaussian_system(6, 6, seed=5)
    c = gaussian_system(6, 6, seed=6)
    assert np.array_equal(a.A, b.A)
    assert np.array_equal(a.b, b.b)
    assert not np.array_equal(a.A, c.A)


def test_gaussian_system_validation():
    with pytest.raises(ValueError):
        gaussian_system(1, 3, seed=0)
    # m < n pads sigma_min with an exact 0, so no draw could ever pass:
    # refuse before drawing instead of after 100 rejected draws.
    with pytest.raises(ValueError, match="m >= n"):
        gaussian_system(10, 20, seed=0)


def test_gaussian_system_gives_up_after_100_draws(monkeypatch):
    # With no acceptable sigma_min every draw is rejected.
    monkeypatch.setattr(systems, "MIN_SIGMA", np.inf)
    with pytest.raises(RuntimeError, match=(
            "no acceptable 4x3 draw in 100 attempts for seed 5")):
        gaussian_system(4, 3, seed=5)


def test_random_orthogonal_system_validation():
    with pytest.raises(ValueError, match="need n >= 2, got 1"):
        random_orthogonal_system(1, seed=0)


def test_random_orthogonal_system_rows_orthonormal():
    sys0 = random_orthogonal_system(6, seed=2)
    assert np.abs(sys0.A @ sys0.A.T - np.eye(6)).max() < 1e-12
    assert np.abs(sys0.A @ sys0.x_ref - sys0.b).max() < 1e-12


def test_random_circle_ensemble_range_and_determinism():
    e1 = random_circle_ensemble(50, seed=3)
    e2 = random_circle_ensemble(50, seed=3)
    assert e1.n == 50
    assert np.all(e1.angles >= 0.0) and np.all(e1.angles < TWO_PI)
    assert np.array_equal(e1.angles, e2.angles)
    with pytest.raises(ValueError):
        random_circle_ensemble(0, seed=0)
