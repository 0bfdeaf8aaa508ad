import numpy as np
import pytest

from kacwalk import linalg
from kacwalk.solver import SolveConfig, kaczmarz_solve
from kacwalk.systems import gaussian_system, random_orthogonal_system
from kacwalk.walk import LinearSystem, WalkConfig, run_walk


def test_solver_converges_on_orthogonal_system():
    sys0 = random_orthogonal_system(8, seed=1)
    cfg = SolveConfig(seed=2, max_iters=5000, target_residual=1e-10,
                      record_every=100)
    x, trace = kaczmarz_solve(sys0, np.zeros(8), cfg)
    assert trace.converged
    assert np.abs(x - sys0.x_ref).max() < 1e-9
    assert trace.error_sq[-1] < trace.error_sq[0]
    assert trace.iters[0] == 0
    assert np.all(np.diff(trace.iters) > 0)


def test_solver_starting_at_solution_stops_immediately():
    sys0 = gaussian_system(6, 4, seed=3)
    cfg = SolveConfig(seed=0, max_iters=10, target_residual=1e-8)
    x, trace = kaczmarz_solve(sys0, sys0.x_ref, cfg)
    assert trace.converged
    assert len(trace) == 1
    assert trace.iters[0] == 0
    assert trace.error_sq[0] == 0.0


def test_solver_error_metric_without_reference_is_residual_sq():
    A = np.eye(3)
    b = np.array([3.0, 0.0, -4.0])
    sys0 = LinearSystem(A, b)  # no x_ref
    cfg = SolveConfig(seed=1, max_iters=1, target_residual=1e-30)
    _, trace = kaczmarz_solve(sys0, np.zeros(3), cfg)
    assert trace.error_sq[0] == pytest.approx(25.0, rel=1e-14)


def test_solver_is_seed_deterministic():
    sys0 = gaussian_system(10, 6, seed=4)
    cfg = SolveConfig(seed=7, max_iters=300, target_residual=1e-12,
                      record_every=50)
    x1, t1 = kaczmarz_solve(sys0, np.zeros(6), cfg)
    x2, t2 = kaczmarz_solve(sys0, np.zeros(6), cfg)
    assert np.array_equal(x1, x2)
    assert np.array_equal(t1.error_sq, t2.error_sq)


def test_solver_x0_validation():
    sys0 = gaussian_system(5, 3, seed=5)
    with pytest.raises(ValueError):
        kaczmarz_solve(sys0, np.zeros(4), SolveConfig(seed=0, max_iters=1,
                                                      target_residual=1e-6))


def test_mean_error_contraction_matches_rate_bound():
    # Expected squared error contracts by (1 - sigma_min^2/m) per
    # iteration; check the Monte Carlo mean against the bound plus three
    # standard errors at a couple of checkpoints.
    sys0 = gaussian_system(20, 20, seed=42)
    smin = float(linalg.singular_values(sys0.A)[-1])
    base = float(sys0.x_ref @ sys0.x_ref)
    checkpoints = [100, 300]
    ratios = {k: [] for k in checkpoints}
    for trial in range(60):
        cfg = SolveConfig(seed=1000 + trial, max_iters=300,
                          target_residual=1e-300, record_every=100)
        _, trace = kaczmarz_solve(sys0, np.zeros(20), cfg)
        for k in checkpoints:
            idx = int(np.searchsorted(trace.iters, k))
            ratios[k].append(trace.error_sq[idx] / base)
    for k in checkpoints:
        vals = np.array(ratios[k])
        bound = (1.0 - smin**2 / 20.0) ** k
        se = vals.std(ddof=1) / np.sqrt(len(vals))
        assert vals.mean() <= bound + 3.0 * se


def test_solve_config_validation():
    with pytest.raises(ValueError):
        SolveConfig(seed=0, max_iters=0, target_residual=1e-6)
    with pytest.raises(ValueError):
        SolveConfig(seed=0, max_iters=10, target_residual=0.0)
    with pytest.raises(ValueError):
        SolveConfig(seed=0, max_iters=10, target_residual=1e-6,
                    record_every=0)


# ------------------------------------------------------- walk, then solve


def test_precondition_improves_conditioning_and_convergence():
    sys0 = gaussian_system(15, 15, seed=21)
    cfg = SolveConfig(seed=5, max_iters=3000, target_residual=1e-9,
                      record_every=200)
    walked, _, snaps = run_walk(sys0, WalkConfig(seed=5, steps=2000,
                                                 snapshot_every=2000))
    _, trace_raw = kaczmarz_solve(sys0, np.zeros(15), cfg)
    _, trace_pre = kaczmarz_solve(walked, np.zeros(15), cfg)
    assert snaps[-1].sigmas[-1] > snaps[0].sigmas[-1]
    assert np.abs(np.linalg.norm(walked.A, axis=1) - 1.0).max() < 1e-12
    # the walked system still has the same solution
    assert np.abs(walked.A @ sys0.x_ref - walked.b).max() < 1e-9
    # and the solver reaches the target in fewer iterations on it
    assert trace_pre.converged
    if trace_raw.converged:
        assert trace_pre.iters[-1] <= trace_raw.iters[-1]
