import tracemalloc

import numpy as np
import pytest

from kacwalk import linalg
from kacwalk.solver import SolveConfig, SolveTrace, kaczmarz_solve
from kacwalk.systems import gaussian_system, random_orthogonal_system
from kacwalk.walk import _DRAW_BLOCK, LinearSystem, WalkConfig, run_walk


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


def test_solver_projects_onto_a_single_row():
    # One row has no pair to walk, but Kaczmarz still projects onto it:
    # the first iteration lands on its hyperplane.
    sys0 = LinearSystem(np.array([[0.6, 0.8, 0.0]]), np.array([2.0]))
    cfg = SolveConfig(seed=0, max_iters=10, target_residual=1e-12)
    x, trace = kaczmarz_solve(sys0, np.zeros(3), cfg)
    assert trace.converged and trace.iters.tolist() == [0, 1]
    assert abs(float(sys0.A[0] @ x) - 2.0) < 1e-12


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


def _reference_solve(system, x0, config, coefficients=None):
    # The plain loop kaczmarz_solve must reproduce bit for bit: one row
    # index and one full ||A x - b|| per iteration, but only a check
    # point (every m iterations, a record point or max_iters) may stop
    # it. For m <= n it iterates on coefficients w and forms
    # x = x0 + A^T w, as kaczmarz_solve does; coefficients=False
    # iterates on x at any shape.
    if coefficients is None:
        coefficients = system.m <= system.n
    x0 = x = linalg.as_vector(x0)
    A, b = system.A, system.b
    G, coef, w = A @ A.T, b - A @ x0, np.zeros(system.m)
    draws = np.random.default_rng(config.seed).integers(
        system.m, size=config.max_iters)

    def err(v):
        d = v - system.x_ref if system.x_ref is not None else A @ v - b
        return float(d @ d)

    def resid(v):
        return float(np.linalg.norm(A @ v - b))

    iters, errors = [0], [err(x)]
    converged = resid(x) <= config.target_residual
    k = 0
    while not converged and k < config.max_iters:
        i = int(draws[k])
        k += 1
        if coefficients:
            w[i] += coef[i] - float(G[i] @ w)
            x = x0 + w @ A
        else:
            a = A[i]
            x = x + (b[i] - float(a @ x)) * a
        record = k == config.max_iters or k % config.record_every == 0
        converged = (resid(x) <= config.target_residual
                     and (record or k % system.m == 0))
        if converged or record:
            iters.append(k)
            errors.append(err(x))
    return x, np.array(iters), np.array(errors), converged


def _walked(m, n, seed, steps):
    return run_walk(gaussian_system(m, n, seed),
                    WalkConfig(seed=seed, steps=steps, snapshot_every=steps))[0]


def _without_reference(system):
    return LinearSystem(system.A, system.b)


def _wide(m, n, seed):
    # Unit rows and b = A x for a random x: consistent, with many
    # solutions, so there is no x_ref.
    rng = np.random.default_rng(seed)
    A = linalg.normalize_rows(rng.standard_normal((m, n)))
    return LinearSystem(A, A @ rng.standard_normal(n))


def _inconsistent(m, n, seed):
    # Unit rows and a b drawn apart from them: b is not in range(A) for
    # m > n, so the residual never reaches the target.
    rng = np.random.default_rng(seed)
    return LinearSystem(linalg.normalize_rows(rng.standard_normal((m, n))),
                        rng.standard_normal(m))


@pytest.mark.parametrize("system,x0,config,converged,past_block", [
    (_walked(12, 12, 1, 2000), None,
     SolveConfig(seed=1, max_iters=20000, target_residual=1e-8), True, False),
    (gaussian_system(20, 20, 2), None,
     SolveConfig(seed=2, max_iters=700, target_residual=1e-12), False, False),
    (_without_reference(gaussian_system(20, 8, 3)), None,
     SolveConfig(seed=3, max_iters=20000, target_residual=1e-7,
                 record_every=37), True, False),
    (gaussian_system(30, 10, 4), None,
     SolveConfig(seed=4, max_iters=20000, target_residual=1e-9), True, False),
    (gaussian_system(12, 6, 5), None,
     SolveConfig(seed=5, max_iters=3000, target_residual=1e-6,
                 record_every=1), True, False),
    (gaussian_system(6, 4, 6), "x_ref",
     SolveConfig(seed=6, max_iters=50, target_residual=1e-8), True, False),
    # Stops at iteration 6592, in the second block of row draws.
    (gaussian_system(16, 12, 3), None,
     SolveConfig(seed=3, max_iters=3 * _DRAW_BLOCK, target_residual=1e-10),
     True, True),
    (_walked(12, 12, 1, 2000), None,
     SolveConfig(seed=1, max_iters=20000, target_residual=1e-8,
                 record_every=10**6), True, False),
    (_inconsistent(30, 10, 8), None,
     SolveConfig(seed=8, max_iters=3000, target_residual=1e-6), False, False),
    (_wide(8, 20, 9), None,
     SolveConfig(seed=9, max_iters=20000, target_residual=1e-9), True, False),
], ids=["walked", "raw-capped", "no-x_ref", "tall-30x10", "record_every-1",
        "x0-at-solution", "past-a-row-block", "record_every-above-cap",
        "inconsistent-capped", "wide-8x20"])
def test_solver_matches_reference_loop_bitwise(system, x0, config, converged,
                                               past_block):
    x0 = system.x_ref if x0 == "x_ref" else np.zeros(system.n)
    x, trace = kaczmarz_solve(system, x0, config)
    ref_x, ref_iters, ref_errors, ref_converged = _reference_solve(
        system, x0, config)
    assert np.array_equal(x, ref_x)
    assert np.array_equal(trace.iters, ref_iters)
    assert np.array_equal(trace.error_sq, ref_errors)
    assert trace.converged == ref_converged == converged
    # A case that stops past the first block checks that blocks of row
    # draws chain into one stream.
    assert (trace.iters[-1] > _DRAW_BLOCK) == past_block


@pytest.mark.parametrize("m,n", [(12, 12), (30, 10)])
def test_solver_checks_never_perturb_the_iterate(m, n):
    # A target no check meets: a check or record at every iteration and
    # none before the cap leave the same iterate, square (coefficient
    # form) and tall (projection on x).
    system = gaussian_system(m, n, 5)
    runs = [kaczmarz_solve(system, np.zeros(n),
                           SolveConfig(seed=5, max_iters=1000,
                                       target_residual=1e-300,
                                       record_every=every))
            for every in (1, 10**6)]
    (x_all, t_all), (x_end, t_end) = runs
    assert not t_all.converged and not t_end.converged
    assert np.array_equal(x_all, x_end)
    assert len(t_all) == 1001 and list(t_end.iters) == [0, 1000]
    assert np.array_equal(t_all.error_sq[t_end.iters], t_end.error_sq)


def test_solver_stops_at_the_first_check_point_that_meets_the_target():
    # Check points are the multiples of m = 50 and of record_every = 70:
    # the stop is one of them, and the exact residual at the check point
    # before it is still above the target.
    system = _walked(50, 50, 0, 15000)
    target = 1e-6

    def solve(cap):
        return kaczmarz_solve(system, np.zeros(50),
                              SolveConfig(seed=0, max_iters=cap,
                                          target_residual=target,
                                          record_every=70))

    def residual(x):
        return float(np.linalg.norm(system.A @ x - system.b))

    x, trace = solve(50000)
    stop = int(trace.iters[-1])
    assert trace.converged and residual(x) <= target
    assert stop % 50 == 0 or stop % 70 == 0
    before = max(k for k in range(1, stop) if k % 50 == 0 or k % 70 == 0)
    assert residual(solve(before)[0]) > target


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_coefficient_form_tracks_the_projection_loop_on_walked_systems(seed):
    # The solve workload's walked systems: the coefficient form stops at
    # the primal loop's iteration (650, 1250 and 850) with x within
    # 1.8e-15 of the primal x.
    system = _walked(50, 50, seed, 15000)
    config = SolveConfig(seed=seed, max_iters=50000, target_residual=1e-6)
    x, trace = kaczmarz_solve(system, np.zeros(50), config)
    ref_x, ref_iters, _, ref_converged = _reference_solve(
        system, np.zeros(50), config, coefficients=False)
    assert trace.converged and ref_converged
    assert trace.iters[-1] == ref_iters[-1]
    assert np.abs(x - ref_x).max() < 1e-14


def test_coefficient_form_tracks_the_projection_loop_without_a_solution():
    # A repeated row with its own b value: the projections never settle,
    # and w[0] - w[9] random-walks. After 20k iterations x stays 1.4e-12
    # from the primal x, whose largest entry is 24.
    rng = np.random.default_rng(0)
    M = rng.standard_normal((10, 10))
    M[9] = M[0]
    system = LinearSystem(linalg.normalize_rows(M), rng.standard_normal(10))
    config = SolveConfig(seed=0, max_iters=20000, target_residual=1e-6)
    x, trace = kaczmarz_solve(system, np.zeros(10), config)
    ref_x, *_ = _reference_solve(system, np.zeros(10), config,
                                 coefficients=False)
    assert not trace.converged and trace.iters[-1] == 20000
    assert np.abs(x - ref_x).max() < 1e-11


def test_solver_memory_follows_iterations_run_not_the_cap():
    # Drawing all 10**7 rows up front would take 80 MB for the indices
    # alone, and an m x m Gram matrix 72 MB for these 3000 rows; this
    # solve stops within about a thousand iterations, and its set-up
    # needs a few copies of A at most.
    system = gaussian_system(3000, 20, 1)
    config = SolveConfig(seed=2, max_iters=10**7, target_residual=1e-10)
    tracemalloc.start()
    try:
        _, trace = kaczmarz_solve(system, np.zeros(20), config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert trace.converged and trace.iters[-1] < _DRAW_BLOCK
    assert peak < 4 * system.A.nbytes


def test_solver_memory_on_wide_systems_stays_near_A():
    # The wide twin of the test above: an n x n Gram matrix would take
    # 72 MB for these 3000 columns, and the coefficient form needs only
    # the 20 x 20 A A^T besides A.
    system = _wide(20, 3000, 2)
    config = SolveConfig(seed=2, max_iters=10**7, target_residual=1e-10)
    tracemalloc.start()
    try:
        _, trace = kaczmarz_solve(system, np.zeros(3000), config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert trace.converged and trace.iters[-1] < _DRAW_BLOCK
    assert peak < 4 * system.A.nbytes


def test_solve_config_validation():
    with pytest.raises(ValueError):
        SolveConfig(seed=0, max_iters=0, target_residual=1e-6)
    with pytest.raises(ValueError):
        SolveConfig(seed=0, max_iters=10, target_residual=0.0)
    with pytest.raises(ValueError):
        SolveConfig(seed=0, max_iters=10, target_residual=1e-6,
                    record_every=0)


def test_solve_trace_refuses_unequal_lengths():
    # A trace whose columns differ in length would lose its tail on
    # write_trace_csv.
    with pytest.raises(ValueError, match="3 iterations against 2 errors"):
        SolveTrace(np.array([0, 10, 20]), np.array([1.0, 0.5]))


@pytest.mark.parametrize("iters", [[0, 10, 10], [0, 20, 10]],
                         ids=["repeated", "decreasing"])
def test_solve_trace_refuses_iterations_that_do_not_increase(iters):
    with pytest.raises(ValueError, match="must be strictly increasing"):
        SolveTrace(np.array(iters), np.ones(3))


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
