"""End-to-end gate: one test per headline guarantee, each printing a
single PASS/FAIL line with the measured values (run with -s to see them
alongside pytest's own per-test lines)."""

import time

import numpy as np
import pytest

from kacwalk import linalg
from kacwalk.meanfield import (
    CircleEnsemble,
    circle_step,
    cosine_grid,
    fourier_decay_rate,
    meanfield_integrate,
    run_circle_walk,
)
from kacwalk.solver import SolveConfig, kaczmarz_solve
from kacwalk.systems import gaussian_system, random_circle_ensemble
from kacwalk.theory import (
    expected_gain_exact,
    logistic_ode_check,
    predict_linear,
    predict_logistic,
)
from kacwalk.walk import LinearSystem, WalkConfig, run_walk, sample_pair, walk_step

N_DIM = 100
N_SEEDS = 10
WALK_STEPS = 80000  # 8 n^2: covers tracking, saturation, and overshoot
SNAP_EVERY = 200


def _line(num, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    print(f"[criterion {num:2d}] {verdict}: {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def walk_runs():
    """Ten seeded 100x100 runs; smallest singular value sampled every
    200 steps out to 80000."""
    t0 = time.perf_counter()
    trajectories = []
    for seed in range(N_SEEDS):
        system = gaussian_system(N_DIM, N_DIM, seed)
        _, _, snaps = run_walk(system, WalkConfig(
            seed=seed, steps=WALK_STEPS, snapshot_every=SNAP_EVERY))
        trajectories.append([float(s.sigmas[-1]) for s in snaps])
    elapsed = time.perf_counter() - t0
    ks = np.arange(0, WALK_STEPS + 1, SNAP_EVERY)
    sig = np.array(trajectories)
    return ks, np.median(sig, axis=0), elapsed


def test_01_exact_expansion_audit_200_instances():
    shapes = [(4, 4), (6, 6), (5, 4), (8, 3)]
    t0 = time.perf_counter()
    worst = np.inf
    for idx in range(200):
        m, n = shapes[idx % 4]
        rng = np.random.default_rng(idx)
        A = linalg.normalize_rows(rng.standard_normal((m, n)))
        x = rng.standard_normal(n)
        rep = expected_gain_exact(A, x)
        worst = min(worst, rep.expected_norm_sq - rep.bound_rhs)
    elapsed = time.perf_counter() - t0
    _line(1, worst >= -1e-10 and elapsed < 10.0,
          f"worst gap {worst:.3e} (>= -1e-10), {elapsed:.1f}s (< 10s)")


def test_02_solution_and_norm_preserved_over_10k_steps():
    system = gaussian_system(50, 50, seed=0)
    _, _, snaps = run_walk(system, WalkConfig(seed=0, steps=10000))
    worst_res = max(s.residual_inf for s in snaps)
    worst_frob = max(abs(s.frob_sq - 50.0) for s in snaps)
    _line(2, worst_res <= 1e-8 and worst_frob <= 1e-8,
          f"max residual_inf {worst_res:.2e}, max |frob_sq - 50| "
          f"{worst_frob:.2e} over {len(snaps)} snapshots (both <= 1e-8)")


def test_03_compound_growth_prediction_tracks_small_values(walk_runs):
    ks, median, elapsed = walk_runs
    sigma0 = median[0]
    linear = predict_linear(N_DIM, sigma0, ks)
    window = median <= 0.3
    rel = np.abs(median[window] - linear[window]) / linear[window]
    _line(3, float(rel.max()) <= 0.15 and elapsed <= 120.0,
          f"max rel err {rel.max():.3f} (<= 0.15) while median <= 0.3 "
          f"(sigma0 {sigma0:.4f}, {int(window.sum())} snapshots, "
          f"runs took {elapsed:.0f}s <= 120s)")


def test_04_saturating_prediction_outlasts_compound_growth(walk_runs):
    ks, median, _ = walk_runs
    sigma0 = median[0]
    logistic = predict_logistic(N_DIM, sigma0, ks)
    linear = predict_linear(N_DIM, sigma0, ks)

    two_n_sq = ks <= 2 * N_DIM**2
    rel_log = np.abs(logistic[two_n_sq] - median[two_n_sq]) / median[two_n_sq]
    ok_log = float(rel_log.max()) <= 0.15

    # The compound-growth curve ignores saturation entirely: with these
    # starting values it needs more than 2n^2 steps to even reach 1, so
    # the run is extended to 8n^2 to watch it cross 1 and blow past the
    # saturating trajectory.
    crossed = linear > 1.0
    ok_cross = bool(crossed.any())
    k_cross = int(ks[crossed.argmax()]) if ok_cross else -1
    rel_lin_end = abs(linear[-1] - median[-1]) / median[-1]
    rel_log_end = abs(logistic[-1] - median[-1]) / median[-1]
    ok_diverge = rel_lin_end > 1.0 and rel_log_end <= 0.15

    _line(4, ok_log and ok_cross and ok_diverge,
          f"logistic rel err {rel_log.max():.3f} (<= 0.15 up to k=2n^2); "
          f"linear crosses 1 at k={k_cross}; at k={int(ks[-1])} linear is "
          f"{rel_lin_end:.1f}x off vs logistic {rel_log_end:.3f}")


def test_05_solver_error_ratio_beats_rate_bound():
    t0 = time.perf_counter()
    system = gaussian_system(100, 100, seed=42)
    smin = float(linalg.singular_values(system.A)[-1])
    base = float(system.x_ref @ system.x_ref)
    checkpoints = [100, 500, 2000]
    ratios = {k: [] for k in checkpoints}
    for trial in range(200):
        cfg = SolveConfig(seed=trial, max_iters=2000,
                          target_residual=1e-300, record_every=100)
        _, trace = kaczmarz_solve(system, np.zeros(100), cfg)
        for k in checkpoints:
            idx = int(np.searchsorted(trace.iters, k))
            ratios[k].append(trace.error_sq[idx] / base)
    elapsed = time.perf_counter() - t0
    details = []
    ok = elapsed < 60.0
    for k in checkpoints:
        vals = np.array(ratios[k])
        bound = (1.0 - smin**2 / 100.0) ** k
        se = float(vals.std(ddof=1) / np.sqrt(vals.size))
        ok = ok and vals.mean() <= bound + 3.0 * se
        details.append(f"k={k}: {vals.mean():.3f} <= {bound + 3 * se:.3f}")
    _line(5, ok, "; ".join(details) + f"; {elapsed:.0f}s (< 60s)")


def test_06_three_by_two_spectrum_and_tall_trend():
    system = gaussian_system(3, 2, seed=0)
    _, _, snaps = run_walk(system, WalkConfig(seed=0, steps=10000,
                                              snapshot_every=10000))
    sig = snaps[-1].sigmas
    target = np.array([np.sqrt(2.0), 1.0])
    dev = float(np.abs(sig - target).max())

    tall = gaussian_system(31, 30, seed=0)
    _, _, tsnaps = run_walk(tall, WalkConfig(seed=0, steps=1000000,
                                             snapshot_every=1000000))
    gap0 = abs(float(tsnaps[0].sigmas[0]) - np.sqrt(2.0))
    gap1 = abs(float(tsnaps[-1].sigmas[0]) - np.sqrt(2.0))
    rest0 = float(np.abs(tsnaps[0].sigmas[1:] - 1.0).max())
    rest1 = float(np.abs(tsnaps[-1].sigmas[1:] - 1.0).max())
    _line(6, dev <= 1e-3 and gap1 <= gap0 and rest1 <= rest0,
          f"3x2 after 1e4 steps: max dev from (sqrt(2), 1) = {dev:.2e} "
          f"(<= 1e-3); 31x30 after 1e6 steps (trend report): sigma_1 gap "
          f"{gap0:.3f} -> {gap1:.2e}, others' dev {rest0:.3f} -> {rest1:.2e}")


def test_07_meanfield_mode_rates_and_mass():
    t0 = time.perf_counter()
    fitted = {}
    for mode in (1, 2, 3, 4):
        fitted[mode] = fourier_decay_rate(cosine_grid(256, mode, 1e-3),
                                          mode, t_end=10.0, dt=0.005)
    # Linearizing the gain [u(x - pi/2) + u(x + pi/2)] I(x - pi/2, x + pi/2)
    # about 1/(2 pi) gives 1 - cos(k pi / 2) - 2 sin(k pi / 2) / (pi k):
    # 1 - 2/pi, 2, 1 + 2/(3 pi) and 0 for k = 1..4.
    expected = {k: 1.0 - np.cos(k * np.pi / 2) - 2.0 * np.sin(k * np.pi / 2)
                / (np.pi * k) for k in (1, 2, 3)}
    ok = all(abs(fitted[k] - expected[k]) <= 0.02 * expected[k]
             for k in (1, 2, 3))
    ok = ok and abs(fitted[4]) <= 0.02

    grid = cosine_grid(256, 1, 1e-3)
    mass_dev = 0.0
    for t_check in (2.5, 5.0, 7.5, 10.0):
        grid = meanfield_integrate(grid, t_check, 0.005)
        mass_dev = max(mass_dev, abs(grid.mass() - 1.0))
    ok = ok and mass_dev <= 1e-9
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 30.0
    _line(7, ok,
          f"rates {fitted[1]:.4f}/{fitted[2]:.4f}/{fitted[3]:.4f} vs "
          f"{expected[1]:.4f}/{expected[2]:.4f}/{expected[3]:.4f} "
          f"(2% bands), |mode-4 rate| {abs(fitted[4]):.2e} (<= 0.02), "
          f"mass dev {mass_dev:.1e} (<= 1e-9), {elapsed:.0f}s (< 30s)")


def test_08_circle_and_matrix_walks_agree_for_1000_steps():
    rng = np.random.default_rng(808)
    ens = random_circle_ensemble(40, seed=808)
    A = ens.to_matrix()
    x = np.array([0.3, -0.7])
    system = LinearSystem(A, A @ x, x)
    worst = 0.0
    for _ in range(1000):
        i, j = sample_pair(rng, 40)
        ens = circle_step(ens, i, j)
        walk_step(system, i, j)
        worst = max(worst, float(np.abs(ens.to_matrix() - system.A).max()))
    _line(8, worst <= 1e-12,
          f"worst entrywise gap over 1000 paired steps {worst:.2e} (<= 1e-12)")


def test_09_fourfold_order_parameter_rises():
    per_seed = []
    for seed in range(20):
        ens = random_circle_ensemble(200, seed=1000 + seed)
        _, samples, _ = run_circle_walk(ens, 100000, seed=1000 + seed,
                                        sample_every=10000)
        per_seed.append([r for _, r in samples])
    med = np.median(np.array(per_seed), axis=0)
    _line(9, med[-1] > med[0],
          f"median order parameter {med[0]:.3f} -> {med[-1]:.3f} "
          f"(strict rise; checkpoints {np.round(med, 3).tolist()})")


def test_10_logistic_ode_consistency():
    cases = [(100, 0.05), (100, 1e-6), (10, 0.5)]
    devs = []
    ok = True
    for n, s0 in cases:
        pairs = n * (n - 1)
        t_max = 15.0 * pairs if s0 < 1e-3 else 5.0 * pairs
        dev = logistic_ode_check(n, s0, t_max)
        devs.append(f"(n={n}, s0={s0:g}): {dev:.2e}")
        ok = ok and dev <= 1e-8
    _line(10, ok, "; ".join(devs) + " (all <= 1e-8)")
