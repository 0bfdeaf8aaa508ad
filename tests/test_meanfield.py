import tracemalloc

import numpy as np
import pytest

from kacwalk import meanfield, walk
from kacwalk.meanfield import (
    TWO_PI,
    UNIFORM_DENSITY,
    CircleEnsemble,
    DensityGrid,
    circle_step,
    cosine_grid,
    fourier_decay_rate,
    meanfield_integrate,
    meanfield_rhs,
    mode_amplitude,
    order_parameter_4,
    run_circle_walk,
    uniform_grid,
)
from kacwalk.systems import random_circle_ensemble
from kacwalk.walk import _DRAW_BLOCK, LinearSystem, sample_pair, walk_step

QUARTER = 0.5 * np.pi


# --------------------------------------------------------------- ensembles


def test_ensemble_wraps_angles():
    ens = CircleEnsemble(np.array([TWO_PI + 0.5, -0.25]))
    assert ens.angles[0] == pytest.approx(0.5, abs=1e-12)
    assert ens.angles[1] == pytest.approx(TWO_PI - 0.25, abs=1e-12)
    assert np.all(ens.angles >= 0.0) and np.all(ens.angles < TWO_PI)


def test_ensemble_matrix_round_trip():
    ens = random_circle_ensemble(17, seed=3)
    back = CircleEnsemble.from_matrix(ens.to_matrix())
    assert np.abs(back.angles - ens.angles).max() < 1e-12
    assert np.abs(np.linalg.norm(ens.to_matrix(), axis=1) - 1.0).max() < 1e-15


def test_from_matrix_validation():
    with pytest.raises(ValueError):
        CircleEnsemble.from_matrix(np.eye(3))
    with pytest.raises(ValueError, match="unit length"):
        CircleEnsemble.from_matrix(np.array([[2.0, 0.0]]))


# ------------------------------------------------------------ single steps


def test_circle_step_lands_exactly_perpendicular():
    ens = CircleEnsemble(np.array([0.3, 1.0]))
    out = circle_step(ens, 0, 1)
    assert out.angles[1] == 0.3 + QUARTER  # sin(0.7) > 0: left side
    ens2 = CircleEnsemble(np.array([0.3, 0.1]))
    out2 = circle_step(ens2, 0, 1)
    assert out2.angles[1] == pytest.approx((0.3 - QUARTER) % TWO_PI, abs=0)
    # mover is untouched
    assert out.angles[0] == 0.3


def test_circle_step_skips_parallel_and_antiparallel():
    for offset in (0.0, np.pi):
        ens = CircleEnsemble(np.array([1.1, 1.1 + offset]))
        out = circle_step(ens, 0, 1)
        assert np.array_equal(out.angles, ens.angles)


def test_circle_step_index_validation():
    ens = CircleEnsemble(np.array([0.0, 1.0]))
    with pytest.raises(ValueError):
        circle_step(ens, 1, 1)
    with pytest.raises(IndexError):
        circle_step(ens, 0, 2)


def test_circle_step_matches_matrix_walk_step():
    # The same update expressed in angles and in n x 2 matrix rows; the
    # tolerances match, so both sides skip identical pairs.
    rng = np.random.default_rng(99)
    ens = random_circle_ensemble(12, seed=99)
    x = np.array([0.4, -0.9])
    for _ in range(50):
        i, j = rng.integers(12), rng.integers(12)
        if i == j:
            continue
        A = ens.to_matrix()
        system = LinearSystem(A, A @ x, x)
        walk_step(system, int(i), int(j))
        ens = circle_step(ens, int(i), int(j))
        assert np.abs(ens.to_matrix() - system.A).max() < 1e-12


# ------------------------------------------------------------------ order4


def test_order_parameter_consensus_modulo_quarter_turn():
    base = 0.77
    ens = CircleEnsemble(base + QUARTER * np.arange(4))
    assert order_parameter_4(ens) == pytest.approx(1.0, abs=1e-12)


def test_order_parameter_vanishes_for_eighth_roots():
    ens = CircleEnsemble(np.arange(8) * np.pi / 4.0)
    assert order_parameter_4(ens) < 1e-12


def test_run_circle_walk_reaches_consensus():
    ens = random_circle_ensemble(12, seed=5)
    final, samples, skipped = run_circle_walk(ens, 4000, seed=5,
                                              sample_every=1000)
    assert samples[0][0] == 0
    assert samples[-1][0] == 4000
    assert samples[-1][1] > 1.0 - 1e-9
    assert skipped > 0  # post-consensus pairs are parallel mod pi/2
    # all angles coincide modulo a quarter turn
    psi = np.mod(4.0 * final.angles, TWO_PI)
    spread = np.abs(np.exp(1j * psi) - np.exp(1j * psi[0])).max()
    assert spread < 1e-8


def test_run_circle_walk_deterministic_and_input_untouched():
    ens = random_circle_ensemble(9, seed=8)
    before = ens.angles.copy()
    f1, s1, _ = run_circle_walk(ens, 500, seed=2)
    f2, s2, _ = run_circle_walk(ens, 500, seed=2)
    assert np.array_equal(ens.angles, before)
    assert np.array_equal(f1.angles, f2.angles)
    assert s1 == s2


def test_run_circle_walk_validation():
    ens = random_circle_ensemble(4, seed=0)
    with pytest.raises(ValueError, match="steps"):
        run_circle_walk(ens, -1, seed=0)
    for bad in (0, -3):
        with pytest.raises(ValueError, match="sample_every"):
            run_circle_walk(ens, 10, seed=0, sample_every=bad)
    with pytest.raises(ValueError, match="at least two"):
        run_circle_walk(random_circle_ensemble(1, seed=0), 10, seed=0)


@pytest.mark.parametrize("n,steps,every,skips", [
    (5, 3 * _DRAW_BLOCK + 7, 1000, True),
    (2, 2 * _DRAW_BLOCK, None, False),
    (200, 2 * _DRAW_BLOCK + 5, _DRAW_BLOCK, True),
    (6, 300, 1, True),
    (4, 0, 10, False),
    (7, 500, 1000, True),
    (8, 5000, 768, True),
], ids=["n5-past-blocks", "n2-divisor-one", "n200-samples-on-block-caps",
        "every-step", "no-steps", "stride-past-end", "ragged-end"])
def test_run_circle_walk_replays_scalar_pairs_and_circle_steps_bitwise(
        n, steps, every, skips):
    # The walk must be exactly sample_pair on a generator drawing scalars
    # plus circle_step, skips and samples too: past several draw blocks,
    # at n = 2 (where the pair decode divides by n - 1 = 1), with samples
    # on the block caps, at every step, with no steps, and with a stride
    # that passes or does not divide the step count. Two angles are
    # perpendicular after one step and never skip again.
    ens = random_circle_ensemble(n, seed=3)
    final, samples, skipped = run_circle_walk(ens, steps, seed=4,
                                              sample_every=every)
    rng = np.random.default_rng(4)
    ref, ref_skipped = ens, 0
    ref_samples = [(0, order_parameter_4(ens))]
    for k in range(1, steps + 1):
        i, j = sample_pair(rng, ens.n)
        gap = np.sin(ref.angles[j] - ref.angles[i])
        ref_skipped += bool(abs(gap) < meanfield.SIN_TOL)
        ref = circle_step(ref, i, j)
        if (every is not None and k % every == 0) or k == steps:
            ref_samples.append((k, order_parameter_4(ref)))
    assert np.array_equal(final.angles, ref.angles)
    assert samples == ref_samples
    assert skipped == ref_skipped
    assert (skipped > 0) == skips


def test_run_circle_walk_steps_through_step_angles_only(monkeypatch):
    # One _step_angles call per step, and never sample_pair: the pairs
    # come from walk._segments a piece at a time.
    calls = []

    def counted(theta, i, j, _real=meanfield._step_angles):
        calls.append((i, j))
        return _real(theta, i, j)

    def refused(*args):
        raise AssertionError("run_circle_walk called sample_pair")

    monkeypatch.setattr(meanfield, "_step_angles", counted)
    monkeypatch.setattr(walk, "sample_pair", refused)
    steps = 2 * _DRAW_BLOCK + 3
    run_circle_walk(random_circle_ensemble(6, seed=1), steps, seed=2,
                    sample_every=500)
    assert len(calls) == steps


def test_run_circle_walk_memory_stays_near_one_piece():
    # One piece of codes is 4096 int64 values and its decode a few arrays
    # and lists of that length, about 32 KB each. A walk that also held
    # each block of codes as a list of Python ints peaks near 240 KB.
    ensemble = random_circle_ensemble(200, 0)
    tracemalloc.start()
    try:
        run_circle_walk(ensemble, 100000, 0, sample_every=1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 128 * 1024


# ------------------------------------------------------------------- grids


def test_grid_validation():
    with pytest.raises(ValueError, match="multiple of 4"):
        DensityGrid(np.full(6, UNIFORM_DENSITY))
    with pytest.raises(ValueError, match="nonnegative"):
        DensityGrid(np.array([-0.1, 0.4, 0.4, 0.4]))
    with pytest.raises(ValueError, match="mass"):
        DensityGrid(np.full(8, 2 * UNIFORM_DENSITY))


def test_uniform_and_cosine_grids():
    g = uniform_grid(64)
    assert abs(g.mass() - 1.0) < 1e-12
    c = cosine_grid(64, 2, 1e-3)
    assert abs(c.mass() - 1.0) < 1e-12
    assert mode_amplitude(c, 2) == pytest.approx(1e-3, rel=1e-10)
    assert mode_amplitude(c, 1) < 1e-15
    with pytest.raises(ValueError):
        cosine_grid(64, 0, 1e-3)
    with pytest.raises(ValueError):
        cosine_grid(64, 1, 1.0)
    # Modes from N/2 up alias (on 64 cells mode 40 samples mode 24), so
    # they are refused with mode_amplitude's range.
    for mode in (32, 40):
        with pytest.raises(ValueError, match=rf"\[1, 32\), got {mode}"):
            cosine_grid(64, mode, 1e-3)
    assert mode_amplitude(cosine_grid(64, 31, 1e-3), 31) == pytest.approx(
        1e-3, rel=1e-10)


def _reference_rhs(u):
    """The window sum as a gather of an explicit (N/2 - 1) x N offset
    table reduced along its first axis, with np.roll for the shifts."""
    N = u.shape[0]
    q = N // 4
    offs = np.arange(-(q - 1), q)
    idx = (offs[:, None] + np.arange(N)[None, :]) % N
    w = u[idx].sum(axis=0)
    w += 0.5 * (np.roll(u, q) + np.roll(u, -q))
    return -u + (np.roll(u, -q) + np.roll(u, q)) * ((TWO_PI / N) * w)


@pytest.mark.parametrize("N", [4, 8, 12, 64, 256, 1024])
def test_rhs_matches_gather_reference_bitwise(N):
    rng = np.random.default_rng(N)
    for _ in range(5):
        u = rng.uniform(0.01, 2.0, size=N)
        assert meanfield._rhs(u).tobytes() == _reference_rhs(u).tobytes()


def test_integrate_matches_gather_reference_bitwise(monkeypatch):
    grid = cosine_grid(256, 1, 0.1)
    fast = meanfield_integrate(grid, 2.0, 0.005)
    monkeypatch.setattr(meanfield, "_rhs", _reference_rhs)
    ref = meanfield_integrate(grid, 2.0, 0.005)
    assert fast.u.tobytes() == ref.u.tobytes()


def test_rhs_leaves_input_alone_and_owns_its_result():
    rng = np.random.default_rng(14)
    u = rng.uniform(0.5, 1.5, size=64)
    grid = DensityGrid(u / (u.sum() * (TWO_PI / 64)))
    before = grid.u.copy()
    rhs = meanfield_rhs(grid)
    assert np.array_equal(grid.u, before)
    assert not np.shares_memory(rhs, grid.u)
    assert rhs.flags.owndata and rhs.flags.writeable


def test_rhs_zero_on_uniform_density():
    rhs = meanfield_rhs(uniform_grid(256))
    assert np.abs(rhs).max() < 1e-15


def test_rhs_zero_on_mode_four_perturbation():
    # cos(4x) is pi/2-periodic: the quarter-turn shifts reproduce it and
    # its half-circle window integrals vanish, so it is a steady state of
    # the full nonlinear dynamics, not just the linearization.
    rhs = meanfield_rhs(cosine_grid(256, 4, 1e-3))
    assert np.abs(rhs).max() < 1e-15


def test_rhs_commutes_with_grid_rotations_bitwise():
    rng = np.random.default_rng(12)
    u = rng.uniform(0.5, 1.5, size=64)
    u = u / (u.sum() * (TWO_PI / 64))
    grid = DensityGrid(u)
    base = meanfield_rhs(grid)
    for shift in (1, 7, 16, 33):
        rolled = meanfield_rhs(DensityGrid(np.roll(u, shift)))
        assert np.array_equal(rolled, np.roll(base, shift))


def test_rhs_conserves_mass_exactly():
    rng = np.random.default_rng(13)
    u = rng.uniform(0.1, 1.0, size=128)
    u = u / (u.sum() * (TWO_PI / 128))
    rhs = meanfield_rhs(DensityGrid(u))
    assert abs(float(rhs.sum())) < 1e-13


# -------------------------------------------------------------- integrator


def test_integrate_preserves_uniform_density():
    out = meanfield_integrate(uniform_grid(128), 1.0, 0.005)
    assert out.t == 1.0
    assert np.abs(out.u - UNIFORM_DENSITY).max() < 1e-15


def test_integrate_mass_and_time_bookkeeping():
    g = cosine_grid(64, 1, 1e-3)
    out = meanfield_integrate(g, 0.5, 0.005)
    assert out.t == 0.5
    assert abs(out.mass() - 1.0) < 1e-12
    # continuing from the result matches a single longer run
    two_leg = meanfield_integrate(out, 1.0, 0.005)
    one_leg = meanfield_integrate(g, 1.0, 0.005)
    assert np.array_equal(two_leg.u, one_leg.u)


def _grid_mode_one_rate(N):
    """The exact mode-1 eigenvalue of the N-cell operator: the window sum
    of e^{ix} is sin((N/4 - 1/2) h) / sin(h / 2) with h = 2 pi / N, and the
    quarter-turn sources of mode 1 cancel. It tends to 1 - 2/pi."""
    h = TWO_PI / N
    return 1.0 - (2.0 / N) * np.sin((N / 4 - 0.5) * h) / np.sin(h / 2)


def test_integrate_fractional_horizon():
    # duration that is not a multiple of dt: covered by equal substeps
    g = cosine_grid(64, 1, 1e-3)
    out = meanfield_integrate(g, 0.0123, 0.005)
    assert out.t == 0.0123
    assert abs(out.mass() - 1.0) < 1e-12
    rate = _grid_mode_one_rate(64)
    assert mode_amplitude(out, 1) == pytest.approx(
        1e-3 * np.exp(-rate * 0.0123), rel=1e-9)


def test_integrate_validation():
    g = uniform_grid(16)
    with pytest.raises(ValueError):
        meanfield_integrate(g, 1.0, 0.02)
    with pytest.raises(ValueError):
        meanfield_integrate(g, -1.0, 0.005)
    # A zero-length run is one substep of size 0: on a grid whose
    # right-hand side is nonzero it still returns the density bit for bit.
    c = cosine_grid(64, 1, 1e-3)
    still = meanfield_integrate(c, 0.0, 0.005)
    assert still.u.tobytes() == c.u.tobytes()
    assert still.t == 0.0


def _constant_rhs(du):
    """A stand-in for meanfield._rhs whose derivative is du everywhere."""
    return lambda u: np.broadcast_to(du, u.shape).copy()


@pytest.mark.parametrize("du,message", [
    (1e12, "density blow-up at step 1"),
    (np.array([-100.0, 100.0] + [0.0] * 14), "went negative at step 1"),
    (1.0, "mass drift"),
], ids=["blow-up", "negative", "mass-drift"])
def test_integrate_refuses_a_broken_step(monkeypatch, du, message):
    # _rk4_path looks _rhs up at every step.
    monkeypatch.setattr(meanfield, "_rhs", _constant_rhs(du))
    with pytest.raises(FloatingPointError, match=message):
        meanfield_integrate(uniform_grid(16), 1.0, 0.005)


def test_integrate_clamps_a_tiny_undershoot_to_zero(monkeypatch):
    # Cell 0 starts at exactly 0 and one 0.005 step takes it to about
    # -5e-14, within NEGATIVE_CLAMP of zero.
    u0 = np.full(16, UNIFORM_DENSITY * 16 / 15)
    u0[0] = 0.0
    du = np.zeros(16)
    du[:2] = -1e-11, 1e-11
    monkeypatch.setattr(meanfield, "_rhs", _constant_rhs(du))
    out = meanfield_integrate(DensityGrid(u0), 0.005, 0.005)
    assert out.u[0] == 0.0
    assert out.u[1] > u0[1]


def test_mode_one_decays_at_the_grid_rate():
    rate = fourier_decay_rate(cosine_grid(64, 1, 1e-3), 1, t_end=2.0, dt=0.005)
    assert rate == pytest.approx(_grid_mode_one_rate(64), rel=1e-6)


def test_decay_of_amplitude_matches_rate():
    # amplitude at t should be (initial) * exp(-rate t) for mode 1
    g = cosine_grid(64, 1, 1e-3)
    out = meanfield_integrate(g, 2.0, 0.005)
    assert mode_amplitude(out, 1) == pytest.approx(
        1e-3 * np.exp(-2.0 * _grid_mode_one_rate(64)), rel=1e-8)


def test_integrate_and_decay_fit_take_the_same_substeps(monkeypatch):
    # t_end lies 5e-12 past a whole number of dt steps; both integrations
    # must split it by the one substep rule.
    steps = []
    rk4_step = meanfield._rk4_step

    def counted(f, u, dt):
        steps.append(dt)
        return rk4_step(f, u, dt)

    monkeypatch.setattr(meanfield, "_rk4_step", counted)
    g = cosine_grid(32, 1, 1e-3)
    meanfield_integrate(g, 1.0 + 5e-12, 0.01)
    integrated = list(steps)
    fourier_decay_rate(g, 1, 1.0 + 5e-12, 0.01)
    assert steps[len(integrated):] == integrated


def _cosine_angles(count, mode, rel_amp, seed):
    """count angles drawn from (1 + rel_amp cos(mode x)) / (2 pi) by
    rejection sampling."""
    rng = np.random.default_rng(seed)
    kept = np.empty(0)
    while kept.size < count:
        x = rng.uniform(0.0, TWO_PI, count)
        height = rng.uniform(0.0, 1.0 + rel_amp, count)
        below = height < 1.0 + rel_amp * np.cos(mode * x)
        kept = np.concatenate([kept, x[below]])
    return kept[:count]


@pytest.mark.parametrize("mode", [1, 2, 3])
def test_circle_walk_mode_decay_matches_meanfield_over_unit_time(mode):
    # m particles, m steps: t = 1 in the mean-field time scale.
    m, rel_amp = 40000, 0.9
    decays = []
    for seed in (0, 1):
        theta0 = _cosine_angles(m, mode, rel_amp, seed)
        final, _, _ = run_circle_walk(CircleEnsemble(theta0), m, seed)
        a0, a1 = (abs(np.exp(1j * mode * theta).mean())
                  for theta in (theta0, final.angles))
        decays.append(np.log(a0 / a1))
    grid0 = cosine_grid(256, mode, rel_amp * UNIFORM_DENSITY)
    grid1 = meanfield_integrate(grid0, 1.0, 0.005)
    pde = np.log(mode_amplitude(grid0, mode) / mode_amplitude(grid1, mode))
    assert abs(np.mean(decays) - pde) <= 0.1


def test_fourier_decay_rate_validation():
    g = cosine_grid(64, 1, 1e-3)
    with pytest.raises(ValueError):
        fourier_decay_rate(g, 0, 1.0, 0.005)
    with pytest.raises(ValueError):
        fourier_decay_rate(g, 1, 0.0, 0.005)
    far = DensityGrid(np.full(64, UNIFORM_DENSITY) * (1 + 0.9 * np.sign(
        np.cos(TWO_PI * np.arange(64) / 64))) / 1.0)
    # renormalize to unit mass so only the linear-regime check can fail
    far = DensityGrid(far.u / (far.u.sum() * far.cell_width))
    with pytest.raises(ValueError, match="uniform"):
        fourier_decay_rate(far, 1, 1.0, 0.005)


def test_fourier_decay_rate_refuses_a_vanished_mode():
    with pytest.raises(ValueError, match="fell below 1e-15"):
        fourier_decay_rate(cosine_grid(64, 1, 0.0), 1, 0.1, 0.005)


def test_mode_amplitude_bounds():
    g = uniform_grid(32)
    with pytest.raises(ValueError):
        mode_amplitude(g, 16)
    with pytest.raises(ValueError):
        mode_amplitude(g, 0)
