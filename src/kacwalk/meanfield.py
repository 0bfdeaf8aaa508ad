"""The two-column walk as angle dynamics, and its large-population limit.

A row-normalized n x 2 matrix is a list of unit vectors, i.e. angles on
the circle. One walk step then has a closed form: row j lands exactly
perpendicular to row i, on whichever side of row i it already occupies.
In the fourth-harmonic variable psi = 4*theta the step copies psi_i onto
psi_j, so the population clusters onto one set of four perpendicular
directions; order_parameter_4 tracks that clustering.

Sending the population size to infinity turns the jump process into a
transport equation for the angle density u(x, t):

    du/dt = -u(x) + [u(x - pi/2) + u(x + pi/2)] I(x),

where I integrates u over (x - pi/2, x + pi/2): a row lands at x from a
row at x - pi/2 or x + pi/2, and only if it already lies within a
quarter turn of x. Linearized about the uniform density, mode k decays
at rate 1 - cos(k pi/2) - 2 sin(k pi/2) / (pi k): 1 - 2/pi, 2,
1 + 2/(3 pi) and 0 for k = 1..4. The discretization here keeps that
structure exact: the grid size is divisible by 4 so the quarter-turn
shifts are plain index rotations, and the window integrals weight the
two boundary cells by one half, which makes the total mass a conserved
quantity of the spatial discretization itself (not just of the time
integrator) and makes the uniform density exactly stationary. The
window sums are row sums of a strided view over one wrapped copy of u:
O(N) memory, and the same values added in the same order at every grid
point, so the operator commutes with grid rotations bit for bit.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import as_strided

from kacwalk import linalg
from kacwalk.walk import DEGENERATE_TOL, _segments, _stops

__all__ = [
    "TWO_PI",
    "UNIFORM_DENSITY",
    "CircleEnsemble",
    "circle_step",
    "run_circle_walk",
    "order_parameter_4",
    "DensityGrid",
    "uniform_grid",
    "cosine_grid",
    "meanfield_rhs",
    "meanfield_integrate",
    "mode_amplitude",
    "fourier_decay_rate",
]

TWO_PI = 2.0 * math.pi
UNIFORM_DENSITY = 1.0 / TWO_PI

# The degenerate-pair test in angle form: for unit 2-vectors
# 1 - c^2 = sin^2(theta_j - theta_i).
SIN_TOL = math.sqrt(DEGENERATE_TOL)

# Guards applied after every integrator step.
BLOWUP_LIMIT = 1e6
MASS_DRIFT_LIMIT = 1e-6
NEGATIVE_CLAMP = 1e-12


@dataclass
class CircleEnsemble:
    """A population of angles; values are wrapped into [0, 2*pi) on entry."""

    angles: np.ndarray

    def __post_init__(self):
        self.angles = np.mod(linalg.as_vector(self.angles), TWO_PI)

    @property
    def n(self):
        return self.angles.shape[0]

    def to_matrix(self):
        """The n x 2 unit-row matrix these angles represent."""
        return np.column_stack([np.cos(self.angles), np.sin(self.angles)])

    @classmethod
    def from_matrix(cls, A):
        """Angles of a row-normalized n x 2 matrix."""
        A = linalg.as_matrix(A)
        if A.shape[1] != 2:
            raise ValueError(f"expected 2 columns, got {A.shape[1]}")
        linalg.check_unit_rows(A)
        return cls(np.arctan2(A[:, 1], A[:, 0]))


def _step_angles(theta, i, j):
    """In-place angle update; returns False when the pair is skipped
    (|sin(theta_j - theta_i)| < SIN_TOL)."""
    s = math.sin(theta[j] - theta[i])
    if abs(s) < SIN_TOL:
        return False
    theta[j] = (theta[i] + math.copysign(0.5 * math.pi, s)) % TWO_PI
    return True


def circle_step(ensemble, i, j):
    """One walk step in angle form, returned as a new ensemble.

    Angle j moves to theta_i + pi/2 when sin(theta_j - theta_i) > 0 and
    to theta_i - pi/2 when it is negative: exactly perpendicular to
    angle i, on the side it already occupies. Matches walk_step on the
    corresponding n x 2 matrix, skipped pairs included.
    """
    if i == j:
        raise ValueError("need two distinct angles")
    n = ensemble.n
    if not (0 <= i < n and 0 <= j < n):
        raise IndexError(f"indices ({i}, {j}) out of range for {n} angles")
    theta = ensemble.angles.copy()
    _step_angles(theta, i, j)
    return CircleEnsemble(theta)


def run_circle_walk(ensemble, steps, seed, sample_every=None):
    """Drive an ensemble with uniformly sampled ordered pairs.

    Returns (final ensemble, samples, skipped) where samples is a list of
    (step, order_parameter_4) pairs taken at step 0, every sample_every
    steps (None records only the endpoints), and the final step; skipped
    counts degenerate pairs left unchanged.

    The pairs come a piece at a time from walk._segments, as in
    run_walk's level engine: pieces of at most _DRAW_BLOCK steps that
    end at each sample point, read from one generator, so they are the
    pairs of one sample_pair call per step on it (the stream rule in
    walk's module docstring). Each pair is applied by one _step_angles
    call, so the angles, the samples and skipped are those of the
    per-step loop bit for bit.
    """
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    if sample_every is not None and sample_every < 1:
        raise ValueError(f"sample_every must be >= 1, got {sample_every}")
    # A list of Python floats: the same float64 arithmetic, without the
    # cost of numpy scalar indexing on every step.
    theta = ensemble.angles.tolist()
    rng = np.random.default_rng(seed)
    samples = []
    skipped = 0
    # With no stride the only sample points are the two endpoints.
    stops = _stops(steps, sample_every or max(steps, 1))
    for p, k in zip([0, *stops], stops):
        for _, ii, jj in _segments(rng, ensemble.n, p, k):
            for i, j in zip(ii, jj):
                if not _step_angles(theta, i, j):
                    skipped += 1
        samples.append((k, _order4(np.array(theta))))
    return CircleEnsemble(theta), samples, skipped


def _order4(theta):
    return float(abs(np.exp(4j * theta).mean()))


def order_parameter_4(ensemble):
    """|mean of exp(4 i theta)|: 1 when all angles agree modulo pi/2,
    near 0 for an angularly spread population."""
    return _order4(ensemble.angles)


@dataclass
class DensityGrid:
    """Periodic cell-centered density on [0, 2*pi).

    u[p] is the density at x_p = 2*pi*p/N. The grid size must be
    divisible by 4 so the quarter-turn shifts in the dynamics land
    exactly on grid indices. Total mass sum(u) * (2*pi/N) must be 1
    within 1e-9 and u must be nonnegative.
    """

    u: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        self.u = linalg.as_vector(self.u)
        if self.N % 4 != 0:
            raise ValueError(f"grid size must be a positive multiple of 4, got {self.N}")
        if float(self.u.min()) < 0.0:
            raise ValueError("density must be nonnegative")
        mass = self.mass()
        if abs(mass - 1.0) > 1e-9:
            raise ValueError(f"density mass must be 1, got {mass!r}")

    @property
    def N(self):
        return self.u.shape[0]

    @property
    def cell_width(self):
        return TWO_PI / self.N

    def mass(self):
        return float(self.u.sum() * self.cell_width)


def uniform_grid(N):
    """The uniform density 1/(2*pi) on an N-cell grid."""
    return DensityGrid(np.full(N, UNIFORM_DENSITY), t=0.0)


def cosine_grid(N, mode, amplitude=1e-3):
    """Uniform density plus amplitude * cos(mode * x); the perturbation
    must keep the density positive (amplitude < 1/(2*pi)), and mode must
    lie in [1, N/2): on N cells a higher mode aliases onto N - mode."""
    if not 1 <= mode < N // 2:
        raise ValueError(f"mode must lie in [1, {N // 2}), got {mode}")
    if not 0.0 <= amplitude < UNIFORM_DENSITY:
        raise ValueError(
            f"amplitude must lie in [0, {UNIFORM_DENSITY:.6f}), got {amplitude}"
        )
    x = TWO_PI * np.arange(N) / N
    return DensityGrid(UNIFORM_DENSITY + amplitude * np.cos(mode * x), t=0.0)


def _rhs(u):
    # Window sum: interior cells at full weight, the two cells whose
    # centers sit exactly on the window endpoints at half weight. This
    # trapezoid-on-the-circle choice is what makes mass exactly conserved
    # by the spatial operator. ring is u wrapped by q cells on each side,
    # and the read-only (2q-1, N) strided view over ring[1:] holds
    # u[i + k - q + 1] at (k, i). Summing its rows adds the same value
    # sequence at every grid point, so the operator commutes with grid
    # rotations bit for bit, in O(N) memory. ring[:N] and ring[2q:] are
    # u[i - q] and u[i + q], the two quarter-turn sources.
    N = u.shape[0]
    q = N // 4
    ring = np.concatenate((u[N - q:], u, u[:q]))
    s = ring.strides[0]
    window = as_strided(ring[1:], (2 * q - 1, N), (s, s), writeable=False)
    w = window.sum(axis=0)
    w += 0.5 * (ring[:N] + ring[2 * q:])
    return -u + (ring[2 * q:] + ring[:N]) * ((TWO_PI / N) * w)


def meanfield_rhs(grid):
    """Time derivative of the density under the pair dynamics.

    Mass loss at unit rate everywhere, mass gain transported from the two
    quarter-turn sources x +- pi/2, both weighted by the integral over
    the half-circle window (x - pi/2, x + pi/2) centered on x.
    """
    return _rhs(grid.u)


def _rk4_step(f, u, dt):
    """One classical RK4 step of u' = f(u) of size dt; u may be a float
    or an array."""
    k1 = f(u)
    k2 = f(u + 0.5 * dt * k1)
    k3 = f(u + 0.5 * dt * k2)
    k4 = f(u + dt * k3)
    return u + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _rk4_path(grid, t_end, dt):
    """Yield (t, u) after each RK4 substep from grid to absolute time t_end.

    The substeps are the fewest equal ones of size at most dt that cover
    the interval, and at least one: a zero-length interval is one substep
    of size 0, which leaves every entry of u as it was except that -0.0
    becomes +0.0. After each, the density is checked for blow-up,
    negativity and drift from grid's mass."""
    if not 0.0 < dt <= 0.01:
        raise ValueError(f"dt must lie in (0, 0.01], got {dt}")
    duration = t_end - grid.t
    if duration < 0.0:
        raise ValueError(f"t_end {t_end} is before the grid time {grid.t}")
    nsteps = max(1, math.ceil(duration / dt - 1e-9))
    step = duration / nsteps
    u, h = grid.u, grid.cell_width
    mass0 = float(u.sum() * h)
    for s in range(1, nsteps + 1):
        u = _rk4_step(_rhs, u, step)
        if float(np.abs(u).max()) > BLOWUP_LIMIT:
            raise FloatingPointError(
                f"density blow-up at step {s} (max |u| > {BLOWUP_LIMIT:g})"
            )
        low = float(u.min())
        if low < 0.0:
            if low < -NEGATIVE_CLAMP:
                raise FloatingPointError(
                    f"density went negative at step {s} (min {low:.3e})"
                )
            np.maximum(u, 0.0, out=u)
        drift = abs(float(u.sum() * h) - mass0)
        if drift > MASS_DRIFT_LIMIT:
            raise FloatingPointError(
                f"mass drift {drift:.3e} at step {s} exceeds {MASS_DRIFT_LIMIT:g}"
            )
        yield grid.t + s * step, u


def meanfield_integrate(grid, t_end, dt):
    """Advance the density to absolute time t_end with classical RK4.

    dt must lie in (0, 0.01]. The interval is covered by equal substeps
    of size at most dt (the smallest count that fits), so integrating in
    stages whose lengths divide dt reproduces a single run bit for bit.
    Raises FloatingPointError if the solution blows up, goes meaningfully
    negative, or leaks mass beyond 1e-6 (negative undershoot below 1e-12
    is clamped to zero).
    """
    u = grid.u
    for _, u in _rk4_path(grid, t_end, dt):
        pass
    return DensityGrid(u, t=t_end)


def _amplitude(u, mode):
    return float(2.0 * abs(np.fft.rfft(u)[mode]) / u.shape[0])


def mode_amplitude(grid, mode):
    """Amplitude of the cos/sin pair at the given spatial frequency,
    normalized so cosine_grid(N, k, a) has mode-k amplitude a."""
    if not 1 <= mode < grid.N // 2:
        raise ValueError(f"mode must lie in [1, {grid.N // 2}), got {mode}")
    return _amplitude(grid.u, mode)


def fourier_decay_rate(grid0, mode, t_end, dt):
    """Fitted exponential decay rate of one Fourier mode.

    Integrates from grid0 to t_end on meanfield_integrate's substeps,
    records the mode amplitude after every step, and least-squares fits
    log(amplitude) against time, discarding the first 5% of the samples.
    Returns the negated slope, so a positive result means the mode decays.

    Meant for the linear regime: grid0 must sit within 0.02 of uniform
    (about a tenth of its height), and the fit errors out if the
    amplitude ever drops below 1e-15 (nothing left to fit).
    """
    if float(np.abs(grid0.u - UNIFORM_DENSITY).max()) > 0.02:
        raise ValueError("grid0 must be within 0.02 of the uniform density")
    if not t_end > grid0.t:
        raise ValueError("t_end must exceed the grid time")
    samples = [(grid0.t, mode_amplitude(grid0, mode))]
    samples += [(t, _amplitude(u, mode)) for t, u in _rk4_path(grid0, t_end, dt)]
    t_fit, a_fit = np.array(samples[int(0.05 * len(samples)):]).T
    if float(a_fit.min()) < 1e-15:
        raise ValueError(
            "mode amplitude fell below 1e-15; the log fit is degenerate"
        )
    slope = np.polyfit(t_fit, np.log(a_fit), 1)[0]
    return -float(slope)
