"""Random pairwise row-orthogonalization of a linear system.

Each step picks an ordered pair of distinct rows (i, j) uniformly at
random and replaces row j by its component orthogonal to row i, rescaled
back to unit length; the right-hand side entry b_j gets the matching
update, so the solution set never changes. Repeated steps drive the rows
toward mutual orthogonality while the squared Frobenius norm stays pinned
at the row count.

``walk_step`` is the reference kernel: one step, read then write.
Every walk runs through one generator, ``_walk``, which walks a copy of
the system and hands it back at each of a list of stops; ``run_walk``
takes a snapshot at each. The copy's A and b are views of one array
[A | b], so a step is a row operation on that augmented system, and
both loops below update that array in place. On systems with fewer than
16 rows ``_walk`` calls ``sample_pair`` and ``walk_step`` once per step.
On larger ones it applies the same steps one dependency level at a
time: a level is a set of steps that all read their rows before any of
them writes its row j, gathered, updated with walk_step's formulas as
whole-array operations and scattered back. Levels never cross a piece of
``_segments`` (at most 4096 steps, never past a stop), and
``np.vecdot`` over rows of unit stride calls the same BLAS ``ddot`` as
``ndarray.dot``, so the rows, the log and every snapshot are bit for bit
those of the per-step loop, wherever the stops fall.

The stream rule: a run, matrix or circle, draws its pairs from one plain
numpy Generator, one code of ``integers(m(m - 1))`` per pair
(``_pair_bound``) decoded to the ordered pair it names (``_decode``),
with no draw thrown away. The per-step loop reads the generator through
``_BlockDraws``, which fetches 4096 codes at a time; the level engine
and ``run_circle_walk`` read it one ``integers(m(m - 1), size=K)`` array
a piece (``_segments``). numpy's ``integers(bound, size=K)`` returns
the values, and leaves the generator state, of K scalar draws, so both
give the pairs of one ``sample_pair`` call per step on that generator,
and ``_segments`` and ``sample_pair`` may share one generator. A
``_BlockDraws`` runs up to 4096 codes ahead of its generator, so no
generator is read both through one and directly.
"""

import math
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from kacwalk import linalg
from kacwalk.linalg import ROW_NORM_TOL

__all__ = [
    "ROW_NORM_TOL",
    "REFERENCE_RESIDUAL_TOL",
    "DEGENERATE_TOL",
    "LinearSystem",
    "WalkConfig",
    "StepLog",
    "SpectrumSnapshot",
    "sample_pair",
    "walk_step",
    "run_walk",
    "take_snapshot",
    "residual_at_reference",
]

# How large ||A x_ref - b||_inf may be before x_ref is rejected.
REFERENCE_RESIDUAL_TOL = 1e-10
# Pairs with 1 - c^2 below this are parallel up to sign and left alone.
DEGENERATE_TOL = 1e-12
# The same rule read as c^2 >= _SKIP_C2, one operation fewer: the double
# 1 - DEGENERATE_TOL rounds up, and for c^2 >= 0.5 the difference 1 - c^2
# is exact, so the two tests agree on every double c.
_SKIP_C2 = 1.0 - DEGENERATE_TOL
# The walk loops draw their pair codes, and the solver its row indices,
# this many at a time at most (_draws, _segments).
_DRAW_BLOCK = 4096
# run_walk applies the steps of systems with at least this many rows one
# dependency level at a time; on fewer it calls walk_step once per step.
_LEVEL_MIN_ROWS = 16


@dataclass
class LinearSystem:
    """A row-normalized system ``A x = b``, optionally with a known solution.

    Attributes
    ----------
    A : ndarray, shape (m, n)
        Coefficient matrix; every row must have unit Euclidean length
        (within ROW_NORM_TOL). Use :func:`kacwalk.linalg.normalize_rows`
        first if needed.
    b : ndarray, shape (m,)
        Right-hand side.
    x_ref : ndarray, shape (n,) or None
        A known exact solution, if the system was built from one. When
        present it must satisfy the system to REFERENCE_RESIDUAL_TOL.
    """

    A: np.ndarray
    b: np.ndarray
    x_ref: np.ndarray | None = None

    def __post_init__(self):
        self.A = linalg.as_matrix(self.A)
        self.b = linalg.as_vector(self.b)
        if self.b.shape[0] != self.m:
            raise ValueError(
                f"b has length {self.b.shape[0]}, expected {self.m}"
            )
        linalg.check_unit_rows(self.A)
        if self.x_ref is not None:
            self.x_ref = linalg.as_vector(self.x_ref)
            if self.x_ref.shape[0] != self.n:
                raise ValueError(
                    f"x_ref has length {self.x_ref.shape[0]}, expected {self.n}"
                )
            gap = residual_at_reference(self)
            if gap > REFERENCE_RESIDUAL_TOL:
                raise ValueError(
                    f"x_ref does not solve the system (residual {gap:.3e})"
                )

    @property
    def m(self):
        return self.A.shape[0]

    @property
    def n(self):
        return self.A.shape[1]

    def copy(self):
        """Deep copy: the constructor copies every array it is given."""
        return LinearSystem(self.A, self.b, self.x_ref)


@dataclass(frozen=True)
class WalkConfig:
    """Knobs for a walk run.

    seed drives the pair sampling; steps is the total number of updates;
    snapshot_every sets the spectrum sampling stride (None means one
    snapshot per n steps).
    """

    seed: int
    steps: int
    snapshot_every: int | None = None

    def __post_init__(self):
        if self.steps < 0:
            raise ValueError(f"steps must be >= 0, got {self.steps}")
        if self.snapshot_every is not None and self.snapshot_every < 1:
            raise ValueError(
                f"snapshot_every must be >= 1, got {self.snapshot_every}"
            )


class StepLog:
    """What each step of a run did, as parallel arrays.

    Entry p describes step p + 1: the ordered pair (i[p], j[p]), the inner
    product c[p] = <A_i, A_j> read before the update, and whether the pair
    was skipped as degenerate.
    """

    def __init__(self, steps):
        self.i = np.zeros(steps, dtype=np.int64)
        self.j = np.zeros(steps, dtype=np.int64)
        self.c = np.zeros(steps, dtype=np.float64)
        self.skipped = np.zeros(steps, dtype=bool)

    def __len__(self):
        return self.c.shape[0]


@dataclass(frozen=True)
class SpectrumSnapshot:
    """Spectrum of the walked matrix at step k.

    sigmas are the singular values in descending order, frob_sq their sum
    of squares, and residual_inf is ||A x_ref - b||_inf when the system
    carries a reference solution (None otherwise).
    """

    k: int
    sigmas: np.ndarray = field(repr=False)
    frob_sq: float
    residual_inf: float | None = None


def _draws(rng, m):
    """One iterator over the stream of ``rng.integers(m)``, fetched
    _DRAW_BLOCK at a time. ``rng.integers(m, size=K)`` yields exactly the
    values of K scalar ``rng.integers(m)`` calls, so the stream is that
    of scalar draws, at a fraction of the interpreter cost."""
    return chain.from_iterable(
        iter(lambda: rng.integers(m, size=_DRAW_BLOCK).tolist(), None))


class _BlockDraws:
    """The per-step loop's source of pair codes for one fixed m: the
    _draws stream of ``integers(m(m - 1))`` on a numpy Generator (see the
    stream rule in the module docstring)."""

    def __init__(self, rng, m):
        self._stream = _draws(rng, _pair_bound(m))

    def integers(self, bound):
        """The next code; bound is the source's own, m(m - 1), as
        sample_pair passes it."""
        return next(self._stream)


def _segments(rng, m, start, stop):
    """Yield (p, ii, jj) for steps start + 1 .. stop of a walk on the
    Generator rng, in pieces of at most _DRAW_BLOCK steps: (ii[q], jj[q])
    is the pair of step p + q + 1, as a list of i and a list of j. Each
    piece is one array draw of ``integers(m(m - 1))`` (see the stream
    rule in the module docstring); m < 2 is refused at the first next(),
    even for an empty interval."""
    bound = _pair_bound(m)
    for p in range(start, stop, _DRAW_BLOCK):
        i, j = _decode(rng.integers(bound, size=min(stop - p, _DRAW_BLOCK)), m)
        yield p, i.tolist(), j.tolist()


def _stops(steps, every):
    """0, each multiple of every below steps, and steps: the sample
    points of a walk of steps steps."""
    return [*range(0, steps, every), steps]


def sample_pair(rng, m):
    """Ordered pair (i, j) with i != j, uniform over all m(m-1) choices.

    rng is any source with an ``integers(bound)`` method, such as a numpy
    Generator. One draw t of ``integers(m(m - 1))`` names the pair (see
    _decode), so each pair has the mass of exactly one code and no draw
    is thrown away. The walks take the pairs of these calls (see the
    stream rule in the module docstring).
    """
    return _decode(int(rng.integers(_pair_bound(m))), m)


def _pair_bound(m):
    """m(m - 1), the number of ordered pairs of distinct rows among m and
    so the bound of the codes that name them. m < 2, which has no pair,
    is refused here: numpy's own refusal of the bound 0 would not name
    the row count. m(m - 1) fits int64 for every m below 3e9, far past
    any matrix that fits in memory."""
    if m < 2:
        raise ValueError(f"need at least two rows to form a pair, got {m}")
    return m * (m - 1)


def _decode(t, m):
    """The pair (i, j) that code t in [0, m(m - 1)) names, elementwise
    on an int64 array of codes: i = t // (m - 1), and j is the remainder
    r, moved up by one from i on so that it skips i. The codes and the
    ordered pairs of distinct rows correspond one to one."""
    i, r = divmod(t, m - 1)
    return i, r + (r >= i)


def walk_step(system, i, j):
    """Apply one update in place and return ``(c, skipped)``.

    With c = <A_i, A_j> read once before any write, row j becomes
    (A_j - c A_i) / r and b_j becomes (b_j - c b_i) / r, with
    r = ||A_j - c A_i|| measured after the subtraction. This keeps any
    solution of the system a solution, and row j comes out unit length
    so rounding drift in its length cannot compound. Pairs whose
    1 - c^2 falls below DEGENERATE_TOL are left untouched and returned as
    skipped, with c clamped to [-1, 1].

    In exact arithmetic r = sqrt(1 - c^2), so each step multiplies
    whatever rounding error b already carries by up to 1 / sqrt(1 - c^2),
    and those factors compound across steps. Square systems drift toward
    orthonormal rows (c -> 0), so there the solution survives long runs
    to ~1e-14. Tall systems can never make all rows orthogonal (more rows
    than dimensions), so the walk keeps drawing correlated pairs forever
    and the residual at x_ref grows by many orders of magnitude even
    though every step is exact in real arithmetic. A larger
    DEGENERATE_TOL would only change how far (31x30, seed 0, 100k steps:
    1.5e60 at 1e-12, 3.7e5 at 1e-2); watch residual_inf and the
    amplification sum -1/2 log(1 - c^2) (log_amp_max) instead.
    """
    A, b = system.A, system.b
    m = A.shape[0]
    if i == j:
        raise ValueError("need two distinct rows")
    if not (0 <= i < m and 0 <= j < m):
        raise IndexError(f"row indices ({i}, {j}) out of range for {m} rows")
    Ai, Aj = A[i], A[j]
    c = float(Ai.dot(Aj))
    if c * c >= _SKIP_C2:
        # Rounding can push |c| a hair past 1 here; clamp for the record.
        return max(-1.0, min(1.0, c)), True
    Aj -= c * Ai
    # np.linalg.norm(Aj) computes exactly this (and dot equals @ bitwise);
    # calling the method directly skips the overhead of both.
    r = math.sqrt(float(Aj.dot(Aj)))
    Aj /= r
    b[j] = (b[j] - c * b[i]) / r
    return c, False


def take_snapshot(system, k):
    """SpectrumSnapshot of the system as it stands at step k."""
    res = None
    if system.x_ref is not None:
        res = residual_at_reference(system)
    return SpectrumSnapshot(
        k=k,
        sigmas=linalg.singular_values(system.A),
        frob_sq=linalg.frobenius_sq(system.A),
        residual_inf=res,
    )


def residual_at_reference(system):
    """||A x_ref - b||_inf; errors if the system has no reference solution."""
    if system.x_ref is None:
        raise ValueError("system carries no reference solution")
    return float(np.abs(system.A @ system.x_ref - system.b).max())


def run_walk(system, config):
    """Run config.steps sampled updates on a copy of the system.

    The pairs are those of one sample_pair call per step on one generator
    (the stream rule in the module docstring), and every step is
    walk_step's update (see _walk), so the rows, the log and the
    snapshots are bit for bit those of that per-step loop.

    Returns
    -------
    (LinearSystem, StepLog, list of SpectrumSnapshot)
        The walked system, the per-step log, and spectrum snapshots taken
        at step 0, every config.snapshot_every steps (default: every n
        steps), and at the final step.
    """
    every = config.snapshot_every if config.snapshot_every is not None else system.n
    snapshots = []
    for k, work, log in _walk(system, config.seed, _stops(config.steps, every)):
        snapshots.append(take_snapshot(work, k))
    return work, log, snapshots


def _walk(system, seed, stops):
    """Walk a copy of the system on seed's one generator and yield
    (k, walked, log) after each of the ascending stops k (0 may be one).
    walked and log are the same objects at every stop, updated in place;
    log is preallocated to stops[-1] steps.

    walked.A and walked.b are views of one array W = [A | b], so row p
    of W is [A_p, b_p] and both engines update W itself. Systems with
    fewer than _LEVEL_MIN_ROWS rows call sample_pair, through a
    _BlockDraws, and walk_step once per step. Larger ones take each
    stop's pairs from _segments and apply each piece one dependency level
    at a time (_walk_levels); the module docstring's stream rule makes
    the pairs the same. Within a level every read comes before any
    write, so walked and the log at each stop are bit for bit those of
    the per-step loop.
    """
    work = system.copy()
    m = work.m
    gen = np.random.default_rng(seed)
    rng = _BlockDraws(gen, m) if m < _LEVEL_MIN_ROWS else gen
    log = StepLog(stops[-1])
    W = np.column_stack((work.A, work.b))
    work.A, work.b = W[:, :-1], W[:, -1]
    for p, k in zip([0, *stops], stops):
        if m < _LEVEL_MIN_ROWS:
            for q in range(p, k):
                i, j = sample_pair(rng, m)
                log.i[q] = i
                log.j[q] = j
                log.c[q], log.skipped[q] = walk_step(work, i, j)
        else:
            for start, ii, jj in _segments(rng, m, p, k):
                _walk_levels(W, ii, jj, log, start)
        yield k, work, log


def _walk_levels(W, ii, jj, log, p):
    """Apply the pairs (ii[q], jj[q]) in order, as steps p + q + 1 of log,
    to the rows [A_i, b_i] of W, one dependency level at a time.

    A step's level is the first after every earlier write to either of
    its rows, and no earlier than any earlier read of its row j. In a
    level every step reads before any step writes, and no two steps write
    the same row, so each read sees what it would in the sequential loop.
    The arithmetic is walk_step's, op for op (np.vecdot over rows of unit
    stride calls the same BLAS ddot as ndarray.dot), so W and the log come
    out bit for bit those of walk_step run in order.
    """
    m, n = W.shape[0], W.shape[1] - 1
    readable = [0] * m   # first level that sees a row's last write
    read = [0] * m       # last level that read a row
    levels = []
    for i, j in zip(ii, jj):
        lev = readable[i]
        if readable[j] > lev:
            lev = readable[j]
        if read[j] > lev:
            lev = read[j]
        levels.append(lev)
        readable[j] = lev + 1
        read[j] = lev
        if read[i] < lev:
            read[i] = lev
    k = p + len(levels)
    log.i[p:k] = ii
    log.j[p:k] = jj
    levels = np.array(levels)
    order = np.argsort(levels, kind="stable")
    I = log.i[p:k].take(order)
    J = log.j[p:k].take(order)
    cs = []
    start = 0
    for stop in np.cumsum(np.bincount(levels)).tolist():
        rows_j = J[start:stop]
        Wi = W.take(I[start:stop], axis=0)
        Wj = W.take(rows_j, axis=0)
        start = stop
        c = np.vecdot(Wi[:, :n], Wj[:, :n], keepdims=True)
        cs.append(c)
        skip = c * c >= _SKIP_C2
        if np.count_nonzero(skip):
            keep = ~skip[:, 0]
            Wi, Wj, c, rows_j = Wi[keep], Wj[keep], c[keep], rows_j[keep]
        # A_j -= c A_i, A_j /= r as in walk_step; on the last column the
        # same ops give b_j = (b_j - c b_i) / r.
        Wi *= c
        Wj -= Wi
        Aj = Wj[:, :n]
        r = np.vecdot(Aj, Aj, keepdims=True)
        Wj /= np.sqrt(r, out=r)
        W[rows_j] = Wj
    c = np.concatenate(cs)[:, 0]
    log.skipped[p:k][order] = c * c >= _SKIP_C2
    # walk_step clamps the c of a skipped pair; |c| < 1 on every other.
    log.c[p:k][order] = np.clip(c, -1.0, 1.0)
