import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kacwalk import io, linalg, walk
from kacwalk.meanfield import CircleEnsemble, run_circle_walk
from kacwalk.systems import gaussian_system, random_orthogonal_system
from kacwalk.theory import (
    expected_gain_exact,
    logistic_ode_check,
    predict_linear,
    predict_logistic,
)
from kacwalk.walk import (
    _DRAW_BLOCK,
    _LEVEL_MIN_ROWS,
    LinearSystem,
    WalkConfig,
    _BlockDraws,
    _segments,
    _stops,
    _walk,
    run_walk,
    sample_pair,
    take_snapshot,
    walk_step,
)


def make_system(m, n, seed):
    rng = np.random.default_rng(seed)
    A = linalg.normalize_rows(rng.standard_normal((m, n)))
    x = rng.standard_normal(n)
    return LinearSystem(A, A @ x, x)


# ---------------------------------------------------------------- systems


def test_system_rejects_unnormalized_rows():
    with pytest.raises(ValueError, match="unit length"):
        LinearSystem(np.array([[2.0, 0.0], [0.0, 1.0]]), np.zeros(2))


def test_system_rejects_bad_rhs_length():
    with pytest.raises(ValueError, match="length"):
        LinearSystem(np.eye(3), np.zeros(2))


def test_system_rejects_bad_reference_length():
    with pytest.raises(ValueError, match="x_ref has length 2, expected 3"):
        LinearSystem(np.eye(3), np.zeros(3), np.zeros(2))


def test_system_rejects_inconsistent_reference():
    with pytest.raises(ValueError, match="does not solve"):
        LinearSystem(np.eye(2), np.array([1.0, 0.0]), np.array([0.0, 0.0]))


def test_system_copy_is_independent():
    sys0 = make_system(4, 3, 0)
    dup = sys0.copy()
    dup.A[0, 0] += 0.5
    dup.b[0] += 1.0
    assert sys0.A[0, 0] != dup.A[0, 0]
    assert sys0.b[0] != dup.b[0]


# ------------------------------------------------------------------ steps


def test_walk_step_known_two_row_update():
    # Rows at angle phi apart in the plane: the updated row must be the
    # exact unit vector orthogonal to row i, on row j's side.
    phi = 0.7
    A = np.array([[1.0, 0.0], [np.cos(phi), np.sin(phi)]])
    x = np.array([0.4, -1.1])
    sys0 = LinearSystem(A, A @ x, x)
    c, skipped = walk_step(sys0, 0, 1)
    assert c == pytest.approx(np.cos(phi), abs=1e-15)
    assert not skipped
    assert np.abs(sys0.A[1] - np.array([0.0, 1.0])).max() < 1e-14
    # solution preserved exactly
    assert np.abs(sys0.A @ x - sys0.b).max() < 1e-14


def test_walk_step_records_pre_update_inner_product():
    sys0 = make_system(5, 4, 2)
    before = float(sys0.A[1] @ sys0.A[3])
    c, _ = walk_step(sys0, 1, 3)
    assert c == before
    after = float(sys0.A[1] @ sys0.A[3])
    assert abs(after) < 1e-12  # rows now orthogonal


def test_walk_step_skips_degenerate_pair():
    A = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    b = np.array([2.0, 2.0, -1.0])
    sys0 = LinearSystem(A, b, np.array([2.0, -1.0]))
    c, skipped = walk_step(sys0, 0, 1)
    assert skipped
    assert abs(c) <= 1.0
    assert np.array_equal(sys0.A, A)
    assert np.array_equal(sys0.b, b)


def test_walk_step_clamps_recorded_c_for_nearly_parallel_rows():
    v = np.array([1.0, 1e-9])
    A = np.vstack([[1.0, 0.0], v / np.linalg.norm(v)])
    sys0 = LinearSystem(A, np.zeros(2), np.zeros(2))
    c, skipped = walk_step(sys0, 0, 1)
    assert skipped
    assert abs(c) <= 1.0


def _doubles_around(x, count):
    """x and the count doubles on each side of it."""
    up = down = x
    out = [x]
    for _ in range(count):
        up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
        out += [up, down]
    return np.array(out)


def test_skip_rule_on_c_squared_is_the_rule_on_one_minus_c_squared():
    # Both kernels skip a pair when c * c >= _SKIP_C2; that must be
    # exactly 1 - c * c < DEGENERATE_TOL for every double c, including
    # the ones right at the threshold and the ones rounding pushed past 1.
    c = np.concatenate([_doubles_around(np.sqrt(walk._SKIP_C2), 64),
                        [0.0, 0.5, 1.0, 1.0 + 2.0 ** -52]])
    c = np.concatenate([c, -c])
    rewritten = c * c >= walk._SKIP_C2
    assert np.array_equal(rewritten, 1.0 - c * c < walk.DEGENERATE_TOL)
    # The sweep reaches both sides of the threshold.
    assert rewritten.any() and not rewritten.all()
    # No c in that sweep squares to _SKIP_C2 itself, so check the squares
    # around it directly: at _SKIP_C2, >= and > part ways.
    q = _doubles_around(walk._SKIP_C2, 64)
    assert np.array_equal(q >= walk._SKIP_C2,
                          1.0 - q < walk.DEGENERATE_TOL)


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_walk_step_skips_exactly_when_one_minus_c_squared_is_below_tol(
        sign):
    # Row j at |c| = each double around sqrt(_SKIP_C2) from row i: the
    # skip must follow 1 - c^2 < DEGENERATE_TOL on the c that walk_step
    # measures, and a skipped pair must leave the system untouched.
    seen = set()
    for c in _doubles_around(np.sqrt(walk._SKIP_C2), 8):
        A = np.array([[1.0, 0.0], [sign * c, np.sqrt(1.0 - c * c)]])
        A[1] /= np.linalg.norm(A[1])
        sys0 = LinearSystem(A, np.zeros(2), np.zeros(2))
        measured = float(A[0].dot(A[1]))
        got, skipped = walk_step(sys0, 0, 1)
        assert skipped == (1.0 - measured * measured < walk.DEGENERATE_TOL)
        assert np.array_equal(sys0.A, A) == skipped
        if not skipped:
            assert got == measured
        seen.add(skipped)
    assert seen == {True, False}


def test_walk_step_rejects_equal_and_out_of_range_indices():
    sys0 = make_system(3, 2, 1)
    with pytest.raises(ValueError):
        walk_step(sys0, 1, 1)
    with pytest.raises(IndexError):
        walk_step(sys0, 0, 3)


def test_walk_preserves_solution_and_frobenius_norm():
    sys0 = make_system(8, 8, 3)
    final, _, snaps = run_walk(sys0, WalkConfig(seed=9, steps=500))
    assert np.abs(final.A @ sys0.x_ref - final.b).max() < 1e-10
    assert abs(linalg.frobenius_sq(final.A) - 8.0) < 1e-10
    for snap in snaps:
        assert abs(snap.frob_sq - 8.0) < 1e-10


def test_tall_system_keeps_row_invariants():
    # With more rows than columns the rows pile up on a handful of
    # directions, so correlated pairs keep appearing and each applied
    # update divides by ||A_j - c A_i||, which is sqrt(1 - c^2) in exact
    # arithmetic.  Those factors compound and amplify rounding noise in b
    # (see walk_step), so only the row-level invariants are checked here.
    # A coarser DEGENERATE_TOL would not restore b over long tall runs; it
    # only changes how far the residual grows.
    sys0 = make_system(8, 5, 3)
    final, _, snaps = run_walk(sys0, WalkConfig(seed=9, steps=500))
    assert np.abs(np.linalg.norm(final.A, axis=1) - 1.0).max() < 1e-12
    for snap in snaps:
        assert abs(snap.frob_sq - 8.0) < 1e-10
    assert np.all(np.isfinite(final.b))
    # The spectrum flattens toward sigma^2 = m/n in every direction.
    assert snaps[-1].sigmas[-1] > snaps[0].sigmas[-1]
    assert abs(snaps[-1].sigmas[0] ** 2 - 8.0 / 5.0) < abs(
        snaps[0].sigmas[0] ** 2 - 8.0 / 5.0
    )


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 1: on tall systems rounding error in b grows in the left "
    "null space of A; 31x30 seed 0 reaches 1.5e60"))
def test_tall_walk_keeps_the_solution_over_100k_steps():
    # The bound of acceptance criterion 2 and of perfbench's walk check.
    system = gaussian_system(31, 30, 0)
    _, _, snaps = run_walk(system, WalkConfig(seed=0, steps=100000,
                                              snapshot_every=1000))
    assert max(snap.residual_inf for snap in snaps) <= 1e-8


def test_identity_rows_are_a_bitwise_fixed_point():
    # Orthonormal rows give c = 0 for every pair, so nothing ever moves.
    x = np.array([1.5, -2.0, 0.25])
    sys0 = LinearSystem(np.eye(3), x.copy(), x)
    final, log, _ = run_walk(sys0, WalkConfig(seed=4, steps=200))
    assert np.array_equal(final.A, np.eye(3))
    assert np.array_equal(final.b, x)
    assert not log.skipped.any()
    assert np.abs(log.c).max() == 0.0


def test_random_orthogonal_rows_barely_move():
    sys0 = random_orthogonal_system(6, seed=5)
    final, _, _ = run_walk(sys0, WalkConfig(seed=6, steps=500))
    assert np.abs(final.A.T @ final.A - np.eye(6)).max() < 1e-10


# ------------------------------------------------------------------- runs


def test_run_walk_snapshot_schedule():
    sys0 = make_system(6, 4, 7)
    _, log, snaps = run_walk(sys0, WalkConfig(seed=1, steps=25, snapshot_every=10))
    assert [s.k for s in snaps] == [0, 10, 20, 25]
    assert len(log) == 25


def test_run_walk_default_snapshot_stride_is_n():
    sys0 = make_system(6, 4, 7)
    _, _, snaps = run_walk(sys0, WalkConfig(seed=1, steps=8))
    assert [s.k for s in snaps] == [0, 4, 8]


def test_run_walk_zero_steps():
    sys0 = make_system(4, 4, 8)
    final, log, snaps = run_walk(sys0, WalkConfig(seed=2, steps=0))
    assert len(log) == 0
    assert [s.k for s in snaps] == [0]
    assert np.array_equal(final.A, sys0.A)


def test_run_walk_refuses_a_single_row():
    sys0 = LinearSystem(np.array([[1.0, 0.0]]), np.array([1.0]))
    with pytest.raises(ValueError, match="at least two rows"):
        run_walk(sys0, WalkConfig(seed=0, steps=5))


def test_run_walk_leaves_input_untouched_and_is_seed_deterministic():
    sys0 = make_system(5, 5, 10)
    before = sys0.A.copy()
    f1, _, _ = run_walk(sys0, WalkConfig(seed=3, steps=100))
    f2, _, _ = run_walk(sys0, WalkConfig(seed=3, steps=100))
    f3, _, _ = run_walk(sys0, WalkConfig(seed=4, steps=100))
    assert np.array_equal(sys0.A, before)
    assert np.array_equal(f1.A, f2.A)
    assert not np.array_equal(f1.A, f3.A)


def test_snapshot_contents():
    sys0 = make_system(5, 3, 11)
    snap = take_snapshot(sys0, 0)
    assert snap.k == 0
    assert snap.sigmas.shape == (3,)
    assert np.all(np.diff(snap.sigmas) <= 0)
    assert snap.frob_sq == pytest.approx(5.0, abs=1e-12)
    assert snap.residual_inf == pytest.approx(0.0, abs=1e-12)


def test_snapshot_residual_none_without_reference():
    A = linalg.normalize_rows(np.random.default_rng(1).standard_normal((4, 3)))
    sys0 = LinearSystem(A, np.zeros(4))
    assert take_snapshot(sys0, 0).residual_inf is None


def test_residual_at_reference_needs_a_reference():
    with pytest.raises(ValueError, match="carries no reference solution"):
        walk.residual_at_reference(LinearSystem(np.eye(2), np.zeros(2)))


def test_walk_grows_smallest_singular_value_on_ill_conditioned_input():
    sys0 = gaussian_system(20, 20, seed=42)
    _, _, snaps = run_walk(sys0, WalkConfig(seed=1, steps=4000,
                                            snapshot_every=4000))
    assert snaps[-1].sigmas[-1] > 2.0 * snaps[0].sigmas[-1]


# --------------------------------------------------------------- sampling


def test_sample_pair_bounds_and_distinctness():
    rng = np.random.default_rng(0)
    for _ in range(200):
        i, j = sample_pair(rng, 5)
        assert i != j
        assert 0 <= i < 5 and 0 <= j < 5


def test_sample_pair_rejects_tiny_m():
    with pytest.raises(ValueError):
        sample_pair(np.random.default_rng(0), 1)


def test_sample_pair_uniform_over_ordered_pairs():
    # 60000 draws over the 6 ordered pairs of m=3: expect 10000 per cell.
    rng = np.random.default_rng(2024)
    counts = np.zeros((3, 3), dtype=int)
    for _ in range(60000):
        i, j = sample_pair(rng, 3)
        counts[i, j] += 1
    cells = counts[~np.eye(3, dtype=bool)]
    # 3.3 sigma per cell; chi^2 stays far below extreme quantiles of df=5
    assert np.abs(cells - 10000).max() < 300
    chi2 = float(((cells - 10000.0) ** 2 / 10000.0).sum())
    assert chi2 < 25.0


def test_sample_pair_decodes_each_draw_to_one_ordered_pair():
    # A source serving each code of [0, m(m-1)) once must give each
    # ordered pair of distinct rows exactly once: one draw per pair, with
    # nothing rejected.
    class Codes:
        def __init__(self, m):
            self.codes = iter(range(m * (m - 1)))

        def integers(self, bound):
            return next(self.codes)

    for m in (2, 3, 7, 31):
        codes = Codes(m)
        pairs = [sample_pair(codes, m) for _ in range(m * (m - 1))]
        assert sorted(pairs) == [(i, j) for i in range(m) for j in range(m)
                                 if i != j]
        assert all(type(i) is int and type(j) is int for i, j in pairs)


@pytest.mark.parametrize("m", [2, 3, 31, 1000, 2**20 + 7, 2**31 + 11])
def test_block_draws_match_scalar_draws_across_blocks(m):
    # The walk loops rely on numpy's integers(bound, size=K) yielding the
    # values of K scalar integers(bound) calls, at the pair bound m(m-1);
    # the largest m puts that bound past 2**62.
    bound = m * (m - 1)
    scalar = np.random.default_rng(m)
    blocks = _BlockDraws(np.random.default_rng(m), m)
    steps = 2 * _DRAW_BLOCK + 3
    assert ([int(blocks.integers(bound)) for _ in range(steps)]
            == [int(scalar.integers(bound)) for _ in range(steps)])


def _one_row_system():
    return LinearSystem(np.array([[1.0, 0.0, 0.0]]), np.array([2.0]))


@pytest.mark.parametrize("refused", [
    lambda: sample_pair(np.random.default_rng(0), 1),
    lambda: _BlockDraws(np.random.default_rng(0), 1),
    lambda: list(_segments(np.random.default_rng(0), 1, 0, 0)),
    lambda: run_walk(_one_row_system(), WalkConfig(seed=0, steps=0)),
    lambda: run_circle_walk(CircleEnsemble(np.array([0.5])), 0, 0),
    lambda: expected_gain_exact(np.array([[0.0, 0.6, 0.8]]), np.ones(3)),
    lambda: predict_linear(1, 0.1, 5),
    lambda: predict_logistic(1, 0.5, 5),
    lambda: logistic_ode_check(1, 0.5, 1.0),
], ids=["sample_pair", "block_draws", "segments", "run_walk",
        "run_circle_walk", "expected_gain_exact", "predict_linear",
        "predict_logistic", "logistic_ode_check"])
def test_pair_readers_refuse_one_row(refused):
    # At m = 1 the pair bound m(m-1) is 0, which numpy refuses without
    # naming the row count; every reader of pairs refuses it in one
    # message, even with no step to take.
    with pytest.raises(ValueError,
                       match="need at least two rows to form a pair, got 1"):
        refused()


@pytest.mark.parametrize("m", [2, 3, 16, 31, 200, 2**31 + 11])
def test_segments_and_sample_pair_interleave_on_one_generator(m):
    # _segments(rng, m, 0, count) must leave a plain generator where
    # count sample_pair calls would, so the two can take turns on it;
    # also when a piece ends short of a draw block, and at a pair bound
    # past 2**62.
    rng = np.random.default_rng(m)
    scalar = np.random.default_rng(m)
    assert sample_pair(rng, m) == sample_pair(scalar, m)
    for count in (1, 0, _DRAW_BLOCK - 1, _DRAW_BLOCK, 3, 2 * _DRAW_BLOCK + 5):
        assert ([(i, j) for _, ii, jj in _segments(rng, m, 0, count)
                 for i, j in zip(ii, jj)]
                == [sample_pair(scalar, m) for _ in range(count)])
        assert sample_pair(rng, m) == sample_pair(scalar, m)
    assert int(rng.integers(m)) == int(scalar.integers(m))


@pytest.mark.parametrize("m, steps, every", [
    (5, 0, 3),
    (5, 7, 10),
    (2, 100, 7),
    (31, 3 * _DRAW_BLOCK + 5, 1000),
    (3, 2 * _DRAW_BLOCK + 3, 3 * _DRAW_BLOCK),
    (16, 2 * _DRAW_BLOCK, _DRAW_BLOCK),
], ids=["zero-steps", "every-past-end", "every-not-dividing",
        "past-blocks", "stride-past-blocks", "stride-on-blocks"])
def test_segments_tile_the_walk_and_replay_sample_pair(m, steps, every):
    # One _segments call per stop interval of _stops(steps, every), as
    # the walks make them, on one generator.
    stops = _stops(steps, every)
    assert stops == sorted({0, *range(every, steps, every), steps})
    ii, jj = [], []
    rng = np.random.default_rng(m)
    for start, stop in zip(stops, stops[1:]):
        spans = []
        for p, seg_i, seg_j in _segments(rng, m, start, stop):
            assert len(seg_i) == len(seg_j)
            spans.append((p, p + len(seg_i)))
            ii += seg_i
            jj += seg_j
        # The spans tile [start, stop) in order, none longer than a block.
        ends = [start] + [k for _, k in spans]
        assert [p for p, _ in spans] == ends[:-1]
        assert ends[-1] == stop
        assert all(0 < k - p <= _DRAW_BLOCK for p, k in spans)
    scalar = np.random.default_rng(m)
    assert (list(zip(ii, jj))
            == [sample_pair(scalar, m) for _ in range(steps)])


# ------------------------------------------------------------------- logs


def _duplicated_row_system():
    # 6x4 with row 4 a copy of row 1, so the pair starts out degenerate;
    # later on the tall system's rows pile up and more pairs get skipped.
    sys0 = make_system(6, 4, 12)
    A = sys0.A.copy()
    A[4] = A[1]
    return LinearSystem(A, A @ sys0.x_ref, sys0.x_ref)


def _tall_duplicated_rows_system():
    # 16x2 with rows 8-15 copies of rows 0-7: many pairs start out
    # parallel, and in the plane the rows keep piling onto two orthogonal
    # directions, so skipped and applied steps keep sharing levels.
    sys0 = make_system(16, 2, 20)
    A = sys0.A.copy()
    A[8:] = A[:8]
    return LinearSystem(A, A @ sys0.x_ref, sys0.x_ref)


@pytest.mark.parametrize("system,steps,every,skips", [
    (make_system(8, 8, 13), 300, 300, False),
    (_duplicated_row_system(), 400, 400, True),
    (make_system(2, 2, 14), 3 * _DRAW_BLOCK + 7, 3 * _DRAW_BLOCK + 7, False),
    (make_system(3, 2, 15), 3 * _DRAW_BLOCK + 7, 3 * _DRAW_BLOCK + 7, True),
    (make_system(31, 30, 16), 2 * _DRAW_BLOCK + 7, 1000, False),
    (make_system(31, 30, 17), 3 * _DRAW_BLOCK, _DRAW_BLOCK + 904, False),
    (make_system(100, 100, 18), 2000, 100, False),
    (_tall_duplicated_rows_system(), 3000, 500, True),
    (make_system(24, 20, 19), 1000, None, False),
    (make_system(16, 16, 23), 500, 1, False),
    (make_system(200, 2, 24), 2000, None, True),
], ids=["8x8", "6x4-duplicated-row", "2x2-past-blocks", "3x2-past-blocks",
        "31x30-every-1000", "31x30-segments-at-block-cap", "100x100-every-100",
        "16x2-duplicated-rows", "24x20-default-stride", "16x16-every-1",
        "200x2-default-stride"])
def test_run_walk_replays_reference_steps_bitwise(tmp_path, system, steps,
                                                  every, skips):
    # run_walk must be exactly sample_pair + walk_step applied in order
    # on one generator drawing scalars; a faster engine gets checked
    # against this replay. The 2x2 and 3x2 cases cross several draw
    # blocks at the smallest pair bounds, m(m-1) = 2 and 6. The cases with
    # 16 or more rows run the dependency-level engine at any snapshot
    # stride (down to every step), whose segments end at snapshots and,
    # with snapshots more than _DRAW_BLOCK steps apart, at that cap.
    cfg = WalkConfig(seed=21, steps=steps, snapshot_every=every)
    final, log, snaps = run_walk(system, cfg)
    ref = system.copy()
    rng = np.random.default_rng(cfg.seed)
    pairs = [sample_pair(rng, ref.m) for _ in range(steps)]
    i, j = (np.array(col, dtype=np.int64) for col in zip(*pairs))
    stride = ref.n if every is None else every
    ref_snaps = [take_snapshot(ref, 0)]
    c, skipped = [], []
    for k, (p, q) in enumerate(pairs, start=1):
        ck, sk = walk_step(ref, p, q)
        c.append(ck)
        skipped.append(sk)
        if k % stride == 0 or k == steps:
            ref_snaps.append(take_snapshot(ref, k))
    assert np.array_equal(log.i, i)
    assert np.array_equal(log.j, j)
    assert np.array_equal(log.c, np.array(c))
    assert np.array_equal(log.skipped, np.array(skipped))
    assert np.array_equal(final.A, ref.A)
    assert np.array_equal(final.b, ref.b)
    assert log.skipped.any() == skips
    assert [s.k for s in snaps] == [s.k for s in ref_snaps]
    for got, want in zip(snaps, ref_snaps):
        assert np.array_equal(got.sigmas, want.sigmas)
        assert got.frob_sq == want.frob_sq
        assert got.residual_inf == want.residual_inf
    k = io.read_steps_csv(io.write_steps_csv(tmp_path / "steps.csv", log))[0]
    assert np.array_equal(k, np.arange(1, steps + 1))


@pytest.mark.parametrize("m,n", [(6, 4), (31, 30)],
                         ids=["6x4-per-step", "31x30-levels"])
def test_walk_resumes_bit_for_bit_at_uneven_stops(m, n):
    # Stop at 0, inside the first draw block, just past it, and at the
    # end: the walked system at each stop is a separate run_walk of that
    # many steps, and the final log is run_walk's.
    system = make_system(m, n, 25)
    stops = [0, 1000, _DRAW_BLOCK + 3, 2 * _DRAW_BLOCK + 100]
    seen = []
    for k, walked, log in _walk(system, 8, stops):
        ref, ref_log, _ = run_walk(system, WalkConfig(seed=8, steps=k))
        assert np.array_equal(walked.A, ref.A)
        assert np.array_equal(walked.b, ref.b)
        seen.append(k)
    assert seen == stops
    assert len(log) == stops[-1]
    for name in ("i", "j", "c", "skipped"):
        assert np.array_equal(getattr(log, name), getattr(ref_log, name))
    assert np.array_equal(system.A, make_system(m, n, 25).A)


@pytest.mark.parametrize("m,n", [(6, 4), (31, 30)],
                         ids=["6x4-per-step", "31x30-levels"])
def test_walked_A_and_b_are_views_of_one_augmented_array(m, n):
    # Both engines update one [A | b] array; the walked copy's A and b
    # are its first n columns and its last, never separate copies.
    system = make_system(m, n, 26)
    for _, walked, _ in _walk(system, 3, [0, 500]):
        W = walked.A.base
        assert W is not None and W is walked.b.base
        assert W.shape == (m, n + 1)
        assert np.array_equal(W[:, :-1], walked.A)
        assert np.array_equal(W[:, -1], walked.b)
    assert not np.shares_memory(walked.A, system.A)


@pytest.mark.parametrize("m,n,calls,builds", [
    (10, 10, 137, 1),
    (31, 30, 0, 0),
], ids=["10x10", "31x30-levels"])
def test_run_walk_calls_per_step_kernels_only_below_the_level_threshold(
        monkeypatch, m, n, calls, builds):
    # Systems below _LEVEL_MIN_ROWS rows call sample_pair and walk_step
    # through the module once per step, on one _BlockDraws; perfbench's
    # tracer counts exactly those calls (perfbench/selftest.py walks
    # 10x10). Larger systems use the level engine, which calls neither
    # and reads the generator itself.
    assert _LEVEL_MIN_ROWS > 10
    counts = {}
    for name in ("sample_pair", "walk_step", "_BlockDraws"):
        def counted(*args, _real=getattr(walk, name), _name=name):
            counts[_name] = counts.get(_name, 0) + 1
            return _real(*args)
        monkeypatch.setattr(walk, name, counted)
    run_walk(make_system(m, n, 22), WalkConfig(seed=1, steps=137))
    assert counts.get("sample_pair", 0) == calls
    assert counts.get("walk_step", 0) == calls
    assert counts.get("_BlockDraws", 0) == builds


def test_config_validation():
    with pytest.raises(ValueError):
        WalkConfig(seed=0, steps=-1)
    with pytest.raises(ValueError):
        WalkConfig(seed=0, steps=1, snapshot_every=0)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**31), steps=st.integers(0, 40))
def test_walk_invariants_hold_for_random_runs(seed, steps):
    sys0 = make_system(5, 5, 123)
    final, log, snaps = run_walk(sys0, WalkConfig(seed=seed, steps=steps))
    assert len(log) == steps
    assert abs(snaps[-1].frob_sq - 5.0) < 1e-10
    assert np.abs(final.A @ sys0.x_ref - final.b).max() < 1e-10
    assert np.abs(np.linalg.norm(final.A, axis=1) - 1.0).max() < 1e-12
