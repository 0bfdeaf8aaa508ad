import numpy as np
import pytest

from kacwalk import io
from kacwalk.meanfield import cosine_grid
from kacwalk.solver import SolveConfig, kaczmarz_solve
from kacwalk.systems import gaussian_system
from kacwalk.walk import StepLog, WalkConfig, run_walk


@pytest.fixture()
def walk_artifacts():
    sys0 = gaussian_system(5, 3, seed=1)
    _, log, snaps = run_walk(sys0, WalkConfig(seed=2, steps=30,
                                              snapshot_every=10))
    return log, snaps


def test_snapshots_round_trip(tmp_path, walk_artifacts):
    _, snaps = walk_artifacts
    path = io.write_snapshots_csv(tmp_path / "traj.csv", snaps)
    ks, sig, frob = io.read_snapshots_csv(path)
    assert list(ks) == [s.k for s in snaps]
    assert np.array_equal(sig, np.vstack([s.sigmas for s in snaps]))
    assert np.array_equal(frob, np.array([s.frob_sq for s in snaps]))
    header = path.read_text().splitlines()[0]
    assert header == "k,sigma_1,sigma_2,sigma_3,frob_sq"


def test_steps_round_trip(tmp_path, walk_artifacts):
    log, _ = walk_artifacts
    path = io.write_steps_csv(tmp_path / "steps.csv", log)
    k, i, j, c, skipped = io.read_steps_csv(path)
    assert np.array_equal(k, np.arange(1, len(log) + 1))
    assert np.array_equal(i, log.i)
    assert np.array_equal(j, log.j)
    assert np.array_equal(c, log.c)
    assert np.array_equal(skipped, log.skipped)
    assert path.read_text().splitlines()[0] == "k,i,j,c,skipped"


def test_trace_round_trip(tmp_path):
    sys0 = gaussian_system(6, 4, seed=3)
    _, trace = kaczmarz_solve(sys0, np.zeros(4),
                              SolveConfig(seed=1, max_iters=200,
                                          target_residual=1e-10,
                                          record_every=25))
    path = io.write_trace_csv(tmp_path / "trace.csv", trace)
    iters, err = io.read_trace_csv(path)
    assert np.array_equal(iters, trace.iters)
    assert np.array_equal(err, trace.error_sq)
    assert path.read_text().splitlines()[0] == "iter,error_sq"


def test_density_round_trip(tmp_path):
    grid = cosine_grid(16, 1, 1e-3)
    path = io.write_density_csv(tmp_path / "density.csv", grid)
    t, u = io.read_density_csv(path)
    assert t == grid.t
    assert np.array_equal(u, grid.u)
    header = path.read_text().splitlines()[0]
    assert header.startswith("t,u_0,") and header.endswith(",u_15")


def test_density_file_is_one_row_of_repr_cells(tmp_path):
    from types import SimpleNamespace

    values = [-0.0, 1e-300, 0.1, 2.0]
    grid = SimpleNamespace(N=4, t=0.5, u=np.array(values))
    path = io.write_density_csv(tmp_path / "density.csv", grid)
    assert path.read_text() == (
        "t,u_0,u_1,u_2,u_3\n"
        + ",".join(repr(float(v)) for v in [0.5, *values]) + "\n")


def test_histogram_file(tmp_path):
    path = io.write_histogram_csv(tmp_path / "hist.csv",
                                  [0.5, 1.5], [3, 7])
    lines = path.read_text().splitlines()
    assert lines == ["bin_center,count", "0.5,3", "1.5,7"]
    with pytest.raises(ValueError, match="length"):
        io.write_histogram_csv(tmp_path / "bad.csv", [0.5], [1, 2])
    assert not (tmp_path / "bad.csv").exists()


@pytest.mark.parametrize("header,columns", [
    (["k", "x"], ([1, 2, 3], [0.5])),
    (["k", "x"], ([1, 2], [0.5, 0.25], [0.1, 0.2])),
    (["k", "x", "y"], ([1, 2], [0.5, 0.25])),
], ids=["ragged", "extra-column", "missing-column"])
def test_column_writer_refuses_ragged_or_misnamed_columns(tmp_path, header,
                                                         columns):
    path = tmp_path / "bad.csv"
    with pytest.raises(ValueError, match="columns"):
        io.write_series_csv(path, header, *columns)
    assert not path.exists()


def test_writers_are_byte_stable(tmp_path, walk_artifacts):
    log, snaps = walk_artifacts
    a = io.write_snapshots_csv(tmp_path / "a.csv", snaps)
    b = io.write_snapshots_csv(tmp_path / "b.csv", snaps)
    assert a.read_bytes() == b.read_bytes()


def test_json_sorted_and_newline_terminated(tmp_path):
    path = io.write_json(tmp_path / "r.json", {"b": 1, "a": [1.5, None]})
    text = path.read_text()
    assert text.endswith("\n")
    assert text.index('"a"') < text.index('"b"')
    assert io.read_json(path) == {"b": 1, "a": [1.5, None]}


def test_snapshot_writer_validation(tmp_path, walk_artifacts):
    import dataclasses

    _, snaps = walk_artifacts
    with pytest.raises(ValueError):
        io.write_snapshots_csv(tmp_path / "e.csv", [])
    narrow = dataclasses.replace(snaps[1], sigmas=snaps[1].sigmas[:2])
    with pytest.raises(ValueError, match="widths"):
        io.write_snapshots_csv(tmp_path / "w.csv", [snaps[0], narrow])


def test_snapshot_reader_refuses_another_header(tmp_path):
    path = io.write_series_csv(tmp_path / "t.csv", ["iter", "error_sq"],
                               [0, 1], [1.0, 0.5])
    with pytest.raises(ValueError, match="unexpected header in"):
        io.read_snapshots_csv(path)


def test_column_writers_format_floats_as_fmt_does(tmp_path):
    from types import SimpleNamespace

    values = np.array([-0.0, 5e-324, 1e300, np.nan, 0.1, -2.5])
    want = [repr(float(v)) for v in values]
    assert want[:4] == ["-0.0", "5e-324", "1e+300", "nan"]

    def body(path):
        return path.read_text().splitlines()[1:]

    snap = SimpleNamespace(k=3, sigmas=values, frob_sq=values[1])
    assert body(io.write_snapshots_csv(tmp_path / "s.csv", [snap])) == [
        ",".join(["3"] + want + [want[1]])]
    assert body(io.write_series_csv(tmp_path / "r.csv", ["k", "a", "b"],
                                    range(6), values, values[::-1])) == [
        f"{k},{a},{b}" for k, (a, b) in enumerate(zip(want, want[::-1]))]
    grid = SimpleNamespace(N=6, t=values[0], u=values)
    assert body(io.write_density_csv(tmp_path / "d.csv", grid)) == [
        ",".join([want[0]] + want)]
    assert body(io.write_histogram_csv(tmp_path / "h.csv", values,
                                       np.arange(6))) == [
        f"{c},{ct}" for ct, c in enumerate(want)]

    # Bool and int32 columns are integers too.
    log = StepLog(2)
    log.i[:], log.j[:], log.c[:] = [0, 1], [1, 0], values[4:]
    log.skipped[:] = [True, False]
    assert body(io.write_steps_csv(tmp_path / "st.csv", log)) == [
        f"1,0,1,{want[4]},1", f"2,1,0,{want[5]},0"]
    assert body(io.write_histogram_csv(
        tmp_path / "h32.csv", values[4:],
        np.array([7, -2**31], dtype=np.int32))) == [
        f"{want[4]},7", f"{want[5]},{-2**31}"]

    # Integer columns never pass through float64, which holds 2**60 + 1
    # only as 2**60.
    trace = SimpleNamespace(iters=np.array([1, 2**60 + 1]),
                            error_sq=values[4:])
    path = io.write_trace_csv(tmp_path / "t.csv", trace)
    assert body(path) == [f"1,{want[4]}", f"{2**60 + 1},{want[5]}"]
    iters, err = io.read_trace_csv(path)
    assert iters.dtype == np.int64 and iters.tolist() == [1, 2**60 + 1]
    assert err.tolist() == [0.1, -2.5]
