"""CSV and JSON emission for trajectories, logs, traces, and densities.

Every float is written with ``repr(float(x))`` (shortest round-trip
form), headers and row order are fixed, and files end with a single
newline, so rerunning a seeded experiment reproduces its outputs byte for
byte. Readers return numpy arrays and accept exactly what the writers
emit.
"""

import csv
import json
from pathlib import Path

import numpy as np

__all__ = [
    "write_snapshots_csv",
    "read_snapshots_csv",
    "write_steps_csv",
    "read_steps_csv",
    "write_series_csv",
    "write_trace_csv",
    "read_trace_csv",
    "write_density_csv",
    "read_density_csv",
    "write_histogram_csv",
    "write_json",
    "read_json",
]


def _fmt(x):
    # repr of a *Python* float; numpy scalars stringify as np.float64(...)
    return repr(float(x))


def _fmt_all(values):
    # What _fmt gives value by value, from one conversion to Python floats.
    return list(map(repr, np.asarray(values, dtype=np.float64).tolist()))


def _open_w(path):
    return open(path, "w", encoding="utf-8", newline="")


def _write_rows(path, header, rows):
    with _open_w(path) as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)
    return Path(path)


def _read_rows(path):
    """(header, body rows) of a CSV written by ``_write_rows``."""
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def write_snapshots_csv(path, snapshots):
    """Spectrum trajectory: one row per snapshot,
    ``k, sigma_1, ..., sigma_n, frob_sq``."""
    if not snapshots:
        raise ValueError("need at least one snapshot")
    n = snapshots[0].sigmas.shape[0]
    if any(snap.sigmas.shape[0] != n for snap in snapshots):
        raise ValueError("snapshots have inconsistent widths")
    header = ["k"] + [f"sigma_{p}" for p in range(1, n + 1)] + ["frob_sq"]
    return _write_rows(path, header, (
        [str(snap.k)] + _fmt_all(snap.sigmas) + [_fmt(snap.frob_sq)]
        for snap in snapshots))


def read_snapshots_csv(path):
    """Returns (k, sigmas, frob_sq): int array, (rows, n) array, float array."""
    header, body = _read_rows(path)
    if header[0] != "k" or header[-1] != "frob_sq":
        raise ValueError(f"unexpected header in {path}")
    ks = np.array([int(r[0]) for r in body], dtype=np.int64)
    sig = np.array([[float(v) for v in r[1:-1]] for r in body])
    frob = np.array([float(r[-1]) for r in body])
    return ks, sig, frob


def write_steps_csv(path, log):
    """Per-step log ``k, i, j, c, skipped``, k from 1, skipped as 0/1."""
    return _write_rows(path, ["k", "i", "j", "c", "skipped"], (
        [str(k), str(i), str(j), _fmt(c), str(int(skipped))]
        for k, i, j, c, skipped in zip(
            range(1, len(log) + 1), log.i.tolist(), log.j.tolist(),
            log.c.tolist(), log.skipped.tolist())))


def read_steps_csv(path):
    """Returns (k, i, j, c, skipped) arrays."""
    _, body = _read_rows(path)
    k = np.array([int(r[0]) for r in body], dtype=np.int64)
    i = np.array([int(r[1]) for r in body], dtype=np.int64)
    j = np.array([int(r[2]) for r in body], dtype=np.int64)
    c = np.array([float(r[3]) for r in body])
    skipped = np.array([bool(int(r[4])) for r in body])
    return k, i, j, c, skipped


def write_series_csv(path, header, ks, *columns):
    """Integer index column ``header[0]`` (``ks``) against float columns
    ``header[1:]``, one row per index."""
    return _write_rows(path, header, (
        [str(int(k))] + values
        for k, *values in zip(np.asarray(ks).tolist(),
                              *map(_fmt_all, columns))))


def write_trace_csv(path, trace):
    """Solver error curve ``iter, error_sq``."""
    return write_series_csv(path, ["iter", "error_sq"], trace.iters,
                            trace.error_sq)


def read_trace_csv(path):
    """Returns (iters, error_sq) arrays."""
    _, body = _read_rows(path)
    iters = np.array([int(r[0]) for r in body], dtype=np.int64)
    err = np.array([float(r[1]) for r in body])
    return iters, err


def write_density_csv(path, grid):
    """One density snapshot: single data row ``t, u_0, ..., u_{N-1}``."""
    header = ["t"] + [f"u_{p}" for p in range(grid.N)]
    return _write_rows(path, header,
                       [[_fmt(grid.t)] + _fmt_all(grid.u)])


def read_density_csv(path):
    """Returns (t, u)."""
    _, body = _read_rows(path)
    return float(body[0][0]), np.array([float(v) for v in body[0][1:]])


def write_histogram_csv(path, centers, counts):
    """Histogram ``bin_center, count``."""
    centers = np.asarray(centers, dtype=np.float64)
    counts = np.asarray(counts)
    if centers.shape != counts.shape:
        raise ValueError("centers and counts must have matching shapes")
    return _write_rows(path, ["bin_center", "count"], (
        [c, str(int(ct))]
        for c, ct in zip(_fmt_all(centers), counts.tolist())))


def write_json(path, payload):
    """JSON with sorted keys and a trailing newline (byte-stable)."""
    with _open_w(path) as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return Path(path)


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)
