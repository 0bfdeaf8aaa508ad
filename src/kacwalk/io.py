"""CSV and JSON emission for trajectories, logs, traces, and densities.

Every CSV is written under one cell rule: integer and bool columns as
decimal integers, any other column as ``repr(float(v))`` (the shortest
text that reads back to the same float). Headers and row order are
fixed, and files end with a single newline, so rerunning a seeded
experiment reproduces its outputs byte for byte. Readers return numpy
arrays, parse integer columns straight to int64, and accept exactly what
the writers emit.
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


def _open_w(path):
    return open(path, "w", encoding="utf-8", newline="")


def _cells(column):
    """The cell text of one column, produced lazily: integer and bool
    columns as decimal integers, any other as ``repr(float(v))``."""
    if isinstance(column, range):  # an integer column, kept lazy
        return map(str, column)
    column = np.asarray(column)
    if column.dtype.kind in "biu":
        return map(str, column.astype(np.int64, copy=False).tolist())
    return map(repr, column.astype(np.float64, copy=False).tolist())


def _write_rows(path, header, rows):
    """CSV of the header, then the rows, each an iterable of cells."""
    with _open_w(path) as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)
    return Path(path)


def _write_columns(path, header, *columns):
    """CSV of the header, then one row per index across the columns: one
    column per header name, all of one length. Anything else is refused
    before the file is opened."""
    if len(columns) != len(header):
        raise ValueError(
            f"{len(columns)} columns under {len(header)} header names")
    lengths = {len(column) for column in columns}
    if len(lengths) > 1:
        raise ValueError(f"columns differ in length: {sorted(lengths)}")
    return _write_rows(path, header, zip(*map(_cells, columns)))


def _read_columns(path):
    """(header, cells) of a CSV written by ``_write_rows``: cells is a
    (columns, rows) array of cell strings."""
    with open(path, encoding="utf-8", newline="") as fh:
        header, *rows = csv.reader(fh)
    return header, np.array(rows, dtype=str).reshape(len(rows), len(header)).T


def write_snapshots_csv(path, snapshots):
    """Spectrum trajectory: one row per snapshot,
    ``k, sigma_1, ..., sigma_n, frob_sq``."""
    if not snapshots:
        raise ValueError("need at least one snapshot")
    n = snapshots[0].sigmas.shape[0]
    if any(snap.sigmas.shape[0] != n for snap in snapshots):
        raise ValueError("snapshots have inconsistent widths")
    header = ["k"] + [f"sigma_{p}" for p in range(1, n + 1)] + ["frob_sq"]
    sigmas = np.array([snap.sigmas for snap in snapshots])
    return _write_columns(path, header, [snap.k for snap in snapshots],
                          *sigmas.T, [snap.frob_sq for snap in snapshots])


def read_snapshots_csv(path):
    """Returns (k, sigmas, frob_sq): int array, (rows, n) array, float array."""
    header, cells = _read_columns(path)
    if header[0] != "k" or header[-1] != "frob_sq":
        raise ValueError(f"unexpected header in {path}")
    return (cells[0].astype(np.int64), cells[1:-1].T.astype(np.float64),
            cells[-1].astype(np.float64))


def write_steps_csv(path, log):
    """Per-step log ``k, i, j, c, skipped``, k from 1, skipped as 0/1."""
    return _write_columns(path, ["k", "i", "j", "c", "skipped"],
                          range(1, len(log) + 1), log.i, log.j, log.c,
                          log.skipped)


def read_steps_csv(path):
    """Returns (k, i, j, c, skipped) arrays."""
    _, (k, i, j, c, skipped) = _read_columns(path)
    return (k.astype(np.int64), i.astype(np.int64), j.astype(np.int64),
            c.astype(np.float64), skipped.astype(np.int64).astype(bool))


def write_series_csv(path, header, ks, *columns):
    """Integer index column ``header[0]`` (``ks``) against float columns
    ``header[1:]``, one row per index."""
    return _write_columns(path, header, ks, *columns)


def write_trace_csv(path, trace):
    """Solver error curve ``iter, error_sq``."""
    return _write_columns(path, ["iter", "error_sq"], trace.iters,
                          trace.error_sq)


def read_trace_csv(path):
    """Returns (iters, error_sq) arrays."""
    _, (iters, err) = _read_columns(path)
    return iters.astype(np.int64), err.astype(np.float64)


def write_density_csv(path, grid):
    """One density snapshot: single data row ``t, u_0, ..., u_{N-1}``."""
    header = ["t"] + [f"u_{p}" for p in range(grid.N)]
    return _write_rows(path, header, [_cells(np.append(grid.t, grid.u))])


def read_density_csv(path):
    """Returns (t, u)."""
    _, cells = _read_columns(path)
    return float(cells[0, 0]), cells[1:, 0].astype(np.float64)


def write_histogram_csv(path, centers, counts):
    """Histogram ``bin_center, count``."""
    return _write_columns(path, ["bin_center", "count"],
                          np.asarray(centers, dtype=np.float64), counts)


def write_json(path, payload):
    """JSON with sorted keys and a trailing newline (byte-stable)."""
    with _open_w(path) as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return Path(path)


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)
