"""Digest of every file a fixed list of small ``kkw`` runs writes.

    python3 tools/kkw_digest.py > digest.txt

Run from any directory; kacwalk is imported from the ``src/`` next to
this script. Each config runs through ``experiments.run_experiment`` in
its own subdirectory of a temporary directory, and the script prints one
``sha256  <run>/<file>`` line per written file, in the order the run
lists them. Diffing the output of two checkouts shows whether a change
kept every output byte.

The configs cover both walk engines (below and from 16 rows), on square
and on tall systems, ``square_8_ell6`` (``-x ell=6``, whose start check
draws the trials' systems before the walk does), runs that apply no step
(``--steps 0`` and a one-column system, whose pairs are all parallel),
the circle walk with and without the mean-field integration and at two
angles (the smallest pair bound, m(m - 1) = 2), ``solver_compare`` with
repeated and zero budgets and on a tall system, and ``theorem_audit`` at
its stock shapes and as ``theorem_audit_shapes`` (12 instances of
``-x shapes=12x12,3x2``).
"""

import hashlib
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from kacwalk import experiments  # noqa: E402

# (run name, experiment, field overrides, extras)
CONFIGS = [
    ("square_8", "square_walk",
     dict(m=8, n=8, steps=400, snapshot_every=37, trials=2), {}),
    ("square_20", "square_walk",
     dict(m=20, n=20, steps=2000, snapshot_every=100, trials=2), {}),
    ("square_8_ell6", "square_walk",
     dict(m=8, n=8, steps=400, snapshot_every=50, trials=2), {"ell": "6"}),
    ("square_steps0", "square_walk",
     dict(m=8, n=8, steps=0, trials=1), {}),
    ("overdetermined_30x10", "overdetermined",
     dict(m=30, n=10, steps=3000, snapshot_every=500, trials=2), {}),
    ("overdetermined_12x5", "overdetermined",
     dict(m=12, n=5, steps=2000, snapshot_every=500, trials=2), {}),
    ("overdetermined_n1", "overdetermined",
     dict(m=3, n=1, steps=50, snapshot_every=10, trials=1), {}),
    ("n_plus_one_31x30", "n_plus_one",
     dict(m=31, n=30, steps=5000, snapshot_every=1000, trials=1), {}),
    ("circle_meanfield", "circle",
     dict(m=50, steps=2000, snapshot_every=100, trials=2),
     {"meanfield": "true"}),
    ("circle_steps0", "circle", dict(m=20, steps=0, trials=1), {}),
    ("circle_m2", "circle",
     dict(m=2, steps=1000, snapshot_every=100, trials=2), {}),
    ("solver_compare_budgets", "solver_compare",
     dict(m=40, n=40, steps=9600, trials=1),
     {"budgets": "3000,0,20000,3000,9600"}),
    ("solver_compare_tall", "solver_compare",
     dict(m=60, n=20, steps=2000, trials=1), {}),
    ("theorem_audit", "theorem_audit", {}, {}),
    ("theorem_audit_shapes", "theorem_audit",
     dict(trials=12), {"shapes": "12x12,3x2"}),
]


def digests(root):
    """(sha256 hex, path relative to root) of every file each config
    writes, config by config."""
    for name, experiment, fields, extra in CONFIGS:
        cfg = experiments.default_config(experiment, Path(root) / name,
                                         extra=extra, **fields)
        for path in experiments.run_experiment(cfg):
            yield (hashlib.sha256(Path(path).read_bytes()).hexdigest(),
                   Path(path).relative_to(root).as_posix())


def main():
    with tempfile.TemporaryDirectory() as root:
        for digest, rel in digests(root):
            print(f"{digest}  {rel}")


if __name__ == "__main__":
    main()
