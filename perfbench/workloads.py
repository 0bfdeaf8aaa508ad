"""The benchmark's four workloads and the invariant checks on their outputs.

A workload is one pass of seeded calls into kacwalk; trial ``t`` of a pass
uses ``seed + t``, as the experiments do. Every pass of a run repeats the
same trials, so the passes of one run must write identical bytes. Passes
are kept short (one to three seconds here) so that a run holds many of
them and their median is steady on a noisy machine.

- ``square``: ``square_walk`` at its defaults (100x100, 20 000 steps, a
  snapshot every 100 steps, the steps CSV written), two trials a pass.
  Loads the walk step, the snapshot SVD and the CSV writers; bypasses the
  solver and the mean-field code. About 15 steps fit one dependency level
  at m=100, so a batched walk shows its gain here.
- ``tall``: ``n_plus_one`` at 31x30 with 100 000 steps a trial and a
  snapshot every 10 000, two trials a pass. Step-bound: snapshots and writes are near zero,
  and only about 5 steps fit a level, so a batched walk predicts no gain.
  The run passes k=80 000, where the residual at ``x_ref`` has blown up
  (the known b-fidelity defect), so its trials fail the residual check.
- ``solve``: the body of ``kkw solver_compare`` driven one call at a time:
  ``gaussian_system(50, 50)``, ``run_walk`` for 15 000 steps (6 n^2) with
  snapshots only at the ends, ``kaczmarz_solve`` on the walked system to
  residual 1e-6 (cap 50 000), the raw ``kaczmarz_solve`` with the same
  config (it runs to the cap), and ``write_trace_csv`` twice; two trials
  a pass.
- ``limits``: one ``circle`` trial at 200 particles and 100 000 steps with
  ``meanfield = true`` (RK4 on a 256-cell grid to t=2), ``theorem_audit`` at
  its defaults, then three ``expected_gain_exact`` calls at m=n=100. The matrix walk
  does not run; ``sample_pair`` still runs once per circle step.
"""

import functools
import hashlib
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from kacwalk import experiments, io, linalg, solver, systems, theory, walk

ROW_TOL = 1e-10         # walked rows have unit length
FROB_TOL = 1e-9         # ||A||_F^2 stays m
RESIDUAL_TOL = 1e-8     # ||A x_ref - b||_inf: the walk keeps the solution
TARGET_RESIDUAL = 1e-6  # the walked solve must reach this
MASS_TOL = 1e-9         # the mean-field density keeps unit mass
GAP_TOL = 1e-12         # expansion gaps are >= 0 up to rounding
# |mean of exp(4i theta)| is at most 1, but a fully clustered ensemble
# rounds to 1.0000000000000002.
ORDER_TOL = 1e-12
IDENTITY_RTOL = 1e-10   # the oracle matches its closed form

GAIN_SIZE = 100
GAIN_CALLS = 3


class Record:
    """What one pass returned, kept for the checks and metrics after it."""

    def __init__(self):
        self.walks = []    # (walked system, StepLog, snapshots) per run_walk
        self.circles = []  # (final ensemble, samples, skipped) per circle walk
        self.solves = []   # (walked trace, raw trace) per solve trial
        self.gains = []    # (A, x, GainReport) per direct oracle call
        self.samples = []  # per-trial time to solution, seconds
        self.ops = []      # (operation, [failure messages])

    def check(self, op, failures):
        self.ops.append((op, failures))

    @contextmanager
    def capture(self):
        """Keep what the pipelines' walks return, and how long each took.

        Wraps the names ``kacwalk.experiments`` looks up; the wrappers
        copy the originals' metadata, so the tracer wraps them in turn."""
        saved = {"run_walk": experiments.run_walk,
                 "run_circle_walk": experiments.run_circle_walk}
        sinks = {"run_walk": self.walks, "run_circle_walk": self.circles}

        def keep(fn, sink):
            @functools.wraps(fn)
            def captured(*args, **kwargs):
                t0 = time.perf_counter()
                result = fn(*args, **kwargs)
                self.samples.append(time.perf_counter() - t0)
                sink.append(result)
                return result
            return captured

        for name, fn in saved.items():
            setattr(experiments, name, keep(fn, sinks[name]))
        try:
            yield self
        finally:
            for name, fn in saved.items():
                setattr(experiments, name, fn)


# ---------------------------------------------------------------- checks


def walk_failures(walked, snapshots):
    """Invariants of a walked system that survive any change of pair stream."""
    bad = []
    dev = float(np.abs(np.linalg.norm(walked.A, axis=1) - 1.0).max())
    if not dev <= ROW_TOL:
        bad.append(f"row norm off by {dev:.3e}")
    frob = max([abs(float((walked.A * walked.A).sum()) - walked.m)]
               + [abs(s.frob_sq - walked.m) for s in snapshots])
    if not frob <= FROB_TOL:
        bad.append(f"frob_sq off m by {frob:.3e}")
    res = float(np.abs(walked.A @ walked.x_ref - walked.b).max())
    if not res <= RESIDUAL_TOL:
        bad.append(f"residual at x_ref {res:.3e}")
    return bad


def trace_failures(trace, must_converge):
    bad = []
    if not np.all(np.diff(trace.iters) > 0):
        bad.append("trace iterations not strictly increasing")
    if not np.all(np.isfinite(trace.error_sq)):
        bad.append("trace has non-finite errors")
    if must_converge and not trace.converged:
        bad.append(f"missed residual {TARGET_RESIDUAL:g} "
                   f"in {int(trace.iters[-1])} iterations")
    return bad


def gain_failures(A, x, rep):
    """The oracle against its closed form, computed here independently:
    E = ||Ax||^2 + S/(m(m-1)) with
    S = sum over i != j of (y_i - c_ij y_j)^2 / (1 - c_ij^2) - y_i^2."""
    m = A.shape[0]
    y = A @ x
    G = A @ A.T
    off = ~np.eye(m, dtype=bool)
    num = (y[:, None] - G * y[None, :]) ** 2
    rest = 1.0 - G * G
    np.fill_diagonal(rest, 1.0)  # i == j is not a pair; keeps 0/0 out
    S = float((num / rest - (y * y)[:, None])[off].sum())
    closed = float(y @ y) + S / (m * (m - 1))
    bad = []
    rel = abs(rep.expected_norm_sq - closed) / abs(closed)
    if not rel <= IDENTITY_RTOL:
        bad.append(f"E differs from its closed form by {rel:.3e} (relative)")
    gap = rep.expected_norm_sq - rep.bound_rhs
    if not gap >= -GAP_TOL * max(1.0, abs(rep.expected_norm_sq)):
        bad.append(f"expansion bound violated by {-gap:.3e}")
    return bad


def check_walks(out, rec):
    for walked, _, snaps in rec.walks:
        rec.check("walk", walk_failures(walked, snaps))


def check_solves(out, rec):
    for (walked, _, snaps), (pre, raw) in zip(rec.walks, rec.solves):
        rec.check("solve", walk_failures(walked, snaps)
                  + trace_failures(pre, must_converge=True)
                  + trace_failures(raw, must_converge=False))


def check_limits(out, rec):
    for _, samples, _ in rec.circles:
        outside = [r for _, r in samples if not 0.0 <= r <= 1.0 + ORDER_TOL]
        rec.check("circle", [f"order4 {max(outside)!r} outside [0, 1]"]
                  if outside else [])
    mass = io.read_json(out / "circle" / "report.json")["meanfield"]["final_mass"]
    rec.check("meanfield", [] if abs(mass - 1.0) <= MASS_TOL
              else [f"mean-field mass {mass!r}"])
    worst = io.read_json(out / "theorem_audit" / "report.json")["worst_gap"]
    rec.check("theorem_audit", [] if worst >= -GAP_TOL
              else [f"worst_gap {worst!r} < 0"])
    for A, x, rep in rec.gains:
        rec.check("expected_gain_exact", gain_failures(A, x, rep))


def fingerprint(out, rec):
    """Digest of every file the pass wrote plus the oracle results it did
    not write, so two passes can be compared byte for byte."""
    prints = {}
    for path in sorted(p for p in Path(out).rglob("*") if p.is_file()):
        prints[str(path.relative_to(out))] = hashlib.sha256(
            path.read_bytes()).hexdigest()
    for t, (_, _, rep) in enumerate(rec.gains):
        prints[f"expected_gain_exact[{t}]"] = repr(rep)
    return prints


# ---------------------------------------------------------------- passes


def run_pipelines(cfgs, rec):
    for cfg in cfgs:
        experiments.run_experiment(cfg)


def run_solve(cfgs, rec):
    (cfg,) = cfgs
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    for t in range(cfg.trials):
        seed = cfg.seed + t
        system = systems.gaussian_system(cfg.m, cfg.n, seed)
        scfg = solver.SolveConfig(seed=seed, max_iters=int(cfg.extra["max_iters"]),
                                  target_residual=TARGET_RESIDUAL,
                                  record_every=cfg.snapshot_every)
        t0 = time.perf_counter()
        walked, log, snaps = walk.run_walk(system, walk.WalkConfig(
            seed=seed, steps=cfg.steps, snapshot_every=max(1, cfg.steps)))
        _, pre = solver.kaczmarz_solve(walked, np.zeros(cfg.n), scfg)
        rec.samples.append(time.perf_counter() - t0)
        _, raw = solver.kaczmarz_solve(system, np.zeros(cfg.n), scfg)
        io.write_trace_csv(out / f"solve_raw_{seed}.csv", raw)
        io.write_trace_csv(out / f"solve_pre_{seed}.csv", pre)
        rec.walks.append((walked, log, snaps))
        rec.solves.append((pre, raw))


def run_limits(cfgs, rec):
    run_pipelines(cfgs, rec)
    seed = cfgs[0].seed
    for t in range(GAIN_CALLS):
        rng = np.random.default_rng(seed + t)
        A = linalg.normalize_rows(rng.standard_normal((GAIN_SIZE, GAIN_SIZE)))
        x = rng.standard_normal(GAIN_SIZE)
        rec.gains.append((A, x, theory.expected_gain_exact(A, x)))


class Workload:
    """A pass function, its checks, and the ``kkw`` settings behind it.

    ``pipelines`` lists (experiment, overrides) pairs, the first being the
    one the set-up probe resolves; overrides are what a user would type
    after ``kkw <experiment>``. Each pipeline writes to its own directory
    under the pass's output directory."""

    def __init__(self, name, pipelines, run, check):
        self.name = name
        self.pipelines = pipelines
        self.run = run
        self.check = check

    def configs(self, out, seed):
        return [experiments.default_config(
                    experiment, output_dir=str(Path(out) / experiment),
                    seed=seed, **overrides)
                for experiment, overrides in self.pipelines]

    def cli_args(self, out, seed):
        experiment, overrides = self.pipelines[0]
        args = [experiment, "--seed", str(seed),
                "--out", str(Path(out) / experiment)]
        for key, value in overrides.items():
            if key == "extra":
                for k, v in value.items():
                    args += ["-x", f"{k}={v}"]
            else:
                args += [f"--{key.replace('_', '-')}", str(value)]
        return args


WORKLOADS = {w.name: w for w in (
    Workload("square", [("square_walk", {"trials": 2})],
             run_pipelines, check_walks),
    Workload("tall", [("n_plus_one", {"steps": 100000, "snapshot_every": 10000,
                                      "trials": 2})],
             run_pipelines, check_walks),
    Workload("solve", [("solver_compare",
                        {"m": 50, "n": 50, "steps": 15000, "trials": 2,
                         "extra": {"max_iters": "50000"}})],
             run_solve, check_solves),
    Workload("limits", [("circle", {"trials": 1,
                                    "extra": {"meanfield": "true"}}),
                        ("theorem_audit", {})],
             run_limits, check_limits),
)}
