"""Named, seeded experiment pipelines behind the ``kkw`` command.

Each experiment consumes an ExperimentConfig and runs a deterministic
pipeline. run_experiment creates the configured output directory, the
pipeline writes its CSV artifacts there and returns its report, and
run_experiment writes that as ``report.json`` and returns the written
paths. EXPERIMENTS holds one Experiment record per name: the pipeline,
its field defaults, the ``extra`` keys it reads and its shape checks.
The few experiment-specific options live in the config's ``extra``
table as strings: the record's extras declare each key with its parser
and default, and building a config rejects any other key, or a value
its parser refuses. Histogram bins, the mean-field grid and the
solver's target residual are the fixed constants below.

Config files are flat ``key = value`` text: the canonical keys are
experiment, output_dir and the integer settings FIELDS declares;
anything else lands in ``extra``. Blank lines and ``#`` comments are
ignored.
"""

from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from kacwalk import io, linalg, systems
from kacwalk.meanfield import (
    TWO_PI,
    DensityGrid,
    meanfield_integrate,
    run_circle_walk,
)
from kacwalk.solver import SolveConfig, kaczmarz_solve
from kacwalk.theory import expected_gain_exact, predict_linear, predict_logistic
from kacwalk.walk import WalkConfig, _pair_bound, _walk, run_walk

__all__ = [
    "Experiment",
    "ExperimentConfig",
    "FIELDS",
    "default_config",
    "parse_config",
    "EXPERIMENTS",
    "run_experiment",
]

# The integer settings, in kkw's flag order: name -> (lowest value, help).
FIELDS = {
    "seed": (0, "base seed (trial t uses seed + t)"),
    "steps": (0, "walk steps per trial"),
    "m": (2, "row count"),
    "n": (1, "column count"),
    "trials": (1, "number of seeded trials"),
    "snapshot_every": (1, "spectrum/trace sampling stride"),
}

# Fixed settings; the reports echo the ones with numerical content.
HIST_BINS = 20        # overdetermined: final singular value histogram
ANGLE_BINS = 64       # circle: final angle histogram per trial
GRID_N, T_END, DT = 256, 2.0, 0.005  # circle: mean-field grid and RK4
TARGET_RESIDUAL = 1e-6  # solver_compare: Kaczmarz stopping residual


def _flag(text):
    lowered = str(text).strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError("expected true or false")


def _iters(text):
    iters = int(text)
    if iters < 1:
        raise ValueError(f"the iteration cap must be >= 1, got {iters}")
    return iters


def _budgets(text):
    budgets = tuple(int(v) for v in str(text).split(",") if v.strip())
    if any(budget < 0 for budget in budgets):
        raise ValueError("walk budgets must be >= 0")
    return budgets


def _shapes(text):
    shapes = []
    for token in str(text).split(","):
        token = token.strip()
        if not token:
            continue
        left, x, right = token.partition("x")
        if not x:
            raise ValueError(f"expected MxN, got {token!r}")
        shapes.append((int(left), int(right)))
    if not shapes:
        raise ValueError("no shapes given")
    for m, n in shapes:
        if m < 2:
            raise ValueError(f"audit shapes need m >= 2 (a row pair), got {m}")
        if n < 2:
            raise ValueError(f"audit shapes need n >= 2 (with one column "
                             f"every row pair is parallel), got {n}")
    return tuple(shapes)


def _ell(cfg):
    ell = _extra(cfg, "ell")
    return cfg.n if ell is None else ell


def _audit_fields(cfg):
    stock = EXPERIMENTS["theorem_audit"].defaults
    unread = [name for name in ("m", "n", "steps", "snapshot_every")
              if getattr(cfg, name) != stock[name]]
    return unread and (f"theorem_audit does not read {', '.join(unread)}; "
                       f"set instance shapes with -x shapes=MxN")


def _logistic_start(c):
    # The logistic curve needs the median starting sigma_ell at most 1.
    # At ell = n that always holds (sigma_n^2 <= ||A||_F^2 / n = 1 for
    # unit rows), so only a smaller ell draws the trials' systems here.
    ell = _ell(c)
    if ell == c.n:
        return False
    sigma0 = float(np.median([linalg.singular_values(system.A)[ell - 1]
                              for _, system in _systems(c)]))
    return sigma0 > 1.0 and (
        f"median starting value {sigma0:.3f} exceeds 1; the logistic "
        f"prediction needs a smaller singular value, i.e. an index ell "
        f"above {ell}")


class Experiment(NamedTuple):
    """One ``kkw`` experiment. run is the pipeline, whose docstring is the
    subcommand's help. defaults are the canonical field values. extras
    maps each ``extra`` key the pipeline reads to (parser, default).
    requires holds checks that return why a config does not suit the
    pipeline (or a false value); run_experiment runs them before it
    creates the output directory. Building the config cannot, as a
    config file may set m and leave n to the command line."""

    run: Callable
    defaults: dict
    extras: dict
    requires: tuple


def _experiment(name):
    """The EXPERIMENTS record for name; any other name is an error."""
    if name not in EXPERIMENTS:
        raise ValueError(
            f"unknown experiment {name!r}; choose from {sorted(EXPERIMENTS)}")
    return EXPERIMENTS[name]


@dataclass
class ExperimentConfig:
    """Fully resolved settings for one experiment run.

    seed is the base seed: trial t uses seed + t throughout. extra holds
    experiment-specific string options: only the keys the experiment's
    record lists in its extras, each with a value its parser accepts.
    """

    experiment: str
    m: int
    n: int
    seed: int
    steps: int
    snapshot_every: int
    output_dir: str
    trials: int
    extra: dict = field(default_factory=dict)

    def __post_init__(self):
        allowed = _experiment(self.experiment).extras
        for name, (lowest, _) in FIELDS.items():
            if getattr(self, name) < lowest:
                raise ValueError(
                    f"{name} must be >= {lowest}, got {getattr(self, name)}")
        for key in sorted(self.extra):
            if key not in allowed:
                raise ValueError(
                    f"{self.experiment} reads no extra key {key!r}; "
                    f"allowed: {', '.join(allowed) or 'none'}"
                )
            try:
                allowed[key][0](self.extra[key])
            except ValueError as exc:
                raise ValueError(
                    f"extra {key}={self.extra[key]!r}: {exc}") from None


def default_config(experiment, output_dir=".", **overrides):
    """The stock config for an experiment, with keyword overrides."""
    fields = dict(_experiment(experiment).defaults)
    extra = overrides.pop("extra", {})
    fields.update(overrides)
    return ExperimentConfig(experiment=experiment, output_dir=str(output_dir),
                            extra=dict(extra), **fields)


def parse_config(text):
    """Parse the flat text form; unlisted canonical fields fall back to
    the experiment's defaults."""
    raw = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ValueError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, value = stripped.partition("=")
        key, value = key.strip(), value.strip()
        try:
            raw[key] = int(value) if key in FIELDS else value
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {key}={value!r}: {exc}") from None
    if "experiment" not in raw:
        raise ValueError("config must name an experiment")
    experiment = raw.pop("experiment")
    fields = {key: value for key, value in raw.items()
              if key in (*FIELDS, "output_dir")}
    extra = {key: value for key, value in raw.items() if key not in fields}
    return default_config(experiment, extra=extra, **fields)


# ---------------------------------------------------------------------------
# small shared helpers


def _extra(cfg, key):
    """The parsed value of extra ``key``, or its declared default."""
    parse, default = EXPERIMENTS[cfg.experiment].extras[key]
    value = cfg.extra.get(key)
    return default if value is None else parse(value)


def _cond(sigmas):
    return float(sigmas[0] / sigmas[-1])


def _iters_to_target(trace):
    return int(trace.iters[-1]) if trace.converged else None


def _bin(values, bins, hi):
    """(centers, counts) of values in ``bins`` equal bins over [0, hi]."""
    counts, edges = np.histogram(values, bins=bins, range=(0.0, hi))
    return 0.5 * (edges[:-1] + edges[1:]), counts


def _systems(cfg):
    """Yield (seed, system) per trial: trial t draws the seeded Gaussian
    system of seed cfg.seed + t, one at a time."""
    for seed in range(cfg.seed, cfg.seed + cfg.trials):
        yield seed, systems.gaussian_system(cfg.m, cfg.n, seed)


def _walk_trials(cfg, out, files, steps_csv=False):
    """Per trial: draw the seeded Gaussian system, walk it, and write
    ``sigma_traj_<seed>.csv`` (and ``steps_<seed>.csv`` if asked).

    Returns (runs, shared): each trial's (seed, snapshots), and the report
    fields every walk experiment writes: the shape and the walk health
    (the largest residual at x_ref, the skipped steps, and the largest
    cumulative log-amplification sum -1/2 log(1 - c^2) that b went
    through). Each step log is dropped before the next trial, since long
    runs log millions of steps."""
    runs, health = [], []
    for seed, system in _systems(cfg):
        _, log, snaps = run_walk(system, WalkConfig(
            seed=seed, steps=cfg.steps, snapshot_every=cfg.snapshot_every))
        files.append(io.write_snapshots_csv(out / f"sigma_traj_{seed}.csv", snaps))
        if steps_csv:
            files.append(io.write_steps_csv(out / f"steps_{seed}.csv", log))
        health.append((
            max(snap.residual_inf for snap in snaps),
            int(log.skipped.sum()),
            # abs: with no applied step the empty sum times -0.5 is -0.0
            abs(float(-0.5 * np.log1p(-log.c[~log.skipped] ** 2).sum())),
        ))
        del log
        runs.append((seed, snaps))
    residual, skipped, log_amp = zip(*health)
    return runs, {
        "m": cfg.m, "n": cfg.n, "steps": cfg.steps, "trials": cfg.trials,
        "residual_inf_max": max(residual), "steps_skipped": sum(skipped),
        "log_amp_max": max(log_amp)}


# ---------------------------------------------------------------------------
# pipelines


def exp_square_walk(cfg, out, files):
    """Square-system spectrum trajectories with both prediction curves.

    The curves are evaluated for singular value index ``ell`` (extra key,
    default n, i.e. the smallest)."""
    ell = _ell(cfg)
    walked, shared = _walk_trials(cfg, out, files, steps_csv=True)
    runs = [snaps for _, snaps in walked]

    ks = np.array([snap.k for snap in runs[0]], dtype=np.int64)
    sig_ell = np.array([[snap.sigmas[ell - 1] for snap in snaps] for snaps in runs])
    median = np.median(sig_ell, axis=0)
    sigma0 = float(median[0])
    linear = predict_linear(cfg.n, sigma0, ks)
    logistic = predict_logistic(cfg.n, sigma0, ks)
    files.append(io.write_series_csv(
        out / "predictions.csv", ["k", "pred_linear", "pred_logistic"],
        ks, linear, logistic))

    return {
        **shared,
        "ell": ell,
        "sigma0_median": sigma0,
        "sigma_final_median": float(median[-1]),
        "pred_linear_final": float(linear[-1]),
        "pred_logistic_final": float(logistic[-1]),
        "frob_dev_max": max(
            abs(snap.frob_sq - cfg.m) for snaps in runs for snap in snaps),
    }


def exp_overdetermined(cfg, out, files):
    """Tall-system spectrum trajectories, final histogram, conditioning.

    The histogram pools final singular values over all trials into 20
    bins; condition numbers are reported per trial."""
    runs, shared = _walk_trials(cfg, out, files)
    finals = []
    trials = []
    for seed, snaps in runs:
        finals.append(snaps[-1].sigmas)
        trials.append({
            "seed": seed,
            "cond_initial": _cond(snaps[0].sigmas),
            "cond_final": _cond(snaps[-1].sigmas),
        })

    pooled = np.concatenate(finals)
    files.append(io.write_histogram_csv(
        out / "hist_final_sigmas.csv",
        *_bin(pooled, HIST_BINS, float(pooled.max()) * 1.001)))

    improved = sum(1 for tr in trials if tr["cond_final"] < tr["cond_initial"])
    return {
        **shared,
        "trial_conds": trials,
        "fraction_cond_improved": improved / cfg.trials,
        "sigma_final_min": float(pooled.min()),
        "sigma_final_max": float(pooled.max()),
    }


def exp_n_plus_one(cfg, out, files):
    """Near-square (m = n + 1) systems approaching the sqrt(2) spectrum.

    Tracks how the top singular value approaches sqrt(2) while all the
    others settle at 1."""
    runs, shared = _walk_trials(cfg, out, files)
    trials = []
    sqrt2 = float(np.sqrt(2.0))
    for seed, snaps in runs:
        first, last = snaps[0], snaps[-1]
        trials.append({
            "seed": seed,
            "sigma1_gap_initial": abs(float(first.sigmas[0]) - sqrt2),
            "sigma1_gap_final": abs(float(last.sigmas[0]) - sqrt2),
            "rest_dev_initial": float(np.abs(first.sigmas[1:] - 1.0).max()),
            "rest_dev_final": float(np.abs(last.sigmas[1:] - 1.0).max()),
            "frob_dev_final": abs(last.frob_sq - cfg.m),
        })
    return {
        **shared,
        "trial_gaps": trials,
        "sigma1_gap_final_max": max(tr["sigma1_gap_final"] for tr in trials),
        "rest_dev_final_max": max(tr["rest_dev_final"] for tr in trials),
    }


def exp_circle(cfg, out, files):
    """Two-column walk as circle dynamics with order-parameter traces.

    Also writes a 64-bin final angle histogram per trial.

    With extra key ``meanfield`` true (default false), also integrates
    the density equation on a 256-cell grid from the initial histogram
    of the first trial to t = 2 (RK4, dt = 0.005) and writes density
    snapshots at the start and end times."""
    trials = []
    for t in range(cfg.trials):
        seed = cfg.seed + t
        ensemble = systems.random_circle_ensemble(cfg.m, seed)
        if t == 0:
            start = ensemble
        final, samples, skipped = run_circle_walk(
            ensemble, cfg.steps, seed, sample_every=cfg.snapshot_every)
        files.append(io.write_series_csv(
            out / f"order4_{seed}.csv", ["k", "order4"],
            [k for k, _ in samples], [r for _, r in samples]))
        files.append(io.write_histogram_csv(
            out / f"angles_{seed}.csv",
            *_bin(final.angles, ANGLE_BINS, TWO_PI)))
        trials.append({
            "seed": seed,
            "order4_initial": samples[0][1],
            "order4_final": samples[-1][1],
            "skipped": skipped,
        })

    report = {
        "particles": cfg.m, "steps": cfg.steps, "trials": cfg.trials,
        "trial_order4": trials,
        "order4_initial_median": float(np.median(
            [tr["order4_initial"] for tr in trials])),
        "order4_final_median": float(np.median(
            [tr["order4_final"] for tr in trials])),
    }

    if _extra(cfg, "meanfield"):
        _, counts = _bin(start.angles, GRID_N, TWO_PI)
        grid = DensityGrid(counts / (cfg.m * TWO_PI / GRID_N), t=0.0)
        files.append(io.write_density_csv(out / "density_0.csv", grid))
        evolved = meanfield_integrate(grid, T_END, DT)
        files.append(io.write_density_csv(out / f"density_{T_END:g}.csv",
                                          evolved))
        report["meanfield"] = {"grid_n": GRID_N, "t_end": T_END, "dt": DT,
                               "final_mass": evolved.mass()}
    return report


def exp_solver_compare(cfg, out, files):
    """Solver error traces on raw versus walked systems.

    cfg.steps is the walk budget for the canonical comparison; each solve
    runs to residual 1e-6. Extras: max_iters (iteration cap per solve,
    default 25000) and budgets (comma-separated extra walk budgets, each
    written with a _b<budget> suffix; default none). Each trial walks
    once, to its largest budget, and solves at each budget on the way,
    in ascending order; a repeated budget is solved once.
    The default budget, 60000 steps, is 6 n^2 at the default 100x100: it
    lifts sigma_min to about 0.9, and the walked solve stops within a few
    thousand iterations, while the raw one runs into the cap (its
    iters_raw is None).
    """
    max_iters = _extra(cfg, "max_iters")
    budgets = dict.fromkeys((cfg.steps, *_extra(cfg, "budgets")))
    trials = []
    for seed, system in _systems(cfg):
        x0 = np.zeros(cfg.n)
        scfg = SolveConfig(seed=seed, max_iters=max_iters,
                           target_residual=TARGET_RESIDUAL,
                           record_every=cfg.snapshot_every)
        _, trace = kaczmarz_solve(system, x0, scfg)
        files.append(io.write_trace_csv(out / f"solve_raw_{seed}.csv", trace))
        entry = {"seed": seed, "iters_raw": _iters_to_target(trace),
                 "iters_pre": dict.fromkeys(map(str, budgets))}
        for budget, walked, _ in _walk(system, seed, sorted(budgets)):
            _, trace = kaczmarz_solve(walked, x0, scfg)
            if budget == cfg.steps:
                name = f"solve_pre_{seed}.csv"
                entry["sigma_min_before"] = float(
                    linalg.singular_values(system.A)[-1])
                entry["sigma_min_after"] = float(
                    linalg.singular_values(walked.A)[-1])
            else:
                name = f"solve_pre_{seed}_b{budget}.csv"
            files.append(io.write_trace_csv(out / name, trace))
            entry["iters_pre"][str(budget)] = _iters_to_target(trace)
        trials.append(entry)

    return {
        "m": cfg.m, "n": cfg.n, "walk_steps": cfg.steps,
        "trials": cfg.trials, "max_iters": max_iters,
        "target_residual": TARGET_RESIDUAL,
        "trial_results": trials,
    }


def exp_theorem_audit(cfg, out, files):
    """Exact expansion audit over random small instances.

    Runs cfg.trials instances cycling through the shapes in the
    ``shapes`` extra (comma-separated MxN, default ``4x4,6x6,5x4,8x3``),
    each from its own seeded draw, and reports the worst and mean gap
    between the exact expected gain and the bound it must dominate, plus
    the same for the refined pair-sum bound. The instance shapes come
    from ``shapes`` alone: m, n, steps and snapshot_every must keep their
    defaults."""
    shapes = _extra(cfg, "shapes")
    gaps = []
    refined_gaps = []
    sigma2_min = np.inf
    per_shape = {f"{m}x{n}": [] for m, n in shapes}
    for idx in range(cfg.trials):
        m, n = shapes[idx % len(shapes)]
        rng = np.random.default_rng(cfg.seed + idx)
        A = linalg.normalize_rows(rng.standard_normal((m, n)))
        x = rng.standard_normal(n)
        rep = expected_gain_exact(A, x)
        gap = rep.expected_norm_sq - rep.bound_rhs
        pairs = _pair_bound(m)
        refined_rhs = rep.base_norm_sq + (rep.sigma_sum + rep.sigma2_sum) / pairs
        refined_gaps.append(rep.expected_norm_sq - refined_rhs)
        sigma2_min = min(sigma2_min, rep.sigma2_sum)
        gaps.append(gap)
        per_shape[f"{m}x{n}"].append(gap)

    return {
        "instances": cfg.trials,
        "shapes": [f"{m}x{n}" for m, n in shapes],
        "worst_gap": float(min(gaps)),
        "mean_gap": float(np.mean(gaps)),
        "worst_refined_gap": float(min(refined_gaps)),
        "sigma2_sum_min": float(sigma2_min),
        "per_shape_worst_gap": {k: float(min(v)) for k, v in per_shape.items() if v},
    }


# name -> Experiment(run, defaults, extras, requires). ell's default None
# means n. The m >= 2 a row pair needs is FIELDS' floor.
EXPERIMENTS = {
    "square_walk": Experiment(
        exp_square_walk,
        dict(m=100, n=100, seed=0, steps=20000, snapshot_every=100, trials=10),
        {"ell": (int, None)},
        (lambda c: c.m != c.n and "square_walk needs m == n",
         lambda c: not 1 <= _ell(c) <= c.n
         and f"ell must lie in [1, {c.n}], got {_ell(c)}",
         _logistic_start)),
    "overdetermined": Experiment(
        exp_overdetermined,
        dict(m=100, n=25, seed=0, steps=20000, snapshot_every=200, trials=10),
        {},
        (lambda c: c.m <= c.n and "overdetermined needs m > n",)),
    "n_plus_one": Experiment(
        exp_n_plus_one,
        dict(m=31, n=30, seed=0, steps=1000000, snapshot_every=100000,
             trials=3),
        {},
        (lambda c: c.m != c.n + 1 and "n_plus_one needs m == n + 1",
         lambda c: c.n < 2 and "n_plus_one needs n >= 2: with one column "
         "every row pair is parallel")),
    "circle": Experiment(
        exp_circle,
        dict(m=200, n=2, seed=0, steps=100000, snapshot_every=1000, trials=20),
        {"meanfield": (_flag, False)},
        (lambda c: c.n != 2 and "circle is the two-column case; set n = 2",)),
    "solver_compare": Experiment(
        exp_solver_compare,
        dict(m=100, n=100, seed=0, steps=60000, snapshot_every=100, trials=20),
        {"max_iters": (_iters, 25000), "budgets": (_budgets, ())},
        (lambda c: c.m < c.n and "solver_compare needs m >= n",)),
    "theorem_audit": Experiment(
        exp_theorem_audit,
        dict(m=10, n=10, seed=0, steps=1, snapshot_every=1, trials=200),
        {"shapes": (_shapes, ((4, 4), (6, 6), (5, 4), (8, 3)))},
        (_audit_fields,)),
}


def run_experiment(cfg):
    """Run the named pipeline, once its record's requires hold, in
    cfg.output_dir (created if missing) and write its report as
    ``report.json``; returns the written paths, report.json last."""
    experiment = EXPERIMENTS[cfg.experiment]
    for check in experiment.requires:
        if problem := check(cfg):
            raise ValueError(problem)
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    files = []
    report = experiment.run(cfg, out, files)
    report["experiment"] = cfg.experiment
    files.append(io.write_json(out / "report.json", report))
    return files
