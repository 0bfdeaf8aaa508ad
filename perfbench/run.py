"""kacwalk benchmark runner.

    python3 perfbench/run.py --workload square --seed 0 --seconds 20 --trace 0

Run from the root of a checkout; kacwalk is imported from ``src/`` there,
and every file the run writes lands in ``.bench_out/``. The workloads
(``square``, ``tall``, ``solve``, ``limits``) are described in
``workloads.py``.

A run makes one untimed warm-up pass, whose outputs are the reference,
then repeats the same pass until ``--seconds`` have gone by. Every pass
is checked (see ``workloads.py``); one checked trial or call is one
operation, and ``failed`` counts the operations that broke an invariant.
``correct`` is false when a pass wrote other bytes than the warm-up pass,
which includes a traced pass that differs from the untraced one.

``--trace 0`` reports the end-to-end metrics, measured without tracing:

- ``setup_s``: median over fresh interpreters, started between passes,
  of the time from start to ``kacwalk`` imported and the workload's
  ``kkw`` command line resolved.
- ``wall_s``: median seconds for one pass, writes included.
- ``time_to_solution_s``: median per-trial time from the start of the
  walk to the trial's result: ``run_walk`` through the walked
  ``kaczmarz_solve`` on ``solve``, the ``run_walk`` call on ``square`` and
  ``tall``, the ``run_circle_walk`` call on ``limits``. The highest
  percentile with at least 10 samples beyond it is printed with the
  sample count.
- ``peak_rss_mb``: peak resident memory of this process.

``failed_frac`` (failed / attempted) is printed by name; it is not in
``metrics`` because it is 0 on a healthy workload.

``--trace 1`` alternates traced and untraced passes and reports the
per-layer metrics of the traced pass with the median wall time. The
layers' ``self_s`` plus ``experiments.<name>.self_s`` plus
``trace.unattributed_s`` (the benchmark's own code between calls) add up
to ``trace.wall_s``; the run stops with an error if they do not. All spans
are written to ``.bench_out/<workload>.spans.json`` when the run ends.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import os

# One BLAS thread, fixed before numpy loads: the SVD must not compete with
# the single Python thread for the two cores of a small machine.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKLOAD_NAMES = ("square", "tall", "solve", "limits")
SETUP_REPEATS = 9
MIN_PASSES = 3
TAIL_BEYOND = 10

END_TO_END = {"setup_s": "s", "wall_s": "s", "time_to_solution_s": "s",
              "peak_rss_mb": "MB"}

PIPELINES = ("square_walk", "n_plus_one", "circle", "theorem_audit")
WRITERS = {"steps": "write_steps_csv", "snapshots": "write_snapshots_csv",
           "trace": "write_trace_csv", "histogram": "write_histogram_csv",
           "density": "write_density_csv", "json": "write_json"}

PER_LAYER = {
    "walk.self_s": "s",
    "walk.steps_per_s": "1/s",
    "walk.sample_pair.calls": "count",
    "walk.sample_pair.us": "us",
    "walk.walk_step.calls": "count",
    "walk.walk_step.us": "us",
    "walk.skip_ratio": "ratio",
    "walk.take_snapshot.calls": "count",
    "walk.take_snapshot.ms": "ms",
    "walk.residual_log10_max": "log10",
    "walk.log_amp_max": "nepers",
    "walk.sigma_min_gain": "ratio",
    "linalg.self_s": "s",
    "linalg.singular_values.calls": "count",
    "linalg.singular_values.ms": "ms",
    "solver.self_s": "s",
    "solver.kaczmarz_solve.calls": "count",
    "solver.iters": "count",
    "solver.us_per_iter": "us",
    "solver.iters_to_target": "count",
    "solver.flops_per_iter_computed": "flop",
    "meanfield.self_s": "s",
    "meanfield.circle.us_per_step": "us",
    "meanfield.circle.skip_ratio": "ratio",
    "meanfield.rk4.steps": "count",
    "meanfield.rk4.us_per_step": "us",
    "theory.self_s": "s",
    "theory.expected_gain_exact.calls": "count",
    "theory.expected_gain_exact.ms": "ms",
    "theory.ns_per_pair": "ns",
    "systems.self_s": "s",
    "systems.gaussian_system.calls": "count",
    "systems.gaussian_system.ms": "ms",
    "systems.draw_accept_ratio": "ratio",
    "io.self_s": "s",
    **{f"io.{w}.{k}": u for w in WRITERS
       for k, u in (("calls", "count"), ("bytes", "B"), ("s", "s"),
                    ("mb_per_s", "MB/s"))},
    **{f"experiments.{p}.self_s": "s" for p in PIPELINES},
    "trace.wall_s": "s",
    "trace.unattributed_s": "s",
    "trace.overhead_s": "s",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description="kacwalk benchmark")
    p.add_argument("--workload", required=True,
                   choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return p.parse_args(argv)


def ratio(num, den):
    """num / den, or 0.0 where the layer did no work on this workload."""
    return num / den if den else 0.0


def tail(samples):
    """(percentile, value) for the highest whole percentile with at least
    TAIL_BEYOND samples above it (nearest rank), or None."""
    n = len(samples)
    if n <= TAIL_BEYOND:
        return None
    pct = math.floor(100 * (n - TAIL_BEYOND) / n)
    rank = max(1, math.ceil(pct * n / 100))
    return pct, sorted(samples)[rank - 1]


# ---------------------------------------------------------------- machine


def machine_info(seed, workload):
    import numpy as np

    info = {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": None,
        "blas_version": None,
        "blas_threads_env": BLAS_THREADS,
        "blas_threads": blas_threads(np),
        "seed": seed,
        "workload": workload.name,
        "kkw": workload.cli_args("<out>", seed),
    }
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    info["cpu_model"] = line.partition(":")[2].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"], info["blas_version"] = blas.get("name"), blas.get("version")
    except (TypeError, KeyError):
        pass
    return info


def blas_threads(np):
    """Threads the loaded OpenBLAS will use, asked of the library itself."""
    import ctypes

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for name in ("scipy_openblas_get_num_threads64_",
                     "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(handle, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


# ---------------------------------------------------------------- passes


class Pass:
    """Outcome of one pass: wall time, checked operations, output digest,
    per-trial samples and, for a traced pass, its root span and metrics."""

    def __init__(self, wall, rec, prints, root=None):
        self.wall = wall
        self.ops = rec.ops
        self.samples = rec.samples
        self.prints = prints
        self.root = root
        self.layers = None


def run_pass(workload, seed, tracer=None):
    from workloads import Record, fingerprint

    out = OUT / workload.name
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    cfgs = workload.configs(out, seed)
    rec = Record()
    root = None
    with rec.capture():
        if tracer is None:
            t0 = time.perf_counter()
            workload.run(cfgs, rec)
            wall = time.perf_counter() - t0
        else:
            with tracer.instrument(), tracer.span("pass", "bench") as root:
                workload.run(cfgs, rec)
            wall = root.duration
    workload.check(out, rec)
    done = Pass(wall, rec, fingerprint(out, rec), root)
    if root is not None:
        # Read what the metrics need now: the next pass deletes these files.
        done.layers = layer_metrics(root, rec)
    return done


def measure(workload, seed, seconds, trace):
    """The warm-up pass, then untraced passes (alternating with traced
    ones under ``trace``) until ``seconds`` have gone by. Without tracing,
    a set-up probe runs before each of the first SETUP_REPEATS passes, so
    the set-up samples spread over the run; returns their times too."""
    from tracer import Tracer

    warm = run_pass(workload, seed)
    untraced, traced, setups = [], [], []
    start = time.perf_counter()
    while (time.perf_counter() - start < seconds
           or len(untraced) < MIN_PASSES or (trace and len(traced) < MIN_PASSES)):
        if trace:
            traced.append(run_pass(workload, seed, Tracer()))
        elif len(setups) < SETUP_REPEATS:
            setups.append(setup_probe(workload, seed))
        untraced.append(run_pass(workload, seed))
    while not trace and len(setups) < SETUP_REPEATS:
        setups.append(setup_probe(workload, seed))
    return warm, untraced, traced, setups


def setup_probe(workload, seed):
    """Seconds from starting a fresh interpreter to kacwalk imported and
    the workload's ``kkw`` command line resolved."""
    args = workload.cli_args(OUT / workload.name, seed)
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), *args],
                          capture_output=True, text=True, timeout=60, check=True)
    return float(proc.stdout.split()[-1]) - t0


# ---------------------------------------------------------------- layers


def rk4_steps(args):
    """Substeps meanfield_integrate takes: the smallest count of equal
    steps of size at most dt that covers the interval (its docstring)."""
    duration = args["t_end"] - args["grid"].t
    if duration == 0.0:
        return 0
    return max(1, math.ceil(duration / args["dt"] - 1e-9))


def layer_metrics(root, rec):
    import numpy as np
    from tracer import LAYERS, aggregate_totals, self_time_by_layer

    spans = {}
    stack = [root]
    while stack:
        sp = stack.pop()
        spans.setdefault(sp.name, []).append(sp)
        stack.extend(sp.children)

    def named(name):
        return spans.get(name, [])

    def mean_ms(group):
        return ratio(sum(s.duration for s in group), len(group)) * 1e3

    m = {}
    selfs = self_time_by_layer(root)
    for layer in LAYERS:
        if layer != "experiments":
            m[f"{layer}.self_s"] = selfs.pop(layer, 0.0)
    for name in PIPELINES:
        m[f"experiments.{name}.self_s"] = selfs.pop(f"experiments.{name}", 0.0)
    m["trace.wall_s"] = root.duration
    m["trace.unattributed_s"] = selfs.pop("bench", 0.0)
    if selfs:
        raise RuntimeError(f"self time outside every reported layer: {selfs}")
    attributed = sum(v for k, v in m.items()
                     if k.endswith("self_s") or k == "trace.unattributed_s")
    if abs(attributed - root.duration) > 1e-6:
        raise RuntimeError(f"self times sum to {attributed!r}, "
                           f"wall is {root.duration!r}")

    walks = named("walk.run_walk")
    logs = [s.result[1] for s in walks]
    steps = sum(len(log) for log in logs)
    m["walk.steps_per_s"] = ratio(steps, sum(s.duration - s.child_s for s in walks))
    aggs = aggregate_totals(root)
    for fn in ("sample_pair", "walk_step"):
        calls, total = aggs.get(f"walk.{fn}", (0, 0.0))
        m[f"walk.{fn}.calls"] = calls
        m[f"walk.{fn}.us"] = ratio(total, calls) * 1e6
    m["walk.skip_ratio"] = ratio(sum(int(log.skipped.sum()) for log in logs), steps)
    snaps = named("walk.take_snapshot")
    m["walk.take_snapshot.calls"] = len(snaps)
    m["walk.take_snapshot.ms"] = mean_ms(snaps)
    residuals = [float(np.abs(s.result[0].A @ s.result[0].x_ref
                              - s.result[0].b).max()) for s in walks]
    m["walk.residual_log10_max"] = (math.log10(max(max(residuals), 1e-300))
                                    if residuals else 0.0)
    m["walk.log_amp_max"] = max(
        (float(-0.5 * np.log1p(-log.c[~log.skipped] ** 2).sum()) for log in logs),
        default=0.0)
    gains = [s.result[2][-1].sigmas[-1] / s.result[2][0].sigmas[-1] for s in walks]
    m["walk.sigma_min_gain"] = float(np.median(gains)) if gains else 0.0

    svds = named("linalg.singular_values")
    m["linalg.singular_values.calls"] = len(svds)
    m["linalg.singular_values.ms"] = mean_ms(svds)

    solves = named("solver.kaczmarz_solve")
    iters = sum(int(s.result[1].iters[-1]) for s in solves)
    m["solver.kaczmarz_solve.calls"] = len(solves)
    m["solver.iters"] = iters
    m["solver.us_per_iter"] = ratio(sum(s.self_s for s in solves), iters) * 1e6
    reached = [int(pre.iters[-1]) for pre, _ in rec.solves if pre.converged]
    m["solver.iters_to_target"] = float(np.median(reached)) if reached else 0.0
    # Computed, not measured: the full residual A x - b every iteration
    # (2mn) plus the row projection (4n).
    shapes = [s.args["system"].A.shape for s in solves]
    m["solver.flops_per_iter_computed"] = (
        max(2 * a * b + 4 * b for a, b in shapes) if shapes else 0)

    circles = named("meanfield.run_circle_walk")
    circle_steps = sum(s.args["steps"] for s in circles)
    m["meanfield.circle.us_per_step"] = ratio(
        sum(s.duration for s in circles), circle_steps) * 1e6
    m["meanfield.circle.skip_ratio"] = ratio(
        sum(s.result[2] for s in circles), circle_steps)
    rk4 = named("meanfield.meanfield_integrate")
    rk4_total = sum(rk4_steps(s.args) for s in rk4)
    m["meanfield.rk4.steps"] = rk4_total
    m["meanfield.rk4.us_per_step"] = ratio(
        sum(s.duration for s in rk4), rk4_total) * 1e6

    oracle = named("theory.expected_gain_exact")
    pairs = sum(len(s.args["A"]) * (len(s.args["A"]) - 1) for s in oracle)
    m["theory.expected_gain_exact.calls"] = len(oracle)
    m["theory.expected_gain_exact.ms"] = mean_ms(oracle)
    m["theory.ns_per_pair"] = ratio(sum(s.duration for s in oracle), pairs) * 1e9

    gens = named("systems.gaussian_system")
    drawn = sum(1 for g in gens for c in g.children
                if c.name == "linalg.singular_values")
    m["systems.gaussian_system.calls"] = len(gens)
    m["systems.gaussian_system.ms"] = mean_ms(gens)
    m["systems.draw_accept_ratio"] = ratio(len(gens), drawn)

    for key, fn in WRITERS.items():
        writes = named(f"io.{fn}")
        size = sum(os.path.getsize(s.result) for s in writes)
        secs = sum((s.duration for s in writes), 0.0)
        m[f"io.{key}.calls"] = len(writes)
        m[f"io.{key}.bytes"] = size
        m[f"io.{key}.s"] = secs
        m[f"io.{key}.mb_per_s"] = ratio(size / 1e6, secs)
    return m


def write_spans(path, passes):
    """Every traced pass's spans: name, layer, start, end, parent index,
    and the per-step aggregates recorded under each."""
    out = []
    for p in passes:
        rows, index = [], {}
        stack = [p.root]
        while stack:
            sp = stack.pop()
            index[id(sp)] = len(rows)
            rows.append({"name": sp.name, "layer": sp.layer,
                         "start": sp.start, "end": sp.end,
                         "parent": index.get(id(sp.parent)),
                         "aggregates": sp.aggs})
            stack.extend(reversed(sp.children))
        out.append(rows)
    path.write_text(json.dumps(out) + "\n", encoding="utf-8")


# ---------------------------------------------------------------- main


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "kacwalk" / "__init__.py").is_file():
        print(f"run.py: no kacwalk sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import kacwalk
    from workloads import WORKLOADS

    if not Path(kacwalk.__file__).resolve().is_relative_to(SRC):
        print(f"run.py: kacwalk came from {kacwalk.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    info = machine_info(args.seed, workload)
    info.update(seconds=args.seconds, trace=args.trace)
    print(f"kacwalk benchmark: workload={workload.name} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("machine " + json.dumps(info, sort_keys=True))

    warm, untraced, traced, setups = measure(workload, args.seed, args.seconds,
                                             args.trace)

    everything = [warm, *untraced, *traced]
    ops = [op for p in everything for op in p.ops]
    failed = [(name, why) for name, why in ops if why]
    differs = sorted({key for p in everything[1:] for key in
                      set(p.prints) | set(warm.prints)
                      if p.prints.get(key) != warm.prints.get(key)})
    for name, why in failed[:10]:
        print(f"failed {name}: {'; '.join(why)}", file=sys.stderr)
    for key in differs:
        print(f"output differs from the warm-up pass: {key}", file=sys.stderr)

    walls = [p.wall for p in untraced]
    notes = {"untraced_pass_walls_s": walls,
             "failed_frac": len(failed) / len(ops) if ops else 0.0}
    if args.trace:
        order = sorted(traced, key=lambda p: p.wall)
        metrics = dict(order[(len(order) - 1) // 2].layers)
        metrics["trace.overhead_s"] = (statistics.median(p.wall for p in traced)
                                       - statistics.median(walls))
        units = PER_LAYER
        write_spans(OUT / f"{workload.name}.spans.json", traced)
    else:
        samples = [s for p in untraced for s in p.samples]
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(walls),
            "time_to_solution_s": statistics.median(samples),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END
        notes.update(setup_samples_s=setups,
                     time_to_solution_samples=len(samples))
        top = tail(samples)
        if top is not None:
            notes[f"time_to_solution_p{top[0]}_s"] = top[1]
            print(f"time_to_solution_s p{top[0]} = {top[1]!r} s "
                  f"(n={len(samples)} samples)")
    if set(metrics) != set(units):
        raise RuntimeError(f"metric names drifted: {set(metrics) ^ set(units)}")

    attempted = len(ops)
    print(f"failed_frac = {notes['failed_frac']!r} share "
          f"({len(failed)} of {attempted} operations)")
    print(f"passes = {len(untraced)} untraced, {len(traced)} traced "
          f"(plus one warm-up)")
    print("untraced pass walls = " + json.dumps(walls))
    for name in units:
        print(f"{name} = {metrics[name]!r} {units[name]}")
    result = {
        "correct": not differs,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }
    (OUT / f"{workload.name}.trace{args.trace}.result.json").write_text(
        json.dumps({"machine": info, "notes": notes, **result}, indent=2,
                   sort_keys=True) + "\n",
        encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
