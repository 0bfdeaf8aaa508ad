import math

import numpy as np
import pytest

from kacwalk import cli, experiments, io, systems
from kacwalk.experiments import (
    EXPERIMENTS,
    ExperimentConfig,
    default_config,
    parse_config,
    run_experiment,
)
from kacwalk.solver import SolveConfig, kaczmarz_solve
from kacwalk.walk import WalkConfig, run_walk

# ------------------------------------------------------------------ config


def test_parse_config_reads_every_field_and_an_extra():
    text = """
    experiment = square_walk
    m = 12
    n = 12
    seed = 3
    steps = 50
    snapshot_every = 5
    output_dir = runs/sq
    trials = 2
    ell = 4
    """
    assert parse_config(text) == ExperimentConfig(
        experiment="square_walk", m=12, n=12, seed=3, steps=50,
        snapshot_every=5, output_dir="runs/sq", trials=2, extra={"ell": "4"})


def test_parse_config_comments_defaults_and_extras():
    text = """
    # walk settings
    experiment = circle

    m = 30
    meanfield = true
    """
    cfg = parse_config(text)
    assert cfg.experiment == "circle"
    assert cfg.m == 30
    assert cfg.n == 2  # defaulted
    assert cfg.steps == 100000  # defaulted
    assert cfg.extra == {"meanfield": "true"}


def test_parse_config_errors():
    with pytest.raises(ValueError, match="experiment"):
        parse_config("m = 3\n")
    with pytest.raises(ValueError, match="unknown experiment"):
        parse_config("experiment = warp_drive\n")
    with pytest.raises(ValueError, match="key = value"):
        parse_config("experiment = circle\nnonsense line\n")
    with pytest.raises(ValueError, match="^line 3: m='abc': "):
        parse_config("experiment = circle\n\nm = abc\n")
    with pytest.raises(ValueError, match="^seed must be >= 0, got -1$"):
        parse_config("experiment = circle\nseed = -1\n")


def test_config_validation():
    with pytest.raises(ValueError):
        default_config("square_walk", m=0)
    with pytest.raises(ValueError):
        default_config("square_walk", steps=-5)
    with pytest.raises(ValueError):
        default_config("hyperdrive")
    with pytest.raises(ValueError, match="allowed: none"):
        default_config("n_plus_one", extra={"ell": "3"})
    # steps = 0 is legal: a single-snapshot run
    assert default_config("square_walk", steps=0).steps == 0


def test_registry_covers_all_pipelines():
    assert sorted(EXPERIMENTS) == ["circle", "n_plus_one", "overdetermined",
                                   "solver_compare", "square_walk",
                                   "theorem_audit"]


# --------------------------------------------------------------- pipelines


@pytest.fixture
def walks(monkeypatch):
    """Every (system, log, snapshots) the pipelines' run_walk returns."""
    kept = []
    real = experiments.run_walk

    def keep(*args, **kwargs):
        kept.append(real(*args, **kwargs))
        return kept[-1]

    monkeypatch.setattr(experiments, "run_walk", keep)
    return kept


def assert_walk_health(report, walks, trials):
    assert len(walks) == trials
    assert report["residual_inf_max"] == max(
        snap.residual_inf for _, _, snaps in walks for snap in snaps)
    assert report["steps_skipped"] == sum(
        int(log.skipped.sum()) for _, log, _ in walks)
    assert report["log_amp_max"] == max(
        float(-0.5 * np.log1p(-log.c[~log.skipped] ** 2).sum())
        for _, log, _ in walks)


def test_square_walk_outputs(tmp_path, walks):
    cfg = default_config("square_walk", output_dir=tmp_path, m=10, n=10,
                         seed=2, steps=60, snapshot_every=20, trials=2)
    files = run_experiment(cfg)
    names = {f.name for f in files}
    assert {"sigma_traj_2.csv", "sigma_traj_3.csv", "steps_2.csv",
            "steps_3.csv", "predictions.csv", "report.json"} <= names
    ks, sig, frob = io.read_snapshots_csv(tmp_path / "sigma_traj_2.csv")
    assert list(ks) == [0, 20, 40, 60]
    assert sig.shape == (4, 10)
    assert np.abs(frob - 10.0).max() < 1e-9
    pred = (tmp_path / "predictions.csv").read_text().splitlines()
    assert pred[0] == "k,pred_linear,pred_logistic"
    assert len(pred) == 5
    report = io.read_json(tmp_path / "report.json")
    assert report["ell"] == 10
    assert report["residual_inf_max"] < 1e-9
    assert_walk_health(report, walks, 2)
    assert report["log_amp_max"] > 0.0


def test_square_walk_zero_steps_single_snapshot(tmp_path):
    cfg = default_config("square_walk", output_dir=tmp_path, m=6, n=6,
                         steps=0, trials=1)
    run_experiment(cfg)
    ks, sig, _ = io.read_snapshots_csv(tmp_path / "sigma_traj_0.csv")
    assert list(ks) == [0]
    assert sig.shape == (1, 6)


@pytest.mark.parametrize("experiment,shape", [
    ("square_walk", dict(m=3, n=3, steps=0)),
    ("overdetermined", dict(m=3, n=1, steps=5)),
], ids=["square_walk-no-steps", "overdetermined-one-column"])
def test_log_amp_max_is_positive_zero_without_an_applied_step(
        tmp_path, experiment, shape):
    # With one column every pair is parallel and skipped, so neither run
    # applies a step; a sum of non-negative terms must not read -0.0.
    run_experiment(default_config(experiment, output_dir=tmp_path,
                                  trials=1, **shape))
    log_amp = io.read_json(tmp_path / "report.json")["log_amp_max"]
    assert log_amp == 0.0 and math.copysign(1.0, log_amp) == 1.0
    assert '"log_amp_max": 0.0,' in (tmp_path / "report.json").read_text()


def test_square_walk_requires_square(tmp_path):
    cfg = default_config("square_walk", output_dir=tmp_path, m=8, n=4,
                         steps=1, trials=1)
    with pytest.raises(ValueError, match="m == n"):
        run_experiment(cfg)


def test_overdetermined_outputs(tmp_path, walks):
    cfg = default_config("overdetermined", output_dir=tmp_path, m=20, n=5,
                         seed=0, steps=800, snapshot_every=400, trials=2)
    files = run_experiment(cfg)
    names = {f.name for f in files}
    assert "hist_final_sigmas.csv" in names
    hist = (tmp_path / "hist_final_sigmas.csv").read_text().splitlines()
    assert hist[0] == "bin_center,count"
    assert len(hist) == 21  # 20 bins plus header
    finals = np.concatenate([
        io.read_snapshots_csv(tmp_path / f"sigma_traj_{seed}.csv")[1][-1]
        for seed in (0, 1)])
    centers, counts = np.loadtxt(tmp_path / "hist_final_sigmas.csv",
                                 delimiter=",", skiprows=1).T
    assert counts.sum() == 2 * 5  # trials x n
    width = 1.001 * finals.max() / 20
    np.testing.assert_allclose(centers, width * (np.arange(20) + 0.5),
                               rtol=1e-12)
    report = io.read_json(tmp_path / "report.json")
    assert len(report["trial_conds"]) == 2
    assert 0.0 <= report["fraction_cond_improved"] <= 1.0
    assert_walk_health(report, walks, 2)


def test_n_plus_one_outputs(tmp_path, walks):
    cfg = default_config("n_plus_one", output_dir=tmp_path, m=4, n=3,
                         seed=1, steps=3000, snapshot_every=1000, trials=2)
    run_experiment(cfg)
    report = io.read_json(tmp_path / "report.json")
    # 3000 steps on a 4x3 system is deep in the asymptote
    assert report["sigma1_gap_final_max"] < 1e-6
    assert report["rest_dev_final_max"] < 1e-6
    assert_walk_health(report, walks, 2)


def test_circle_outputs_with_meanfield(tmp_path):
    cfg = default_config("circle", output_dir=tmp_path, m=24, seed=4,
                         steps=1500, snapshot_every=500, trials=2,
                         extra={"meanfield": "true"})
    files = run_experiment(cfg)
    names = {f.name for f in files}
    assert {"order4_4.csv", "order4_5.csv", "angles_4.csv", "angles_5.csv",
            "density_0.csv", "density_2.csv", "report.json"} <= names
    t0, u0 = io.read_density_csv(tmp_path / "density_0.csv")
    t1, u1 = io.read_density_csv(tmp_path / "density_2.csv")
    assert (t0, t1) == (0.0, 2.0)
    assert u0.shape == u1.shape == (256,)
    # The start is trial 0's starting ensemble, binned on the grid.
    counts, _ = np.histogram(systems.random_circle_ensemble(24, 4).angles,
                             bins=256, range=(0.0, 2.0 * math.pi))
    np.testing.assert_array_equal(u0, counts / (24 * 2.0 * math.pi / 256))
    trace = (tmp_path / "order4_4.csv").read_text().splitlines()
    assert trace[0] == "k,order4"
    assert len(trace) == 5  # k = 0, 500, 1000, 1500 plus header


def test_circle_requires_two_columns(tmp_path):
    cfg = default_config("circle", output_dir=tmp_path, n=3, trials=1,
                         steps=10)
    with pytest.raises(ValueError, match="n = 2"):
        run_experiment(cfg)


def test_solver_compare_outputs(tmp_path):
    cfg = default_config("solver_compare", output_dir=tmp_path, m=12, n=12,
                         seed=7, steps=400, snapshot_every=100, trials=1,
                         extra={"max_iters": "600", "budgets": "100,100,400"})
    files = run_experiment(cfg)
    assert len(files) == len(set(files))  # each budget is solved once
    names = {f.name for f in files}
    assert {"solve_raw_7.csv", "solve_pre_7.csv", "solve_pre_7_b100.csv",
            "report.json"} <= names
    report = io.read_json(tmp_path / "report.json")
    entry = report["trial_results"][0]
    assert entry["sigma_min_after"] > entry["sigma_min_before"]
    assert set(entry["iters_pre"]) == {"400", "100"}


def test_solver_compare_walks_each_trial_once(tmp_path, monkeypatch):
    # One walk per trial, to the largest budget; the system it solves at
    # each budget is that of a separate run_walk of that many steps, so
    # every solve_pre file is byte-equal to one written from it.
    calls = []
    real = experiments._walk

    def counted(*args):
        calls.append(args[1])
        return real(*args)

    monkeypatch.setattr(experiments, "_walk", counted)
    cfg = default_config("solver_compare", output_dir=tmp_path / "out",
                         m=8, n=8, seed=3, steps=100, snapshot_every=50,
                         trials=2,
                         extra={"max_iters": "300", "budgets": "50,0,200,50"})
    files = run_experiment(cfg)
    assert calls == [3, 4]
    ref = tmp_path / "ref"
    ref.mkdir()
    for seed in (3, 4):
        system = systems.gaussian_system(8, 8, seed)
        scfg = SolveConfig(seed=seed, max_iters=300,
                           target_residual=experiments.TARGET_RESIDUAL,
                           record_every=50)
        for budget, suffix in ((100, ""), (0, "_b0"), (50, "_b50"),
                               (200, "_b200")):
            walked, _, _ = run_walk(system, WalkConfig(seed=seed,
                                                       steps=budget))
            _, trace = kaczmarz_solve(walked, np.zeros(8), scfg)
            name = f"solve_pre_{seed}{suffix}.csv"
            want = io.write_trace_csv(ref / name, trace).read_bytes()
            assert (tmp_path / "out" / name).read_bytes() == want
    assert len(files) == 2 * 5 + 1


def test_solver_compare_defaults_report_the_walked_solve(tmp_path):
    # At the default budget, 6 n^2 walk steps, the walked 100x100 system
    # reaches the target well inside the cap (1900 iterations at seed 0);
    # the raw one does not.
    cfg = default_config("solver_compare", output_dir=tmp_path, trials=1)
    run_experiment(cfg)
    entry = io.read_json(tmp_path / "report.json")["trial_results"][0]
    assert isinstance(entry["iters_pre"][str(cfg.steps)], int)
    assert entry["iters_raw"] is None


def test_theorem_audit_report(tmp_path):
    cfg = default_config("theorem_audit", output_dir=tmp_path, seed=0,
                         trials=8)
    files = run_experiment(cfg)
    assert [f.name for f in files] == ["report.json"]
    report = io.read_json(tmp_path / "report.json")
    assert report["instances"] == 8
    assert report["worst_gap"] >= -1e-10
    assert report["worst_refined_gap"] >= -1e-10
    assert report["sigma2_sum_min"] >= 0.0
    assert set(report["per_shape_worst_gap"]) == {"4x4", "6x6", "5x4", "8x3"}


def test_theorem_audit_runs_12x12_and_rejects_bad_shapes(tmp_path):
    cfg = default_config("theorem_audit", output_dir=tmp_path, trials=1,
                         extra={"shapes": "12x12"})
    run_experiment(cfg)
    report = io.read_json(tmp_path / "report.json")
    assert report["per_shape_worst_gap"]["12x12"] >= -1e-10
    for shapes, match in (("1x3", "m >= 2"), ("3x0", "n >= 1")):
        with pytest.raises(ValueError, match=match):
            default_config("theorem_audit", output_dir=tmp_path, trials=1,
                           extra={"shapes": shapes})


TINY_CONFIGS = {
    "square_walk": dict(m=8, n=8, steps=40, snapshot_every=20, trials=2),
    "overdetermined": dict(m=12, n=4, steps=200, snapshot_every=50, trials=2),
    "n_plus_one": dict(m=5, n=4, steps=400, snapshot_every=100, trials=2),
    "circle": dict(m=16, steps=300, snapshot_every=100, trials=2,
                   extra={"meanfield": "true"}),
    "solver_compare": dict(m=8, n=8, steps=100, snapshot_every=50, trials=2,
                           extra={"max_iters": "300", "budgets": "50"}),
    "theorem_audit": dict(trials=8),
}


@pytest.mark.parametrize("experiment", sorted(EXPERIMENTS))
def test_experiment_reruns_are_byte_identical(tmp_path, experiment):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        run_experiment(default_config(experiment, output_dir=out,
                                      **TINY_CONFIGS[experiment]))
    names = sorted(f.name for f in out_a.iterdir())
    assert names == sorted(f.name for f in out_b.iterdir())
    assert "report.json" in names
    for name in names:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


class _ReadKeys(dict):
    """An extras table that remembers which keys were looked up."""

    def __init__(self, items):
        super().__init__(items)
        self.read = set()

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)


@pytest.mark.parametrize("experiment", sorted(EXPERIMENTS))
def test_stock_configs_pass_their_checks_and_default_their_extras(experiment):
    cfg = default_config(experiment)
    record = EXPERIMENTS[experiment]
    assert [problem for check in record.requires
            if (problem := check(cfg))] == []
    for key, (_, default) in record.extras.items():
        assert experiments._extra(cfg, key) == default


@pytest.mark.parametrize("experiment", sorted(EXPERIMENTS))
def test_pipelines_read_exactly_their_declared_extras(tmp_path, experiment):
    cfg = default_config(experiment, output_dir=tmp_path,
                         **TINY_CONFIGS[experiment])
    cfg.extra = _ReadKeys(cfg.extra)
    run_experiment(cfg)
    assert cfg.extra.read == set(EXPERIMENTS[experiment].extras)


# --------------------------------------------------------------------- cli


def test_cli_runs_and_prints_files(tmp_path, capsys):
    code = cli.main(["theorem_audit", "--trials", "4",
                     "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out.splitlines()
    assert out == [str(tmp_path / "report.json")]


def test_cli_overrides_and_config_file(tmp_path, capsys):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text("experiment = square_walk\nm = 8\nn = 8\n"
                        "steps = 20\nsnapshot_every = 10\ntrials = 1\n")
    code = cli.main(["square_walk", "--config", str(cfg_path),
                     "--seed", "5", "--out", str(tmp_path / "out")])
    assert code == 0
    capsys.readouterr()
    assert (tmp_path / "out" / "sigma_traj_5.csv").exists()


def test_cli_extra_flag(tmp_path, capsys):
    code = cli.main(["theorem_audit", "--trials", "2",
                     "-x", "shapes=3x3", "--out", str(tmp_path)])
    assert code == 0
    capsys.readouterr()
    report = io.read_json(tmp_path / "report.json")
    assert report["shapes"] == ["3x3"]


@pytest.mark.parametrize("argv,typo", [
    (["circle", "--trials", "1", "--steps", "5", "-x", "meanfeild=true"],
     "meanfeild"),
    (["theorem_audit", "--trials", "2", "-x", "shape=3x3"], "shape"),
    (["circle", "--trials", "1", "--steps", "5", "-x", "grid_n=abc"],
     "grid_n"),
], ids=["circle-meanfeild", "theorem_audit-shape", "circle-grid_n"])
def test_cli_rejects_extras_the_experiment_does_not_read(tmp_path, capsys,
                                                         argv, typo):
    code = cli.main(argv + ["--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("kkw: error:") and err.count("\n") == 1
    assert repr(typo) in err and "allowed:" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv,bad", [
    (["circle", "-x", "meanfield=maybe"], "meanfield='maybe'"),
    (["solver_compare", "-x", "budgets=5,x"], "budgets='5,x'"),
    (["solver_compare", "-x", "max_iters=many"], "max_iters='many'"),
    (["theorem_audit", "-x", "shapes=3"], "shapes='3'"),
    (["solver_compare", "-x", "budgets=-5"], "budgets='-5'"),
    (["solver_compare", "-x", "max_iters=0"], "max_iters='0'"),
    (["theorem_audit", "-x", "shapes=4x4,3x1"], "shapes='4x4,3x1'"),
], ids=["meanfield", "budgets", "max_iters", "shapes", "budgets-negative",
        "max_iters-zero", "shapes-one-column"])
def test_cli_rejects_bad_extra_values_before_any_work(tmp_path, capsys,
                                                      argv, bad):
    code = cli.main(argv + ["--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"kkw: error: extra {bad}: ")
    assert err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_cli_theorem_audit_rejects_fields_it_does_not_read(tmp_path, capsys):
    code = cli.main(["theorem_audit", "--m", "12", "--n", "12", "--steps",
                     "500", "--trials", "4", "--out", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert "m, n, steps" in err and "-x shapes=MxN" in err
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("argv", [
    ["square_walk", "--m", "6", "--n", "3"],
    ["theorem_audit", "--m", "12"],
    ["square_walk", "--m", "6", "--n", "6", "-x", "ell=9"],
    ["square_walk", "--m", "1", "--n", "1"],
    ["circle", "--m", "1"],
    ["square_walk", "--m", "6", "--n", "6", "--steps", "10", "--trials", "1",
     "--seed", "-1"],
    ["theorem_audit", "--seed", "-3"],
    ["square_walk", "--m", "6", "--n", "6", "--steps", "50", "--trials", "3",
     "-x", "ell=1"],
    ["solver_compare", "--m", "4", "--n", "6"],
    ["n_plus_one", "--m", "2", "--n", "1"],
], ids=["square_walk-shape", "theorem_audit-m", "square_walk-ell",
        "square_walk-m1", "circle-m1", "square_walk-seed-negative",
        "theorem_audit-seed-negative", "square_walk-ell-start-above-1",
        "solver_compare-wide", "n_plus_one-one-column"])
def test_cli_shape_errors_leave_no_output_directory(tmp_path, capsys, argv):
    code = cli.main(argv + ["--out", str(tmp_path / "d")])
    assert code == 1
    capsys.readouterr()
    assert not (tmp_path / "d").exists()


def test_cli_ell_start_above_one_asks_for_a_larger_index(tmp_path, capsys):
    # Singular values descend, so a smaller sigma_ell sits at a larger ell.
    code = cli.main(["square_walk", "--m", "3", "--n", "3", "--steps", "5",
                     "--trials", "1", "-x", "ell=1",
                     "--out", str(tmp_path / "d")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("kkw: error: median starting value ")
    assert err.endswith(
        " exceeds 1; the logistic prediction needs a smaller singular "
        "value, i.e. an index ell above 1\n")
    assert not (tmp_path / "d").exists()


def test_cli_error_paths(tmp_path, capsys):
    code = cli.main(["square_walk", "--m", "6", "--n", "3",
                     "--out", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("kkw: error:") and err.count("\n") == 1

    cfg_path = tmp_path / "c.cfg"
    cfg_path.write_text("experiment = circle\n")
    code = cli.main(["square_walk", "--config", str(cfg_path)])
    assert code == 1
    assert "circle" in capsys.readouterr().err


def test_cli_rejects_unknown_experiment(capsys):
    with pytest.raises(SystemExit):
        cli.main(["not_an_experiment"])
    capsys.readouterr()


def test_cli_bad_extra_format(tmp_path, capsys):
    code = cli.main(["circle", "--trials", "1", "--steps", "5",
                     "-x", "oops", "--out", str(tmp_path)])
    assert code == 1
    assert "KEY=VALUE" in capsys.readouterr().err
