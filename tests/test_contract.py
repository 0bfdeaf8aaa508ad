"""Guards for names that code outside the package looks up: the
benchmark under ``perfbench/``, the demos and every ``__all__`` export."""

import argparse
import dataclasses
import importlib
import importlib.util
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import kacwalk
from kacwalk import cli, experiments

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_selftest_passes():
    proc = subprocess.run([sys.executable, "perfbench/selftest.py"],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_benchmark_captures_pipeline_walks(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    workloads = importlib.import_module("workloads")
    originals = (experiments.run_walk, experiments.run_circle_walk)
    with workloads.Record().capture() as rec:
        experiments.run_experiment(experiments.default_config(
            "square_walk", output_dir=tmp_path / "sq", m=6, n=6, steps=20,
            snapshot_every=10, trials=2))
        experiments.run_experiment(experiments.default_config(
            "circle", output_dir=tmp_path / "circle", m=8, steps=20,
            snapshot_every=10, trials=1))
    assert (experiments.run_walk, experiments.run_circle_walk) == originals
    assert len(rec.walks) == 2 and len(rec.circles) == 1
    walked, log, snaps = rec.walks[0]
    assert (walked.m, len(log), [s.k for s in snaps]) == (6, 20, [0, 10, 20])


def test_fields_table_drives_the_config_and_every_subcommand():
    config_ints = [f.name for f in dataclasses.fields(
        experiments.ExperimentConfig) if f.type is int]
    assert sorted(experiments.FIELDS) == sorted(config_ints)
    flags = ["--" + name.replace("_", "-") for name in experiments.FIELDS]
    parser = cli.build_parser()
    (sub,) = [action for action in parser._actions
              if isinstance(action, argparse._SubParsersAction)]
    assert sorted(sub.choices) == sorted(experiments.EXPERIMENTS)
    for sp in sub.choices.values():
        assert [action.option_strings for action in sp._actions] == [
            ["-h", "--help"], ["--config"], *([flag] for flag in flags),
            ["--out"], ["-x", "--extra"]]
    # perfbench/setup_probe.py resolves a kkw command line this way; each
    # flag must land on its own field.
    values = {name: lowest + 7 + k for k, (name, (lowest, _))
              in enumerate(experiments.FIELDS.items())}
    argv = ["square_walk", "--out", "runs"]
    for flag, value in zip(flags, values.values()):
        argv += [flag, str(value)]
    cfg = cli.resolve_config(parser.parse_args(argv))
    assert {name: getattr(cfg, name) for name in values} == values
    assert cfg.output_dir == "runs"
    # and a value below a field's floor is refused, naming the field.
    for flag, (name, (lowest, _)) in zip(flags, experiments.FIELDS.items()):
        args = parser.parse_args(["square_walk", flag, str(lowest - 1)])
        with pytest.raises(ValueError, match=(
                f"^{name} must be >= {lowest}, got {lowest - 1}$")):
            cli.resolve_config(args)


def test_readme_extras_table_lists_exactly_the_declared_extras():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    rows = re.findall(r"^\| `(\w+)` \| `(\w+)` \|", readme, re.MULTILINE)
    declared = [(name, key)
                for name, record in experiments.EXPERIMENTS.items()
                for key in record.extras]
    assert sorted(rows) == sorted(declared)


MODULES = ["kacwalk"] + sorted(
    f"kacwalk.{info.name}" for info in pkgutil.iter_modules(kacwalk.__path__))


@pytest.mark.parametrize("module", MODULES)
def test_every_export_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__
               if not hasattr(mod, name)]
    assert missing == []


def _load_demo(path):
    # Each demo's main() sits behind ``__name__ == "__main__"``, so loading
    # it runs only its imports.
    spec = importlib.util.spec_from_file_location(path.stem, path)
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    return demo


@pytest.mark.parametrize("path", sorted((ROOT / "demos").glob("*.py")),
                         ids=lambda path: path.stem)
def test_demo_imports_resolve(path):
    # every kacwalk name the demo uses must resolve
    assert callable(_load_demo(path).main)


def test_cli_demo_runs(monkeypatch, capsys):
    # The one demo that drives kkw with an -x extra, end to end; its
    # subprocess finds kacwalk through PYTHONPATH.
    monkeypatch.setenv("PYTHONPATH", str(ROOT / "src"))
    _load_demo(ROOT / "demos" / "demo_cli_experiment.py").main()
    assert "the run wrote 8 files:" in capsys.readouterr().out
