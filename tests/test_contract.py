"""Guards for names that code outside the package looks up: the
benchmark under ``perfbench/``, the demos and every ``__all__`` export."""

import importlib
import importlib.util
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import kacwalk
from kacwalk import experiments

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
