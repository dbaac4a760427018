"""Self-tests of the benchmark on a tiny configuration (seconds per test).

    python3 -m pytest -q perfbench/tests
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

import workloads
from tracer import layer_metrics

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def tiny(name: str) -> workloads.Workload:
    """The workload at 2 images per class, height 2, one set-up."""
    return dataclasses.replace(workloads.WORKLOADS[name], height=2,
                               per_class=2, cli_train=0, cli_test=0,
                               cli_keep=4, cli_rounds=1, explains=2,
                               setups=1)


def run_tiny(name, tmp_path, trace=False):
    return workloads.run(tiny(name), seed=3, seconds=0.01, trace=trace,
                         work_dir=str(tmp_path))


def test_benchmark_json_names_the_issue_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert END_TO_END["setup_s"] == "s"
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tiny_workload_emits_every_end_to_end_metric(name, tmp_path):
    metrics, checks, tracer, notes = run_tiny(name, tmp_path)
    assert tracer is None
    assert checks.failures == []
    assert checks.attempted > 0
    assert {k: unit for k, (_, unit) in metrics.items()} == END_TO_END
    assert all(value > 0 for value, _ in metrics.values())


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_run_emits_every_per_layer_metric_and_restores(name, tmp_path):
    import prototree.cli
    import prototree.data
    main, load_ppm = prototree.cli.main, prototree.data.load_ppm
    metrics, checks, tracer, notes = run_tiny(name, tmp_path, trace=True)
    assert checks.failures == []
    layers = layer_metrics(tracer, notes)
    layers["failed_share"] = (0.0, "share")
    assert {k: unit for k, (_, unit) in layers.items()} == PER_LAYER
    assert layers["backbone.images_per_eval_image"][0] == 8
    assert prototree.cli.main is main
    assert prototree.cli.load_ppm is load_ppm is prototree.data.load_ppm


def test_injected_failure_raises_failed_share(tmp_path, monkeypatch):
    import prototree.refine
    monkeypatch.setattr(prototree.refine, "fidelity", lambda *a, **k: 1.5)
    metrics, checks, tracer, notes = run_tiny("refine-eval", tmp_path)
    assert len(checks.failures) == 3 * notes["cli_rounds"]  # every eval
    assert all("cli eval" in f for f in checks.failures)
    assert 0 < len(checks.failures) / checks.attempted < 1


def test_fails_without_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train-deep",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_reference_loss_range():
    with open(workloads.REFERENCE_PATH) as fh:
        table = json.load(fh)["epoch2_loss"]["h4-n200"]
    tol = workloads.LOSS_TOLERANCE["h4-n200"]
    lo, hi = workloads._reference_loss("h4-n200", 0)
    assert (lo, hi) == (table["0"] - tol, table["0"] + tol)
    lo, hi = workloads._reference_loss("h4-n200", 10 ** 6)   # not recorded
    assert (lo, hi) == (min(table.values()) - tol, max(table.values()) + tol)
    assert workloads._reference_loss("h2-n2", 0) is None
