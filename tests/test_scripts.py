"""The scripts under ``scripts/`` run from a plain checkout."""

import os
import re
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_desk_experiment_runs_without_the_package_installed(tmp_path):
    # no PYTHONPATH: the script finds the checkout's src/ itself
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / "run_desk_experiment.py"),
         "--classes", "4", "--per-class", "8", "--side", "32",
         "--height", "2", "--epochs", "3", "--depth", "8"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    run = tmp_path / "desk_run"
    summary = (run / "summary.txt").read_text().splitlines()
    assert summary[0].startswith("dataset: 32 train / 16 test")
    assert any(re.match(r"projected \d+ prototypes", s) for s in summary)
    assert summary[-1] == f"visualization under {os.path.join('desk_run', 'viz')}"
    assert all(line in done.stdout.splitlines() for line in summary)
    html = (run / "viz" / "tree.html").read_text()
    images = re.findall(r"<img src='([^']+)'", html)
    assert images
    for rel in images:
        assert (run / "viz" / rel).is_file()


def test_cold_train_alternates_checkouts_in_fresh_processes(tmp_path):
    checkout = str(SCRIPTS.parent)
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / "cold_train.py"), "--a", checkout,
         "--b", checkout, "--pairs", "2", "--classes", "2", "--per-class",
         "2", "--side", "32", "--set", "stages=4:3:2", "--set",
         "latent_depth=4", "--set", "height=1", "--set", "batch_size=2"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0] == "pair,checkout,wall_s,minor_faults,peak_rss_mb"
    runs = [line.split(",") for line in lines[1:5]]
    assert [(pair, side) for pair, side, _, _, _ in runs] == \
        [("0", "a"), ("0", "b"), ("1", "b"), ("1", "a")]
    assert all(float(wall) > 0 and int(faults) > 0 and float(peak) > 0
               for _, _, wall, faults, peak in runs)
    assert [line.split(" ")[:2] for line in lines[5:]] == \
        [["median", "a"], ["median", "b"]]
    assert all(re.search(r" s, \d+ faults, [\d.]+ MB$", line)
               for line in lines[5:])
