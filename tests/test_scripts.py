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
