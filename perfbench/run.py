"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload refine-eval --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``. The
lines before it give the environment, every metric with its unit, failed
checks and, when traced, self time per layer. See README.md.
"""

from __future__ import annotations

import os
import sys

# One BLAS thread, fixed before numpy loads: two threads measured slower and
# noisier on a 2-core machine. prototree's NPTT_THREADS does not reach BLAS.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("train-deep", "refine-eval")


def git_commit() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired) as err:
        return f"unknown ({err})"
    return done.stdout.strip() or "unknown"


def environment(workload: str, seed: int) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_commit": git_commit(), "workload": workload, "seed": seed,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "numpy": np.__version__, "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "note": "NPTT_THREADS has no effect; BLAS threads are set by "
                "OPENBLAS_NUM_THREADS",
    }


def print_trace(tracer, notes: dict) -> None:
    wall = tracer.top_total
    print(f"trace: traced wall {wall:.3f} s, untraced units "
          f"{notes['unit_s_untraced']}, traced units {notes['unit_s_traced']}")
    print("trace: self time per layer (s, share of traced wall)")
    for layer, seconds in sorted(tracer.layer_self.items(),
                                 key=lambda kv: -kv[1]):
        label = "unaccounted (benchmark)" if layer == "bench" else layer
        print(f"  {label:26s} {seconds:9.3f}  {seconds / wall:6.1%}")
    print("trace: top spans by self time (calls, total s, self s)")
    for name, seconds in sorted(tracer.self_time.items(),
                                key=lambda kv: -kv[1])[:25]:
        print(f"  {name:48s} {tracer.calls[name]:8d} "
              f"{tracer.total[name]:9.3f} {seconds:9.3f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the timed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "prototree", "__init__.py")):
        print(f"error: no prototree sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads
    from tracer import layer_metrics

    work_dir = os.path.join(HERE, "_work",
                            f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work_dir)
    try:
        metrics, checks, tracer, notes = workloads.run(
            workloads.WORKLOADS[args.workload], args.seed, args.seconds,
            bool(args.trace), work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    print("env " + json.dumps(environment(args.workload, args.seed)))
    print("notes " + json.dumps(notes))
    if tracer:
        metrics = layer_metrics(tracer, notes)
        metrics["failed_share"] = (len(checks.failures) / checks.attempted,
                                   "share")
        print_trace(tracer, notes)
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value:.6g} {unit}")
    print(f"checks: {checks.attempted} attempted, {len(checks.failures)} failed")
    for failure in checks.failures:
        print(f"check FAILED {failure}")
    print(json.dumps({
        "correct": not checks.failures, "attempted": checks.attempted,
        "failed": len(checks.failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
