"""Record the epoch-2 training loss per seed that the benchmark checks.

    python3 perfbench/record_reference.py 0 64

trains each training shape for every seed in [first, stop) and rewrites
reference.json. Re-record only when a change is meant to alter training,
and say so with the change.
"""

from __future__ import annotations

import json
import os
import sys

os.environ["OPENBLAS_NUM_THREADS"] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads as wl  # noqa: E402
from prototree.data import gen_synthetic  # noqa: E402
from prototree.train import fit  # noqa: E402


def main(first: int, stop: int) -> None:
    shapes = {w.shape: w for w in wl.WORKLOADS.values()}
    table = {shape: {} for shape in shapes}
    for seed in range(first, stop):
        for shape, workload in shapes.items():
            train, _ = gen_synthetic(wl.CLASSES, workload.per_class, wl.SIDE,
                                     seed)
            model = wl.initial_model(workload, seed, train.class_names)
            history = fit(model, train, None, wl.train_config(seed))
            table[shape][str(seed)] = history[1]["loss"]
            print(shape, seed, history[1]["loss"], flush=True)
    with open(wl.REFERENCE_PATH, "w") as fh:
        json.dump({"epoch2_loss": table}, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main(int(sys.argv[1]), int(sys.argv[2]))
