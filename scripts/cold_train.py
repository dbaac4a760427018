#!/usr/bin/env python3
"""Time ``prototree train`` in fresh processes, alternating two checkouts.

Each run is a new interpreter that trains at the desk config of
``cli_digest.py`` (8 classes of 40 train images, height 4, 3 epochs,
test scoring each epoch) on one dataset generated once, with the
package of its checkout. Pairs alternate which checkout runs first. Each
run prints its wall time and its minor page faults (``RUSAGE_CHILDREN``),
then the medians per checkout:

    python3 scripts/cold_train.py --a ../parent --b . --pairs 10

A process starts with no pages of its own, so this measures what a user
pays, faults included, where a benchmark that trains in one long process
measures whatever its earlier work left to the allocator.
"""

import argparse
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = "import sys; from prototree.cli import main; sys.exit(main(sys.argv[1:]))"


def prototree(checkout: str, args: list[str]) -> tuple[float, int]:
    """Wall seconds and minor faults of one ``prototree`` command run in a
    fresh interpreter with ``checkout``'s package."""
    env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"))
    before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", RUN, *args], env=env, check=True,
                   stdout=subprocess.DEVNULL)
    seconds = time.perf_counter() - start
    return seconds, resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt \
        - before


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--a", required=True, help="first checkout")
    parser.add_argument("--b", default=os.path.dirname(HERE),
                        help="second checkout (default: this one)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--classes", type=int, default=8)
    parser.add_argument("--per-class", type=int, default=40)
    parser.add_argument("--side", type=int, default=64, choices=(32, 64),
                        help="image side (default 64). A checkout whose "
                             "train still has the input_side key trains at "
                             "64 unless --set changes it, and --set items "
                             "go to both checkouts: compare it with a newer "
                             "one on 64 px data")
    parser.add_argument("--set", action="append", default=[],
                        metavar="KEY=VALUE",
                        help="train config override (epochs=3 is always set "
                             "first)")
    args = parser.parse_args(argv)
    checkouts = {"a": os.path.abspath(args.a), "b": os.path.abspath(args.b)}
    runs = {"a": [], "b": []}
    with tempfile.TemporaryDirectory() as work:
        data = os.path.join(work, "data")
        prototree(checkouts["a"], ["gen-data", "--k", str(args.classes),
                                   "--n", str(args.per_class), "--side",
                                   str(args.side), "--out", data])
        train = ["train", "--data", data, "--quiet", "--set", "epochs=3",
                 *(f"--set={item}" for item in args.set)]
        print("pair,checkout,wall_s,minor_faults", flush=True)
        for pair in range(args.pairs):
            for side in ("ab" if pair % 2 == 0 else "ba"):
                out = os.path.join(work, f"{side}.npt")
                seconds, faults = prototree(checkouts[side],
                                            [*train, "--out", out])
                runs[side].append((seconds, faults))
                print(f"{pair},{side},{seconds:.3f},{faults}", flush=True)
    for side in "ab":
        print(f"median {side} {checkouts[side]}: "
              f"{statistics.median(s for s, _ in runs[side]):.3f} s, "
              f"{statistics.median(f for _, f in runs[side]):.0f} faults")
    return 0


if __name__ == "__main__":
    sys.exit(main())
