#!/usr/bin/env python3
"""Fingerprint a short run of CLI commands in the checkout this script is in.

Runs gen-data (8 classes, 40 train images each), a 3-epoch train, prune,
project with and without the class-constrained pools, eval with each
strategy, visualize, explain, ensemble-eval and selftest in a fresh
temporary directory, then projects a copy of the trained model whose
nodes 1 and 2 and node 1's right child hold a prototype far from every
latent patch, so that projection collapses them. It prints one line per
command, the sha1 of its stdout and its exit code, one sha1 per
checkpoint record of each ``.npt`` file (its name, dtype, shape and
payload), one per other output file and one for the generated dataset,
each with the work directory's path replaced by a fixed token; stderr
is not compared. A
change to one checkpoint record shows as that record's line alone. Two
checkouts print the same lines exactly when the outputs are
byte-identical. To compare them, run this same script in both: copy it
into the other checkout's ``scripts/`` directory, since it runs the
package of the checkout it sits in:

    python3 scripts/cli_digest.py --height 4 > a.txt   # in checkout A
    python3 scripts/cli_digest.py --height 4 > b.txt   # in checkout B
    diff a.txt b.txt

After 3 epochs at height 9 every leaf is nearly uniform and prune's
default threshold removes them all; ``--height 9 --tau 0.1256`` keeps
about a quarter of them.
"""

import argparse
import contextlib
import hashlib
import io
import os
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "src"))

from prototree.checkpoint import read_blob, write_blob  # noqa: E402
from prototree.cli import main as cli_main  # noqa: E402

# latents are sigmoid outputs in [0, 1]: a prototype of all tens lies
# more than -ln(0.1) from every patch, so projection finds its node dead
FAR_PROTOTYPE = 10.0


def commands(work: str, height: int, tau: str | None,
            ) -> list[tuple[str, list[str]]]:
    """(label, argv) of every command, in the order they run."""
    data = os.path.join(work, "data")
    model, pruned, projected = (os.path.join(work, name) for name in
                                ("model.npt", "pruned.npt", "projected.npt"))
    steps = [
        ("gen-data", ["gen-data", "--k", "8", "--n", "40", "--out", data]),
        ("train", ["train", "--data", data, "--out", model, "--quiet",
                   "--set", "epochs=3", "--set", f"height={height}"]),
        ("prune", ["prune", "--ckpt", model, "--out", pruned]
         + (["--tau", tau] if tau else [])),
        ("project", ["project", "--ckpt", pruned, "--data", data,
                     "--out", projected]),
        ("project-unconstrained", ["project", "--ckpt", pruned, "--data",
                                   data, "--no-constrained", "--out",
                                   os.path.join(work, "unconstrained.npt")]),
    ]
    steps += [(f"eval-{strategy}", ["eval", "--ckpt", projected, "--data",
                                    data, "--strategy", strategy])
              for strategy in ("soft", "max_path", "greedy")]
    steps += [
        ("visualize", ["visualize", "--ckpt", projected, "--out-dir",
                       os.path.join(work, "viz")]),
        ("explain", ["explain", "--ckpt", projected, "--image",
                     os.path.join(data, "test", "class_0", "00000.ppm"),
                     "--out-dir", os.path.join(work, "explain")]),
        ("ensemble-eval", ["ensemble-eval", "--ckpt", model, "--ckpt",
                           projected, "--data", data]),
        ("selftest", ["selftest"]),
        ("project-dead", ["project", "--ckpt", os.path.join(work, "dead.npt"),
                          "--data", data, "--out",
                          os.path.join(work, "dead-projected.npt")]),
    ]
    return steps


def plant_dead(model: str, out: str) -> None:
    """Copy the checkpoint at model to out with nodes 1 and 2 and node 1's
    right child moved far from every latent patch."""
    blob = read_blob(model)
    right_of_1 = int(blob["tree/children"][1, 1])
    blob["tree/prototypes"][[1, 2, right_of_1]] = FAR_PROTOTYPE
    write_blob(out, blob)


def digest(height: int, tau: str | None) -> list[str]:
    lines = []
    with tempfile.TemporaryDirectory(prefix="cli_digest_") as work:
        token = work.encode()

        def sha1(data: bytes) -> str:
            return hashlib.sha1(data.replace(token, b"<work>")).hexdigest()

        for label, argv in commands(work, height, tau):
            if label == "project-dead":
                plant_dead(os.path.join(work, "model.npt"),
                           os.path.join(work, "dead.npt"))
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli_main(argv)
            lines.append(f"{sha1(out.getvalue().encode())}  stdout "
                         f"{label} exit {code}")
        # the generated images get one line, each checkpoint record and
        # every other file its own
        data = hashlib.sha1()
        for path in _files(work):
            with open(path, "rb") as fh:
                content = fh.read()
            rel = os.path.relpath(path, work)
            if rel.startswith("data" + os.sep):
                data.update(rel.encode() + b"\0" + content)
            elif rel.endswith(".npt"):
                for name, arr in read_blob(path).items():
                    head = f"{name}\0{arr.dtype.str}\0{arr.shape}\0"
                    lines.append(f"{sha1(head.encode() + arr.tobytes())}  "
                                 f"record {rel} {name}")
            else:
                lines.append(f"{sha1(content)}  file {rel}")
        lines.append(f"{data.hexdigest()}  dir data")
    return lines


def _files(top: str) -> list[str]:
    """Every file under top, in sorted path order."""
    paths = []
    for root, dirs, files in os.walk(top):
        dirs.sort()
        paths += [os.path.join(root, name) for name in sorted(files)]
    return paths


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--height", type=int, default=4,
                        help="tree height of the trained model (default 4)")
    parser.add_argument("--tau", help="prune threshold (default: prune's)")
    args = parser.parse_args()
    print("\n".join(digest(args.height, args.tau)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
