#!/usr/bin/env python3
"""End-to-end desk experiment: generate data, train, prune, project,
convert to hard inference, and export the visualized tree.

Everything lands under --out-dir:
    data/                synthetic dataset (train/ + test/)
    model.npt            trained checkpoint (+ .metrics.csv)
    pruned.npt           after removing near-uniform leaves
    projected.npt        prototypes snapped to training patches
    viz/                 tree.dot, tree.html, prototypes/, local page
    summary.txt          accuracy and fidelity readout
"""

import argparse
import os
import sys
import time

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "src"))

from prototree.backbone import BackboneConfig  # noqa: E402
from prototree.data import gen_synthetic, write_dataset  # noqa: E402
from prototree.explain import export_tree  # noqa: E402
from prototree.model import build_model  # noqa: E402
from prototree.refine import default_tau, evaluate, project, prune  # noqa: E402
from prototree.train import TrainConfig, fit  # noqa: E402


def parse_args():
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--out-dir", default="desk_run")
    p.add_argument("--classes", type=int, default=8)
    p.add_argument("--per-class", type=int, default=200)
    p.add_argument("--side", type=int, default=64, choices=(32, 64))
    p.add_argument("--height", type=int, default=4)
    p.add_argument("--depth", type=int, default=64)
    p.add_argument("--epochs", type=int, default=50)
    p.add_argument("--batch-size", type=int, default=16)
    p.add_argument("--lr", type=float, default=5e-3)
    p.add_argument("--lr-prototypes", type=float, default=None)
    p.add_argument("--seed", type=int, default=100)
    return p.parse_args()


def main():
    args = parse_args()
    os.makedirs(args.out_dir, exist_ok=True)
    report = []

    def log(line):
        print(line, flush=True)
        report.append(line)

    t0 = time.time()
    train_set, test_set = gen_synthetic(args.classes, args.per_class,
                                        args.side, args.seed)
    write_dataset(train_set, os.path.join(args.out_dir, "data", "train"))
    write_dataset(test_set, os.path.join(args.out_dir, "data", "test"))
    log(f"dataset: {len(train_set)} train / {len(test_set)} test "
        f"({time.time() - t0:.1f}s)")

    config = BackboneConfig(input_side=args.side, latent_depth=args.depth)
    model = build_model(config, args.height, args.classes, args.seed,
                        class_names=train_set.class_names)
    tc = TrainConfig(epochs=args.epochs, batch_size=args.batch_size,
                     seed=args.seed, lr_body=args.lr, lr_head=args.lr,
                     lr_prototypes=args.lr_prototypes or args.lr)
    t0 = time.time()
    fit(model, train_set, test_set, tc,
        csv_path=os.path.join(args.out_dir, "model.npt.metrics.csv"),
        verbose=True)
    model.save(os.path.join(args.out_dir, "model.npt"))
    soft = evaluate(model, test_set, "soft").accuracy
    log(f"trained in {time.time() - t0:.0f}s, soft test accuracy {soft:.4f}")

    tau = default_tau(args.classes)
    before = model.topology.num_internal
    report_prune = prune(model, tau)
    model.save(os.path.join(args.out_dir, "pruned.npt"))
    log(f"pruned {report_prune.internal_removed}/{before} internal nodes "
        f"(tau={tau:.3f}), soft accuracy "
        f"{evaluate(model, test_set, 'soft').accuracy:.4f}")

    records = project(model, train_set, constrained=True)
    model.save(os.path.join(args.out_dir, "projected.npt"))
    mean_dist = float(np.mean([r.distance for r in records]))
    log(f"projected {len(records)} prototypes, mean patch distance "
        f"{mean_dist:.4f}, soft accuracy "
        f"{evaluate(model, test_set, 'soft').accuracy:.4f}")

    for strategy in ("max_path", "greedy"):
        result = evaluate(model, test_set, strategy)
        log(f"{strategy}: accuracy {result.accuracy:.4f}, "
            f"fidelity {result.fidelity:.4f}")
    depths = result.depths
    log(f"greedy path length {depths.mean():.2f} +- {depths.std():.2f} "
        f"({depths.min()}, {depths.max()})")

    sample = test_set.images[0]
    export_tree(model, os.path.join(args.out_dir, "viz"), sample=sample,
                sample_name="sample0")
    log(f"visualization under {os.path.join(args.out_dir, 'viz')}")

    with open(os.path.join(args.out_dir, "summary.txt"), "w") as fh:
        fh.write("\n".join(report) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
