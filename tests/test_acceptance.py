"""Acceptance gate: one test per criterion, each printing a PASS line.

The desk-scale pipeline fixtures in conftest train three seeds once per
session; criteria then check their recorded artifacts at the stated
tolerances. Run with ``pytest -v tests/test_acceptance.py`` (add ``-s``
to watch the PASS lines stream).
"""

import os
import subprocess
import sys
import time

import numpy as np

import prototree.tree as tree
from prototree.autodiff import Tape, Tensor
from prototree.backbone import BackboneConfig
from prototree.data import gen_synthetic
from prototree.explain import export_tree
from prototree.model import build_model
from prototree.refine import ensemble_mean, evaluate
from prototree.train import TrainConfig, cross_entropy, train_epoch

from conftest import DESK
from oracles import finite_difference_grad, max_relative_error, \
    two_pass_leaf_update
from test_explain import parse_dot


def report(name, ok, detail=""):
    line = f"{'PASS' if ok else 'FAIL'} {name}" + (f" [{detail}]" if detail else "")
    print(line, flush=True)
    assert ok, line


def test_criterion_01_gradient_correctness():
    """Every trainable parameter's analytic gradient matches central
    finite differences (64-bit, step 1e-5) to rel. err < 1e-4."""
    start = time.monotonic()
    config = BackboneConfig(in_channels=3, input_side=8, latent_depth=6,
                            stages=((4, 3, 2), (6, 3, 2)))
    model = build_model(config, height=2, num_classes=3, seed=15,
                        dtype=np.float64)
    rng = np.random.default_rng(7)
    images = rng.uniform(0, 1, (2, 3, 8, 8))
    labels = np.array([1, 2])

    def loss_value():
        y_hat, _ = model.predict(model.latent(images))
        return cross_entropy(y_hat, labels).item()

    with Tape() as tape:
        y_hat, _ = model.predict(model.latent(images))
        tape.backward(cross_entropy(y_hat, labels))
    worst = 0.0
    count = 0
    for group in model.parameters().values():
        for param in group:
            numeric = finite_difference_grad(loss_value, param, step=1e-5)
            worst = max(worst, max_relative_error(param.grad, numeric))
            count += param.values.size
    elapsed = time.monotonic() - start
    report("criterion 1: gradient correctness",
           worst < 1e-4 and elapsed < 10.0,
           f"{count} params, max rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_routing_normalization():
    """1,000 random inputs across heights 1..6: path probabilities and
    predictions each sum to 1 within 1e-6."""
    rng = np.random.default_rng(11)
    worst_pi = worst_y = 0.0
    total = 0
    for height in (1, 2, 3, 4, 5, 6):
        topo, bank, leaves = tree.init_tree(height, 5, 8, seed=height)
        leaves.logits = rng.uniform(0, 4, leaves.logits.shape)
        for _ in range(4):
            latent = Tensor(rng.uniform(0, 1, (42, 8, 3, 3))
                            .astype(np.float32))
            trace = tree.route(topo, bank, latent)
            pi = trace.leaf_probabilities.values
            y_hat = tree.mix_leaf_distributions(trace.leaf_probabilities,
                                                leaves.distributions())
            worst_pi = max(worst_pi, np.abs(pi.sum(axis=1) - 1.0).max())
            worst_y = max(worst_y, np.abs(y_hat.values.sum(axis=1) - 1.0).max())
            total += latent.shape[0]
    report("criterion 2: routing normalization",
           total >= 1000 and worst_pi < 1e-6 and worst_y < 1e-6,
           f"{total} inputs, max pi dev {worst_pi:.2e}, "
           f"max yhat dev {worst_y:.2e}")


def test_criterion_03_leaf_update_oracle():
    """Frozen net: interleaved epoch over B in {1, 2, 5} partitions equals
    the independent two-pass full-dataset update to 1e-6."""
    start = time.monotonic()
    train_set, _ = gen_synthetic(4, 10, 32, seed=33)
    config = BackboneConfig(input_side=32, latent_depth=16,
                            stages=((8, 3, 2), (16, 3, 2)))
    worst = 0.0
    for batch_size in (40, 20, 8):  # 40 samples -> B = 1, 2, 5
        model = build_model(config, height=3, num_classes=4, seed=3)
        model.leaves.logits = np.random.default_rng(5).uniform(
            0, 2, model.leaves.logits.shape)
        reference = two_pass_leaf_update(model, train_set)
        train_epoch(model, train_set,
                    TrainConfig(batch_size=batch_size, seed=3),
                    epoch=1, adam=None)
        worst = max(worst, np.abs(model.leaves.logits - reference).max())
    elapsed = time.monotonic() - start
    report("criterion 3: leaf-update oracle",
           worst < 1e-6 and elapsed < 30.0,
           f"max deviation {worst:.2e}, {elapsed:.1f}s")


def test_criterion_04_end_to_end_training(primary_run):
    """Synthetic K=8 task, height-4 tree, <= 60 epochs: soft test
    accuracy >= 90% within the runtime budget."""
    ok = (primary_run.soft_acc_trained >= 0.90
          and DESK["epochs"] <= 60
          and primary_run.train_seconds <= 15 * 60)
    report("criterion 4: end-to-end desk training", ok,
           f"soft acc {primary_run.soft_acc_trained:.4f}, "
           f"{DESK['epochs']} epochs in {primary_run.train_seconds:.0f}s")


def test_criterion_05_pruning_preserves_accuracy(desk_runs, primary_run):
    """Pruning at tau = 1.2/K moves soft accuracy by at most 0.5 pp, and
    across the three seeds at least one leaf is pruned."""
    delta = abs(primary_run.soft_acc_trained - primary_run.soft_acc_pruned)
    leaves_removed = sum(r.prune_report.leaves_removed for r in desk_runs)
    report("criterion 5: pruning preserves accuracy",
           delta <= 0.005 and leaves_removed >= 1,
           f"delta {delta * 100:.3f} pp, "
           f"{leaves_removed} leaves pruned across seeds")


def test_criterion_06_projection_preserves_accuracy(primary_run):
    """Constrained projection moves soft accuracy by at most 1 pp, is
    bit-exactly idempotent, and reports the replacement distances."""
    from prototree.refine import project
    delta = abs(primary_run.soft_acc_pruned - primary_run.soft_acc_projected)
    distances = [r.distance for r in primary_run.projection_records]
    mean_dist = float(np.mean(distances))
    before = primary_run.model.prototypes.tensor.values.copy()
    train_set, _ = gen_synthetic(DESK["classes"], DESK["per_class"],
                                 DESK["side"], seed=DESK["data_seed"])
    again = project(primary_run.model, train_set, constrained=True)
    idempotent = np.array_equal(primary_run.model.prototypes.tensor.values,
                                before) and \
        [(r.image_id, r.location) for r in again] == \
        [(r.image_id, r.location) for r in primary_run.projection_records]
    report("criterion 6: projection preserves accuracy",
           delta <= 0.01 and idempotent,
           f"delta {delta * 100:.3f} pp, mean pre-replacement distance "
           f"{mean_dist:.4f}, idempotent {idempotent}")


def test_criterion_07_fidelity(desk_data, primary_run):
    """On the pruned+projected model: max_path fidelity >= 0.99, greedy
    fidelity >= 0.95, greedy accuracy within 1 pp of soft accuracy."""
    _, test_set = desk_data
    model = primary_run.model
    fid_max = evaluate(model, test_set, "max_path").fidelity
    greedy = evaluate(model, test_set, "greedy")
    fid_greedy, greedy_acc = greedy.fidelity, greedy.accuracy
    soft = primary_run.soft_acc_projected
    ok = fid_max >= 0.99 and fid_greedy >= 0.95 \
        and abs(greedy_acc - soft) <= 0.01
    report("criterion 7: deterministic-strategy fidelity", ok,
           f"max_path {fid_max:.4f}, greedy {fid_greedy:.4f}, "
           f"greedy acc {greedy_acc:.4f} vs soft {soft:.4f}")


def test_criterion_08_ensemble(desk_data, desk_runs):
    """The 3-seed mean-prediction ensemble is at least as accurate as the
    best member minus 0.5 pp and strictly above the member mean."""
    _, test_set = desk_data
    predictions = ensemble_mean([evaluate(r.model, test_set, "soft").soft
                                 for r in desk_runs])
    ensemble_acc = float((predictions.argmax(axis=1)
                          == test_set.labels).mean())
    member_accs = [r.soft_acc_projected for r in desk_runs]
    ok = ensemble_acc >= max(member_accs) - 0.005 \
        and ensemble_acc > np.mean(member_accs)
    report("criterion 8: ensemble property", ok,
           f"ensemble {ensemble_acc:.4f} vs members "
           + "/".join(f"{a:.4f}" for a in member_accs))


def test_criterion_09_visualization_faithfulness(primary_run, tmp_path):
    """Every exported prototype patch location holds a latent vector that
    equals the stored prototype row bit for bit; the DOT export parses
    and its node count matches the topology."""
    model = primary_run.model
    graph = export_tree(model, str(tmp_path), sample=None)
    faithful = True
    for record in model.projection:
        source = model.projection_images[record.node_index]
        latent = model.latent(source[None]).values[0]
        i, j = record.location
        if not np.array_equal(latent[:, i, j],
                              model.prototypes.row(record.node_index)):
            faithful = False
    nodes, edges = parse_dot((tmp_path / "tree.dot").read_text())
    topo = model.topology
    counts_ok = len(nodes) == topo.num_internal + topo.num_leaves \
        and len(edges) == 2 * topo.num_internal
    patches_ok = set(graph.patch_paths) == set(range(topo.num_internal))
    report("criterion 9: visualization faithfulness",
           faithful and counts_ok and patches_ok,
           f"{topo.num_internal} prototypes bit-exact, DOT nodes "
           f"{len(nodes)}")


def test_criterion_10_determinism(tmp_path):
    """Identical config and seed produce byte-identical checkpoints and
    metrics CSVs across two full CLI runs."""
    data_dir = str(tmp_path / "data")
    run = [sys.executable, "-m", "prototree.cli"]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    subprocess.run(run + ["gen-data", "--k", "2", "--n", "10", "--side",
                          "32", "--seed", "9", "--out", data_dir],
                   check=True, env=env)
    config = tmp_path / "cfg"
    config.write_text("height = 2\nlatent_depth = 8\n"
                      "stages = 8:3:2,8:3:2\nepochs = 3\nbatch_size = 8\n"
                      "seed = 21\naugment_enabled = true\n")
    blobs = []
    csvs = []
    for name in ("a", "b"):
        out = str(tmp_path / f"{name}.npt")
        subprocess.run(run + ["train", "--config", str(config), "--data",
                              data_dir, "--out", out, "--quiet"],
                       check=True, env=env)
        blobs.append(open(out, "rb").read())
        csvs.append(open(out + ".metrics.csv").read())
    ok = blobs[0] == blobs[1] and csvs[0] == csvs[1]
    report("criterion 10: determinism", ok,
           f"checkpoint {len(blobs[0])} bytes identical {blobs[0] == blobs[1]}, "
           f"metrics identical {csvs[0] == csvs[1]}")
