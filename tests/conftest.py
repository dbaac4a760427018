"""Shared fixtures: the desk-scale end-to-end runs used by acceptance.

Training three seeds takes a few minutes; everything downstream (prune,
project, hard strategies, ensembling, visualization faithfulness) reads
the artifacts recorded here instead of re-running the pipeline.
"""

import sys
import time
from dataclasses import dataclass
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from prototree.backbone import BackboneConfig
from prototree.data import gen_synthetic
from prototree.model import build_model
from prototree.refine import default_tau, evaluate, project, prune
from prototree.train import TrainConfig, fit

DESK = {
    "classes": 8,
    "per_class": 200,
    "side": 64,
    "height": 4,
    "depth": 64,
    "epochs": 50,
    "batch_size": 16,
    "lr": 5e-3,
    "data_seed": 100,
    "model_seeds": (104, 101, 102),
}


@dataclass
class DeskRun:
    seed: int
    model: object
    train_seconds: float
    history: list
    soft_acc_trained: float
    prune_report: object
    soft_acc_pruned: float
    projection_records: list
    soft_acc_projected: float


@pytest.fixture(scope="session")
def desk_data():
    return gen_synthetic(DESK["classes"], DESK["per_class"], DESK["side"],
                         seed=DESK["data_seed"])


@pytest.fixture(scope="session")
def desk_runs(desk_data):
    train_set, test_set = desk_data
    config = BackboneConfig(input_side=DESK["side"],
                            latent_depth=DESK["depth"])
    runs = []
    for seed in DESK["model_seeds"]:
        model = build_model(config, DESK["height"], DESK["classes"], seed,
                            class_names=train_set.class_names)
        tc = TrainConfig(epochs=DESK["epochs"],
                         batch_size=DESK["batch_size"], seed=seed,
                         lr_body=DESK["lr"], lr_head=DESK["lr"],
                         lr_prototypes=DESK["lr"])
        start = time.monotonic()
        history = fit(model, train_set, test_set, tc)
        train_seconds = time.monotonic() - start
        soft_trained = evaluate(model, test_set, "soft").accuracy
        report = prune(model, default_tau(DESK["classes"]))
        soft_pruned = evaluate(model, test_set, "soft").accuracy
        records = project(model, train_set, constrained=True)
        soft_projected = evaluate(model, test_set, "soft").accuracy
        runs.append(DeskRun(seed=seed, model=model,
                            train_seconds=train_seconds, history=history,
                            soft_acc_trained=soft_trained,
                            prune_report=report,
                            soft_acc_pruned=soft_pruned,
                            projection_records=records,
                            soft_acc_projected=soft_projected))
    return runs


@pytest.fixture(scope="session")
def primary_run(desk_runs):
    return desk_runs[0]
