"""The benchmark's workloads: set-up, the timed loop, the CLI round, checks.

Every workload is one user session at a chosen size: generate data, train,
then drive ``prototree.cli.main`` through prune, project, eval (soft,
max_path, greedy), visualize and explain. The workloads differ in which
part the timed loop repeats and in the tree height, so that a different
layer dominates each one (see README.md). All inputs come from ``seed``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import re
import resource
import statistics
import time
from dataclasses import dataclass

import numpy as np

# program functions are called through their modules, so that the tracer's
# wrappers (installed on module attributes) see the calls
from prototree import cli, data, model as pmodel, train, tree as tr
from prototree.backbone import BackboneConfig
from prototree.data import Dataset
from prototree.model import ProtoTreeModel
from prototree.train import TrainConfig

from tracer import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")

# the desk shape the acceptance tests train at (tests/conftest.py DESK)
CLASSES = 8
SIDE = 64
LATENT_DEPTH = 64
BATCH_SIZE = 16
LR = 5e-3
FIT_EPOCHS = 2          # epoch 1 always ends at loss ln K: leaves commit late
ROUTE_PROBE = 16        # test images routed to check that rows sum to 1
ROUTE_TOLERANCE = 1e-5
# |epoch-2 loss - reference| allowed per training shape: four times the
# largest move seen when only float rounding changed (README.md)
LOSS_TOLERANCE = {"h4-n200": 0.05, "h9-n64": 1e-3}


@dataclass(frozen=True)
class Workload:
    name: str
    height: int
    per_class: int        # train images per class; the test split gets half
    timed: str            # the timed loop repeats "fit" units, each
                          # followed by a CLI round, or "cli" rounds only
    cli_train: int        # train images per class the CLI reads (0: all)
    cli_test: int         # test images per class the CLI reads (0: all)
    cli_keep: int | None  # prune keeps this many most confident leaves
                          # (None: the CLI's default threshold)
    cli_rounds: int       # CLI rounds per unit of the timed loop
    explains: int         # images explained per CLI round: the same
                          # fixed set every round
    setups: int = 3       # set-ups per run, for the median setup_s

    @property
    def shape(self) -> str:
        """Key of the training shape in reference.json."""
        return f"h{self.height}-n{self.per_class}"


WORKLOADS = {
    w.name: w for w in (
        # after two epochs at height 9 the default prune threshold leaves
        # anything from a few leaves to none, depending on the seed; keeping
        # the 16 most confident leaves gives every seed a 15-node tree
        Workload("train-deep", height=9, per_class=64, timed="fit",
                 cli_train=64, cli_test=16, cli_keep=16, cli_rounds=2,
                 explains=15, setups=5),
        Workload("refine-eval", height=4, per_class=200, timed="cli",
                 cli_train=0, cli_test=0, cli_keep=None, cli_rounds=1,
                 explains=200),
    )
}


class Checks:
    """Operations attempted and the ones whose output check failed."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, operation: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{operation}: {detail}")
        return ok


@dataclass
class Session:
    workload: Workload
    seed: int
    work_dir: str
    train: Dataset
    test: Dataset
    config: TrainConfig
    cli_data: str           # dataset root the CLI commands read
    cli_test_per_class: int
    checkpoint: str         # trained model the CLI round starts from
    tracer: Tracer | None
    cli_train_set: Dataset | None = None   # cli_data/train, as the CLI reads it

    def checking(self):
        """Context for the benchmark's own checks: not traced as program."""
        return self.tracer.paused() if self.tracer \
            else contextlib.nullcontext()


def _backbone_config() -> BackboneConfig:
    return BackboneConfig(input_side=SIDE, latent_depth=LATENT_DEPTH)


def initial_model(workload: Workload, seed: int,
                  class_names: list[str]) -> ProtoTreeModel:
    return pmodel.build_model(_backbone_config(), workload.height, CLASSES,
                              seed, class_names=class_names)


def train_config(seed: int) -> TrainConfig:
    return TrainConfig(epochs=FIT_EPOCHS, batch_size=BATCH_SIZE, seed=seed,
                       lr_body=LR, lr_head=LR, lr_prototypes=LR)


def _head(dataset: Dataset, per_class: int) -> Dataset:
    """The first ``per_class`` images of every class."""
    if per_class <= 0:
        return dataset
    keep = np.concatenate([np.flatnonzero(dataset.labels == k)[:per_class]
                           for k in range(dataset.num_classes)])
    return Dataset(dataset.images[keep], dataset.labels[keep], dataset.split,
                   dataset.class_names)


def setup(workload: Workload, seed: int, work_dir: str, checks: Checks,
          fit_times: list[float], tracer: Tracer | None = None) -> Session:
    """Data, model and files the timed part needs. refine-eval also trains
    its short desk checkpoint here; its fit time goes to ``fit_times``."""
    train_set, test = data.gen_synthetic(CLASSES, workload.per_class, SIDE,
                                         seed)
    config = train_config(seed)
    cli_data = os.path.join(work_dir, "data")
    cli_test = _head(test, workload.cli_test)
    data.write_dataset(_head(train_set, workload.cli_train),
                       os.path.join(cli_data, "train"))
    data.write_dataset(cli_test, os.path.join(cli_data, "test"))
    session = Session(workload, seed, work_dir, train_set, test, config,
                      cli_data, len(cli_test) // CLASSES,
                      os.path.join(work_dir, "trained.npt"), tracer)
    if workload.timed == "cli":
        model, seconds = fit_unit(session, checks)
        fit_times.append(seconds)
        model.save(session.checkpoint)
    return session


def _reference_loss(shape: str, seed: int) -> tuple[float, float] | None:
    """Allowed range of the epoch-2 loss: the recorded value for this seed
    widened by the tolerance, or the range over every recorded seed when
    this one is not in the table. None for a shape with no record."""
    with open(REFERENCE_PATH) as fh:
        table = json.load(fh)["epoch2_loss"].get(shape)
    if not table or shape not in LOSS_TOLERANCE:
        return None
    tol = LOSS_TOLERANCE[shape]
    values = [table[str(seed)]] if str(seed) in table else table.values()
    return min(values) - tol, max(values) + tol


def fit_unit(session: Session, checks: Checks) -> tuple[ProtoTreeModel, float]:
    """``fit`` from the seeded initial model, with per-epoch test scoring."""
    model = initial_model(session.workload, session.seed,
                          session.train.class_names)
    start = time.perf_counter()
    try:
        history = train.fit(model, session.train, session.test, session.config)
    except Exception as err:  # a failed unit is counted, the run goes on
        checks.record("fit", False, f"{type(err).__name__}: {err}")
        return model, time.perf_counter() - start
    seconds = time.perf_counter() - start
    losses = [h["loss"] for h in history]
    if checks.record("fit", all(math.isfinite(x) for x in losses),
                     f"non-finite loss in {losses}"):
        band = _reference_loss(session.workload.shape, session.seed)
        if band is not None:
            checks.record("fit epoch-2 loss", band[0] <= losses[1] <= band[1],
                          f"{losses[1]!r} outside [{band[0]}, {band[1]}]")
    return model, seconds


def keep_tau(checkpoint: str, keep: int) -> str:
    """The prune --tau that keeps the ``keep`` leaves with the highest class
    probability, read from the checkpoint as the CLI will read it."""
    top = np.sort(ProtoTreeModel.load(checkpoint).leaves.distributions()
                  .max(axis=1))[::-1]
    return "0" if len(top) <= keep else repr(float(top[keep]))


def check_routing(model: ProtoTreeModel, images: np.ndarray,
                  checks: Checks) -> None:
    trace = tr.route(model.topology, model.prototypes, model.latent(images))
    error = float(np.abs(trace.leaf_probabilities.values.sum(axis=1)
                         - 1.0).max())
    checks.record("route rows sum to 1", error <= ROUTE_TOLERANCE,
                  f"max |sum - 1| = {error}")


def _check_projection(session: Session, path: str, checks: Checks) -> None:
    """Every projected prototype equals its recorded latent patch bit-for-bit."""
    if session.cli_train_set is None:
        session.cli_train_set = data.load_dataset(
            os.path.join(session.cli_data, "train"))
    model = ProtoTreeModel.load(path)
    ids = sorted({r.image_id for r in model.projection})
    latents = dict(zip(ids, model.latents_per_image(
        session.cli_train_set.images[ids]))) if ids else {}
    bad = [r.node_index for r in model.projection
           if not np.array_equal(
               model.prototypes.row(int(model.topology.prototype_index[
                   r.node_index])),
               latents[r.image_id][:, r.location[0], r.location[1]])]
    checks.record("projected prototypes are latent patches", not bad,
                  f"nodes {bad}")


_EVAL_LINE = re.compile(r"^(accuracy|fidelity) (\S+)$", re.M)


def _eval_ok(out: str) -> bool:
    found = dict(_EVAL_LINE.findall(out))
    try:
        return set(found) == {"accuracy", "fidelity"} and \
            all(0.0 <= float(v) <= 1.0 for v in found.values())
    except ValueError:
        return False


_EXPECTED = {
    "prune": lambda out: out.startswith("tau,leaves_removed"),
    "project": lambda out: out.startswith("node,image_id"),
    "eval": _eval_ok,
    "visualize": lambda out: out.startswith("wrote "),
    "explain": lambda out: re.search(r"^path_length \d+$", out, re.M)
    is not None,
}


def cli_call(argv: list[str], checks: Checks) -> tuple[float, bool]:
    """One in-process CLI command: its wall time in seconds, and whether it
    exited 0 with the expected output."""
    buf = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
    except Exception as err:  # an escaped error is a failed command
        code = f"{type(err).__name__}: {err}"
    seconds = time.perf_counter() - start
    out = buf.getvalue()
    ok = checks.record(f"cli {argv[0]}",
                       code == 0 and _EXPECTED[argv[0]](out),
                       f"exit {code}, output {out[:200]!r}")
    return seconds, ok


def explain_images(session: Session) -> list[str]:
    """A fixed set of test PPMs, taken round-robin over the classes."""
    root = os.path.join(session.cli_data, "test")
    names = session.train.class_names
    return [os.path.join(root, names[i % CLASSES],
                         f"{(i // CLASSES) % session.cli_test_per_class:05d}.ppm")
            for i in range(session.workload.explains)]


def cli_round(session: Session, checks: Checks,
              number: int) -> dict[str, object]:
    """prune, project, eval x3, visualize and explain, as a user runs them.

    Every command writes new files: round ``number`` has its own directory,
    and each explain call its own out-dir. Overwriting would time the disk:
    ext4 flushes a file that was truncated and written again when it is
    closed. On the ext4 volume the benchmark was sized on, rewriting 30
    small files took 3-8 ms, drifting over minutes, and explain calls
    tracked it (29-48 ms); writing 30 new files took a steady 1 ms, and
    explain calls into new directories 25-32 ms.
    """
    d = os.path.join(session.work_dir, f"round{number}")
    os.makedirs(d)
    pruned = os.path.join(d, "pruned.npt")
    projected = os.path.join(d, "projected.npt")
    prune = ["prune", "--ckpt", session.checkpoint, "--out", pruned]
    if session.workload.cli_keep is not None:
        with session.checking():
            tau = keep_tau(session.checkpoint, session.workload.cli_keep)
        prune += ["--tau", tau]
    refine_s, _ = cli_call(prune, checks)
    project_s, projected_ok = cli_call(
        ["project", "--ckpt", pruned, "--data", session.cli_data, "--out",
         projected], checks)
    if projected_ok:
        with session.checking():
            _check_projection(session, projected, checks)
    eval_s = sum(cli_call(["eval", "--ckpt", projected, "--data",
                           session.cli_data, "--strategy", strategy],
                          checks)[0]
                 for strategy in ("soft", "max_path", "greedy"))
    cli_call(["visualize", "--ckpt", projected, "--out-dir",
              os.path.join(d, "viz")], checks)
    explain_s = {image: cli_call(["explain", "--ckpt", projected, "--image",
                                  image, "--out-dir",
                                  os.path.join(d, f"explain{i}")], checks)[0]
                 for i, image in enumerate(explain_images(session))}
    n_test = session.cli_test_per_class * CLASSES
    return {"refine_s": refine_s + project_s,
            "eval_images_per_s": 3 * n_test / eval_s, "explain_s": explain_s}


def explain_latency(rounds: list[dict[str, float]]) -> dict[str, float]:
    """Percentiles of explain latency in ms over the explained images.

    An image's latency is its median over the rounds. Single calls on a
    shared host hit scheduling stalls of 2-3x, which would otherwise set p95.
    """
    per_image = [1e3 * statistics.median(r[image] for r in rounds)
                 for image in rounds[0]]
    p95 = statistics.quantiles(per_image, n=20, method="inclusive")[18]
    return {"p50": statistics.median(per_image), "p95": p95,
            "images": len(per_image), "repeats": len(rounds),
            "beyond_p95": sum(x > p95 for x in per_image)}


def _timed_run(workload: Workload, seed: int, seconds: float, work_dir: str,
               checks: Checks, tracer: Tracer | None):
    """The set-ups and the timed loop."""
    span = tracer.span if tracer else (lambda name: contextlib.nullcontext())
    fit_times: list[float] = []
    setup_times: list[float] = []

    def timed_setup() -> Session:
        if tracer:
            tracer.active = True
        start = time.perf_counter()
        with span("bench.setup"):
            made = setup(workload, seed,
                         os.path.join(work_dir, f"setup{len(setup_times)}"),
                         checks, fit_times, tracer)
        setup_times.append(time.perf_counter() - start)
        return made

    session = timed_setup()
    rounds: list[dict] = []
    unit_times: dict[bool, list[float]] = {True: [], False: []}
    loop_start = time.perf_counter()
    setup_in_loop = 0.0
    units = 0
    unit_s = 0.0
    # At least two units: traced runs alternate untraced and traced units to
    # measure the overhead, and explain latency is taken from untraced units.
    # A unit starts only if it should end within half a unit of ``seconds``.
    # On the train workloads CLI rounds follow every fit, so that both kinds
    # of sample spread over the whole loop. The set-ups after the first run
    # one after each unit, so that they too spread over the run: on the
    # sized machine, set-ups within one run took similar times while runs
    # differed by up to 2x. The loop's clock leaves them out.
    while units < 2 or time.perf_counter() - loop_start - setup_in_loop \
            + unit_s / 2 < seconds:
        traced = bool(tracer) and units % 2 == 1
        if tracer:
            tracer.active = traced
        start = time.perf_counter()
        if workload.timed == "fit":
            with span("bench.fit"):
                model, fit_s = fit_unit(session, checks)
            fit_times.append(fit_s)
            if units == 0:     # every fit from the same seed is the same
                model.save(session.checkpoint)
                with session.checking():
                    check_routing(model, session.test.images[:ROUTE_PROBE],
                                  checks)
        for _ in range(workload.cli_rounds):
            with span("bench.cli_round"):
                rounds.append(cli_round(session, checks, len(rounds)))
            rounds[-1]["traced"] = traced
        unit_s = time.perf_counter() - start
        unit_times[traced].append(unit_s)
        units += 1
        if len(setup_times) < workload.setups:
            start = time.perf_counter()
            timed_setup()
            setup_in_loop += time.perf_counter() - start
    while len(setup_times) < workload.setups:
        timed_setup()
    if tracer:
        tracer.active = True
    if workload.timed == "cli":
        with session.checking():
            check_routing(ProtoTreeModel.load(session.checkpoint),
                          session.test.images[:ROUTE_PROBE], checks)
    n_train = len(session.train) * FIT_EPOCHS
    train_rates = [n_train / s for s in fit_times]
    return rounds, setup_times, train_rates, units, unit_times, session


def run(workload: Workload, seed: int, seconds: float, trace: bool,
        work_dir: str) -> tuple[dict, Checks, Tracer | None, dict]:
    """One benchmark run; returns (metrics, checks, tracer, notes)."""
    checks = Checks()
    tracer = Tracer() if trace else None
    if tracer:
        tracer.install()
        tracer.active = True
    try:
        rounds, setup_times, train_rates, units, unit_times, session = \
            _timed_run(workload, seed, seconds, work_dir, checks, tracer)
    finally:
        left = tracer.uninstall() if tracer else []
    if tracer:
        checks.record("tracer restored every wrapped attribute", not left,
                      f"still wrapped: {left}")
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "train_images_per_s": (statistics.median(train_rates), "1/s"),
        "refine_s": (statistics.median(r["refine_s"] for r in rounds), "s"),
        "eval_images_per_s": (statistics.median(
            r["eval_images_per_s"] for r in rounds), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }
    notes = {
        "units": units, "cli_rounds": len(rounds), "setup_s": setup_times,
        "explain_ms": explain_latency(
            [r["explain_s"] for r in rounds if not r["traced"]]),
        "train_samples": len(train_rates),
        "unit_s_untraced": unit_times[False], "unit_s_traced": unit_times[True],
        "n_test_cli": session.cli_test_per_class * CLASSES,
        "train_images_per_fit": len(session.train) * FIT_EPOCHS,
    }
    return metrics, checks, tracer, notes
