"""Training loop: gradient descent on the net and prototypes, interleaved
with the derivative-free multiplicative update of the leaf logits.

Each epoch snapshots the leaf logits. Mini-batches run forward against
that snapshot, backprop into the backbone and prototypes, and fold their
contribution into a running replacement vector; the replacement is
committed as the new logits when the epoch ends. With the gradient-
trained parameters frozen, the scheme telescopes to the exact full-pass
update for any batch partition, which is what the oracle tests pin down.
Leaf logits never receive gradients.
"""

from __future__ import annotations

import contextlib
import os
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import refine
from . import tree as tr
from .autodiff import Tensor
from .data import AugmentConfig, Dataset, augment
from .model import ProtoTreeModel

PREDICTION_FLOOR = 1e-9  # guards the elementwise division of the leaf update
BETA1, BETA2, ADAM_EPS = 0.9, 0.999, 1e-8   # Adam's moment decays and eps


class TrainingError(RuntimeError):
    """Raised when an epoch aborts, e.g. on a non-finite loss."""


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 60
    batch_size: int = 64
    lr_body: float = 1e-3
    lr_head: float = 1e-3
    lr_prototypes: float = 1e-3
    milestones: tuple[int, ...] = ()
    gamma: float = 0.5
    seed: int = 0
    frozen_epochs: int = 0          # body excluded from updates early on
    augment: AugmentConfig = field(
        default_factory=lambda: AugmentConfig(enabled=False))

    def validate(self) -> None:
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be >= 1")
        for rate in (self.lr_body, self.lr_head, self.lr_prototypes):
            if not rate > 0:   # rejects nan too
                raise ValueError(f"learning rates must be > 0, got {rate}")
        if not self.gamma > 0:   # rejects nan too
            raise ValueError(f"gamma must be > 0, got {self.gamma}")
        if any(b >= a for a, b in zip(self.milestones[1:], self.milestones)):
            raise ValueError(f"milestones must increase strictly: "
                             f"{self.milestones}")
        if not 0 <= self.seed < 2 ** 63:   # a checkpoint stores it as i64
            raise ValueError(f"seed must lie in [0, 2**63), got {self.seed}")
        self.augment.validate()

    def learning_rate(self, base: float, epoch: int) -> float:
        passed = sum(1 for m in self.milestones if epoch >= m)
        return base * self.gamma ** passed


class Adam:
    """Adaptive moment estimation over named parameter groups."""

    def __init__(self, groups: dict[str, list[Tensor]]):
        self.groups = groups
        self.step_count = 0
        # per tensor: both moments, then two scratch arrays, so that a
        # step allocates nothing
        self.state = {name: [tuple(np.zeros_like(t.values) for _ in range(4))
                             for t in tensors]
                      for name, tensors in groups.items()}

    def step(self, rates: dict[str, float]) -> None:
        self.step_count += 1
        correct1 = 1.0 - BETA1 ** self.step_count
        correct2 = 1.0 - BETA2 ** self.step_count
        for name, tensors in self.groups.items():
            lr = rates.get(name, 0.0)
            for tensor, (m, v, step, root) in zip(tensors, self.state[name]):
                g = tensor.grad
                m *= BETA1
                m += np.multiply(1.0 - BETA1, g, out=step)
                v *= BETA2
                np.multiply(1.0 - BETA2, g, out=step)
                v += np.multiply(step, g, out=step)
                if lr == 0.0:
                    continue
                # lr * m_hat / (sqrt(v_hat) + eps)
                np.divide(m, correct1, out=step)
                np.sqrt(np.divide(v, correct2, out=root), out=root)
                root += ADAM_EPS
                step *= lr
                tensor.values -= np.divide(step, root, out=step)

    def zero_grad(self) -> None:
        for tensors in self.groups.values():
            for tensor in tensors:
                tensor.zero_grad()


def cross_entropy(y_hat: Tensor, labels: np.ndarray) -> Tensor:
    """Mean cross-entropy between N x K predicted distributions and N
    class indices: the mean of -log y_hat at each row's true class."""
    if y_hat.values.ndim != 2:
        raise ValueError(f"expected N x K predictions, got {y_hat.shape}")
    values = y_hat.values
    n = values.shape[0]
    if np.shape(labels) != (n,):
        raise ValueError(f"expected {n} labels, got shape {np.shape(labels)}")
    rows = np.arange(n)
    picked = values[rows, labels]
    loss = np.asarray(-np.log(picked).sum() / n, dtype=values.dtype)

    def bwd(g):
        if y_hat.requires_grad:
            grad = np.zeros_like(values)
            grad[rows, labels] = -g / (picked * n)
            y_hat.grad += grad

    return ad.record_op(loss, [y_hat], bwd)


class EpochLeafAccumulator:
    """Running replacement vector for the leaf logits over one epoch.

    Accumulates in float64 so the result does not depend on the batch
    partition at float32 granularity.
    """

    def __init__(self, leaves: tr.LeafParams, num_batches: int):
        self.snapshot = leaves.logits.astype(np.float64)
        self.snapshot_dist = leaves.distributions(self.snapshot)
        self.running = self.snapshot.copy()
        self.num_batches = num_batches

    def committed(self) -> np.ndarray:
        # telescoping leaves at most rounding residue below zero
        return np.maximum(self.running, 0.0)


def leaf_update_batch(acc: EpochLeafAccumulator, pi: np.ndarray,
                      labels: np.ndarray, y_hat: np.ndarray) -> None:
    """Fold one batch into the running leaf replacement.

    Per leaf: subtract the 1/B share of the epoch-start logits, then add
    the batch's share of the multiplicative update, using the epoch-start
    distributions and the batch's freshly computed predictions. The
    division is floored to dodge float32 underflow of tiny predictions.
    """
    weights = np.zeros(y_hat.shape)   # one-hot rows, in float64
    weights[np.arange(len(labels)), labels] = 1.0
    weights /= np.maximum(y_hat, PREDICTION_FLOOR)
    acc.running -= acc.snapshot / acc.num_batches
    acc.running += acc.snapshot_dist * (pi.astype(np.float64).T @ weights)


def _epoch_rng(seed: int, epoch: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed, 0x5109, epoch)))


def _item_rng(seed: int, epoch: int, item: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed, 0xA46, epoch,
                                                         item)))


def _assemble(images: np.ndarray, indices: np.ndarray, config: TrainConfig,
              epoch: int) -> np.ndarray:
    """The batch's images, in an ``autodiff.buffer``."""
    shape = (len(indices), *images.shape[1:])
    if not config.augment.enabled:
        # mode="raise" would copy through a temporary the size of out
        return np.take(images, indices, axis=0, mode="clip",
                       out=ad.buffer(shape, images.dtype))
    return np.stack([augment(images[i], config.augment,
                             _item_rng(config.seed, epoch, int(i)))
                     for i in indices], out=ad.buffer(shape, np.float32))


def train_epoch(model: ProtoTreeModel, dataset: Dataset, config: TrainConfig,
                epoch: int, adam: Adam | None) -> dict[str, float]:
    """One pass over the shuffled dataset; returns mean loss and accuracy.

    With ``adam=None`` the gradient-trained parameters stay frozen and
    only the interleaved leaf update runs, which is the configuration the
    equivalence oracle checks.

    Each step's tape borrows its large arrays from one store, so only the
    first step of each batch shape maps fresh pages. The store goes when
    the epoch ends: kept through ``fit``'s scoring of the test set, its
    arrays would add to that pass's own.
    """
    n = len(dataset)
    perm = _epoch_rng(config.seed, epoch).permutation(n)
    batches = [perm[s:s + config.batch_size]
               for s in range(0, n, config.batch_size)]
    acc = EpochLeafAccumulator(model.leaves, len(batches))
    rates = {
        "body": 0.0 if epoch <= config.frozen_epochs
        else config.learning_rate(config.lr_body, epoch),
        "head": config.learning_rate(config.lr_head, epoch),
        "prototypes": config.learning_rate(config.lr_prototypes, epoch),
    }
    total_loss = 0.0
    correct = 0
    store = ad.Buffers()
    for batch_no, indices in enumerate(batches):
        labels = dataset.labels[indices]
        with contextlib.nullcontext() if adam is None \
                else ad.Tape(store) as tape:
            images = _assemble(dataset.images, indices, config, epoch)
            y_hat, trace = model.predict(model.latent(images))
            loss = cross_entropy(y_hat, labels)
            loss_value = loss.item()
            if tape is not None:
                if not np.isfinite(loss_value):
                    raise TrainingError(
                        f"non-finite loss {loss_value} at epoch {epoch}, "
                        f"batch {batch_no}")
                tape.backward(loss)
        if adam is not None:
            adam.step(rates)
            adam.zero_grad()
            # latents are sigmoid outputs, so prototypes outside the unit
            # box can only drift away from every patch, saturating routing
            np.clip(model.prototypes.tensor.values, 0.0, 1.0,
                    out=model.prototypes.tensor.values)
        leaf_update_batch(acc, trace.leaf_probabilities.values, labels,
                          y_hat.values)
        total_loss += loss_value * len(indices)
        correct += int((y_hat.values.argmax(axis=1) == labels).sum())
    model.leaves.logits = acc.committed().astype(model.leaves.logits.dtype)
    return {"loss": total_loss / n, "train_acc": correct / n}


def fit(model: ProtoTreeModel, train_set: Dataset, test_set: Dataset | None,
        config: TrainConfig, csv_path: str | None = None,
        verbose: bool = False) -> list[dict[str, float]]:
    """Full training run; optionally logs per-epoch metrics to a CSV."""
    config.validate()
    adam = Adam(model.parameters())
    history: list[dict[str, float]] = []
    writer = None
    if csv_path:
        os.makedirs(os.path.dirname(os.path.abspath(csv_path)), exist_ok=True)
        writer = open(csv_path, "w")
        writer.write("epoch,loss,train_acc,test_acc\n")
    try:
        for epoch in range(1, config.epochs + 1):
            metrics = train_epoch(model, train_set, config, epoch, adam)
            metrics["test_acc"] = refine.evaluate(
                model, test_set, "soft").accuracy if test_set else float("nan")
            history.append(metrics)
            if writer:
                writer.write(f"{epoch},{metrics['loss']:.8f},"
                             f"{metrics['train_acc']:.6f},"
                             f"{metrics['test_acc']:.6f}\n")
                writer.flush()
            if verbose:
                print(f"epoch {epoch:3d}  loss {metrics['loss']:.4f}  "
                      f"train {metrics['train_acc']:.4f}  "
                      f"test {metrics['test_acc']:.4f}", flush=True)
    finally:
        if writer:
            writer.close()
    return history
