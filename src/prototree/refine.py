"""Post-training surgery and inference modes.

Pruning removes leaves whose class distribution is close to uniform and
collapses the parents left with a single child. Projection overwrites
each prototype with its nearest latent patch from the training set so
that visualizations show real image content; a node whose column of
nearest-patch distances has its minimum at -ln(DEAD_NODE_EPS) or more
resembles no training patch and routes almost every image left, so
projection collapses it into its left child instead (see ``project``).
Hard inference converts the soft tree into a single root-to-leaf
decision path. ``evaluate`` runs a dataset through the model: one routed
pass per chunk of ``CHUNK`` images gives the soft distributions and the
scores of any strategy. ``project`` reads the training set in the same
chunks into one table of each image's nearest patch to each prototype,
and each node takes its pool's nearest row.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import tree as tr
from .data import Dataset

# A node whose p_right = exp(-distance) stays at or below this on every
# training image is dead: projection collapses it instead of projecting.
DEAD_NODE_EPS = 0.1
# images per pass in evaluate and project: the distance op holds an
# N x L x M score array, so the chunk bounds its memory
CHUNK = 256


@dataclass(frozen=True)
class PruneReport:
    tau: float
    leaves_removed: int
    internal_removed: int
    fraction_pruned: float


@dataclass
class ProjectionRecord:
    node_index: int
    image_id: int
    location: tuple[int, int]
    distance: float
    constrained: bool
    fallback: bool = False


def default_tau(num_classes: int) -> float:
    return max(0.01, 1.2 / num_classes)


def _rebuild(model, keep_leaf: np.ndarray) -> np.ndarray:
    """Cut the tree down to the kept leaves with ``TreeTopology.keeping``;
    prototypes and leaf logits follow their nodes and leaves. Clears any
    projection. Returns the old index of each surviving internal node, in
    its new order.
    """
    model.topology, nodes, leaves = model.topology.keeping(keep_leaf)
    model.prototypes = tr.PrototypeBank(
        tr.Tensor(model.prototypes.tensor.values[nodes].copy(),
                  requires_grad=True))
    model.leaves = tr.LeafParams(model.leaves.logits[leaves].copy())
    model.projection = None
    model.projection_images = None
    return nodes


def prune(model, tau: float) -> PruneReport:
    """Drop leaves with max class probability <= tau, collapse parents.

    Whole subtrees whose leaves all fail the threshold disappear along
    with their prototypes; a parent left with one child is replaced by
    that child, so every surviving internal node keeps two children.
    Rejected without touching the model if nothing would survive.
    """
    if np.isnan(tau):
        raise ValueError(f"tau must be a number, got {tau}")
    dists = model.leaves.distributions()
    if tau < 1.0 / model.leaves.num_classes:
        warnings.warn(
            f"tau={tau} is below uniform 1/K={1.0 / model.leaves.num_classes}; "
            "nothing will be pruned", stacklevel=2)
    keep_leaf = dists.max(axis=1) > tau
    if not keep_leaf.any():
        raise ValueError("pruning would remove every leaf; model unchanged")
    old_internal = model.topology.num_internal
    old_leaves = model.topology.num_leaves
    _rebuild(model, keep_leaf)
    internal_removed = old_internal - model.topology.num_internal
    return PruneReport(tau=tau,
                       leaves_removed=old_leaves - model.topology.num_leaves,
                       internal_removed=internal_removed,
                       fraction_pruned=internal_removed / old_internal
                       if old_internal else 0.0)


def project(model, dataset: Dataset, constrained: bool = True,
            ) -> list[ProjectionRecord]:
    """Replace each prototype with its nearest latent training patch.

    With ``constrained`` set, candidates for node n are restricted to
    images labelled with the majority class of some leaf below n; empty
    pools fall back to the whole set, flagged in the record. A label at
    or above the class count is in no pool. Scanning is image-major, so
    ties resolve to the smallest image id and then the smallest
    row-major patch location.

    Projection assumes that every prototype resembles some training
    patch. A node is dead when the column minimum of its nearest-patch
    distances over all training images is at least -ln(eps), with eps =
    ``DEAD_NODE_EPS`` (distance ln 10, about 2.303): it routes right
    with p_right <= eps on every training image, and snapping its
    prototype onto a real patch would send mass into leaves trained on
    almost no data. A nan minimum is never dead. Each dead node is
    collapsed into its left child before the surviving prototypes are
    projected, and a ``UserWarning`` names it. The collapse moves every
    training image's soft prediction by at most 2 eps in L1: the mass
    that went right, at most eps, is moved into the left subtree. When
    collapsed nodes lie one below another, the bound is 2 eps per
    collapsed node on the image's root-to-leaf path. Records exist for
    the surviving nodes only.

    The training set runs through the backbone in chunks of ``CHUNK``
    images into an N x M table: each image's nearest patch to each
    prototype, its squared distance and cell. Each surviving node takes
    the first minimum, or first nan, of its column over its pool's rows.
    A second chunked pass fetches the patches of the distinct chosen
    images. Either pass holds one chunk's latents at a time.
    """
    if len(dataset) == 0:
        raise ValueError("project needs a non-empty dataset")
    protos = model.prototypes.tensor.values
    table = []
    for start in range(0, len(dataset), CHUNK):
        latents = model.latents_per_image(dataset.images[start:start + CHUNK])
        w = latents.shape[3]
        table.append(tr.min_patch_distances(latents, protos))
        del latents     # before the next chunk's arrive
    sq, cell = (np.concatenate(part) for part in zip(*table))

    topo = model.topology
    # a nan anywhere in a column stays nan, so its node is never dead
    dead = np.flatnonzero(sq.min(axis=0) >= np.log(DEAD_NODE_EPS) ** 2)
    # column of sq and cell per surviving node: its index before any
    # rebuild
    old = np.arange(topo.num_internal)
    if dead.size:
        # the right subtree goes, the left takes its place
        cut = np.zeros(2 * topo.num_internal + 1, dtype=bool)
        cut[topo.right[dead]] = True
        for cols in topo.levels[1:]:
            cut[cols] |= cut[topo.parent[cols]]
        old = _rebuild(model, ~cut[topo.num_internal:])
        warnings.warn(
            f"nodes {dead.tolist()} have p_right <= {DEAD_NODE_EPS} on every "
            "training image; collapsed into their left children, removing "
            f"{topo.num_internal - model.topology.num_internal} prototypes",
            stacklevel=2)

    topo = model.topology
    m = topo.num_internal
    k = model.leaves.num_classes
    # classes of the leaf majorities below each column; the label bucket
    # K, of every label >= K, is below none
    majority = model.leaves.distributions().argmax(axis=1)
    below = np.zeros((2 * m + 1, k + 1), dtype=bool)
    below[m + np.arange(m + 1), majority] = True
    for cols in reversed(topo.levels[:-1]):
        nodes = cols[cols < m]
        below[nodes] = below[topo.left[nodes]] | below[topo.right[nodes]]
    bucket = np.minimum(dataset.labels, k)

    picks = np.empty(m, dtype=np.int64)
    records: list[ProjectionRecord] = []
    for node, col in enumerate(old):
        pool = np.flatnonzero(below[node, bucket]) if constrained else ()
        applied = len(pool) > 0
        if not applied:
            pool = np.arange(len(dataset))
        image_id = picks[node] = int(pool[sq[pool, col].argmin()])
        records.append(ProjectionRecord(
            node_index=node, image_id=image_id,
            location=divmod(int(cell[image_id, col]), w),
            distance=float(np.sqrt(sq[image_id, col])), constrained=applied,
            fallback=constrained and not applied))

    # the chosen images' latents, a chunk of distinct images at a time
    chosen = np.unique(picks)
    for start in range(0, len(chosen), CHUNK):
        ids = chosen[start:start + CHUNK]
        latents = model.latents_per_image(dataset.images[ids])
        nodes = np.flatnonzero(np.isin(picks, ids))
        at = cell[picks[nodes], old[nodes]]
        model.prototypes.tensor.values[nodes] = latents[
            np.searchsorted(ids, picks[nodes]), :, at // w, at % w]
        del latents     # before the next chunk's arrive
    model.projection = records
    model.projection_images = dataset.images[picks]
    return records


def _choose_leaves(model, trace: tr.RoutingTrace, strategy: str) -> np.ndarray:
    """Leaf per sample of a routed batch under a hard strategy."""
    if strategy == "max_path":
        return trace.leaf_probabilities.values.argmax(axis=1)
    if strategy == "greedy":
        return model.topology.greedy_leaves(trace.edge_right)
    raise ValueError(f"unknown strategy {strategy!r}")


def hard_decision(model, trace: tr.RoutingTrace, strategy: str,
                  ) -> tuple[np.ndarray, int, list[tuple[int, bool, float]]]:
    """Deterministic inference for the first image of a routed batch.

    ``max_path`` follows the leaf with the highest path probability
    (ties to the smallest leaf index); ``greedy`` walks the tree going
    right exactly when p_right > 0.5. Returns the chosen leaf's class
    distribution, the leaf id, and the root-to-leaf decision sequence as
    (node, went_right, p_right) triples.
    """
    leaf = int(_choose_leaves(model, trace, strategy)[0])
    path = [(node, went_right, float(trace.edge_right[0, node]))
            for node, went_right in model.topology.path_to_leaf(leaf)]
    return model.leaves.distributions()[leaf], leaf, path


@dataclass(frozen=True)
class Evaluation:
    accuracy: float
    fidelity: float
    depths: np.ndarray | None   # depth of each image's chosen leaf
    soft: np.ndarray            # N x K soft class distributions


def evaluate(model, dataset: Dataset, strategy: str) -> Evaluation:
    """Score one inference strategy with a single routed pass per chunk.

    ``soft`` scores the mixed leaf distributions; ``max_path`` and
    ``greedy`` score the class of the leaf ``hard_decision`` would choose.
    Fidelity is the fraction of images whose scored class equals the
    soft prediction's class, so it is 1.0 for ``soft``, which chooses no
    leaf and has no depths. An image's latent and routing bits do not
    depend on the chunk it falls in, so ``soft`` holds the rows that
    one-image ``predict`` calls give.
    """
    if len(dataset) == 0:
        raise ValueError("evaluate needs a non-empty dataset")
    soft, leaves = [], []
    for start in range(0, len(dataset), CHUNK):
        y_hat, trace = model.predict(
            model.latent(dataset.images[start:start + CHUNK]))
        soft.append(y_hat.values)
        if strategy != "soft":
            leaves.append(_choose_leaves(model, trace, strategy))
    soft = np.concatenate(soft)
    soft_class = soft.argmax(axis=1)
    leaves = np.concatenate(leaves) if leaves else None
    pred = soft_class if leaves is None else \
        model.leaves.distributions()[leaves].argmax(axis=1)
    topo = model.topology
    return Evaluation(
        accuracy=int(np.count_nonzero(pred == dataset.labels)) / len(dataset),
        fidelity=fidelity(soft_class, pred),
        depths=None if leaves is None
        else topo.depth[topo.num_internal + leaves],
        soft=soft)


def fidelity(soft: np.ndarray, hard: np.ndarray) -> float:
    """Fraction of images whose hard-strategy class equals the soft class."""
    return int(np.count_nonzero(hard == soft)) / len(soft)


def ensemble_mean(predictions: list[np.ndarray]) -> np.ndarray:
    """Mean of the member models' N x K soft predictions."""
    if not predictions:
        raise ValueError("ensemble needs at least one model")
    if len({p.shape[1] for p in predictions}) != 1:
        raise ValueError("ensemble members disagree on the class count")
    total = np.sum(predictions, axis=0, dtype=np.float64)
    return (total / len(predictions)).astype(np.float32)
