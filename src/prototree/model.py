"""The full classifier: feature extractor, soft tree, leaf distributions.

``latent`` runs the backbone and ``predict`` routes one latent batch;
``refine.evaluate`` runs whole datasets through the two in chunks.

Also owns the checkpoint schema. Everything needed to evaluate, prune,
project or visualize a trained model round-trips bit for bit through a
single blob, each fact in its own dtype: integers i64, text UTF-8 u8,
leaf logits f64, weights and prototypes in the network's float type, and
the projection's records and source images, present once it has run, so
downstream commands never need the training data back.

``tree/children`` (M x 2) and ``tree/root`` store internal node k as k
and leaf l as ``-(l + 1)``; ``_swap_leaf_numbering`` converts them to the
topology's columns on load and back on save. ``tree/height`` is no longer
written; older files carry it, and loading ignores it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import backbone as bb
from . import checkpoint as ckpt
from . import tree as tr
from .autodiff import Tensor
from .refine import ProjectionRecord


@dataclass
class ProtoTreeModel:
    backbone: bb.Backbone
    topology: tr.TreeTopology
    prototypes: tr.PrototypeBank
    leaves: tr.LeafParams
    seed: int
    class_names: list[str] = field(default_factory=list)
    projection: list[ProjectionRecord] | None = None
    projection_images: np.ndarray | None = None

    @property
    def num_classes(self) -> int:
        return self.leaves.num_classes

    def parameters(self) -> dict[str, list[Tensor]]:
        groups = self.backbone.parameters()
        groups["prototypes"] = [self.prototypes.tensor]
        return groups

    def latent(self, images) -> Tensor:
        return self.backbone.forward(images)

    def predict(self, latent: Tensor) -> tuple[Tensor, tr.RoutingTrace]:
        """Class distributions of a latent batch, and its routing trace."""
        trace = tr.route(self.topology, self.prototypes, latent)
        return tr.mix_leaf_distributions(trace.leaf_probabilities,
                                         self.leaves.distributions()), trace

    def latents_per_image(self, images: np.ndarray) -> np.ndarray:
        """Latent maps of a stack of images, as one-image forwards give:
        the backbone keeps no stage buffer of the whole stack untaped."""
        return self.latent(images).values

    # -- checkpoint schema --------------------------------------------------

    def save(self, path: str) -> None:
        cfg = self.backbone.config
        arch = [cfg.in_channels, cfg.input_side, cfg.latent_depth,
                len(cfg.stages)]
        for out, kernel, stride in cfg.stages:
            arch.extend((out, kernel, stride))
        topo = self.topology
        blob: dict[str, np.ndarray] = {
            "meta/seed": np.int64(self.seed),
            "meta/class_names": np.frombuffer(
                "\n".join(self.class_names).encode(), np.uint8),
            "backbone/arch": np.asarray(arch, dtype=np.int64),
        }
        for i, (weight, bias) in enumerate(zip(self.backbone.weights,
                                               self.backbone.biases)):
            blob[f"backbone/stage{i}/weight"] = weight.values
            blob[f"backbone/stage{i}/bias"] = bias.values
        blob["backbone/head/weight"] = self.backbone.head_weight.values
        m = topo.num_internal
        blob["tree/root"] = np.int64(_swap_leaf_numbering(topo.root, m))
        blob["tree/children"] = _swap_leaf_numbering(
            np.stack([topo.left, topo.right], axis=1), m)
        blob["tree/prototypes"] = self.prototypes.tensor.values
        blob["tree/leaf_logits"] = self.leaves.logits
        if self.projection is not None:
            records = self.projection
            blob["proj/cells"] = np.asarray(
                [(r.image_id, *r.location) for r in records],
                dtype=np.int64).reshape(-1, 3)
            blob["proj/distances"] = np.asarray(
                [r.distance for r in records], dtype=np.float64)
            blob["proj/flags"] = np.asarray(
                [(r.constrained, r.fallback) for r in records],
                dtype=np.uint8).reshape(-1, 2)
            blob["proj/images"] = self.projection_images
        ckpt.write_blob(path, blob)

    @classmethod
    def load(cls, path: str) -> "ProtoTreeModel":
        """Read a checkpoint; any malformed record is a CheckpointError."""
        try:
            return cls._from_records(ckpt.read_blob(path))
        except (IndexError, ValueError) as err:
            raise ckpt.CheckpointError(f"{path}: {err}") from None

    @classmethod
    def _from_records(cls, blob: ckpt.Records) -> "ProtoTreeModel":
        arch = _record(blob, "backbone/arch", "i8",
                       blob["backbone/arch"].size).tolist()
        if len(arch) < 4:
            raise ValueError(f"record 'backbone/arch' has {len(arch)} "
                             "entries, not at least 4")
        n_stages = arch[3]
        _record(blob, "backbone/arch", "i8", 4 + 3 * n_stages)
        stages = tuple(tuple(arch[4 + 3 * i:7 + 3 * i])
                       for i in range(n_stages))
        config = bb.BackboneConfig(in_channels=arch[0], input_side=arch[1],
                                   latent_depth=arch[2], stages=stages)
        config.validate()
        net = bb.Backbone(config)
        real = "f8" if blob["backbone/head/weight"].dtype == "f8" else "f4"
        fan_c = config.in_channels
        for i, (out, kernel, _) in enumerate(stages):
            net.weights.append(Tensor(_record(
                blob, f"backbone/stage{i}/weight", real, out, fan_c, kernel,
                kernel), requires_grad=True))
            net.biases.append(Tensor(_record(
                blob, f"backbone/stage{i}/bias", real, out),
                requires_grad=True))
            fan_c = out
        net.head_weight = Tensor(_record(blob, "backbone/head/weight", real,
                                         config.latent_depth, fan_c, 1, 1),
                                 requires_grad=True)
        m = blob["tree/children"].shape[0]
        children = _swap_leaf_numbering(
            _record(blob, "tree/children", "i8", m, 2), m)
        root = int(_swap_leaf_numbering(_record(blob, "tree/root", "i8"), m))
        try:
            topo = tr.TreeTopology(left=children[:, 0].copy(),
                                   right=children[:, 1].copy(), root=root)
        except ValueError as err:
            raise ValueError("records 'tree/children' and 'tree/root', read "
                             f"with leaf l as column {m} + l: {err}") from None
        # older files name their leaf rule; softmax is the only one left
        if "meta/leaf_norm" in blob:
            norm = _text(blob, "meta/leaf_norm")
            if norm != "softmax":
                raise ValueError(f"record 'meta/leaf_norm' holds {norm!r}; "
                                 "this build reads softmax leaves only")
        classes = blob["tree/leaf_logits"].shape[-1]
        leaves = tr.LeafParams(_record(blob, "tree/leaf_logits", "f8", m + 1,
                                       classes))
        if classes < 2:
            raise ValueError("record 'tree/leaf_logits' has shape "
                             f"{(m + 1, classes)}: fewer than 2 classes")
        names = _text(blob, "meta/class_names")
        class_names = names.split("\n") if names else []
        if class_names and len(class_names) != classes:
            raise ValueError("record 'meta/class_names' holds "
                             f"{len(class_names)} names for {classes} classes")
        model = cls(backbone=net, topology=topo,
                    prototypes=tr.PrototypeBank(Tensor(
                        _record(blob, "tree/prototypes", real, m,
                                config.latent_depth), requires_grad=True)),
                    leaves=leaves,
                    seed=int(_record(blob, "meta/seed", "i8")),
                    class_names=class_names)
        if any(name.startswith("proj/") for name in blob):
            cells = _record(blob, "proj/cells", "i8", m, 3).tolist()
            distances = _record(blob, "proj/distances", "f8", m).tolist()
            flags = _record(blob, "proj/flags", "u1", m, 2).tolist()
            model.projection = [
                ProjectionRecord(n, image_id, (i, j), dist, bool(c), bool(f))
                for n, ((image_id, i, j), dist, (c, f))
                in enumerate(zip(cells, distances, flags))]
            model.projection_images = _record(
                blob, "proj/images", "f4", m, config.in_channels,
                config.input_side, config.input_side)
        return model


def _swap_leaf_numbering(refs, m: int) -> np.ndarray:
    """Leaf column M + l to the stored ``-(l + 1)`` and back: x -> M - 1 - x
    swaps the two ranges, and maps a value outside both outside both."""
    return np.where((refs < 0) | (refs >= m), m - 1 - refs, refs)


def _text(blob: ckpt.Records, name: str) -> str:
    raw = _record(blob, name, "u1", blob[name].size).tobytes()
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as err:
        raise ValueError(f"record {name!r} is not UTF-8: {err.reason} at "
                         f"byte {err.start}") from None


def _record(blob: ckpt.Records, name: str, dtype: str,
            *shape: int) -> np.ndarray:
    """The named record, which must have exactly the dtype and the shape
    the model needs."""
    arr = blob[name]
    if arr.dtype != np.dtype(dtype):
        raise ValueError(f"record {name!r} has dtype {arr.dtype}, not "
                         f"{np.dtype(dtype)}")
    if arr.shape != shape:
        raise ValueError(f"record {name!r} has shape {arr.shape}, not {shape}")
    return arr


def build_model(config: bb.BackboneConfig, height: int, num_classes: int,
                seed: int, dtype=np.float32,
                class_names: list[str] | None = None) -> ProtoTreeModel:
    """Fresh model: seeded backbone plus full tree of the given height."""
    net = bb.build(config, seed, dtype=dtype)
    topo, bank, leaves = tr.init_tree(height, num_classes, config.latent_depth,
                                      seed, dtype=dtype)
    return ProtoTreeModel(backbone=net, topology=topo, prototypes=bank,
                          leaves=leaves, seed=seed,
                          class_names=list(class_names or []))
