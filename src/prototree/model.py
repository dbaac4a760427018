"""The full classifier: feature extractor, soft tree, leaf distributions.

Also owns the checkpoint schema. Everything needed to evaluate, prune,
project or visualize a trained model round-trips through a single blob,
including the projection records and their source images, so downstream
commands never need the training data back.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import backbone as bb
from . import checkpoint as ckpt
from . import tree as tr
from .autodiff import Tensor
from .refine import ProjectionRecord, evaluate


def _split_int(value: int) -> list[float]:
    if not 0 <= value < 2 ** 48:
        raise ValueError(f"cannot encode {value} into a float32 pair")
    return [float(value >> 24), float(value & 0xFFFFFF)]


def _join_int(pair: np.ndarray) -> int:
    return (int(pair[0]) << 24) | int(pair[1])


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

    @property
    def input_side(self) -> int:
        return self.backbone.config.input_side

    def parameters(self) -> dict[str, list[Tensor]]:
        groups = self.backbone.parameters()
        groups["prototypes"] = [self.prototypes.tensor]
        return groups

    def latent(self, images) -> Tensor:
        return self.backbone.forward(images)

    def latent_chunks(self, images: np.ndarray, batch_size: int = 256):
        """Latent maps of a stack of images, ``batch_size`` images at a time.

        numpy's stacked matmul runs one GEMM per image, so an image's
        latent bits do not depend on the chunk it falls in; projection
        relies on that.
        """
        for start in range(0, images.shape[0], batch_size):
            yield self.latent(images[start:start + batch_size])

    def predict_latent(self, latent: Tensor) -> tuple[Tensor, tr.RoutingTrace]:
        return tr.predict(self.topology, self.prototypes, self.leaves, latent)

    def predict_batch(self, images) -> tuple[Tensor, tr.RoutingTrace]:
        return self.predict_latent(self.latent(images))

    def soft_predict(self, images: np.ndarray, batch_size: int = 256,
                     ) -> np.ndarray:
        """Soft class distributions for a stack of images, without a tape."""
        if images.ndim == 3:
            images = images[None]
        return np.concatenate([self.predict_latent(z)[0].values for z
                               in self.latent_chunks(images, batch_size)])

    def latents_per_image(self, images: np.ndarray) -> np.ndarray:
        """Latent maps of a stack of images, as one-image forwards give,
        64 at a time: projection holds the training set in memory too."""
        return np.concatenate([z.values for z in self.latent_chunks(images, 64)])

    def accuracy(self, dataset, batch_size: int = 256) -> float:
        return evaluate(self, dataset, "soft", batch_size).accuracy

    # -- checkpoint schema --------------------------------------------------

    def save(self, path: str) -> None:
        cfg = self.backbone.config
        arch = [cfg.in_channels, cfg.input_side, cfg.latent_depth,
                len(cfg.stages)]
        for out, kernel, stride in cfg.stages:
            arch.extend((out, kernel, stride))
        children = np.stack([self.topology.left, self.topology.right], axis=1) \
            if self.topology.num_internal else np.zeros((0, 2))
        names = "\n".join(self.class_names) if self.class_names else ""
        blob: dict[str, np.ndarray] = {
            "meta/classes": np.asarray([self.num_classes]),
            "meta/seed": np.asarray(_split_int(self.seed)),
            "meta/leaf_norm": np.asarray(
                [1.0 if self.leaves.norm == "l1" else 0.0]),
            "meta/class_names": np.asarray(
                [float(b) for b in names.encode("utf-8")]),
            "backbone/arch": np.asarray(arch),
        }
        for i, (weight, bias) in enumerate(zip(self.backbone.weights,
                                               self.backbone.biases)):
            blob[f"backbone/stage{i}/weight"] = weight.values
            blob[f"backbone/stage{i}/bias"] = bias.values
        blob["backbone/head/weight"] = self.backbone.head_weight.values
        blob["tree/root"] = np.asarray([self.topology.root])
        blob["tree/height"] = np.asarray([self.topology.height])
        blob["tree/children"] = children
        blob["tree/prototype_index"] = self.topology.prototype_index
        blob["tree/prototypes"] = self.prototypes.tensor.values
        blob["tree/leaf_logits"] = self.leaves.logits
        blob["proj/done"] = np.asarray(
            [0.0 if self.projection is None else 1.0])
        if self.projection is not None:
            info = np.asarray(
                [[r.image_id, r.location[0], r.location[1], r.distance,
                  1.0 if r.constrained else 0.0, 1.0 if r.fallback else 0.0]
                 for r in self.projection]).reshape(len(self.projection), 6)
            blob["proj/info"] = info
            blob["proj/images"] = self.projection_images
        ckpt.write_blob(path, blob)

    @classmethod
    def load(cls, path: str) -> "ProtoTreeModel":
        """Read a checkpoint; any malformed record is a CheckpointError."""
        try:
            return cls._from_records(ckpt.read_blob(path))
        except (IndexError, ValueError, OverflowError) as err:
            raise ckpt.CheckpointError(f"{path}: {err}") from None

    @classmethod
    def _from_records(cls, blob: ckpt.Records) -> "ProtoTreeModel":
        arch = _record(blob, "backbone/arch",
                       *blob["backbone/arch"].shape[:1], ints=True)
        n_stages = int(arch[3])
        _record(blob, "backbone/arch", 4 + 3 * n_stages)
        stages = tuple(tuple(int(v) for v in arch[4 + 3 * i:7 + 3 * i])
                       for i in range(n_stages))
        config = bb.BackboneConfig(in_channels=int(arch[0]),
                                   input_side=int(arch[1]),
                                   latent_depth=int(arch[2]),
                                   stages=stages)
        config.validate()
        net = bb.Backbone(config)
        fan_c = config.in_channels
        for i, (out, kernel, _) in enumerate(stages):
            net.weights.append(Tensor(_record(
                blob, f"backbone/stage{i}/weight", out, fan_c, kernel, kernel),
                requires_grad=True))
            net.biases.append(Tensor(_record(
                blob, f"backbone/stage{i}/bias", out), requires_grad=True))
            fan_c = out
        net.head_weight = Tensor(_record(blob, "backbone/head/weight",
                                         config.latent_depth, fan_c, 1, 1),
                                 requires_grad=True)
        m = blob["tree/children"].shape[0]
        children = _record(blob, "tree/children", m, 2, ints=True)
        topo = tr.TreeTopology(
            left=children[:, 0].copy(), right=children[:, 1].copy(),
            prototype_index=_record(blob, "tree/prototype_index", m,
                                    ints=True),
            root=int(blob["tree/root"][0]),
            height=int(blob["tree/height"][0]))
        norm = "l1" if int(blob["meta/leaf_norm"][0]) else "softmax"
        classes = int(blob["meta/classes"][0])
        leaves = tr.LeafParams(
            _record(blob, "tree/leaf_logits", m + 1, classes)
            .astype(np.float64), norm=norm)
        names_bytes = bytes(int(b) for b in blob["meta/class_names"])
        class_names = names_bytes.decode("utf-8").split("\n") \
            if names_bytes else []
        model = cls(backbone=net, topology=topo,
                    prototypes=tr.PrototypeBank(Tensor(
                        _record(blob, "tree/prototypes", m,
                                config.latent_depth).copy(),
                        requires_grad=True)),
                    leaves=leaves,
                    seed=_join_int(blob["meta/seed"]),
                    class_names=class_names)
        if int(blob["proj/done"][0]):
            info = _record(blob, "proj/info", m, 6)
            model.projection = [
                ProjectionRecord(node_index=n, image_id=int(row[0]),
                                 location=(int(row[1]), int(row[2])),
                                 distance=float(row[3]),
                                 constrained=bool(row[4]),
                                 fallback=bool(row[5]))
                for n, row in enumerate(info)]
            model.projection_images = _record(
                blob, "proj/images", m, config.in_channels,
                config.input_side, config.input_side).copy()
        return model


def _record(blob: ckpt.Records, name: str, *shape: int,
            ints: bool = False) -> np.ndarray:
    """The named record, which must have exactly the shape the model needs;
    with ``ints`` it must hold small integers, returned as int64."""
    arr = blob[name]
    if arr.shape != shape:
        raise ValueError(f"record {name!r} has shape {arr.shape}, not {shape}")
    if ints and not ((np.abs(arr) < 2 ** 31) & (arr == np.round(arr))).all():
        raise ValueError(f"record {name!r} holds non-integer values")
    return arr.astype(np.int64) if ints else arr


def build_model(config: bb.BackboneConfig, height: int, num_classes: int,
                seed: int, dtype=np.float32, leaf_norm: str = "softmax",
                class_names: list[str] | None = None) -> ProtoTreeModel:
    """Fresh model: seeded backbone plus full tree of the given height."""
    net = bb.build(config, seed, dtype=dtype)
    topo, bank, leaves = tr.init_tree(height, num_classes, config.latent_depth,
                                      seed, dtype=dtype, leaf_norm=leaf_norm)
    return ProtoTreeModel(backbone=net, topology=topo, prototypes=bank,
                          leaves=leaves, seed=seed,
                          class_names=list(class_names or []))
