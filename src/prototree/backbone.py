"""Convolutional feature extractor producing the latent patch grid.

A small stack of strided convolutions with ReLU, closed by a bias-free
1x1 convolution and an elementwise sigmoid, so every latent value lies
strictly inside (0, 1). Body convolutions use padding kernel // 2.
The whole stack, every stage's bias and activation included, is one
``conv_stack`` call.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor


@dataclass(frozen=True)
class BackboneConfig:
    in_channels: int = 3
    stages: tuple[tuple[int, int, int], ...] = ((16, 3, 2), (32, 3, 2), (64, 3, 2))
    latent_depth: int = 32
    input_side: int = 64

    def latent_side(self) -> int:
        side = self.input_side
        for _, kernel, stride in self.stages:
            pad = kernel // 2
            side = (side + 2 * pad - kernel) // stride + 1
        return side

    def validate(self) -> None:
        for key in ("in_channels", "latent_depth", "input_side"):
            if getattr(self, key) < 1:
                raise ValueError(f"{key} must be >= 1, got {getattr(self, key)}")
        for out, kernel, stride in self.stages:
            if out < 1 or kernel < 1 or stride < 1:
                raise ValueError(f"bad stage ({out}, {kernel}, {stride})")
        if self.latent_side() < 1:
            raise ValueError(
                f"config collapses {self.input_side}x{self.input_side} input "
                "to an empty latent map")


@dataclass
class Backbone:
    config: BackboneConfig
    weights: list[Tensor] = field(default_factory=list)   # per body stage
    biases: list[Tensor] = field(default_factory=list)
    head_weight: Tensor | None = None                     # 1x1, no bias

    def parameters(self) -> dict[str, list[Tensor]]:
        return {"body": [*self.weights, *self.biases],
                "head": [self.head_weight]}

    def forward(self, batch) -> Tensor:
        """Map an N x C x S x S batch to the N x D x H x W latent grid."""
        x = batch if isinstance(batch, Tensor) else Tensor(batch)
        if x.values.ndim != 4:
            raise ValueError(f"expected an N x C x S x S batch, got {x.shape}")
        n, c, h, w = x.shape
        cfg = self.config
        if c != cfg.in_channels or h != cfg.input_side or w != cfg.input_side:
            raise ValueError(
                f"expected {cfg.in_channels}x{cfg.input_side}x{cfg.input_side} "
                f"images, got {c}x{h}x{w}")
        stages = [(weight, bias, stride, kernel // 2)
                  for weight, bias, (_, kernel, stride)
                  in zip(self.weights, self.biases, cfg.stages)]
        return ad.conv_stack(x, stages, self.head_weight)


def build(config: BackboneConfig, seed: int, dtype=np.float32) -> Backbone:
    """Construct a backbone with seed-deterministic initial parameters.

    Body weights use He scaling for the ReLU stages; the 1x1 head uses
    Xavier uniform initialization.
    """
    config.validate()
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0xB0D7)))
    net = Backbone(config)
    fan_c = config.in_channels
    for out, kernel, _ in config.stages:
        fan_in = fan_c * kernel * kernel
        w = rng.normal(0.0, np.sqrt(2.0 / fan_in), (out, fan_c, kernel, kernel))
        net.weights.append(Tensor(w.astype(dtype), requires_grad=True))
        net.biases.append(Tensor(np.zeros(out, dtype=dtype), requires_grad=True))
        fan_c = out
    limit = np.sqrt(6.0 / (fan_c + config.latent_depth))
    head = rng.uniform(-limit, limit, (config.latent_depth, fan_c, 1, 1))
    net.head_weight = Tensor(head.astype(dtype), requires_grad=True)
    return net
