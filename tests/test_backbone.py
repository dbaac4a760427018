import tracemalloc

import numpy as np
import pytest

import prototree.autodiff as ad
from prototree.autodiff import Tape
from prototree.backbone import BackboneConfig, build
from prototree.model import build_model
from prototree.train import cross_entropy

from oracles import assert_same_bits


class TestConfig:
    def test_latent_side_two_stride_two_stages(self):
        config = BackboneConfig(input_side=32, latent_depth=16,
                                stages=((8, 3, 2), (16, 3, 2)))
        assert config.latent_side() == 8

    def test_rejects_bad_stage(self):
        with pytest.raises(ValueError, match="stage"):
            BackboneConfig(stages=((8, 3, 0),)).validate()
        with pytest.raises(ValueError):
            BackboneConfig(in_channels=0).validate()

    def test_latent_side_never_collapses_with_same_padding(self):
        # padding kernel // 2 floors every stage at one cell
        config = BackboneConfig(input_side=8, latent_depth=4,
                                stages=((4, 3, 2),) * 5)
        config.validate()
        assert config.latent_side() == 1


class TestBuild:
    def test_same_seed_bit_identical(self):
        config = BackboneConfig(input_side=32, latent_depth=8)
        a, b = build(config, seed=42), build(config, seed=42)
        for ta, tb in zip(a.parameters()["body"] + a.parameters()["head"],
                          b.parameters()["body"] + b.parameters()["head"]):
            np.testing.assert_array_equal(ta.values, tb.values)

    def test_different_seeds_differ(self):
        config = BackboneConfig(input_side=32, latent_depth=8)
        a, b = build(config, seed=1), build(config, seed=2)
        assert not np.array_equal(a.head_weight.values, b.head_weight.values)

    def test_head_has_no_bias_and_unit_kernel(self):
        net = build(BackboneConfig(input_side=32, latent_depth=8), seed=0)
        assert net.head_weight.shape[2:] == (1, 1)
        assert len(net.biases) == len(net.config.stages)


class TestForward:
    def test_output_shape_and_range(self):
        config = BackboneConfig(input_side=32, latent_depth=16)
        net = build(config, seed=3)
        images = np.random.default_rng(0).uniform(0, 1, (4, 3, 32, 32)) \
            .astype(np.float32)
        out = net.forward(images).values
        assert out.shape == (4, 16, 4, 4)
        assert out.min() > 0.0 and out.max() < 1.0

    def test_zero_input_with_zero_biases_is_half(self):
        config = BackboneConfig(input_side=16, latent_depth=4,
                                stages=((4, 3, 2), (8, 3, 2)))
        net = build(config, seed=5)
        for bias in net.biases:
            bias.values[:] = 0.0
        out = net.forward(np.zeros((1, 3, 16, 16), dtype=np.float32)).values
        np.testing.assert_array_equal(out, np.full_like(out, 0.5))

    def test_identical_images_identical_latents(self):
        config = BackboneConfig(input_side=32, latent_depth=8)
        net = build(config, seed=7)
        image = np.random.default_rng(1).uniform(0, 1, (3, 32, 32)) \
            .astype(np.float32)
        out = net.forward(np.stack([image, image])).values
        np.testing.assert_array_equal(out[0], out[1])

    def test_shape_mismatch_rejected(self):
        net = build(BackboneConfig(input_side=32, latent_depth=8), seed=0)
        with pytest.raises(ValueError, match="expected"):
            net.forward(np.zeros((1, 3, 16, 16), dtype=np.float32))

    def test_unbatched_image_rejected(self):
        model = build_model(BackboneConfig(input_side=32, latent_depth=8),
                            height=1, num_classes=2, seed=0)
        image = np.zeros((3, 32, 32), dtype=np.float32)
        for call in (model.backbone.forward, model.latent):
            with pytest.raises(ValueError, match="N x C x S x S"):
                call(image)


class TestBatchIndependence:
    """Evaluation and both of projection's passes compute latents in
    chunks; they rely on each image's latent bits being those of a
    one-image forward."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_rows_equal_one_image_forwards(self, dtype):
        net = build(BackboneConfig(), seed=13, dtype=dtype)
        images = np.random.default_rng(2).uniform(0, 1, (259, 3, 64, 64)) \
            .astype(dtype)
        single = np.concatenate([net.forward(image[None]).values
                                 for image in images])
        for batch in (3, 64, 256):   # tail chunks of 1, 3 and 3 images
            chunked = np.concatenate([net.forward(images[s:s + batch]).values
                                      for s in range(0, len(images), batch)])
            assert_same_bits(chunked, single)


class TestOnePass:
    """A backbone pass is one conv_stack op: one batch split forward and
    one backward, whatever the batch size, and untaped it keeps no stage
    buffer of the whole batch."""

    @staticmethod
    def counting_splits(monkeypatch):
        calls, split = [], ad._split_batch

        def counting(n, fn):
            calls.append(n)
            split(n, fn)

        monkeypatch.setattr(ad, "_split_batch", counting)
        return calls

    @pytest.mark.parametrize("n", [1, ad.BLOCK + 1, 70])
    def test_untaped_forward_splits_once(self, monkeypatch, n):
        net = build(BackboneConfig(input_side=32, latent_depth=8), seed=3)
        images = np.zeros((n, 3, 32, 32), dtype=np.float32)
        calls = self.counting_splits(monkeypatch)
        net.forward(images)
        assert calls == [n]

    @pytest.mark.parametrize("n", [1, 9])
    def test_taped_forward_and_backward_split_once_each(self, monkeypatch,
                                                        n):
        model = build_model(BackboneConfig(input_side=32, latent_depth=8),
                            height=2, num_classes=2, seed=4)
        images = np.random.default_rng(5).uniform(
            0, 1, (n, 3, 32, 32)).astype(np.float32)
        calls = self.counting_splits(monkeypatch)
        with Tape() as tape:
            y_hat, _ = model.predict(model.latent(images))
            tape.backward(cross_entropy(y_hat, np.zeros(n, int)))
        # routing splits only from tree.SPLIT_MIN_MACS on, far above this
        assert calls == [n, n]

    def test_a_thread_reuses_its_block_workspace(self, monkeypatch):
        monkeypatch.setattr(ad, "_WORKERS", 1)
        net = build(BackboneConfig(input_side=32, latent_depth=8), seed=8)
        rng = np.random.default_rng(9)
        images = rng.uniform(0, 1, (40, 3, 32, 32)).astype(np.float32)
        first = net.forward(images[:ad.BLOCK + 3]).values
        kept = ad._WORKSPACE.kept
        net.forward(images[ad.BLOCK + 3:])
        assert ad._WORKSPACE.kept is kept
        # a reused pad buffer kept its zero borders
        assert_same_bits(net.forward(images[:ad.BLOCK + 3]).values, first)

    def test_untaped_desk_forward_peak_memory(self):
        # at one conv op per stage, 78 MB: each stage's 256-image columns
        # and activations (stage 0's columns alone are 28 MB)
        net = build(BackboneConfig(latent_depth=64), seed=6)
        images = np.random.default_rng(7).uniform(
            0, 1, (256, 3, 64, 64)).astype(np.float32)
        tracemalloc.start()
        try:
            net.forward(images)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 40e6


class TestGradientFlow:
    @pytest.mark.parametrize("seed", range(5))
    def test_no_parameter_grad_identically_zero(self, seed):
        config = BackboneConfig(input_side=16, latent_depth=8,
                                stages=((6, 3, 2), (8, 3, 2)))
        model = build_model(config, height=2, num_classes=3, seed=seed)
        rng = np.random.default_rng(seed + 100)
        images = rng.uniform(0, 1, (6, 3, 16, 16)).astype(np.float32)
        labels = rng.integers(0, 3, 6)
        with Tape() as tape:
            y_hat, _ = model.predict(model.latent(images))
            tape.backward(cross_entropy(y_hat, labels))
        for name, group in model.parameters().items():
            for tensor in group:
                assert np.abs(tensor.grad).max() > 0.0, \
                    f"{name} gradient identically zero at seed {seed}"
