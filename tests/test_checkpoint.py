import struct

import numpy as np
import pytest

from prototree.backbone import BackboneConfig
from prototree.checkpoint import CheckpointError, CheckpointVersionError, \
    MAGIC, VERSION, read_blob, write_blob
from prototree.model import ProtoTreeModel, build_model


class TestBlobFormat:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        tensors = {
            "weights/w0": rng.normal(size=(4, 3, 2, 2)).astype(np.float32),
            "empty": np.zeros((0, 2), dtype=np.float32),
            "vec": np.array([1.5, -2.25, 3e-9], dtype=np.float32),
        }
        path = str(tmp_path / "blob.npt")
        write_blob(path, tensors)
        loaded = read_blob(path)
        assert list(loaded) == list(tensors)
        for name in tensors:
            assert loaded[name].shape == tensors[name].shape
            assert (loaded[name].view(np.uint32).tobytes()
                    == tensors[name].view(np.uint32).tobytes())

    def test_write_read_write_stable(self, tmp_path):
        tensors = {"a": np.linspace(0, 1, 7, dtype=np.float32)}
        p1, p2 = str(tmp_path / "a.npt"), str(tmp_path / "b.npt")
        write_blob(p1, tensors)
        write_blob(p2, read_blob(p1))
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_header_layout(self, tmp_path):
        path = str(tmp_path / "h.npt")
        write_blob(path, {"x": np.zeros(2, dtype=np.float32)})
        raw = open(path, "rb").read()
        assert raw[:4] == MAGIC == b"NPTT"
        assert struct.unpack_from("<I", raw, 4)[0] == VERSION
        assert struct.unpack_from("<I", raw, 8)[0] == 1  # name length
        assert raw[12:13] == b"x"

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.npt"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(CheckpointVersionError, match="magic"):
            read_blob(str(path))

    def test_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "future.npt"
        path.write_bytes(MAGIC + struct.pack("<I", VERSION + 1))
        with pytest.raises(CheckpointVersionError, match="version"):
            read_blob(str(path))

    def test_truncated_payload_rejected(self, tmp_path):
        good = tmp_path / "good.npt"
        write_blob(str(good), {"x": np.ones(8, dtype=np.float32)})
        clipped = tmp_path / "clipped.npt"
        clipped.write_bytes(good.read_bytes()[:-5])
        with pytest.raises(CheckpointError, match="truncated"):
            read_blob(str(clipped))


class TestModelRoundTrip:
    def test_save_load_preserves_everything(self, tmp_path):
        config = BackboneConfig(input_side=32, latent_depth=8,
                                stages=((6, 3, 2), (8, 3, 2)))
        model = build_model(config, height=3, num_classes=4, seed=77,
                            class_names=[f"class_{k}" for k in range(4)])
        model.leaves.logits = np.random.default_rng(5).uniform(
            0, 3, model.leaves.logits.shape)
        path = str(tmp_path / "model.npt")
        model.save(path)
        loaded = ProtoTreeModel.load(path)
        assert loaded.seed == 77
        assert loaded.class_names == model.class_names
        assert loaded.backbone.config == config
        np.testing.assert_array_equal(loaded.topology.left,
                                      model.topology.left)
        np.testing.assert_array_equal(loaded.prototypes.tensor.values,
                                      model.prototypes.tensor.values)
        np.testing.assert_array_equal(
            loaded.leaves.logits,
            model.leaves.logits.astype(np.float32).astype(np.float64))

    def test_predictions_survive_round_trip(self, tmp_path):
        config = BackboneConfig(input_side=32, latent_depth=8,
                                stages=((8, 3, 2), (8, 3, 2)))
        model = build_model(config, height=2, num_classes=3, seed=79)
        images = np.random.default_rng(7).uniform(0, 1, (5, 3, 32, 32)) \
            .astype(np.float32)
        path = str(tmp_path / "model.npt")
        model.save(path)
        loaded = ProtoTreeModel.load(path)
        np.testing.assert_array_equal(loaded.soft_predict(images),
                                      model.soft_predict(images))

    def test_appended_duplicate_record_rejected(self, tmp_path):
        # a second record of a name used to replace the first silently
        config = BackboneConfig(input_side=32, latent_depth=8,
                                stages=((8, 3, 2),))
        model = build_model(config, height=2, num_classes=2, seed=1)
        path, extra = tmp_path / "model.npt", tmp_path / "extra.npt"
        model.save(str(path))
        write_blob(str(extra), {"meta/seed": read_blob(str(path))["meta/seed"]
                                + np.float32(4.0)})
        path.write_bytes(path.read_bytes() + extra.read_bytes()[8:])
        with pytest.raises(CheckpointError,
                           match="duplicate record 'meta/seed'"):
            ProtoTreeModel.load(str(path))

    def test_double_round_trip_byte_identical(self, tmp_path):
        config = BackboneConfig(input_side=32, latent_depth=8,
                                stages=((8, 3, 2),))
        model = build_model(config, height=2, num_classes=2, seed=81)
        p1, p2 = str(tmp_path / "m1.npt"), str(tmp_path / "m2.npt")
        model.save(p1)
        ProtoTreeModel.load(p1).save(p2)
        assert open(p1, "rb").read() == open(p2, "rb").read()
