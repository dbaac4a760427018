import os
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from prototree.backbone import BackboneConfig
from prototree.checkpoint import DTYPES, CheckpointError, MAGIC, \
    VERSION, read_blob, write_blob
from prototree.data import gen_synthetic
from prototree.model import ProtoTreeModel, build_model
from prototree.refine import _rebuild, project

def soft(model, images):
    """Soft class distributions of a small batch, in one routed pass."""
    return model.predict(model.latent(images))[0].values


TINY = BackboneConfig(input_side=32, latent_depth=8,
                      stages=((6, 3, 2), (8, 3, 2)))


def header(name: bytes, tag: int, shape) -> bytes:
    """Magic, version and the head of one record, without its payload."""
    return MAGIC + struct.pack(f"<II{len(name)}sBI{len(shape)}Q", VERSION,
                               len(name), name, tag, len(shape), *shape)


def projected_model(seed=83):
    model = build_model(TINY, height=2, num_classes=3, seed=seed,
                        class_names=["a", "b\u00e9", "c"])
    model.leaves.logits = np.random.default_rng(seed).uniform(
        0, 3, model.leaves.logits.shape)
    train, _ = gen_synthetic(3, 2, 32, seed=seed)
    project(model, train)
    return model


class TestBlobFormat:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        tensors = {
            "weights/w0": rng.normal(size=(4, 3, 2, 2)).astype(np.float32),
            "empty": np.zeros((0, 2), dtype=np.float32),
            "vec": np.array([1.5, -2.25, 3e-9], dtype=np.float32),
            "f64": np.array([[np.nan, -0.0], [1 / 3, 5e-324]]),
            "i64": np.array([-2 ** 63, 0, 2 ** 63 - 1], dtype=np.int64),
            "u8": np.frombuffer("naïve".encode("utf-8"), dtype=np.uint8),
            "empty_u8": np.zeros(0, dtype=np.uint8),
            "scalar": np.array(7, dtype=np.int64),
        }
        path = str(tmp_path / "blob.npt")
        write_blob(path, tensors)
        loaded = read_blob(path)
        assert list(loaded) == list(tensors)
        for name in tensors:
            assert loaded[name].dtype == tensors[name].dtype
            assert loaded[name].shape == tensors[name].shape
            assert loaded[name].tobytes() == tensors[name].tobytes()

    def test_big_endian_input_stored_little_endian(self, tmp_path):
        path = str(tmp_path / "be.npt")
        write_blob(path, {"x": np.arange(3, dtype=">i8")})
        got = read_blob(path)["x"]
        assert got.dtype == np.dtype("<i8") and got.tolist() == [0, 1, 2]

    def test_untagged_dtype_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="'x'.*int32"):
            write_blob(str(tmp_path / "x.npt"),
                       {"x": np.zeros(2, dtype=np.int32)})

    def test_write_read_write_stable(self, tmp_path):
        tensors = {"a": np.linspace(0, 1, 7, dtype=np.float32)}
        p1, p2 = str(tmp_path / "a.npt"), str(tmp_path / "b.npt")
        write_blob(p1, tensors)
        write_blob(p2, read_blob(p1))
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_header_layout(self, tmp_path):
        path = str(tmp_path / "h.npt")
        write_blob(path, {"x": np.zeros(2, dtype=np.float64)})
        raw = open(path, "rb").read()
        assert raw[:4] == MAGIC == b"NPTT"
        assert struct.unpack_from("<I", raw, 4)[0] == VERSION == 2
        assert struct.unpack_from("<I", raw, 8)[0] == 1  # name length
        assert raw[12:13] == b"x"
        assert raw[13] == 1 and DTYPES[1] == np.dtype("<f8")   # dtype tag
        assert struct.unpack_from("<IQ", raw, 14) == (1, 2)    # rank, extent
        assert raw[26:] == bytes(16)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.npt"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(CheckpointError, match="magic"):
            read_blob(str(path))

    def test_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "future.npt"
        path.write_bytes(MAGIC + struct.pack("<I", VERSION + 1))
        with pytest.raises(CheckpointError, match="version"):
            read_blob(str(path))

    def test_version_one_file_names_both_versions(self, tmp_path):
        path = tmp_path / "v1.npt"
        path.write_bytes(MAGIC + struct.pack("<II", 1, 1) + b"x"
                         + struct.pack("<IQ", 1, 1) + bytes(4))
        with pytest.raises(CheckpointError,
                           match="version 1, this build reads 2"):
            ProtoTreeModel.load(str(path))

    def test_failed_write_keeps_old_file(self, tmp_path):
        path = tmp_path / "keep.npt"
        write_blob(str(path), {"a": np.arange(4.0)})
        before = path.read_bytes()
        # the second record has no tag: the write stops half way
        with pytest.raises(ValueError, match="'bad'"):
            write_blob(str(path), {"a": np.zeros(9),
                                   "bad": np.zeros(2, dtype=np.complex64)})
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["keep.npt"]

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
        for seed in (77, 2 ** 48, 2 ** 63 - 1):
            model = build_model(config, height=3, num_classes=4, seed=seed,
                                class_names=[f"class_{k}" for k in range(4)])
            model.leaves.logits = np.random.default_rng(5).uniform(
                0, 3, model.leaves.logits.shape)
            path = str(tmp_path / "model.npt")
            model.save(path)
            loaded = ProtoTreeModel.load(path)
            assert loaded.seed == seed
            assert loaded.class_names == model.class_names
            assert loaded.backbone.config == config
            np.testing.assert_array_equal(loaded.topology.left,
                                          model.topology.left)
            np.testing.assert_array_equal(loaded.prototypes.tensor.values,
                                          model.prototypes.tensor.values)
            assert loaded.leaves.logits.dtype == np.float64
            assert loaded.leaves.logits.tobytes() == \
                model.leaves.logits.tobytes()

    def test_predictions_survive_round_trip(self, tmp_path):
        config = BackboneConfig(input_side=32, latent_depth=8,
                                stages=((8, 3, 2), (8, 3, 2)))
        model = build_model(config, height=2, num_classes=3, seed=79)
        images = np.random.default_rng(7).uniform(0, 1, (5, 3, 32, 32)) \
            .astype(np.float32)
        path = str(tmp_path / "model.npt")
        model.save(path)
        loaded = ProtoTreeModel.load(path)
        np.testing.assert_array_equal(soft(loaded, images),
                                      soft(model, images))

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

    def test_projected_model_equal_bit_for_bit(self, tmp_path):
        model = projected_model()
        path = str(tmp_path / "model.npt")
        model.save(path)
        loaded = ProtoTreeModel.load(path)
        got = [*loaded.backbone.weights, *loaded.backbone.biases,
               loaded.backbone.head_weight, loaded.prototypes.tensor]
        want = [*model.backbone.weights, *model.backbone.biases,
                model.backbone.head_weight, model.prototypes.tensor]
        for a, b in zip(got, want, strict=True):
            assert a.values.dtype == b.values.dtype
            assert a.values.tobytes() == b.values.tobytes()
        assert loaded.leaves.logits.tobytes() == model.leaves.logits.tobytes()
        assert (loaded.seed, loaded.class_names) == (83, ["a", "b\u00e9", "c"])
        assert loaded.projection == model.projection
        assert loaded.projection_images.tobytes() == \
            model.projection_images.tobytes()
        np.testing.assert_array_equal(loaded.topology.right,
                                      model.topology.right)
        loaded.save(str(tmp_path / "again.npt"))
        assert open(path, "rb").read() == \
            open(tmp_path / "again.npt", "rb").read()

    def test_softmax_leaf_norm_record_still_loads(self, tmp_path):
        """Files written while an l1 leaf rule existed carry meta/leaf_norm;
        those that say softmax load as the model they were."""
        model = projected_model()
        path = str(tmp_path / "model.npt")
        model.save(path)
        blob = read_blob(path)
        assert "meta/leaf_norm" not in blob
        blob["meta/leaf_norm"] = np.frombuffer(b"softmax", np.uint8)
        write_blob(path, blob)
        images = np.random.default_rng(9).uniform(0, 1, (5, 3, 32, 32)) \
            .astype(np.float32)
        assert soft(ProtoTreeModel.load(path), images).tobytes() == \
            soft(model, images).tobytes()

    def test_height_record_of_older_files_ignored(self, tmp_path):
        """Older files carry tree/height after tree/root; they load as
        the model they were."""
        model = projected_model()
        path = str(tmp_path / "model.npt")
        model.save(path)
        blob = read_blob(path)
        assert "tree/height" not in blob
        older = {}
        for name, arr in blob.items():
            older[name] = arr
            if name == "tree/root":
                older["tree/height"] = np.int64(2)
        write_blob(path, older)
        images = np.random.default_rng(11).uniform(0, 1, (5, 3, 32, 32)) \
            .astype(np.float32)
        assert soft(ProtoTreeModel.load(path), images).tobytes() == \
            soft(model, images).tobytes()

    @pytest.mark.parametrize("keep_leaf, children, root", [
        # leaf 1 goes, so node 1 (old 2) is the root's right child
        ([True, False, True, True], [[-1, 1], [-2, -3]], 0),
        ([False, False, True, False], [], -1),   # one leaf left: the root
    ])
    def test_children_store_leaf_l_as_minus_l_minus_one(self, tmp_path,
                                                        keep_leaf, children,
                                                        root):
        model = build_model(TINY, height=2, num_classes=2, seed=3)
        _rebuild(model, np.array(keep_leaf))
        path = str(tmp_path / "model.npt")
        model.save(path)
        blob = read_blob(path)
        assert blob["tree/children"].tolist() == children
        assert blob["tree/children"].shape == (len(children), 2)
        assert int(blob["tree/root"]) == root
        loaded = ProtoTreeModel.load(path).topology
        assert loaded.left.tolist() == model.topology.left.tolist()
        assert loaded.right.tolist() == model.topology.right.tolist()
        assert loaded.root == model.topology.root

    def test_float64_network_keeps_its_dtype(self, tmp_path):
        model = build_model(TINY, height=1, num_classes=2, seed=5,
                            dtype=np.float64)
        path = str(tmp_path / "model.npt")
        model.save(path)
        loaded = ProtoTreeModel.load(path)
        for got, want in ((loaded.backbone.head_weight,
                           model.backbone.head_weight),
                          (loaded.prototypes.tensor, model.prototypes.tensor)):
            assert got.values.dtype == np.float64
            assert got.values.tobytes() == want.values.tobytes()

    def test_unprojected_model_has_no_projection_records(self, tmp_path):
        model = build_model(TINY, height=1, num_classes=2, seed=3)
        path = str(tmp_path / "model.npt")
        model.save(path)
        assert not any(name.startswith("proj/") for name in read_blob(path))
        assert ProtoTreeModel.load(path).projection is None

    @pytest.mark.parametrize("name, value, message", [
        ("tree/leaf_logits", lambda a: a.astype(np.float32), "dtype float32"),
        ("meta/seed", lambda a: a.astype(np.float64), "dtype float64"),
        ("proj/flags", lambda a: a.astype(np.int64), "dtype int64"),
        ("tree/leaf_logits", lambda a: a[:, :1], "fewer than 2 classes"),
        ("tree/leaf_logits", lambda a: a[:, :0], "fewer than 2 classes"),
        ("meta/class_names", lambda a: a[:-2], "2 names for 3 classes"),
        # an injected record: fresh checkpoints carry no meta/leaf_norm
        ("meta/leaf_norm", lambda _: np.frombuffer(b"l2", np.uint8), "'l2'"),
        ("proj/distances", None, "no record 'proj/distances'"),
    ])
    def test_record_of_wrong_type_rejected(self, tmp_path, name, value,
                                           message):
        path = str(tmp_path / "model.npt")
        projected_model().save(path)
        blob = read_blob(path)
        if value is None:
            del blob[name]
        else:
            blob[name] = value(blob.get(name))
        write_blob(path, blob)
        with pytest.raises(CheckpointError, match=message) as err:
            ProtoTreeModel.load(path)
        assert name in str(err.value)


@pytest.fixture(scope="module")
def saved_model(tmp_path_factory):
    """Bytes of a saved projected model, and a scratch path to mangle."""
    work = tmp_path_factory.mktemp("fuzz")
    path = str(work / "model.npt")
    projected_model().save(path)
    return open(path, "rb").read(), str(work / "mangled.npt")


def load_or_checkpoint_error(path: str, raw: bytes) -> bool:
    """Write raw to path and load it both ways; True when the model
    loads. Any exception other than CheckpointError fails the test."""
    with open(path, "wb") as fh:
        fh.write(raw)
    for read in (read_blob, ProtoTreeModel.load):
        try:
            read(path)
        except CheckpointError:
            return False
    return True


FUZZ = settings(max_examples=300, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


class TestLoaderFuzz:
    @FUZZ
    @given(cut=st.integers(min_value=0))
    def test_truncation_at_any_byte(self, saved_model, cut):
        raw, path = saved_model
        assert not load_or_checkpoint_error(path, raw[:cut % len(raw)])

    @FUZZ
    @given(bit=st.integers(min_value=0))
    def test_single_bit_flip(self, saved_model, bit):
        raw, path = saved_model
        bit %= 8 * len(raw)
        flipped = bytearray(raw)
        flipped[bit // 8] ^= 1 << bit % 8
        load_or_checkpoint_error(path, bytes(flipped))

    @FUZZ
    @given(index=st.integers(min_value=0))
    def test_duplicate_record(self, saved_model, index):
        raw, path = saved_model
        with open(path, "wb") as fh:
            fh.write(raw)
        blob = read_blob(path)
        name = list(blob)[index % len(blob)]
        write_blob(path, {name: blob[name]})
        with open(path, "rb") as fh:
            record = fh.read()[8:]
        with open(path, "wb") as fh:
            fh.write(raw + record)
        for read in (read_blob, ProtoTreeModel.load):
            with pytest.raises(CheckpointError,
                               match=f"duplicate record '{name}'"):
                read(path)

    @FUZZ
    @given(tag=st.integers(min_value=len(DTYPES), max_value=255))
    def test_unknown_dtype_tag(self, saved_model, tag):
        _, path = saved_model
        with open(path, "wb") as fh:
            fh.write(header(b"x", tag, (1,)) + bytes(8))
        with pytest.raises(CheckpointError, match=f"unknown dtype tag {tag}"):
            read_blob(path)

    @FUZZ
    @given(tag=st.sampled_from(sorted(DTYPES)),
           shape=st.lists(st.integers(0, 2 ** 64 - 1), max_size=80),
           payload=st.binary(max_size=64))
    @example(tag=0, shape=[0, 2 ** 63], payload=b"")
    @example(tag=0, shape=[2 ** 40, 2 ** 40, 0], payload=b"")
    @example(tag=3, shape=[1] * 65, payload=b"\x01")
    @example(tag=1, shape=[2 ** 64 - 1] * 2, payload=b"")
    def test_large_rank_and_extents(self, saved_model, tag, shape, payload):
        raw, path = saved_model
        record = header(b"x", tag, shape)[8:] + payload
        for blob in (raw[:8] + record, raw + record):
            load_or_checkpoint_error(path, blob)

    def test_huge_rank_is_truncated(self, saved_model):
        _, path = saved_model
        with open(path, "wb") as fh:
            fh.write(MAGIC + struct.pack("<IIsBI", VERSION, 1, b"x", 0,
                                         2 ** 32 - 1))
        with pytest.raises(CheckpointError, match="truncated extents"):
            read_blob(path)
