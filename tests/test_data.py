import os
import shutil
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import prototree.data as pd
from prototree.data import AugmentConfig, Dataset, UnknownClassError, \
    augment, class_motifs, gen_synthetic, load_dataset, load_ppm, save_ppm, \
    write_dataset
from prototree.refine import evaluate

from oracles import bytewise_load_ppm


class TestGenSynthetic:
    def test_deterministic_per_seed(self):
        a_train, a_test = gen_synthetic(4, 6, 32, seed=3)
        b_train, b_test = gen_synthetic(4, 6, 32, seed=3)
        np.testing.assert_array_equal(a_train.images, b_train.images)
        np.testing.assert_array_equal(a_test.images, b_test.images)

    def test_different_seed_differs(self):
        a, _ = gen_synthetic(4, 6, 32, seed=3)
        b, _ = gen_synthetic(4, 6, 32, seed=4)
        assert not np.array_equal(a.images, b.images)

    def test_values_in_unit_interval(self):
        train, test = gen_synthetic(5, 4, 32, seed=5)
        for ds in (train, test):
            assert ds.images.min() >= 0.0 and ds.images.max() <= 1.0

    def test_splits_instance_disjoint(self):
        train, test = gen_synthetic(3, 8, 32, seed=7)
        train_hashes = {img.tobytes() for img in train.images}
        assert all(img.tobytes() not in train_hashes for img in test.images)

    def test_label_coverage_and_counts(self):
        train, test = gen_synthetic(6, 10, 32, seed=9)
        assert sorted(set(train.labels.tolist())) == list(range(6))
        assert len(train) == 60 and len(test) == 30

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            gen_synthetic(1, 10, 32, seed=0)
        with pytest.raises(ValueError):
            gen_synthetic(17, 10, 32, seed=0)
        with pytest.raises(ValueError):
            gen_synthetic(4, 10, 48, seed=0)


class TestMotifStructure:
    def test_subset_pair_and_shared_bases(self):
        motifs, distinctive = class_motifs(8, seed=11)
        # classes 0/1: identical except for one extra oversized glyph
        assert motifs[0] == motifs[1][:2]
        assert len(motifs[0]) == 2 and len(motifs[1]) == 3
        assert motifs[1][2].scale > 1.0
        assert distinctive[0] is None and distinctive[1] == 2
        # the other pairs share their first motif and differ in the second
        for m in range(1, 4):
            even, odd = motifs[2 * m], motifs[2 * m + 1]
            assert even[0] == odd[0]
            assert even[1] != odd[1]
            assert distinctive[2 * m] is None
            assert distinctive[2 * m + 1] is None

    def test_small_k_disjoint(self):
        motifs, distinctive = class_motifs(2, seed=13)
        assert set(motifs[0]).isdisjoint(motifs[1])
        assert all(d is None for d in distinctive)

    def test_all_motifs_unique_within_class(self):
        motifs, _ = class_motifs(16, seed=17)
        for class_motif_list in motifs:
            assert len(set(class_motif_list)) == len(class_motif_list)


class TestAblation:
    @pytest.mark.slow
    def test_occlusion_drops_recall_below_chance_margin(self, desk_data,
                                                        primary_run):
        """Erasing class 1's distinguishing glyph from its test images
        makes the trained model miss the class almost entirely."""
        from conftest import DESK
        _, test_set = desk_data
        model = primary_run.model
        ablated = pd.ablated_test_split(DESK["classes"], DESK["per_class"],
                                        DESK["side"], DESK["data_seed"],
                                        class_index=1)
        mask = ablated.labels == 1
        pred = evaluate(model, ablated, "soft").soft[mask].argmax(axis=1)
        recall = float((pred == 1).mean())
        chance = 1.0 / DESK["classes"]
        assert recall < chance + 0.20, f"ablated recall {recall:.3f}"
        # sanity: the same images with the glyph present are recognized
        intact = evaluate(model, test_set, "soft").soft[test_set.labels == 1]
        assert (intact.argmax(axis=1) == 1).mean() > recall

    def test_ablated_split_differs_only_at_glyph(self):
        _, test = gen_synthetic(8, 6, 32, seed=19)
        ablated = pd.ablated_test_split(8, 6, 32, seed=19, class_index=1)
        per_class = 3
        for idx in range(len(test)):
            same = np.array_equal(test.images[idx], ablated.images[idx])
            if test.labels[idx] == 1:
                assert not same
                diff = np.abs(test.images[idx] - ablated.images[idx]).sum(axis=0)
                rows = np.flatnonzero(diff.sum(axis=1))
                cols = np.flatnonzero(diff.sum(axis=0))
                # the erased glyph is one localized box
                assert rows.max() - rows.min() < 14
                assert cols.max() - cols.min() < 14
            else:
                assert same

    def test_even_classes_rejected(self):
        with pytest.raises(ValueError, match="motif"):
            pd.ablated_test_split(8, 6, 32, seed=19, class_index=2)


class TestPpmCodec:
    def test_single_white_pixel(self, tmp_path):
        path = tmp_path / "white.ppm"
        path.write_bytes(b"P6\n1 1\n255\n\xff\xff\xff")
        np.testing.assert_array_equal(load_ppm(str(path)),
                                      np.ones((3, 1, 1), dtype=np.float32))

    def test_round_trip_within_quantization(self, tmp_path):
        rng = np.random.default_rng(23)
        image = rng.uniform(0, 1, (3, 5, 9)).astype(np.float32)
        path = str(tmp_path / "img.ppm")
        save_ppm(path, image)
        loaded = load_ppm(path)
        assert np.abs(loaded - image).max() <= 0.5 / 255 + 1e-7

    def test_ascii_variant_rejected(self, tmp_path):
        path = tmp_path / "ascii.ppm"
        path.write_bytes(b"P3\n1 1\n255\n255 255 255\n")
        with pytest.raises(ValueError, match="P6"):
            load_ppm(str(path))

    def test_wrong_maxval_rejected(self, tmp_path):
        path = tmp_path / "deep.ppm"
        path.write_bytes(b"P6\n1 1\n65535\n\xff\xff\xff\xff\xff\xff")
        with pytest.raises(ValueError, match="maxval"):
            load_ppm(str(path))

    def test_truncated_payload_rejected_with_position(self, tmp_path):
        path = tmp_path / "short.ppm"
        path.write_bytes(b"P6\n2 2\n255\n\xff\xff\xff")
        with pytest.raises(ValueError, match="byte"):
            load_ppm(str(path))

    def test_comments_allowed_in_header(self, tmp_path):
        path = tmp_path / "comment.ppm"
        path.write_bytes(b"P6\n# a comment\n1 1\n255\n\x10\x20\x30")
        img = load_ppm(str(path))
        np.testing.assert_allclose(img[:, 0, 0],
                                   np.array([16, 32, 48]) / 255.0, atol=1e-7)

    @pytest.mark.parametrize("header", [b"+1 0_1 0255", b"1 1 +255",
                                        b"\xd9\xa1 1 255", b"1 1_0 255"])
    def test_numbers_other_than_ascii_digits_rejected(self, tmp_path,
                                                      header):
        # int() alone would read "+1 0_1 0255" as a 1 x 1 image
        path = tmp_path / "signed.ppm"
        path.write_bytes(b"P6 " + header + b"\n" + b"\x00" * 300)
        with pytest.raises(ValueError, match="malformed header.*not a "
                           "decimal number") as err:
            load_ppm(str(path))
        assert str(path) in str(err.value)
        with pytest.raises(ValueError) as oracle:
            bytewise_load_ppm(str(path))
        assert str(oracle.value) == str(err.value)

    @pytest.mark.parametrize("extent", [b"0 2", b"2 0", b"-3 2", b"2 -1"])
    def test_non_positive_extent_rejected(self, tmp_path, extent):
        path = tmp_path / "empty.ppm"
        path.write_bytes(b"P6\n" + extent + b"\n255\n" + b"\x00" * 100)
        with pytest.raises(ValueError, match="extent") as err:
            load_ppm(str(path))
        assert str(path) in str(err.value)


def _assert_image_or_error(raw):
    """load_ppm on these bytes gives a non-empty 3 x H x W image or a
    ValueError that names the file."""
    with tempfile.TemporaryDirectory() as root:
        path = os.path.join(root, "fuzz.ppm")
        with open(path, "wb") as fh:
            fh.write(raw)
        try:
            image = load_ppm(path)
        except ValueError as err:
            assert path in str(err), str(err)
            return
    assert image.ndim == 3 and image.shape[0] == 3 and image.size > 0


_HEADER_TOKEN = st.one_of(
    st.integers(-4, 6).map(lambda v: str(v).encode()),
    st.sampled_from([b"", b"x", b"1e3", b"+2", b"0x2", b"255", b"65535",
                     b"#", b"\xff", b"99999999999999999999"]))


def _outcome(parse, path):
    """(shape, bits) of the image parsed from path, or the ValueError's
    message, which must name the file."""
    try:
        image = parse(path)
    except ValueError as err:
        assert path in str(err), str(err)
        return str(err)
    return image.shape, image.tobytes()


def _assert_same_as_bytewise(raw):
    """load_ppm and the byte-at-a-time reference parser give the same image
    bits, or the same ValueError, on these bytes."""
    with tempfile.TemporaryDirectory() as root:
        path = os.path.join(root, "fuzz.ppm")
        with open(path, "wb") as fh:
            fh.write(raw)
        assert _outcome(load_ppm, path) == _outcome(bytewise_load_ppm, path)


_ARBITRARY = given(st.binary(max_size=64))
_HEADERS = given(st.sampled_from([b"P6", b"P3", b"P5", b"p6", b""]),
                 st.lists(_HEADER_TOKEN, min_size=0, max_size=4),
                 st.sampled_from([b" ", b"\n", b"\t", b"\n# note\n"]),
                 st.binary(max_size=80))


class TestPpmFuzz:
    @_ARBITRARY
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_arbitrary_bytes(self, raw):
        _assert_image_or_error(raw)

    @_HEADERS
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_malformed_headers(self, magic, tokens, sep, payload):
        raw = sep.join([magic, *tokens]) + b"\n" + payload
        _assert_image_or_error(raw)

    @_ARBITRARY
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_arbitrary_bytes_as_bytewise_parser(self, raw):
        _assert_same_as_bytewise(raw)

    @_HEADERS
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_malformed_headers_as_bytewise_parser(self, magic, tokens, sep,
                                                  payload):
        _assert_same_as_bytewise(sep.join([magic, *tokens]) + b"\n" + payload)


class TestAugment:
    def test_disabled_is_identity(self):
        rng = np.random.default_rng(29)
        image = rng.uniform(0, 1, (3, 8, 8)).astype(np.float32)
        out = augment(image, AugmentConfig(enabled=False),
                      np.random.default_rng(0))
        np.testing.assert_array_equal(out, image)

    def test_double_flip_restores(self):
        rng = np.random.default_rng(31)
        image = rng.uniform(0, 1, (3, 8, 8)).astype(np.float32)
        config = AugmentConfig(horizontal_flip_p=1.0,
                               brightness_jitter=(1.0, 1.0), enabled=True)
        once = augment(image, config, np.random.default_rng(1))
        twice = augment(once, config, np.random.default_rng(1))
        np.testing.assert_allclose(twice, image, atol=1e-7)

    def test_unit_brightness_identity(self):
        rng = np.random.default_rng(37)
        image = rng.uniform(0.1, 0.9, (3, 8, 8)).astype(np.float32)
        config = AugmentConfig(horizontal_flip_p=0.0,
                               brightness_jitter=(1.0, 1.0), enabled=True)
        np.testing.assert_allclose(augment(image, config,
                                           np.random.default_rng(2)),
                                   image, atol=1e-7)

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=30, deadline=None)
    def test_preserves_shape_and_range(self, seed):
        rng = np.random.default_rng(seed)
        image = rng.uniform(0, 1, (3, 6, 6)).astype(np.float32)
        out = augment(image, AugmentConfig(), np.random.default_rng(seed))
        assert out.shape == image.shape
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            AugmentConfig(brightness_jitter=(0.0, 1.0)).validate()
        with pytest.raises(ValueError):
            AugmentConfig(brightness_jitter=(1.4, 0.6)).validate()
        with pytest.raises(ValueError):
            AugmentConfig(horizontal_flip_p=1.5).validate()


class TestDatasetDirectory:
    def test_write_load_round_trip(self, tmp_path):
        train, _ = gen_synthetic(3, 4, 32, seed=41)
        root = str(tmp_path / "ds")
        write_dataset(train, root)
        loaded = load_dataset(root, "train")
        assert loaded.class_names == train.class_names
        np.testing.assert_array_equal(loaded.labels, train.labels)
        assert np.abs(loaded.images - train.images).max() <= 0.5 / 255 + 1e-7

    def test_labels_csv_takes_precedence(self, tmp_path):
        train, _ = gen_synthetic(2, 2, 32, seed=43)
        root = str(tmp_path / "ds")
        write_dataset(train, root)
        # rewrite the index to exclude one class's files entirely
        with open(os.path.join(root, "labels.csv")) as fh:
            lines = fh.read().splitlines()
        kept = [lines[0]] + [l for l in lines[1:] if "class_0" in l]
        with open(os.path.join(root, "labels.csv"), "w") as fh:
            fh.write("\n".join(kept) + "\n")
        loaded = load_dataset(root, "test")
        assert loaded.class_names == ["class_0"]
        assert len(loaded) == 2

    def test_empty_directory_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="no images"):
            load_dataset(str(tmp_path), "train")

    def _split_without_class_1(self, tmp_path):
        _, test = gen_synthetic(3, 4, 32, seed=45)
        root = str(tmp_path / "ds")
        write_dataset(test, root)
        shutil.rmtree(os.path.join(root, "class_1"))
        os.remove(os.path.join(root, "labels.csv"))
        return root, test.class_names

    def test_model_classes_keep_labels_of_a_partial_split(self, tmp_path):
        root, names = self._split_without_class_1(tmp_path)
        loaded = load_dataset(root, "test", names)
        assert loaded.class_names == names == ["class_0", "class_1",
                                               "class_2"]
        assert sorted(set(loaded.labels.tolist())) == [0, 2]
        # without the model's classes the split numbers what it holds
        assert sorted(set(load_dataset(root, "test").labels.tolist())) \
            == [0, 1]

    def test_class_unknown_to_the_model_rejected(self, tmp_path):
        root, names = self._split_without_class_1(tmp_path)
        with pytest.raises(UnknownClassError, match="'class_2'"):
            load_dataset(root, "test", names[:2])


class TestDatasetValidation:
    def test_train_split_must_cover_classes(self):
        images = np.zeros((2, 3, 4, 4), dtype=np.float32)
        ds = Dataset(images=images, labels=np.array([0, 0]), split="train",
                     class_names=["a", "b"])
        with pytest.raises(ValueError, match="cover"):
            ds.validate()

    def test_range_validation(self):
        images = np.full((1, 3, 2, 2), 1.5, dtype=np.float32)
        ds = Dataset(images=images, labels=np.array([0]), split="test",
                     class_names=["a"])
        with pytest.raises(ValueError, match="0, 1"):
            ds.validate()
