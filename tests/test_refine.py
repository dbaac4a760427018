import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import prototree.refine as rf
import prototree.tree as tr
from prototree.autodiff import Tensor
from prototree.backbone import BackboneConfig
from prototree.data import Dataset, gen_synthetic
from prototree.model import ProtoTreeModel, build_model

from oracles import assert_same_bits, enumerate_paths, scan_projection

TINY = BackboneConfig(input_side=32, latent_depth=8,
                      stages=((8, 3, 2), (8, 3, 2)))


def make_model(height=2, num_classes=2, seed=0):
    return build_model(TINY, height=height, num_classes=num_classes, seed=seed)


class StubModel:
    """Tree over a constant single-patch latent of zeros, so each node's
    distance is its depth-1 prototype value and the right-edge
    probability is exactly exp(-prototype)."""

    def __init__(self, height, num_classes, p_right):
        topo, bank, leaves = tr.init_tree(height, num_classes, 1, seed=0,
                                          dtype=np.float64)
        bank.tensor.values[:, 0] = -np.log(np.asarray(p_right))
        self.topology = topo
        self.prototypes = bank
        self.leaves = leaves

    @property
    def num_classes(self):
        return self.leaves.num_classes

    def latent(self, images):
        return Tensor(np.zeros((images.shape[0], 1, 1, 1)))

    predict = ProtoTreeModel.predict


class PlantedModel(StubModel):
    """Tree whose latent is the image itself: a 1 x 1 x 1 image holding x
    is one depth-1 patch at distance |x - prototype| from every node.
    Counts its per-image latent passes."""

    def __init__(self, height, num_classes, prototypes):
        super().__init__(height, num_classes, np.ones(2 ** height - 1))
        self.prototypes.tensor.values[:, 0] = prototypes
        self.latent_passes = 0

    def latent(self, images):
        return Tensor(images.astype(np.float64))

    def latents_per_image(self, images):
        self.latent_passes += 1
        return images.astype(np.float64)


class HoldingModel(PlantedModel):
    """A PlantedModel that records, at each latent pass, how many images'
    latents from earlier passes are still alive, plus its own."""

    def __init__(self, *args):
        super().__init__(*args)
        self.passed = []      # weak references to every pass's latents
        self.most_held = 0

    def latents_per_image(self, images):
        latents = super().latents_per_image(images)
        held = sum(len(ref()) for ref in self.passed if ref() is not None)
        self.most_held = max(self.most_held, held + len(latents))
        self.passed.append(weakref.ref(latents))
        return latents


def planted_set(values):
    """One image per value, labelled round-robin over four classes."""
    values = np.asarray(values, dtype=np.float32)
    return Dataset(images=values.reshape(-1, 1, 1, 1),
                   labels=np.arange(len(values)) % 4, split="train",
                   class_names=["a", "b", "c", "d"])


def assert_per_node_scan(model, train, records, protos, rows,
                         constrained=True):
    """Records and projected prototypes are, bit for bit, what the
    per-node scan gives each node of the projected model. ``protos`` holds
    the prototypes before projection and ``rows`` each node's row there.
    A node's pool is the images of the majority classes of the leaves
    below it, or every image when unconstrained or when none has those
    classes. Distances compare by repr, so that a nan equals a nan."""
    latents = model.latents_per_image(train.images)
    majority = model.leaves.distributions().argmax(axis=1)
    want = []
    for node, row in enumerate(rows):
        classes = [majority[l] for l in range(model.topology.num_leaves)
                   if node in dict(model.topology.path_to_leaf(l))]
        pool = np.flatnonzero(np.isin(train.labels, classes))
        applied = constrained and pool.size > 0
        if not applied:
            pool = np.arange(len(train))
        image_id, location, distance = scan_projection(latents, protos[row],
                                                       pool)
        want.append((image_id, location, repr(distance), applied,
                     constrained and not applied))
    assert [(r.image_id, r.location, repr(r.distance), r.constrained,
             r.fallback) for r in records] == want
    for record in records:
        i, j = record.location
        assert_same_bits(model.prototypes.row(record.node_index),
                         latents[record.image_id][:, i, j])


def assert_latent_passes(model, records, n):
    """``project`` read n images' latents in chunks of ``CHUNK``, then
    those of each distinct chosen image once, in chunks of ``CHUNK``."""
    chosen = len({record.image_id for record in records})
    assert model.latent_passes == -(-n // rf.CHUNK) + -(-chosen // rf.CHUNK)


def leaf_depths(topology):
    return topology.depth[topology.num_internal:]


def _fixed_image(side=8):
    return np.full((3, side, side), 0.5, dtype=np.float32)


def decide_one(model, image, strategy):
    """``hard_decision`` for one image, routed as a batch of one."""
    return rf.hard_decision(model, model.predict(model.latent(image[None]))[1],
                            strategy)


def one_leaf_per_class(model, classes):
    logits = np.zeros_like(model.leaves.logits)
    for leaf, cls in enumerate(classes):
        logits[leaf, cls] = 40.0
    model.leaves.logits = logits


class TestPrune:
    def test_confident_leaves_untouched(self):
        model = make_model(height=2, num_classes=4)
        one_leaf_per_class(model, [0, 1, 2, 3])
        with pytest.warns(UserWarning):  # 0.01 is below uniform for K=4
            report = rf.prune(model, tau=0.01)
        assert report.leaves_removed == 0
        assert report.internal_removed == 0
        assert model.topology.num_leaves == 4

    def test_uniform_left_subtree_collapses_to_height_one(self):
        model = make_model(height=2, num_classes=4)
        logits = np.zeros_like(model.leaves.logits)
        logits[2, 0] = logits[3, 1] = 40.0  # right leaves confident
        model.leaves.logits = logits        # left leaves exactly uniform
        report = rf.prune(model, tau=rf.default_tau(4))
        assert report.leaves_removed == 2
        assert report.internal_removed == 2  # the left child and the root
        assert abs(report.fraction_pruned - 2 / 3) < 1e-12
        assert model.topology.num_internal == 1
        assert model.topology.num_leaves == 2
        assert model.prototypes.tensor.shape[0] == 1
        model.topology.validate()

    def test_single_uniform_leaf_splices_parent(self):
        model = make_model(height=2, num_classes=4)
        logits = np.zeros_like(model.leaves.logits)
        logits[0, 0] = logits[2, 2] = logits[3, 3] = 40.0
        model.leaves.logits = logits  # only leaf 1 is uniform
        report = rf.prune(model, tau=rf.default_tau(4))
        assert report.leaves_removed == 1
        assert report.internal_removed == 1
        topo = model.topology
        topo.validate()
        # every surviving internal node still has two children
        assert topo.num_internal == 2
        assert topo.num_leaves == 3
        assert sorted(leaf_depths(topo).tolist()) == [1, 2, 2]

    def test_collapse_to_single_leaf_stays_functional(self):
        model = make_model(height=1, num_classes=2)
        model.leaves.logits = np.array([[9.0, 0.0], [0.0, 0.0]])
        report = rf.prune(model, tau=0.55)
        assert report.leaves_removed == 1 and report.internal_removed == 1
        assert model.topology.num_internal == 0
        assert model.topology.num_leaves == 1
        train, _ = gen_synthetic(2, 2, 32, seed=7)
        assert rf.project(model, train) == []
        pred = rf.evaluate(model, train, "soft").soft
        np.testing.assert_allclose(pred.sum(axis=1), 1.0, atol=1e-6)

    def test_pruning_everything_rejected(self):
        model = make_model(height=2, num_classes=4)
        before = model.leaves.logits.copy()
        with pytest.raises(ValueError, match="every leaf"):
            rf.prune(model, tau=0.5)
        np.testing.assert_array_equal(model.leaves.logits, before)
        assert model.topology.num_leaves == 4

    def test_nan_tau_rejected_by_name(self):
        model = make_model(height=2, num_classes=2)
        logits = model.leaves.logits.copy()
        with pytest.raises(ValueError, match="tau must be a number, got nan"):
            rf.prune(model, float("nan"))
        np.testing.assert_array_equal(model.leaves.logits, logits)

    def test_low_tau_warns(self):
        model = make_model(height=1, num_classes=2)
        one_leaf_per_class(model, [0, 1])
        with pytest.warns(UserWarning, match="uniform"):
            rf.prune(model, tau=0.25)

    @pytest.mark.parametrize("k, confident, tau, removed", [
        (4, [0], 0.25, 3),      # the uniform leaves sit exactly at tau
        (2, [], 0.5, None),     # every leaf uniform: nothing survives
    ])
    def test_tau_at_uniform_prunes_without_warning(self, k, confident, tau,
                                                   removed):
        model = make_model(height=2, num_classes=k)
        one_leaf_per_class(model, confident)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if removed is None:
                with pytest.raises(ValueError, match="every leaf"):
                    rf.prune(model, tau=tau)
            else:
                assert rf.prune(model, tau=tau).leaves_removed == removed

    def test_default_tau(self):
        assert rf.default_tau(200) == 0.01
        assert abs(rf.default_tau(8) - 0.15) < 1e-12


class TestHardPredict:
    def test_height_one_both_strategies_go_right(self):
        model = StubModel(1, 2, [0.7])
        one_leaf_per_class(model, [0, 1])
        image = _fixed_image()
        for strategy in ("max_path", "greedy"):
            dist, leaf, path = decide_one(model, image, strategy)
            assert leaf == 1
            assert len(path) == 1
            node, went_right, p = path[0]
            assert went_right and abs(p - 0.7) < 1e-9

    def test_height_two_hand_trace(self):
        model = StubModel(2, 4, [0.6, 0.5, 0.25])
        one_leaf_per_class(model, [0, 1, 2, 3])
        image = _fixed_image()
        dist, leaf, path = decide_one(model, image, "greedy")
        assert leaf == 2  # right at root, left at the right child
        assert [w for _, w, _ in path] == [True, False]
        dist, leaf, path = decide_one(model, image, "max_path")
        assert leaf == 2  # pi = (.2, .2, .45, .15)

    def test_constructed_disagreement(self):
        model = StubModel(2, 4, [0.55, 0.02, 0.5])
        one_leaf_per_class(model, [0, 1, 2, 3])
        image = _fixed_image()
        _, greedy_leaf, greedy_path = decide_one(model, image, "greedy")
        _, max_leaf, _ = decide_one(model, image, "max_path")
        assert greedy_leaf != max_leaf
        # verify the max-path choice by exhaustive enumeration
        edge = model.predict(model.latent(image[None]))[1].edge_right
        best_leaf, best_prob = None, -1.0
        for leaf, path in enumerate_paths(model.topology):
            prob = 1.0
            for node, went_right in path:
                prob *= edge[0, node] if went_right else 1.0 - edge[0, node]
            if prob > best_prob:
                best_leaf, best_prob = leaf, prob
        assert max_leaf == best_leaf

    def test_greedy_path_is_valid_root_to_leaf(self):
        model = make_model(height=3, num_classes=4, seed=3)
        rng = np.random.default_rng(5)
        model.leaves.logits = rng.uniform(0, 5, model.leaves.logits.shape)
        image = rng.uniform(0, 1, (3, 32, 32)).astype(np.float32)
        _, leaf, path = decide_one(model, image, "greedy")
        col = model.topology.root
        for node, went_right, _ in path:
            assert node == col
            col = int(model.topology.right[node]) if went_right \
                else int(model.topology.left[node])
        assert col == model.topology.num_internal + leaf

    def test_exact_half_goes_left(self):
        model = StubModel(1, 2, [0.7])
        one_leaf_per_class(model, [0, 1])
        # plant the prototype so the distance is exactly -log(0.5)
        model.prototypes.tensor.values[0, 0] = np.log(2.0)
        image = _fixed_image()
        _, leaf, path = decide_one(model, image, "greedy")
        p = path[0][2]
        if p == 0.5:  # exp(-log 2) may round off exact half
            assert leaf == 0
        else:
            assert leaf == (1 if p > 0.5 else 0)

    def test_unknown_strategy_rejected(self):
        model = make_model()
        with pytest.raises(ValueError, match="strategy"):
            decide_one(model, _fixed_image(32), "softish")

    def test_batch_greedy_matches_per_image(self):
        rng = np.random.default_rng(31)
        model = PlantedModel(3, 4, rng.uniform(0, 1, 7))
        images = rng.uniform(0, 1, (40, 1, 1, 1)).astype(np.float32)
        edge = model.predict(model.latent(images))[1].edge_right
        batch = model.topology.greedy_leaves(edge)
        single = [decide_one(model, image, "greedy")[1]
                  for image in images]
        walked = []
        for row in edge:
            col, m = model.topology.root, model.topology.num_internal
            while col < m:
                col = model.topology.right[col] if row[col] > 0.5 \
                    else model.topology.left[col]
            walked.append(col - m)
        assert batch.tolist() == single == walked
        assert len(set(single)) >= 3


class TestFidelity:
    def test_soft_vs_itself_is_one(self):
        model = make_model(num_classes=3)
        train, _ = gen_synthetic(3, 4, 32, seed=71)
        result = rf.evaluate(model, train, "soft")
        assert result.fidelity == 1.0 and result.depths is None
        soft = model.predict(model.latent(train.images))[0].values
        assert result.accuracy == (soft.argmax(1) == train.labels).mean()

    def test_empty_dataset_rejected(self):
        model = make_model()
        empty = Dataset(images=np.zeros((0, 3, 32, 32), dtype=np.float32),
                        labels=np.zeros(0, dtype=np.int64), split="test",
                        class_names=["a", "b"])
        for strategy in ("soft", "greedy"):
            with pytest.raises(ValueError, match="empty"):
                rf.evaluate(model, empty, strategy)

    def test_agreement_fraction_counts(self):
        model = make_model(height=2, num_classes=4, seed=9)
        one_leaf_per_class(model, [0, 1, 2, 3])
        train, _ = gen_synthetic(4, 5, 32, seed=73)
        fid = rf.evaluate(model, train, "max_path").fidelity
        soft = model.predict(model.latent(train.images))[0].values.argmax(1)
        hard = np.array([np.argmax(decide_one(model, img, "max_path")[0])
                         for img in train.images])
        assert fid == (soft == hard).mean()

    def test_agreement_of_class_arrays(self):
        soft = np.array([0, 1, 2, 2, 1])
        assert rf.fidelity(soft, soft) == 1.0
        assert rf.fidelity(soft, np.array([0, 1, 0, 2, 0])) == 3 / 5


class TestEvaluate:
    @pytest.mark.parametrize("strategy", ["max_path", "greedy"])
    @pytest.mark.parametrize("chunk", [256, 7])
    def test_matches_per_image_predictions(self, monkeypatch, strategy,
                                           chunk):
        monkeypatch.setattr(rf, "CHUNK", chunk)
        rng = np.random.default_rng(37)
        model = PlantedModel(3, 4, rng.uniform(0, 1, 7))
        model.leaves.logits = rng.uniform(0, 5, model.leaves.logits.shape)
        dataset = planted_set(rng.uniform(0, 1, 40))
        result = rf.evaluate(model, dataset, strategy)
        picks = [decide_one(model, image, strategy)
                 for image in dataset.images]
        hard = np.array([dist.argmax() for dist, _, _ in picks])
        soft = np.array([model.predict(model.latent(image[None]))[0].values[0]
                         .argmax() for image in dataset.images])
        assert result.accuracy == (hard == dataset.labels).mean()
        assert result.fidelity == (hard == soft).mean()
        assert 0 < result.fidelity < 1
        depths = leaf_depths(model.topology)
        assert result.depths.tolist() == [depths[leaf] for _, leaf, _ in picks]

    @pytest.mark.parametrize("strategy", ["soft", "max_path", "greedy"])
    def test_soft_rows_are_one_image_predictions(self, monkeypatch, strategy):
        monkeypatch.setattr(rf, "CHUNK", 7)
        model = make_model(height=3, num_classes=3, seed=19)
        model.leaves.logits = np.random.default_rng(41).uniform(
            0, 5, model.leaves.logits.shape)
        train, _ = gen_synthetic(3, 4, 32, seed=43)     # 12 images, 2 chunks
        result = rf.evaluate(model, train, strategy)
        rows = [model.predict(model.latent(image[None]))[0].values
                for image in train.images]
        assert result.soft.shape == (12, 3)
        assert_same_bits(result.soft, np.concatenate(rows))

    def test_unknown_strategy_rejected(self):
        model = PlantedModel(2, 4, [0.2, 0.4, 0.6])
        with pytest.raises(ValueError, match="strategy"):
            rf.evaluate(model, planted_set([0.1, 0.5]), "softish")

    def test_greedy_depths_of_pruned_tree(self):
        model = PlantedModel(2, 4, [0.2, 0.4, 0.6])
        one_leaf_per_class(model, [0, 1, 2, 3])
        model.leaves.logits[1] = 0.0              # uniform leaf under node 1
        rf.prune(model, tau=rf.default_tau(4))
        assert leaf_depths(model.topology).tolist() == [1, 2, 2]
        # the root goes right, to the depth-2 leaves, when |x - 0.2| < ln 2
        dataset = planted_set([0.1, 1.5, 0.7, 0.3])
        depths = rf.evaluate(model, dataset, "greedy").depths
        assert depths.tolist() == [2, 1, 2, 2]


class TestEnsemble:
    def test_identical_copies_match_single(self):
        model = make_model(num_classes=3, seed=11)
        train, _ = gen_synthetic(3, 3, 32, seed=79)
        single = rf.evaluate(model, train, "soft").soft
        triple = rf.ensemble_mean([single, single, single])
        np.testing.assert_allclose(triple, single, atol=1e-6)

    def test_hand_mean(self):
        members = [np.tile(np.float32(row), (3, 1))
                   for row in ([0.8, 0.2], [0.4, 0.6])]
        out = rf.ensemble_mean(members)
        np.testing.assert_allclose(out, [[0.6, 0.4]] * 3, atol=1e-7)

    def test_mixed_class_counts_rejected(self):
        images = np.zeros((1, 3, 32, 32), dtype=np.float32)
        members = [m.predict(m.latent(images))[0].values
                   for m in (make_model(num_classes=k) for k in (2, 3))]
        with pytest.raises(ValueError, match="class count"):
            rf.ensemble_mean(members)


class TestPathLengthStats:
    def test_full_tree_constant_depth(self):
        model = make_model(height=3, num_classes=4, seed=13)
        one_leaf_per_class(model, [0, 1, 2, 3, 0, 1, 2, 3])
        train, _ = gen_synthetic(4, 3, 32, seed=83)
        depths = rf.evaluate(model, train, "greedy").depths
        assert (depths.mean(), depths.std(), depths.min(), depths.max()) \
            == (3.0, 0.0, 3, 3)

    def test_pruned_asymmetric_depths(self):
        model = make_model(height=2, num_classes=4)
        logits = np.zeros_like(model.leaves.logits)
        logits[0, 0] = logits[2, 2] = logits[3, 3] = 40.0
        model.leaves.logits = logits
        rf.prune(model, tau=rf.default_tau(4))
        train, _ = gen_synthetic(4, 3, 32, seed=89)
        depths = rf.evaluate(model, train, "greedy").depths
        assert depths.min() >= 1 and depths.max() <= 2


class TestProjection:
    def _small_setup(self):
        model = make_model(height=2, num_classes=2, seed=17)
        train, _ = gen_synthetic(2, 3, 32, seed=97)
        return model, train

    def test_prototypes_equal_latent_patches_bit_exact(self):
        model, train = self._small_setup()
        records = rf.project(model, train, constrained=False)
        latents = model.latents_per_image(train.images)
        for record in records:
            row = model.prototypes.row(record.node_index)
            i, j = record.location
            np.testing.assert_array_equal(
                row, latents[record.image_id][:, i, j])

    def test_matches_brute_force_oracle(self):
        model, train = self._small_setup()
        protos = model.prototypes.tensor.values.copy()
        rows = np.arange(model.topology.num_internal)
        records = rf.project(model, train, constrained=False)
        assert_per_node_scan(model, train, records, protos, rows,
                             constrained=False)

    @pytest.mark.parametrize("case", ["constrained", "fallback",
                                      "tie_across_images", "over_one_chunk"])
    def test_records_match_per_node_scan(self, case):
        model = make_model(height=2, num_classes=3, seed=17)
        train, _ = gen_synthetic(2, 150 if case == "over_one_chunk" else 3,
                                 32, seed=97)
        # leaves 0 and 1 claim class 2, which no training image has
        one_leaf_per_class(model, [2, 2, 0, 1] if case == "fallback"
                           else [0, 1, 1, 0])
        if case == "tie_across_images":
            train = Dataset(np.concatenate([train.images, train.images]),
                            np.concatenate([train.labels, train.labels]),
                            "train", train.class_names)
        if case == "over_one_chunk":
            # image 280, past the first 256 images, holds node 0's patch
            model.prototypes.tensor.values[0] = \
                model.latents_per_image(train.images[280:281])[0][:, 2, 1]
        protos = model.prototypes.tensor.values.copy()
        rows = np.arange(model.topology.num_internal)
        records = rf.project(model, train)
        assert_per_node_scan(model, train, records, protos, rows)
        assert any(r.fallback for r in records) == (case == "fallback")
        if case == "tie_across_images":
            assert all(r.image_id < len(train) // 2 for r in records)
        if case == "over_one_chunk":
            assert (records[0].image_id, records[0].location,
                    records[0].distance) == (280, (2, 1), 0.0)

    def test_exact_match_is_fixed_point(self):
        model, train = self._small_setup()
        latents = model.latents_per_image(train.images)
        model.prototypes.tensor.values[0] = latents[1][:, 0, 1]
        records = rf.project(model, train, constrained=False)
        assert records[0].distance == 0.0
        np.testing.assert_array_equal(model.prototypes.row(0),
                                      latents[1][:, 0, 1])

    def test_idempotent_bit_exact(self):
        model, train = self._small_setup()
        first = rf.project(model, train, constrained=False)
        after_first = model.prototypes.tensor.values.copy()
        second = rf.project(model, train, constrained=False)
        np.testing.assert_array_equal(model.prototypes.tensor.values,
                                      after_first)
        assert [(r.image_id, r.location) for r in first] == \
            [(r.image_id, r.location) for r in second]
        assert all(r.distance == 0.0 for r in second)

    def test_constrained_pool_restricts_classes(self):
        model, train = self._small_setup()
        one_leaf_per_class(model, [0, 0, 0, 0])  # every leaf claims class 0
        records = rf.project(model, train, constrained=True)
        class0 = set(np.flatnonzero(train.labels == 0).tolist())
        for record in records:
            assert record.constrained and not record.fallback
            assert record.image_id in class0

    def test_records_flag_constrained_mode(self):
        model, train = self._small_setup()
        records = rf.project(model, train, constrained=False)
        assert all(not r.constrained for r in records)


class TestDeadNodeCollapse:
    """Projection collapses a node whose p_right <= DEAD_NODE_EPS on every
    training image into its left child instead of projecting it."""

    # distance at which p_right = exp(-distance) equals DEAD_NODE_EPS
    DEAD_DISTANCE = -np.log(rf.DEAD_NODE_EPS)

    def test_far_prototype_collapsed_into_left_child(self):
        model = make_model(height=2, num_classes=2, seed=17)
        train, _ = gen_synthetic(2, 3, 32, seed=97)
        model.leaves.logits = np.random.default_rng(3).uniform(
            0, 4, model.leaves.logits.shape)
        logits = model.leaves.logits.copy()
        # latents are sigmoid outputs in [0, 1]: every patch lies at
        # least 2 * sqrt(8) from a prototype of all threes
        model.prototypes.tensor.values[1] = 3.0
        protos = model.prototypes.tensor.values.copy()
        rows = np.arange(model.topology.num_internal)
        with pytest.warns(UserWarning, match=r"nodes \[1\].*left"):
            records = rf.project(model, train)
        topo = model.topology
        topo.validate()
        assert (topo.num_internal, topo.num_leaves) == (2, 3)
        assert topo.left[topo.root] == topo.num_internal   # leaf 0
        np.testing.assert_array_equal(model.leaves.logits, logits[[0, 2, 3]])
        assert [r.node_index for r in records] == [0, 1]
        assert model.projection_images.shape[0] == 2
        assert_per_node_scan(model, train, records, protos, rows[[0, 2]])

    def test_training_predictions_move_at_most_two_eps(self):
        values = [0.0, 0.5, 0.1, 0.2, 0.3, 0.6, 0.9, 1.0]
        train = planted_set(values)
        # root dead; node 1 already sits on a patch, so projecting it is a
        # fixed point and only the collapse moves the predictions
        model = PlantedModel(2, 4, [1.0 + 1.0001 * self.DEAD_DISTANCE,
                                    values[1], 0.5])
        one_leaf_per_class(model, [0, 1, 2, 3])
        before = rf.evaluate(model, train, "soft").soft
        p_right = np.exp(-np.abs(np.asarray(values)
                                 - model.prototypes.row(0)[0]))
        assert p_right.max() <= rf.DEAD_NODE_EPS
        with pytest.warns(UserWarning, match=r"nodes \[0\]"):
            records = rf.project(model, train)
        assert_latent_passes(model, records, len(train))
        assert model.topology.num_internal == 1
        assert [(r.node_index, r.image_id, r.distance) for r in records] \
            == [(0, 1, 0.0)]
        moved = np.abs(rf.evaluate(model, train, "soft").soft - before) \
            .sum(axis=1)
        assert moved.max() <= 2 * rf.DEAD_NODE_EPS
        # left and right leaves share no class, so the bound is nearly met
        assert moved.max() > 1.99 * rf.DEAD_NODE_EPS

    @pytest.mark.parametrize("factor,collapsed", [(0.999, False),
                                                  (1.001, True)])
    def test_live_node_outside_its_pool_never_collapsed(self, factor,
                                                        collapsed):
        # image 0 (class 0) is the only patch within reach of node 2; node
        # 2's constrained pool is classes 2 and 3, all at most 0.5
        train = planted_set([1.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.05, 0.15])
        model = PlantedModel(2, 4, [0.3, 0.4,
                                    1.0 + factor * self.DEAD_DISTANCE])
        one_leaf_per_class(model, [0, 1, 2, 3])
        protos = model.prototypes.tensor.values.copy()
        rows = np.arange(model.topology.num_internal)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            records = rf.project(model, train)
        assert_latent_passes(model, records, len(train))
        assert bool(caught) == collapsed
        assert model.topology.num_internal == (2 if collapsed else 3)
        assert len(records) == model.topology.num_internal
        assert_per_node_scan(model, train, records, protos,
                             rows[:2] if collapsed else rows)
        if not collapsed:
            assert records[2].constrained
            assert train.labels[records[2].image_id] in (2, 3)

    @pytest.mark.parametrize("constrained", [True, False])
    def test_nested_dead_nodes_cut_where_paths_go_right(self, constrained):
        train = planted_set([0.0, 0.5, 0.1, 0.2, 0.3, 0.6, 0.9, 1.0])
        model = PlantedModel(3, 4, [0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9])
        one_leaf_per_class(model, [0, 1, 2, 3, 3, 2, 1, 0])
        topo = model.topology
        # node 1, its left child (node 2 in preorder) and its right child
        dead = [1, 2, int(topo.right[1])]
        assert sorted(dead) == [1, 2, 3]
        model.prototypes.tensor.values[dead, 0] = \
            1.0 + 1.001 * self.DEAD_DISTANCE
        protos = model.prototypes.tensor.values.copy()
        keep = np.array([not any(went_right and node in dead
                                 for node, went_right in path)
                         for _, path in enumerate_paths(topo)])
        want, nodes, _ = topo.keeping(keep)
        with pytest.warns(UserWarning, match=r"nodes \[1, 2, 3\]"):
            records = rf.project(model, train, constrained=constrained)
        got = model.topology
        assert (got.left.tolist(), got.right.tolist(), got.root) == \
            (want.left.tolist(), want.right.tolist(), want.root)
        assert len(records) == got.num_internal == 4
        assert_per_node_scan(model, train, records, protos, nodes,
                             constrained=constrained)

    @pytest.mark.parametrize("constrained", [True, False])
    @pytest.mark.parametrize("chunk", [1, 3, 256])
    @pytest.mark.parametrize("case", ["dead", "nan"])
    def test_streams_chunks_of_latents_in_one_pass(self, monkeypatch, case,
                                                   constrained, chunk):
        """The table pass reads every image once and the patch pass each
        chosen image once, both holding at most ``CHUNK`` latents."""
        monkeypatch.setattr(rf, "CHUNK", chunk)
        # ties across chunks (0.5 and 0.1 twice) and a label past the
        # class count; node 2 is dead, unless a nan image keeps every
        # node alive
        values = [0.5, 0.1, 0.9, 0.5, 0.2, 0.1, 0.3, 0.7, 0.05, 0.6]
        if case == "nan":
            values[4] = np.nan
        train = planted_set(values)
        train = Dataset(train.images, np.asarray([0, 1, 2, 3, 1, 0, 5, 2, 3,
                                                  1]), "train",
                        train.class_names)
        model = HoldingModel(2, 4, [0.5, 0.3,
                                    1.0 + 1.001 * self.DEAD_DISTANCE])
        one_leaf_per_class(model, [0, 1, 2, 3])
        protos = model.prototypes.tensor.values.copy()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            records = rf.project(model, train, constrained=constrained)
        assert [str(w.message)[:9] for w in caught] == \
            (["nodes [2]"] if case == "dead" else [])
        assert_latent_passes(model, records, len(values))
        assert model.most_held <= chunk
        assert_per_node_scan(model, train, records, protos,
                             np.arange(model.topology.num_internal),
                             constrained=constrained)

    def test_empty_training_set_rejected(self):
        model = PlantedModel(2, 4, [0.3, 0.4, 0.5])
        with pytest.raises(ValueError, match="non-empty"):
            rf.project(model, planted_set([]))

    @pytest.mark.parametrize("constrained", [True, False])
    def test_nan_prototype_is_never_dead(self, constrained):
        train = planted_set([0.0, 0.5, 0.1, 0.2, 0.3, 0.6, 0.9, 1.0])
        model = PlantedModel(2, 4, [0.3, np.nan, 0.5])
        one_leaf_per_class(model, [0, 1, 2, 3])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            records = rf.project(model, train, constrained=constrained)
        assert not [w for w in caught if w.category is UserWarning]
        assert model.topology.num_internal == len(records) == 3
        assert np.isnan(records[1].distance)

    def test_labels_at_or_above_class_count_in_no_pool(self):
        # four labels for a two-class model: labels 2 and 3 are in no pool
        train = planted_set([0.0, 0.5, 0.1, 0.2, 0.3, 0.6, 0.9, 1.0])
        model = PlantedModel(2, 2, [0.3, 0.45, 0.95])
        one_leaf_per_class(model, [0, 1, 1, 0])
        protos = model.prototypes.tensor.values.copy()
        records = rf.project(model, train)
        assert all(r.constrained for r in records)
        assert all(train.labels[r.image_id] < 2 for r in records)
        assert_per_node_scan(model, train, records, protos, np.arange(3))


# a prototype this far from every image value in [0, 1] is dead
FAR_PROTOTYPE = 1.0 + 1.001 * TestDeadNodeCollapse.DEAD_DISTANCE


@st.composite
def projection_cases(draw):
    """A planted tree of height 1 to 3 over K classes, with dead
    prototypes among the live ones, and 1 to 12 images labelled up to
    K + 1, some of them nan; few distinct values make ties common."""
    height = draw(st.integers(1, 3))
    k = draw(st.integers(2, 4))
    m = 2 ** height - 1
    model = draw(st.sampled_from([PlantedModel, HoldingModel]))(
        height, k, draw(st.lists(
            st.sampled_from([0.0, 0.25, 0.5, 1.0, FAR_PROTOTYPE])
            | st.floats(0, 1), min_size=m, max_size=m)))
    one_leaf_per_class(model, draw(st.lists(
        st.integers(0, k - 1), min_size=m + 1, max_size=m + 1)))
    n = draw(st.integers(1, 12))
    values = draw(st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0, np.nan])
                           | st.floats(0, 1, width=32),
                           min_size=n, max_size=n))
    labels = draw(st.lists(st.integers(0, k + 1), min_size=n, max_size=n))
    train = Dataset(np.asarray(values, dtype=np.float32).reshape(-1, 1, 1, 1),
                    np.asarray(labels), "train",
                    [f"c{i}" for i in range(k + 2)])
    return model, train


class TestProjectionProperty:
    @given(case=projection_cases(), chunk=st.sampled_from([1, 3, 256]),
           constrained=st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_matches_per_node_scan_in_two_chunked_passes(self, case, chunk,
                                                         constrained):
        model, train = case
        topo = model.topology
        protos = model.prototypes.tensor.values.copy()
        # a nan image is nearest to every prototype, so none is dead
        dead = [] if np.isnan(train.images).any() else \
            np.flatnonzero(protos[:, 0] == FAR_PROTOTYPE).tolist()
        keep = np.array([not any(went_right and node in dead
                                 for node, went_right in path)
                         for _, path in enumerate_paths(topo)])
        want, nodes, _ = topo.keeping(keep)
        with pytest.MonkeyPatch.context() as patch, \
                warnings.catch_warnings(record=True) as caught:
            patch.setattr(rf, "CHUNK", chunk)
            warnings.simplefilter("always")
            records = rf.project(model, train, constrained=constrained)
            assert_latent_passes(model, records, len(train))
        assert [str(w.message).split(" have")[0] for w in caught] == \
            ([f"nodes {dead}"] if dead else [])
        if isinstance(model, HoldingModel):
            assert model.most_held <= chunk
        got = model.topology
        assert (got.left.tolist(), got.right.tolist(), got.root) == \
            (want.left.tolist(), want.right.tolist(), want.root)
        assert_per_node_scan(model, train, records, protos, nodes,
                             constrained=constrained)
