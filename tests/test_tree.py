import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import prototree.autodiff as ad
import prototree.tree as tr
from prototree.autodiff import Tape, Tensor
from prototree.backbone import BackboneConfig
from prototree.data import gen_synthetic
from prototree.model import ProtoTreeModel, build_model
from prototree.train import cross_entropy

from oracles import assert_same_bits, enumerate_paths, \
    finite_difference_grad, leaf_probabilities_from_edges, \
    max_relative_error, recursive_keeping, scan_min_patch_distances, \
    scan_nearest_patch, scatter_min_patch_grad, unfused_predict, weighted_sum


def tree_with_edge_probs(p_right_per_node, num_classes=2, height=None):
    """A tree whose routing realizes the given right-edge probabilities.

    Uses depth-1 prototypes against a single constant-zero latent patch,
    so each node's distance is its prototype value: p = exp(-proto).
    """
    m = len(p_right_per_node)
    height = height or int(np.log2(m + 1))
    topo, bank, leaves = tr.init_tree(height, num_classes, 1, seed=0,
                                      dtype=np.float64)
    assert topo.num_internal == m
    bank.tensor.values[:, 0] = -np.log(np.asarray(p_right_per_node))
    latent = Tensor(np.zeros((1, 1, 1, 1)))
    return topo, bank, leaves, latent


def predict(topo, bank, leaves, latent):
    """``ProtoTreeModel.predict`` of a tree without a backbone."""
    return ProtoTreeModel(None, topo, bank, leaves, seed=0).predict(latent)


def unbalanced_topology():
    """A pruned shape with leaves at depths 1, 3, 3 and 2: node 0 splits
    into leaf 0 and node 1, node 1 into node 2 and leaf 3, node 2 into
    leaves 1 and 2. Leaf l is column 3 + l."""
    return tr.TreeTopology(left=np.array([3, 2, 4]),
                           right=np.array([1, 6, 5]), root=0)


def mirrored(topo):
    """Every node's children swapped: no longer numbered in preorder."""
    return tr.TreeTopology(left=topo.right.copy(), right=topo.left.copy(),
                           root=topo.root)


class TestInitTree:
    def test_counts_height_three(self):
        topo, bank, leaves = tr.init_tree(3, 4, 8, seed=1)
        assert topo.num_leaves == 8
        assert topo.num_internal == 7
        assert bank.tensor.shape == (7, 8)

    def test_initial_distributions_uniform(self):
        _, _, leaves = tr.init_tree(2, 5, 3, seed=2)
        np.testing.assert_array_equal(leaves.distributions(),
                                      np.full((4, 5), 0.2))

    def test_prototype_sampling_stats(self):
        _, bank, _ = tr.init_tree(9, 2, 16, seed=3)
        values = bank.tensor.values
        assert abs(values.mean() - 0.5) < 0.02
        assert abs(values.std() - 0.1) < 0.02

    def test_deterministic_per_seed(self):
        _, a, _ = tr.init_tree(4, 3, 8, seed=7)
        _, b, _ = tr.init_tree(4, 3, 8, seed=7)
        np.testing.assert_array_equal(a.tensor.values, b.tensor.values)

    @pytest.mark.parametrize("height", range(1, 10))
    def test_numbers_nodes_and_leaves_in_preorder(self, height):
        topo, _, _ = tr.init_tree(height, 2, 1, seed=0)
        m = topo.num_internal
        assert m == 2 ** height - 1
        # a left-first walk meets nodes 0, 1, ... and leaves 0, 1, ...
        order = []

        def walk(col):
            order.append(col)
            if col < m:
                walk(int(topo.left[col]))
                walk(int(topo.right[col]))

        walk(topo.root)
        order = np.asarray(order)
        np.testing.assert_array_equal(order[order < m], np.arange(m))
        np.testing.assert_array_equal(order[order >= m],
                                      np.arange(m, 2 * m + 1))
        np.testing.assert_array_equal(topo.preorder, order)
        assert topo.depth[topo.num_internal:].tolist() == [height] * (m + 1)

    def test_validates_arguments(self):
        with pytest.raises(ValueError):
            tr.init_tree(0, 2, 4, seed=0)
        with pytest.raises(ValueError):
            tr.init_tree(2, 1, 4, seed=0)


def routed_nearest_patch(latent, proto):
    """((i, j), distance) of the patch that routing measures for one
    D x H x W latent and one prototype: a one-node tree's trace, and the
    root of the squared distance that route exponentiates."""
    topo, bank, _ = tr.init_tree(1, 2, len(proto), seed=0)
    bank = tr.PrototypeBank(Tensor(np.asarray(proto)[None]))
    latent = np.asarray(latent)[None]
    trace = tr.route(topo, bank, Tensor(latent))
    squared, _ = tr.min_patch_distances(latent, bank.tensor.values)
    return tuple(trace.locations[0, 0].tolist()), float(np.sqrt(squared[0, 0]))


class TestNearestPatch:
    """The nearest patch recorded in a routing trace."""

    def test_exact_match_distance_zero(self):
        latent = np.random.default_rng(4).uniform(0, 1, (5, 3, 3))
        (i, j), dist = routed_nearest_patch(latent, latent[:, 1, 1].copy())
        assert (i, j) == (1, 1)
        assert dist == 0.0

    def test_two_by_two_example(self):
        latent = np.array([[[0.1, 0.2], [0.3, 0.9]]])
        (i, j), dist = routed_nearest_patch(latent, np.array([0.25]))
        assert (i, j) == (0, 1)
        assert abs(dist - 0.05) < 1e-12

    def test_tie_breaks_row_major(self):
        latent = np.full((2, 3, 3), 0.4)
        (i, j), _ = routed_nearest_patch(latent, np.array([0.7, 0.1]))
        assert (i, j) == (0, 0)

    def test_matches_exhaustive_scan(self):
        rng = np.random.default_rng(5)
        latent = rng.uniform(0, 1, (6, 4, 5))
        proto = rng.uniform(0, 1, 6)
        loc, dist = routed_nearest_patch(latent, proto)
        oracle_loc, oracle_dist = scan_nearest_patch(latent, proto)
        assert loc == oracle_loc
        assert abs(dist - oracle_dist) < 1e-9

    def test_depth_mismatch_rejected(self):
        with pytest.raises(ValueError, match="depth"):
            routed_nearest_patch(np.ones((3, 2, 2)), np.ones(4))


def routed_edge_probability(distance):
    """p_right that route gives a node whose nearest patch is at distance."""
    topo, bank, _ = tr.init_tree(1, 2, 1, seed=0, dtype=np.float64)
    bank.tensor.values[0, 0] = distance
    trace = tr.route(topo, bank, Tensor(np.zeros((1, 1, 1, 1))))
    return float(trace.edge_right[0, 0])


class TestEdgeProbability:
    def test_zero_distance(self):
        assert routed_edge_probability(0.0) == 1.0

    def test_ln_two(self):
        assert abs(routed_edge_probability(np.log(2.0)) - 0.5) < 1e-12

    def test_unit_distance(self):
        assert abs(routed_edge_probability(1.0) - 0.36788) < 1e-5


class TestRoute:
    def test_single_split(self):
        topo, bank, _, latent = tree_with_edge_probs([0.7])
        trace = tr.route(topo, bank, latent)
        np.testing.assert_allclose(trace.leaf_probabilities.values[0],
                                   [0.3, 0.7], atol=1e-9)

    def test_height_two_hand_product(self):
        # root 0.6 right; left child 0.5; right child 0.25
        topo, bank, _, latent = tree_with_edge_probs([0.6, 0.5, 0.25])
        trace = tr.route(topo, bank, latent)
        np.testing.assert_allclose(trace.leaf_probabilities.values[0],
                                   [0.2, 0.2, 0.45, 0.15], atol=1e-9)

    def test_sums_to_one_random(self):
        rng = np.random.default_rng(6)
        for height in (1, 2, 4):
            topo, bank, _ = tr.init_tree(height, 3, 5, seed=height)
            latent = Tensor(rng.uniform(0, 1, (7, 5, 3, 4)))
            trace = tr.route(topo, bank, latent)
            np.testing.assert_allclose(
                trace.leaf_probabilities.values.sum(axis=1), 1.0, atol=1e-6)

    def test_matches_edge_product_oracle(self):
        rng = np.random.default_rng(7)
        topo, bank, _ = tr.init_tree(3, 2, 4, seed=9)
        latent = Tensor(rng.uniform(0, 1, (5, 4, 2, 2)))
        trace = tr.route(topo, bank, latent)
        oracle = leaf_probabilities_from_edges(topo, trace.edge_right)
        np.testing.assert_allclose(trace.leaf_probabilities.values, oracle,
                                   atol=1e-7)

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=25, deadline=None)
    def test_sums_to_one_property(self, seed):
        rng = np.random.default_rng(seed)
        height = int(rng.integers(1, 5))
        topo, bank, _ = tr.init_tree(height, 2, 3, seed=seed % 97)
        latent = Tensor(rng.uniform(0, 1, (2, 3, 2, 3)).astype(np.float32))
        trace = tr.route(topo, bank, latent)
        assert np.abs(trace.leaf_probabilities.values.sum(axis=1) - 1.0).max() \
            < 1e-6

    def test_unbatched_latent_rejected(self):
        topo, bank, _ = tr.init_tree(2, 2, 3, seed=0, dtype=np.float64)
        with pytest.raises(ValueError, match="batched N x D x H x W"):
            tr.route(topo, bank, Tensor(np.ones((3, 2, 2))))


class TestPredict:
    def test_equal_leaves_collapse(self):
        topo, bank, leaves, latent = tree_with_edge_probs([0.6, 0.5, 0.25],
                                                          num_classes=3)
        leaves.logits[:] = np.log(np.array([0.5, 0.3, 0.2]))
        y_hat, _ = predict(topo, bank, leaves, latent)
        np.testing.assert_allclose(y_hat.values[0], [0.5, 0.3, 0.2], atol=1e-7)

    def test_concentrated_path_selects_leaf(self):
        topo, bank, leaves, latent = tree_with_edge_probs([0.999, 0.001, 0.999])
        leaves.logits[:] = np.array([[9.0, 0.0], [0.0, 9.0],
                                     [9.0, 0.0], [0.0, 9.0]])
        y_hat, _ = predict(topo, bank, leaves, latent)
        assert y_hat.values[0, 1] > 0.99  # mass on leaf 3 = class 1

    def test_hand_mixture(self):
        topo, bank, _, latent = tree_with_edge_probs([0.6, 0.5, 0.25])
        trace = tr.route(topo, bank, latent)
        sigma = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
        y_hat = tr.mix_leaf_distributions(trace.leaf_probabilities, sigma)
        np.testing.assert_allclose(y_hat.values[0], [0.65, 0.35], atol=1e-9)

    def test_convex_combination_bounds(self):
        rng = np.random.default_rng(8)
        topo, bank, leaves = tr.init_tree(3, 4, 5, seed=11)
        leaves.logits = rng.normal(0, 2, leaves.logits.shape)
        latent = Tensor(rng.uniform(0, 1, (6, 5, 3, 3)))
        y_hat, _ = predict(topo, bank, leaves, latent)
        dists = leaves.distributions()
        assert (y_hat.values >= dists.min(axis=0) - 1e-7).all()
        assert (y_hat.values <= dists.max(axis=0) + 1e-7).all()
        np.testing.assert_allclose(y_hat.values.sum(axis=1), 1.0, atol=1e-6)

    def test_sibling_swap_symmetry(self):
        """Mirroring every node's children while complementing its edge
        probability leaves the prediction unchanged."""
        rng = np.random.default_rng(9)
        topo, bank, leaves = tr.init_tree(2, 3, 4, seed=13)
        leaves.logits = rng.normal(0, 1, leaves.logits.shape)
        latent = Tensor(rng.uniform(0, 1, (3, 4, 2, 2)))
        trace = tr.route(topo, bank, latent)
        edges = trace.edge_right
        y_ref = leaf_probabilities_from_edges(topo, edges) \
            @ leaves.distributions()

        swapped = mirrored(topo)
        # leaf refs keep their identity, so each leaf's probability and
        # distribution are preserved under the mirror
        pi_swapped = leaf_probabilities_from_edges(swapped, 1.0 - edges)
        np.testing.assert_allclose(
            pi_swapped, leaf_probabilities_from_edges(topo, edges), atol=1e-7)
        y_swapped = pi_swapped @ leaves.distributions()
        np.testing.assert_allclose(y_ref, y_swapped, atol=1e-7)


class TestGradients:
    def test_prototype_gradients_through_argmin(self):
        rng = np.random.default_rng(10)
        topo, bank, leaves = tr.init_tree(2, 3, 4, seed=17, dtype=np.float64)
        leaves.logits = rng.normal(0, 1, leaves.logits.shape)
        images = rng.uniform(0, 1, (2, 4, 3, 3))
        labels = np.array([1, 2])

        def loss_value():
            y_hat, _ = predict(topo, bank, leaves, Tensor(images))
            return cross_entropy(y_hat, labels)   # -sum(log y_hat[i, y_i]) / 2

        with Tape() as tape:
            tape.backward(loss_value())
        numeric = finite_difference_grad(lambda: loss_value().item(),
                                         bank.tensor)
        err = max_relative_error(bank.tensor.grad, numeric)
        assert err < 1e-4, f"prototype gradient mismatch {err:.2e}"

    def test_latent_gradients_through_argmin(self):
        rng = np.random.default_rng(11)
        topo, bank, leaves = tr.init_tree(2, 2, 3, seed=19, dtype=np.float64)
        leaves.logits = rng.normal(0, 1, leaves.logits.shape)
        latent = Tensor(rng.uniform(0, 1, (1, 3, 3, 3)), requires_grad=True)
        labels = np.array([0])

        def loss_value():
            y_hat, _ = predict(topo, bank, leaves, latent)
            return cross_entropy(y_hat, labels)

        with Tape() as tape:
            tape.backward(loss_value())
        numeric = finite_difference_grad(lambda: loss_value().item(), latent)
        err = max_relative_error(latent.grad, numeric)
        assert err < 1e-4


class TestMinPatchDistances:
    def test_consistent_with_nearest_patch(self):
        rng = np.random.default_rng(12)
        latent = rng.uniform(0, 1, (3, 5, 4, 4))
        protos = rng.uniform(0, 1, (6, 5))
        dist, locs = distances_and_locations(latent, protos)
        for n in range(3):
            for m in range(6):
                (i, j), d = scan_nearest_patch(latent[n], protos[m])
                assert (locs[n, m] == (i, j)).all()
                assert abs(dist[n, m] - d) < 1e-12

    def test_depth_mismatch_rejected(self):
        with pytest.raises(ValueError, match="depth"):
            tr.min_patch_distances(np.ones((1, 3, 2, 2)), np.ones((2, 4)))


def distances_and_locations(latent, protos):
    """Nearest-patch distances and (row, col) locations, as ``route``
    forms them from ``min_patch_distances``."""
    squared, nearest = tr.min_patch_distances(latent, protos)
    w = latent.shape[3]
    return np.sqrt(squared), np.stack([nearest // w, nearest % w], axis=2)


def bits(x):
    return x.view(f"i{x.itemsize}")


def assert_same_as_scan(latent, protos):
    dist, locs = distances_and_locations(latent, protos)
    want_dist, want_locs = scan_min_patch_distances(latent, protos)
    assert dist.dtype == want_dist.dtype
    assert np.array_equal(bits(dist), bits(want_dist))
    assert np.array_equal(locs, want_locs)
    return locs


@pytest.fixture
def rescored(monkeypatch):
    """Candidates per rescore block of min_patch_distances."""
    sizes = []
    scan = tr._scan_einsum

    def counting(flat_t, protos_t, column, row, single_patch):
        sizes.append(len(column))
        return scan(flat_t, protos_t, column, row, single_patch)

    monkeypatch.setattr(tr, "_scan_einsum", counting)
    return sizes


def margin(latent, proto):
    """The selection margin derived in tree.min_patch_distances."""
    d = latent.shape[1]
    u = np.finfo(latent.dtype).eps / 2
    gamma = (d + 2) * u / (1 - (d + 2) * u)
    z = latent.reshape(latent.shape[0], d, -1).astype(np.float64)
    return 10 * gamma * ((z * z).sum(axis=1).max() + proto @ proto)


@pytest.fixture(scope="module")
def real_latents():
    """16 desk latents (64 x 8 x 8) from a fresh backbone."""
    from prototree.backbone import BackboneConfig
    from prototree.data import gen_synthetic
    from prototree.model import build_model
    images, _ = gen_synthetic(4, 8, 64, seed=3)
    config = BackboneConfig(input_side=64, latent_depth=64)
    model = build_model(config, 1, 4, seed=7)
    return model.latent(images.images[:16]).values


class TestNearestPatchSearch:
    """min_patch_distances against the per-prototype scan, bit for bit."""

    @pytest.mark.parametrize("height", [4, 9])
    def test_real_latents(self, real_latents, height):
        lat = real_latents
        rng = np.random.default_rng(height)
        _, bank, _ = tr.init_tree(height, 4, lat.shape[1], seed=height)
        assert_same_as_scan(lat, bank.tensor.values)
        # prototypes planted within 1e-3 of real patches, as training
        # drives them, make near-ties between patches common
        n, d, h, w = lat.shape
        m = bank.tensor.shape[0]
        patches = lat.transpose(0, 2, 3, 1).reshape(-1, d)
        planted = patches[rng.integers(0, len(patches), m)] \
            + rng.uniform(-1e-3, 1e-3, (m, d)).astype(np.float32)
        assert_same_as_scan(lat, planted.astype(np.float32))

    @pytest.mark.parametrize("gap, candidates", [(0.4, 2), (2.5, 1)],
                             ids=["inside_margin", "outside_margin"])
    def test_constructed_near_tie(self, rescored, gap, candidates):
        rng = np.random.default_rng(31)
        d = 64
        proto = rng.uniform(0.2, 0.8, d).astype(np.float32)
        offset = rng.normal(0, 1, d)
        offset *= 0.5 / np.linalg.norm(offset)
        lat = np.empty((1, d, 2, 2), dtype=np.float32)
        lat[0, :, 1, 0] = proto + 1.0            # far patches
        lat[0, :, 1, 1] = proto - 1.0
        lat[0, :, 0, 1] = lat[0, :, 0, 0] = proto + offset
        near = lat[0, :, 0, 1].astype(np.float64) - proto
        # the far patches set max ||z||^2, so the margin stays put while
        # patch (0, 0) moves gap margins farther, in exact arithmetic
        limit = margin(lat, proto.astype(np.float64))
        target = near @ near + gap * limit
        lat[0, :, 0, 0] = proto + offset * np.sqrt(target / (near @ near))
        assert margin(lat, proto.astype(np.float64)) == limit
        far = lat[0, :, 0, 0].astype(np.float64) - proto
        assert abs((far @ far - near @ near) / limit - gap) < 0.1
        locs = assert_same_as_scan(lat, proto[None])
        assert tuple(locs[0, 0]) == (0, 1)
        assert rescored == [candidates]

    def test_equal_patches_every_one_a_candidate(self, rescored):
        rng = np.random.default_rng(32)
        n, m, d, h, w = 4, 31, 16, 8, 8
        lat = np.repeat(rng.uniform(0, 1, (n, d, 1, 1)), h * w, axis=2)
        lat = lat.reshape(n, d, h, w).astype(np.float32)
        protos = rng.uniform(0, 1, (m, d)).astype(np.float32)
        locs = assert_same_as_scan(lat, protos)
        assert (locs == 0).all()              # ties go to the first patch
        assert sum(rescored) == n * m * h * w   # K = N M HW
        assert len(rescored) > 1
        assert max(rescored) < tr.RESCORE_BLOCK + h * w

    def test_pair_crossing_a_block_boundary(self, rescored, monkeypatch):
        monkeypatch.setattr(tr, "RESCORE_BLOCK", 4)
        rng = np.random.default_rng(33)
        n, m, d = 2, 3, 8
        base = rng.uniform(0.3, 0.7, (n, d, 1, 1))
        # three patches within rounding of each other, the last nearest
        steps = np.array([3e-7, 2e-7, 0.0]).reshape(1, 1, 1, 3)
        lat = (base + steps).astype(np.float32)
        protos = np.repeat(base[:1, :, 0, 0], m, axis=0).astype(np.float32)
        assert_same_as_scan(lat, protos)
        # pairs of three candidates each: the runs end at pairs, not at
        # multiples of the block
        assert sum(rescored) == n * m * 3
        assert all(size % 3 == 0 for size in rescored)
        assert len(rescored) > 1

    @pytest.mark.parametrize("shape", [(3, 5, 4, 4), (2, 6, 1, 1),
                                       (1, 4, 1, 2)],
                             ids=["grid", "single_patch", "two_patches"])
    def test_float64_and_small_latents(self, shape):
        rng = np.random.default_rng(34)
        for dtype in (np.float32, np.float64):
            lat = rng.uniform(0, 1, shape).astype(dtype)
            protos = rng.uniform(0, 1, (7, shape[1])).astype(dtype)
            protos[0] = lat[0, :, 0, 0] + 1e-9       # a near-exact match
            assert_same_as_scan(lat, protos)

    def test_non_finite_latent_keeps_scan_locations(self):
        rng = np.random.default_rng(35)
        lat = rng.uniform(0, 1, (4, 6, 3, 3)).astype(np.float32)
        lat[0, 2, 1, 1] = np.nan
        lat[1, 0, 0, 2] = np.inf
        lat[2, :, 2, 2] = -np.inf
        protos = rng.uniform(0, 1, (5, 6)).astype(np.float32)
        protos[4, 3] = np.inf
        try:
            _, locs = distances_and_locations(lat, protos)
        except ValueError:
            return
        _, want = scan_min_patch_distances(lat, protos)
        assert np.array_equal(locs, want)
        assert ((locs >= 0) & (locs < 3)).all()


def distance_grads(latent, protos, want_latent=True, want_protos=True):
    """Prototype and latent gradients of a random weighting of the
    min-patch distances; None where not wanted."""
    squared, nearest = tr.min_patch_distances(latent, protos)
    weights = np.random.default_rng(36).normal(
        size=squared.shape).astype(latent.dtype)
    n, d = latent.shape[:2]
    return tr._min_patch_grads(
        latent.reshape(n, d, -1), protos, nearest,
        weights / np.sqrt(squared + tr.DISTANCE_GRAD_EPS), want_protos,
        want_latent)


def assert_grads_same_as_scatter(monkeypatch, latent, protos, **wanted):
    got = distance_grads(latent, protos, **wanted)
    with monkeypatch.context() as patch:
        patch.setattr(tr, "_min_patch_grads", scatter_min_patch_grad)
        want = distance_grads(latent, protos, **wanted)
    for g, w in zip(got, want):
        if w is None:
            assert g is None
        else:
            assert_same_bits(g, w)
            assert np.abs(w).max() > 0


class TestMinPatchGradients:
    """The distance backward against the 2-D scatter, bit for bit."""

    def test_real_latents_at_initialisation(self, monkeypatch, real_latents):
        _, bank, _ = tr.init_tree(9, 4, real_latents.shape[1], seed=9)
        protos = bank.tensor.values
        _, cells = tr.min_patch_distances(real_latents, protos)
        # most prototypes share one patch: long runs of repeated indices
        assert max(np.bincount(row).max() for row in cells) > len(protos) // 2
        assert_grads_same_as_scatter(monkeypatch, real_latents, protos)

    def test_planted_one_prototype_per_patch(self, monkeypatch, real_latents):
        rng = np.random.default_rng(37)
        lat = real_latents
        n, d, h, w = lat.shape
        cells = rng.permutation(h * w)[:63]
        protos = lat[0].reshape(d, h * w)[:, cells].T \
            + rng.uniform(-1e-3, 1e-3, (63, d)).astype(lat.dtype)
        _, nearest = tr.min_patch_distances(lat, protos)
        assert np.array_equal(nearest[0], cells)
        assert_grads_same_as_scatter(monkeypatch, lat, protos)

    @pytest.mark.parametrize("shape", [(3, 5, 4, 4), (2, 6, 1, 1),
                                       (1, 4, 1, 2)],
                             ids=["grid", "single_patch", "two_patches"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_float64_and_small_latents(self, monkeypatch, shape, dtype):
        rng = np.random.default_rng(38)
        lat = rng.uniform(0, 1, shape).astype(dtype)
        protos = rng.uniform(0, 1, (7, shape[1])).astype(dtype)
        assert_grads_same_as_scatter(monkeypatch, lat, protos)

    @pytest.mark.parametrize("want_latent, want_protos",
                             [(True, False), (False, True)],
                             ids=["latent_only", "prototypes_only"])
    def test_one_input_tracked(self, monkeypatch, real_latents, want_latent,
                               want_protos):
        _, bank, _ = tr.init_tree(4, 4, real_latents.shape[1], seed=4)
        assert_grads_same_as_scatter(
            monkeypatch, real_latents, bank.tensor.values,
            want_latent=want_latent, want_protos=want_protos)


class TestSplitBatch:
    """min_patch_distances and its gradients run in slices of the batch;
    no float bit depends on how many."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n", [1, 3, 17])
    def test_bits_do_not_depend_on_workers(self, monkeypatch, dtype, n):
        rng = np.random.default_rng(40 + n)
        lat = rng.uniform(0, 1, (n, 6, 4, 5)).astype(dtype)
        protos = rng.uniform(0, 1, (31, 6)).astype(dtype)
        protos[::3] = lat[-1].reshape(6, 20)[:, :11].T   # exact matches
        monkeypatch.setattr(tr, "SPLIT_MIN_MACS", 0)    # split any size
        runs = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(ad, "_WORKERS", workers)
            runs.append((*tr.min_patch_distances(lat, protos),
                         *distance_grads(lat, protos)))
        for run in runs[1:]:
            for got, want in zip(run, runs[0]):
                assert_same_bits(got, want)


    def test_small_batches_stay_whole(self, monkeypatch):
        calls = []
        monkeypatch.setattr(ad, "_split_batch",
                            lambda n, fn: calls.append(n) or fn(slice(0, n)))
        flat = np.ones((2, 4, 5))       # 2 x 5 x 3 x 4 = 120 multiply-adds
        protos = np.zeros((3, 4))
        for limit, want in ((121, []), (120, [2, 2])):
            monkeypatch.setattr(tr, "SPLIT_MIN_MACS", limit)
            _, argmin = tr.min_patch_distances(flat[..., None], protos)
            tr._min_patch_grads(flat, protos, argmin, np.ones((2, 3)),
                                True, True)
            assert calls == want


class TestTopology:
    def test_validate_accepts_fresh_tree(self):
        topo, _, _ = tr.init_tree(3, 2, 2, seed=0)
        topo.validate()

    def test_path_to_leaf_matches_enumeration(self):
        topo, _, _ = tr.init_tree(3, 2, 2, seed=0)
        for leaf, path in enumerate_paths(topo):
            assert topo.path_to_leaf(leaf) == path

    def test_leaf_depths_full_tree(self):
        topo, _, _ = tr.init_tree(4, 2, 2, seed=0)
        np.testing.assert_array_equal(topo.depth[topo.num_internal:],
                                      np.full(16, 4))


class TestRouteAsArrays:
    @pytest.mark.parametrize("height", range(1, 10))
    def test_bit_identical_to_edge_products(self, height):
        rng = np.random.default_rng(40 + height)
        topo, bank, _ = tr.init_tree(height, 2, 3, seed=height)
        latent = Tensor(rng.uniform(0, 1, (4, 3, 2, 2)).astype(np.float32))
        for shape in (topo, mirrored(topo)):
            trace = tr.route(shape, bank, latent)
            pi = trace.leaf_probabilities.values
            oracle = leaf_probabilities_from_edges(shape,
                                                   trace.edge_right)
            assert pi.dtype == oracle.dtype == np.float32
            assert pi.tobytes() == oracle.tobytes()

    def test_bit_identical_on_pruned_tree(self):
        rng = np.random.default_rng(50)
        bank = tr.PrototypeBank(Tensor(rng.uniform(0, 1, (3, 2))
                                       .astype(np.float32)))
        latent = Tensor(rng.uniform(0, 1, (5, 2, 3, 3)).astype(np.float32))
        for shape in (unbalanced_topology(), mirrored(unbalanced_topology())):
            trace = tr.route(shape, bank, latent)
            oracle = leaf_probabilities_from_edges(shape,
                                                   trace.edge_right)
            assert trace.leaf_probabilities.values.tobytes() == oracle.tobytes()

    def test_gradients_match_finite_differences_on_pruned_tree(self):
        rng = np.random.default_rng(51)
        topo = unbalanced_topology()
        assert sorted(topo.depth[topo.num_internal:].tolist()) == [1, 2, 3, 3]
        bank = tr.PrototypeBank(Tensor(rng.uniform(0, 1, (3, 2)),
                                       requires_grad=True))
        latent = Tensor(rng.uniform(0, 1, (3, 2, 2, 2)), requires_grad=True)
        weights = rng.normal(0, 1, (3, 4))

        def loss():
            pi = tr.route(topo, bank, latent).leaf_probabilities
            return weighted_sum(pi, weights)

        with Tape() as tape:
            tape.backward(loss())
        for tensor in (bank.tensor, latent):
            numeric = finite_difference_grad(lambda: loss().item(), tensor)
            assert max_relative_error(tensor.grad, numeric) < 1e-6

    @pytest.mark.parametrize("pruned", [False, True],
                             ids=["full_height_3", "pruned"])
    def test_step_gradients_same_bits_as_unfused_chain(self, pruned):
        """A float32 training step through the fused routing op leaves
        every parameter's gradient where the chain of separate taped ops
        puts it, bit for bit."""
        config = BackboneConfig(input_side=32, latent_depth=8,
                                stages=((8, 3, 2), (8, 3, 2)))
        model = build_model(config, height=2 if pruned else 3, num_classes=3,
                            seed=5)
        if pruned:
            model.topology = unbalanced_topology()
        model.leaves.logits = np.random.default_rng(53).normal(
            0, 2, model.leaves.logits.shape)
        images, _ = gen_synthetic(3, 4, 32, seed=54)
        labels = images.labels
        params = [t for group in model.parameters().values() for t in group]
        grads = []
        for predict in (lambda z: model.predict(z)[0],
                        lambda z: unfused_predict(model, z)):
            with Tape() as tape:
                y_hat = predict(model.latent(images.images))
                tape.backward(cross_entropy(y_hat, labels))
            grads.append([t.grad.copy() for t in params])
            for t in params:
                t.zero_grad()
        assert grads[0][0].dtype == np.float32
        for got, want in zip(*grads):
            assert_same_bits(got, want)
            assert np.abs(want).max() > 0

    def test_root_leaf_gets_probability_one(self):
        empty = np.zeros(0, dtype=np.int64)
        topo = tr.TreeTopology(left=empty, right=empty, root=0)
        bank = tr.PrototypeBank(Tensor(np.zeros((0, 3), dtype=np.float32),
                                       requires_grad=True))
        latent = Tensor(np.random.default_rng(52).uniform(0, 1, (2, 3, 2, 2))
                        .astype(np.float32))
        with Tape():
            trace = tr.route(topo, bank, latent)
        np.testing.assert_array_equal(trace.leaf_probabilities.values,
                                      np.ones((2, 1), dtype=np.float32))


class TestTopologyIndex:
    @staticmethod
    def height_two(**tables):
        """Tables of the full height-2 tree, with the given ones replaced."""
        fields = dict(left=np.array([1, 3, 5]), right=np.array([2, 4, 6]),
                      root=0)
        fields.update(tables)
        return tr.TreeTopology(**fields)

    def test_fresh_tables_are_valid(self):
        topo = self.height_two()
        np.testing.assert_array_equal(topo.preorder, [0, 1, 3, 4, 2, 5, 6])
        assert [cols.tolist() for cols in topo.levels] == [[0], [1, 2],
                                                           [3, 4, 5, 6]]

    @pytest.mark.parametrize("tables, message", [
        (dict(left=np.array([7, 3, 5])), "out of range"),
        (dict(right=np.array([2, 4, -1])), "out of range"),
        (dict(left=np.array([1, 0, 5])), "reached twice"),
        (dict(right=np.array([2, 4, 5])), "reached twice"),
        (dict(root=1), "not reached"),
    ])
    def test_rejects_broken_tables(self, tables, message):
        with pytest.raises(ValueError, match=message):
            self.height_two(**tables)

    @pytest.mark.parametrize("topo", [
        unbalanced_topology(), mirrored(unbalanced_topology()),
        mirrored(tr.init_tree(3, 2, 2, seed=0)[0])])
    def test_lookups_match_enumeration(self, topo):
        paths = enumerate_paths(topo)
        for leaf, path in paths:
            assert topo.path_to_leaf(leaf) == path
            assert topo.depth[topo.num_internal + leaf] == len(path)


def _assert_keeping_matches_recursion(topo, keep_leaf):
    left, right, root, nodes, leaves = recursive_keeping(topo, keep_leaf)
    kept, got_nodes, got_leaves = topo.keeping(keep_leaf)
    assert kept.left.tolist() == left and kept.right.tolist() == right
    assert kept.root == root
    assert got_nodes.tolist() == nodes and got_leaves.tolist() == leaves
    return kept


def _mask(draw, count):
    """A keep flag per leaf, at least one of them set."""
    flags = draw(st.lists(st.booleans(), min_size=count, max_size=count))
    flags[draw(st.integers(0, count - 1))] = True
    return np.asarray(flags)


class TestKeeping:
    """``TreeTopology.keeping`` against the recursive cut of the oracles."""

    @given(data=st.data(), height=st.integers(1, 7))
    @settings(max_examples=150, deadline=None)
    def test_masks_applied_twice(self, data, height):
        topo = tr.init_tree(height, 2, 1, seed=0)[0]
        for _ in range(2):   # the second mask cuts an irregular shape
            topo = _assert_keeping_matches_recursion(
                topo, _mask(data.draw, topo.num_leaves))

    @given(data=st.data(), height=st.integers(1, 7))
    @settings(max_examples=100, deadline=None)
    def test_dead_node_masks(self, data, height):
        topo = tr.init_tree(height, 2, 1, seed=0)[0]
        topo = topo.keeping(_mask(data.draw, topo.num_leaves))[0]
        if topo.num_internal == 0:
            return
        dead = data.draw(st.sets(st.integers(0, topo.num_internal - 1),
                                 min_size=1))
        # a dead node loses every leaf under its right child
        keep_leaf = np.array([not any(went_right for node, went_right in path
                                      if node in dead)
                              for _, path in enumerate_paths(topo)])
        assert keep_leaf.any()
        kept = _assert_keeping_matches_recursion(topo, keep_leaf)
        assert kept.num_internal <= topo.num_internal - len(dead)

    @pytest.mark.parametrize("topo", [unbalanced_topology(),
                                      mirrored(unbalanced_topology())])
    def test_irregular_and_mirrored_shapes(self, topo):
        for flags in np.ndindex(*(2,) * topo.num_leaves):
            if any(flags):
                _assert_keeping_matches_recursion(topo, np.array(flags, bool))

    def test_hand_traced_cut(self):
        # dropping leaf 1 of the unbalanced tree replaces node 2 by leaf 2
        kept, nodes, leaves = unbalanced_topology().keeping(
            np.array([True, False, True, True]))
        assert (kept.left.tolist(), kept.right.tolist(), kept.root) == \
            ([2, 3], [1, 4], 0)
        assert nodes.tolist() == [0, 1] and leaves.tolist() == [0, 2, 3]

    def test_single_kept_leaf_becomes_root(self):
        kept, nodes, leaves = unbalanced_topology().keeping(
            np.array([False, False, True, False]))
        assert (kept.num_internal, kept.root) == (0, 0)
        assert nodes.tolist() == [] and leaves.tolist() == [2]

    def test_no_kept_leaf_rejected(self):
        with pytest.raises(ValueError, match="at least one leaf"):
            unbalanced_topology().keeping(np.zeros(4, dtype=bool))
