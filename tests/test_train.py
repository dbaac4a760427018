import sys
import threading
import tracemalloc

import numpy as np
import pytest

import prototree.autodiff as ad
import prototree.train as trn
import prototree.tree as tr
from prototree.autodiff import Tape, Tensor
from prototree.backbone import BackboneConfig
from prototree.data import AugmentConfig, gen_synthetic
from prototree.model import build_model
from prototree.train import Adam, EpochLeafAccumulator, TrainConfig, \
    cross_entropy, leaf_update_batch, train_epoch

from oracles import assert_same_bits, scatter_min_patch_grad, \
    two_pass_leaf_update

TINY_BACKBONE = BackboneConfig(input_side=32, latent_depth=8,
                               stages=((8, 3, 2), (8, 3, 2)))


def tiny_model(seed=0, num_classes=2, height=2):
    return build_model(TINY_BACKBONE, height=height, num_classes=num_classes,
                       seed=seed)


class TestCrossEntropy:
    def test_perfect_prediction_zero_loss(self):
        loss = cross_entropy(Tensor(np.array([[1.0, 0.0]])), np.array([0]))
        assert abs(loss.item()) < 1e-12

    def test_unbatched_prediction_rejected(self):
        with pytest.raises(ValueError, match="N x K"):
            cross_entropy(Tensor(np.array([1.0, 0.0])), np.array([0]))

    def test_label_count_must_match_rows(self):
        with pytest.raises(ValueError, match="expected 2 labels"):
            cross_entropy(Tensor(np.full((2, 2), 0.5)), np.array([0]))

    def test_uniform_over_four(self):
        loss = cross_entropy(Tensor(np.full((1, 4), 0.25)), np.array([2]))
        assert abs(loss.item() - 1.3862943611198906) < 1e-9

    def test_hand_value(self):
        loss = cross_entropy(Tensor(np.array([[0.65, 0.35]])), np.array([1]))
        assert abs(loss.item() - 1.0498221244986778) < 1e-9

    def test_batch_mean(self):
        y_hat = Tensor(np.array([[0.5, 0.5], [0.25, 0.75]]))
        want = (-np.log(0.5) - np.log(0.75)) / 2
        assert abs(cross_entropy(y_hat, np.array([0, 1])).item() - want) \
            < 1e-9


def bare_accumulator(num_leaves, num_classes, dist):
    acc = object.__new__(EpochLeafAccumulator)
    acc.snapshot = np.zeros((num_leaves, num_classes))
    acc.snapshot_dist = np.asarray(dist, dtype=np.float64)
    acc.running = np.zeros((num_leaves, num_classes))
    acc.num_batches = 1
    return acc


class TestLeafUpdateBatch:
    def test_single_sample_single_leaf(self):
        # one leaf (pi = 1), uniform sigma, true class 0: contribution (1, 0)
        acc = bare_accumulator(1, 2, [[0.5, 0.5]])
        leaf_update_batch(acc, pi=np.array([[1.0]]), labels=np.array([0]),
                          y_hat=np.array([[0.5, 0.5]]))
        np.testing.assert_allclose(acc.running, [[1.0, 0.0]])

    def test_zero_path_probability_contributes_nothing(self):
        acc = bare_accumulator(2, 2, np.full((2, 2), 0.5))
        leaf_update_batch(acc, pi=np.array([[1.0, 0.0]]),
                          labels=np.array([1]), y_hat=np.array([[0.5, 0.5]]))
        np.testing.assert_array_equal(acc.running[1], [0.0, 0.0])

    def test_division_floor_engages(self):
        acc = bare_accumulator(1, 2, [[0.5, 0.5]])
        leaf_update_batch(acc, pi=np.array([[1.0]]), labels=np.array([0]),
                          y_hat=np.array([[0.0, 1.0]]))
        assert np.isfinite(acc.running).all()

    def test_same_bits_as_dividing_one_hot_rows(self):
        """Weights from the labels equal the one-hot rows divided by the
        floored predictions, a nan prediction spreading to its row."""
        rng = np.random.default_rng(21)
        labels = rng.integers(0, 3, 6)
        y_hat = rng.dirichlet(np.ones(3), 6).astype(np.float32)
        y_hat[2, 1] = np.nan
        y_hat[4, labels[4]] = 0.0
        pi = rng.dirichlet(np.ones(4), 6).astype(np.float32)
        dist = rng.dirichlet(np.ones(3), 4)
        one_hot = np.eye(3, dtype=np.float32)[labels]
        weights = one_hot.astype(np.float64) / np.maximum(
            y_hat, trn.PREDICTION_FLOOR)
        want = dist * (pi.astype(np.float64).T @ weights)
        acc = bare_accumulator(4, 3, dist)
        leaf_update_batch(acc, pi, labels, y_hat)
        assert np.isnan(acc.running).any()
        assert_same_bits(acc.running, want)


class TestLeafUpdateEquivalence:
    def test_single_batch_equals_full_pass(self):
        train_set, _ = gen_synthetic(2, 8, 32, seed=41)
        model = tiny_model(seed=4)
        reference = two_pass_leaf_update(model, train_set)
        train_epoch(model, train_set,
                    TrainConfig(batch_size=len(train_set), seed=4),
                    epoch=1, adam=None)
        np.testing.assert_allclose(model.leaves.logits, reference, atol=1e-9)

    @pytest.mark.parametrize("batch_size", [16, 8, 4])
    def test_partitions_equal_full_pass(self, batch_size):
        train_set, _ = gen_synthetic(2, 8, 32, seed=43)
        model = tiny_model(seed=5)
        reference = two_pass_leaf_update(model, train_set)
        train_epoch(model, train_set,
                    TrainConfig(batch_size=batch_size, seed=5),
                    epoch=1, adam=None)
        np.testing.assert_allclose(model.leaves.logits, reference, atol=1e-6)

    def test_updated_leaves_non_negative(self):
        train_set, _ = gen_synthetic(3, 6, 32, seed=47)
        model = tiny_model(seed=6, num_classes=3)
        config = TrainConfig(batch_size=5, seed=6)
        adam = Adam(model.parameters())
        for epoch in (1, 2):
            train_epoch(model, train_set, config, epoch, adam)
        assert (model.leaves.logits >= 0.0).all()


class TestOptimizerLeafSeparation:
    def test_leaf_logits_never_in_parameter_groups(self):
        model = tiny_model(seed=7)
        for group in model.parameters().values():
            for tensor in group:
                assert tensor.values is not model.leaves.logits

    def test_leaf_logits_never_tracked(self):
        train_set, _ = gen_synthetic(2, 4, 32, seed=53)
        model = tiny_model(seed=8)
        config = TrainConfig(batch_size=4, seed=8)
        adam = Adam(model.parameters())
        train_epoch(model, train_set, config, 1, adam)
        assert isinstance(model.leaves.logits, np.ndarray)


class TestTapedOps:
    def test_training_step_tapes_one_op_for_the_backbone(self,
                                                          monkeypatch):
        """Three body stages and the head, with their biases and
        activations, are one of a step's four taped ops: conv_stack.
        Routing, the leaf mix and the loss are one op each. One conv op
        per stage made seven, the epilogues taped as ops of their own
        seventeen, and the routing chain (distances, neg, exp, path
        probabilities) three more."""
        model = build_model(BackboneConfig(input_side=32, latent_depth=8),
                            height=2, num_classes=2, seed=9)
        assert len(model.backbone.config.stages) == 3
        train_set, _ = gen_synthetic(2, 4, 32, seed=53)
        config = TrainConfig(batch_size=8, seed=9)
        taped, backward = [], Tape.backward

        def counting(tape, loss):
            taped.append(len(tape._nodes))
            backward(tape, loss)

        monkeypatch.setattr(Tape, "backward", counting)
        train_epoch(model, train_set, config, 1,
                    Adam(model.parameters()))
        assert taped == [4]


class TestDeterminism:
    def test_two_runs_bit_identical(self):
        train_set, test_set = gen_synthetic(2, 6, 32, seed=59)
        metrics = []
        for _ in range(2):
            model = tiny_model(seed=9)
            config = TrainConfig(epochs=2, batch_size=4, seed=9,
                                 augment=AugmentConfig(enabled=True))
            adam = Adam(model.parameters())
            out = [train_epoch(model, train_set, config, e, adam)
                   for e in (1, 2)]
            metrics.append((out, model.leaves.logits.copy(),
                            model.prototypes.tensor.values.copy()))
        assert metrics[0][0] == metrics[1][0]
        np.testing.assert_array_equal(metrics[0][1], metrics[1][1])
        np.testing.assert_array_equal(metrics[0][2], metrics[1][2])


    def test_height_nine_fit_same_bits_as_scatter(self, monkeypatch):
        """The distance backward leaves training's float bits where the
        2-D scatter puts them."""
        train_set, _ = gen_synthetic(2, 12, 32, seed=61)
        # epoch 1 trains against uniform leaves, which pass no gradient
        config = TrainConfig(epochs=2, batch_size=8, seed=10)

        def parameters(model):
            return [model.prototypes.tensor.values, model.leaves.logits,
                    *(p.values for group in model.backbone.parameters()
                      .values() for p in group)]

        def trained():
            model = tiny_model(seed=10, height=9)
            trn.fit(model, train_set, None, config)
            return parameters(model)

        initial = parameters(tiny_model(seed=10, height=9))
        got = trained()
        monkeypatch.setattr(tr, "_min_patch_grads", scatter_min_patch_grad)
        want = trained()
        assert len(got) == len(want) == 7
        for start, g, w in zip(initial, got, want):
            assert g.tobytes() != start.tobytes()   # every parameter trained
            assert g.tobytes() == w.tobytes()


DESK_BACKBONE = BackboneConfig(input_side=64, latent_depth=64)
LARGE = 128 * 1024      # bytes from which glibc maps fresh pages by default


def largest_line_allocations(monkeypatch, fn,
                             after_first_step: bool = True,
                             ) -> list[tuple[str, int]]:
    """Run ``fn`` with every Python line traced on the calling thread and
    on ``autodiff``'s worker threads, and return each line whose run
    raised tracemalloc's peak by ``LARGE`` bytes or more above the traced
    memory it started from, with that rise; with ``after_first_step``,
    only lines that ran after the first ``Tape.backward`` returned.

    A line's rise bounds each allocation made while it ran, numpy's
    arrays (tracemalloc domain 389047) and iterator buffers included, so
    an empty list means no array of ``LARGE`` bytes was allocated. The
    slices of a batch still run on their threads, but one at a time, so
    that a rise is one thread's.
    """
    split, turn = ad._split_batch, threading.Lock()
    backward = Tape.backward
    hits, lock = [], threading.Lock()
    state = {"current": 0, "line": None, "armed": not after_first_step}

    def in_turn(n, fn):
        def locked(part):
            with turn:
                fn(part)
        split(n, locked)

    def arming(tape, loss):
        backward(tape, loss)
        state["armed"] = True

    monkeypatch.setattr(ad, "_split_batch", in_turn)
    monkeypatch.setattr(Tape, "backward", arming)

    def trace(frame, event, arg):
        with lock:
            current, peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            if state["armed"] and peak - state["current"] >= LARGE:
                hits.append((state["line"], peak - state["current"]))
            state["current"] = current
            state["line"] = f"{frame.f_code.co_filename}:{frame.f_lineno}"
        return trace

    def on_workers(tracer):
        threads = ad._EXECUTOR._max_workers
        barrier = threading.Barrier(threads)

        def set_trace():
            barrier.wait(10)   # one call per thread
            sys.settrace(tracer)

        for future in [ad._EXECUTOR.submit(set_trace)
                       for _ in range(threads)]:
            future.result(timeout=10)

    tracemalloc.start()
    try:
        on_workers(trace)
        state["current"] = tracemalloc.get_traced_memory()[0]
        sys.settrace(trace)
        try:
            fn()
        finally:
            sys.settrace(None)
            on_workers(None)
    finally:
        tracemalloc.stop()
    return hits


def desk_training(seed=0, height=4):
    model = build_model(DESK_BACKBONE, height=height, num_classes=8,
                        seed=seed)
    config = TrainConfig(epochs=2, batch_size=16, seed=seed, lr_body=5e-3,
                         lr_head=5e-3, lr_prototypes=5e-3)
    return model, config, Adam(model.parameters())


class TestKeptBuffers:
    """An epoch's steps borrow their large arrays from one store: after
    its first step of a shape, a step maps no fresh array."""

    @pytest.mark.parametrize("epoch", [1, 2])
    def test_warm_desk_step_allocates_no_large_array(self, monkeypatch,
                                                     epoch):
        monkeypatch.setattr(ad, "_WORKERS", 2)
        train_set, _ = gen_synthetic(8, 6, 64, seed=71)   # three steps
        model, config, adam = desk_training(seed=72)
        if epoch == 2:
            train_epoch(model, train_set, config, 1, adam)
        hits = largest_line_allocations(monkeypatch, lambda: train_epoch(
            model, train_set, config, epoch, adam))
        assert hits == []

    def test_a_first_step_is_seen(self, monkeypatch):
        # the same check from the first step on
        monkeypatch.setattr(ad, "_WORKERS", 2)
        train_set, _ = gen_synthetic(8, 2, 64, seed=71)
        model, config, adam = desk_training(seed=72)
        hits = largest_line_allocations(monkeypatch, lambda: train_epoch(
            model, train_set, config, 1, adam), after_first_step=False)
        assert any("autodiff.py" in line for line, _ in hits)

    def test_live_tapes_borrow_apart_and_match_sequential_steps(self):
        model, _, _ = desk_training(seed=73)
        train_set, _ = gen_synthetic(8, 4, 64, seed=74)
        labels = train_set.labels
        batches = [(train_set.images[s], labels[s])
                   for s in (slice(0, 16), slice(16, 32))]
        store = ad.Buffers()

        def forward(tape, images, y):
            with tape:
                latent = model.latent(images)
                y_hat, _ = model.predict(latent)
                return latent, cross_entropy(y_hat, y)

        def grads():
            out = [t.grad.copy() for group in model.parameters().values()
                   for t in group]
            for group in model.parameters().values():
                for t in group:
                    t.zero_grad()
            return out

        sequential, lent, kept = [], [], []
        for images, y in batches:
            tape = Tape(store)
            _, loss = forward(tape, images, y)
            lent.append({id(a) for a in tape._lent})
            tape.backward(loss)
            kept.append({id(a) for free in store._free.values()
                         for a in free})
            sequential.append(grads())
        # the second step borrowed what the first gave back
        assert lent[1] <= kept[0] and kept[1] == kept[0]

        tapes = [Tape(store), Tape(store)]
        (latent, loss), (_, other) = (forward(t, *b)
                                      for t, b in zip(tapes, batches))
        assert not any(np.shares_memory(a, b) for a in tapes[0]._lent
                       for b in tapes[1]._lent)
        assert_same_bits(latent.values, model.latent(batches[0][0]).values)
        for tape, loss, want in zip(tapes, (loss, other), sequential):
            tape.backward(loss)
            for g, w in zip(grads(), want, strict=True):
                assert_same_bits(g, w)

    @pytest.mark.parametrize("augmented", [False, True])
    def test_reused_arrays_keep_training_bits(self, monkeypatch, augmented):
        train_set, _ = gen_synthetic(2, 7, 32, seed=75)   # steps of 4 and 2
        config = TrainConfig(batch_size=4, seed=76,
                             augment=AugmentConfig(enabled=augmented))
        runs = []
        for reuse in (False, True):
            if not reuse:   # every array fresh
                monkeypatch.setattr(ad.Buffers, "give",
                                    lambda self, arrays: None)
            else:
                monkeypatch.undo()
            model = tiny_model(seed=76)
            adam = Adam(model.parameters())
            runs.append([train_epoch(model, train_set, config, e, adam)
                         for e in (1, 2, 3)]
                        + [t.values.copy() for group in
                           model.parameters().values() for t in group])
        assert runs[0][:3] == runs[1][:3]
        for got, want in zip(runs[1][3:], runs[0][3:], strict=True):
            assert_same_bits(got, want)


class TestSchedule:
    def test_milestone_decay(self):
        config = TrainConfig(milestones=(10, 20), gamma=0.5)
        assert config.learning_rate(1.0, 9) == 1.0
        assert config.learning_rate(1.0, 10) == 0.5
        assert config.learning_rate(1.0, 20) == 0.25

    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=0).validate()
        with pytest.raises(ValueError):
            TrainConfig(lr_body=0.0).validate()
        with pytest.raises(ValueError):
            TrainConfig(lr_head=float("nan")).validate()
        with pytest.raises(ValueError):
            TrainConfig(milestones=(10, 10)).validate()
        TrainConfig(milestones=(5, 10)).validate()

    @pytest.mark.parametrize("seed, ok", [(0, True), (2 ** 63 - 1, True),
                                          (2 ** 63, False), (-1, False)])
    def test_seed_must_fit_a_checkpoint(self, seed, ok):
        if ok:
            TrainConfig(seed=seed).validate()
        else:
            with pytest.raises(ValueError, match="seed"):
                TrainConfig(seed=seed).validate()


class TestAdam:
    def test_moves_against_gradient(self):
        param = Tensor(np.zeros(3), requires_grad=True)
        adam = Adam({"g": [param]})
        param.grad[:] = np.array([1.0, -1.0, 0.5])
        adam.step({"g": 0.1})
        assert (param.values[0] < 0) and (param.values[1] > 0)

    def test_steps_as_the_moment_formulas_round(self):
        rng = np.random.default_rng(77)
        param = Tensor(rng.standard_normal((5, 7)).astype(np.float32),
                       requires_grad=True)
        adam = Adam({"g": [param]})
        assert (trn.BETA1, trn.BETA2, trn.ADAM_EPS) == (0.9, 0.999, 1e-8)
        values = param.values.copy()
        m, v = np.zeros_like(values), np.zeros_like(values)
        for step in range(1, 4):
            g = rng.standard_normal(values.shape).astype(np.float32)
            param.grad[...] = g
            adam.step({"g": 0.01})
            m = trn.BETA1 * m + (1.0 - trn.BETA1) * g
            v = trn.BETA2 * v + (1.0 - trn.BETA2) * g * g
            m_hat = m / (1.0 - trn.BETA1 ** step)
            v_hat = v / (1.0 - trn.BETA2 ** step)
            values -= 0.01 * m_hat / (np.sqrt(v_hat) + trn.ADAM_EPS)
            assert_same_bits(param.values, values)

    def test_zero_rate_freezes_values(self):
        param = Tensor(np.ones(2), requires_grad=True)
        adam = Adam({"g": [param]})
        param.grad[:] = 1.0
        adam.step({"g": 0.0})
        np.testing.assert_array_equal(param.values, np.ones(2))


@pytest.mark.slow
def test_toy_four_class_training_accuracy():
    """End-to-end sanity: a small tree fits a 4-class parts task."""
    train_set, test_set = gen_synthetic(4, 50, 32, seed=61)
    config = BackboneConfig(input_side=32, latent_depth=64)
    model = build_model(config, height=3, num_classes=4, seed=61)
    tc = TrainConfig(epochs=30, batch_size=16, seed=61,
                     lr_body=5e-3, lr_head=5e-3, lr_prototypes=5e-3)
    history = trn.fit(model, train_set, None, tc)
    assert history[-1]["train_acc"] > 0.95
