import ast
import inspect
import multiprocessing
import os
import pathlib
import subprocess
import sys
import textwrap
import threading
import time
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import prototree.autodiff as ad
from prototree.autodiff import Tape, Tensor
from prototree.tree import LeafParams

from oracles import assert_same_bits, chained_conv_stack, conv2d, exp, \
    finite_difference_grad, loop_im2col, matmul, max_relative_error, \
    naive_conv_stack, neg, sign_split_sigmoid, softmax_extended, square_sum, \
    unfused_conv2d, weighted_sum


def rand(shape, seed=0, scale=1.0):
    return np.random.default_rng(seed).normal(size=shape) * scale


def one_stage(k, bias, stride, padding):
    """conv_stack's stage list for one ReLU stage of numpy arrays."""
    return [(Tensor(k), Tensor(bias), stride, padding)]


class TestConv2d:
    """The convolutions of conv_stack: a ReLU stage, then the 1x1 head."""

    def test_all_ones_sums_to_nine(self):
        x = Tensor(np.ones((1, 1, 3, 3)))
        out = ad.conv_stack(x, one_stage(np.ones((1, 1, 3, 3)), np.zeros(1),
                                         1, 0),
                            Tensor(np.ones((1, 1, 1, 1)))).values
        assert out.shape == (1, 1, 1, 1)
        assert out[0, 0, 0, 0] == 1.0 / (1.0 + np.exp(-9.0))

    def test_identity_1x1_kernel(self):
        x = Tensor(rand((2, 1, 4, 5), seed=1))
        out = ad.conv_stack(x, [], Tensor(np.ones((1, 1, 1, 1)))).values
        assert_same_bits(out, sign_split_sigmoid(x.values))

    def test_matches_naive_oracle(self):
        x = rand((1, 2, 4, 4), seed=2)
        k, bias = rand((3, 2, 2, 2), seed=3), rand(3, seed=4)
        head = rand((2, 3, 1, 1), seed=5)
        got = ad.conv_stack(Tensor(x), one_stage(k, bias, 1, 0),
                            Tensor(head)).values
        np.testing.assert_allclose(
            got, naive_conv_stack(x, [(k, bias, 1, 0)], head), atol=1e-6)

    @pytest.mark.parametrize("shape,kshape,stride,padding", [
        ((2, 4, 8, 8), (3, 4, 3, 3), 1, 0),
        ((2, 4, 8, 8), (5, 4, 3, 3), 2, 1),
        ((1, 3, 7, 5), (2, 3, 2, 4), 1, 2),
        ((2, 2, 8, 8), (2, 2, 1, 1), 3, 0),
    ])
    def test_shapes_against_oracle(self, shape, kshape, stride, padding):
        x, k = rand(shape, seed=4), rand(kshape, seed=5)
        bias, head = rand(kshape[0], seed=6), rand((3, kshape[0], 1, 1), 7)
        got = ad.conv_stack(Tensor(x), one_stage(k, bias, stride, padding),
                            Tensor(head)).values
        want = naive_conv_stack(x, [(k, bias, stride, padding)], head)
        np.testing.assert_allclose(got, want, atol=1e-6)

    def test_channel_mismatch_rejected(self):
        x, head = Tensor(np.ones((1, 2, 4, 4))), Tensor(np.ones((1, 1, 1, 1)))
        with pytest.raises(ValueError, match="channel"):
            ad.conv_stack(x, one_stage(np.ones((1, 3, 2, 2)), np.ones(1),
                                       1, 0), head)
        with pytest.raises(ValueError, match="channel"):
            ad.conv_stack(x, [], head)

    def test_zero_sized_output_rejected(self):
        with pytest.raises(ValueError, match="zero-sized"):
            ad.conv_stack(Tensor(np.ones((1, 1, 2, 2))),
                          one_stage(np.ones((1, 1, 5, 5)), np.ones(1), 1, 0),
                          Tensor(np.ones((1, 1, 1, 1))))

    def test_bad_epilogue_rejected(self):
        x = Tensor(np.ones((1, 2, 4, 4)))
        k, head = np.ones((3, 2, 1, 1)), Tensor(np.ones((1, 3, 1, 1)))
        for bias in (np.ones(2), np.ones(3, dtype=np.float32)):
            with pytest.raises(ValueError, match="bias must be float64"):
                ad.conv_stack(x, one_stage(k, bias, 1, 0), head)
        with pytest.raises(ValueError, match="head must be a 1x1 kernel"):
            ad.conv_stack(x, [], Tensor(np.ones((1, 2, 3, 3))))


class TestLoopReferences:
    """The strided im2col, the zero-buffer padding and the in-place
    one-pass sigmoid give the loop versions' results bit for bit, and the
    reference conv2d is one GEMM per image over those columns."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("kernel", [1, 3])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("padding", [0, 1])
    def test_columns_and_conv(self, dtype, kernel, stride, padding):
        x = rand((3, 4, 9, 8), seed=6).astype(dtype)
        k = rand((5, 4, kernel, kernel), seed=7).astype(dtype)
        xp = np.pad(x, ((0, 0), (0, 0), (padding, padding),
                        (padding, padding)))
        oh = (9 + 2 * padding - kernel) // stride + 1
        ow = (8 + 2 * padding - kernel) // stride + 1
        cols = loop_im2col(xp, kernel, kernel, stride, oh, ow)
        assert_same_bits(ad._im2col(xp, kernel, kernel, stride, oh, ow,
                                    out=np.empty_like(cols)), cols)
        want = np.matmul(k.reshape(5, -1)[None], cols).reshape(3, 5, oh, ow)
        assert_same_bits(
            conv2d(Tensor(x), Tensor(k), stride, padding).values, want)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_sigmoid(self, dtype):
        special = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 1e-45,
                   -1e-45, 88.72, -88.72, 104.0, -104.0]
        rng = np.random.default_rng(11)
        wide = rng.standard_normal(10 ** 6) \
            * rng.choice([1e-3, 1.0, 10.0, 100.0], 10 ** 6)
        values = np.concatenate([special, wide]).astype(dtype)
        got = values.copy()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ad._sigmoid(got, np.empty_like(got))
        assert_same_bits(got, sign_split_sigmoid(values))


# planted into a 3 x 4 x 9 x 8 input: all-zero windows give zero
# pre-activations, and nan and +-inf reach every output they touch; a
# GEMM's sum of zero products is +0.0, so -0.0 reaches the activation
# only in TestLoopReferences.test_sigmoid
def special_input(dtype, seed):
    x = rand((3, 4, 9, 8), seed=seed).astype(dtype)
    x[0, :, :5, :5] = 0.0
    x[1, 0, 2, 3] = np.nan
    x[1, 1, 6, 1] = np.inf
    x[2, 2, 4, 6] = -np.inf
    return x


# the bias of 5 output channels: both zeros, and a channel that ReLU
# zeroes everywhere
BIAS = [0.0, -0.0, 0.5, -0.5, -1e4]


def conv_run(x, stages, head, conv=ad.conv_stack, weights=None, tape=True,
             x_grad=True):
    """Output and, taped, the input, kernel, bias and head gradients of a
    weighted conv stack; ``stages`` holds (kernel, bias, stride, padding)
    arrays."""
    xt = Tensor(x, requires_grad=x_grad)
    params = [(Tensor(k, requires_grad=True), Tensor(b, requires_grad=True),
               stride, padding) for k, b, stride, padding in stages]
    ht = Tensor(head, requires_grad=True)
    if not tape:
        return (conv(xt, params, ht).values,)
    with Tape() as taping:
        out = conv(xt, params, ht)
        if weights is None:
            weights = rand(out.shape, seed=8).astype(x.dtype)
        taping.backward(weighted_sum(out, weights))
    grads = [xt.grad] if x_grad else []
    return (out.values, *grads, *(t.grad for k, b, _, _ in params
                                  for t in (k, b)), ht.grad)


def single(dtype, kernel, stride, padding, seed=31, head_channels=5):
    """One ReLU stage of 5 filters over 4 channels, with BIAS, and a
    head."""
    k = rand((5, 4, kernel, kernel), seed=seed).astype(dtype)
    head = rand((head_channels, 5, 1, 1), seed=seed + 1).astype(dtype)
    return [(k, np.array(BIAS, dtype=dtype), stride, padding)], head


def conv2d_run(x, k, stride, padding, bias, activation, conv, weights):
    """Output and the input, kernel and (given a bias) bias gradients of
    a weighted single-stage conv."""
    xt, kt = Tensor(x, requires_grad=True), Tensor(k, requires_grad=True)
    params = [xt, kt] if bias is None else \
        [xt, kt, Tensor(bias, requires_grad=True)]
    with Tape() as tape:
        out = conv(*params[:2], stride, padding,
                   bias=None if bias is None else params[2],
                   activation=activation)
        tape.backward(weighted_sum(out, weights))
    return (out.values, *(p.grad for p in params))


class TestFusedEpilogue:
    """Biases and activations fused into a conv give what the unfused
    composition gives, bit for bit: the output and every gradient, for
    the reference conv2d that the conv_stack tests compare against and
    for conv_stack itself. The unfused chain turns each -0.0 gradient
    into +0.0 as it adds it into a zero-filled .grad; the fused backward
    does not, but every accumulator starts at +0.0, so the final
    gradients agree."""

    @pytest.mark.parametrize("activation", [None, "relu", "sigmoid"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("kernel", [1, 3])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("padding", [0, 1])
    def test_matches_the_unfused_composition(self, dtype, kernel, stride,
                                             padding, activation):
        # the reference conv2d, with and without a bias
        x = special_input(dtype, seed=30)
        k = rand((5, 4, kernel, kernel), seed=31).astype(dtype)
        bias = np.array(BIAS, dtype=dtype)
        oh = (9 + 2 * padding - kernel) // stride + 1
        ow = (8 + 2 * padding - kernel) // stride + 1
        weights = rand((3, 5, oh, ow), seed=32).astype(dtype)
        weights[:, 3] = 0.0
        weights[:, 4] = -np.abs(weights[:, 4])   # -0.0 through the ReLU
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)   # inf - inf
            for b in (None, bias):
                got = conv2d_run(x, k, stride, padding, b, activation,
                                 conv2d, weights)
                want = conv2d_run(x, k, stride, padding, b, activation,
                                  unfused_conv2d, weights)
                assert len(got) == len(want) == (3 if b is None else 4)
                for g, w in zip(got, want):
                    assert_same_bits(g, w)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("kernel", [1, 3])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("padding", [0, 1])
    def test_stack_matches_the_unfused_composition(self, dtype, kernel,
                                                   stride, padding):
        x = special_input(dtype, seed=30)
        stages, head = single(dtype, kernel, stride, padding)
        oh = (9 + 2 * padding - kernel) // stride + 1
        ow = (8 + 2 * padding - kernel) // stride + 1
        weights = rand((3, 5, oh, ow), seed=32).astype(dtype)
        weights[:, 3] = 0.0
        weights[:, 4] = -np.abs(weights[:, 4])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)   # inf - inf
            got = conv_run(x, stages, head, weights=weights)
            want = conv_run(x, stages, head, unfused_stack, weights)
        assert len(got) == len(want) == 5
        for g, w in zip(got, want):
            assert_same_bits(g, w)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_dead_relu_gradients_land_as_positive_zeros(self, dtype):
        # every masked gradient is -0.0 (a negative weight times a false
        # mask), so the fused bias sum is -0.0 until it lands in a .grad;
        # the head then sees only zeros, so its gradient is zero too
        x = rand((2, 3, 6, 6), seed=33).astype(dtype)
        stages = [(rand((4, 3, 3, 3), seed=34).astype(dtype),
                   np.full(4, -1e4, dtype=dtype), 1, 1)]
        head = rand((2, 4, 1, 1), seed=36).astype(dtype)
        weights = -np.abs(rand((2, 2, 6, 6), seed=35)).astype(dtype)
        for conv in (ad.conv_stack, unfused_stack):
            for grad in conv_run(x, stages, head, conv, weights)[1:]:
                assert_same_bits(grad, np.zeros_like(grad))


def unfused_stack(x, stages, head):
    return chained_conv_stack(x, stages, head, conv=unfused_conv2d)


def special_batch(n, dtype, seed):
    """n images of 4 x 9 x 8 holding an all-zero window, a nan and both
    infinities (in one image when n is 1)."""
    x = rand((n, 4, 9, 8), seed=seed).astype(dtype)
    x[0, :, :5, :5] = 0.0
    x[n // 2, 1, 2, 3] = np.nan
    x[n - 1, 2, 6, 1] = np.inf
    x[n - 1, 3, 4, 6] = -np.inf
    return x


class TestConvStack:
    """conv_stack gives the chain of single-stage reference convs bit for
    bit, whatever the batch's split into slices and blocks."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n", [1, ad.BLOCK - 1, ad.BLOCK, ad.BLOCK + 1,
                                   2 * ad.BLOCK + 3])
    @pytest.mark.parametrize("mode", ["taped", "taped-no-x-grad",
                                      "untaped"])
    def test_matches_the_reference_chain(self, monkeypatch, dtype, n, mode):
        x = special_batch(n, dtype, seed=40 + n)
        stages = [(rand((5, 4, 3, 3), seed=41).astype(dtype),
                   np.array(BIAS, dtype=dtype), 2, 1),
                  (rand((6, 5, 3, 3), seed=42).astype(dtype),
                   rand(6, seed=43).astype(dtype), 1, 1),
                  (rand((3, 6, 1, 1), seed=44).astype(dtype),
                   rand(3, seed=45).astype(dtype), 1, 0)]
        head = rand((4, 3, 1, 1), seed=46).astype(dtype)
        weights = rand((n, 4, 5, 4), seed=47).astype(dtype)
        weights[:, 1] = 0.0
        weights[:, 2] = -np.abs(weights[:, 2])
        kwargs = dict(weights=weights, tape=mode != "untaped",
                      x_grad=mode == "taped")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)   # inf - inf
            monkeypatch.setattr(ad, "_WORKERS", 1)
            want = conv_run(x, stages, head, chained_conv_stack, **kwargs)
            assert len(want) == (1 if mode == "untaped" else
                                 9 if mode == "taped" else 8)
            for workers in (1, 2, 3):
                monkeypatch.setattr(ad, "_WORKERS", workers)
                got = conv_run(x, stages, head, **kwargs)
                for g, w in zip(got, want, strict=True):
                    assert_same_bits(g, w)

    def test_head_alone_trains(self):
        # the stages below the head take no gradient and run forward only
        x = rand((3, 4, 9, 8), seed=48)
        k, bias = Tensor(rand((5, 4, 3, 3), seed=49)), Tensor(rand(5, 50))
        head = Tensor(rand((2, 5, 1, 1), seed=51), requires_grad=True)
        with Tape() as tape:
            out = ad.conv_stack(Tensor(x), [(k, bias, 2, 1)], head)
            tape.backward(weighted_sum(out))
        want = Tensor(head.values.copy(), requires_grad=True)
        with Tape() as tape:
            out = conv2d(conv2d(Tensor(x), k, 2, 1, bias, "relu"), want,
                         activation="sigmoid")
            tape.backward(weighted_sum(out))
        assert k.grad is None and bias.grad is None
        assert_same_bits(head.grad, want.grad)


def conv_in_child(x, stages, head, conn):
    conn.send(conv_run(x, stages, head))
    conn.close()


def run_python(code):
    """Run ``code`` in a fresh interpreter, which must exit by itself."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    return subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                          env=env, timeout=30, capture_output=True, text=True)


class TestSplitBatch:
    """Slices of a batch run on worker threads; no float bit depends on
    how many."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("kernel", [1, 3])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("padding", [0, 1])
    def test_conv2d_bits_do_not_depend_on_workers(self, monkeypatch, dtype,
                                                  kernel, stride, padding):
        for n in (1, 3, 17):
            x = rand((n, 4, 9, 8), seed=n).astype(dtype)
            stages, head = single(dtype, kernel, stride, padding, seed=n + 1)
            for tape in (True, False):
                runs = []
                for workers in (1, 2, 3):
                    monkeypatch.setattr(ad, "_WORKERS", workers)
                    runs.append(conv_run(x, stages, head, tape=tape))
                for run in runs[1:]:
                    for got, want in zip(run, runs[0]):
                        assert_same_bits(got, want)

    def test_one_by_one_input_gradient_is_the_column_gradient(self):
        # bit for bit what adding the columns into a zero buffer gave;
        # x.grad starts at +0.0, so even a -0.0 column would land as +0.0
        x = Tensor(rand((2, 3, 4, 5), seed=20), requires_grad=True)
        k = Tensor(rand((6, 3, 1, 1), seed=21))
        weights = rand((2, 6, 4, 5), seed=22)
        weights[:, :, 1] = 0.0
        with Tape() as tape:
            out = ad.conv_stack(x, [], k)
            tape.backward(weighted_sum(out, weights))
        gf = weights * out.values * (1.0 - out.values)
        cols_grad = np.matmul(k.values.reshape(6, 3).T, gf.reshape(2, 6, 20))
        want = np.zeros(x.shape)
        ad._col2im(cols_grad, want, 1, 1, 1, 4, 5)
        assert_same_bits(x.grad, 0.0 + want)

    def test_slices_cover_the_batch_in_order(self, monkeypatch):
        monkeypatch.setattr(ad, "_WORKERS", 3)
        seen = []
        ad._split_batch(8, seen.append)
        assert sorted((p.start, p.stop) for p in seen) == [(0, 2), (2, 5),
                                                           (5, 8)]
        seen.clear()
        ad._split_batch(2, seen.append)
        assert sorted((p.start, p.stop) for p in seen) == [(0, 1), (1, 2)]

    @pytest.mark.parametrize("failing", [0, 6], ids=["pool", "caller"])
    def test_exception_in_a_slice_reaches_the_caller(self, monkeypatch,
                                                     failing):
        monkeypatch.setattr(ad, "_WORKERS", 3)
        done = []

        def fn(part):
            if part.start <= failing < part.stop:
                raise ArithmeticError(f"slice {part.start}")
            done.append(part.start)

        with pytest.raises(ArithmeticError, match="slice"):
            ad._split_batch(9, fn)
        assert len(done) == 2       # the other slices ran to the end

    def test_nested_call_raises(self, monkeypatch):
        monkeypatch.setattr(ad, "_WORKERS", 2)
        with pytest.raises(RuntimeError, match="inside a slice"):
            ad._split_batch(4, lambda part: ad._split_batch(2, print))
        ad._split_batch(4, lambda part: None)   # the caller is usable again

    def test_concurrent_callers_share_the_pool(self, monkeypatch):
        # more threads than cores, switching often: every row of every
        # call is written exactly once, and by that call's slices
        monkeypatch.setattr(ad, "_WORKERS", 3)
        counts = np.zeros((4, 50, 7), dtype=np.int64)

        def caller(k):
            for r in range(50):
                def fn(part):
                    for i in range(part.start, part.stop):
                        counts[k, r, i] += 1
                ad._split_batch(7, fn)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=caller, args=(k,))
                       for k in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert (counts == 1).all()

    def test_concurrent_callers_start_one_worker_thread(self):
        # unbounded, a submit that finds no idle thread starts another
        done = run_python("""
            import sys, threading
            import prototree.autodiff as ad
            ad._WORKERS = 2
            sys.setswitchinterval(1e-6)
            def caller():
                for _ in range(200):
                    ad._split_batch(4, lambda part: sum(range(100)))
            threads = [threading.Thread(target=caller) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            print(sum(thread.name.startswith("prototree-split")
                      for thread in threading.enumerate()))
            """)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["1"]

    def test_interpreter_exits_after_a_split(self):
        # the executor's threads are not daemons: exit must join them
        done = run_python("import prototree.autodiff as ad; ad._WORKERS = 2; "
                          "ad._split_batch(4, lambda part: None)")
        assert done.returncode == 0, done.stderr

    def test_pool_keeps_no_task_alive(self, monkeypatch):
        # a finished slice's buffers are freed with the caller's last
        # reference, not when the pool thread takes its next task
        monkeypatch.setattr(ad, "_WORKERS", 2)
        buffer = np.zeros(4)
        alive = weakref.ref(buffer)
        ad._split_batch(2, lambda part, b=buffer: b[part].fill(1.0))
        del buffer
        deadline = time.monotonic() + 10
        while alive() is not None and time.monotonic() < deadline:
            time.sleep(0.01)
        assert alive() is None

    def test_forked_child_gets_a_pool_of_its_own(self, monkeypatch):
        monkeypatch.setattr(ad, "_WORKERS", 2)
        x = rand((5, 3, 6, 6), seed=23).astype(np.float32)
        stages = [(rand((4, 3, 3, 3), seed=24).astype(np.float32),
                   rand(4, seed=25).astype(np.float32), 1, 1)]
        head = rand((2, 4, 1, 1), seed=26).astype(np.float32)
        want = conv_run(x, stages, head)    # starts the parent's pool
        context = multiprocessing.get_context("fork")
        receive, send = context.Pipe(duplex=False)
        child = context.Process(target=conv_in_child,
                                args=(x, stages, head, send))
        child.start()
        send.close()
        try:
            assert receive.poll(120), "the forked child hung"
            got = receive.recv()
        finally:
            child.join(timeout=60)
            hung = child.is_alive()
            if hung:
                child.kill()
                child.join()
        assert not hung and child.exitcode == 0
        for g, w in zip(got, want):
            assert_same_bits(g, w)

    @pytest.mark.parametrize("mode", ["raise", "ignore"])
    def test_slices_keep_the_callers_error_state(self, monkeypatch, mode):
        monkeypatch.setattr(ad, "_WORKERS", 2)
        big = np.array([1e38, 1e38, 1.0, 1.0], dtype=np.float32)

        def fn(part):           # overflows in the pool's slice only
            big[part] *= np.float32(10)

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with np.errstate(over=mode):
                if mode == "raise":
                    with pytest.raises(FloatingPointError):
                        ad._split_batch(4, fn)
                else:
                    ad._split_batch(4, fn)
        assert not caught

    @pytest.mark.parametrize("env, cpus, workers", [
        ({}, 4, 1),
        ({"OPENBLAS_NUM_THREADS": "1"}, 2, 2),
        ({"OPENBLAS_NUM_THREADS": "1"}, 4, 2),    # capped at 2
        ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 4, 2),
        ({"OPENBLAS_NUM_THREADS": "2"}, 2, 1),
        ({"OPENBLAS_NUM_THREADS": "0", "GOTO_NUM_THREADS": "3"}, 4, 1),
        ({"OMP_NUM_THREADS": "1"}, 2, 2),
        ({"OMP_NUM_THREADS": "junk"}, 4, 1),
        ({"OPENBLAS_NUM_THREADS": "8"}, 4, 1),
    ])
    def test_workers_are_the_cpus_blas_leaves_idle(self, monkeypatch, env,
                                                   cpus, workers):
        for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                     "OMP_NUM_THREADS"):
            monkeypatch.delenv(name, raising=False)
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        monkeypatch.setattr(ad.os, "sched_getaffinity",
                            lambda pid: set(range(cpus)), raising=False)
        assert ad._worker_count() == workers


class TestSoftmax:
    """The softmax the model uses: LeafParams.distributions, row-wise."""

    def test_zero_logits_uniform(self):
        out = LeafParams(np.zeros((1, 7))).distributions()
        np.testing.assert_allclose(out, np.full((1, 7), 1 / 7), atol=1e-12)

    def test_analytic_two_class(self):
        out = LeafParams(np.array([[np.log(2.0), 0.0]])).distributions()
        np.testing.assert_allclose(out, [[2 / 3, 1 / 3]], atol=1e-12)

    def test_matches_extended_precision_oracle(self):
        logits = rand((1, 5), seed=6, scale=4.0)
        got = LeafParams(logits).distributions()
        np.testing.assert_allclose(got, softmax_extended(logits), atol=1e-7)

    @given(st.lists(st.floats(-30, 30), min_size=1, max_size=8),
           st.floats(-50, 50))
    @settings(max_examples=50, deadline=None)
    def test_normalized_and_shift_invariant(self, logits, shift):
        row = np.array([logits])
        base = LeafParams(row).distributions()
        assert abs(base.sum() - 1.0) < 1e-6
        shifted = LeafParams(row + shift).distributions()
        np.testing.assert_allclose(base, shifted, atol=1e-6)


class TestBackward:
    def test_sum_gives_ones(self):
        x = Tensor(rand((3, 4), seed=7), requires_grad=True)
        with Tape() as tape:
            tape.backward(weighted_sum(x))
        np.testing.assert_array_equal(x.grad, np.ones((3, 4)))

    def test_square_sum_gives_two_x(self):
        x = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
        with Tape() as tape:
            tape.backward(square_sum(x))
        np.testing.assert_allclose(x.grad, [2.0, 4.0, 6.0])

    def test_accumulation_is_additive(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        for _ in range(2):
            with Tape() as tape:
                tape.backward(square_sum(x))
        np.testing.assert_allclose(x.grad, [4.0, 8.0])

    def test_non_scalar_rejected(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with Tape() as tape:
            y = neg(x)
            with pytest.raises(ValueError, match="scalar"):
                tape.backward(y)

    def test_untaped_tensor_rejected(self):
        x = Tensor(np.ones(1), requires_grad=True)
        with Tape() as tape:
            pass
        with pytest.raises(ValueError, match="tape"):
            tape.backward(x)

    def test_grad_present_iff_requires_grad(self):
        assert Tensor(np.ones(2)).grad is None
        tracked = Tensor(np.ones(2), requires_grad=True)
        assert tracked.grad is not None and tracked.grad.shape == (2,)


def gradcheck(build, params, tol=1e-4):
    """Analytic gradients against central differences, float64."""
    with Tape() as tape:
        tape.backward(build())
    for p in params:
        numeric = finite_difference_grad(lambda: build().item(), p)
        err = max_relative_error(p.grad, numeric)
        assert err < tol, f"gradient mismatch {err:.2e}"
        p.zero_grad()


class TestGradientsPerOp:
    def test_exp_neg_sigmoid_relu(self):
        x = Tensor(rand((2, 3, 4, 4), seed=10), requires_grad=True)
        k = Tensor(rand((2, 3, 1, 1), seed=11), requires_grad=True)
        gradcheck(lambda: weighted_sum(exp(neg(ad.conv_stack(x, [], k)))),
                  [x, k])
        bias = Tensor(np.full(2, 0.1), requires_grad=True)
        head = Tensor(rand((2, 2, 1, 1), seed=12), requires_grad=True)
        gradcheck(lambda: weighted_sum(ad.conv_stack(
            x, [(k, bias, 1, 0)], head), np.full((2, 2, 4, 4), 1 / 8)),
            [x, k, bias, head])

    def test_matmul_gradient(self):
        a = Tensor(rand((3, 4), seed=13), requires_grad=True)
        b = Tensor(rand((4, 2), seed=14), requires_grad=True)
        gradcheck(lambda: square_sum(matmul(a, b)), [a, b])

    def test_conv_and_bias_gradient(self):
        x = Tensor(rand((2, 3, 5, 5), seed=15), requires_grad=True)
        k = Tensor(rand((2, 3, 3, 3), seed=16), requires_grad=True)
        bias = Tensor(rand(2, seed=17), requires_grad=True)
        k2 = Tensor(rand((3, 2, 3, 3), seed=18), requires_grad=True)
        bias2 = Tensor(rand(3, seed=19), requires_grad=True)
        head = Tensor(rand((2, 3, 1, 1), seed=20), requires_grad=True)
        gradcheck(lambda: square_sum(ad.conv_stack(
            x, [(k, bias, 2, 1), (k2, bias2, 1, 1)], head)),
            [x, k, bias, k2, bias2, head])


class TestTensorBasics:
    def test_shape_value_consistency(self):
        t = Tensor(np.arange(6.0).reshape(2, 3))
        assert t.shape == (2, 3) and t.dtype == np.float64

    def test_dtype_mixing_rejected(self):
        x = Tensor(np.ones((1, 3, 2, 2), dtype=np.float32))
        k = Tensor(np.ones((1, 3, 1, 1), dtype=np.float64))
        with pytest.raises(ValueError, match="dtype"):
            ad.conv_stack(x, [], k)


def _references(path):
    """(name, line) of every name, attribute and from-import in a file."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.ImportFrom):
            yield from ((alias.name, node.lineno) for alias in node.names)


def _public_definitions(path):
    """(dotted name, name, first line, last line) of each public function
    and class of a module, and of each public method of its classes."""
    for node in ast.parse(path.read_text()).body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                or node.name.startswith("_"):
            continue
        yield (f"{path.stem}.{node.name}", node.name, node.lineno,
               node.end_lineno)
        for sub in node.body if isinstance(node, ast.ClassDef) else ():
            if isinstance(sub, ast.FunctionDef) and \
                    not sub.name.startswith("_"):
                yield (f"{path.stem}.{node.name}.{sub.name}", sub.name,
                       sub.lineno, sub.end_lineno)


# data.ablated_test_split builds the occlusion test's data only: it lives
# beside the generator whose internals it shares, and no program uses it
_USED_BY_TESTS_ONLY = {"data.ablated_test_split"}


class TestNoDeadOps:
    def test_every_public_function_is_used_by_the_package(self):
        """Every public function, class and method of the package is
        referenced in src/, scripts/ or perfbench/ outside its own
        definition; a re-export in __init__ is no use."""
        package = pathlib.Path(ad.__file__).parent
        repo = package.parent.parent
        sources = [path for path in sorted(package.glob("*.py"))
                   if path.name != "__init__.py"]
        sources += sorted((repo / "scripts").glob("**/*.py"))
        sources += sorted((repo / "perfbench").glob("**/*.py"))
        where: dict[str, list] = {}
        for path in sources:
            for name, line in _references(path):
                where.setdefault(name, []).append((path, line))
        defined, unused = [], []
        for module in sorted(package.glob("*.py")):
            for dotted, name, first, last in _public_definitions(module):
                defined.append(dotted)
                if all(path == module and first <= line <= last
                       for path, line in where.get(name, [])):
                    unused.append(dotted)
        assert {"autodiff.conv_stack", "model.ProtoTreeModel.predict",
                "refine.evaluate"} <= set(defined)
        assert sorted(unused) == sorted(_USED_BY_TESTS_ONLY)
