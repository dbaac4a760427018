import ast
import inspect
import pathlib
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import prototree.autodiff as ad
from prototree.autodiff import Tape, Tensor
from prototree.tree import LeafParams

from oracles import assert_same_bits, finite_difference_grad, \
    loop_im2col, max_relative_error, naive_conv2d, sign_split_sigmoid, \
    softmax_extended, square_sum, weighted_sum


def rand(shape, seed=0, scale=1.0):
    return np.random.default_rng(seed).normal(size=shape) * scale


class TestConv2d:
    def test_all_ones_sums_to_nine(self):
        x = Tensor(np.ones((1, 1, 3, 3)))
        k = Tensor(np.ones((1, 1, 3, 3)))
        out = ad.conv2d(x, k).values
        assert out.shape == (1, 1, 1, 1)
        assert out[0, 0, 0, 0] == 9.0

    def test_identity_1x1_kernel(self):
        x = Tensor(rand((2, 1, 4, 5), seed=1))
        k = Tensor(np.ones((1, 1, 1, 1)))
        out = ad.conv2d(x, k).values
        np.testing.assert_array_equal(out, x.values)

    def test_matches_naive_oracle(self):
        x = rand((1, 2, 4, 4), seed=2)
        k = rand((3, 2, 2, 2), seed=3)
        got = ad.conv2d(Tensor(x), Tensor(k)).values
        np.testing.assert_allclose(got, naive_conv2d(x, k), atol=1e-6)

    @pytest.mark.parametrize("shape,kshape,stride,padding", [
        ((2, 4, 8, 8), (3, 4, 3, 3), 1, 0),
        ((2, 4, 8, 8), (5, 4, 3, 3), 2, 1),
        ((1, 3, 7, 5), (2, 3, 2, 4), 1, 2),
        ((2, 2, 8, 8), (2, 2, 1, 1), 3, 0),
    ])
    def test_shapes_against_oracle(self, shape, kshape, stride, padding):
        x, k = rand(shape, seed=4), rand(kshape, seed=5)
        got = ad.conv2d(Tensor(x), Tensor(k), stride, padding).values
        np.testing.assert_allclose(got, naive_conv2d(x, k, stride, padding),
                                   atol=1e-6)

    def test_channel_mismatch_rejected(self):
        with pytest.raises(ValueError, match="channel"):
            ad.conv2d(Tensor(np.ones((1, 2, 4, 4))),
                      Tensor(np.ones((1, 3, 2, 2))))

    def test_zero_sized_output_rejected(self):
        with pytest.raises(ValueError, match="zero-sized"):
            ad.conv2d(Tensor(np.ones((1, 1, 2, 2))),
                      Tensor(np.ones((1, 1, 5, 5))))


class TestLoopReferences:
    """The strided im2col, the zero-buffer padding and the one-pass
    sigmoid give the loop versions' results bit for bit."""

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
        assert_same_bits(ad._im2col(xp, kernel, kernel, stride, oh, ow), cols)
        want = np.matmul(k.reshape(5, -1)[None], cols).reshape(3, 5, oh, ow)
        assert_same_bits(
            ad.conv2d(Tensor(x), Tensor(k), stride, padding).values, want)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_sigmoid(self, dtype):
        special = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 1e-45,
                   -1e-45, 88.72, -88.72, 104.0, -104.0]
        rng = np.random.default_rng(11)
        wide = rng.standard_normal(10 ** 6) \
            * rng.choice([1e-3, 1.0, 10.0, 100.0], 10 ** 6)
        values = np.concatenate([special, wide]).astype(dtype)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = ad.sigmoid(Tensor(values)).values
        assert_same_bits(got, sign_split_sigmoid(values))


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
            y = ad.neg(x)
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
        x = Tensor(rand(8, seed=10), requires_grad=True)
        gradcheck(lambda: weighted_sum(ad.exp(ad.neg(ad.sigmoid(x)))), [x])
        shifted = Tensor(x.values + 0.1, requires_grad=True)
        gradcheck(lambda: weighted_sum(ad.relu(shifted), np.full(8, 1 / 8)),
                  [shifted])

    def test_matmul_gradient(self):
        a = Tensor(rand((3, 4), seed=13), requires_grad=True)
        b = Tensor(rand((4, 2), seed=14), requires_grad=True)
        gradcheck(lambda: square_sum(ad.matmul(a, b)), [a, b])

    def test_conv_and_bias_gradient(self):
        x = Tensor(rand((2, 3, 5, 5), seed=15), requires_grad=True)
        k = Tensor(rand((2, 3, 3, 3), seed=16), requires_grad=True)
        bias = Tensor(rand(2, seed=17), requires_grad=True)
        gradcheck(lambda: square_sum(ad.channel_bias_add(
            ad.conv2d(x, k, stride=2, padding=1), bias)), [x, k, bias])


class TestTensorBasics:
    def test_shape_value_consistency(self):
        t = Tensor(np.arange(6.0).reshape(2, 3))
        assert t.shape == (2, 3) and t.size == 6

    def test_dtype_mixing_rejected(self):
        a = Tensor(np.ones((1, 3), dtype=np.float32))
        b = Tensor(np.ones((3, 1), dtype=np.float64))
        with pytest.raises(ValueError, match="dtype"):
            ad.matmul(a, b)


def _autodiff_names_used(source):
    """Names a module takes from the engine: ``ad.name`` or
    ``autodiff.name`` reads and ``from .autodiff import name``."""
    used = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == "autodiff":
            used |= {alias.name for alias in node.names}
        elif isinstance(node, ast.Attribute) and \
                isinstance(node.value, ast.Name) and \
                node.value.id in ("ad", "autodiff"):
            used.add(node.attr)
    return used


class TestNoDeadOps:
    def test_every_public_function_is_used_by_the_package(self):
        package = pathlib.Path(ad.__file__).parent
        used = set()
        for module in sorted(package.glob("*.py")):
            if module.name not in ("autodiff.py", "__init__.py"):
                used |= _autodiff_names_used(module.read_text())
        public = sorted(name for name, obj in vars(ad).items()
                        if inspect.isfunction(obj) and not name.startswith("_")
                        and obj.__module__ == ad.__name__)
        assert "conv2d" in public and "record_op" in public
        assert [name for name in public if name not in used] == []
