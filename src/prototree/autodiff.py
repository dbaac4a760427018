"""Dense tensors with reverse-mode differentiation.

A small numpy-backed engine. Values live in a numpy array; every
differentiable operation computes its result eagerly and, when a tape is
active and some input participates in gradients, records a backward
closure. The engine keeps only the ops the model records; anything else
is built from ``record_op`` with its own backward rule.

Precision is carried by the arrays themselves: float32 for training,
float64 for derivative checks. Mixing the two in one operation is an
error.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

_TAPES: list["Tape"] = []

_FLOAT_DTYPES = (np.float32, np.float64)


class Tensor:
    """A dense multidimensional array, optionally tracked for gradients.

    ``grad`` exists exactly when ``requires_grad`` is set and accumulates
    additively across backward passes until :meth:`zero_grad`.
    """

    __slots__ = ("values", "requires_grad", "grad", "_tape")

    def __init__(self, values, requires_grad: bool = False, dtype=None):
        arr = np.array(values, dtype=dtype, copy=True) if dtype else np.asarray(values)
        if arr.dtype not in _FLOAT_DTYPES:
            arr = arr.astype(np.float64)
        self.values = arr
        self.requires_grad = bool(requires_grad)
        self.grad = np.zeros_like(arr) if requires_grad else None
        self._tape: Tape | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    @property
    def dtype(self):
        return self.values.dtype

    @property
    def size(self) -> int:
        return self.values.size

    def item(self) -> float:
        if self.values.size != 1:
            raise ValueError(f"item() needs a scalar tensor, got shape {self.shape}")
        return float(self.values.reshape(-1)[0])

    def zero_grad(self) -> None:
        if self.grad is not None:
            self.grad[...] = 0.0


class Tape:
    """Records one forward pass; freed after its backward pass.

    A tape and the tensors flowing through it belong to a single thread.
    """

    def __init__(self):
        self._nodes: list[tuple[Tensor, Callable[[np.ndarray], None]]] = []
        self._consumed = False

    def __enter__(self) -> "Tape":
        _TAPES.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        _TAPES.remove(self)

    def backward(self, loss: Tensor) -> None:
        """Accumulate d loss / d tensor into every tracked tensor's grad."""
        if loss.values.size != 1:
            raise ValueError(f"backward needs a scalar loss, got shape {loss.shape}")
        if loss._tape is not self:
            raise ValueError("loss was not produced on this tape")
        if self._consumed:
            raise ValueError("tape already consumed by a previous backward pass")
        loss.grad += np.ones_like(loss.values)
        for out, bwd in reversed(self._nodes):
            bwd(out.grad)
        # free the pass: bounded memory inside training loops
        self._nodes.clear()
        self._consumed = True


def record_op(values: np.ndarray, inputs: Sequence[Tensor],
              backward_fn: Callable[[np.ndarray], None]) -> Tensor:
    """Wrap an op result, recording ``backward_fn`` if gradients are live.

    ``backward_fn`` receives the output gradient and must accumulate into
    each input's ``grad`` (guarding on ``requires_grad`` itself).
    """
    if _TAPES and any(t.requires_grad for t in inputs):
        out = Tensor(values, requires_grad=True)
        tape = _TAPES[-1]
        out._tape = tape
        tape._nodes.append((out, backward_fn))
        return out
    return Tensor(values)


def neg(a: Tensor) -> Tensor:
    out = -a.values

    def bwd(g):
        if a.requires_grad:
            a.grad -= g

    return record_op(out, [a], bwd)


def exp(a: Tensor) -> Tensor:
    out = np.exp(a.values)

    def bwd(g):
        if a.requires_grad:
            a.grad += g * out

    return record_op(out, [a], bwd)


def relu(a: Tensor) -> Tensor:
    out = np.maximum(a.values, 0.0)

    def bwd(g):
        if a.requires_grad:
            a.grad += g * (a.values > 0)

    return record_op(out, [a], bwd)


def sigmoid(a: Tensor) -> Tensor:
    # e = exp(-|x|) cannot overflow; min(x, -x) keeps a nan's sign bit
    v = a.values
    e = np.exp(np.minimum(v, -v))
    out = np.where(v >= 0, 1.0, e) / (1.0 + e)

    def bwd(g):
        if a.requires_grad:
            a.grad += g * out * (1.0 - out)

    return record_op(out, [a], bwd)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.values.ndim != 2 or b.values.ndim != 2:
        raise ValueError("matmul handles 2-D operands only")
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"matmul inner extents differ: {a.shape} @ {b.shape}")
    if a.dtype != b.dtype:
        raise ValueError(f"dtype mismatch: {a.dtype} vs {b.dtype}")
    out = a.values @ b.values

    def bwd(g):
        if a.requires_grad:
            a.grad += g @ b.values.T
        if b.requires_grad:
            b.grad += a.values.T @ g

    return record_op(out, [a, b], bwd)


def _im2col(xp: np.ndarray, kh: int, kw: int, stride: int,
            oh: int, ow: int) -> np.ndarray:
    n, c = xp.shape[:2]
    sn, sc, sh, sw = xp.strides
    # N x C x kh x kw x oh x ow window view, copied once by the reshape
    # unless it tiles xp exactly (a 1x1 kernel at stride 1)
    windows = np.lib.stride_tricks.as_strided(
        xp, (n, c, kh, kw, oh, ow),
        (sn, sc, sh, sw, sh * stride, sw * stride), writeable=False)
    return windows.reshape(n, c * kh * kw, oh * ow)


def _col2im(cols_grad: np.ndarray, padded_shape, kh: int, kw: int,
            stride: int, oh: int, ow: int) -> np.ndarray:
    n, c, hp, wp = padded_shape
    out = np.zeros(padded_shape, dtype=cols_grad.dtype)
    cg = cols_grad.reshape(n, c, kh, kw, oh, ow)
    for i in range(kh):
        for j in range(kw):
            out[:, :, i:i + stride * oh:stride,
                j:j + stride * ow:stride] += cg[:, :, i, j]
    return out


def conv2d(x: Tensor, kernel: Tensor, stride: int = 1, padding: int = 0) -> Tensor:
    """Cross-correlation of an NCHW batch with an FCkk kernel stack."""
    if x.values.ndim != 4 or kernel.values.ndim != 4:
        raise ValueError("conv2d expects 4-D input and kernel")
    n, c, h, w = x.shape
    f, ck, kh, kw = kernel.shape
    if c != ck:
        raise ValueError(f"channel mismatch: input has {c}, kernel expects {ck}")
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    if padding < 0:
        raise ValueError(f"padding must be >= 0, got {padding}")
    if x.dtype != kernel.dtype:
        raise ValueError(f"dtype mismatch: {x.dtype} vs {kernel.dtype}")
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (w + 2 * padding - kw) // stride + 1
    if oh < 1 or ow < 1 or h + 2 * padding < kh or w + 2 * padding < kw:
        raise ValueError(
            f"zero-sized output: input {h}x{w}, kernel {kh}x{kw}, "
            f"stride {stride}, padding {padding}")
    xp = x.values
    if padding:
        xp = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=x.dtype)
        xp[:, :, padding:padding + h, padding:padding + w] = x.values
    cols = _im2col(xp, kh, kw, stride, oh, ow)
    kflat = kernel.values.reshape(f, -1)
    out = np.matmul(kflat[None], cols).reshape(n, f, oh, ow)

    def bwd(g):
        gf = g.reshape(n, f, oh * ow)
        if kernel.requires_grad:
            kernel.grad += np.matmul(gf, cols.transpose(0, 2, 1)) \
                .sum(axis=0).reshape(kernel.shape)
        if x.requires_grad:
            cols_grad = np.matmul(kflat.T[None], gf)
            gx = _col2im(cols_grad, xp.shape, kh, kw, stride, oh, ow)
            if padding:
                gx = gx[:, :, padding:padding + h, padding:padding + w]
            x.grad += gx

    return record_op(out, [x, kernel], bwd)


def channel_bias_add(x: Tensor, bias: Tensor) -> Tensor:
    """Add a per-channel bias to an NCHW tensor."""
    if x.values.ndim != 4 or bias.values.ndim != 1:
        raise ValueError("channel_bias_add expects NCHW input and 1-D bias")
    if x.shape[1] != bias.shape[0]:
        raise ValueError(f"bias length {bias.shape[0]} != channels {x.shape[1]}")
    out = x.values + bias.values.reshape(1, -1, 1, 1)

    def bwd(g):
        if x.requires_grad:
            x.grad += g
        if bias.requires_grad:
            bias.grad += g.sum(axis=(0, 2, 3))

    return record_op(out, [x, bias], bwd)
