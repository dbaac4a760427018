"""Dense tensors with reverse-mode differentiation.

A small numpy-backed engine: ``Tensor``, ``Tape``, ``record_op`` and
``conv2d``, whose batch slices run on a ``ThreadPoolExecutor`` over the
cores BLAS leaves idle. Values live in a numpy array; every
differentiable operation computes its result eagerly and, when a tape is
active and some input participates in gradients, records a backward
closure. ``conv2d`` is the only op kept here, and it applies a stage's
bias and activation inside its own batch slices; routing, the leaf mix
and the loss record their own ops, each through ``record_op`` with its
own backward rule.

Precision is carried by the arrays themselves: float32 for training,
float64 for derivative checks. Mixing the two in one operation is an
error.
"""

from __future__ import annotations

import os
import re
import threading
from concurrent.futures import ThreadPoolExecutor
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

    def __init__(self, values, requires_grad: bool = False):
        arr = np.asarray(values)
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


def _blas_threads(cpus: int) -> int:
    """Threads OpenBLAS runs: the first positive count among the variables
    it reads, in its order, capped at ``cpus``; one per CPU if none."""
    for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        digits = re.match(r"\s*[+-]?\d+", os.environ.get(name, ""))  # as atoi
        if digits and int(digits.group()) > 0:
            return min(int(digits.group()), cpus)
    return cpus


# the most slices ever timed: more threads per batch were never measured,
# and small slices serialise on the GIL
_MAX_WORKERS = 2


def _worker_count() -> int:
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:      # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return max(1, min(_MAX_WORKERS, cpus // _blas_threads(cpus)))


# slices a batch is split into: the CPUs that BLAS's own threads leave idle
_WORKERS = _worker_count()
_IN_SLICE = threading.local()
_EXECUTOR: ThreadPoolExecutor


def _start_executor() -> None:
    # threads start on first submit; unbounded, each submit that finds no
    # idle thread would start one more, each with a glibc arena of its own
    global _EXECUTOR
    _EXECUTOR = ThreadPoolExecutor(
        max(1, _WORKERS - 1), thread_name_prefix="prototree-split",
        initializer=setattr, initargs=(_IN_SLICE, "active", True))


_start_executor()
if hasattr(os, "register_at_fork"):
    # a forked child has none of the executor's threads; it starts its own
    os.register_at_fork(after_in_child=_start_executor)


def _split_batch(n: int, fn: Callable[[slice], None]) -> None:
    """Run ``fn(part)`` over contiguous slices ``part`` of ``range(n)``.

    The calling thread runs the last slice and ``_EXECUTOR``, whose
    threads (one fewer than ``_WORKERS`` at import) start on first use,
    runs the others, up to ``_WORKERS`` slices in all. ``fn`` must write
    only its own slice's rows of buffers the caller allocated, so that
    nothing it computes depends on the number of slices; any sum across
    slices stays with the caller. It must not touch a tape or a
    ``Tensor``, nor call ``_split_batch`` again: a worker thread waiting
    on its own executor could wait forever, so a nested call raises.
    Every slice runs under the caller's numpy error state, which a worker
    thread would not inherit. The first exception a slice raises reaches
    the caller, after every slice ended.
    """
    if getattr(_IN_SLICE, "active", False):
        raise RuntimeError("_split_batch called from inside a slice")
    parts = max(1, min(_WORKERS, n))
    edges = [k * n // parts for k in range(parts + 1)]
    errors = np.geterr()
    futures = [_EXECUTOR.submit(np.errstate(**errors)(fn), slice(lo, hi))
               for lo, hi in zip(edges[:-2], edges[1:-1])]
    _IN_SLICE.active = True
    try:
        fn(slice(edges[-2], n))
    finally:
        _IN_SLICE.active = False
        # waits for every slice, so none outlives the call
        raised = [f.exception() for f in futures]
    first = next((err for err in raised if err is not None), None)
    if first is not None:
        raise first


def _sigmoid(v: np.ndarray) -> None:
    """The logistic function, in place, split by sign: e = exp(-|v|)
    cannot overflow, and min(v, -v) keeps a nan's sign bit."""
    e = np.exp(np.minimum(v, -v))
    np.divide(np.where(v >= 0, 1.0, e), 1.0 + e, out=v)


def _im2col(xp: np.ndarray, kh: int, kw: int, stride: int,
            oh: int, ow: int, out: np.ndarray) -> np.ndarray:
    """Fill ``out`` with the N x (C kh kw) x (oh ow) columns of xp."""
    n, c = xp.shape[:2]
    sn, sc, sh, sw = xp.strides
    windows = np.lib.stride_tricks.as_strided(
        xp, (n, c, kh, kw, oh, ow),
        (sn, sc, sh, sw, sh * stride, sw * stride), writeable=False)
    out.reshape(windows.shape)[...] = windows
    return out


def _col2im(cols_grad: np.ndarray, out: np.ndarray, kh: int, kw: int,
            stride: int, oh: int, ow: int) -> None:
    """Add each column gradient into the padded-input gradient ``out``."""
    n, c = out.shape[:2]
    cg = cols_grad.reshape(n, c, kh, kw, oh, ow)
    for i in range(kh):
        for j in range(kw):
            out[:, :, i:i + stride * oh:stride,
                j:j + stride * ow:stride] += cg[:, :, i, j]


def conv2d(x: Tensor, kernel: Tensor, stride: int = 1, padding: int = 0,
           bias: Tensor | None = None, activation: str | None = None) -> Tensor:
    """Cross-correlation of an NCHW batch with an FCkk kernel stack, then
    an optional per-channel ``bias`` and ``activation`` (relu, sigmoid).

    Forward and backward run image by image over ``_split_batch``; each
    slice applies the bias and activation in place to its rows right
    after its GEMM. The kernel and bias gradients are summed over the
    batch afterwards, in image order.
    """
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
    if bias is not None and (bias.shape != (f,) or bias.dtype != x.dtype):
        raise ValueError(f"bias must be {x.dtype} of shape ({f},), got "
                         f"{bias.dtype} of shape {bias.shape}")
    if activation not in (None, "relu", "sigmoid"):
        raise ValueError(f"unknown activation {activation!r}")
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (w + 2 * padding - kw) // stride + 1
    if oh < 1 or ow < 1 or h + 2 * padding < kh or w + 2 * padding < kw:
        raise ValueError(
            f"zero-sized output: input {h}x{w}, kernel {kh}x{kw}, "
            f"stride {stride}, padding {padding}")
    # a 1x1 kernel at stride 1 without padding reads x itself as columns
    direct = kh == kw == stride == 1 and not padding
    dtype, xv = x.dtype, x.values
    xp = xv
    if padding:
        xp = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=dtype)
    cols = xv.reshape(n, c, h * w) if direct else \
        np.empty((n, c * kh * kw, oh * ow), dtype=dtype)
    kflat = kernel.values.reshape(f, -1)
    out = np.empty((n, f, oh * ow), dtype=dtype)
    shift = None if bias is None else bias.values[:, None]

    def forward(part):
        if padding:
            xp[part, :, padding:padding + h, padding:padding + w] = xv[part]
        if not direct:
            _im2col(xp[part], kh, kw, stride, oh, ow, out=cols[part])
        o = out[part]
        np.matmul(kflat, cols[part], out=o)
        if shift is not None:
            o += shift
        if activation == "relu":
            np.maximum(o, 0.0, out=o)
        elif activation == "sigmoid":
            _sigmoid(o)

    _split_batch(n, forward)

    def bwd(g):
        gout = g.reshape(n, f, oh * ow)
        # before the activation; as max(nan, 0) is nan, out > 0 means a > 0
        gf = gout if activation is None else np.empty_like(gout)
        per_image = cols_grad = None
        if kernel.requires_grad:
            per_image = np.empty((n, f, c * kh * kw), dtype=dtype)
        if x.requires_grad:
            x_grad = x.grad
            cols_grad = np.empty((n, c * kh * kw, oh * ow), dtype=dtype)
            # 1x1 at stride 1: each column gradient is the input gradient
            gx = cols_grad.reshape(n, c, h, w) if direct else \
                np.zeros(xp.shape, dtype=dtype)

        def backward(part):
            if activation == "relu":
                np.multiply(gout[part], out[part] > 0, out=gf[part])
            elif activation == "sigmoid":
                np.multiply(gout[part] * out[part], 1.0 - out[part],
                            out=gf[part])
            if per_image is not None:
                np.matmul(gf[part], cols[part].transpose(0, 2, 1),
                          out=per_image[part])
            if cols_grad is not None:
                np.matmul(kflat.T, gf[part], out=cols_grad[part])
                if not direct:
                    _col2im(cols_grad[part], gx[part], kh, kw, stride, oh, ow)
                x_grad[part] += gx[part, :, padding:padding + h,
                                   padding:padding + w]

        _split_batch(n, backward)
        if per_image is not None:
            kernel.grad += per_image.sum(axis=0).reshape(kernel.shape)
        if bias is not None and bias.requires_grad:
            bias.grad += gf.reshape(g.shape).sum(axis=(0, 2, 3))

    return record_op(out.reshape(n, f, oh, ow),
                     [t for t in (x, kernel, bias) if t is not None], bwd)
