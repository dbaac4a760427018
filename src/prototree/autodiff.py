"""Dense tensors with reverse-mode differentiation.

A small numpy-backed engine: ``Tensor``, ``Tape``, ``record_op``,
``Buffers`` and ``conv_stack``, whose batch slices run on a
``ThreadPoolExecutor`` over the cores BLAS leaves idle. Values live in a
numpy array; every differentiable operation computes its result eagerly
and, when a tape is active and some input participates in gradients,
records a backward closure. ``conv_stack`` is the only op kept here: a
whole CNN pass, every stage's convolution, bias and activation, as one
op that runs each slice's images through all stages a cache-sized block
at a time; routing, the leaf mix and the loss record their own ops,
each through ``record_op`` with its own backward rule.

Precision is carried by the arrays themselves: float32 for training,
float64 for derivative checks. Mixing the two in one operation is an
error.

A tape made with a ``Buffers`` store lends its ops their large arrays
(``buffer``) and gives them back once its backward has run, so a
training loop that keeps one store maps fresh pages in its first step of
each shape only.
"""

from __future__ import annotations

import os
import re
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence

import numpy as np

_TAPES: list["Tape"] = []
_BACKWARD: list["Tape"] = []    # the tape whose backward is running

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


class Buffers:
    """Arrays kept for reuse, by shape and dtype: the store a training
    loop creates, hands to each step's ``Tape`` and drops when done."""

    def __init__(self):
        self._free: dict[tuple, list[np.ndarray]] = {}

    def take(self, shape, dtype) -> np.ndarray:
        free = self._free.get((tuple(shape), np.dtype(dtype)))
        return free.pop() if free else np.empty(shape, dtype)

    def give(self, arrays: list[np.ndarray]) -> None:
        for a in arrays:
            self._free.setdefault((a.shape, a.dtype), []).append(a)


class Tape:
    """Records one forward pass; freed after its backward pass.

    A tape and the tensors flowing through it belong to a single thread.
    With a ``store``, the arrays its ops ask ``buffer`` for, recorded
    results' values and gradients among them, are lent from the store
    and given back after the backward pass: read a result before another
    tape on the same store records. A second tape alive at the same time
    borrows other arrays.
    """

    def __init__(self, store: Buffers | None = None):
        self._nodes: list[tuple[Tensor, Callable[[np.ndarray], None]]] = []
        self._consumed = False
        self._store = store
        self._lent: list[np.ndarray] = []

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
        _BACKWARD.append(self)
        try:
            for out, bwd in reversed(self._nodes):
                bwd(out.grad)
        finally:
            _BACKWARD.pop()
        # free the pass: bounded memory inside training loops
        self._nodes.clear()
        self._consumed = True
        if self._store is not None:
            self._store.give(self._lent)
            self._lent.clear()


def buffer(shape, dtype, zero: bool = False) -> np.ndarray:
    """An uninitialised array (zero-filled with ``zero``) for an op, lent
    until its backward has run by the store of the tape running its
    backward, else of the innermost recording tape; fresh without one."""
    tape = _BACKWARD[-1] if _BACKWARD else _TAPES[-1] if _TAPES else None
    if tape is None or tape._store is None:
        return (np.zeros if zero else np.empty)(shape, dtype)
    out = tape._store.take(shape, dtype)
    tape._lent.append(out)
    if zero:
        out.fill(0)
    return out


def record_op(values: np.ndarray, inputs: Sequence[Tensor],
              backward_fn: Callable[[np.ndarray], None]) -> Tensor:
    """Wrap an op result, recording ``backward_fn`` if gradients are live.

    ``backward_fn`` receives the output gradient and must accumulate into
    each input's ``grad`` (guarding on ``requires_grad`` itself).
    """
    if _TAPES and any(t.requires_grad for t in inputs):
        tape = _TAPES[-1]
        out = Tensor(values)
        out.requires_grad = True
        out.grad = buffer(out.shape, out.dtype, zero=True)
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


def _sigmoid(v: np.ndarray, e: np.ndarray) -> None:
    """The logistic function, in place, split by sign: e = exp(-|v|)
    cannot overflow, and min(v, -v) keeps a nan's sign bit. ``e``, of
    v's shape, is scratch."""
    right = v >= 0
    np.negative(v, out=e)
    np.minimum(v, e, out=e)
    np.exp(e, out=e)
    np.copyto(v, e)
    np.copyto(v, 1.0, where=right)
    e += 1.0
    v /= e


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




# images a conv_stack slice runs through every stage at a time, so that a
# block's columns and activations are still in cache when the next stage
# reads them. An untaped pass over 800 desk test images (64 px, stages
# 16:3:2, 32:3:2, 64:3:2, latent depth 64; 2 cores, OPENBLAS_NUM_THREADS=1,
# medians of 9) took 68-86 ms at 16, 71-94 ms at 8 and 83-86 ms at 32
BLOCK = 16


class _Stage:
    """One convolution of a stack, its shapes checked: a ReLU stage with a
    bias, or the bias-free sigmoid head."""

    def __init__(self, kernel: Tensor, bias: Tensor | None, stride: int,
                 padding: int, c: int, h: int, w: int, dtype):
        if kernel.values.ndim != 4:
            raise ValueError("conv_stack expects 4-D input and kernels")
        f, ck, kh, kw = kernel.shape
        if c != ck:
            raise ValueError(f"channel mismatch: input has {c}, kernel "
                             f"expects {ck}")
        if stride < 1:
            raise ValueError(f"stride must be >= 1, got {stride}")
        if padding < 0:
            raise ValueError(f"padding must be >= 0, got {padding}")
        if kernel.dtype != dtype:
            raise ValueError(f"dtype mismatch: {dtype} vs {kernel.dtype}")
        if bias is not None and (bias.shape != (f,) or bias.dtype != dtype):
            raise ValueError(f"bias must be {dtype} of shape ({f},), got "
                             f"{bias.dtype} of shape {bias.shape}")
        self.oh = (h + 2 * padding - kh) // stride + 1
        self.ow = (w + 2 * padding - kw) // stride + 1
        if self.oh < 1 or self.ow < 1 or h + 2 * padding < kh \
                or w + 2 * padding < kw:
            raise ValueError(
                f"zero-sized output: input {h}x{w}, kernel {kh}x{kw}, "
                f"stride {stride}, padding {padding}")
        self.kernel, self.bias = kernel, bias
        self.stride, self.padding = stride, padding
        self.c, self.h, self.w, self.f, self.kh, self.kw = c, h, w, f, kh, kw
        self.rows, self.length = c * kh * kw, self.oh * self.ow
        # a 1x1 kernel at stride 1 without padding reads its input as columns
        self.direct = kh == kw == stride == 1 and not padding
        self.kflat = kernel.values.reshape(f, -1)
        self.shift = None if bias is None else bias.values[:, None]

    def padded(self, n: int) -> tuple[int, int, int, int]:
        p = self.padding
        return n, self.c, self.h + 2 * p, self.w + 2 * p

    def interior(self, xp: np.ndarray) -> np.ndarray:
        """The input images inside the padded input ``xp``."""
        p = self.padding
        return xp[:, :, p:p + self.h, p:p + self.w]

    def zero_borders(self, xp: np.ndarray) -> None:
        """Zero the cells of the padded input ``xp`` outside its interior
        that some window reads."""
        p = self.padding
        bottom = (self.oh - 1) * self.stride + self.kh
        right = (self.ow - 1) * self.stride + self.kw
        for rim in (np.s_[:, :, :p], np.s_[:, :, p + self.h:bottom],
                    np.s_[:, :, :, :p], np.s_[:, :, :, p + self.w:right]):
            xp[rim] = 0

    def params(self) -> list[Tensor]:
        return [self.kernel] if self.bias is None else [self.kernel, self.bias]

    def run(self, a: np.ndarray, cols: np.ndarray | None, out: np.ndarray,
            dest: np.ndarray) -> None:
        """Convolve the images ``a``, already padded if the stage pads,
        into ``out`` through the columns ``cols``, then add the bias and
        write the ReLU into ``dest``: ``out`` itself or the interior of
        the next stage's padded input. The head applies the sigmoid in
        place instead, with ``dest`` as scratch of out's shape."""
        if self.direct:
            cols = a.reshape(a.shape[0], self.c, self.length)
        else:
            _im2col(a, self.kh, self.kw, self.stride, self.oh, self.ow,
                    out=cols)
        np.matmul(self.kflat, cols, out=out)
        if self.shift is None:
            _sigmoid(out, dest)
        else:
            out += self.shift
            np.maximum(out.reshape(dest.shape), 0.0, out=dest)


def conv_stack(x: Tensor, stages: Sequence[tuple[Tensor, Tensor, int, int]],
               head: Tensor) -> Tensor:
    """A CNN pass as one op: ReLU convolutions, then a 1x1 sigmoid head.

    Each (kernel, bias, stride, padding) stage cross-correlates its NCHW
    input with an FCkk kernel stack, adds the per-channel bias and applies
    the ReLU; the bias-free 1x1 ``head`` maps the last stage's channels
    to the output's, through the sigmoid.

    One ``_split_batch`` runs each slice's images through every stage,
    ``BLOCK`` images at a time, with one GEMM per image into a contiguous
    output; a padded stage's ReLU writes straight into the interior of
    the next stage's zero-bordered input. Untaped, each slice allocates
    its buffers for one block, one column buffer serving every stage,
    and keeps none of them past the call; only the output is kept.
    Taped, the blocks write batch-wide padded inputs, columns and GEMM
    outputs, every one a ``buffer`` of the tape taken before the split,
    and the backward, one more split, reads them from the head down to
    the first stage. The kernel and bias gradients are summed over the
    batch afterwards, in image order, so no bit depends on the slices.
    """
    if x.values.ndim != 4:
        raise ValueError("conv_stack expects 4-D input and kernels")
    n, c, h, w = x.shape
    dtype, xv = x.dtype, x.values
    layers = []
    for kernel, bias, stride, padding in stages:
        layers.append(_Stage(kernel, bias, stride, padding, c, h, w, dtype))
        c, h, w = kernel.shape[0], layers[-1].oh, layers[-1].ow
    top = _Stage(head, None, 1, 0, c, h, w, dtype)
    if top.kh != 1 or top.kw != 1:
        raise ValueError(f"head must be a 1x1 kernel, got {top.kh}x{top.kw}")
    layers.append(top)
    inputs = [x, *(t for s in layers for t in s.params())]
    taped = bool(_TAPES) and any(t.requires_grad for t in inputs)
    out = (buffer if taped else np.empty)((n, top.f, top.length), dtype)

    def arrays(m: int, take) -> tuple[list, list, list, np.ndarray]:
        # per stage, for m images: the padded input, the GEMM output (the
        # head's is ``out``) and the columns; then the sigmoid's scratch
        pads = [take(s.padded(m), dtype) if s.padding else None
                for s in layers]
        outs = [take((m, s.f, s.length), dtype) for s in layers[:-1]]
        if taped:   # what the backward reads
            cols = [take((m, s.rows, s.length), dtype) if not s.direct
                    else outs[k - 1] if k else xv.reshape(m, s.c, s.length)
                    for k, s in enumerate(layers)]
        else:       # a block's stages run in turn
            flat = take(max((m * s.rows * s.length for s in layers
                             if not s.direct), default=0), dtype)
            cols = [None if s.direct else
                    flat[:m * s.rows * s.length].reshape(m, s.rows, s.length)
                    for s in layers]
        return pads, outs, cols, take((m, top.f, top.length), dtype)

    if taped:
        pads, outs, cols, scratch = arrays(n, buffer)

    def forward(part):
        xps, zs, cs, e = (pads, outs, cols, scratch) if taped else \
            arrays(min(BLOCK, part.stop - part.start), np.empty)
        for lo in range(part.start, part.stop, BLOCK):
            hi = min(lo + BLOCK, part.stop)
            rows = slice(lo, hi) if taped else slice(hi - lo)
            # a padded input's borders are zeroed right after its interior
            # is written, on lines still in cache; an untaped slice's
            # buffers serve all its blocks, so the first block's zeros last
            fresh = taped or lo == part.start
            a = xv[lo:hi]
            for k, s in enumerate(layers):
                if xps[k] is not None:
                    xp = xps[k][rows]
                    if not k:
                        s.interior(xp)[...] = a
                    if fresh:   # a borrowed array holds another op's bits
                        s.zero_borders(xp)
                    a = xp
                z = out[lo:hi] if s is top else zs[k][rows]
                dest = e[rows] if s is top else z if xps[k + 1] is None \
                    else layers[k + 1].interior(xps[k + 1][rows])
                s.run(a, None if s.direct else cs[k][rows], z, dest)
                a = z.reshape(hi - lo, s.f, s.oh, s.ow)

    _split_batch(n, forward)

    def bwd(g):
        # flows[k]: stage k's input takes a gradient, so stage k runs
        # backward whenever flows[k + 1] does
        flows = [x.requires_grad]
        for s in layers:
            flows.append(flows[-1] or any(t.requires_grad for t in s.params()))
        running = [k for k, s in enumerate(layers) if flows[k + 1]]
        acts = [*outs, out]
        grads = {k: buffer(acts[k].shape, dtype) for k in running}
        # the activation's slope: the sigmoid's 1 - out, the ReLU's v > 0
        # on its input v, read from v or, where the ReLU ran in place, from
        # max(v, 0): the two agree, nan included
        slopes = {k: buffer(acts[k].shape, bool if layers[k].bias is not None
                            else dtype) for k in running}
        per_image = {k: buffer((n, layers[k].f, layers[k].rows), dtype)
                     for k in running if layers[k].kernel.requires_grad}
        cols_grad, gx = {}, {}
        for k in running:
            s = layers[k]
            if flows[k]:
                cols_grad[k] = buffer((n, s.rows, s.length), dtype)
                # a 1x1 stage's column gradient is its input gradient
                gx[k] = cols_grad[k].reshape(n, s.c, s.h, s.w) if s.direct \
                    else buffer(s.padded(n), dtype, zero=True)

        def backward(part):
            gk = g[part]
            for k in reversed(running):
                s = layers[k]
                o = acts[k][part].reshape(gk.shape)
                gf = grads[k][part]
                slope = slopes[k][part].reshape(gk.shape)
                # before the activation, g out times 1 - out or g times
                # the ReLU's slope
                if s.bias is None:
                    np.subtract(1.0, o, out=slope)
                    np.multiply(gk, o, out=gf.reshape(gk.shape))
                    gf *= slope.reshape(gf.shape)
                else:
                    np.greater(o, 0, out=slope)
                    np.multiply(gk, slope, out=gf.reshape(gk.shape))
                if k in per_image:
                    np.matmul(gf, cols[k][part].transpose(0, 2, 1),
                              out=per_image[k][part])
                if flows[k]:
                    cg = cols_grad[k][part]
                    np.matmul(s.kflat.T, gf, out=cg)
                    if not s.direct:
                        _col2im(cg, gx[k][part], s.kh, s.kw, s.stride, s.oh,
                                s.ow)
                    gk = s.interior(gx[k][part])
            if x.requires_grad:
                x.grad[part] += gk

        _split_batch(n, backward)
        for k in reversed(running):
            s = layers[k]
            if k in per_image:
                s.kernel.grad += per_image[k].sum(axis=0).reshape(
                    s.kernel.shape)
            if s.bias is not None and s.bias.requires_grad:
                s.bias.grad += grads[k].reshape(n, s.f, s.oh, s.ow).sum(
                    axis=(0, 2, 3))

    return record_op(out.reshape(n, top.f, top.oh, top.ow), inputs, bwd)
