"""Independent reference implementations used as test oracles.

Everything here is deliberately written the slow, obvious way and shares
no code with the library paths it checks. The oracles that the installed
``prototree selftest`` also needs live in ``prototree.selftest`` and are
re-exported here.
"""

import numpy as np

import prototree.autodiff as ad
import prototree.tree as tr
from prototree.autodiff import Tensor
from prototree.selftest import finite_difference_grad, \
    max_relative_error, naive_conv2d, naive_conv_stack, softmax_extended, \
    two_pass_leaf_update  # noqa: F401  (re-exported oracles)


def weighted_sum(tensor, weights=None):
    """Scalar loss sum(tensor * weights) on the tape; weights default to 1."""
    w = np.ones_like(tensor.values) if weights is None else np.asarray(weights)

    def bwd(g):
        if tensor.requires_grad:
            tensor.grad += g * w

    return ad.record_op(np.asarray((tensor.values * w).sum()), [tensor], bwd)


def square_sum(tensor):
    """Scalar loss sum(tensor ** 2) on the tape."""
    def bwd(g):
        if tensor.requires_grad:
            tensor.grad += 2.0 * g * tensor.values

    return ad.record_op(np.asarray((tensor.values ** 2).sum()), [tensor], bwd)


def scan_nearest_patch(latent, proto):
    """Exhaustive patch scan, returning ((i, j), distance)."""
    depth, h, w = latent.shape
    best = None
    for i in range(h):
        for j in range(w):
            dist = float(np.sqrt(((latent[:, i, j] - proto) ** 2).sum()))
            if best is None or dist < best[1]:
                best = ((i, j), dist)
    return best


def assert_same_bits(got, want):
    """got and want agree in dtype, shape and every bit, nan signs
    included."""
    assert got.dtype == want.dtype and got.shape == want.shape
    uint = np.dtype(f"u{got.dtype.itemsize}")
    np.testing.assert_array_equal(np.ascontiguousarray(got).view(uint),
                                  np.ascontiguousarray(want).view(uint))


def loop_im2col(xp, kh, kw, stride, oh, ow):
    """N x (C kh kw) x (oh ow) columns of a padded NCHW batch, built by
    one slice copy per kernel offset."""
    n, c = xp.shape[:2]
    cols = np.empty((n, c, kh, kw, oh, ow), dtype=xp.dtype)
    for i in range(kh):
        for j in range(kw):
            cols[:, :, i, j] = xp[:, :, i:i + stride * oh:stride,
                                  j:j + stride * ow:stride]
    return cols.reshape(n, c * kh * kw, oh * ow)


def channel_bias_add(x, bias):
    """Per-channel bias added to an NCHW tensor, as its own taped op."""
    out = x.values + bias.values.reshape(1, -1, 1, 1)

    def bwd(g):
        if x.requires_grad:
            x.grad += g
        if bias.requires_grad:
            bias.grad += g.sum(axis=(0, 2, 3))

    return ad.record_op(out, [x, bias], bwd)


def relu(a):
    """max(a, 0) as its own taped op, masked by the input a > 0."""
    out = np.maximum(a.values, 0.0)

    def bwd(g):
        if a.requires_grad:
            a.grad += g * (a.values > 0)

    return ad.record_op(out, [a], bwd)


def sigmoid(a):
    """The one-pass sign-split logistic function as its own taped op."""
    v = a.values
    e = np.exp(np.minimum(v, -v))
    out = np.where(v >= 0, 1.0, e) / (1.0 + e)

    def bwd(g):
        if a.requires_grad:
            a.grad += g * out * (1.0 - out)

    return ad.record_op(out, [a], bwd)


def conv2d(x: Tensor, kernel: Tensor, stride: int = 1, padding: int = 0,
           bias: Tensor | None = None, activation: str | None = None) -> Tensor:
    """Cross-correlation of an NCHW batch with an FCkk kernel stack, then
    an optional per-channel ``bias`` and ``activation`` (relu, sigmoid).

    The single-stage taped op that ``autodiff.conv_stack`` fuses, kept
    as its reference. Forward and backward run image by image over
    ``_split_batch``; each slice applies the bias and activation in place
    to its rows right after its GEMM. The kernel and bias gradients are
    summed over the batch afterwards, in image order. It shares the
    engine's ``_im2col``, ``_col2im`` and ``_sigmoid``, which
    ``TestLoopReferences`` checks against loops.
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
            ad._im2col(xp[part], kh, kw, stride, oh, ow, out=cols[part])
        o = out[part]
        np.matmul(kflat, cols[part], out=o)
        if shift is not None:
            o += shift
        if activation == "relu":
            np.maximum(o, 0.0, out=o)
        elif activation == "sigmoid":
            ad._sigmoid(o, np.empty_like(o))

    ad._split_batch(n, forward)

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
                    ad._col2im(cols_grad[part], gx[part], kh, kw, stride,
                               oh, ow)
                x_grad[part] += gx[part, :, padding:padding + h,
                                   padding:padding + w]

        ad._split_batch(n, backward)
        if per_image is not None:
            kernel.grad += per_image.sum(axis=0).reshape(kernel.shape)
        if bias is not None and bias.requires_grad:
            bias.grad += gf.reshape(g.shape).sum(axis=(0, 2, 3))

    return ad.record_op(out.reshape(n, f, oh, ow),
                     [t for t in (x, kernel, bias) if t is not None], bwd)


def unfused_conv2d(x, kernel, stride=1, padding=0, bias=None,
                   activation=None):
    """The reference composition of a fused ``conv2d``: the plain
    convolution, then the bias and the activation, each its own taped op
    with its own zero-filled gradient."""
    out = conv2d(x, kernel, stride, padding)
    if bias is not None:
        out = channel_bias_add(out, bias)
    if activation == "relu":
        out = relu(out)
    elif activation == "sigmoid":
        out = sigmoid(out)
    return out


def chained_conv_stack(x, stages, head, conv=conv2d):
    """``autodiff.conv_stack`` as the chain of single-stage taped ops it
    fuses: one ``conv`` per (kernel, bias, stride, padding) stage with
    the ReLU, then the 1x1 head with the sigmoid, each accumulating into
    its own zero-filled gradient."""
    for kernel, bias, stride, padding in stages:
        x = conv(x, kernel, stride, padding, bias=bias, activation="relu")
    return conv(x, head, activation="sigmoid")


def sign_split_sigmoid(v):
    """Logistic function split by sign: 1 / (1 + exp(-x)) where x >= 0,
    exp(x) / (1 + exp(x)) elsewhere, each half computed on its own."""
    out = np.empty_like(v)
    pos = v >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-v[pos]))
    ev = np.exp(v[~pos])
    out[~pos] = ev / (1.0 + ev)
    return out


def scan_projection(latents, proto, pool):
    """Image id, (row, col) and distance of the patch nearest to proto
    among the images in pool, by the per-node scan: one einsum measures
    every patch of every pool image, and the first minimum in image-major
    order wins."""
    n, d, h, w = latents.shape
    diff = latents[pool].reshape(len(pool), d, h * w) - proto.reshape(1, d, 1)
    sq = np.einsum("ndl,ndl->nl", diff, diff)
    pos, cell = divmod(int(sq.argmin()), h * w)
    return int(pool[pos]), divmod(cell, w), float(np.sqrt(sq[pos, cell]))


def leaf_probabilities_from_edges(topology, p_right):
    """Path probabilities computed by explicit per-leaf edge products.

    ``p_right`` is an N x M array of right-edge probabilities.
    """
    n = p_right.shape[0]
    out = np.zeros((n, topology.num_leaves), dtype=p_right.dtype)
    for leaf, path in enumerate_paths(topology):
        prob = np.ones(n, dtype=p_right.dtype)
        for node, went_right in path:
            edge = p_right[:, node]
            prob = prob * (edge if went_right else 1.0 - edge)
        out[:, leaf] = prob
    return out


def catmull_rom_scalar(t):
    t = abs(t)
    if t <= 1.0:
        return 1.5 * t ** 3 - 2.5 * t ** 2 + 1.0
    if t < 2.0:
        return -0.5 * t ** 3 + 2.5 * t ** 2 - 4.0 * t + 2.0
    return 0.0


def bicubic_reference(grid, out_h, out_w):
    """Per-pixel separable Catmull-Rom resample with edge clamping."""
    h, w = grid.shape
    out = np.zeros((out_h, out_w))
    for r in range(out_h):
        sy = (r + 0.5) * h / out_h - 0.5
        iy = int(np.floor(sy))
        for c in range(out_w):
            sx = (c + 0.5) * w / out_w - 0.5
            ix = int(np.floor(sx))
            acc = 0.0
            for dy in (-1, 0, 1, 2):
                wy = catmull_rom_scalar(sy - (iy + dy))
                if wy == 0.0:
                    continue
                yy = min(max(iy + dy, 0), h - 1)
                for dx in (-1, 0, 1, 2):
                    wx = catmull_rom_scalar(sx - (ix + dx))
                    if wx == 0.0:
                        continue
                    xx = min(max(ix + dx, 0), w - 1)
                    acc += wy * wx * grid[yy, xx]
            out[r, c] = acc
    return out


def enumerate_paths(topology):
    """All root-to-leaf paths as (leaf, [(node, went_right), ...])."""
    paths = []
    m = topology.num_internal

    def walk(col, acc):
        if col >= m:
            paths.append((col - m, list(acc)))
            return
        walk(int(topology.left[col]), acc + [(col, False)])
        walk(int(topology.right[col]), acc + [(col, True)])

    walk(int(topology.root), [])
    return paths


def recursive_keeping(topology, keep_leaf):
    """The tree cut down to the kept leaves, by recursion: a subtree
    without kept leaves vanishes, a node left with one child becomes that
    child, and a left-first walk numbers what is left. Returns the child
    tables and root in columns, and the old index of each new node and
    of each new leaf."""
    m = topology.num_internal

    def cut(col):
        if col >= m:
            return ("leaf", col - m) if keep_leaf[col - m] else None
        left = cut(int(topology.left[col]))
        right = cut(int(topology.right[col]))
        if left is None or right is None:
            return right if left is None else left
        return ("node", col, left, right)

    nodes, leaves = [], []

    def visit(piece):
        if piece[0] == "leaf":
            leaves.append(piece)
        else:
            nodes.append(piece)
            visit(piece[2])
            visit(piece[3])

    visit(cut(int(topology.root)))
    old_nodes = [piece[1] for piece in nodes]
    old_leaves = [piece[1] for piece in leaves]

    def column(piece):
        if piece[0] == "leaf":
            return len(nodes) + old_leaves.index(piece[1])
        return old_nodes.index(piece[1])

    return ([column(piece[2]) for piece in nodes],
            [column(piece[3]) for piece in nodes],
            column(nodes[0] if nodes else leaves[0]), old_nodes, old_leaves)


def scan_min_patch_distances(latent, protos):
    """Nearest-patch distances and locations (N x M, N x M x 2) by the
    per-prototype scan: every patch measured against one prototype at a
    time, the first minimum kept."""
    n, d, h, w = latent.shape
    flat = latent.reshape(n, d, h * w)
    sq = np.empty((n, protos.shape[0], h * w), dtype=latent.dtype)
    for k in range(protos.shape[0]):
        diff = flat - protos[k].reshape(1, d, 1)
        sq[:, k] = np.einsum("ndl,ndl->nl", diff, diff)
    argmin = sq.argmin(axis=2)
    sq_min = np.take_along_axis(sq, argmin[:, :, None], axis=2)[:, :, 0]
    return np.sqrt(sq_min), np.stack([argmin // w, argmin % w], axis=2)


def scatter_min_patch_grad(flat, protos, argmin, coeff, want_protos,
                           want_latent):
    """The min-patch distance gradients, with the call signature of
    ``tree._min_patch_grads``, by a 2-D scatter: ``np.add.at`` over
    (sample, patch) pairs, each pair adding a D-vector, with
    coeff * (z - p) computed afresh for each gradient."""
    n, d, length = flat.shape
    rows = np.arange(n)[:, None]
    selected = flat.transpose(0, 2, 1)[rows, argmin]
    diff_sel = selected - protos[None]
    grad_p = grad_l = None
    if want_protos:
        grad_p = -(coeff[:, :, None] * diff_sel).sum(axis=0)
    if want_latent:
        grad_l = np.zeros((n, length, d), dtype=flat.dtype)
        np.add.at(grad_l, (rows, argmin), coeff[:, :, None] * diff_sel)
    return grad_p, grad_l


def neg(a):
    """-a as its own taped op."""
    def bwd(g):
        if a.requires_grad:
            a.grad -= g

    return ad.record_op(-a.values, [a], bwd)


def exp(a):
    """exp(a) as its own taped op."""
    out = np.exp(a.values)

    def bwd(g):
        if a.requires_grad:
            a.grad += g * out

    return ad.record_op(out, [a], bwd)


def matmul(a, b):
    """a @ b of 2-D tensors as its own taped op."""
    def bwd(g):
        if a.requires_grad:
            a.grad += g @ b.values.T
        if b.requires_grad:
            b.grad += a.values.T @ g

    return ad.record_op(a.values @ b.values, [a, b], bwd)


def taped_min_patch_distances(latent, prototypes):
    """N x M nearest-patch distances as their own taped op, whose
    backward is the 2-D scatter."""
    squared, nearest = tr.min_patch_distances(latent.values, prototypes.values)
    n, d, h, w = latent.shape

    def bwd(g):
        grad_p, grad_l = scatter_min_patch_grad(
            latent.values.reshape(n, d, h * w), prototypes.values, nearest,
            g / np.sqrt(squared + tr.DISTANCE_GRAD_EPS),
            prototypes.requires_grad, latent.requires_grad)
        if grad_p is not None:
            prototypes.grad += grad_p
        if grad_l is not None:
            latent.grad += grad_l.reshape(n, h, w, d).transpose(0, 3, 1, 2)

    return ad.record_op(np.sqrt(squared), [latent, prototypes], bwd)


def taped_path_probabilities(topology, edge_right):
    """N x L leaf path probabilities from the N x M right edges as their
    own taped op, multiplied one level at a time and differentiated leaf
    to root."""
    p = edge_right.values
    q = 1.0 - p
    m = topology.num_internal
    reach = np.empty((p.shape[0], 2 * m + 1), dtype=p.dtype)
    reach[:, topology.root] = 1.0
    for cols in topology.levels[1:]:
        up = topology.parent[cols]
        reach[:, cols] = reach[:, up] * np.where(topology.went_right[cols],
                                                 p[:, up], q[:, up])

    def bwd(g):
        grad = np.empty_like(reach)
        grad[:, m:] = g
        for cols in reversed(topology.levels[:-1]):
            k = cols[cols < m]
            gl, gr = grad[:, topology.left[k]], grad[:, topology.right[k]]
            grad[:, k] = gr * p[:, k] + gl * q[:, k]
            edge_right.grad[:, k] += gr * reach[:, k] - gl * reach[:, k]

    return ad.record_op(reach[:, m:].copy(), [edge_right], bwd)


def unfused_predict(model, latent):
    """``ProtoTreeModel.predict``'s class distributions by the chain of
    taped ops that ``tree.route`` and ``tree.mix_leaf_distributions``
    fuse: distances, neg, exp, path probabilities and matmul, each
    accumulating into its own zero-filled gradient."""
    edge_right = exp(neg(taped_min_patch_distances(latent,
                                                   model.prototypes.tensor)))
    pi = taped_path_probabilities(model.topology, edge_right)
    return matmul(pi, Tensor(model.leaves.distributions().astype(pi.dtype)))


def bytewise_load_ppm(path):
    """``data.load_ppm`` with its header read one byte at a time by a
    ``token()`` closure: the same images, or the same ValueError. A
    header number is ASCII digits only."""
    def decimal(field: bytes, name: str) -> int:
        if not all(48 <= byte <= 57 for byte in field):   # b"0" to b"9"
            raise ValueError(f"{name} field {field!r} is not a decimal number")
        return int(field)

    with open(path, "rb") as fh:
        raw = fh.read()

    pos = 0

    def token() -> bytes:
        nonlocal pos
        while pos < len(raw):
            ch = raw[pos:pos + 1]
            if ch == b"#":
                while pos < len(raw) and raw[pos:pos + 1] != b"\n":
                    pos += 1
            elif ch.isspace():
                pos += 1
            else:
                break
        start = pos
        while pos < len(raw) and not raw[pos:pos + 1].isspace():
            pos += 1
        if start == pos:
            raise ValueError(f"{path}: malformed header at byte {start}")
        return raw[start:pos]

    magic = token()
    if magic != b"P6":
        raise ValueError(f"{path}: unsupported magic {magic!r} at byte 0, "
                         "only binary P6 is supported")
    try:
        width, height, maxval = (decimal(token(), name) for name in
                                 ("extent", "extent", "maxval"))
    except ValueError as err:
        raise ValueError(f"{path}: malformed header near byte {pos}: {err}") from None
    if width < 1 or height < 1:
        raise ValueError(f"{path}: empty extent {width}x{height} at byte {pos}")
    if maxval != 255:
        raise ValueError(f"{path}: maxval {maxval} at byte {pos}, expected 255")
    pos += 1  # single whitespace after maxval
    need = width * height * 3
    if len(raw) - pos < need:
        raise ValueError(f"{path}: truncated payload at byte {pos}: "
                         f"expected {need} bytes, found {len(raw) - pos}")
    pixels = np.frombuffer(raw, dtype=np.uint8, count=need, offset=pos)
    img = pixels.reshape(height, width, 3).transpose(2, 0, 1)
    return (img.astype(np.float32) / 255.0)
