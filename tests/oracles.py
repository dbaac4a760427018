"""Independent reference implementations used as test oracles.

Everything here is deliberately written the slow, obvious way and shares
no code with the library paths it checks.
"""

import numpy as np


def naive_conv2d(x, kernel, stride=1, padding=0):
    """Direct quadruple-loop cross-correlation."""
    n, c, h, w = x.shape
    f, _, kh, kw = kernel.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (w + 2 * padding - kw) // stride + 1
    out = np.zeros((n, f, oh, ow), dtype=np.float64)
    for b in range(n):
        for o in range(f):
            for i in range(oh):
                for j in range(ow):
                    acc = 0.0
                    for ci in range(c):
                        for ki in range(kh):
                            for kj in range(kw):
                                acc += xp[b, ci, i * stride + ki,
                                          j * stride + kj] * kernel[o, ci, ki, kj]
                    out[b, o, i, j] = acc
    return out


def softmax_extended(logits):
    """Plain exp/sum evaluated in extended precision."""
    ext = np.exp(np.asarray(logits, dtype=np.longdouble))
    return (ext / ext.sum(axis=-1, keepdims=True)).astype(np.float64)


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


def two_pass_leaf_update(model, dataset, floor=1e-9):
    """Full-dataset multiplicative leaf update, computed sample by sample."""
    sigma = model.leaves.distributions().astype(np.float64)
    num_leaves, k = sigma.shape
    total = np.zeros((num_leaves, k), dtype=np.float64)
    for idx in range(len(dataset)):
        y_hat, trace = model.predict_batch(dataset.images[idx:idx + 1])
        pi = trace.leaf_probabilities.values[0].astype(np.float64)
        prediction = np.maximum(y_hat.values[0].astype(np.float64), floor)
        onehot = np.zeros(k)
        onehot[dataset.labels[idx]] = 1.0
        for leaf in range(num_leaves):
            total[leaf] += sigma[leaf] * onehot * pi[leaf] / prediction
    return total


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

    def walk(ref, acc):
        if ref < 0:
            paths.append((-ref - 1, list(acc)))
            return
        walk(int(topology.left[ref]), acc + [(ref, False)])
        walk(int(topology.right[ref]), acc + [(ref, True)])

    walk(topology.root, [])
    return paths


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
