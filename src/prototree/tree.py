"""Soft binary decision tree routed by prototype similarity.

Internal node k owns row k of the prototype bank. An input's latent
grid is compared against a node's prototype over all spatial patches; the
smallest Euclidean distance d yields the right-edge probability exp(-d),
the left edge taking the complement. Leaf path probabilities are the
products of edge probabilities along root-to-leaf paths, and the
prediction is the path-probability-weighted mix of the leaves' softmaxed
class logits.

``route`` tapes the whole map from latent and prototypes to path
probabilities as one op with a closed-form backward; the nearest-patch
search it calls, ``min_patch_distances``, works on plain arrays; the
large ones of both are ``autodiff.buffer``s, which a training loop's
store keeps from step to step. ``mix_leaf_distributions`` tapes the leaf
mix.

The topology numbers nodes and leaves in one column index: internal node
k is column k and leaf l is column M + l, M being the number of internal
nodes. Child tables, the root and every per-column array use it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

DISTANCE_GRAD_EPS = 1e-12  # keeps the norm's derivative finite at zero
# candidate patches gathered per einsum call in min_patch_distances;
# bounds the memory of the rescore whatever the number of candidates
RESCORE_BLOCK = 4096
# multiply-adds of the nearest-patch GEMM (N x L x M x D) below which the
# distance ops keep a batch whole: small slices run short numpy calls that
# serialise on the GIL. Timed on 2 vCPUs with one BLAS thread, L = 64,
# two slices lose up to 4e6 (height 6, batch 16: 1.7 -> 2.5 ms) and win
# from 1.6e7 on (height 4, batch 256: 9.3 -> 5.9 ms)
SPLIT_MIN_MACS = 1 << 23


@dataclass
class TreeTopology:
    """Binary tree structure as child tables over columns.

    Internal node k is column k and leaf l is column M + l, with M the
    number of internal nodes; ``left[k]``, ``right[k]`` and ``root`` hold
    columns, so ``root`` is column 0, the only leaf, once pruning has
    collapsed the whole upper tree. Internal node k owns prototype row k;
    ``keeping`` renumbers the prototype bank with the nodes.

    ``validate`` runs on construction and indexes the tree by column:
    ``parent`` (-1 at the root), ``went_right`` and ``depth`` per column,
    ``preorder`` (left first, so a subtree is one block of it), and
    ``levels[d]``, the columns at depth d.
    """

    left: np.ndarray
    right: np.ndarray
    root: int

    def __post_init__(self) -> None:
        self.validate()

    @property
    def num_internal(self) -> int:
        return len(self.left)

    @property
    def num_leaves(self) -> int:
        return self.num_internal + 1

    @property
    def prototype_index(self) -> np.ndarray:
        """Prototype row of each node, the identity: node k owns row k."""
        return np.arange(self.num_internal)

    def validate(self) -> None:
        """Walk the tree once from the root and rebuild the index.

        Raises ValueError for a child column that is out of range or
        reached twice, and for a node or leaf the root does not reach.
        """
        m = len(self.left)
        left, right = self.left.tolist(), self.right.tolist()
        parent, went_right = [-1] * (2 * m + 1), [False] * (2 * m + 1)
        depth = [-1] * (2 * m + 1)
        preorder: list[int] = []
        stack = [(int(self.root), -1, False, 0)]
        while stack:
            col, up, is_right, level = stack.pop()
            if not 0 <= col <= 2 * m:
                raise ValueError(f"child column {col} is out of range")
            if depth[col] >= 0:
                raise ValueError(f"child column {col} is reached twice")
            parent[col], went_right[col], depth[col] = up, is_right, level
            preorder.append(col)
            if col < m:
                stack.append((right[col], col, True, level + 1))
                stack.append((left[col], col, False, level + 1))
        if len(preorder) != 2 * m + 1:
            unreached = [col for col, d in enumerate(depth) if d < 0]
            raise ValueError(f"columns {unreached} are not reached from the root")
        self.parent = np.asarray(parent, dtype=np.int64)
        self.went_right = np.asarray(went_right, dtype=bool)
        self.depth = np.asarray(depth, dtype=np.int64)
        self.preorder = np.asarray(preorder, dtype=np.int64)
        self.levels = [np.flatnonzero(self.depth == d)
                       for d in range(max(depth) + 1)]

    def keeping(self, keep_leaf: np.ndarray,
                ) -> tuple["TreeTopology", np.ndarray, np.ndarray]:
        """The tree without the leaves whose ``keep_leaf`` flag is false.

        A node left without leaves disappears, and a node left with one
        child is replaced by that child, so every surviving node keeps
        two. The survivors are renumbered in left-first preorder. Returns
        the new topology and the old index of each of its nodes and of
        each of its leaves, in their new order.
        """
        if not np.any(keep_leaf):
            raise ValueError("keeping needs at least one leaf")
        m = self.num_internal
        # the column that stands for each subtree after the cut, -1 if none
        stand = np.arange(2 * m + 1)
        stand[m:][~np.asarray(keep_leaf, dtype=bool)] = -1
        for cols in reversed(self.levels[:-1]):
            k = cols[cols < m]
            lcol, rcol = stand[self.left[k]], stand[self.right[k]]
            stand[k] = np.where((lcol >= 0) & (rcol >= 0), k,
                                np.maximum(lcol, rcol))
        # a cut keeps the survivors' preorder
        order = self.preorder[stand[self.preorder] == self.preorder]
        nodes, leaves = order[order < m], order[order >= m] - m
        new = np.empty(2 * m + 1, dtype=np.int64)
        new[np.append(nodes, leaves + m)] = np.arange(len(order))
        topology = TreeTopology(left=new[stand[self.left[nodes]]],
                                right=new[stand[self.right[nodes]]],
                                root=int(new[stand[self.root]]))
        return topology, nodes, leaves

    def path_to_leaf(self, leaf: int) -> list[tuple[int, bool]]:
        """Root-to-leaf decision sequence as (node, went_right) pairs."""
        if not 0 <= leaf < self.num_leaves:
            raise ValueError(f"leaf {leaf} not in tree")
        path: list[tuple[int, bool]] = []
        col = self.num_internal + leaf
        while self.parent[col] >= 0:
            path.append((int(self.parent[col]), bool(self.went_right[col])))
            col = self.parent[col]
        return path[::-1]

    def greedy_leaves(self, p_right: np.ndarray) -> np.ndarray:
        """Leaf reached by each row of the N x M ``p_right``, going right
        exactly when p_right > 0.5; all rows descend one level at a time."""
        m = self.num_internal
        col = np.full(p_right.shape[0], self.root, dtype=np.int64)
        for _ in self.levels[1:]:
            rows = np.flatnonzero(col < m)
            node = col[rows]
            col[rows] = np.where(p_right[rows, node] > 0.5,
                                 self.right[node], self.left[node])
        return col - m


@dataclass
class PrototypeBank:
    """All prototype vectors, one row per internal node (1x1 patches)."""

    tensor: Tensor

    def row(self, i: int) -> np.ndarray:
        return self.tensor.values[i]


@dataclass
class LeafParams:
    """Per-leaf class logits, trained derivative-free (never on a tape)."""

    logits: np.ndarray

    @property
    def num_classes(self) -> int:
        return self.logits.shape[1]

    def distributions(self, logits: np.ndarray | None = None) -> np.ndarray:
        c = self.logits if logits is None else logits
        shifted = c - c.max(axis=1, keepdims=True)
        e = np.exp(shifted)
        return e / e.sum(axis=1, keepdims=True)


@dataclass
class RoutingTrace:
    """Per-node routing evidence and per-leaf path probabilities.

    All fields are batched over the leading sample axis. Only
    ``leaf_probabilities`` is on the tape; its backward reaches the
    prototypes and the backbone through the distances.
    """

    edge_right: np.ndarray        # N x M
    locations: np.ndarray         # N x M x 2 (row, col) of the nearest patch
    leaf_probabilities: Tensor    # N x L


def init_tree(h: int, num_classes: int, depth: int, seed: int,
              dtype=np.float32) -> tuple[TreeTopology, PrototypeBank, LeafParams]:
    """Full tree of height h: prototypes ~ N(0.5, 0.1), leaf logits zero."""
    if h < 1:
        raise ValueError(f"height must be >= 1, got {h}")
    if num_classes < 2:
        raise ValueError(f"need at least 2 classes, got {num_classes}")
    if depth < 1:
        raise ValueError(f"prototype depth must be >= 1, got {depth}")
    # heap-wise, node k has children 2k + 1 and 2k + 2; keeping every leaf
    # renumbers the tree in preorder
    m = 2 ** h - 1
    topology, _, _ = TreeTopology(left=2 * np.arange(m) + 1,
                                  right=2 * np.arange(m) + 2,
                                  root=0).keeping(np.ones(m + 1, dtype=bool))
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0x7EE)))
    protos = rng.normal(0.5, 0.1, (topology.num_internal, depth)).astype(dtype)
    bank = PrototypeBank(Tensor(protos, requires_grad=True))
    # leaf logits live in float64: they are count-like accumulations and
    # never enter the gradient tape, so storage precision is free
    leaves = LeafParams(np.zeros((topology.num_leaves, num_classes),
                                 dtype=np.float64))
    return topology, bank, leaves


def _split_if_large(n: int, macs: int, fn) -> None:
    """``fn`` over slices of ``range(n)`` from ``SPLIT_MIN_MACS`` on, else
    over the whole batch at once."""
    if macs >= SPLIT_MIN_MACS:
        ad._split_batch(n, fn)
    else:
        fn(slice(0, n))


def _min_patch_grads(flat: np.ndarray, protos: np.ndarray, argmin: np.ndarray,
                     coeff: np.ndarray, want_protos: bool, want_latent: bool,
                     ) -> tuple[np.ndarray | None, np.ndarray | None]:
    """Prototype (M x D) and latent (N x L x D) gradients of the min-patch
    distances of the N x D x L latents ``flat``, given the upstream
    gradient over each distance divided by that distance, ``coeff``
    (N x M); None where not wanted.

    Prototype m adds its contribution coeff * (z - p) to its nearest
    patch ``argmin``. A patch nearest to several prototypes sums theirs in
    prototype order, starting from zero: ``np.add.at`` applies repeated
    indices in index order, and its index runs over (n, m, d) in C order.
    The index is 1-D, into the flat N·L·D buffer, because only a 1-D
    integer index takes numpy's ``ufunc.at`` fast path; an (n, patch)
    tuple index makes the same additions in the same order, several times
    slower when hundreds of prototypes share a patch, as at height 9.
    """
    n, d, length = flat.shape
    m = protos.shape[0]
    contrib = ad.buffer((n, m, d), flat.dtype)      # N x M x D
    grad_l = index = None
    if want_latent:
        grad_l = ad.buffer((n, length, d), flat.dtype, zero=True)
        index = ad.buffer((n, m, d), np.int64)

    def grads(part):
        images = np.arange(n)[part, None]
        mine = contrib[part]
        np.subtract(flat.transpose(0, 2, 1)[images, argmin[part]], protos,
                    out=mine)
        mine *= coeff[part, :, None]
        if grad_l is not None:
            # in two steps: one broadcast add buffers both operands
            index[part] = np.arange(d)
            index[part] += ((images * length + argmin[part]) * d)[:, :, None]
            np.add.at(grad_l.reshape(-1), index[part].reshape(-1),
                      mine.reshape(-1))

    _split_if_large(n, flat.size * m, grads)
    grad_p = -contrib.sum(axis=0) if want_protos else None
    return grad_p, grad_l


def min_patch_distances(latent: np.ndarray, protos: np.ndarray,
                        ) -> tuple[np.ndarray, np.ndarray]:
    """Smallest squared distance from each prototype to each image's
    patches, and its patch's row-major index: N x M each, for the
    N x D x H x W ``latent`` and the M x D ``protos``. Ties go to the
    first patch.

    The result is, bit for bit, that of the full scan, which measures
    every patch z_l against every prototype p with
    ``einsum("ndl,ndl->nl", z - p, z - p)`` and takes the first minimum.
    One GEMM locates candidate patches, and only they are measured:

    - Locate: s_l = ||z_l||^2 - 2 p.z_l, the expansion of ||z_l - p||^2
      less the row constant P = ||p||^2, for every pair by one GEMM.
    - Select: keep every patch with s_l <= min_l s_l + margin, and
      every patch of a row whose limit is an inf or a nan.
    - Rescore: the scan's einsum on each candidate, in runs of whole
      (image, prototype) pairs of about ``RESCORE_BLOCK`` candidates;
      segment minima over the row-major candidate order give each
      pair's value and its first patch.

    The margin. With u the unit roundoff of the latent's dtype,
    g_k = k u / (1 - k u), Z_l = ||z_l||^2, e_l the exact squared
    distance and f_l its einsum value:

    - s_l rounds ||z_l||^2 within g_D Z_l, p.z_l within
      g_D (Z_l + P) / 2 in any summation order, and the subtraction
      within u (2 Z_l + P); together |s_l + P - e_l| <= 2 g_{D+1} (Z_l + P).
    - f_l sums D non-negative terms, each rounded three times, so
      |f_l - e_l| <= g_{D+2} e_l <= 2 g_{D+2} (Z_l + P).
    - Hence |s_l + P - f_l| <= 4 g_{D+2} (Z_l + P), and a patch l with
      f_l <= f_k, k the GEMM's argmin, has
      s_l <= min s + 8 g_{D+2} (max_l Z_l + P).
    - margin = 10 g_{D+2} (max_l Z_l + P): the extra 2 g_{D+2} covers
      the rounding of Z, P and of min s + margin themselves, each below
      u (2 Z + P).

    Casting f_l to the latent's dtype, as the scan stores it, keeps
    the order of the candidates and adds no tie the margin misses,
    since u is that dtype's. Each slice of images that
    ``_split_if_large`` hands out runs all three steps.
    """
    if latent.ndim != 4:
        raise ValueError("min_patch_distances expects a batched N x D x H x W latent")
    n, d, h, w = latent.shape
    m = protos.shape[0]
    if protos.shape[1] != d:
        raise ValueError(f"prototype depth {protos.shape[1]} != latent depth {d}")
    hw = h * w
    flat = latent.reshape(n, d, hw)
    u = np.finfo(flat.dtype).eps / 2
    gamma = (d + 2) * u / (1 - (d + 2) * u)
    with np.errstate(invalid="ignore", over="ignore"):
        pp = np.einsum("md,md->m", protos, protos)
    score = ad.buffer((n, hw, m), np.result_type(flat, protos))
    far = ad.buffer((n, hw, m), bool)
    # depth-major copies, so that gathering a block of candidates
    # reads and writes contiguous rows
    flat_t = ad.buffer((d, n * hw), flat.dtype)
    protos_t = np.ascontiguousarray(protos.T)
    sq_min = np.empty(n * m, dtype=flat.dtype)
    argmin = np.empty(n * m, dtype=np.int64)

    def nearest(part):
        lat, s = flat[part], score[part]
        flat_t.reshape(d, n, hw)[:, part] = lat.transpose(1, 0, 2)
        # the locate only ranks patches, and the rescore redoes any
        # overflow or nan in exact arithmetic, so it raises no warnings
        with np.errstate(invalid="ignore", over="ignore"):
            zz = np.einsum("ndl,ndl->nl", lat, lat)
            # patch-major, so the minimum over patches reduces whole rows
            np.matmul(lat.transpose(0, 2, 1), protos.T, out=s)   # N x L x M
            s *= -2.0
            s += zz[:, :, None]
            best = s.min(axis=1)
            margin = 10 * gamma * (zz.max(axis=1)[:, None] + pp[None])
            # a row with a nan, or an inf from an overflowing ||z||^2, p.z
            # or ||p||^2, gets a nan or an inf limit (the margin overflows
            # too) and keeps every patch, so the rescore meets them as the
            # scan does
            np.greater(s, (best + margin)[:, None, :], out=far[part])
        ends = np.cumsum(hw - far[part].sum(axis=1).ravel())
        # the slice's scores are spent: their first bytes hold its
        # candidate mask, image by image and row by row
        kept = s.reshape(-1).view(bool)[:s.size].reshape(-1, hw)
        np.logical_not(far[part].transpose(0, 2, 1),
                       out=kept.reshape(s.shape[0], m, hw))
        # runs of whole pairs, each holding fewer than RESCORE_BLOCK + L
        # candidates, so that no array grows with the total candidate count
        cuts = np.searchsorted(ends, np.arange(
            0, ends[-1] if len(ends) else 0, RESCORE_BLOCK), side="right")
        bounds = np.unique(np.append(cuts, len(ends)))
        first = part.start * m        # the slice's first (image, row) pair
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            pair, patch = np.divmod(np.flatnonzero(kept[lo:hi]), hw)
            img, row = np.divmod(pair + first + lo, m)
            exact = _scan_einsum(flat_t, protos_t, img * hw + patch, row,
                                 hw == 1).astype(flat.dtype, copy=False)
            starts = np.flatnonzero(np.diff(pair, prepend=-1))   # one per pair
            at = slice(first + lo, first + hi)
            sq_min[at] = np.minimum.reduceat(exact, starts)
            at_min = exact == np.repeat(sq_min[at],
                                        np.diff(starts, append=len(pair)))
            at_min |= np.isnan(exact)  # the scan's argmin stops at the first nan
            argmin[at] = patch[np.minimum.reduceat(
                np.where(at_min, np.arange(len(pair)), len(pair)), starts)]

    _split_if_large(n, flat.size * m, nearest)
    return sq_min.reshape(n, m), argmin.reshape(n, m)


def _scan_einsum(flat_t, protos_t, column, row, single_patch: bool,
                 ) -> np.ndarray:
    """The full scan's einsum on D x K gathers of patches and prototypes.

    einsum's inner loop must run where the scan's does, or the float
    bits change: across the patch axis, accumulating one depth at a
    time, when a latent has two or more patches, and as one dot product
    along depth when it has one. The candidates therefore lie in a
    C-contiguous 1 x D x K array (a lone one is paired with a zero
    column), or K x D x 1 for single-patch latents.
    """
    k, d = len(column), flat_t.shape[0]
    dtype = np.result_type(flat_t, protos_t)
    if single_patch:
        diff = np.empty((k, d, 1), dtype=dtype)
        cols = diff[:, :, 0].T
    else:
        diff = np.zeros((1, d, max(k, 2)), dtype=dtype)
        cols = diff[0, :, :k]
    np.subtract(np.take(flat_t, column, axis=1),
                np.take(protos_t, row, axis=1), out=cols)
    sq = np.einsum("ndl,ndl->nl", diff, diff)
    return sq[:, 0] if single_patch else sq[0, :k]


def route(topology: TreeTopology, prototypes: PrototypeBank,
          latent: Tensor) -> RoutingTrace:
    """Soft-route an N x D x H x W latent batch: all edge and leaf path
    probabilities, the leaves' as one taped op of the latent and the
    prototypes.

    A column's reach is its parent's reach times the edge taken (p or
    1 - p), multiplied in root-to-leaf order; a leaf's reach is its path
    probability. The backward runs leaf to root. With g_left and g_right
    the gradients of its children's reach, node k's reach gets
    g_right * p + g_left * (1 - p), its edge g_right * reach - g_left * reach,
    and its distance d, as p = exp(-d), minus p times the edge's;
    ``_min_patch_grads`` takes that on to the patches and prototypes.
    """
    bank = prototypes.tensor
    squared, nearest = min_patch_distances(latent.values, bank.values)
    n, d, h, w = latent.shape
    p = np.exp(-np.sqrt(squared))
    q = 1.0 - p
    m = topology.num_internal
    reach = np.empty((n, 2 * m + 1), dtype=p.dtype)
    reach[:, topology.root] = 1.0
    for cols in topology.levels[1:]:
        up = topology.parent[cols]
        reach[:, cols] = reach[:, up] * np.where(topology.went_right[cols],
                                                 p[:, up], q[:, up])

    def bwd(g):
        grad = np.empty_like(reach)
        grad[:, m:] = g
        coeff = np.empty_like(p)
        for cols in reversed(topology.levels[:-1]):
            k = cols[cols < m]
            gl, gr = grad[:, topology.left[k]], grad[:, topology.right[k]]
            grad[:, k] = gr * p[:, k] + gl * q[:, k]
            # rounded as the separate edge, exp and neg backwards rounded,
            # so training keeps its float bits
            coeff[:, k] = -((gr * reach[:, k] - gl * reach[:, k]) * p[:, k])
        coeff /= np.sqrt(squared + DISTANCE_GRAD_EPS)
        grad_p, grad_l = _min_patch_grads(
            latent.values.reshape(n, d, h * w), bank.values, nearest, coeff,
            bank.requires_grad, latent.requires_grad)
        if grad_p is not None:
            bank.grad += grad_p
        if grad_l is not None:
            latent.grad += grad_l.reshape(n, h, w, d).transpose(0, 3, 1, 2)

    return RoutingTrace(
        edge_right=p,
        locations=np.stack([nearest // w, nearest % w], axis=2),
        leaf_probabilities=ad.record_op(reach[:, m:].copy(), [latent, bank],
                                        bwd))


def mix_leaf_distributions(pi: Tensor, distributions: np.ndarray) -> Tensor:
    """Convex combination of leaf class distributions weighted by paths:
    pi @ D as one taped op, its backward g @ D.T."""
    mix = np.asarray(distributions, dtype=pi.dtype)

    def bwd(g):  # recorded only when pi requires grad
        pi.grad += g @ mix.T

    return ad.record_op(pi.values @ mix, [pi], bwd)
