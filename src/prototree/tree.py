"""Soft binary decision tree routed by prototype similarity.

Internal nodes each own one row of the prototype bank. An input's latent
grid is compared against a node's prototype over all spatial patches; the
smallest Euclidean distance d yields the right-edge probability exp(-d),
the left edge taking the complement. Leaf path probabilities are the
products of edge probabilities along root-to-leaf paths, and the
prediction is the path-probability-weighted mix of the leaves' softmaxed
class logits.

Child references in the topology are plain ints: values >= 0 index
internal nodes, values < 0 encode leaf ``-(index + 1)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

DISTANCE_GRAD_EPS = 1e-12  # keeps the norm's derivative finite at zero


def leaf_ref(leaf_index: int) -> int:
    return -(leaf_index + 1)


def is_leaf_ref(ref: int) -> bool:
    return ref < 0


def leaf_index(ref: int) -> int:
    return -ref - 1


@dataclass
class TreeTopology:
    """Binary tree structure: child tables for internal nodes, plus an index.

    Internal node i owns prototype row ``prototype_index[i]`` (identity
    after every rebuild). ``root`` may itself be a leaf reference when
    pruning collapsed the whole upper tree.

    ``validate`` runs on construction and indexes the tree by column
    (node k is column k, leaf l is column M + l): ``parent`` (-1 at the
    root), ``went_right`` and ``depth`` per column, ``preorder`` (left
    first, so a subtree is one block of it), and ``levels[d]``, the
    columns at depth d.
    """

    left: np.ndarray
    right: np.ndarray
    prototype_index: np.ndarray
    root: int
    height: int

    def __post_init__(self) -> None:
        self.validate()

    @classmethod
    def from_shape(cls, root, split, height: int,
                   ) -> tuple["TreeTopology", list, list]:
        """Number a tree shape in left-first preorder; ``split(piece)``
        gives a piece's (left, right) pieces, or None for a leaf. Returns
        the topology with its nodes' and its leaves' pieces in that order.
        """
        left, right, nodes, leaves, top = [], [], [], [], [0]
        stack = [(root, 0, top)]   # top[0] receives the root's ref
        while stack:
            piece, up, side = stack.pop()
            halves = split(piece)
            if halves is None:
                ref = leaf_ref(len(leaves))
                leaves.append(piece)
            else:
                ref = len(nodes)
                nodes.append(piece)
                left.append(0)
                right.append(0)
                stack.append((halves[1], ref, right))
                stack.append((halves[0], ref, left))
            side[up] = ref
        topology = cls(left=np.asarray(left, dtype=np.int64),
                       right=np.asarray(right, dtype=np.int64),
                       prototype_index=np.arange(len(nodes), dtype=np.int64),
                       root=top[0], height=height)
        return topology, nodes, leaves

    @property
    def num_internal(self) -> int:
        return len(self.left)

    @property
    def num_leaves(self) -> int:
        return self.num_internal + 1

    def validate(self) -> None:
        """Walk the tree once from the root and rebuild the index.

        Raises ValueError for a child reference that is out of range or
        reached twice, for a node or leaf the root does not reach, and for
        a ``prototype_index`` that is not a bijection onto bank rows.
        """
        m = len(self.left)
        left, right = self.left.tolist(), self.right.tolist()
        parent, went_right = [-1] * (2 * m + 1), [False] * (2 * m + 1)
        depth = [-1] * (2 * m + 1)
        preorder: list[int] = []
        stack = [(int(self.root), -1, False, 0)]
        while stack:
            ref, up, is_right, level = stack.pop()
            if not -m - 1 <= ref < m:
                raise ValueError(f"child reference {ref} is out of range")
            col = ref if ref >= 0 else m - 1 - ref
            if depth[col] >= 0:
                raise ValueError(f"child reference {ref} is reached twice")
            parent[col], went_right[col], depth[col] = up, is_right, level
            preorder.append(col)
            if ref >= 0:
                stack.append((right[ref], col, True, level + 1))
                stack.append((left[ref], col, False, level + 1))
        if len(preorder) != 2 * m + 1:
            unreached = [col for col, d in enumerate(depth) if d < 0]
            raise ValueError(f"columns {unreached} are not reached from the root")
        if sorted(self.prototype_index.tolist()) != list(range(m)):
            raise ValueError("prototype_index is not a bijection onto bank rows")
        self.parent = np.asarray(parent, dtype=np.int64)
        self.went_right = np.asarray(went_right, dtype=bool)
        self.depth = np.asarray(depth, dtype=np.int64)
        self.preorder = np.asarray(preorder, dtype=np.int64)
        self.levels = [np.flatnonzero(self.depth == d)
                       for d in range(max(depth) + 1)]

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

    def leaf_depths(self) -> np.ndarray:
        return self.depth[self.num_internal:].copy()

    def leaves_under(self, node: int) -> list[int]:
        """Leaves below internal node ``node``, left to right."""
        start = int(np.flatnonzero(self.preorder == node)[0]) + 1
        # the block ends at the next column no deeper than node, if any
        ends = np.append(self.depth[self.preorder[start:]] <= self.depth[node],
                         True)
        block = self.preorder[start:start + int(ends.argmax())]
        return (block[block >= self.num_internal] - self.num_internal).tolist()

    def greedy_leaves(self, p_right: np.ndarray) -> np.ndarray:
        """Leaf reached by each row of the N x M ``p_right``, going right
        exactly when p_right > 0.5; all rows descend one level at a time."""
        ref = np.full(p_right.shape[0], self.root, dtype=np.int64)
        for _ in self.levels[1:]:
            rows = np.flatnonzero(ref >= 0)
            node = ref[rows]
            ref[rows] = np.where(p_right[rows, node] > 0.5,
                                 self.right[node], self.left[node])
        return -ref - 1


@dataclass
class PrototypeBank:
    """All prototype vectors, one row per internal node (1x1 patches)."""

    tensor: Tensor

    @property
    def count(self) -> int:
        return self.tensor.shape[0]

    @property
    def depth(self) -> int:
        return self.tensor.shape[1]

    def row(self, i: int) -> np.ndarray:
        return self.tensor.values[i]


@dataclass
class LeafParams:
    """Per-leaf class logits, trained derivative-free (never on a tape)."""

    logits: np.ndarray
    norm: str = "softmax"  # "l1" is the non-default alternative

    @property
    def num_leaves(self) -> int:
        return self.logits.shape[0]

    @property
    def num_classes(self) -> int:
        return self.logits.shape[1]

    def distributions(self, logits: np.ndarray | None = None) -> np.ndarray:
        c = self.logits if logits is None else logits
        if self.norm == "l1":
            totals = c.sum(axis=1, keepdims=True)
            out = np.full_like(c, 1.0 / c.shape[1])
            ok = totals[:, 0] > 0
            out[ok] = c[ok] / totals[ok]
            return out
        shifted = c - c.max(axis=1, keepdims=True)
        e = np.exp(shifted)
        return e / e.sum(axis=1, keepdims=True)


@dataclass
class RoutingTrace:
    """Per-node routing evidence and per-leaf path probabilities.

    All fields are batched over the leading sample axis. ``edge_right``
    and ``leaf_probabilities`` stay on the tape so gradients reach the
    prototypes and the backbone.
    """

    edge_right: Tensor            # N x M
    distances: np.ndarray         # N x M
    locations: np.ndarray         # N x M x 2 (row, col) of the nearest patch
    leaf_probabilities: Tensor    # N x L


def init_tree(h: int, num_classes: int, depth: int, seed: int,
              dtype=np.float32, leaf_norm: str = "softmax",
              ) -> tuple[TreeTopology, PrototypeBank, LeafParams]:
    """Full tree of height h: prototypes ~ N(0.5, 0.1), leaf logits zero."""
    if h < 1:
        raise ValueError(f"height must be >= 1, got {h}")
    if num_classes < 2:
        raise ValueError(f"need at least 2 classes, got {num_classes}")
    if depth < 1:
        raise ValueError(f"prototype depth must be >= 1, got {depth}")
    topology, _, _ = TreeTopology.from_shape(
        0, lambda level: None if level == h else (level + 1, level + 1), h)
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0x7EE)))
    protos = rng.normal(0.5, 0.1, (topology.num_internal, depth)).astype(dtype)
    bank = PrototypeBank(Tensor(protos, requires_grad=True))
    # leaf logits live in float64: they are count-like accumulations and
    # never enter the gradient tape, so storage precision is free
    leaves = LeafParams(np.zeros((topology.num_leaves, num_classes),
                                 dtype=np.float64), norm=leaf_norm)
    return topology, bank, leaves


def _patch_squared_distances(latent: np.ndarray, proto: np.ndarray) -> np.ndarray:
    """H x W grid of squared Euclidean distances, exact for exact matches."""
    diff = latent - proto.reshape(-1, 1, 1)
    return (diff * diff).sum(axis=0)


def nearest_patch(latent, prototype) -> tuple[tuple[int, int], float]:
    """Location and distance of the patch closest to one prototype.

    Ties break to the smallest row-major index.
    """
    lat = latent.values if isinstance(latent, Tensor) else np.asarray(latent)
    proto = prototype.values if isinstance(prototype, Tensor) else np.asarray(prototype)
    if lat.ndim != 3:
        raise ValueError(f"latent must be D x H x W, got shape {lat.shape}")
    if proto.ndim != 1 or proto.shape[0] != lat.shape[0]:
        raise ValueError(
            f"prototype depth {proto.shape} does not match latent depth "
            f"{lat.shape[0]}")
    grid = _patch_squared_distances(lat, proto)
    flat = int(grid.argmin())
    i, j = divmod(flat, grid.shape[1])
    return (i, j), float(np.sqrt(grid[i, j]))


def edge_probability(distance: float) -> float:
    """Right-edge routing probability exp(-distance)."""
    if not np.isfinite(distance) or distance < 0:
        raise ValueError(f"distance must be finite and >= 0, got {distance}")
    return float(np.exp(-distance))


def min_patch_distances(latent: Tensor, prototypes: Tensor,
                        ) -> tuple[Tensor, np.ndarray]:
    """Per-sample, per-prototype distance to the nearest latent patch.

    Returns an N x M tensor of min-pooled Euclidean distances plus the
    argmin locations (N x M x 2). The gradient flows only through each
    selected patch; ties resolve to the smallest row-major index before
    the backward pass, so backward is deterministic.
    """
    lat = latent.values
    if lat.ndim == 3:
        raise ValueError("min_patch_distances expects a batched N x D x H x W latent")
    n, d, h, w = lat.shape
    protos = prototypes.values
    m = protos.shape[0]
    if protos.shape[1] != d:
        raise ValueError(f"prototype depth {protos.shape[1]} != latent depth {d}")
    flat = lat.reshape(n, d, h * w)
    sq = np.empty((n, m, h * w), dtype=lat.dtype)
    for k in range(m):
        diff = flat - protos[k].reshape(1, d, 1)
        sq[:, k] = np.einsum("ndl,ndl->nl", diff, diff)
    argmin = sq.argmin(axis=2)
    sq_min = np.take_along_axis(sq, argmin[:, :, None], axis=2)[:, :, 0]
    dist = np.sqrt(sq_min)
    locations = np.stack([argmin // w, argmin % w], axis=2)

    def bwd(g):
        coeff = g / np.sqrt(sq_min + DISTANCE_GRAD_EPS)
        rows = np.arange(n)[:, None]
        selected = flat.transpose(0, 2, 1)[rows, argmin]      # N x M x D
        diff_sel = selected - protos[None]                    # z - p
        if prototypes.requires_grad:
            prototypes.grad += -(coeff[:, :, None] * diff_sel).sum(axis=0)
        if latent.requires_grad:
            gl = np.zeros((n, h * w, d), dtype=lat.dtype)
            np.add.at(gl, (rows, argmin), coeff[:, :, None] * diff_sel)
            latent.grad += gl.transpose(0, 2, 1).reshape(n, d, h, w)

    return ad.record_op(dist, [latent, prototypes], bwd), locations


def route(topology: TreeTopology, prototypes: PrototypeBank,
          latent: Tensor) -> RoutingTrace:
    """Soft-route a latent batch: all edge and leaf path probabilities.

    A single D x H x W latent is promoted to a batch of one (detached
    from any tape; pass the batched form when its gradient is needed).
    """
    lat = Tensor(latent.values[None]) if latent.values.ndim == 3 else latent
    if prototypes.depth != lat.shape[1]:
        raise ValueError(
            f"tree prototype depth {prototypes.depth} != latent depth {lat.shape[1]}")
    distances, locations = min_patch_distances(lat, prototypes.tensor)
    edge_right = ad.exp(ad.neg(distances))
    pi = _path_probabilities(topology, edge_right)
    return RoutingTrace(edge_right=edge_right,
                        distances=distances.values.copy(),
                        locations=locations,
                        leaf_probabilities=pi)


def _path_probabilities(topology: TreeTopology, edge_right: Tensor) -> Tensor:
    """N x L leaf path probabilities as one taped op, one level at a time.

    A column's reach is its parent's reach times the edge taken (p or
    1 - p), multiplied in root-to-leaf order. With g_left and g_right the
    gradients of its children's reach, node k's reach gets
    g_right * p + g_left * (1 - p) and its edge g_right * reach - g_left * reach.
    """
    p = edge_right.values
    q = 1.0 - p
    m = topology.num_internal
    reach = np.empty((p.shape[0], 2 * m + 1), dtype=p.dtype)
    reach[:, topology.preorder[0]] = 1.0
    for cols in topology.levels[1:]:
        up = topology.parent[cols]
        reach[:, cols] = reach[:, up] * np.where(topology.went_right[cols],
                                                 p[:, up], q[:, up])

    def bwd(g):  # recorded only when edge_right requires grad
        lcol, rcol = (np.where(refs >= 0, refs, m - 1 - refs)
                      for refs in (topology.left, topology.right))
        grad = np.empty_like(reach)
        grad[:, m:] = g
        for cols in reversed(topology.levels[:-1]):
            k = cols[cols < m]
            gl, gr = grad[:, lcol[k]], grad[:, rcol[k]]
            grad[:, k] = gr * p[:, k] + gl * q[:, k]
            edge_right.grad[:, k] += gr * reach[:, k] - gl * reach[:, k]

    return ad.record_op(reach[:, m:].copy(), [edge_right], bwd)


def mix_leaf_distributions(pi: Tensor, distributions: np.ndarray) -> Tensor:
    """Convex combination of leaf class distributions weighted by paths."""
    return ad.matmul(pi, Tensor(np.asarray(distributions, dtype=pi.dtype)))


def predict(topology: TreeTopology, prototypes: PrototypeBank,
            leaves: LeafParams, latent: Tensor,
            ) -> tuple[Tensor, RoutingTrace]:
    """Class probability distribution over the batch, plus the trace."""
    trace = route(topology, prototypes, latent)
    y_hat = mix_leaf_distributions(trace.leaf_probabilities,
                                   leaves.distributions())
    return y_hat, trace
