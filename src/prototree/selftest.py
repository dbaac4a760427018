"""Built-in health checks: gradient oracles and scheme equivalences.

Every check prints one PASS/FAIL line; the entry point returns True only
when all pass. These run from the installed package with no test
dependencies, so a deployment can be audited in place. The reference
implementations below are written the slow, obvious way, share no code
with the paths they check, and serve the test suite as its oracles too.
"""

from __future__ import annotations

import tempfile
from collections.abc import Callable

import numpy as np

from . import autodiff as ad
from . import train as trn
from . import tree
from .autodiff import Tensor
from .backbone import BackboneConfig
from .checkpoint import read_blob, write_blob
from .data import gen_synthetic, load_ppm, save_ppm
from .model import build_model


def naive_conv2d(x, kernel, stride=1, padding=0):
    """Cross-correlation as one windowed sum per output cell."""
    n, c, h, w = x.shape
    f, _, kh, kw = kernel.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (w + 2 * padding - kw) // stride + 1
    out = np.zeros((n, f, oh, ow))
    for b in range(n):
        for o in range(f):
            for i in range(oh):
                for j in range(ow):
                    window = xp[b, :, i * stride:i * stride + kh,
                                j * stride:j * stride + kw]
                    out[b, o, i, j] = (window * kernel[o]).sum()
    return out


def naive_conv_stack(x, stages, head):
    """``autodiff.conv_stack`` by windowed sums: each (kernel, bias,
    stride, padding) stage's sums plus its bias through max(v, 0), then
    the 1x1 head's through 1 / (1 + exp(-v))."""
    for kernel, bias, stride, padding in stages:
        x = np.maximum(naive_conv2d(x, kernel, stride, padding)
                       + bias.reshape(1, -1, 1, 1), 0.0)
    return 1.0 / (1.0 + np.exp(-naive_conv2d(x, head)))


def softmax_extended(logits):
    """Plain exp/sum evaluated in extended precision."""
    ext = np.exp(np.asarray(logits, dtype=np.longdouble))
    return (ext / ext.sum(axis=-1, keepdims=True)).astype(np.float64)


def two_pass_leaf_update(model, dataset, floor=1e-9):
    """Full-dataset multiplicative leaf update, computed sample by sample."""
    sigma = model.leaves.distributions().astype(np.float64)
    num_leaves, k = sigma.shape
    total = np.zeros((num_leaves, k), dtype=np.float64)
    for idx in range(len(dataset)):
        y_hat, trace = model.predict(model.latent(dataset.images[idx:idx + 1]))
        pi = trace.leaf_probabilities.values[0].astype(np.float64)
        prediction = np.maximum(y_hat.values[0].astype(np.float64), floor)
        onehot = np.zeros(k)
        onehot[dataset.labels[idx]] = 1.0
        for leaf in range(num_leaves):
            total[leaf] += sigma[leaf] * onehot * pi[leaf] / prediction
    return total


def finite_difference_grad(f: Callable[[], float], tensor: Tensor,
                           step: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of ``f()`` w.r.t. ``tensor`` in place.

    ``f`` must re-run the forward computation from ``tensor.values``.
    Meant for float64 tensors; the returned array matches the tensor shape.
    """
    flat = tensor.values.reshape(-1)
    grad = np.zeros_like(flat)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        fp = f()
        flat[i] = orig - step
        fm = f()
        flat[i] = orig
        grad[i] = (fp - fm) / (2.0 * step)
    return grad.reshape(tensor.shape)


def max_relative_error(analytic: np.ndarray, numeric: np.ndarray,
                       floor: float = 1e-6) -> float:
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), floor)
    return float((np.abs(analytic - numeric) / denom).max())


def check_conv_oracle() -> tuple[bool, str]:
    """A padded, stride-2 ReLU stage and a 1x1 sigmoid head, as one
    ``conv_stack``, against windowed sums with the bias and the
    activations applied."""
    rng = np.random.default_rng(7)
    x = rng.normal(size=(2, 3, 6, 7))
    k = rng.normal(size=(4, 3, 3, 2))
    bias = rng.normal(size=4)
    head = rng.normal(size=(5, 4, 1, 1))
    got = ad.conv_stack(Tensor(x), [(Tensor(k), Tensor(bias), 2, 1)],
                        Tensor(head)).values
    err = np.abs(got - naive_conv_stack(x, [(k, bias, 2, 1)], head)).max()
    return err < 1e-6, f"mismatch {err:.2e}"


def check_softmax_oracle() -> tuple[bool, str]:
    rng = np.random.default_rng(11)
    logits = rng.normal(size=(6, 5)) * 3
    got = tree.LeafParams(logits).distributions()
    err = np.abs(got - softmax_extended(logits)).max()
    return err < 1e-7, f"err {err:.2e}"


def check_full_gradients() -> tuple[bool, str]:
    config = BackboneConfig(in_channels=2, stages=((3, 3, 2),),
                            latent_depth=4, input_side=8)
    model = build_model(config, height=2, num_classes=3, seed=5,
                        dtype=np.float64)
    rng = np.random.default_rng(3)
    images = rng.uniform(0.0, 1.0, (2, 2, 8, 8))
    labels = np.array([0, 2])

    def loss_value() -> float:
        y_hat, _ = model.predict(model.latent(images))
        return trn.cross_entropy(y_hat, labels).item()

    with ad.Tape() as tape:
        y_hat, _ = model.predict(model.latent(images))
        tape.backward(trn.cross_entropy(y_hat, labels))
    worst = 0.0
    for group in model.parameters().values():
        for param in group:
            numeric = finite_difference_grad(loss_value, param)
            worst = max(worst, max_relative_error(param.grad, numeric))
    return worst < 1e-4, f"max rel err {worst:.2e}"


def check_routing_normalization() -> tuple[bool, str]:
    rng = np.random.default_rng(19)
    worst = 0.0
    for height in (1, 3, 5):
        topo, bank, leaves = tree.init_tree(height, 4, 6, seed=int(height))
        latent = Tensor(rng.uniform(0, 1, (8, 6, 3, 3)).astype(np.float32))
        trace = tree.route(topo, bank, latent)
        pi = trace.leaf_probabilities.values
        worst = max(worst, np.abs(pi.sum(axis=1) - 1.0).max())
        y_hat = tree.mix_leaf_distributions(trace.leaf_probabilities,
                                            leaves.distributions()).values
        worst = max(worst, np.abs(y_hat.sum(axis=1) - 1.0).max())
    return worst < 1e-6, f"max deviation {worst:.2e}"


def check_leaf_update_equivalence() -> tuple[bool, str]:
    train_set, _ = gen_synthetic(2, 10, 32, seed=23)
    config = BackboneConfig(input_side=32, latent_depth=8,
                            stages=((8, 3, 2), (8, 3, 2)))
    worst = 0.0
    for batch_size in (20, 10, 4):
        model = build_model(config, height=2, num_classes=2, seed=2)
        reference = two_pass_leaf_update(model, train_set)
        trn.train_epoch(model, train_set,
                        trn.TrainConfig(batch_size=batch_size, seed=2),
                        epoch=1, adam=None)
        worst = max(worst, np.abs(model.leaves.logits - reference).max())
    return worst < 1e-6, f"max deviation {worst:.2e}"


def check_checkpoint_roundtrip() -> tuple[bool, str]:
    rng = np.random.default_rng(31)
    tensors = {"a/b": rng.normal(size=(3, 4)).astype(np.float32),
               "f64": np.array([np.pi, -0.0, np.inf, 5e-324]),
               "i64": np.array([[-2 ** 63, 2 ** 63 - 1]], dtype=np.int64),
               "deep/nested/name": np.frombuffer("ü\n".encode(), np.uint8),
               "empty": np.zeros((2, 0), dtype=np.uint8)}
    with tempfile.TemporaryDirectory() as tmp:
        write_blob(f"{tmp}/t.npt", tensors)
        loaded = read_blob(f"{tmp}/t.npt")
    for name, arr in tensors.items():
        got = loaded[name]
        if got.dtype != arr.dtype or got.shape != arr.shape \
                or got.tobytes() != arr.tobytes():
            return False, f"tensor {name} not bit-identical"
    return True, ""


def check_ppm_roundtrip() -> tuple[bool, str]:
    rng = np.random.default_rng(37)
    image = rng.uniform(0, 1, (3, 9, 7)).astype(np.float32)
    with tempfile.NamedTemporaryFile(suffix=".ppm") as tmp:
        save_ppm(tmp.name, image)
        loaded = load_ppm(tmp.name)
    err = np.abs(loaded - image).max()
    return err <= 0.5 / 255.0 + 1e-7, f"err {err:.5f}"


CHECKS = (
    ("conv2d vs nested-loop oracle", check_conv_oracle),
    ("softmax vs extended-precision oracle", check_softmax_oracle),
    ("analytic gradients vs finite differences", check_full_gradients),
    ("leaf path probabilities normalize", check_routing_normalization),
    ("interleaved leaf update vs two-pass", check_leaf_update_equivalence),
    ("checkpoint round trip bit-exact", check_checkpoint_roundtrip),
    ("ppm codec round trip", check_ppm_roundtrip),
)


def run(verbose: bool = True) -> bool:
    all_ok = True
    for name, check in CHECKS:
        ok, detail = check()
        all_ok &= ok
        if verbose:
            suffix = f" ({detail})" if detail and not ok else ""
            print(f"{'PASS' if ok else 'FAIL'} {name}{suffix}")
    return all_ok
