"""Datasets: synthetic part-motif images, PPM codec, augmentation.

The synthetic task is built so that classification requires detecting
localized parts rather than global color statistics. Every class is a
conjunction of 2-3 glyph motifs (shape + color) drawn at jittered
positions over a textured, label-independent background.

For K >= 4 the classes share motifs pairwise: classes 0 and 1 form a
subset pair, {S, B} versus {S, B, E} with an oversized extra glyph E, so
the only evidence separating them is the presence of one part (erasing E
turns a class-1 image into a class-0 image); every further pair (2k,
2k+1) shares one base motif and adds one glyph unique to each class. For
K <= 3 each class gets a disjoint motif set, which makes a single-split
tree sufficient at K = 2.

All glyph shapes are symmetric under horizontal flips, so the flip
augmentation is label-preserving.
"""

from __future__ import annotations

import csv
import os
import re
from dataclasses import dataclass

import numpy as np

_SHAPES = ("disk", "square", "ring", "plus", "triangle", "diamond", "cross", "bar")
_COLORS = (
    (0.88, 0.10, 0.10),
    (0.10, 0.75, 0.15),
    (0.15, 0.25, 0.90),
    (0.90, 0.85, 0.10),
    (0.85, 0.15, 0.85),
    (0.10, 0.80, 0.85),
    (0.95, 0.55, 0.10),
    (0.93, 0.93, 0.93),
)


@dataclass(frozen=True)
class Motif:
    shape: str
    color: tuple[float, float, float]
    scale: float = 1.0


@dataclass
class Dataset:
    images: np.ndarray          # N x C x S x S float32 in [0, 1]
    labels: np.ndarray          # N ints in [0, K)
    split: str                  # "train" or "test"
    class_names: list[str]

    @property
    def num_classes(self) -> int:
        return len(self.class_names)

    def __len__(self) -> int:
        return len(self.labels)

    def validate(self) -> None:
        if len(self.labels) < 1:
            raise ValueError("dataset is empty")
        if self.images.shape[0] != self.labels.shape[0]:
            raise ValueError("images and labels disagree on length")
        if self.images.min() < 0.0 or self.images.max() > 1.0:
            raise ValueError("pixel values must lie in [0, 1]")
        if self.split == "train":
            present = set(np.unique(self.labels).tolist())
            if present != set(range(self.num_classes)):
                raise ValueError(
                    f"train labels must cover 0..{self.num_classes - 1}, "
                    f"got {sorted(present)}")


@dataclass(frozen=True)
class AugmentConfig:
    horizontal_flip_p: float = 0.5
    brightness_jitter: tuple[float, float] = (0.6, 1.4)
    enabled: bool = True

    def validate(self) -> None:
        lo, hi = self.brightness_jitter
        if not (0.0 < lo <= hi):
            raise ValueError(f"jitter bounds must be positive with lo <= hi, "
                             f"got ({lo}, {hi})")
        if not (0.0 <= self.horizontal_flip_p <= 1.0):
            raise ValueError("flip probability must lie in [0, 1]")


def augment(image: np.ndarray, config: AugmentConfig,
            rng_draw: np.random.Generator) -> np.ndarray:
    """Online per-item augmentation: optional flip, brightness scale."""
    if not config.enabled:
        return image
    out = image
    if rng_draw.random() < config.horizontal_flip_p:
        out = out[:, :, ::-1]
    lo, hi = config.brightness_jitter
    scale = rng_draw.uniform(lo, hi)
    return np.clip(out * np.float32(scale), 0.0, 1.0).astype(np.float32)


# ---------------------------------------------------------------------------
# synthetic generator


def class_motifs(num_classes: int, seed: int,
                 ) -> tuple[list[list[Motif]], list[int | None]]:
    """Deterministic per-class motif assignment and the index (within the
    class's motif list) of the motif whose removal collapses the class
    onto its pair partner, where one exists."""
    pool = [Motif(s, c) for s in _SHAPES for c in _COLORS]
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0xA11)))
    order = rng.permutation(len(pool))
    pool = [pool[i] for i in order]
    take = iter(pool)
    motifs: list[list[Motif]] = []
    distinctive: list[int | None] = []
    if num_classes <= 3:
        for k in range(num_classes):
            count = 2 if k % 2 == 0 else 3
            motifs.append([next(take) for _ in range(count)])
            distinctive.append(None)
        return motifs, distinctive
    # subset pair: class 1 is class 0 plus one oversized extra glyph
    shared, base, extra = next(take), next(take), next(take)
    extra = Motif(extra.shape, extra.color, scale=1.35)
    motifs.append([shared, base])
    distinctive.append(None)
    motifs.append([shared, base, extra])
    distinctive.append(2)
    # remaining pairs share a base motif and differ by a unique glyph
    for _ in range(num_classes // 2 - 1):
        common = next(take)
        motifs.append([common, next(take)])
        distinctive.append(None)
        motifs.append([common, next(take)])
        distinctive.append(None)
    if num_classes % 2:
        motifs.append([next(take), next(take)])
        distinctive.append(None)
    return motifs, distinctive


def _bilinear_upsample(field: np.ndarray, side: int) -> np.ndarray:
    b = field.shape[0]
    coords = (np.arange(side) + 0.5) * b / side - 0.5
    i0 = np.floor(coords).astype(int)
    frac = coords - i0
    lo = np.clip(i0, 0, b - 1)
    hi = np.clip(i0 + 1, 0, b - 1)
    rows = field[hi, :] * frac[:, None] + field[lo, :] * (1.0 - frac[:, None])
    return rows[:, hi] * frac[None, :] + rows[:, lo] * (1.0 - frac[None, :])


def _glyph_mask(shape: str, g: int) -> np.ndarray:
    u = np.linspace(-1.0, 1.0, g).reshape(1, -1)
    v = np.linspace(-1.0, 1.0, g).reshape(-1, 1)
    if shape == "disk":
        return (u * u + v * v) <= 1.0
    if shape == "square":
        return np.maximum(np.abs(u), np.abs(v)) <= 0.9
    if shape == "ring":
        r = np.sqrt(u * u + v * v)
        return (r >= 0.52) & (r <= 1.0)
    if shape == "plus":
        return (np.abs(u) <= 0.34) | (np.abs(v) <= 0.34)
    if shape == "triangle":
        return np.abs(u) <= (v + 1.0) / 2.0
    if shape == "diamond":
        return (np.abs(u) + np.abs(v)) <= 1.0
    if shape == "cross":
        return np.abs(np.abs(u) - np.abs(v)) <= 0.3
    if shape == "bar":
        return np.abs(v) <= 0.36
    raise ValueError(f"unknown glyph shape {shape!r}")


def _render(rng: np.random.Generator, side: int, motifs: list[Motif],
            skip: int | None = None) -> np.ndarray:
    """One image. All random draws happen regardless of ``skip`` so an
    ablated render differs from the full one only by the erased glyph."""
    base = rng.uniform(0.25, 0.45) + rng.uniform(-0.05, 0.05, 3)
    img = np.empty((3, side, side), dtype=np.float64)
    img[:] = base.reshape(3, 1, 1)
    blob = _bilinear_upsample(rng.uniform(-1.0, 1.0, (6, 6)), side)
    img += 0.07 * blob[None]
    img += rng.uniform(-0.02, 0.02, (3, side, side))

    glyph = max(6, round(side * 0.18))
    placed: list[tuple[float, float]] = []
    layout = []
    for motif in motifs:
        g = int(round(glyph * motif.scale * rng.uniform(0.85, 1.15)))
        color = np.clip(np.asarray(motif.color) + rng.uniform(-0.05, 0.05, 3),
                        0.0, 1.0)
        top = left = 0
        for _ in range(200):
            top = int(rng.integers(1, side - g - 1))
            left = int(rng.integers(1, side - g - 1))
            cy, cx = top + g / 2, left + g / 2
            if all((cy - py) ** 2 + (cx - px) ** 2 >= (1.3 * glyph) ** 2
                   for py, px in placed):
                break
        placed.append((top + g / 2, left + g / 2))
        layout.append((motif, g, color, top, left))
    for index, (motif, g, color, top, left) in enumerate(layout):
        if index == skip:
            continue
        mask = _glyph_mask(motif.shape, g).astype(np.float64)
        box = img[:, top:top + g, left:left + g]
        img[:, top:top + g, left:left + g] = (
            mask[None] * color.reshape(3, 1, 1) + (1.0 - mask[None]) * box)
    return np.clip(img, 0.0, 1.0).astype(np.float32)


_SPLIT_TAGS = {"train": 1, "test": 2}


def _generate_split(num_classes: int, per_class: int, side: int, seed: int,
                    split: str, skip_class: int | None = None,
                    skip_index: int | None = None) -> Dataset:
    motifs, _ = class_motifs(num_classes, seed)
    tag = _SPLIT_TAGS[split]
    images = np.empty((num_classes * per_class, 3, side, side), dtype=np.float32)
    labels = np.empty(num_classes * per_class, dtype=np.int64)
    pos = 0
    for k in range(num_classes):
        for i in range(per_class):
            rng = np.random.default_rng(
                np.random.SeedSequence((seed, tag, k, i)))
            skip = skip_index if k == skip_class else None
            images[pos] = _render(rng, side, motifs[k], skip=skip)
            labels[pos] = k
            pos += 1
    names = [f"class_{k}" for k in range(num_classes)]
    return Dataset(images=images, labels=labels, split=split, class_names=names)


def gen_synthetic(num_classes: int, per_class: int, side: int, seed: int,
                  ) -> tuple[Dataset, Dataset]:
    """Train and test splits; the test split holds per_class // 2 images
    per class and draws its instance noise from a disjoint stream."""
    if not 2 <= num_classes <= 16:
        raise ValueError(f"num_classes must lie in [2, 16], got {num_classes}")
    if side not in (32, 64):
        raise ValueError(f"side must be 32 or 64, got {side}")
    if per_class < 2:
        raise ValueError(f"per_class must be >= 2, got {per_class}")
    train = _generate_split(num_classes, per_class, side, seed, "train")
    test = _generate_split(num_classes, max(1, per_class // 2), side, seed, "test")
    train.validate()
    test.validate()
    return train, test


def ablated_test_split(num_classes: int, per_class: int, side: int, seed: int,
                       class_index: int) -> Dataset:
    """The test split with ``class_index``'s distinguishing motif erased.

    Backgrounds and remaining glyphs are bit-identical to the ordinary
    test split; only classes with a pair partner can be ablated.
    """
    _, distinctive = class_motifs(num_classes, seed)
    skip = distinctive[class_index]
    if skip is None:
        raise ValueError(f"class {class_index} has no distinguishing motif")
    return _generate_split(num_classes, max(1, per_class // 2), side, seed,
                           "test", skip_class=class_index, skip_index=skip)


# ---------------------------------------------------------------------------
# PPM codec (binary P6, maxval 255)


# one PPM header field: skip whitespace and '#' comments (each up to its
# newline), then take the run of non-space bytes, empty at a bad header
_PPM_FIELD = re.compile(rb"(?:\s|#[^\n]*)*(\S*)")


_PPM_NUMBERS = ("extent", "extent", "maxval")   # width, height, maxval


def _decimal(field: bytes, name: str) -> int:
    """A header number: ASCII digits only, where int() would also take a
    sign or underscores."""
    if not field.isdigit():
        raise ValueError(f"{name} field {field!r} is not a decimal number")
    return int(field)


def load_ppm(path: str) -> np.ndarray:
    """Binary P6 file to a channels-first float tensor with values v/255."""
    with open(path, "rb") as fh:
        raw = fh.read()
    magic = _PPM_FIELD.match(raw)
    if not magic[1]:
        raise ValueError(f"{path}: malformed header at byte {magic.end()}")
    if magic[1] != b"P6":
        raise ValueError(f"{path}: unsupported magic {magic[1]!r} at byte 0, "
                         "only binary P6 is supported")
    pos, fields = magic.end(), []
    try:
        while len(fields) < 3:
            field = _PPM_FIELD.match(raw, pos)
            pos = field.end()
            if not field[1]:
                raise ValueError(f"{path}: malformed header at byte {pos}")
            fields.append(_decimal(field[1], _PPM_NUMBERS[len(fields)]))
    except ValueError as err:
        raise ValueError(f"{path}: malformed header near byte {pos}: {err}") from None
    width, height, maxval = fields
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


def save_ppm(path: str, image: np.ndarray) -> None:
    if image.ndim != 3 or image.shape[0] != 3:
        raise ValueError(f"expected a 3 x H x W image, got shape {image.shape}")
    quantized = np.clip(np.rint(image * 255.0), 0, 255).astype(np.uint8)
    _, h, w = image.shape
    with open(path, "wb") as fh:
        fh.write(b"P6\n%d %d\n255\n" % (w, h))
        fh.write(quantized.transpose(1, 2, 0).tobytes())


# ---------------------------------------------------------------------------
# directory layout: <root>/<class_name>/<image>.ppm plus labels.csv


def write_dataset(dataset: Dataset, root: str) -> None:
    os.makedirs(root, exist_ok=True)
    counters = [0] * dataset.num_classes
    rows = []
    for image, label in zip(dataset.images, dataset.labels):
        name = dataset.class_names[label]
        os.makedirs(os.path.join(root, name), exist_ok=True)
        rel = os.path.join(name, f"{counters[label]:05d}.ppm")
        counters[label] += 1
        save_ppm(os.path.join(root, rel), image)
        rows.append((rel, name))
    with open(os.path.join(root, "labels.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("path", "class"))
        writer.writerows(rows)


class UnknownClassError(ValueError):
    """A dataset class that the model was not trained on."""


def load_dataset(root: str, split: str = "train",
                 class_names: list[str] | None = None) -> Dataset:
    """Load a dataset directory; labels.csv takes precedence over layout.

    Labels index ``class_names``, a model's classes, when it is given, so
    a split that lacks a class keeps the model's numbering; otherwise
    they index the sorted classes present under ``root``.
    """
    index_path = os.path.join(root, "labels.csv")
    entries: list[tuple[str, str]] = []
    if os.path.exists(index_path):
        with open(index_path, newline="") as fh:
            reader = csv.reader(fh)
            for k, row in enumerate(reader):
                if k and not row:
                    continue            # blank lines after the first
                if len(row) < 2:
                    raise ValueError(f"{index_path}:{reader.line_num}: "
                                     "expected a path,class line")
                if k or row[:2] != ["path", "class"]:
                    entries.append((row[0], row[1]))
    else:
        for name in sorted(os.listdir(root)):
            class_dir = os.path.join(root, name)
            if not os.path.isdir(class_dir):
                continue
            for fname in sorted(os.listdir(class_dir)):
                if fname.endswith(".ppm"):
                    entries.append((os.path.join(name, fname), name))
    if not entries:
        raise ValueError(f"no images found under {root}")
    class_names = list(class_names or sorted({cls for _, cls in entries}))
    index = {name: k for k, name in enumerate(class_names)}
    unknown = {cls for _, cls in entries} - index.keys()
    if unknown:
        raise UnknownClassError(f"{root}: class {min(unknown)!r} is not one "
                                "of the model's classes")
    # filled in place: a list of images to stack would hold the split
    # twice, and the heap it grows to is returned and faulted in again
    images = None
    for k, (rel, _) in enumerate(entries):
        image = load_ppm(os.path.join(root, rel))
        if images is None:
            images = np.empty((len(entries), *image.shape), image.dtype)
        elif image.shape != images.shape[1:]:
            raise ValueError(
                f"{os.path.join(root, rel)}: image shape {image.shape} differs "
                f"from the first image's {images.shape[1:]}")
        images[k] = image
    labels = np.asarray([index[cls] for _, cls in entries], dtype=np.int64)
    return Dataset(images=images, labels=labels, split=split,
                   class_names=class_names)
