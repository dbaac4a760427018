"""Faithful visualization of a projected model.

Each surviving prototype is rendered as a crop of the training image it
was projected onto: the per-patch similarity grid is upsampled with
bicubic (Catmull-Rom) interpolation to the input resolution and a
one-latent-cell receptive rectangle is cut around its maximum. The
global tree is exported as DOT plus a dependency-free HTML page, and a
single sample can additionally be traced along its greedy path.
"""

from __future__ import annotations

import os
import struct
import zlib
from dataclasses import dataclass, field
from html import escape
from urllib.parse import quote

import numpy as np

from . import refine
from . import tree as tr


@dataclass
class ExplanationGraph:
    patch_paths: dict[int, str] = field(default_factory=dict)
    files: list[str] = field(default_factory=list)
    sample_path: list[tuple[int, bool, float]] | None = None


def _similarity_grid(latent: np.ndarray, proto: np.ndarray) -> np.ndarray:
    """Per-patch similarity of a D x H x W latent to one prototype: an
    H x W grid, each cell exp(-patch distance), exact for exact matches."""
    diff = latent - proto.reshape(-1, 1, 1)
    return np.exp(-np.sqrt((diff * diff).sum(axis=0)))


def catmull_rom_weight(t: np.ndarray) -> np.ndarray:
    """Bicubic kernel with a = -0.5."""
    at = np.abs(t)
    w = np.zeros_like(at)
    near = at <= 1.0
    far = (at > 1.0) & (at < 2.0)
    w[near] = 1.5 * at[near] ** 3 - 2.5 * at[near] ** 2 + 1.0
    w[far] = -0.5 * at[far] ** 3 + 2.5 * at[far] ** 2 - 4.0 * at[far] + 2.0
    return w


def _resample_matrix(src: int, dst: int) -> np.ndarray:
    """dst x src weight matrix for 1-D Catmull-Rom with edge clamping."""
    out = np.zeros((dst, src))
    centers = (np.arange(dst) + 0.5) * src / dst - 0.5
    base = np.floor(centers).astype(int)
    for offset in (-1, 0, 1, 2):
        idx = base + offset
        w = catmull_rom_weight(centers - idx)
        np.add.at(out, (np.arange(dst), np.clip(idx, 0, src - 1)), w)
    return out


def bicubic_upsample(grid: np.ndarray, out_h: int, out_w: int,
                     matrices=None) -> np.ndarray:
    """``matrices``, if given, are the (rows, cols) resample matrices."""
    h, w = grid.shape
    rows, cols = matrices or (_resample_matrix(h, out_h),
                              _resample_matrix(w, out_w))
    return rows @ grid @ cols.T


def extract_patch(scores: np.ndarray, source_image: np.ndarray,
                  matrices=None) -> tuple[np.ndarray, tuple[int, int, int, int]]:
    """Crop around the upsampled similarity maximum.

    The crop covers one latent cell's share of the image
    (side / H by side / W pixels) and the returned bounding box
    (top, left, height, width) is clamped to stay inside the image.
    """
    _, side_h, side_w = source_image.shape
    upsampled = bicubic_upsample(scores, side_h, side_w, matrices)
    flat = int(upsampled.argmax())
    r, c = divmod(flat, side_w)
    ph = max(1, round(side_h / scores.shape[0]))
    pw = max(1, round(side_w / scores.shape[1]))
    top = min(max(0, r - ph // 2), side_h - ph)
    left = min(max(0, c - pw // 2), side_w - pw)
    return source_image[:, top:top + ph, left:left + pw].copy(), \
        (top, left, ph, pw)


def write_png(path: str, image: np.ndarray) -> None:
    """Minimal RGB PNG writer (8-bit, no interlacing)."""
    quantized = np.clip(np.rint(image * 255.0), 0, 255).astype(np.uint8)
    h, w = quantized.shape[1:]
    rows = quantized.transpose(1, 2, 0)
    raw = b"".join(b"\x00" + rows[y].tobytes() for y in range(h))

    def chunk(tag: bytes, payload: bytes) -> bytes:
        body = tag + payload
        return struct.pack(">I", len(payload)) + body + \
            struct.pack(">I", zlib.crc32(body))

    header = struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 0)
    with open(path, "wb") as fh:
        fh.write(b"\x89PNG\r\n\x1a\n")
        fh.write(chunk(b"IHDR", header))
        fh.write(chunk(b"IDAT", zlib.compress(raw, 6)))
        fh.write(chunk(b"IEND", b""))


def _write_text(graph: ExplanationGraph, path: str, text: str) -> None:
    with open(path, "w") as fh:
        fh.write(text)
    graph.files.append(path)


def _class_label(model, k: int) -> str:
    if model.class_names and k < len(model.class_names):
        return model.class_names[k]
    return f"class {k}"


def _src(rel: str) -> str:
    """A relative path as an HTML attribute value: percent-encoded, so
    that a '#', '?' or '%' in a file name stays part of the path, then
    escaped."""
    return escape(quote(rel))


def _dot_quoted(text: str) -> str:
    """``text`` as the inside of a DOT double-quoted string."""
    return text.replace("\\", "\\\\").replace('"', '\\"')


def _dot_lines(model, patch_rel: dict[int, str]) -> list[str]:
    topo = model.topology
    dists = model.leaves.distributions()
    lines = ["digraph prototree {", "  rankdir=TB;",
             '  node [shape=box, fontname="sans"];']
    for node in range(topo.num_internal):
        lines.append(f'  node{node} [label="node {node}", '
                     f'image="{patch_rel[node]}", labelloc=b];')
    for leaf in range(topo.num_leaves):
        k = int(dists[leaf].argmax())
        lines.append(f'  leaf{leaf} [shape=ellipse, label="'
                     f'{_dot_quoted(_class_label(model, k))}'
                     f'\\np={dists[leaf, k]:.3f}"];')
    for node in range(topo.num_internal):
        for label, child in (("absent", int(topo.left[node])),
                             ("present", int(topo.right[node]))):
            target = f"leaf{child - topo.num_internal}" \
                if child >= topo.num_internal else f"node{child}"
            lines.append(f'  node{node} -> {target} [label="{label}"];')
    lines.append("}")
    return lines


def _html_tree(model, patch_rel: dict[int, str]) -> str:
    topo = model.topology
    dists = model.leaves.distributions()

    def render(col: int) -> str:
        if col >= topo.num_internal:
            leaf = col - topo.num_internal
            k = int(dists[leaf].argmax())
            return (f"<li class='leaf'>leaf {leaf}: "
                    f"<b>{escape(_class_label(model, k))}</b> "
                    f"(p={dists[leaf, k]:.3f})</li>")
        return (f"<li>node {col} <img src='{patch_rel[col]}' "
                f"alt='prototype {col}'><ul>"
                f"<li class='edge'>absent</li>{render(int(topo.left[col]))}"
                f"<li class='edge'>present</li>{render(int(topo.right[col]))}"
                f"</ul></li>")

    return ("<!DOCTYPE html><html><head><meta charset='utf-8'>"
            "<title>prototype tree</title><style>"
            "ul{list-style:none} li{margin:2px} .edge{color:#888;font-style:italic}"
            " img{height:48px;vertical-align:middle;margin-left:6px}"
            "</style></head><body><h1>prototype tree</h1><ul>"
            f"{render(topo.root)}</ul></body></html>")


def export_tree(model, out_dir: str, sample: np.ndarray | None = None,
                sample_name: str = "sample") -> ExplanationGraph:
    """Write PNG patch images, tree.dot and tree.html; optionally a local
    greedy-path page for one sample. The model must be projected first,
    otherwise the patches would not show what the tree actually matches.
    """
    if model.projection is None:
        raise ValueError("export requires a projected model")
    os.makedirs(os.path.join(out_dir, "prototypes"), exist_ok=True)
    graph = ExplanationGraph()
    patch_rel: dict[int, str] = {}
    if model.projection:    # latent bits do not depend on the batch
        latents = model.latents_per_image(model.projection_images)
    config = model.backbone.config
    matrices = [_resample_matrix(config.latent_side(),
                                 config.input_side)] * 2    # square grids
    for record in model.projection:
        node = record.node_index
        source = model.projection_images[node]
        scores = _similarity_grid(latents[node], model.prototypes.row(node))
        patch, _ = extract_patch(scores, source, matrices)
        patch_rel[node] = os.path.join("prototypes", f"node_{node}.png")
        graph.patch_paths[node] = os.path.join(out_dir, patch_rel[node])
        write_png(graph.patch_paths[node], patch)
        graph.files.append(graph.patch_paths[node])

    _write_text(graph, os.path.join(out_dir, "tree.dot"),
                "\n".join(_dot_lines(model, patch_rel)) + "\n")
    _write_text(graph, os.path.join(out_dir, "tree.html"),
                _html_tree(model, patch_rel))

    if sample is not None:
        graph.sample_path = _export_sample(model, sample, sample_name,
                                           out_dir, patch_rel, graph)
    return graph


def _export_sample(model, sample: np.ndarray, name: str, out_dir: str,
                   patch_rel: dict[int, str], graph: ExplanationGraph,
                   ) -> list[tuple[int, bool, float]]:
    lat = model.latent(sample[None])
    trace = tr.route(model.topology, model.prototypes, lat)
    dist, leaf, path = refine.hard_decision(model, trace, "greedy")
    side = sample.shape[1]
    h, w = lat.shape[2:]
    found_dir = os.path.join(out_dir, f"explain_{name}_patches")
    os.makedirs(found_dir, exist_ok=True)
    rows = []
    for node, went_right, p_right in path:
        i, j = trace.locations[0, node]   # the patch routing measured
        ph, pw = max(1, round(side / h)), max(1, round(side / w))
        top = min(max(0, i * ph), side - ph)
        left = min(max(0, j * pw), side - pw)
        crop = sample[:, top:top + ph, left:left + pw]
        rel = os.path.join(f"explain_{name}_patches", f"node_{node}.png")
        write_png(os.path.join(out_dir, rel), crop)
        graph.files.append(os.path.join(out_dir, rel))
        rows.append((node, went_right, p_right, rel))
    k = int(np.argmax(dist))
    body = "".join(
        f"<tr><td>node {node}</td>"
        f"<td><img src='{_src(patch_rel[node])}'></td>"
        f"<td><img src='{_src(rel)}'></td>"
        f"<td>p_right={p:.4f}</td>"
        f"<td>{'present' if right else 'absent'}</td></tr>"
        for node, right, p, rel in rows)
    html = ("<!DOCTYPE html><html><head><meta charset='utf-8'>"
            f"<title>decision path: {escape(name)}</title><style>"
            "img{height:48px} td{padding:4px;border:1px solid #ccc}"
            "table{border-collapse:collapse}</style></head><body>"
            f"<h1>greedy path for {escape(name)}</h1>"
            "<table><tr><th>node</th><th>prototype</th><th>found patch</th>"
            f"<th>p_right</th><th>decision</th></tr>{body}</table>"
            f"<p>leaf {leaf}: <b>{escape(_class_label(model, k))}</b> "
            f"(p={dist[k]:.3f})</p></body></html>")
    _write_text(graph, os.path.join(out_dir, f"explain_{name}.html"), html)
    return [(node, right, p) for node, right, p, _ in rows]
