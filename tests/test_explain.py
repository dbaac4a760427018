import html
import os
import pathlib
import re
import urllib.parse

import numpy as np
import pytest

import prototree.explain as xp
import prototree.refine as rf
from prototree.backbone import Backbone, BackboneConfig
from prototree.data import gen_synthetic
from prototree.model import build_model

from oracles import bicubic_reference

TINY = BackboneConfig(input_side=32, latent_depth=8,
                      stages=((8, 3, 2), (8, 3, 2)))


@pytest.fixture(scope="module")
def projected_model():
    model = build_model(TINY, height=2, num_classes=2, seed=21)
    train, _ = gen_synthetic(2, 4, 32, seed=101)
    logits = np.zeros_like(model.leaves.logits)
    logits[0, 0] = logits[1, 1] = logits[2, 0] = logits[3, 1] = 30.0
    model.leaves.logits = logits
    rf.project(model, train, constrained=False)
    return model, train


def parse_dot(text):
    """Minimal DOT reader: node ids and edges of one digraph."""
    assert re.match(r"\s*digraph\s+\w+\s*\{", text)
    assert text.rstrip().endswith("}")
    nodes = set()
    edges = []
    for line in text.splitlines():
        line = line.strip().rstrip(";")
        edge = re.match(r"(\w+)\s*->\s*(\w+)\s*\[label=\"(\w+)\"\]", line)
        if edge:
            edges.append((edge.group(1), edge.group(2), edge.group(3)))
            continue
        node = re.match(r"(\w+)\s*\[", line)
        if node and node.group(1) not in ("node", "edge", "graph"):
            nodes.add(node.group(1))
    return nodes, edges


def similarity(model, node, image):
    """The similarity grid of one image against node's prototype."""
    return xp._similarity_grid(model.latent(image[None]).values[0],
                               model.prototypes.row(node))


class TestSimilarityMap:
    def test_projected_prototype_scores_one_at_source(self, projected_model):
        model, _ = projected_model
        record = model.projection[0]
        sim = similarity(model, 0, model.projection_images[0])
        i, j = record.location
        assert sim[i, j] == 1.0
        assert sim.max() == 1.0
        assert np.unravel_index(sim.argmax(), sim.shape) == (i, j)

    def test_matches_per_patch_oracle(self, projected_model):
        model, train = projected_model
        image = train.images[2]
        sim = similarity(model, 1, image)
        latent = model.latent(image[None]).values[0]
        proto = model.prototypes.row(1)
        for i in range(sim.shape[0]):
            for j in range(sim.shape[1]):
                dist = np.sqrt(((latent[:, i, j] - proto) ** 2).sum())
                assert abs(sim[i, j] - np.exp(-dist)) < 1e-6

    def test_constant_latent_constant_map(self):
        model = build_model(TINY, height=1, num_classes=2, seed=23)
        for bias in model.backbone.biases:
            bias.values[:] = 0.0
        image = np.zeros((3, 32, 32), dtype=np.float32)
        sim = similarity(model, 0, image)
        assert np.ptp(sim) < 1e-7


class TestBicubic:
    def test_matches_reference_grid(self):
        rng = np.random.default_rng(43)
        grid = rng.uniform(0, 1, (5, 7))
        got = xp.bicubic_upsample(grid, 20, 21)
        np.testing.assert_allclose(got, bicubic_reference(grid, 20, 21),
                                   atol=1e-9)

    def test_constant_grid_preserved(self):
        out = xp.bicubic_upsample(np.full((4, 4), 0.3), 16, 16)
        np.testing.assert_allclose(out, 0.3, atol=1e-9)

    def test_delta_map_keeps_argmax_in_cell(self):
        grid = np.zeros((4, 4))
        grid[1, 2] = 1.0
        up = xp.bicubic_upsample(grid, 32, 32)
        r, c = np.unravel_index(up.argmax(), up.shape)
        assert 8 <= r < 16 and 16 <= c < 24


class TestExtractPatch:
    def test_degenerate_single_cell_crops_whole_image(self):
        image = np.random.default_rng(47).uniform(0, 1, (3, 16, 16))
        patch, bbox = xp.extract_patch(np.ones((1, 1)), image)
        assert bbox == (0, 0, 16, 16)
        np.testing.assert_array_equal(patch, image)

    def test_bbox_contains_upsampled_argmax(self):
        rng = np.random.default_rng(53)
        for _ in range(10):
            scores = rng.uniform(0, 1, (4, 4))
            image = rng.uniform(0, 1, (3, 32, 32))
            _, (top, left, ph, pw) = xp.extract_patch(scores, image)
            up = xp.bicubic_upsample(scores, 32, 32)
            r, c = np.unravel_index(up.argmax(), up.shape)
            assert top <= r < top + ph
            assert left <= c < left + pw

    def test_bbox_clamped_to_image(self):
        scores = np.zeros((4, 4))
        scores[0, 0] = 1.0  # argmax at the border
        image = np.zeros((3, 32, 32))
        _, (top, left, ph, pw) = xp.extract_patch(scores, image)
        assert top >= 0 and left >= 0
        assert top + ph <= 32 and left + pw <= 32


class TestExportTree:
    def test_unprojected_model_rejected(self, tmp_path):
        model = build_model(TINY, height=1, num_classes=2, seed=29)
        with pytest.raises(ValueError, match="projected"):
            xp.export_tree(model, str(tmp_path))

    def test_smallest_tree_dot(self, tmp_path):
        model = build_model(TINY, height=1, num_classes=2, seed=31)
        train, _ = gen_synthetic(2, 2, 32, seed=103)
        rf.project(model, train, constrained=False)
        xp.export_tree(model, str(tmp_path))
        nodes, edges = parse_dot((tmp_path / "tree.dot").read_text())
        assert nodes == {"node0", "leaf0", "leaf1"}
        assert ("node0", "leaf0", "absent") in edges
        assert ("node0", "leaf1", "present") in edges

    def test_dot_round_trip_counts(self, projected_model, tmp_path):
        model, _ = projected_model
        xp.export_tree(model, str(tmp_path))
        nodes, edges = parse_dot((tmp_path / "tree.dot").read_text())
        topo = model.topology
        assert len(nodes) == topo.num_internal + topo.num_leaves
        assert len(edges) == 2 * topo.num_internal
        labels = {label for _, _, label in edges}
        assert labels == {"absent", "present"}

    def test_one_patch_per_internal_node(self, projected_model, tmp_path):
        model, _ = projected_model
        graph = xp.export_tree(model, str(tmp_path))
        assert set(graph.patch_paths) == set(range(model.topology.num_internal))
        for path in graph.patch_paths.values():
            assert os.path.exists(path)
        assert os.path.exists(tmp_path / "tree.html")

    def test_graph_lists_only_written_files(self, projected_model, tmp_path):
        model, _ = projected_model
        graph = xp.export_tree(model, str(tmp_path))
        for path in graph.files:
            assert os.path.exists(path)

    def test_local_export_matches_greedy_path(self, projected_model, tmp_path):
        model, train = projected_model
        sample = train.images[1]
        graph = xp.export_tree(model, str(tmp_path), sample=sample,
                               sample_name="probe")
        _, _, path = rf.hard_decision(
            model, model.predict(model.latent(sample[None]))[1], "greedy")
        assert graph.sample_path == path
        assert os.path.exists(tmp_path / "explain_probe.html")

    def test_names_from_outside_are_escaped(self, projected_model, tmp_path,
                                            monkeypatch):
        model, train = projected_model
        monkeypatch.setattr(model, "class_names", ['a"b\\', "c<script>'"])
        xp.export_tree(model, str(tmp_path), sample=train.images[0],
                       sample_name="'<i>")
        dot = (tmp_path / "tree.dot").read_text()
        labels = re.findall(r'label="((?:[^"\\]|\\.)*)"', dot)
        assert {label.split("\\np=")[0] for label in labels
                if "\\np=" in label} == {'a\\"b\\\\', "c<script>'"}
        tree = (tmp_path / "tree.html").read_text()
        assert "<script>" not in tree and "c&lt;script&gt;&#x27;" in tree
        page = (tmp_path / "explain_'<i>.html").read_text()
        assert "<i>" not in page
        # the title and the heading; image paths are percent-encoded
        assert page.count("&#x27;&lt;i&gt;") == 2
        assert page.count("explain_%27%3Ci%3E_patches/") == len(
            os.listdir(tmp_path / "explain_'<i>_patches"))

    @pytest.mark.parametrize("name", ["a#b", "c?d", "e%f", "g%23h"])
    def test_every_image_link_resolves_to_a_written_file(
            self, projected_model, tmp_path, name):
        model, train = projected_model
        graph = xp.export_tree(model, str(tmp_path), sample=train.images[0],
                               sample_name=name)
        page_path = tmp_path / f"explain_{name}.html"
        page_url = pathlib.Path(page_path).as_uri()
        srcs = re.findall(r"<img src='([^']*)'>", page_path.read_text())
        assert len(srcs) == 2 * len(graph.sample_path) > 0
        for src in srcs:
            link = urllib.parse.urlsplit(
                urllib.parse.urljoin(page_url, html.unescape(src)))
            assert not link.query and not link.fragment, src
            target = urllib.parse.unquote(link.path)
            assert os.path.isfile(target) and target in graph.files, src

    def test_one_backbone_pass_on_the_explained_image(self, projected_model,
                                                      tmp_path, monkeypatch):
        model, train = projected_model
        sample = 1.0 - train.images[1]
        assert not any(np.array_equal(sample, source)
                       for source in model.projection_images)
        passes = []
        forward = Backbone.forward

        def counting(self, batch):
            passes.append(np.array_equal(batch, sample[None]))
            return forward(self, batch)

        monkeypatch.setattr(Backbone, "forward", counting)
        xp.export_tree(model, str(tmp_path), sample=sample,
                       sample_name="probe")
        assert sum(passes) == 1

    def test_one_backbone_pass_for_all_prototype_patches(
            self, projected_model, tmp_path, monkeypatch):
        """The source images go through the backbone as one batch and the
        resample matrix is built once; each patch is still the crop that
        the similarity grid and extract_patch give, bit for bit."""
        model, _ = projected_model
        batches, matrices, saved = [], [], {}
        forward, resample = Backbone.forward, xp._resample_matrix

        def counting(self, batch):
            batches.append(len(batch))
            return forward(self, batch)

        def building(*shape):
            matrices.append(shape)
            return resample(*shape)

        monkeypatch.setattr(Backbone, "forward", counting)
        monkeypatch.setattr(xp, "_resample_matrix", building)
        monkeypatch.setattr(xp, "write_png",
                            lambda path, image: saved.update(
                                {path: image.copy()}))
        graph = xp.export_tree(model, str(tmp_path))
        assert batches == [model.topology.num_internal]
        assert len(matrices) == 1        # square: rows and columns alike
        for node, path in graph.patch_paths.items():
            source = model.projection_images[node]
            want, _ = xp.extract_patch(similarity(model, node, source), source)
            np.testing.assert_array_equal(saved[path], want)

    def test_path_crops_come_from_trace_locations(self, projected_model,
                                                  tmp_path, monkeypatch):
        """Each found-patch crop is the cell routing measured: plant other
        cells in the trace and the crops follow them."""
        model, train = projected_model
        sample = train.images[1]
        planted = np.random.default_rng(61).integers(
            0, 8, (1, model.topology.num_internal, 2))
        route, saved = xp.tr.route, {}

        def planting(*args):
            trace = route(*args)
            assert trace.locations.shape == planted.shape
            trace.locations = planted.copy()
            return trace

        monkeypatch.setattr(xp.tr, "route", planting)
        monkeypatch.setattr(xp, "write_png",
                            lambda path, image: saved.update(
                                {path: image.copy()}))
        graph = xp.export_tree(model, str(tmp_path), sample=sample,
                               sample_name="probe")
        assert graph.sample_path
        for node, _, _ in graph.sample_path:
            i, j = planted[0, node]
            crop = saved[os.path.join(str(tmp_path), "explain_probe_patches",
                                      f"node_{node}.png")]
            # the 8 x 8 latent grid tiles the 32-pixel side in 4-pixel cells
            np.testing.assert_array_equal(
                crop, sample[:, 4 * i:4 * i + 4, 4 * j:4 * j + 4])

    def test_faithfulness_latent_equals_prototype(self, projected_model):
        """The latent vector at the exported patch location equals the
        stored prototype row bit for bit."""
        model, _ = projected_model
        for record in model.projection:
            source = model.projection_images[record.node_index]
            latent = model.latent(source[None]).values[0]
            i, j = record.location
            np.testing.assert_array_equal(
                latent[:, i, j], model.prototypes.row(record.node_index))


class TestPngWriter:
    def test_png_signature_and_loadable_size(self, tmp_path):
        image = np.random.default_rng(59).uniform(0, 1, (3, 6, 5))
        path = str(tmp_path / "img.png")
        xp.write_png(path, image)
        raw = open(path, "rb").read()
        assert raw[:8] == b"\x89PNG\r\n\x1a\n"
        assert raw[12:16] == b"IHDR"
        width = int.from_bytes(raw[16:20], "big")
        height = int.from_bytes(raw[20:24], "big")
        assert (width, height) == (5, 6)
