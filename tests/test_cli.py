import csv
import os
import re
import shutil
import warnings
from html import unescape
from urllib.parse import unquote

import numpy as np
import pytest

import prototree.autodiff as ad
import prototree.refine
from prototree import cli
from prototree.backbone import Backbone, BackboneConfig
from prototree.checkpoint import read_blob, write_blob
from prototree.cli import main
from prototree.data import Dataset, load_dataset, save_ppm, write_dataset
from prototree.model import ProtoTreeModel
from prototree.train import TrainConfig

TINY_CONFIG = """
# desk-scale smoke configuration
height = 2
latent_depth = 8
stages = 8:3:2,8:3:2
epochs = 2
batch_size = 8
lr_body = 0.003
lr_head = 0.003
lr_prototypes = 0.003
seed = 11
"""


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    data = str(root / "data")
    assert main(["gen-data", "--k", "2", "--n", "12", "--side", "32",
                 "--seed", "5", "--out", data]) == 0
    config = root / "train.cfg"
    config.write_text(TINY_CONFIG)
    ckpt = str(root / "model.npt")
    assert main(["train", "--config", str(config), "--data", data,
                 "--out", ckpt, "--quiet"]) == 0
    return {"root": root, "data": data, "config": str(config), "ckpt": ckpt}


@pytest.fixture
def backbone_images(monkeypatch):
    """Number of images that pass through Backbone.forward, per call."""
    seen = []
    forward = Backbone.forward

    def counting(self, batch):
        seen.append(len(batch))
        return forward(self, batch)

    monkeypatch.setattr(Backbone, "forward", counting)
    return seen


def relabelled_copy(workspace, tmp_path, relabel):
    """Copy of the dataset whose labels.csv rows pass through relabel,
    which returns the new class of a row or None to drop it."""
    data = str(tmp_path / "data")
    shutil.copytree(workspace["data"], data)
    for split in ("train", "test"):
        index = os.path.join(data, split, "labels.csv")
        with open(index, newline="") as fh:
            header, *rows = list(csv.reader(fh))
        kept = [(path, relabel(cls)) for path, cls in rows
                if relabel(cls) is not None]
        with open(index, "w", newline="") as fh:
            csv.writer(fh).writerows([header] + kept)
    return data


class TestGenData:
    def test_layout(self, workspace):
        data = workspace["data"]
        assert os.path.exists(os.path.join(data, "train", "labels.csv"))
        assert os.path.exists(os.path.join(data, "test", "class_1"))


class TestTrain:
    def test_help_lists_every_config_key_with_its_default(self, capsys):
        assert main(["train", "--help"]) == 0
        out = capsys.readouterr().out
        for key, value in cli._DEFAULTS.items():
            assert f"  {key} = {value}".rstrip() in out.splitlines()
        assert len(re.findall(r"^  \w+ =", out, re.M)) == 16

    def test_checkpoint_and_metrics_exist(self, workspace):
        assert os.path.exists(workspace["ckpt"])
        csv = workspace["ckpt"] + ".metrics.csv"
        lines = open(csv).read().splitlines()
        assert lines[0] == "epoch,loss,train_acc,test_acc"
        assert len(lines) == 3

    def test_determinism_byte_identical(self, workspace, tmp_path):
        out1, out2 = str(tmp_path / "a.npt"), str(tmp_path / "b.npt")
        for out in (out1, out2):
            assert main(["train", "--config", workspace["config"],
                         "--data", workspace["data"], "--out", out,
                         "--quiet"]) == 0
        assert open(out1, "rb").read() == open(out2, "rb").read()
        assert open(out1 + ".metrics.csv").read() \
            == open(out2 + ".metrics.csv").read()

    def test_out_directory_created_when_metrics_go_elsewhere(
            self, workspace, tmp_path):
        out = str(tmp_path / "new" / "m.npt")
        assert main(["train", "--config", workspace["config"], "--data",
                     workspace["data"], "--out", out, "--metrics",
                     str(tmp_path / "m.csv"), "--quiet"]) == 0
        assert open(out, "rb").read() == open(workspace["ckpt"], "rb").read()

    def test_config_override_changes_result(self, workspace, tmp_path):
        out = str(tmp_path / "c.npt")
        assert main(["train", "--config", workspace["config"], "--data",
                     workspace["data"], "--out", out, "--quiet",
                     "--set", "seed=12"]) == 0
        assert open(out, "rb").read() != open(workspace["ckpt"], "rb").read()

    @pytest.mark.parametrize("seed", [2 ** 63, -1])
    def test_seed_out_of_range_fails_before_training(self, workspace,
                                                     tmp_path, capsys, seed):
        capsys.readouterr()
        assert main(["train", "--config", workspace["config"], "--data",
                     workspace["data"], "--out", str(tmp_path / "m.npt"),
                     "--quiet", "--set", f"seed={seed}"]) == 1
        assert capsys.readouterr().err == \
            f"error: seed must lie in [0, 2**63), got {seed}\n"
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("settings, message", [
        (["milestones=2", "gamma=-1"], "gamma must be > 0, got -1.0"),
        (["lr_head=0"], "learning rates must be > 0, got 0.0"),
        (["lr_prototypes=-1"], "learning rates must be > 0, got -1.0"),
        (["milestones=3,2"], "milestones must increase strictly: (3, 2)"),
        (["lr_body=nan"], "learning rates must be > 0, got nan"),
    ])
    def test_optimizer_value_out_of_range_fails_before_loading(
            self, workspace, tmp_path, capsys, monkeypatch, settings,
            message):
        def no_data(*args):
            raise AssertionError("train loaded data")

        monkeypatch.setattr(cli, "_load_split", no_data)
        overrides = [arg for item in settings for arg in ("--set", item)]
        capsys.readouterr()
        assert main(["train", "--config", workspace["config"], "--data",
                     workspace["data"], "--out", str(tmp_path / "m.npt"),
                     "--quiet", *overrides]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("setting, message", [
        ("height=0", "height must be >= 1, got 0"),
        ("latent_depth=0", "latent_depth must be >= 1, got 0"),
    ])
    def test_model_value_out_of_range_fails_before_loading(
            self, workspace, tmp_path, capsys, setting, message):
        capsys.readouterr()
        assert main(["train", "--config", workspace["config"], "--data",
                     str(tmp_path / "no-such-data"), "--out",
                     str(tmp_path / "m.npt"), "--quiet", "--set",
                     setting]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert os.listdir(tmp_path) == []

    def test_image_of_another_size_exit_one(self, workspace, tmp_path,
                                            capsys):
        data = relabelled_copy(workspace, tmp_path, lambda cls: cls)
        with open(os.path.join(data, "train", "labels.csv"),
                  newline="") as fh:
            odd = os.path.join(data, "train", list(csv.reader(fh))[3][0])
        save_ppm(odd, np.zeros((3, 16, 16), dtype=np.float32))
        capsys.readouterr()
        assert main(["train", "--config", workspace["config"], "--data",
                     data, "--out", str(tmp_path / "m.npt"), "--quiet"]) == 1
        assert capsys.readouterr().err == (
            f"error: {odd}: image shape (3, 16, 16) differs from the first "
            "image's (3, 32, 32)\n")

    def test_test_accuracy_scored_once_after_training(
            self, workspace, tmp_path, capsys, backbone_images):
        out = str(tmp_path / "d.npt")
        assert main(["train", "--config", workspace["config"], "--data",
                     workspace["data"], "--out", out, "--quiet"]) == 0
        train_images = len(load_dataset(os.path.join(workspace["data"],
                                                     "train")))
        test_images = len(load_dataset(os.path.join(workspace["data"],
                                                    "test")))
        # two epochs of training and test scoring, then train_acc
        assert sum(backbone_images) == 3 * train_images + 2 * test_images
        printed = capsys.readouterr().out.splitlines()[-1]
        last_epoch = open(out + ".metrics.csv").read().splitlines()[-1]
        assert printed == f"test_acc {last_epoch.split(',')[3]}"

    def test_unknown_config_key_exit_two(self, workspace, tmp_path):
        code = main(["train", "--config", workspace["config"], "--data",
                     workspace["data"], "--out", str(tmp_path / "x.npt"),
                     "--set", "nonsense=1"])
        assert code == 2

    def test_removed_leaf_norm_key_exit_two(self, workspace, tmp_path,
                                            capsys):
        capsys.readouterr()
        assert main(["train", "--data", workspace["data"], "--out",
                     str(tmp_path / "x.npt"), "--set", "leaf_norm=l1"]) == 2
        assert capsys.readouterr().err == \
            "error: unknown config key 'leaf_norm'\n"

    def test_input_shape_read_from_the_training_images(self, workspace):
        config = ProtoTreeModel.load(workspace["ckpt"]).backbone.config
        assert (config.in_channels, config.input_side) == (3, 32)

    @pytest.mark.parametrize("key", ["in_channels", "input_side", "beta1",
                                     "beta2", "eps"])
    @pytest.mark.parametrize("where", ["set", "file"])
    def test_removed_shape_and_adam_keys_exit_two(self, workspace, tmp_path,
                                                  capsys, key, where):
        config = tmp_path / "old.cfg"
        config.write_text(TINY_CONFIG + f"{key} = 1\n")
        source = ["--set", f"{key}=1"] if where == "set" \
            else ["--config", str(config)]
        capsys.readouterr()
        assert main(["train", *source, "--data", workspace["data"],
                     "--out", str(tmp_path / "x.npt"), "--quiet"]) == 2
        prefix = "" if where == "set" \
            else f"{config}:{TINY_CONFIG.count(chr(10)) + 1}: "
        assert capsys.readouterr().err == \
            f"error: {prefix}unknown config key {key!r}\n"
        assert not (tmp_path / "x.npt").exists()

    def test_non_square_training_images_exit_one(self, tmp_path, capsys):
        data = tmp_path / "wide"
        images = np.full((4, 3, 32, 40), 0.5, dtype=np.float32)
        for split in ("train", "test"):
            write_dataset(Dataset(images, np.array([0, 1, 0, 1]), split,
                                  ["a", "b"]), str(data / split))
        capsys.readouterr()
        assert main(["train", "--data", str(data), "--out",
                     str(tmp_path / "m.npt"), "--quiet"]) == 1
        assert capsys.readouterr().err == \
            "error: training images must be square, got 3x32x40\n"
        assert not (tmp_path / "m.npt").exists()

    def test_default_strings_build_the_dataclass_defaults(self):
        assert cli.build_configs(dict(cli._DEFAULTS)) == \
            (BackboneConfig(), 4, TrainConfig())

    @pytest.mark.parametrize("key, value, bad, noun", [
        ("epochs", "abc", "abc", "an integer"),
        ("height", "2.5", "2.5", "an integer"),
        ("milestones", "3,x", "x", "an integer"),
        ("stages", "8:3:2,8:three:2", "three", "an integer"),
        ("lr_body", "fast", "fast", "a number"),
        ("brightness_hi", "", "", "a number"),
        ("augment_enabled", "maybe", "maybe", "a boolean"),
    ])
    @pytest.mark.parametrize("where", ["set", "file"])
    def test_unparsable_config_value_exit_two(self, workspace, tmp_path,
                                              capsys, key, value, bad,
                                              noun, where):
        if where == "set":
            source = ["--config", workspace["config"],
                      "--set", f"{key}={value}"]
        else:
            config = tmp_path / "bad.cfg"
            config.write_text(TINY_CONFIG + f"{key} = {value}\n")
            source = ["--config", str(config)]
        capsys.readouterr()
        assert main(["train", *source, "--data", workspace["data"],
                     "--out", str(tmp_path / "x.npt"), "--quiet"]) == 2
        assert capsys.readouterr().err == \
            f"error: config key {key!r} needs {noun}, got {bad!r}\n"
        assert not (tmp_path / "x.npt").exists()


class TestEval:
    def test_soft_eval_runs(self, workspace, capsys):
        assert main(["eval", "--ckpt", workspace["ckpt"], "--data",
                     workspace["data"]]) == 0
        out = capsys.readouterr().out
        assert "accuracy " in out and "fidelity 1.0" in out

    @pytest.mark.parametrize("strategy", ["max_path", "greedy"])
    def test_hard_strategies_run(self, workspace, strategy, capsys):
        assert main(["eval", "--ckpt", workspace["ckpt"], "--data",
                     workspace["data"], "--strategy", strategy]) == 0
        out = capsys.readouterr().out
        fid = float([l for l in out.splitlines()
                     if l.startswith("fidelity")][0].split()[1])
        assert 0.0 <= fid <= 1.0

    @pytest.mark.parametrize("strategy", ["soft", "max_path", "greedy"])
    def test_one_backbone_pass_per_test_image(self, workspace, strategy,
                                              backbone_images):
        test_images = len(load_dataset(os.path.join(workspace["data"],
                                                    "test")))
        assert main(["eval", "--ckpt", workspace["ckpt"], "--data",
                     workspace["data"], "--strategy", strategy]) == 0
        assert sum(backbone_images) == test_images


class TestLabels:
    def test_split_missing_a_class_keeps_model_numbering(
            self, workspace, tmp_path, monkeypatch):
        data = relabelled_copy(workspace, tmp_path,
                               lambda cls: cls if cls == "class_1" else None)
        scored = []
        evaluate = prototree.refine.evaluate

        def recording(model, dataset, strategy):
            scored.append(dataset)
            return evaluate(model, dataset, strategy)

        monkeypatch.setattr(prototree.refine, "evaluate", recording)
        assert main(["eval", "--ckpt", workspace["ckpt"], "--data",
                     data]) == 0
        assert scored[0].class_names == ["class_0", "class_1"]
        assert len(scored[0]) > 0 and (scored[0].labels == 1).all()

    @pytest.mark.parametrize("command", ["eval", "project", "ensemble-eval"])
    def test_unknown_class_is_two(self, workspace, tmp_path, capsys,
                                  command):
        data = relabelled_copy(workspace, tmp_path,
                               lambda cls: cls.replace("1", "9"))
        argv = [command, "--ckpt", workspace["ckpt"], "--data", data]
        if command == "project":
            argv += ["--out", str(tmp_path / "projected.npt")]
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "'class_9'" in err and err.startswith("error: ") \
            and err.count("\n") == 1


class TestLifecycle:
    def test_prune_project_visualize_explain(self, workspace, tmp_path,
                                             capsys):
        pruned = str(tmp_path / "pruned.npt")
        # max leaf probability is always >= 0.5 at K=2, so 0.4 never
        # empties the tree regardless of how little the smoke run learned
        assert main(["prune", "--ckpt", workspace["ckpt"], "--tau", "0.4",
                     "--out", pruned]) == 0
        projected = str(tmp_path / "projected.npt")
        assert main(["project", "--ckpt", pruned, "--data",
                     workspace["data"], "--out", projected]) == 0
        header = capsys.readouterr().out.splitlines()
        viz = str(tmp_path / "viz")
        assert main(["visualize", "--ckpt", projected, "--out-dir",
                     viz]) == 0
        assert os.path.exists(os.path.join(viz, "tree.dot"))
        image = os.path.join(workspace["data"], "test", "class_0",
                             "00000.ppm")
        out_dir = str(tmp_path / "local")
        assert main(["explain", "--ckpt", projected, "--image", image,
                     "--out-dir", out_dir]) == 0
        pages = [f for f in os.listdir(out_dir) if f.endswith(".html")]
        assert any(f.startswith("explain_") for f in pages)

    def test_project_unconstrained_flag(self, workspace, tmp_path):
        out = str(tmp_path / "unconstrained.npt")
        assert main(["project", "--ckpt", workspace["ckpt"], "--data",
                     workspace["data"], "--no-constrained", "--out",
                     out]) == 0

    def test_project_reports_collapsed_node(self, workspace, tmp_path,
                                            capsys):
        from prototree.model import ProtoTreeModel
        model = ProtoTreeModel.load(workspace["ckpt"])
        model.prototypes.tensor.values[1] = 3.0  # beyond every latent patch
        far = str(tmp_path / "far.npt")
        model.save(far)
        capsys.readouterr()
        code = main(["project", "--ckpt", far, "--data", workspace["data"],
                     "--out", str(tmp_path / "projected.npt")])
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert code == 0
        assert re.fullmatch(r"warning: nodes \[1\] have .*; collapsed .*\n",
                            captured.err)
        assert lines[0].startswith("node,image_id,")
        assert len(lines) == 1 + 2  # header, then the two live nodes

    def test_visualize_rejects_unprojected(self, workspace, tmp_path):
        code = main(["visualize", "--ckpt", workspace["ckpt"], "--out-dir",
                     str(tmp_path / "nope")])
        assert code == 1

    def test_prune_warning_is_one_line(self, workspace, tmp_path, capsys):
        shown = warnings.showwarning
        capsys.readouterr()
        assert main(["prune", "--ckpt", workspace["ckpt"], "--tau", "0.1",
                     "--out", str(tmp_path / "pruned.npt")]) == 0
        assert capsys.readouterr().err == ("warning: tau=0.1 is below "
                                           "uniform 1/K=0.5; nothing will "
                                           "be pruned\n")
        assert warnings.showwarning is shown

    def test_every_image_reference_names_a_png_file(self, workspace,
                                                    tmp_path):
        projected = str(tmp_path / "proj.npt")
        assert main(["project", "--ckpt", workspace["ckpt"], "--data",
                     workspace["data"], "--out", projected]) == 0
        out = tmp_path / "out"
        image = os.path.join(workspace["data"], "test", "class_1",
                             "00000.ppm")
        assert main(["visualize", "--ckpt", projected, "--out-dir",
                     str(out)]) == 0
        assert main(["explain", "--ckpt", projected, "--image", image,
                     "--out-dir", str(out)]) == 0
        pages = {name: re.findall(r"<img src='([^']*)'",
                                  (out / name).read_text())
                 for name in ("tree.html", "explain_00000.html")}
        pages["tree.dot"] = re.findall(r'image="([^"]*)"',
                                       (out / "tree.dot").read_text())
        num_internal = ProtoTreeModel.load(projected).topology.num_internal
        assert len(pages["tree.html"]) == len(pages["tree.dot"]) \
            == num_internal > 0
        assert pages["explain_00000.html"]
        for name, sources in pages.items():
            for src in sources:
                path = out / unquote(unescape(src))
                assert path.read_bytes()[:8] == b"\x89PNG\r\n\x1a\n", \
                    (name, src)

    @pytest.mark.parametrize("command", ["visualize", "explain"])
    def test_patch_commands_offer_no_png_option(self, workspace, tmp_path,
                                                capsys, command):
        capsys.readouterr()
        assert main([command, "--help"]) == 0
        assert "--png" not in capsys.readouterr().out
        extra = ["--image", "x.ppm"] if command == "explain" else []
        assert main([command, "--ckpt", workspace["ckpt"], *extra,
                     "--out-dir", str(tmp_path / "o"), "--png"]) == 2


class TestEnsembleEval:
    def test_two_member_ensemble(self, workspace, tmp_path, capsys):
        other = str(tmp_path / "other.npt")
        main(["train", "--config", workspace["config"], "--data",
              workspace["data"], "--out", other, "--quiet",
              "--set", "seed=13"])
        assert main(["ensemble-eval", "--ckpt", workspace["ckpt"],
                     "--ckpt", other, "--data", workspace["data"]]) == 0
        out = capsys.readouterr().out
        assert "ensemble_acc" in out and "member_1_acc" in out

    @pytest.mark.parametrize("names, code", [
        pytest.param(["class_1", "class_0"], 2, id="swapped_order"),
        pytest.param(["class_0", "class_9"], 2, id="renamed_class"),
        pytest.param([], 0, id="unnamed_member"),
    ])
    def test_member_class_names_must_agree(self, workspace, tmp_path, capsys,
                                           names, code):
        model = ProtoTreeModel.load(workspace["ckpt"])
        assert model.class_names == ["class_0", "class_1"]
        model.class_names = names
        other = str(tmp_path / "other.npt")
        model.save(other)
        capsys.readouterr()
        assert main(["ensemble-eval", "--ckpt", workspace["ckpt"],
                     "--ckpt", other, "--data", workspace["data"]]) == code
        err = capsys.readouterr().err
        if code:
            assert err.startswith("error: ") and err.count("\n") == 1

    def test_one_backbone_pass_per_member_and_image(self, workspace, capsys,
                                                   backbone_images):
        test_images = len(load_dataset(os.path.join(workspace["data"],
                                                    "test")))
        assert main(["ensemble-eval", "--ckpt", workspace["ckpt"], "--ckpt",
                     workspace["ckpt"], "--data", workspace["data"]]) == 0
        assert sum(backbone_images) == 2 * test_images
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[0] for line in lines] == \
            ["member_0_acc", "member_1_acc", "ensemble_acc"]
        assert len({line.split()[1] for line in lines}) == 1


class TestExitCodes:
    def test_unknown_flag_is_two(self, workspace):
        assert main(["eval", "--ckpt", workspace["ckpt"], "--data",
                     workspace["data"], "--bogus"]) == 2

    def test_unknown_command_is_two(self):
        assert main(["frobnicate"]) == 2

    def test_missing_file_is_three(self, workspace, tmp_path):
        assert main(["eval", "--ckpt", str(tmp_path / "missing.npt"),
                     "--data", workspace["data"]]) == 3

    @pytest.mark.parametrize("command", ["prune", "project"])
    def test_unwritable_out_names_the_path_given(self, workspace, tmp_path,
                                                 capsys, command):
        out = str(tmp_path / "missing" / "p.npt")
        extra = {"prune": ["--tau", "0.4"],
                 "project": ["--data", workspace["data"]]}[command]
        # 0.4 lies below uniform at K=2, and prune says so before it saves
        warned = {"prune": "warning: tau=0.4 is below uniform 1/K=0.5; "
                           "nothing will be pruned\n",
                  "project": ""}[command]
        capsys.readouterr()
        assert main([command, "--ckpt", workspace["ckpt"], *extra,
                     "--out", out]) == 3
        assert capsys.readouterr().err == \
            f"{warned}error: [Errno 2] No such file or directory: {out!r}\n"

    def test_nan_tau_names_tau(self, workspace, tmp_path, capsys):
        capsys.readouterr()
        assert main(["prune", "--ckpt", workspace["ckpt"], "--tau", "nan",
                     "--out", str(tmp_path / "p.npt")]) == 1
        assert capsys.readouterr().err == \
            "error: tau must be a number, got nan\n"

    def test_version_mismatch_is_four(self, workspace, tmp_path):
        bogus = tmp_path / "bogus.npt"
        bogus.write_bytes(b"NPTT\x63\x00\x00\x00")
        assert main(["eval", "--ckpt", str(bogus), "--data",
                     workspace["data"]]) == 4

    @pytest.mark.parametrize("cell, value", [
        pytest.param((0, 0), 7, id="child_out_of_range"),
        pytest.param((1, 0), 0, id="cycle"),
        pytest.param((2, 1), -3, id="bad_leaf_numbering"),
        pytest.param(None, None, id="missing_root"),
    ])
    def test_corrupt_tree_is_four(self, workspace, tmp_path, capsys,
                                  cell, value):
        blob = read_blob(workspace["ckpt"])
        assert blob["tree/children"].tolist() == [[1, 2], [-1, -2], [-3, -4]]
        if cell is None:
            del blob["tree/root"]
        else:
            blob["tree/children"][cell] = value
        corrupt = str(tmp_path / "corrupt.npt")
        write_blob(corrupt, blob)
        capsys.readouterr()
        assert main(["eval", "--ckpt", corrupt,
                     "--data", workspace["data"]]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "'tree/root'" in err

    def test_aborted_training_is_one(self, workspace, tmp_path, capsys):
        capsys.readouterr()
        # the first Adam step overflows the body, so batch 1's loss is nan
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["train", "--config", workspace["config"], "--data",
                         workspace["data"], "--out", str(tmp_path / "x.npt"),
                         "--quiet", "--set", "lr_body=1e300"]) == 1
        assert not caught
        err = capsys.readouterr().err
        assert err.startswith("error: non-finite loss") \
            and err.count("\n") == 1

    @pytest.mark.parametrize("workers", [1, 2])
    def test_overflow_in_split_conv_is_one(self, workspace, tmp_path, capsys,
                                           monkeypatch, workers):
        # huge but finite body weights overflow the conv GEMMs, which run
        # on worker threads at 2 workers: those keep the caller's errstate
        monkeypatch.setattr(ad, "_WORKERS", workers)
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["train", "--config", workspace["config"], "--data",
                         workspace["data"], "--out", str(tmp_path / "x.npt"),
                         "--quiet", "--set", "lr_body=1e20"]) == 1
        assert not caught
        err = capsys.readouterr().err
        assert err.startswith("error: non-finite loss") \
            and err.count("\n") == 1

    @pytest.mark.parametrize("text, lineno", [
        pytest.param("path,class\nclass_0/00000.ppm,class_0\nonlyonefield\n",
                     3, id="one_field_row"),
        pytest.param("\nclass_0/00000.ppm,class_0\n", 1, id="empty_header"),
        pytest.param("onlyonefield\n", 1, id="one_field_header"),
    ])
    def test_short_labels_line_is_one(self, workspace, tmp_path, capsys,
                                      text, lineno):
        data = tmp_path / "data"
        shutil.copytree(workspace["data"], data)
        index = data / "test" / "labels.csv"
        index.write_text(text)
        capsys.readouterr()
        assert main(["eval", "--ckpt", workspace["ckpt"],
                     "--data", str(data)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {index}:{lineno}: expected a path,class line\n"

    @pytest.mark.parametrize("case", ["flat_children", "short_arch",
                                      "non_utf8_name"])
    def test_malformed_record_is_four(self, workspace, tmp_path, capsys,
                                      case):
        blob = read_blob(workspace["ckpt"])
        if case == "flat_children":
            blob["tree/children"] = blob["tree/children"].ravel()
        elif case == "short_arch":
            assert len(blob["backbone/arch"]) == 10   # two stages
            blob["backbone/arch"] = blob["backbone/arch"][:5]
        else:
            blob["mangled-name"] = np.zeros(1)
        corrupt = tmp_path / "corrupt.npt"
        write_blob(str(corrupt), blob)
        if case == "non_utf8_name":
            raw = corrupt.read_bytes()
            assert raw.count(b"mangled-name") == 1
            corrupt.write_bytes(raw.replace(b"mangled-name", b"\xffangled-name"))
        capsys.readouterr()
        assert main(["eval", "--ckpt", str(corrupt),
                     "--data", workspace["data"]]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["prune", "eval"])
    def test_checkpoint_without_classes_is_four(self, workspace, tmp_path,
                                                capsys, command):
        blob = read_blob(workspace["ckpt"])
        blob["tree/leaf_logits"] = blob["tree/leaf_logits"][:, :0]
        blob["meta/class_names"] = blob["meta/class_names"][:0]
        corrupt = str(tmp_path / "corrupt.npt")
        write_blob(corrupt, blob)
        args = {"prune": ["--out", str(tmp_path / "p.npt")],
                "eval": ["--data", workspace["data"]]}[command]
        capsys.readouterr()
        assert main([command, "--ckpt", corrupt, *args]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "'tree/leaf_logits'" in err and "fewer than 2 classes" in err

    @pytest.mark.parametrize("name, mangle", [
        pytest.param("tree/prototypes", lambda a: a[:0, 0], id="empty_prototypes"),
        pytest.param("tree/prototypes", np.ravel, id="flat_prototypes"),
        pytest.param("backbone/stage1/bias", lambda a: a[:-1], id="short_bias"),
        pytest.param("tree/leaf_logits", np.ravel, id="flat_leaf_logits"),
        pytest.param("backbone/head/weight", np.ravel, id="flat_head"),
        pytest.param("backbone/arch",
                     lambda a: np.where(np.arange(len(a)) == 5, np.nan, a),
                     id="nan_in_stage"),
        pytest.param("backbone/arch", lambda a: a[:3], id="arch_of_three"),
        pytest.param("meta/class_names",
                     lambda a: np.append(a, np.uint8(0xff)),
                     id="non_utf8_class_names"),
        # fresh checkpoints carry no meta/leaf_norm; these inject one
        pytest.param("meta/leaf_norm",
                     lambda _: np.frombuffer(b"\xc3softmax", np.uint8),
                     id="non_utf8_leaf_norm"),
        pytest.param("meta/leaf_norm",
                     lambda _: np.frombuffer(b"l1", np.uint8),
                     id="l1_leaf_norm"),
    ])
    def test_record_shape_is_checked_at_load(self, workspace, tmp_path,
                                             capsys, name, mangle):
        blob = read_blob(workspace["ckpt"])
        blob[name] = mangle(blob.get(name))
        corrupt = str(tmp_path / "corrupt.npt")
        write_blob(corrupt, blob)
        capsys.readouterr()
        assert main(["eval", "--ckpt", corrupt,
                     "--data", workspace["data"]]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert name in err


SELFTEST_STDOUT = """\
PASS conv2d vs nested-loop oracle
PASS softmax vs extended-precision oracle
PASS analytic gradients vs finite differences
PASS leaf path probabilities normalize
PASS interleaved leaf update vs two-pass
PASS checkpoint round trip bit-exact
PASS ppm codec round trip
"""


class TestSelftestCommand:
    def test_exit_zero_and_pass_lines(self, capsys):
        assert main(["selftest"]) == 0
        assert capsys.readouterr().out == SELFTEST_STDOUT
