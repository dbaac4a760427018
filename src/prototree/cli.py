"""Command line entry point covering the full model lifecycle.

Exit codes: 0 success, 2 usage or config errors, 3 missing files,
4 checkpoint format or version mismatches, 1 anything else, aborted
training included. Errors are
emitted as a single machine-parsable line on stderr, and each warning as
one ``warning: <message>`` line.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
import warnings

import numpy as np

from . import explain as xp
from . import refine
from . import selftest
from . import train as trn
from .backbone import BackboneConfig
from .checkpoint import CheckpointError
from .data import AugmentConfig, Dataset, UnknownClassError, gen_synthetic, \
    load_dataset, load_ppm, write_dataset
from .model import ProtoTreeModel, build_model

EXIT_USAGE = 2
EXIT_MISSING = 3
EXIT_VERSION = 4


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # single-line usage errors, exit code 2
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


# the training images fix in_channels and input_side
_BACKBONE = {key: value for key, value in vars(BackboneConfig()).items()
             if key not in ("in_channels", "input_side")}
_TRAIN = vars(trn.TrainConfig())
_AUGMENT = _TRAIN.pop("augment")
_DEFAULTS: dict[str, str] = {key: str(value) for key, value in {
    **_BACKBONE, **_TRAIN, "height": 4,
    "stages": ",".join(f"{o}:{k}:{s}" for o, k, s in _BACKBONE["stages"]),
    "milestones": ",".join(map(str, _TRAIN["milestones"])),
    "augment_enabled": _AUGMENT.enabled, "flip_p": _AUGMENT.horizontal_flip_p,
    "brightness_lo": _AUGMENT.brightness_jitter[0],
    "brightness_hi": _AUGMENT.brightness_jitter[1]}.items()}


def read_config(path: str | None, overrides: list[str]) -> dict[str, str]:
    values = dict(_DEFAULTS)
    if path:
        if not os.path.exists(path):
            raise FileNotFoundError(f"config file not found: {path}")
        with open(path) as fh:
            for lineno, line in enumerate(fh, 1):
                text = line.split("#", 1)[0].strip()
                if not text:
                    continue
                if "=" not in text:
                    raise ConfigError(f"{path}:{lineno}: expected key = value")
                key, value = (part.strip() for part in text.split("=", 1))
                if key not in values:
                    raise ConfigError(
                        f"{path}:{lineno}: unknown config key {key!r}")
                values[key] = value
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"--set needs key=value, got {item!r}")
        key, value = (part.strip() for part in item.split("=", 1))
        if key not in values:
            raise ConfigError(f"unknown config key {key!r}")
        values[key] = value
    return values


class ConfigError(ValueError):
    pass


def _number(kind, key: str, text: str):
    """text as an int or a float; a ConfigError naming key otherwise."""
    try:
        return kind(text)
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise ConfigError(f"config key {key!r} needs {noun}, got {text!r}"
                          ) from None


def _parse_stages(text: str) -> tuple[tuple[int, int, int], ...]:
    stages = []
    for part in text.split(","):
        fields = part.strip().split(":")
        if len(fields) != 3:
            raise ConfigError(f"stage {part!r} must be out:kernel:stride")
        stages.append(tuple(_number(int, "stages", f) for f in fields))
    return tuple(stages)


def _bool(key: str, text: str) -> bool:
    if text.lower() in ("1", "true", "yes", "on"):
        return True
    if text.lower() in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"config key {key!r} needs a boolean, got {text!r}")


def build_configs(values: dict[str, str]) -> tuple[BackboneConfig, int,
                                                   trn.TrainConfig]:
    def num(kind, key):
        return _number(kind, key, values[key])

    backbone = BackboneConfig(stages=_parse_stages(values["stages"]),
                              latent_depth=num(int, "latent_depth"))
    milestones = tuple(_number(int, "milestones", m)
                       for m in values["milestones"].split(",") if m.strip())
    augment = AugmentConfig(
        horizontal_flip_p=num(float, "flip_p"),
        brightness_jitter=(num(float, "brightness_lo"),
                           num(float, "brightness_hi")),
        enabled=_bool("augment_enabled", values["augment_enabled"]))
    config = trn.TrainConfig(
        epochs=num(int, "epochs"), batch_size=num(int, "batch_size"),
        lr_body=num(float, "lr_body"), lr_head=num(float, "lr_head"),
        lr_prototypes=num(float, "lr_prototypes"), milestones=milestones,
        gamma=num(float, "gamma"), seed=num(int, "seed"),
        frozen_epochs=num(int, "frozen_epochs"), augment=augment)
    return backbone, num(int, "height"), config


def _require(path: str, kind: str) -> str:
    if not os.path.exists(path):
        raise FileNotFoundError(f"{kind} not found: {path}")
    return path


def _load_split(root: str, split: str, class_names=None) -> Dataset:
    _require(root, "data directory")
    sub = os.path.join(root, split)
    return load_dataset(sub if os.path.isdir(sub) else root, split, class_names)


def cmd_train(args) -> int:
    values = read_config(args.config, args.set or [])
    backbone_cfg, height, config = build_configs(values)
    # before loading data, and before the seed reaches the generators
    backbone_cfg.validate()
    config.validate()
    if height < 1:
        raise ValueError(f"height must be >= 1, got {height}")
    # as fit does for the metrics CSV, so the run is not lost at save
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    train_set = _load_split(args.data, "train")
    test_set = _load_split(args.data, "test", train_set.class_names)
    channels, side, width = train_set.images.shape[1:]
    if side != width:
        raise ValueError(f"training images must be square, got "
                         f"{channels}x{side}x{width}")
    backbone_cfg = dataclasses.replace(backbone_cfg, in_channels=channels,
                                       input_side=side)
    model = build_model(backbone_cfg, height, train_set.num_classes,
                        config.seed, class_names=train_set.class_names)
    csv_path = args.metrics or args.out + ".metrics.csv"
    # a diverging run ends in fit's TrainingError; numpy's overflow
    # warnings on the way would only add lines to that one-line error
    with np.errstate(over="ignore", invalid="ignore"):
        history = trn.fit(model, train_set, test_set, config,
                          csv_path=csv_path, verbose=not args.quiet)
    model.save(args.out)
    print(f"checkpoint {args.out}")
    print(f"metrics {csv_path}")
    train_acc = refine.evaluate(model, train_set, "soft").accuracy
    print(f"train_acc {train_acc:.6f}")
    print(f"test_acc {history[-1]['test_acc']:.6f}")
    return 0


def cmd_eval(args) -> int:
    model = ProtoTreeModel.load(_require(args.ckpt, "checkpoint"))
    dataset = _load_split(args.data, "test", model.class_names)
    result = refine.evaluate(model, dataset, args.strategy)
    print(f"strategy {args.strategy}")
    print(f"accuracy {result.accuracy:.6f}")
    print(f"fidelity {result.fidelity:.6f}")
    if args.strategy == "greedy" and model.topology.num_internal:
        print(f"path_length_mean {result.depths.mean():.4f}")
        print(f"path_length_minmax {result.depths.min()} "
              f"{result.depths.max()}")
    return 0


def cmd_prune(args) -> int:
    model = ProtoTreeModel.load(_require(args.ckpt, "checkpoint"))
    tau = args.tau if args.tau is not None \
        else refine.default_tau(model.num_classes)
    report = refine.prune(model, tau)
    model.save(args.out)
    print("tau,leaves_removed,internal_removed,fraction_pruned")
    print(f"{report.tau},{report.leaves_removed},{report.internal_removed},"
          f"{report.fraction_pruned:.6f}")
    return 0


def cmd_project(args) -> int:
    model = ProtoTreeModel.load(_require(args.ckpt, "checkpoint"))
    dataset = _load_split(args.data, "train", model.class_names)
    records = refine.project(model, dataset, constrained=args.constrained)
    model.save(args.out)
    print("node,image_id,row,col,distance,constrained,fallback")
    for r in records:
        print(f"{r.node_index},{r.image_id},{r.location[0]},{r.location[1]},"
              f"{r.distance:.8f},{int(r.constrained)},{int(r.fallback)}")
    return 0


def cmd_visualize(args) -> int:
    model = ProtoTreeModel.load(_require(args.ckpt, "checkpoint"))
    graph = xp.export_tree(model, args.out_dir)
    print(f"wrote {len(graph.files)} files under {args.out_dir}")
    return 0


def cmd_explain(args) -> int:
    model = ProtoTreeModel.load(_require(args.ckpt, "checkpoint"))
    image = load_ppm(_require(args.image, "image"))
    name = os.path.splitext(os.path.basename(args.image))[0]
    graph = xp.export_tree(model, args.out_dir, sample=image,
                           sample_name=name)
    print(f"wrote {len(graph.files)} files under {args.out_dir}")
    print(f"path_length {len(graph.sample_path)}")
    return 0


def cmd_ensemble_eval(args) -> int:
    models = [ProtoTreeModel.load(_require(p, "checkpoint"))
              for p in args.ckpt]
    named = [(i, m.class_names) for i, m in enumerate(models) if m.class_names]
    for i, names in named[1:]:
        if names != named[0][1]:
            raise ConfigError(
                f"ensemble members {named[0][0]} and {i} name their classes "
                f"differently: {named[0][1]} and {names}")
    dataset = _load_split(args.data, "test", models[0].class_names)
    members = [refine.evaluate(m, dataset, "soft") for m in models]
    mean = refine.ensemble_mean([member.soft for member in members])
    for i, member in enumerate(members):
        print(f"member_{i}_acc {member.accuracy:.6f}")
    print(f"ensemble_acc "
          f"{(mean.argmax(axis=1) == dataset.labels).mean():.6f}")
    return 0


def cmd_gen_data(args) -> int:
    train_set, test_set = gen_synthetic(args.k, args.n, args.side, args.seed)
    write_dataset(train_set, os.path.join(args.out, "train"))
    write_dataset(test_set, os.path.join(args.out, "test"))
    print(f"train {len(train_set)} images, test {len(test_set)} images "
          f"under {args.out}")
    return 0


def cmd_selftest(args) -> int:
    return 0 if selftest.run(verbose=True) else 1


def build_parser() -> _Parser:
    parser = _Parser(prog="prototree",
                     description="train, inspect and explain prototype trees")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p = sub.add_parser(
        "train", help="train a model on a dataset directory",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="config keys, for --config files and --set, with their "
               "defaults:\n" + "\n".join(f"  {key} = {value}".rstrip()
                                         for key, value in _DEFAULTS.items()))
    p.add_argument("--config", help="key = value config file")
    p.add_argument("--data", required=True, help="dataset root (train/, test/)")
    p.add_argument("--out", required=True, help="output checkpoint path")
    p.add_argument("--metrics", help="metrics CSV path (default <out>.metrics.csv)")
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="override one config key")
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="accuracy and fidelity on a dataset")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--strategy", choices=("soft", "max_path", "greedy"),
                   default="soft")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("prune", help="remove near-uniform leaves")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--tau", type=float, default=None,
                   help="threshold (default max(0.01, 1.2/K))")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_prune)

    p = sub.add_parser("project",
                       help="replace prototypes with nearest training patches")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--constrained", action=argparse.BooleanOptionalAction,
                   default=True,
                   help="restrict candidates to reachable majority classes")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_project)

    p = sub.add_parser("visualize", help="export the global tree")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_visualize)

    p = sub.add_parser("explain", help="export the greedy path for one image")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--image", required=True, help="PPM image to explain")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_explain)

    p = sub.add_parser("ensemble-eval", help="mean-prediction ensemble accuracy")
    p.add_argument("--ckpt", action="append", required=True,
                   help="repeat for each member checkpoint")
    p.add_argument("--data", required=True)
    p.set_defaults(func=cmd_ensemble_eval)

    p = sub.add_parser("gen-data", help="generate the synthetic parts dataset")
    p.add_argument("--k", type=int, required=True, help="number of classes")
    p.add_argument("--n", type=int, required=True, help="train images per class")
    p.add_argument("--side", type=int, default=64, choices=(32, 64))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("selftest", help="run built-in oracle checks")
    p.set_defaults(func=cmd_selftest)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        with warnings.catch_warnings():   # restores showwarning on exit
            warnings.showwarning = lambda message, *_: print(
                f"warning: {message}", file=sys.stderr)
            args = parser.parse_args(argv)
            return args.func(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    except FileNotFoundError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_MISSING
    except CheckpointError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_VERSION
    except (ConfigError, UnknownClassError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError, trn.TrainingError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
