"""Prototype-routed soft decision trees for interpretable image recognition."""

from .autodiff import Tape, Tensor
from .backbone import Backbone, BackboneConfig
from .data import AugmentConfig, Dataset, gen_synthetic, load_ppm, save_ppm
from .model import ProtoTreeModel, build_model
from .refine import Evaluation, PruneReport, ProjectionRecord, \
    ensemble_mean, evaluate, project, prune
from .train import TrainConfig, fit
from .tree import LeafParams, PrototypeBank, RoutingTrace, TreeTopology, \
    init_tree, route

__all__ = [
    "AugmentConfig", "Backbone", "BackboneConfig", "Dataset", "Evaluation",
    "LeafParams", "ProjectionRecord", "ProtoTreeModel", "PruneReport",
    "PrototypeBank", "RoutingTrace", "Tape", "Tensor", "TrainConfig",
    "TreeTopology", "build_model", "ensemble_mean", "evaluate", "fit",
    "gen_synthetic", "init_tree", "load_ppm", "project", "prune", "route",
    "save_ppm",
]
