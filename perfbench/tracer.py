"""Spans around the public surface of each prototree module, added at runtime.

`Tracer.install` replaces every public function of the traced modules, and
every public method of the classes they define, with a wrapper that records a
span while the tracer is active. A function that other prototree modules
imported by name (``from .data import load_ppm``) is replaced in each of those
namespaces too, so every call path is seen. `Tracer.uninstall` puts the
originals back and returns the attributes it could not restore.

Spans are aggregated as they close instead of being kept one by one: a deep
training step opens about 2,000 of them. Per name the tracer keeps the call
count, total and self time (duration minus direct children) and every
duration, for medians. A few counters are attached at the layer boundaries
where the work happens: taped ops, conv FLOPs, images through the backbone.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import statistics
import inspect
import os
import time
from array import array
from collections import Counter, defaultdict

MODULES = ("autodiff", "backbone", "tree", "train", "refine", "explain",
           "data", "checkpoint", "model", "cli")

_FORWARD = "backbone.Backbone.forward"
_CONV = "autodiff.conv2d"
_RECORD_OP = "autodiff.record_op"
_EPOCH = "train.train_epoch"
# leaf-reference helpers run once per node inside every tree walk; a span
# would cost more than the call and inflate the walkers' times
UNTRACED = {"tree.leaf_ref", "tree.is_leaf_ref", "tree.leaf_index"}


class _Frame:
    __slots__ = ("name", "layer", "start", "children", "nested", "extra",
                 "convs", "stages")

    def __init__(self, name: str, start: float):
        self.name = name
        self.layer = name.split(".", 1)[0]
        self.start = start
        self.children = 0.0     # summed duration of direct child spans
        self.nested = 0.0       # self time of same-layer descendants
        self.extra: list[str] = []   # further stat keys for this duration
        self.convs = 0          # conv2d calls seen inside a backbone forward
        self.stages = 0


class Tracer:
    """Span and counter store for one benchmark run."""

    def __init__(self):
        self.active = False
        self.calls: Counter = Counter()
        self.total: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        self.durations: defaultdict = defaultdict(lambda: array("d"))
        self.child_total: defaultdict = defaultdict(float)   # (parent, child)
        self.train_total: defaultdict = defaultdict(float)   # inside epochs
        self.layer_self: defaultdict = defaultdict(float)    # per layer
        self.key_layer_self: defaultdict = defaultdict(float)
        self.top_total = 0.0    # traced wall time: spans with no parent
        self.counts: Counter = Counter()
        self._stack: list[_Frame] = []
        self._epochs_open = 0
        self._patches: list[tuple[object, str, object]] = []
        self._last_leaf_update: tuple[_Frame | None, float] | None = None

    # -- spans ---------------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, recorded while active."""
        frame = self._open(name) if self.active else None
        try:
            yield
        finally:
            if frame is not None:
                self._close(frame)

    @contextlib.contextmanager
    def paused(self, name: str = "bench.checks"):
        """A benchmark span inside which program calls are not recorded."""
        with self.span(name):
            was, self.active = self.active, False
            try:
                yield
            finally:
                self.active = was

    def _open(self, name: str) -> _Frame:
        frame = _Frame(name, time.perf_counter())
        self._stack.append(frame)
        if name == _EPOCH:
            self._epochs_open += 1
        return frame

    def _close(self, frame: _Frame) -> float:
        duration = time.perf_counter() - frame.start
        # a frame left open by an exception further down is closed with it
        while self._stack and self._stack.pop() is not frame:
            pass
        if frame.name == _EPOCH:
            self._epochs_open -= 1
        own = duration - frame.children
        layer_self = own + frame.nested
        self.calls[frame.name] += 1
        self.total[frame.name] += duration
        self.self_time[frame.name] += own
        self.durations[frame.name].append(duration)
        for key in frame.extra:
            self.calls[key] += 1
            self.total[key] += duration
            self.durations[key].append(duration)
        if self._epochs_open:
            self.train_total[frame.name] += duration
            for key in frame.extra:
                self.train_total[key] += duration
        parent = self._stack[-1] if self._stack else None
        if parent is None:
            self.top_total += duration
        else:
            parent.children += duration
            self.child_total[(parent.name, frame.name)] += duration
        if parent is not None and parent.layer == frame.layer:
            parent.nested += layer_self
        else:
            self.layer_self[frame.layer] += layer_self
            for key in frame.extra:
                self.key_layer_self[key] += layer_self
        return duration

    def _inside(self, name: str) -> bool:
        return any(f.name == name for f in self._stack)

    # -- hooks for the layer boundaries that carry counters ------------------

    def _before(self, frame: _Frame, args, kwargs) -> None:
        name = frame.name
        if name == _FORWARD:
            frame.stages = len(args[0].config.stages)
            batch = args[1].shape[0]
            frame.extra.append(f"backbone.forward.b{batch}")
            if self._inside("cli.cmd_eval"):
                self.counts["backbone.images.eval"] += batch
        elif name == _CONV and len(self._stack) > 1 \
                and self._stack[-2].name == _FORWARD:
            parent = self._stack[-2]
            index = parent.convs
            parent.convs += 1
            stage = "head" if index >= parent.stages else f"s{index}"
            frame.extra.append(f"autodiff.conv2d.{stage}.fwd")
        elif name == "cli.main":
            argv = args[0] if args else kwargs.get("argv")
            if argv:
                frame.extra.append(f"cli.main.{argv[0]}")
        elif name == "train.leaf_update_batch":
            # intervals that span an epoch end would include test scoring
            epoch = next((f for f in reversed(self._stack)
                          if f.name == _EPOCH), None)
            last = self._last_leaf_update
            if last is not None and epoch is not None and last[0] is epoch:
                self.durations["train.step"].append(frame.start - last[1])
            self._last_leaf_update = (epoch, frame.start)

    def _after(self, frame: _Frame, args, result) -> None:
        name = frame.name
        if name == _CONV and getattr(result, "_tape", None) is not None:
            x, kernel = args[0], args[1]
            n, f, oh, ow = result.shape
            _, c, kh, kw = kernel.shape
            flop = 2 * n * f * oh * ow * c * kh * kw
            # forward, kernel gradient and, unless x is the input, x gradient
            passes = 3 if x.requires_grad else 2
            self.counts["conv.flop.taped"] += passes * flop
        elif name == "autodiff.Tape.backward":
            self.counts["tape.backward"] += 1
        elif name == "data.load_ppm":
            self.counts["load_ppm"] += 1
        elif name == "checkpoint.write_blob":
            path = args[0] if args else None
            if path and os.path.exists(path):
                self.durations["checkpoint.bytes"].append(os.path.getsize(path))

    def _record_op(self, fn):
        """Counts taped ops and times their backward under the op's name."""
        tracer = self

        @functools.wraps(fn)
        def record_op(values, inputs, backward_fn):
            if not tracer.active:
                return fn(values, inputs, backward_fn)
            owner = tracer._stack[-1] if tracer._stack else None
            if owner is None:
                key = "autodiff.op"
            else:
                key = owner.extra[0][:-4] if owner.extra and \
                    owner.extra[0].endswith(".fwd") else owner.name

            def timed_backward(g):
                if not tracer.active:
                    return backward_fn(g)
                frame = tracer._open(f"{key}.bwd")
                try:
                    return backward_fn(g)
                finally:
                    tracer._close(frame)

            out = fn(values, inputs, timed_backward)
            if out._tape is not None:
                tracer.counts["tape.ops"] += 1
                if tracer._inside("tree.route"):
                    tracer.counts["tape.ops.route"] += 1
            return out

        return record_op

    # -- installing and removing the wrappers --------------------------------

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            frame = tracer._open(name)
            tracer._before(frame, args, kwargs)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(frame)
            tracer._after(frame, args, result)
            return result

        return wrapper

    def _targets(self):
        """(owner, attribute, original, replacement) for every traced name."""
        package = importlib.import_module("prototree")
        modules = {m: importlib.import_module(f"prototree.{m}") for m in MODULES}
        namespaces = [package, *modules.values(),
                      importlib.import_module("prototree.selftest")]
        for short, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) \
                        != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    name = f"{short}.{attr}"
                    if name in UNTRACED:
                        continue
                    new = self._record_op(obj) if name == _RECORD_OP \
                        else self._wrap(name, obj)
                    for space in namespaces:
                        for key, value in list(vars(space).items()):
                            if value is obj:
                                yield space, key, obj, new
                elif inspect.isclass(obj):
                    for meth, member in list(vars(obj).items()):
                        if meth.startswith("_"):
                            continue
                        name = f"{short}.{attr}.{meth}"
                        if isinstance(member, (classmethod, staticmethod)):
                            new = type(member)(self._wrap(name, member.__func__))
                        elif inspect.isfunction(member):
                            new = self._wrap(name, member)
                        else:
                            continue
                        yield obj, meth, member, new

    def install(self) -> int:
        """Wrap every traced attribute; returns how many were replaced."""
        for owner, attr, original, new in list(self._targets()):
            setattr(owner, attr, new)
            self._patches.append((owner, attr, original))
        return len(self._patches)

    def uninstall(self) -> list[str]:
        """Restore the originals; returns attributes left wrapped."""
        self.active = False
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        left = [f"{getattr(owner, '__name__', owner)}.{attr}"
                for owner, attr, original in self._patches
                if inspect.getattr_static(owner, attr) is not original]
        self._patches.clear()
        return left


STAGES = ("s0", "s1", "s2", "head")
COMMANDS = ("prune", "project", "eval", "visualize", "explain")


def _mean(tracer: Tracer, name: str, scale: float = 1.0) -> float:
    calls = tracer.calls[name]
    return scale * tracer.total[name] / calls if calls else 0.0


def layer_metrics(tracer: Tracer, notes: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of a traced run, as {name: (value, unit)}.

    Training-step figures are milliseconds per step inside ``train_epoch``;
    other times are means per call over the traced part of the run.
    """
    t = tracer
    steps = t.counts["tape.backward"]

    def per_step(name: str) -> float:
        return 1e3 * t.train_total[name] / steps if steps else 0.0

    out: dict[str, tuple[float, str]] = {}
    for stage in STAGES:
        out[f"autodiff.conv2d.{stage}.fwd_ms"] = (
            per_step(f"autodiff.conv2d.{stage}.fwd"), "ms")
        out[f"autodiff.conv2d.{stage}.bwd_ms"] = (
            per_step(f"autodiff.conv2d.{stage}.bwd"), "ms")
    out["autodiff.conv2d.gflop_per_step"] = (
        t.counts["conv.flop.taped"] / steps / 1e9 if steps else 0.0, "GFLOP")
    out["autodiff.backward_ms"] = (per_step("autodiff.Tape.backward"), "ms")
    out["autodiff.tape.ops_per_step"] = (
        t.counts["tape.ops"] / steps if steps else 0.0, "count")
    out["tree.route.taped_ops"] = (
        t.counts["tape.ops.route"] / steps if steps else 0.0, "count")
    out["tree.min_patch_distances.fwd_ms"] = (
        per_step("tree.min_patch_distances"), "ms")
    out["tree.min_patch_distances.bwd_ms"] = (
        per_step("tree.min_patch_distances.bwd"), "ms")
    out["tree.route.self_ms"] = (
        per_step("tree.route") - per_step("tree.min_patch_distances"), "ms")
    out["tree.mix_leaf_distributions_ms"] = (
        per_step("tree.mix_leaf_distributions"), "ms")
    for batch in (16, 256, 1):
        out[f"backbone.forward_ms.b{batch}"] = (
            _mean(t, f"backbone.forward.b{batch}", 1e3), "ms")
    evals = t.calls["cli.cmd_eval"]
    out["backbone.images_per_eval_image"] = (
        3 * t.counts["backbone.images.eval"] / (evals * notes["n_test_cli"])
        if evals else 0.0, "ratio")
    step = t.durations["train.step"]
    out["train.step_ms.p50"] = (
        1e3 * statistics.median(step) if step else 0.0, "ms")
    out["train.step_ms.p90"] = (
        1e3 * statistics.quantiles(step, n=10)[8] if len(step) > 1 else 0.0,
        "ms")
    out["train.cross_entropy_ms"] = (per_step("train.cross_entropy"), "ms")
    out["train.adam_step_ms"] = (per_step("train.Adam.step"), "ms")
    out["train.leaf_update_batch_ms"] = (
        per_step("train.leaf_update_batch"), "ms")
    fit_total = t.total["train.fit"]
    out["train.test_eval_share"] = (
        t.child_total[("train.fit", "model.ProtoTreeModel.accuracy")]
        / fit_total if fit_total else 0.0, "share")
    for name in ("prune", "project", "hard_accuracy", "fidelity",
                 "path_length_stats"):
        out[f"refine.{name}_s"] = (_mean(t, f"refine.{name}"), "s")
    projects = t.calls["refine.project"]
    out["refine.project.latents_s"] = (
        t.child_total[("refine.project",
                       "model.ProtoTreeModel.latents_per_image")] / projects
        if projects else 0.0, "s")
    out["explain_ms.p50"] = (notes["explain_ms"]["p50"], "ms")
    out["explain_ms.p95"] = (notes["explain_ms"]["p95"], "ms")
    out["explain.export_tree_ms"] = (_mean(t, "explain.export_tree", 1e3), "ms")
    out["explain.similarity_map_ms"] = (
        _mean(t, "explain.similarity_map", 1e3), "ms")
    out["checkpoint.read_blob_ms"] = (_mean(t, "checkpoint.read_blob", 1e3), "ms")
    out["checkpoint.write_blob_ms"] = (
        _mean(t, "checkpoint.write_blob", 1e3), "ms")
    written = t.durations["checkpoint.bytes"]
    out["checkpoint.bytes_written"] = (
        sum(written) / len(written) if written else 0.0, "B")
    out["data.load_dataset_s"] = (_mean(t, "data.load_dataset"), "s")
    rounds = t.calls["bench.cli_round"]
    out["data.load_ppm.calls"] = (
        t.counts["load_ppm"] / rounds if rounds else 0.0, "count")
    for command in COMMANDS:
        key = f"cli.main.{command}"
        calls = t.calls[key]
        out[f"cli.main.self_ms.{command}"] = (
            1e3 * t.key_layer_self[key] / calls if calls else 0.0, "ms")
    out["data.gen_synthetic_s"] = (_mean(t, "data.gen_synthetic"), "s")
    traced_wall = t.top_total
    for layer in MODULES:
        out[f"self_share.{layer}"] = (
            t.layer_self[layer] / traced_wall if traced_wall else 0.0, "share")
    out["trace.unaccounted_share"] = (
        t.layer_self["bench"] / traced_wall if traced_wall else 0.0, "share")
    traced, untraced = notes["unit_s_traced"], notes["unit_s_untraced"]
    out["trace.overhead_s"] = (
        statistics.median(traced) - statistics.median(untraced)
        if traced and untraced else 0.0, "s")
    return out
