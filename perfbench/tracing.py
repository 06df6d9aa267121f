"""Outside-in span tracer for one eegdiff CLI call.

`Tracer.install()` replaces public callables of the eegdiff modules with
timing wrappers, each patched in the module that looks the name up, so no
file under ``src/`` changes.  Every wrapped call records a span
``(name, start, end, parent)`` in memory; `Tracer.summary()` folds the spans
into per-layer totals, self times and call counts.

Per-op backward time is taken by wrapping the ``_backward`` closure of each
tensor a wrapped op returns.  Those spans nest under ``autodiff.backward``,
the span of `Tensor.backward`, so its self time is the graph walk alone.
"""

from __future__ import annotations

import importlib
import os
import time
from collections import defaultdict

# Op metrics are reported one by one; every other autodiff primitive is
# folded into ``autodiff.other``.  `layer_norm`, `batch_norm_train` and
# `sqrt` are thin aliases of `standardize` and `power`, so wrapping them
# too would count their work twice.
OPS = (
    "matmul", "add", "sub", "mul", "relu", "sigmoid", "softmax", "standardize",
    "cosine_similarity", "mean", "sum_", "reshape", "transpose", "concat",
    "pad_last2", "crop_last2",
)
OTHER_OPS = ("div", "power", "exp", "log", "abs_", "minimum")
OUT_MB_OPS = ("matmul", "reshape", "transpose", "concat", "pad_last2", "crop_last2")

# (span name, [(module, attribute), ...]): a function wrapped in every
# module that looks it up under that attribute.
FUNCTIONS = (
    ("losses.stage1_loss_terms", [("training", "stage1_loss_terms")]),
    ("losses.sdsc_loss", [("losses", "sdsc_loss"), ("training", "sdsc_loss")]),
    ("diffusion.stage2_train_step", [("training", "stage2_train_step")]),
    ("diffusion.sample", [("cli", "sample_latents")]),
    ("training.evaluate_stage1", [("training", "evaluate_stage1")]),
    ("training.encode_windows", [("training", "encode_windows"), ("cli", "encode_windows")]),
    ("training.stage2_training_set", [("training", "stage2_training_set"), ("cli", "stage2_training_set")]),
    ("training.generation_conditions", [("cli", "generation_conditions")]),
    ("evaluate.topk_retrieval", [("training", "topk_retrieval"), ("cli", "topk_retrieval")]),
    ("evaluate.fit_gaussian", [("cli", "fit_gaussian")]),
    ("evaluate.frechet_distance", [("cli", "frechet_distance")]),
    ("evaluate.class_agreement", [("cli", "class_agreement")]),
    ("signalio.generate_dataset", [("cli", "generate_dataset")]),
    ("signalio.write_container", [("signalio", "write_container"), ("cli", "write_container")]),
    ("signalio.read_container", [("signalio", "read_container"), ("cli", "read_container")]),
    ("cli.gen-data", [("cli", "cmd_gen_data")]),
    ("cli.train-stage1", [("cli", "cmd_train_stage1")]),
    ("cli.train-stage2", [("cli", "cmd_train_stage2")]),
    ("cli.sample", [("cli", "cmd_sample")]),
    ("cli.eval-retrieval", [("cli", "cmd_eval_retrieval")]),
    ("cli.eval-gen", [("cli", "cmd_eval_gen")]),
)

# (span name, module, class, method): methods are patched on the class, so
# every instance is traced wherever the class was imported.
METHODS = (
    ("nn.Linear", "nn", "Linear", "__call__"),
    ("nn.LayerNorm", "nn", "LayerNorm", "__call__"),
    ("nn.BatchNorm", "nn", "BatchNorm", "__call__"),
    ("encoder.TemporalBlock", "encoder", "TemporalBlock", "__call__"),
    ("encoder.SpatialBlock", "encoder", "SpatialBlock", "__call__"),
    ("encoder.encode_batch", "encoder", "SignalAutoencoder", "encode_batch"),
    ("encoder.decode_batch", "encoder", "SignalAutoencoder", "decode_batch"),
    ("diffusion.Conv3x3", "diffusion", "Conv3x3", "__call__"),
    ("diffusion.CrossAttention", "diffusion", "CrossAttention", "__call__"),
    ("diffusion.ConditionAdapter", "diffusion", "ConditionAdapter", "__call__"),
    ("diffusion.Denoiser", "diffusion", "Denoiser", "__call__"),
    ("training.Adam.step", "training", "Adam", "step"),
    ("autodiff.backward", "autodiff", "Tensor", "backward"),
)

# Files whose size is the ``.mb`` metric of the container span (argument 0).
FILE_SPANS = ("signalio.write_container", "signalio.read_container")


class Tracer:
    """In-memory span recorder.  Spans are parallel lists indexed by id."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.stack: list[int] = [-1]
        self.out_bytes: dict[str, int] = defaultdict(int)
        self.file_bytes: dict[str, int] = defaultdict(int)
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def wrap(self, name: str, fn, after=None):
        """Return ``fn`` recording a span per call; ``after(result)`` runs
        once the span is closed."""
        names, starts, ends, parents, stack = self.names, self.starts, self.ends, self.parents, self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if after is not None:
                after(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _op_wrapper(self, op: str, fn):
        fwd, bwd = f"autodiff.{op}", f"autodiff.{op}.bwd"
        out_bytes, wrap = self.out_bytes, self.wrap

        def after(out):
            out_bytes[op] += out.data.nbytes
            backward = out._backward
            if backward is not None:
                out._backward = wrap(bwd, backward)

        return wrap(fwd, fn, after)

    def _file_wrapper(self, name: str, fn):
        """Span over a container read or write; the ``.mb`` metric is the
        size of the file read or written."""
        file_bytes = self.file_bytes
        reading = name == "signalio.read_container"

        def sized(path, *args, **kwargs):
            if reading:
                file_bytes[name] += os.path.getsize(path)
            result = fn(path, *args, **kwargs)
            if not reading:
                file_bytes[name] += os.path.getsize(path)
            return result

        return self.wrap(name, sized)

    # -- installation ----------------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        mods = {
            m: importlib.import_module(f"eegdiff.{m}")
            for m in ("autodiff", "nn", "encoder", "losses", "diffusion", "training", "evaluate", "signalio", "cli")
        }
        for op in OPS + OTHER_OPS:
            self._patch(mods["autodiff"], op, self._op_wrapper(op, getattr(mods["autodiff"], op)))
        for name, sites in FUNCTIONS:
            for module, attr in sites:
                original = getattr(mods[module], attr)
                wrapped = self._file_wrapper(name, original) if name in FILE_SPANS else self.wrap(name, original)
                self._patch(mods[module], attr, wrapped)
        for name, module, cls_name, method in METHODS:
            cls = getattr(mods[module], cls_name)
            self._patch(cls, method, self.wrap(name, getattr(cls, method)))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- summary ---------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per-span duration minus the part its child spans cover."""
        dur = [e - s for s, e in zip(self.starts, self.ends)]
        own = list(dur)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= dur[i]
        return own

    def summary(self) -> dict:
        """``{span name: {"s", "self_s", "calls"}}`` plus byte counters, the
        smallest self time of any span and the time and names of the root
        spans (those without a parent)."""
        own = self.self_times()
        roots = [i for i, parent in enumerate(self.parents) if parent < 0]
        spans: dict[str, dict] = {}
        for i, name in enumerate(self.names):
            row = spans.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0})
            row["s"] += self.ends[i] - self.starts[i]
            row["self_s"] += own[i]
            row["calls"] += 1
        return {
            "spans": spans,
            "out_bytes": dict(self.out_bytes),
            "file_bytes": dict(self.file_bytes),
            "min_self_s": min(own, default=0.0),
            "root_s": sum(self.ends[i] - self.starts[i] for i in roots),
            "root_names": sorted({self.names[i] for i in roots}),
        }

    def dump(self) -> dict:
        """All spans in column form, for writing out at the end of a run."""
        return {"name": self.names, "start": self.starts, "end": self.ends, "parent": self.parents}
