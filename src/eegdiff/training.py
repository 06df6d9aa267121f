"""Run configuration, optimizer, the trainer of both stages, and the gradient audit.

Both stages run through one trainer, which owns the Adam over the trained
parameters, the seeded epochs, the metrics CSV and the checkpoint; a stage
brings its model, its parameters and its step, which updates through the one
``Adam.minimize``.  Both are fully seeded:
parameter init, epoch shuffles, timestep and noise draws, and condition
dropout each consume dedicated ``SeedSequence([seed, tag, ...])`` streams,
so reruns are byte-identical.  :func:`load_data` is the one reader of the
dataset that ``signalio.generate_dataset`` writes, and checks every record
against the run config.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import autodiff as ad, signalio
from .autodiff import NonFiniteError, Tensor
from .diffusion import (
    ADAPTER_TOKENS,
    DenoiserConfig,
    Stage2Model,
    apply_train_mask,
    build_schedule,
    class_target_latents,
    selective_finetune_mask,
    stage2_step_loss,
    stage2_train_step,
)
from .encoder import EncoderConfig, SignalAutoencoder, SpatialBlock, TemporalBlock, mean_pool_latent
from .evaluate import topk_retrieval
from .losses import (
    LossWeights,
    contrastive_loss,
    recon_loss,
    sdsc_loss,
    stage1_loss_terms,
    text_align_loss,
    v_loss,
)
from .nn import BATCH_NORM_EPS, LAYER_NORM_EPS, ConfigError
from .signalio import (
    ContainerError, DataError, format_float, integers_below, load_checkpoint, save_checkpoint, split_sizes, write_csv,
)


class Adam:
    """Adam with bias correction.

    A zero (or missing) gradient leaves a parameter unchanged only while its
    moments are zero; after one nonzero step, the decaying moments still move
    it.  A step whose second moment or update of a parameter is not finite
    raises ``NonFiniteError`` naming the parameter, before it changes that
    parameter or its moments.

    ``RunConfig.validate`` checks the run's ``lr_stage*`` and ``adam_*``
    values; the optimizer takes its hyperparameters as given.
    """

    def __init__(
        self,
        params: dict[str, Tensor],
        lr: float,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.params = dict(sorted(params.items()))
        self.m = {name: np.zeros_like(p.data) for name, p in self.params.items()}
        self.v = {name: np.zeros_like(p.data) for name, p in self.params.items()}
        self.t = 0

    def minimize(self, loss: Tensor) -> None:
        """One update on ``loss``: clear the trained parameters' gradients,
        backpropagate ``loss`` and ``step``."""
        for p in self.params.values():
            p.grad = None
        loss.backward()
        self.step()

    def step(self) -> None:
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        # g * g may overflow; the check names the parameter (v >= 0, so its max reaches any NaN/Inf)
        with np.errstate(over="ignore", invalid="ignore"):
            for name, p in self.params.items():
                g = p.grad if p.grad is not None else np.zeros_like(p.data)
                m = self.beta1 * self.m[name] + (1.0 - self.beta1) * g
                v = self.beta2 * self.v[name] + (1.0 - self.beta2) * (g * g)
                update = self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)
                if not (np.isfinite(v.max()) and np.isfinite(update.min()) and np.isfinite(update.max())):
                    raise NonFiniteError(f"Adam update of parameter {name!r} is not finite")
                self.m[name], self.v[name] = m, v
                p.data -= update


# The k of the top-5 retrieval metrics: the validation and test splits,
# which they score, must hold at least this many windows.
TOP_K = 5

# The most parameters a stage's model may hold: 10**8 float64 values are
# 800 MB, and training keeps four arrays of each parameter's size (the
# value, its gradient and Adam's two moments).
MAX_PARAMETERS = 10**8

# The config fields each stage's parameter count depends on.
SIZE_FIELDS = {
    1: ("channels", "samples", "latent_tokens", "latent_dim", "temporal_dim", "depth"),
    2: ("latent_tokens", "latent_dim", "grid", "widths", "attn_width", "time_dim"),
}

@dataclass
class RunConfig:
    """Everything a run needs; defaults reproduce the reference desk runs."""

    # data and encoder dims
    channels: int = 16
    samples: int = 64
    latent_tokens: int = 8
    latent_dim: int = 32
    temporal_dim: int = 128
    heads: int = 8
    depth: int = 2
    classes: int = 8
    per_class: int = 24
    subjects: int = 3
    val_frac: float = 1.0 / 6.0
    test_frac: float = 1.0 / 6.0
    fs: float = 1000.0
    low: float = 5.0
    high: float = 95.0
    noise_std: float = 0.25
    target_rms: float = 1.8
    # stage 1
    epochs_stage1: int = 200
    batch_size: int = 16
    lr_stage1: float = 1e-3
    loss_weights: LossWeights = field(default_factory=LossWeights)
    # stage 2
    # gentle beta ramp (terminal alpha ~0.83): with the usual 0.02 the sampler
    # traverses a wide noise range and high-scale guidance pushes samples far
    # off the data scale at this model size
    schedule_steps: int = 100
    beta_min: float = 1e-4
    beta_max: float = 0.004
    grid: tuple[int, int, int] = (4, 8, 8)
    widths: tuple[int, int] = (32, 64)
    attn_width: int = 32
    attn_heads: int = 4
    time_dim: int = 64
    epochs_stage2: int = 300
    lr_stage2: float = 1e-4
    drop_prob: float = 0.1
    gamma: float = 0.5
    x0_jitter: float = 0.05
    # sampling and shared
    guidance_scale: float = 7.5
    sample_steps: int = 50
    num_samples: int = 64
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    seed: int = 7
    out_dir: str = "out"
    data_dir: str | None = None

    def validate(self) -> "RunConfig":
        """Range-check every run value once and return ``self``.

        This is the one check of a config: each command runs it before it
        reads or writes a file, and the layer configs, ``Adam``, the loss
        functions and the dataset generator take the values it passed as
        given.
        """
        minimums = {
            "channels": 2, "samples": 2, "latent_tokens": 2, "latent_dim": 2, "temporal_dim": 2,
            "heads": 1, "depth": 1, "classes": 2, "subjects": 1, "seed": 0,
            # batch norm and the contrastive pairs need two windows a batch
            "batch_size": 2, "epochs_stage1": 1, "epochs_stage2": 1,
            "attn_width": 1, "attn_heads": 1, "time_dim": 2, "num_samples": 2,
        }
        for name, least in minimums.items():
            if getattr(self, name) < least:
                raise ConfigError(f"{name} must be >= {least}, got {getattr(self, name)}")
        if self.temporal_dim % self.heads:
            raise ConfigError(f"temporal_dim {self.temporal_dim} is not divisible by heads {self.heads}")
        if len(self.grid) != 3 or min(self.grid) < 1:
            raise ConfigError(f"grid must be (channels, H, W), got {self.grid}")
        if self.grid[1] % 2 or self.grid[2] % 2:
            raise ConfigError(f"grid spatial dims must be even, got {self.grid}")
        if len(self.widths) != 2 or min(self.widths) < 1:
            raise ConfigError(f"widths must be two positive ints, got {self.widths}")
        if self.time_dim % 2:
            raise ConfigError(f"time_dim must be even, got {self.time_dim}")
        if self.attn_width % self.attn_heads:
            raise ConfigError(f"attn_width {self.attn_width} not divisible by attn_heads {self.attn_heads}")
        for stage, count in parameter_counts(self).items():
            if count > MAX_PARAMETERS:
                raise ConfigError(
                    f"the stage-{stage} model would hold {count} parameters, more than {MAX_PARAMETERS}: "
                    f"reduce {', '.join(SIZE_FIELDS[stage])}"
                )
        weights = self.loss_weights
        for name in ("recon", "align", "contrast", "sdsc", "mse", "cos"):
            if getattr(weights, name) < 0:
                raise ConfigError(f"loss weight {name!r} must be non-negative")
        for name, value in (
            ("lr_stage1", self.lr_stage1), ("lr_stage2", self.lr_stage2), ("adam_eps", self.adam_eps),
            ("loss_weights.temperature", weights.temperature),
        ):
            if value <= 0:
                raise ConfigError(f"{name} must be positive, got {value}")
        for name in ("adam_beta1", "adam_beta2"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ConfigError(f"{name} must lie in [0, 1), got {getattr(self, name)}")
        if not (0.0 < self.low < self.high < self.fs / 2.0):
            raise ConfigError(
                f"band edges must satisfy 0 < low < high < fs/2, got ({self.low}, {self.high}) at fs={self.fs}"
            )
        if not (0.0 <= self.drop_prob <= 1.0):
            raise ConfigError("drop_prob must lie in [0, 1]")
        build_schedule(self.schedule_steps, self.beta_min, self.beta_max)
        if not (1 <= self.sample_steps <= self.schedule_steps):
            raise ConfigError(
                f"sample_steps must lie in [1, {self.schedule_steps}], got {self.sample_steps}"
            )
        if not math.isfinite(self.guidance_scale):
            raise ConfigError(f"guidance_scale must be finite, got {self.guidance_scale}")
        try:
            n_val, n_test = split_sizes(self.per_class, self.val_frac, self.test_frac)
        except DataError as exc:
            raise ConfigError(str(exc)) from exc
        _check_scored_splits("the", self.classes * n_val, self.classes * n_test)
        return self

    # -- derived views ------------------------------------------------------

    def encoder_config(self) -> EncoderConfig:
        return EncoderConfig(**self._layer_values(EncoderConfig))

    def denoiser_config(self) -> DenoiserConfig:
        return DenoiserConfig(cond_dim=self.latent_dim, **self._layer_values(DenoiserConfig))

    def _layer_values(self, layer) -> dict:
        """This config's values of the fields of ``layer`` it sets, a list as a tuple."""
        return {name: tuple(v) if isinstance(v := getattr(self, name), list) else v for name in _layer_fields(layer)}

    # -- paths ---------------------------------------------------------------

    @property
    def resolved_data_dir(self) -> Path:
        return Path(self.data_dir) if self.data_dir else Path(self.out_dir) / "data"

    @property
    def stage1_checkpoint(self) -> Path:
        return Path(self.out_dir) / "stage1" / "autoencoder.bin"

    @property
    def stage1_metrics(self) -> Path:
        return Path(self.out_dir) / "stage1" / "metrics.csv"

    @property
    def stage2_checkpoint(self) -> Path:
        return Path(self.out_dir) / "stage2" / "diffusion.bin"

    @property
    def stage2_metrics(self) -> Path:
        return Path(self.out_dir) / "stage2" / "metrics.csv"

    @property
    def eval_dir(self) -> Path:
        return Path(self.out_dir) / "eval"

    def samples_path(self, scale: float) -> Path:
        return Path(self.out_dir) / "samples" / f"scale_{format_float(scale)}.bin"

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict:
        out = asdict(self)
        out["grid"] = list(self.grid)
        out["widths"] = list(self.widths)
        return out

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        """A config from a JSON object; rejects unknown keys and mistyped
        values, and leaves the range checks to ``validate``."""
        raw = dict(raw)
        known = {f for f in cls.__dataclass_fields__}
        unknown = sorted(set(raw) - known)
        if unknown:
            raise ConfigError(f"unknown config keys: {unknown}")
        defaults = cls()
        for key, value in raw.items():
            default = getattr(defaults, key)
            expected = _type_mismatch(value, default)
            if expected:
                raise ConfigError(f"config {key} must be {expected}, got {value!r}")
            if isinstance(default, tuple):
                raw[key] = tuple(value)
        if "loss_weights" in raw:
            lw = dict(raw["loss_weights"])
            bad = sorted(set(lw) - set(LossWeights.__dataclass_fields__))
            if bad:
                raise ConfigError(f"unknown loss_weights keys: {bad}")
            raw["loss_weights"] = LossWeights(**lw)
        return cls(**raw)

    @classmethod
    def from_json(cls, path) -> "RunConfig":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError(f"config {path} must hold a JSON object")
        return cls.from_dict(raw)


def _layer_fields(layer) -> tuple[str, ...]:
    """The fields of the layer config class ``layer`` that a run config
    sets, in their order (``DenoiserConfig.cond_dim`` is ``latent_dim``)."""
    return tuple(f.name for f in fields(layer) if f.name in RunConfig.__dataclass_fields__)


# The config fields that shape each stage's model (or, for stage 2, its
# noise schedule): a checkpoint loads only under the values it was trained at.
MODEL_FIELDS = {
    1: _layer_fields(EncoderConfig),
    2: _layer_fields(DenoiserConfig) + ("schedule_steps", "beta_min", "beta_max"),
}


def _type_mismatch(value, default) -> str | None:
    """What a config value must be, going by its field's default; None if it fits."""
    if isinstance(default, LossWeights):
        fits = isinstance(value, dict) and not any(_type_mismatch(v, 0.0) for v in value.values())
        return None if fits else "an object of finite numbers"
    if isinstance(default, tuple):
        fits = isinstance(value, (list, tuple)) and len(value) == len(default)
        fits = fits and not any(_type_mismatch(v, 0) for v in value)
        return None if fits else f"a list of {len(default)} ints"
    if isinstance(default, float):
        # a number with a finite float value; unlike math.isfinite, the
        # comparison cannot overflow on a huge int
        fits = isinstance(value, (int, float)) and not isinstance(value, bool) and abs(value) <= sys.float_info.max
        return None if fits else "a finite number"
    if isinstance(default, int):
        return None if isinstance(value, int) and not isinstance(value, bool) else "an int"
    if isinstance(value, str) or (default is None and value is None):
        return None
    return "a string" if isinstance(default, str) else "a string or null"


def parameter_counts(cfg: RunConfig) -> dict[int, int]:
    """Each stage's number of parameters under ``cfg``, in closed form: the
    weights and biases that ``SignalAutoencoder`` (stage 1) and
    ``Stage2Model`` (stage 2) would allocate, so a size can be refused
    before any of them is."""
    c, s, t, lt, d = cfg.channels, cfg.samples, cfg.temporal_dim, cfg.latent_tokens, cfg.latent_dim
    temporal = (s * t + t) + 2 * t + (0 if s == t else s * t)  # proj, batch norm, shortcut
    spatial = 4 * (t * t + t) + 2 * t  # q, k, v, out, layer norm
    codec = 2 * c * lt + (t * d + d) + (d * t + t) + (t * s + s)
    cin, (w1, w2), td, aw = cfg.grid[0], cfg.widths, cfg.time_dim, cfg.attn_width
    adapter = (d * ADAPTER_TOKENS * d + ADAPTER_TOKENS * d) + 2 * d + (d * d + d) + (lt + ADAPTER_TOKENS) * d
    time = 2 * (td * td + td) + (td * w1 + w1) + (td * w2 + w2)
    convs = sum(9 * a * z + z for a, z in ((cin, w1), (w1, w1), (w1, w2), (w2, w2), (w2, w1), (w1, w1), (w1, cin)))
    attention = sum(2 * w + w * aw + 2 * d * aw + (aw * w + w) for w in (w1, w2))
    return {1: temporal + cfg.depth * spatial + codec, 2: adapter + time + convs + attention}


def _check_scored_splits(whose: str, val: int, test: int) -> None:
    """Raise ConfigError when the validation or test split, which the top-k
    retrieval metrics score, holds fewer than ``TOP_K`` windows."""
    for split, windows in (("validation", val), ("test", test)):
        if windows < TOP_K:
            raise ConfigError(
                f"{whose} {split} split holds {windows} windows; top-{TOP_K} retrieval needs at least {TOP_K}"
            )


def _map_no_grad(fn, rows: np.ndarray) -> np.ndarray:
    """``fn`` over chunks of 32 rows without building a graph, concatenated."""
    with ad.no_grad():
        return np.concatenate([fn(Tensor(rows[i : i + 32])).data for i in range(0, len(rows), 32)])


def encode_windows(model: SignalAutoencoder, windows: np.ndarray):
    """Eval-mode latents (N, T, D) and pooled vectors (N, D) for raw windows."""
    latents = _map_no_grad(model.encode_batch, windows)
    return latents, latents.mean(axis=1)


def _checkpoint_config(cfg: RunConfig) -> dict:
    """The config a checkpoint stores: without the run's directories, so
    identical runs in two directories write identical bytes."""
    return {k: v for k, v in cfg.to_dict().items() if k not in ("out_dir", "data_dir")}


@dataclass
class Dataset:
    """The dataset records that the commands read, under their record names."""

    windows: np.ndarray  # (N, channels, samples)
    labels: np.ndarray  # (N,) int
    train_idx: np.ndarray
    val_idx: np.ndarray
    test_idx: np.ndarray
    anchor_text: np.ndarray  # (classes, latent_tokens, latent_dim)
    window_image_emb: np.ndarray  # (N, latent_dim)


# The size of each axis of a dataset record: a RunConfig field, or None for
# the window count N.
DATASET_AXES = {
    "windows": (None, "channels", "samples"),
    "labels": (None,),
    "anchor_text": ("classes", "latent_tokens", "latent_dim"),
    "window_image_emb": (None, "latent_dim"),
}


def load_data(cfg: RunConfig) -> Dataset:
    """The run's dataset, every record checked against the config.

    Each record must have the shape that the config and the window count
    give it, the labels must be classes and the split indices windows, no
    window may appear twice in one split or in two splits, the training
    split must hold at least 2 windows (stage 1's batch norm, and the
    fewest rows ``eval-gen`` fits a covariance to), and the scored splits
    at least ``TOP_K``.  The generator also writes each window's
    subject and each class's image anchor, which no command reads.
    """
    container = cfg.resolved_data_dir / "dataset.bin"
    if not container.exists():
        raise DataError(f"no dataset at {container}; run `gen-data` first")
    names = tuple(f.name for f in fields(Dataset))
    arrays, _ = signalio.read_container(container, kind="dataset", records=names)
    n = len(arrays["windows"]) if arrays["windows"].ndim else 0  # a 0-d record fails its axis count below
    for name, axes in DATASET_AXES.items():
        shape = arrays[name].shape
        if len(shape) != len(axes):
            raise ContainerError(f"{container} record {name!r} has shape {shape}, not {len(axes)} axes")
        for axis, have in zip(axes, shape):
            if axis is None and have != n:
                raise ContainerError(f"{container} record {name!r} must hold one row per window ({n})")
            if axis is not None and have != getattr(cfg, axis):
                raise ConfigError(f"dataset {axis}={have} does not match config {axis}={getattr(cfg, axis)}")
    # Indices select windows and labels select anchor rows: each must be an
    # integer in range, or training fails far from the file that is wrong.
    for name, stop in {"labels": cfg.classes, "train_idx": n, "val_idx": n, "test_idx": n}.items():
        if not integers_below(arrays[name], stop):
            raise ContainerError(f"{container} record {name!r} must hold integers in [0, {stop})")
        arrays[name] = arrays[name].astype(np.int64)
    # Each window sits in at most one split, once: a scored window that was
    # also trained on would score training data.
    splits = ("train_idx", "val_idx", "test_idx")
    for i, name in enumerate(splits):
        if len(np.unique(arrays[name])) < len(arrays[name]):
            raise ContainerError(f"{container} record {name!r} names a window twice")
        for other in splits[:i]:
            if np.intersect1d(arrays[other], arrays[name]).size:
                raise ContainerError(f"{container} records {other!r} and {name!r} share a window")
    train = len(arrays["train_idx"])
    if train < 2:
        raise DataError(f"the dataset's training split holds {train} windows; training needs at least 2")
    _check_scored_splits("the dataset's", len(arrays["val_idx"]), len(arrays["test_idx"]))
    return Dataset(**{name: arrays[name] for name in names})


def _stage_settings(cfg: RunConfig, stage: int) -> tuple[Path, Path, int, float]:
    """The stage's checkpoint path, metrics path, epochs and learning rate."""
    if stage == 1:
        return cfg.stage1_checkpoint, cfg.stage1_metrics, cfg.epochs_stage1, cfg.lr_stage1
    return cfg.stage2_checkpoint, cfg.stage2_metrics, cfg.epochs_stage2, cfg.lr_stage2


def _train(cfg: RunConfig, stage: int, model, trainable, order: np.ndarray, minimum: int, step, validate=None, **meta):
    """Train ``trainable``, parameters of ``model``, as stage ``stage``; then
    write the stage's metrics CSV and checkpoint.

    One ``Adam`` at the stage's learning rate trains ``trainable``.  Epoch
    ``e`` shuffles the indices ``order`` with the stream
    ``[seed, 10 * stage + 2, e]`` and runs ``step(chunk, rng, optimizer)``,
    which draws from that stream too and returns its loss terms, on each
    batch of at least ``minimum`` indices.  A ``NonFiniteError`` in ``step``
    becomes a ``RuntimeError`` naming the stage, epoch and step, and nothing
    is written.  Each epoch's metrics are the mean of each term, then the
    ``val_*`` values of ``validate()``.  The checkpoint's meta holds the
    stage, epochs and config that :func:`_load_checkpoint_into` checks, plus
    ``meta``.
    """
    checkpoint, metrics, epochs, lr = _stage_settings(cfg, stage)
    optimizer = Adam(trainable, lr, cfg.adam_beta1, cfg.adam_beta2, cfg.adam_eps)
    rows = []
    for epoch in range(epochs):
        rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 10 * stage + 2, epoch]))
        perm = rng.permutation(order)
        sums: dict[str, float] = {}
        steps = 0
        for start in range(0, len(perm), cfg.batch_size):
            chunk = perm[start : start + cfg.batch_size]
            if len(chunk) < minimum:
                continue
            try:
                terms = step(chunk, rng, optimizer)
            except NonFiniteError as exc:
                raise RuntimeError(f"stage {stage} diverged at epoch {epoch}, step {steps}: {exc}") from exc
            for name, value in terms.items():
                sums[name] = sums.get(name, 0.0) + value
            steps += 1
        rows += [[epoch, name, total / steps] for name, total in sums.items()]
        if validate is not None:
            rows += [[epoch, f"val_{name}", value] for name, value in validate().items()]
    write_csv(metrics, ["epoch", "metric", "value"], rows)
    save_checkpoint(checkpoint, model.state(), {"stage": stage, "epochs": epochs, "config": _checkpoint_config(cfg), **meta})
    return {"checkpoint": checkpoint, "metrics": metrics, "model": model}


def stage1_step_loss(model: SignalAutoencoder, windows, text, images, weights: LossWeights):
    """The training-mode stage-1 objective of one batch: ``(total, terms)``
    of ``stage1_loss_terms`` for raw ``windows`` (B, C, S), their class text
    tokens (B, T, D) and image embeddings (B, D).  Trained by
    :func:`train_stage1` and checked by the gradient audit."""
    x = Tensor(windows)
    z = model.encode_batch(x, training=True)
    return stage1_loss_terms(x, model.decode_batch(z), z, Tensor(text), mean_pool_latent(z), Tensor(images), weights)


def train_stage1(cfg: RunConfig) -> dict:
    """Train the aligned autoencoder; writes a checkpoint and metrics CSV.

    Per-epoch metrics: mean training loss terms plus validation MSE, signal
    dice overlap, and label-mode top-1/top-5 retrieval against the validation
    image embeddings.
    """
    data = load_data(cfg)
    model = SignalAutoencoder(cfg.encoder_config(), np.random.default_rng(np.random.SeedSequence([cfg.seed, 11])))
    text_by_window = data.anchor_text[data.labels]  # (N, T, D)
    weights = cfg.loss_weights

    # The step's tensors are locals, so its graph is freed when it returns.
    def step(chunk, rng, optimizer):
        total, terms = stage1_step_loss(
            model, data.windows[chunk], text_by_window[chunk], data.window_image_emb[chunk], weights
        )
        optimizer.minimize(total)
        return {name: float(term.data) for name, term in terms.items()} | {"total": float(total.data)}

    return _train(
        cfg, 1, model, model.params(), data.train_idx, 2, step, lambda: evaluate_stage1(model, data, weights)
    )


def evaluate_stage1(model: SignalAutoencoder, data: Dataset, weights: LossWeights) -> dict:
    """Validation reconstruction and retrieval metrics in eval mode."""
    idx = data.val_idx
    windows = data.windows[idx]
    latents, pooled = encode_windows(model, windows)
    recon = _map_no_grad(model.decode_batch, latents)

    mse = float(np.mean((windows - recon) ** 2))
    dice_values = [
        1.0 - float(sdsc_loss(Tensor(w), Tensor(r)).data) for w, r in zip(windows, recon)
    ]
    top = topk_retrieval(pooled, data.window_image_emb[idx], data.labels[idx], (1, TOP_K))
    return {"mse": mse, "dice": float(np.mean(dice_values)), "top1": top["label_top1"], "top5": top[f"label_top{TOP_K}"]}


def _load_checkpoint_into(model, cfg: RunConfig, stage: int):
    """``model`` with the state of the run's stage-``stage`` checkpoint.

    Refuses a checkpoint of the other stage, one whose records do not fit
    ``model`` (``Module.load_state``), and one trained under other values of
    the stage's ``MODEL_FIELDS``, naming each field that differs.
    """
    path = _stage_settings(cfg, stage)[0]
    state, meta = load_checkpoint(path)
    if meta.get("stage") != stage:
        raise ConfigError(f"{path} is not a stage-{stage} checkpoint")
    model.load_state(state)
    saved, want = meta.get("config"), _checkpoint_config(cfg)
    saved = saved if isinstance(saved, dict) else {}
    differ = [
        f"{key} {saved[key]!r} (config {want[key]!r})" if key in saved else f"{key} missing (config {want[key]!r})"
        for key in MODEL_FIELDS[stage]
        if saved.get(key) != want[key]
    ]
    if differ:
        raise ConfigError(f"{path} was trained under other config values: {', '.join(differ)}")
    return model


def load_stage1_model(cfg: RunConfig) -> SignalAutoencoder:
    return _load_checkpoint_into(SignalAutoencoder(cfg.encoder_config(), np.random.default_rng(0)), cfg, 1)


def stage2_training_set(cfg: RunConfig, data: Dataset):
    """Per-window target latents of the training split for stage 2: class
    anchors plus seeded jitter, so no encoder is needed."""
    labels = data.labels[data.train_idx]
    anchors = class_target_latents(cfg.classes, cfg.grid, cfg.seed)
    jitter_rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 7]))
    x0 = anchors[labels] + cfg.x0_jitter * jitter_rng.standard_normal((len(labels),) + tuple(cfg.grid))
    return {"x0": x0, "labels": labels, "anchors": anchors}


def generation_conditions(cfg: RunConfig, data: Dataset, encoder: SignalAutoencoder, num: int):
    """Held-out conditioning latents and labels for guided sampling.

    Draws from the validation split first, then the test split, capped at
    ``num`` windows; the commands check that ``num`` is at least 1.
    """
    idx = np.concatenate([data.val_idx, data.test_idx])[:num]
    latents, _ = encode_windows(encoder, data.windows[idx])
    return latents, data.labels[idx]


def build_stage2_model(cfg: RunConfig, rng: np.random.Generator) -> Stage2Model:
    """The stage-2 model of ``cfg``, initialised from ``rng``.

    Its noise schedule is built here from ``cfg`` and nowhere else; training
    and sampling read it from ``model.schedule``.
    """
    return Stage2Model(
        cfg.denoiser_config(), rng,
        latent_tokens=cfg.latent_tokens, latent_dim=cfg.latent_dim,
        schedule=build_schedule(cfg.schedule_steps, cfg.beta_min, cfg.beta_max),
    )


def train_stage2(cfg: RunConfig) -> dict:
    """Selective finetuning of the conditional denoiser on frozen latents."""
    data = load_data(cfg)
    # the frozen encoder only conditions the denoiser: a temporary, freed here
    cond, _ = encode_windows(load_stage1_model(cfg), data.windows[data.train_idx])
    train_set = stage2_training_set(cfg, data)

    model = build_stage2_model(cfg, np.random.default_rng(np.random.SeedSequence([cfg.seed, 21])))
    mask = selective_finetune_mask(model)

    def step(chunk, rng, optimizer):
        batch = {"x0": train_set["x0"][chunk], "cond": cond[chunk]}
        return {"v_loss": stage2_train_step(batch, model, optimizer, rng, drop_prob=cfg.drop_prob, gamma=cfg.gamma)}

    order = np.arange(len(train_set["labels"]))
    return _train(cfg, 2, model, apply_train_mask(model, mask), order, 1, step, mask=list(mask)) | {"mask": mask}


def load_stage2_model(cfg: RunConfig) -> Stage2Model:
    return _load_checkpoint_into(build_stage2_model(cfg, np.random.default_rng(0)), cfg, 2)


# -- gradient audit suite ------------------------------------------------------


def _offset_from_zero(x: np.ndarray, margin: float = 0.2) -> np.ndarray:
    """Push values away from 0 so kinks do not pollute central differences."""
    return x + margin * np.where(x >= 0, 1.0, -1.0)


def _weighted(fn, rng: np.random.Generator, point: np.ndarray) -> tuple:
    """``fn`` made scalar, with its point: ``(x -> sum(fn(x) * w), point)``.
    ``fn`` runs once on ``point`` without a graph, and the fixed weights
    ``w`` take that output's shape, drawn from ``rng`` right after the point."""
    with ad.no_grad():
        shape = fn(Tensor(point)).shape
    w = Tensor(rng.normal(size=shape))
    return (lambda x: ad.sum_(ad.mul(fn(x), w))), point


def primitive_cases(rng: np.random.Generator) -> dict:
    """The audited primitive targets: kind -> (scalar map of one leaf, point).

    Every case is one :func:`_weighted` line: it draws its point and then its
    output weights before the next case draws anything, so a case appended
    at the end leaves the draws of every case before it alone.  ``const``
    and matmul's right operand are op inputs, drawn first.  The conv3x3 and
    linear leaves are also the op's weight (a reshape or a batch mean) and
    bias (a channel or token mean), so every VJP of those ops is audited."""
    const = Tensor(_offset_from_zero(rng.normal(size=(3, 4))))
    right = Tensor(rng.normal(size=(4, 2)))

    def normal(shape=(3, 4)):
        return rng.normal(size=shape)

    def conv(x, upsample=False):
        return ad.conv3x3(x, ad.reshape(x, (18, 2)), ad.mean(x, axis=(0, 2, 3)), upsample)

    return {
        "matmul": _weighted(lambda x: ad.matmul(x, right), rng, normal()),
        "add": _weighted(lambda x: ad.add(x, const), rng, normal()),
        "sub": _weighted(lambda x: ad.sub(x, const), rng, normal()),
        "mul": _weighted(lambda x: ad.mul(x, const), rng, normal()),
        "div": _weighted(lambda x: ad.div(x, ad.add(ad.abs_(const), 0.5)), rng, normal()),
        "scalar-mul": _weighted(lambda x: ad.mul(x, 1.7), rng, normal()),
        "abs": _weighted(ad.abs_, rng, _offset_from_zero(normal())),
        "elementwise-min": _weighted(lambda x: ad.minimum(x, const), rng, _offset_from_zero(normal()) + 0.05),
        "sigmoid": _weighted(ad.sigmoid, rng, normal()),
        "relu": _weighted(ad.relu, rng, _offset_from_zero(normal())),
        "softmax": _weighted(lambda x: ad.softmax(x, axis=-1), rng, normal()),
        "layer-normalize": _weighted(lambda x: ad.standardize(x, -1, LAYER_NORM_EPS), rng, normal()),
        "batch-normalize": _weighted(lambda x: ad.standardize(x, 0, BATCH_NORM_EPS), rng, normal()),
        "mean": _weighted(lambda x: ad.mean(x, axis=1, keepdims=True), rng, normal()),
        "sum": _weighted(lambda x: ad.sum_(x, axis=0, keepdims=True), rng, normal()),
        "concat": _weighted(lambda x: ad.concat([x, ad.mul(x, 2.0)], axis=0), rng, normal()),
        "reshape": _weighted(lambda x: ad.reshape(x, (4, 3)), rng, normal()),
        "transpose": _weighted(lambda x: ad.transpose(x, (1, 0)), rng, normal()),
        "exp": _weighted(ad.exp, rng, normal()),
        "log": _weighted(ad.log, rng, np.abs(normal()) + 0.5),
        "power": _weighted(lambda x: ad.power(x, 2.5), rng, np.abs(normal()) + 0.5),
        "cosine-similarity": _weighted(lambda x: ad.cosine_similarity(x, const), rng, normal()),
        "pad-last2": _weighted(lambda x: ad.pad_last2(x, 1), rng, normal()),
        "crop-last2": _weighted(lambda x: ad.crop_last2(x, 1, 1, 2, 2), rng, normal()),
        "conv3x3": _weighted(conv, rng, normal((2, 2, 3, 3))),
        "linear": _weighted(lambda x: ad.linear(x, ad.mean(x, axis=0), ad.mean(x, axis=(0, 1))), rng, normal((2, 4, 4))),
        "upsample-conv3x3": _weighted(lambda x: conv(x, upsample=True), rng, normal((2, 2, 3, 3))),
    }


def gradient_suite(seeds: int = 10) -> list[tuple[str, float]]:
    """Max relative gradient error per audited target over ``seeds`` seeds,
    each at ``grad_check``'s default step.

    One seeded loop runs every row: row ``i`` (from 1) draws seed ``s`` from
    ``SeedSequence([1000 + s, i])``, so appending a row leaves the earlier
    rows' draws alone.  ``primitives`` is the worst ``grad_check`` over
    :func:`primitive_cases`.  Each module row is one :func:`_weighted` map
    of a leaf input, scored per entry by ``grad_check``.  ``stage1_loss``
    and ``stage2_loss`` run each stage's step loss on the parameters that
    stage trains, scored by ``grad_check_params`` over the whole step
    gradient."""
    if seeds < 1:
        raise ConfigError(f"seeds must be >= 1, got {seeds}")
    results: list[tuple[str, float]] = []

    def run(name, build, check=ad.grad_check):
        tag = len(results) + 1  # stable per-target stream key
        worst = 0.0
        for s in range(seeds):
            rng = np.random.default_rng(np.random.SeedSequence([1000 + s, tag]))
            worst = max(worst, check(*build(rng)))
        results.append((name, worst))

    run("primitives", lambda rng: primitive_cases(rng).values(), lambda *cases: max(ad.grad_check(*c) for c in cases))

    # the audited modules are built the way a run builds them, at a tiny size
    tiny = RunConfig(
        channels=4, samples=8, latent_tokens=2, latent_dim=4, temporal_dim=8, heads=2, depth=1,
        grid=(2, 4, 4), widths=(4, 8), attn_width=4, attn_heads=2, time_dim=8,
        schedule_steps=10, beta_max=0.02,
    )
    signal_shape = (2, tiny.channels, tiny.samples)
    latent_shape = (2,) + tiny.grid

    def build_temporal(rng):
        block = TemporalBlock(rng, tiny.samples, tiny.temporal_dim)
        return _weighted(lambda x: block(x, training=True), rng, rng.normal(size=signal_shape))

    run("temporal_block", build_temporal)

    def build_spatial(rng):
        block = SpatialBlock(rng, tiny.temporal_dim, tiny.heads)
        return _weighted(block, rng, rng.normal(size=(2, tiny.channels, tiny.temporal_dim)))

    run("spatial_block", build_spatial)

    def build_autoencoder(rng):
        model = SignalAutoencoder(tiny.encoder_config(), rng)
        return _weighted(lambda x: model.decode_batch(model.encode_batch(x, training=True)), rng, rng.normal(size=signal_shape))

    run("autoencoder", build_autoencoder)

    def build_sdsc(rng):
        ref = Tensor(_offset_from_zero(rng.normal(size=(3, 6))))
        return (lambda x: sdsc_loss(ref, x), _offset_from_zero(rng.normal(size=(3, 6))))

    run("sdsc_loss", build_sdsc)

    def build_recon(rng):
        ref = Tensor(_offset_from_zero(rng.normal(size=(3, 6))))
        w = LossWeights()
        return (lambda x: recon_loss(ref, x, w), _offset_from_zero(rng.normal(size=(3, 6))))

    run("recon_loss", build_recon)

    def build_align(rng):
        text = Tensor(rng.normal(size=(2, 3, 5)))
        w = LossWeights()
        return (lambda x: text_align_loss(x, text, w), rng.normal(size=(2, 3, 5)))

    run("text_align_loss", build_align)

    def build_contrastive(rng):
        images = Tensor(rng.normal(size=(4, 6)))
        return (lambda x: contrastive_loss(x, images, 0.07), rng.normal(size=(4, 6)))

    run("contrastive_loss", build_contrastive)

    def build_stage1_loss(rng):
        model = SignalAutoencoder(tiny.encoder_config(), rng)
        text = rng.normal(size=(2, tiny.latent_tokens, tiny.latent_dim))
        images = rng.normal(size=(2, tiny.latent_dim))
        windows = rng.normal(size=signal_shape)
        return (lambda: stage1_step_loss(model, windows, text, images, tiny.loss_weights)[0]), model.params()

    run("stage1_loss", build_stage1_loss, ad.grad_check_params)

    def build_adapter(rng):
        model = build_stage2_model(tiny, rng)
        return _weighted(model.adapter, rng, rng.normal(size=(3, 4)))

    run("adapter", build_adapter)

    def build_stage2_loss(rng):
        model = build_stage2_model(tiny, rng)
        batch = {"x0": rng.standard_normal(latent_shape), "cond": rng.normal(size=(2, tiny.latent_tokens, tiny.latent_dim))}
        seed = int(rng.integers(1 << 32))  # the same t, noise and dropout draws for every evaluation

        def loss():
            return stage2_step_loss(batch, model, np.random.default_rng(seed), 0.5, tiny.gamma)[0]

        return loss, apply_train_mask(model, selective_finetune_mask(model))

    run("stage2_loss", build_stage2_loss, ad.grad_check_params)

    def build_vloss_plain(rng):
        schedule = build_schedule(10)
        w = Tensor(rng.normal(size=latent_shape))
        noise = Tensor(rng.standard_normal(latent_shape))

        def fn(x0):
            # a fixed linear "model" isolates the loss math from the denoiser
            return v_loss(x0, noise, np.array([2, 7]), None, lambda x_t, t, c: ad.mul(x_t, w), schedule)

        return fn, rng.standard_normal(latent_shape)

    run("v_loss", build_vloss_plain)

    def build_denoise(rng):
        model = build_stage2_model(tiny, rng)
        cond = Tensor(rng.normal(size=(2, 6, 4)))
        return _weighted(lambda x: model.denoise(x, np.array([3, 7]), cond), rng, rng.standard_normal(latent_shape))

    run("denoise", build_denoise)

    return results
