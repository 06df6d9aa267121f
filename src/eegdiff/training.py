"""Run configuration, optimizer, training loops, and the gradient audit.

Both stages are fully seeded: parameter init, epoch shuffles, timestep and
noise draws, and condition dropout each consume dedicated
``SeedSequence([seed, tag, ...])`` streams, so reruns are byte-identical.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import NonFiniteError, Tensor
from .diffusion import (
    DenoiserConfig,
    Stage2Model,
    apply_train_mask,
    build_condition,
    build_schedule,
    class_target_latents,
    selective_finetune_mask,
    stage2_train_step,
)
from .encoder import EncoderConfig, SignalAutoencoder, SpatialBlock, TemporalBlock, mean_pool_latent
from .evaluate import RetrievalIndex, topk_retrieval
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
from .signalio import Dataset, load_checkpoint, load_dataset, save_checkpoint


class Adam:
    """Adam with bias correction; a zero gradient leaves parameters unchanged."""

    def __init__(
        self,
        params: dict[str, Tensor],
        lr: float,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ):
        if lr <= 0:
            raise ConfigError(f"learning rate must be positive, got {lr}")
        if not (0.0 <= beta1 < 1.0 and 0.0 <= beta2 < 1.0):
            raise ConfigError(f"betas must lie in [0, 1), got ({beta1}, {beta2})")
        if eps <= 0:
            raise ConfigError("eps must be positive")
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.params = dict(sorted(params.items()))
        self.m = {name: np.zeros_like(p.data) for name, p in self.params.items()}
        self.v = {name: np.zeros_like(p.data) for name, p in self.params.items()}
        self.t = 0

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None

    def step(self) -> None:
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        for name, p in self.params.items():
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            m = self.m[name] = self.beta1 * self.m[name] + (1.0 - self.beta1) * g
            v = self.v[name] = self.beta2 * self.v[name] + (1.0 - self.beta2) * (g * g)
            p.data -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)


# RunConfig fields that `signalio.generate_dataset` takes as keyword arguments.
DATASET_FIELDS = (
    "channels", "samples", "latent_tokens", "latent_dim", "classes", "per_class", "subjects",
    "seed", "fs", "low", "high", "val_frac", "test_frac", "noise_std", "target_rms",
)


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
        self.encoder_config()
        self.denoiser_config()
        self.loss_weights.validate()
        if self.batch_size < 2:
            raise ConfigError("batch_size must be >= 2 (batch norm and contrastive pairs)")
        if not (0.0 <= self.drop_prob <= 1.0):
            raise ConfigError("drop_prob must lie in [0, 1]")
        if self.epochs_stage1 < 1 or self.epochs_stage2 < 1:
            raise ConfigError("epoch counts must be >= 1")
        if self.num_samples < 2:
            raise ConfigError("num_samples must be >= 2")
        if not (1 <= self.sample_steps <= self.schedule_steps):
            raise ConfigError(
                f"sample_steps must lie in [1, {self.schedule_steps}], got {self.sample_steps}"
            )
        finite_scale(self.guidance_scale)
        return self

    # -- derived views ------------------------------------------------------

    def encoder_config(self) -> EncoderConfig:
        return EncoderConfig(
            channels=self.channels,
            samples=self.samples,
            latent_tokens=self.latent_tokens,
            latent_dim=self.latent_dim,
            temporal_dim=self.temporal_dim,
            heads=self.heads,
            depth=self.depth,
        ).validate()

    def denoiser_config(self) -> DenoiserConfig:
        return DenoiserConfig(
            cond_dim=self.latent_dim,
            grid=tuple(self.grid),
            widths=tuple(self.widths),
            attn_width=self.attn_width,
            attn_heads=self.attn_heads,
            time_dim=self.time_dim,
        ).validate()

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
        return cls(**raw).validate()

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


def _type_mismatch(value, default) -> str | None:
    """What a config value must be, going by its field's default; None if it fits."""
    if isinstance(default, LossWeights):
        fits = isinstance(value, dict) and not any(_type_mismatch(v, 0.0) for v in value.values())
        return None if fits else "an object of finite numbers"
    if isinstance(default, tuple):
        fits = isinstance(value, (list, tuple)) and len(value) == len(default)
        fits = fits and not any(_type_mismatch(v, 0) for v in value)
        return None if fits else f"a list of {len(default)} ints"
    if isinstance(default, (int, float)):
        number = (int, float) if isinstance(default, float) else int
        if isinstance(value, number) and not isinstance(value, bool) and math.isfinite(value):
            return None
        return "a finite number" if isinstance(default, float) else "an int"
    if isinstance(value, str) or (default is None and value is None):
        return None
    return "a string" if isinstance(default, str) else "a string or null"


def finite_scale(scale: float) -> float:
    """``scale`` itself; a NaN or infinite guidance scale raises ConfigError."""
    if not math.isfinite(scale):
        raise ConfigError(f"guidance scale must be finite, got {scale}")
    return scale


def format_float(x: float) -> str:
    """Shortest round-trip decimal text for metrics and file names."""
    return repr(float(x))


def write_csv(path: Path, header: list[str], rows: list[list]) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [",".join(header)]
    for row in rows:
        cells = [
            format_float(cell) if isinstance(cell, float) else str(cell)
            for cell in row
        ]
        lines.append(",".join(cells))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


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


def load_data(cfg: RunConfig) -> Dataset:
    """The run's dataset, checked against the config fields that size the models."""
    data = load_dataset(cfg.resolved_data_dir)
    for key in ("channels", "samples", "latent_tokens", "latent_dim", "classes"):
        have, want = data.meta.get(key), getattr(cfg, key)
        if have != want:
            raise ConfigError(f"dataset {key}={have} does not match config {key}={want}")
    return data


def _epochs(cfg: RunConfig, stage: int, epochs: int, order: np.ndarray, minimum: int, step):
    """Seeded epochs of ``step(chunk, rng)``; yields (epoch, mean of each loss term).

    Epoch ``e`` shuffles the indices ``order`` with the stream
    ``[seed, 10 * stage + 2, e]``, which ``step`` draws from too, and skips
    batches under ``minimum`` indices.  A ``NonFiniteError`` in ``step``
    becomes a ``RuntimeError`` naming the stage, epoch and step.
    """
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
                terms = step(chunk, rng)
            except NonFiniteError as exc:
                raise RuntimeError(
                    f"stage {stage} diverged at epoch {epoch}, step {steps}: {exc}"
                ) from exc
            for name, value in terms.items():
                sums[name] = sums.get(name, 0.0) + value
            steps += 1
        yield epoch, {name: total / steps for name, total in sums.items()}


def train_stage1(cfg: RunConfig) -> dict:
    """Train the aligned autoencoder; writes a checkpoint and metrics CSV.

    Per-epoch metrics: mean training loss terms plus validation MSE, signal
    dice overlap, and label-mode top-1/top-5 retrieval against the validation
    image embeddings.
    """
    cfg.validate()
    data = load_data(cfg)

    init_rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 11]))
    model = SignalAutoencoder(cfg.encoder_config(), init_rng)
    optimizer = Adam(
        model.params(), cfg.lr_stage1, cfg.adam_beta1, cfg.adam_beta2, cfg.adam_eps
    )

    text_by_window = data.anchor_text[data.labels]  # (N, T, D)
    weights = cfg.loss_weights

    # The step's tensors are locals, so its graph is freed when it returns.
    def step(chunk, rng):
        x = Tensor(data.windows[chunk])
        z = model.encode_batch(x, training=True)
        total, terms = stage1_loss_terms(
            x, model.decode_batch(z), z, Tensor(text_by_window[chunk]),
            mean_pool_latent(z), Tensor(data.window_image_emb[chunk]), weights,
        )
        optimizer.zero_grad()
        total.backward()
        optimizer.step()
        return {name: float(term.data) for name, term in terms.items()} | {"total": float(total.data)}

    rows = []
    for epoch, means in _epochs(cfg, 1, cfg.epochs_stage1, data.train_idx, 2, step):
        rows += [[epoch, name, mean] for name, mean in means.items()]
        rows += [[epoch, f"val_{name}", value] for name, value in evaluate_stage1(model, data, weights).items()]

    metrics = write_csv(cfg.stage1_metrics, ["epoch", "metric", "value"], rows)
    save_checkpoint(
        cfg.stage1_checkpoint,
        model.state(),
        {"stage": 1, "epochs": cfg.epochs_stage1, "config": _checkpoint_config(cfg)},
    )
    return {"checkpoint": cfg.stage1_checkpoint, "metrics": metrics, "model": model}


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
    gallery = RetrievalIndex(data.window_image_emb[idx], labels=data.labels[idx])
    top1 = topk_retrieval(pooled, gallery, 1, mode="label")
    top5 = topk_retrieval(pooled, gallery, 5, mode="label")
    return {"mse": mse, "dice": float(np.mean(dice_values)), "top1": top1, "top5": top5}


def load_stage1_model(cfg: RunConfig) -> SignalAutoencoder:
    state, meta = load_checkpoint(cfg.stage1_checkpoint)
    if meta.get("stage") != 1:
        raise ConfigError(f"{cfg.stage1_checkpoint} is not a stage-1 checkpoint")
    model = SignalAutoencoder(cfg.encoder_config(), np.random.default_rng(0))
    model.load_state(state)
    return model


def stage2_training_set(cfg: RunConfig, data: Dataset, encoder: SignalAutoencoder):
    """Frozen-encoder conditions and per-window target latents for stage 2."""
    labels = data.labels[data.train_idx]
    latents, _ = encode_windows(encoder, data.windows[data.train_idx])
    anchors = class_target_latents(cfg.classes, cfg.grid, cfg.seed)
    jitter_rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 7]))
    x0 = anchors[labels] + cfg.x0_jitter * jitter_rng.standard_normal((len(labels),) + tuple(cfg.grid))
    return {"x0": x0, "cond": latents, "labels": labels, "anchors": anchors}


def generation_conditions(cfg: RunConfig, data: Dataset, encoder: SignalAutoencoder, num: int):
    """Held-out conditioning latents and labels for guided sampling.

    Draws from the validation split first, then the test split, capped at
    ``num`` windows.
    """
    idx = np.concatenate([data.val_idx, data.test_idx])
    if num < 1:
        raise ConfigError(f"need at least one sample, got {num}")
    idx = idx[: min(num, len(idx))]
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
    cfg.validate()
    data = load_data(cfg)
    encoder = load_stage1_model(cfg)
    train_set = stage2_training_set(cfg, data, encoder)

    model = build_stage2_model(cfg, np.random.default_rng(np.random.SeedSequence([cfg.seed, 21])))
    mask = selective_finetune_mask(model)
    trainable = apply_train_mask(model, mask)
    optimizer = Adam(trainable, cfg.lr_stage2, cfg.adam_beta1, cfg.adam_beta2, cfg.adam_eps)

    def step(chunk, rng):
        batch = {"x0": train_set["x0"][chunk], "cond": train_set["cond"][chunk]}
        loss = stage2_train_step(batch, model, optimizer, rng, drop_prob=cfg.drop_prob, gamma=cfg.gamma)
        return {"v_loss": loss}

    rows = []
    for epoch, means in _epochs(cfg, 2, cfg.epochs_stage2, np.arange(len(train_set["labels"])), 1, step):
        rows += [[epoch, name, mean] for name, mean in means.items()]
    metrics = write_csv(cfg.stage2_metrics, ["epoch", "metric", "value"], rows)
    save_checkpoint(
        cfg.stage2_checkpoint,
        model.state(),
        {
            "stage": 2,
            "epochs": cfg.epochs_stage2,
            "mask": list(mask.names),
            "config": _checkpoint_config(cfg),
        },
    )
    return {"checkpoint": cfg.stage2_checkpoint, "metrics": metrics, "model": model, "mask": mask}


def load_stage2_model(cfg: RunConfig) -> Stage2Model:
    state, meta = load_checkpoint(cfg.stage2_checkpoint)
    if meta.get("stage") != 2:
        raise ConfigError(f"{cfg.stage2_checkpoint} is not a stage-2 checkpoint")
    model = build_stage2_model(cfg, np.random.default_rng(0))
    model.load_state(state)
    return model


# -- gradient audit suite ------------------------------------------------------


def _offset_from_zero(x: np.ndarray, margin: float = 0.2) -> np.ndarray:
    """Push values away from 0 so kinks do not pollute central differences."""
    return x + margin * np.where(x >= 0, 1.0, -1.0)


def primitive_cases(rng: np.random.Generator) -> dict:
    """The audited primitive targets: kind -> (scalar map of one leaf, point)."""
    const = Tensor(_offset_from_zero(rng.normal(size=(3, 4))))
    w = Tensor(rng.normal(size=(3, 4)))
    w2 = Tensor(rng.normal(size=(4, 2)))
    w32 = Tensor(rng.normal(size=(3, 2)))
    w31 = Tensor(rng.normal(size=(3, 1)))
    w14 = Tensor(rng.normal(size=(1, 4)))
    w64 = Tensor(rng.normal(size=(6, 4)))
    w43 = Tensor(rng.normal(size=(4, 3)))
    w3 = Tensor(rng.normal(size=3))
    w56 = Tensor(rng.normal(size=(5, 6)))
    w22 = Tensor(rng.normal(size=(2, 2)))
    cases = {
        "matmul": (lambda x: ad.sum_(ad.mul(ad.matmul(x, w2), w32)), rng.normal(size=(3, 4))),
        "add": (lambda x: ad.sum_(ad.mul(ad.add(x, const), w)), rng.normal(size=(3, 4))),
        "sub": (lambda x: ad.sum_(ad.mul(ad.sub(x, const), w)), rng.normal(size=(3, 4))),
        "mul": (lambda x: ad.sum_(ad.mul(ad.mul(x, const), w)), rng.normal(size=(3, 4))),
        "div": (lambda x: ad.sum_(ad.mul(ad.div(x, ad.add(ad.abs_(const), 0.5)), w)), rng.normal(size=(3, 4))),
        "scalar-mul": (lambda x: ad.sum_(ad.mul(ad.mul(x, 1.7), w)), rng.normal(size=(3, 4))),
        "abs": (lambda x: ad.sum_(ad.mul(ad.abs_(x), w)), _offset_from_zero(rng.normal(size=(3, 4)))),
        "elementwise-min": (lambda x: ad.sum_(ad.mul(ad.minimum(x, const), w)), _offset_from_zero(rng.normal(size=(3, 4))) + 0.05),
        "sigmoid": (lambda x: ad.sum_(ad.mul(ad.sigmoid(x), w)), rng.normal(size=(3, 4))),
        "relu": (lambda x: ad.sum_(ad.mul(ad.relu(x), w)), _offset_from_zero(rng.normal(size=(3, 4)))),
        "softmax": (lambda x: ad.sum_(ad.mul(ad.softmax(x, axis=-1), w)), rng.normal(size=(3, 4))),
        "layer-normalize": (lambda x: ad.sum_(ad.mul(ad.standardize(x, -1, LAYER_NORM_EPS), w)), rng.normal(size=(3, 4))),
        "batch-normalize": (lambda x: ad.sum_(ad.mul(ad.standardize(x, 0, BATCH_NORM_EPS), w)), rng.normal(size=(3, 4))),
        "mean": (lambda x: ad.sum_(ad.mul(ad.mean(x, axis=1, keepdims=True), w31)), rng.normal(size=(3, 4))),
        "sum": (lambda x: ad.sum_(ad.mul(ad.sum_(x, axis=0, keepdims=True), w14)), rng.normal(size=(3, 4))),
        "concat": (lambda x: ad.sum_(ad.mul(ad.concat([x, ad.mul(x, 2.0)], axis=0), w64)), rng.normal(size=(3, 4))),
        "reshape": (lambda x: ad.sum_(ad.mul(ad.reshape(x, (4, 3)), w43)), rng.normal(size=(3, 4))),
        "transpose": (lambda x: ad.sum_(ad.mul(ad.transpose(x, (1, 0)), w43)), rng.normal(size=(3, 4))),
        "exp": (lambda x: ad.sum_(ad.mul(ad.exp(x), w)), rng.normal(size=(3, 4))),
        "log": (lambda x: ad.sum_(ad.mul(ad.log(x), w)), np.abs(rng.normal(size=(3, 4))) + 0.5),
        "power": (lambda x: ad.sum_(ad.mul(ad.power(x, 2.5), w)), np.abs(rng.normal(size=(3, 4))) + 0.5),
        "cosine-similarity": (lambda x: ad.sum_(ad.mul(ad.cosine_similarity(x, const), w3)), rng.normal(size=(3, 4))),
        "pad-last2": (lambda x: ad.sum_(ad.mul(ad.pad_last2(x, 1), w56)), rng.normal(size=(3, 4))),
        "crop-last2": (lambda x: ad.sum_(ad.mul(ad.crop_last2(x, 1, 1, 2, 2), w22)), rng.normal(size=(3, 4))),
    }
    # drawn after the cases above so their points stay the same
    w_cols = Tensor(rng.normal(size=(12, 18)))
    cases["im2col3x3"] = (lambda x: ad.sum_(ad.mul(ad.im2col3x3(x), w_cols)), rng.normal(size=(2, 2, 2, 3)))
    # the leaf is the (2, 4, 4) token input, the weight (its batch mean) and
    # the bias (its token mean), so every VJP of linear is audited
    w_lin = Tensor(rng.normal(size=(2, 4, 4)))
    cases["linear"] = (
        lambda x: ad.sum_(ad.mul(ad.linear(x, ad.mean(x, axis=0), ad.mean(x, axis=(0, 1))), w_lin)),
        rng.normal(size=(2, 4, 4)),
    )
    w_up = Tensor(rng.normal(size=(2, 2, 4, 6)))
    cases["upsample2"] = (lambda x: ad.sum_(ad.mul(ad.upsample2(x), w_up)), rng.normal(size=(2, 2, 2, 3)))
    return cases


def gradient_suite(seeds: int = 10) -> list[tuple[str, float]]:
    """Max relative gradient error per audited target over ``seeds`` seeds,
    each at ``grad_check``'s default step."""
    if seeds < 1:
        raise ConfigError(f"seeds must be >= 1, got {seeds}")
    results: list[tuple[str, float]] = []

    def run(name, build):
        tag = len(results) + 1  # stable per-target stream key
        worst = 0.0
        for s in range(seeds):
            rng = np.random.default_rng(np.random.SeedSequence([1000 + s, tag]))
            fn, point = build(rng)
            worst = max(worst, ad.grad_check(fn, point))
        results.append((name, worst))

    # primitives: audit each kind, report the worst
    worst_prim = 0.0
    for s in range(seeds):
        rng = np.random.default_rng(np.random.SeedSequence([1000 + s, 0]))
        for kind, (fn, point) in primitive_cases(rng).items():
            err = ad.grad_check(fn, point)
            worst_prim = max(worst_prim, err)
    results.append(("primitives", worst_prim))

    tiny = EncoderConfig(channels=4, samples=8, latent_tokens=2, latent_dim=4,
                         temporal_dim=8, heads=2, depth=1)

    def build_temporal(rng):
        block = TemporalBlock(rng, tiny.samples, tiny.temporal_dim)
        wsum = Tensor(rng.normal(size=(2, tiny.channels, tiny.temporal_dim)))
        return (
            lambda x: ad.sum_(ad.mul(block(x, training=True), wsum)),
            rng.normal(size=(2, tiny.channels, tiny.samples)),
        )

    run("temporal_block", build_temporal)

    def build_spatial(rng):
        block = SpatialBlock(rng, tiny.temporal_dim, tiny.heads)
        wsum = Tensor(rng.normal(size=(2, tiny.channels, tiny.temporal_dim)))
        return (
            lambda x: ad.sum_(ad.mul(block(x), wsum)),
            rng.normal(size=(2, tiny.channels, tiny.temporal_dim)),
        )

    run("spatial_block", build_spatial)

    def build_autoencoder(rng):
        model = SignalAutoencoder(tiny, rng)
        wsum = Tensor(rng.normal(size=(2, tiny.channels, tiny.samples)))
        return (
            lambda x: ad.sum_(ad.mul(model.decode_batch(model.encode_batch(x, training=True)), wsum)),
            rng.normal(size=(2, tiny.channels, tiny.samples)),
        )

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
        target = Tensor(_offset_from_zero(rng.normal(size=(2, 3, 6))))
        recon = Tensor(_offset_from_zero(rng.normal(size=(2, 3, 6))))
        text = Tensor(rng.normal(size=(2, 2, 4)))
        images = Tensor(rng.normal(size=(2, 4)))
        w = LossWeights()

        def fn(latent):
            pooled = ad.mean(latent, axis=1)
            return stage1_loss_terms(target, recon, latent, text, pooled, images, w)[0]

        return fn, rng.normal(size=(2, 2, 4))

    run("stage1_loss", build_stage1_loss)

    tiny_grid = (2, 4, 4)

    def tiny_stage2(rng):
        return Stage2Model(
            DenoiserConfig(cond_dim=4, grid=tiny_grid, widths=(4, 8), attn_width=4,
                           attn_heads=2, time_dim=8),
            rng, latent_tokens=2, latent_dim=4, schedule=build_schedule(10),
        )

    def build_adapter(rng):
        model = tiny_stage2(rng)
        wsum = Tensor(rng.normal(size=(3, 4, 4)))
        return (lambda x: ad.sum_(ad.mul(model.adapter(x), wsum)), rng.normal(size=(3, 4)))

    run("adapter", build_adapter)

    def build_vloss(rng):
        model = tiny_stage2(rng)
        noise = Tensor(rng.standard_normal((2,) + tiny_grid))
        pooled = Tensor(rng.normal(size=(2, 4)))
        lat = Tensor(rng.normal(size=(2, 2, 4)))

        def fn(x0):
            cond = build_condition(lat, model.adapter(pooled))
            return v_loss(x0, noise, np.array([2, 7]), cond, model.denoise, model.schedule)

        return fn, rng.standard_normal((2,) + tiny_grid)

    run("denoiser_v_loss", build_vloss)

    def build_vloss_plain(rng):
        schedule = build_schedule(10)
        w = Tensor(rng.normal(size=(2,) + tiny_grid))
        noise = Tensor(rng.standard_normal((2,) + tiny_grid))

        def fn(x0):
            # a fixed linear "model" isolates the loss math from the denoiser
            return v_loss(x0, noise, np.array([2, 7]), None, lambda x_t, t, c: ad.mul(x_t, w), schedule)

        return fn, rng.standard_normal((2,) + tiny_grid)

    run("v_loss", build_vloss_plain)

    def build_denoise(rng):
        model = tiny_stage2(rng)
        cond = Tensor(rng.normal(size=(2, 6, 4)))
        wsum = Tensor(rng.normal(size=(2,) + tiny_grid))
        return (
            lambda x: ad.sum_(ad.mul(model.denoise(x, np.array([3, 7]), cond), wsum)),
            rng.standard_normal((2,) + tiny_grid),
        )

    run("denoise", build_denoise)

    return results
