"""Conditional latent diffusion with velocity prediction.

A variance-preserving schedule, a latent-token condition adapter, a small
two-level denoiser with per-level cross-attention, selective finetuning
(adapter + cross-attention key/value projections only), and a deterministic
classifier-free guided sampler.  The denoiser splits into a condition-free
trunk and a conditioned branch, so the sampler computes the trunk once per
step and shares it between the unconditional and conditional predictions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import ShapeError, Tensor, as_tensor
from .encoder import mean_pool_latent
from .losses import cfg_combine, v_loss
from .nn import ConfigError, LayerNorm, Linear, Module, glorot_uniform, multi_head_attention

ADAPTER_TOKENS = 4
TIMESTEP_MAX_PERIOD = 10000.0


# -- noise schedule ----------------------------------------------------------


@dataclass
class NoiseSchedule:
    """Variance-preserving schedule: alpha_t^2 + sigma_t^2 = 1."""

    alphas: np.ndarray
    sigmas: np.ndarray

    @property
    def steps(self) -> int:
        return len(self.alphas)

    def snr(self, t):
        """alpha_t^2 / sigma_t^2 for a timestep or an array of them (inf where sigma_t is 0)."""
        a, s = self.alphas[t], self.sigmas[t]
        with np.errstate(divide="ignore"):
            return a * a / (s * s)

    def coefficients(self, t, shape: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
        """(alpha_t, sigma_t) shaped (len(t), 1, ..., 1) to broadcast over a batch of ``shape``.

        ``t`` is one timestep for the whole batch or one per sample.
        """
        t = np.atleast_1d(np.asarray(t, dtype=int))
        if t.ndim != 1 or len(t) not in (1, shape[0]):
            raise ShapeError(f"timesteps of shape {t.shape} do not fit a batch of shape {shape}")
        view = (len(t),) + (1,) * (len(shape) - 1)
        return self.alphas[t].reshape(view), self.sigmas[t].reshape(view)


def build_schedule(steps: int, beta_min: float = 1e-4, beta_max: float = 0.02) -> NoiseSchedule:
    """Linear beta ramp; alphas strictly decrease, sigmas strictly increase.

    The schedule checks its own arguments; ``RunConfig.validate`` builds the
    run's schedule once so that a bad one fails before any command works.
    """
    if steps < 2:
        raise ConfigError(f"schedule needs at least 2 steps, got {steps}")
    if not (0.0 < beta_min <= beta_max < 1.0):
        raise ConfigError(f"betas must satisfy 0 < beta_min <= beta_max < 1, got ({beta_min}, {beta_max})")
    betas = np.linspace(beta_min, beta_max, steps)
    alpha_bar = np.cumprod(1.0 - betas)
    return NoiseSchedule(alphas=np.sqrt(alpha_bar), sigmas=np.sqrt(1.0 - alpha_bar))


# -- condition adapter -------------------------------------------------------


class ConditionAdapter(Module):
    """Pooled latents (B, D) -> 4 condition tokens each (B, 4, D).

    Dense expansion to 4 tokens, per-token layer norm, dense output map.
    Also owns the learned null condition used when conditioning is dropped:
    a (latent_tokens + 4, D) parameter spanning the full token sequence.
    """

    def __init__(self, rng: np.random.Generator, latent_dim: int, latent_tokens: int):
        self.latent_dim = latent_dim
        self.fc_in = Linear(rng, latent_dim, ADAPTER_TOKENS * latent_dim)
        self.norm = LayerNorm(latent_dim)
        self.fc_out = Linear(rng, latent_dim, latent_dim)
        self.null_cond = Tensor(
            0.02 * rng.standard_normal((latent_tokens + ADAPTER_TOKENS, latent_dim)),
            requires_grad=True,
        )

    def __call__(self, pooled) -> Tensor:
        pooled = as_tensor(pooled)
        if pooled.ndim != 2 or pooled.shape[1] != self.latent_dim:
            raise ShapeError(f"adapter expects (batch, {self.latent_dim}), got {pooled.shape}")
        b = pooled.shape[0]
        h = self.fc_in(pooled).reshape(b, ADAPTER_TOKENS, self.latent_dim)
        return self.fc_out(self.norm(h))


def build_condition(latent, adapted) -> Tensor:
    """Concatenate latent tokens (.., T, D) with adapter tokens (.., 4, D)."""
    latent, adapted = as_tensor(latent), as_tensor(adapted)
    if (
        latent.ndim != adapted.ndim
        or latent.shape[-1] != adapted.shape[-1]
        or latent.shape[:-2] != adapted.shape[:-2]
    ):
        raise ShapeError(
            f"condition parts disagree: latent {latent.shape} vs adapted {adapted.shape}"
        )
    return ad.concat([latent, adapted], axis=-2)


# -- denoiser ----------------------------------------------------------------


def timestep_embedding(t, dim: int) -> np.ndarray:
    """Sinusoidal features (batch, dim) for integer timesteps; ``dim`` is even."""
    t = np.atleast_1d(np.asarray(t, dtype=np.float64))
    half = dim // 2
    freqs = np.exp(-np.log(TIMESTEP_MAX_PERIOD) * np.arange(half) / half)
    args = t[:, None] * freqs[None, :]
    return np.concatenate([np.cos(args), np.sin(args)], axis=-1)


class Conv3x3(Module):
    """3x3 same-padding convolution as one ``ad.conv3x3`` node, which with
    ``upsample`` convolves the nearest-neighbour 2x upsampling of its input.

    ``w`` is (9*c_in, c_out) with rows ordered (dy, dx, c), the column order
    of the op's plain patch matrix; ``b`` is (c_out,).  ``upsample`` changes
    neither, so the records do not depend on it.
    """

    def __init__(self, rng: np.random.Generator, c_in: int, c_out: int, upsample: bool = False):
        self.c_in, self.c_out = c_in, c_out
        self.w = Tensor(glorot_uniform(rng, 9 * c_in, c_out, (9 * c_in, c_out)), requires_grad=True)
        self.b = Tensor(np.zeros(c_out), requires_grad=True)
        self.upsample = upsample

    def __call__(self, x: Tensor) -> Tensor:
        return ad.conv3x3(x, self.w, self.b, self.upsample)


def avg_pool2(x: Tensor) -> Tensor:
    b, c, h, w = x.shape
    if h % 2 or w % 2:
        raise ShapeError(f"avg_pool2 needs even spatial dims, got {x.shape}")
    return ad.mean(x.reshape(b, c, h // 2, 2, w // 2, 2), axis=(3, 5))


class CrossAttention(Module):
    """Attend from spatial positions to condition tokens; residual output."""

    def __init__(self, rng: np.random.Generator, channels: int, cond_dim: int, width: int, heads: int):
        self.heads = heads
        self.norm = LayerNorm(channels)
        self.q = Linear(rng, channels, width, bias=False)
        self.k = Linear(rng, cond_dim, width, bias=False)
        self.v = Linear(rng, cond_dim, width, bias=False)
        self.out = Linear(rng, width, channels)

    def __call__(self, x: Tensor, cond: Tensor) -> Tensor:
        b, c, h, w = x.shape
        tokens = x.transpose(0, 2, 3, 1).reshape(b, h * w, c)
        merged = multi_head_attention(self.q(self.norm(tokens)), self.k(cond), self.v(cond), self.heads)
        y = ad.add(tokens, self.out(merged))
        return y.reshape(b, h, w, c).transpose(0, 3, 1, 2)


@dataclass
class DenoiserConfig:
    """Denoiser sizes; ``RunConfig.validate`` checks the run's values."""

    cond_dim: int
    grid: tuple[int, int, int] = (4, 8, 8)
    widths: tuple[int, int] = (32, 64)
    attn_width: int = 32
    attn_heads: int = 4
    time_dim: int = 64


class Denoiser(Module):
    """Two-level convolutional velocity predictor with cross-attention.

    The forward pass is ``branch(trunk(x_t, t), cond)``: a condition-free
    trunk (time MLP, ``conv_in``, ``enc1``) and a conditioned branch.  The
    guided sampler runs the trunk once per step and the branch once per
    condition.
    """

    NAMES = {
        "conv_in": "in", "conv_out": "out",
        "time_fc1": "time.fc1", "time_fc2": "time.fc2", "time_proj1": "time.proj1", "time_proj2": "time.proj2",
    }

    def __init__(self, config: DenoiserConfig, rng: np.random.Generator):
        self.config = cfg = config
        cin = cfg.grid[0]
        w1, w2 = cfg.widths
        self.time_fc1 = Linear(rng, cfg.time_dim, cfg.time_dim)
        self.time_fc2 = Linear(rng, cfg.time_dim, cfg.time_dim)
        self.time_proj1 = Linear(rng, cfg.time_dim, w1)
        self.time_proj2 = Linear(rng, cfg.time_dim, w2)
        self.conv_in = Conv3x3(rng, cin, w1)
        self.enc1 = Conv3x3(rng, w1, w1)
        self.xattn1 = CrossAttention(rng, w1, cfg.cond_dim, cfg.attn_width, cfg.attn_heads)
        self.down = Conv3x3(rng, w1, w2)
        self.mid = Conv3x3(rng, w2, w2)
        self.xattn2 = CrossAttention(rng, w2, cfg.cond_dim, cfg.attn_width, cfg.attn_heads)
        self.up = Conv3x3(rng, w2, w1, upsample=True)
        self.dec1 = Conv3x3(rng, w1, w1)
        self.conv_out = Conv3x3(rng, w1, cin)

    def trunk(self, x_t, t) -> tuple[Tensor, Tensor]:
        """Condition-free head: the ``enc1`` feature map and the time features.

        Everything here runs before the condition first enters at ``xattn1``,
        so one trunk serves every condition at the same (x_t, t).
        """
        x_t = as_tensor(x_t)
        if x_t.ndim != 4 or x_t.shape[1:] != self.config.grid:
            raise ShapeError(f"denoiser expects (batch, {self.config.grid}), got {x_t.shape}")
        b = x_t.shape[0]
        emb = timestep_embedding(np.broadcast_to(np.asarray(t), (b,)), self.config.time_dim)
        tf = self.time_fc2(ad.relu(self.time_fc1(Tensor(emb))))
        w1 = self.config.widths[0]
        h = self.conv_in(x_t)
        h = ad.relu(ad.add(h, self.time_proj1(tf).reshape(b, w1, 1, 1)))
        return ad.relu(self.enc1(h)), tf

    def branch(self, trunk: tuple[Tensor, Tensor], cond) -> Tensor:
        """Conditioned rest of the network, from ``xattn1`` to ``conv_out``.

        ``cond`` is (batch, tokens, cond_dim).
        """
        h, tf = trunk
        # Unless the caller keeps the trunk (the guided sampler does), let
        # the enc1 output be freed once xattn1 has read it.
        del trunk
        b = h.shape[0]
        cond = as_tensor(cond)
        if cond.ndim != 3 or cond.shape[0] != b or cond.shape[-1] != self.config.cond_dim:
            raise ShapeError(f"condition shape {cond.shape} incompatible with batch {b}")

        w2 = self.config.widths[1]
        h = self.xattn1(h, cond)
        skip = h
        d = avg_pool2(h)
        d = ad.relu(ad.add(self.down(d), self.time_proj2(tf).reshape(b, w2, 1, 1)))
        d = ad.relu(self.mid(d))
        d = self.xattn2(d, cond)
        # up upsamples d 2x as it convolves, at d's resolution
        u = self.up(d)
        h = ad.relu(ad.add(skip, u))
        h = ad.relu(self.dec1(h))
        return self.conv_out(h)

    def __call__(self, x_t, t, cond) -> Tensor:
        return self.branch(self.trunk(x_t, t), cond)


# -- stage-2 model, selective finetuning, training step ----------------------


class Stage2Model(Module):
    """Denoiser plus condition adapter with a shared parameter namespace.

    The velocity head is preconditioned with fixed functions of the noise
    level: v_hat = sigma_t * (alpha_t * x_t - N(x_t, t, cond)) where N is the
    raw network.  The alpha*x skip is the optimal unconditional clean-signal
    estimate for a unit-variance latent prior, and the sigma output scale
    shrinks the conditional-vs-unconditional gap as t -> 0, which keeps
    guided sampling stable at large scales.  Both factors are analytic in t,
    so the trainable surface is unchanged.

    ``schedule`` is the model's one noise schedule: it fixes the velocity
    head, the training targets of :func:`stage2_step_loss` and the
    timesteps of :func:`sample`.
    """

    NAMES = {"denoiser": "unet"}

    def __init__(
        self,
        denoiser_config: DenoiserConfig,
        rng: np.random.Generator,
        latent_tokens: int,
        latent_dim: int,
        schedule: NoiseSchedule,
    ):
        if latent_dim != denoiser_config.cond_dim:
            raise ConfigError(
                f"latent_dim {latent_dim} must equal denoiser cond_dim {denoiser_config.cond_dim}"
            )
        self.schedule = schedule
        self.adapter = ConditionAdapter(rng, latent_dim, latent_tokens)
        self.denoiser = Denoiser(denoiser_config, rng)

    def condition(self, latents) -> Tensor:
        """The condition of latent tokens (B, T, D): the tokens, then the
        adapter's tokens of their mean (B, 4, D)."""
        latents = as_tensor(latents)
        return build_condition(latents, self.adapter(mean_pool_latent(latents)))

    def null_condition(self, batch: int) -> Tensor:
        null = self.adapter.null_cond
        return ad.mul(null.reshape(1, *null.shape), Tensor(np.ones((batch, 1, 1))))

    def velocity(self, x_t, t, raw: Tensor) -> Tensor:
        """The velocity head sigma_t * (alpha_t * x_t - raw) on a raw network output."""
        alpha, sigma = self.schedule.coefficients(t, x_t.shape)
        return ad.mul(sigma, ad.sub(ad.mul(alpha, x_t), raw))

    def denoise(self, x_t, t, condition=None) -> Tensor:
        x_t = as_tensor(x_t)
        cond = self.null_condition(x_t.shape[0]) if condition is None else condition
        return self.velocity(x_t, t, self.denoiser(x_t, t, cond))


def selective_finetune_mask(model: Stage2Model) -> tuple[str, ...]:
    """The sorted names of the parameters stage 2 trains: the adapter's and
    the cross-attention key/value weights, only."""
    names = []
    for name in model.params():
        if name.startswith("adapter."):
            names.append(name)
        elif ".xattn" in name and name.endswith((".k.w", ".v.w")):
            names.append(name)
    return tuple(sorted(names))


def apply_train_mask(model: Stage2Model, mask: tuple[str, ...]) -> dict[str, Tensor]:
    """Freeze every parameter not named in ``mask``; returns the trainable subset."""
    params = model.params()
    unknown = [n for n in mask if n not in params]
    if unknown:
        raise ConfigError(f"mask names absent from model: {unknown}")
    names = set(mask)
    trainable: dict[str, Tensor] = {}
    for name, p in params.items():
        p.requires_grad = name in names
        if p.requires_grad:
            trainable[name] = p
    return trainable


def class_target_latents(classes: int, grid: tuple[int, int, int], seed: int) -> np.ndarray:
    """Per-class unit-RMS target latents, reproducible from the seed.

    Targets are spatially smooth (a coarse random grid of a quarter the
    size per axis, nearest-neighbour upsampled to the grid) so they occupy
    the low-frequency band a small convolutional decoder can actually reach.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 8]))
    c, h, w = grid
    bh, bw = max(1, h // 4), max(1, w // 4)
    coarse = rng.standard_normal((classes, c, bh, bw))
    # fine row i and column j read coarse cell (i * bh // h, j * bw // w);
    # `take` keeps the result C-ordered, so the rms sums in the same order
    lat = np.take(np.take(coarse, np.arange(h) * bh // h, axis=2), np.arange(w) * bw // w, axis=3)
    rms = np.sqrt((lat * lat).mean(axis=(1, 2, 3), keepdims=True))
    return lat / rms


def stage2_step_loss(batch: dict, model: Stage2Model, rng: np.random.Generator, drop_prob: float, gamma: float):
    """The selective-finetuning objective of one batch: ``(total, terms)``.

    ``batch`` carries plain arrays: ``x0`` (B, grid) and ``cond`` latent
    tokens (B, T, D).  Per-sample timesteps, noise, and the
    condition-dropout mask all come from ``rng``; dropped samples get the
    learned null condition.  The loss is ``losses.v_loss`` on
    ``model.schedule``.  Trained by :func:`stage2_train_step` and checked by
    the gradient audit.
    """
    schedule = model.schedule
    x0 = np.asarray(batch["x0"], dtype=np.float64)
    b = x0.shape[0]

    t = rng.integers(0, schedule.steps, size=b)
    eps = rng.standard_normal(x0.shape)
    drop = rng.random(b) < drop_prob

    cond = model.condition(batch["cond"])
    keep = Tensor((~drop).astype(np.float64).reshape(b, 1, 1))
    dropped = Tensor(drop.astype(np.float64).reshape(b, 1, 1))
    cond_used = ad.add(ad.mul(cond, keep), ad.mul(model.null_condition(b), dropped))
    loss = v_loss(Tensor(x0), Tensor(eps), t, cond_used, model.denoise, schedule, gamma)
    return loss, {"v_loss": loss}


def stage2_train_step(
    batch: dict, model: Stage2Model, optimizer, rng: np.random.Generator, drop_prob: float = 0.1, gamma: float = 0.5
) -> float:
    """One selective-finetuning step on :func:`stage2_step_loss`; returns
    the weighted velocity loss."""
    loss, _ = stage2_step_loss(batch, model, rng, drop_prob, gamma)
    optimizer.minimize(loss)
    return float(loss.data)


def sample(
    model: Stage2Model,
    cond_latents,
    scale: float,
    steps: int,
    seed: int = 0,
) -> np.ndarray:
    """Deterministic guided sampling from pure noise.

    Runs the reverse process of ``model.schedule`` over an evenly spaced
    descending subset of its timesteps, combining unconditional and
    conditional velocity predictions at ``scale``.  Each step runs the
    denoiser's condition-free trunk once and its conditioned branch once per
    prediction; scale 0 never evaluates the conditional branch, so its
    output is independent of the conditioning inputs.
    """
    schedule = model.schedule
    cond_latents = np.asarray(cond_latents, dtype=np.float64)
    if cond_latents.ndim != 3:
        raise ShapeError(f"cond_latents must be (batch, T, D), got {cond_latents.shape}")
    total = schedule.steps
    if not (1 <= steps <= total):
        raise ConfigError(f"steps must be in [1, {total}], got {steps}")
    ts = np.round(np.linspace(0, total - 1, steps)).astype(int)[::-1]

    b = cond_latents.shape[0]
    grid = model.denoiser.config.grid
    rng = np.random.default_rng(np.random.SeedSequence([seed, 31]))
    x = rng.standard_normal((b,) + tuple(grid))
    denoiser = model.denoiser

    with ad.no_grad():
        cond = model.condition(cond_latents)
        null = model.null_condition(b)
        scale = float(scale)

        for i, t_cur in enumerate(ts):
            t_arr = np.full(b, t_cur)
            x_t = Tensor(x)
            trunk = denoiser.trunk(x_t, t_arr)
            v_u = model.velocity(x_t, t_arr, denoiser.branch(trunk, null)).data
            if scale == 0.0:
                v = v_u
            else:
                v_c = model.velocity(x_t, t_arr, denoiser.branch(trunk, cond)).data
                v = cfg_combine(v_u, v_c, scale)
            del trunk
            a_cur = float(schedule.alphas[t_cur])
            s_cur = float(schedule.sigmas[t_cur])
            x0_hat = a_cur * x - s_cur * v
            eps_hat = s_cur * x + a_cur * v
            if i + 1 < len(ts):
                t_next = ts[i + 1]
                x = float(schedule.alphas[t_next]) * x0_hat + float(schedule.sigmas[t_next]) * eps_hat
            else:
                x = x0_hat
    return x
