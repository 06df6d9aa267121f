"""Signal autoencoder.

Per-channel temporal features (shared dense map + batch norm + relu with a
residual path), a stack of cross-channel multi-head self-attention blocks,
and a factorized bottleneck that mixes channels into latent tokens and
projects features to the latent width.  The decoder mirrors the bottleneck
and ends in a shared per-channel linear head back to sample space.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import ShapeError, Tensor
from .nn import BatchNorm, LayerNorm, Linear, Module, multi_head_attention


@dataclass
class EncoderConfig:
    """Autoencoder sizes; ``RunConfig.validate`` checks the run's values."""

    channels: int
    samples: int
    latent_tokens: int
    latent_dim: int
    temporal_dim: int = 128
    heads: int = 8
    depth: int = 2


class TemporalBlock(Module):
    """Shared per-channel map samples -> temporal_dim with a residual path.

    Applies dense projection, batch norm over all (batch, channel) rows,
    relu, then adds a linear shortcut from the raw samples.
    """

    def __init__(self, rng: np.random.Generator, samples: int, temporal_dim: int):
        self.proj = Linear(rng, samples, temporal_dim)
        self.bn = BatchNorm(temporal_dim)
        self.shortcut = None if samples == temporal_dim else Linear(rng, samples, temporal_dim, bias=False)

    def __call__(self, x: Tensor, training: bool) -> Tensor:
        if x.ndim != 3:
            raise ShapeError(f"temporal block expects (batch, channels, samples), got {x.shape}")
        b, c, s = x.shape
        flat = x.reshape(b * c, s)
        h = ad.relu(self.bn(self.proj(flat), training))
        skip = flat if self.shortcut is None else self.shortcut(flat)
        return ad.add(h, skip).reshape(b, c, -1)


class SpatialBlock(Module):
    """Multi-head self-attention across channels with post-norm residual."""

    def __init__(self, rng: np.random.Generator, width: int, heads: int):
        self.heads = heads
        self.q = Linear(rng, width, width)
        self.k = Linear(rng, width, width)
        self.v = Linear(rng, width, width)
        self.out = Linear(rng, width, width)
        self.norm = LayerNorm(width)

    def __call__(self, x: Tensor) -> Tensor:
        if x.ndim != 3:
            raise ShapeError(f"spatial block expects (batch, channels, width), got {x.shape}")
        merged = multi_head_attention(self.q(x), self.k(x), self.v(x), self.heads)
        return self.norm(ad.add(x, self.out(merged)))


class SignalAutoencoder(Module):
    """Window (C, S) <-> latent sequence (T, D)."""

    def __init__(self, config: EncoderConfig, rng: np.random.Generator):
        self.config = cfg = config
        self.temporal = TemporalBlock(rng, cfg.samples, cfg.temporal_dim)
        self.spatial = [SpatialBlock(rng, cfg.temporal_dim, cfg.heads) for _ in range(cfg.depth)]
        self.enc_tokens = Linear(rng, cfg.channels, cfg.latent_tokens, bias=False)
        self.enc_feat = Linear(rng, cfg.temporal_dim, cfg.latent_dim)
        self.dec_feat = Linear(rng, cfg.latent_dim, cfg.temporal_dim)
        self.dec_tokens = Linear(rng, cfg.latent_tokens, cfg.channels, bias=False)
        self.dec_head = Linear(rng, cfg.temporal_dim, cfg.samples)

    def encode_batch(self, x, training: bool = False) -> Tensor:
        x = ad.as_tensor(x)
        if x.ndim != 3 or x.shape[1:] != (self.config.channels, self.config.samples):
            raise ShapeError(
                f"encode expects (batch, {self.config.channels}, {self.config.samples}), got {x.shape}"
            )
        h = self.temporal(x, training)
        for block in self.spatial:
            h = block(h)
        mixed = self.enc_tokens(h.transpose(0, 2, 1))  # (B, temporal_dim, T)
        return self.enc_feat(mixed.transpose(0, 2, 1))  # (B, T, D)

    def decode_batch(self, z) -> Tensor:
        z = ad.as_tensor(z)
        if z.ndim != 3 or z.shape[1:] != (self.config.latent_tokens, self.config.latent_dim):
            raise ShapeError(
                f"decode expects (batch, {self.config.latent_tokens}, {self.config.latent_dim}), got {z.shape}"
            )
        h = self.dec_feat(z)  # (B, T, temporal_dim)
        mixed = self.dec_tokens(h.transpose(0, 2, 1))  # (B, temporal_dim, C)
        return self.dec_head(mixed.transpose(0, 2, 1))  # (B, C, S)


def mean_pool_latent(latent) -> Tensor:
    """Mean over the token axis: (..., T, D) -> (..., D)."""
    latent = ad.as_tensor(latent)
    if latent.ndim < 2:
        raise ShapeError(f"mean_pool_latent expects at least (T, D), got {latent.shape}")
    return ad.mean(latent, axis=-2)
