"""Small trainable layers and multi-head attention on the autodiff engine.

Modules expose ``params()`` returning ``{name: Tensor}`` and, where they keep
non-trainable state, ``buffers()`` returning ``{name: ndarray}``.  Parents
namespace children with dotted prefixes via :func:`prefixed`.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import ShapeError, Tensor

LAYER_NORM_EPS = 1e-12
BATCH_NORM_EPS = 1e-5
BATCH_NORM_MOMENTUM = 0.9


class ConfigError(ValueError):
    """Invalid model or run configuration."""


def prefixed(prefix: str, entries: dict) -> dict:
    return {f"{prefix}.{name}": value for name, value in entries.items()}


def glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int, shape) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


class Linear:
    """Dense map over the last axis: y = x @ w (+ b)."""

    def __init__(self, rng: np.random.Generator, d_in: int, d_out: int, bias: bool = True):
        self.w = Tensor(glorot_uniform(rng, d_in, d_out, (d_in, d_out)), requires_grad=True)
        self.b = Tensor(np.zeros(d_out), requires_grad=True) if bias else None

    def __call__(self, x: Tensor) -> Tensor:
        return ad.linear(x, self.w, self.b)

    def params(self) -> dict[str, Tensor]:
        out = {"w": self.w}
        if self.b is not None:
            out["b"] = self.b
        return out


def multi_head_attention(q: Tensor, k: Tensor, v: Tensor, heads: int) -> Tensor:
    """Scaled dot-product attention over ``heads`` heads.

    ``q`` is (B, Nq, W) and ``k``, ``v`` are (B, Nk, W), already projected;
    the result is (B, Nq, W) with the heads merged back in order.
    """
    b, n, width = q.shape
    head_dim = width // heads

    def split(x: Tensor) -> Tensor:
        return x.reshape(x.shape[0], x.shape[1], heads, head_dim).transpose(0, 2, 1, 3)

    q, k, v = split(q), split(k), split(v)
    scores = ad.mul(ad.matmul(q, k.transpose(0, 1, 3, 2)), 1.0 / np.sqrt(head_dim))
    att = ad.matmul(ad.softmax(scores, axis=-1), v)
    return att.transpose(0, 2, 1, 3).reshape(b, n, width)


class LayerNorm:
    """Row standardization over the last axis with learned gain and bias."""

    def __init__(self, width: int):
        self.gain = Tensor(np.ones(width), requires_grad=True)
        self.bias = Tensor(np.zeros(width), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return ad.add(ad.mul(ad.standardize(x, -1, LAYER_NORM_EPS), self.gain), self.bias)

    def params(self) -> dict[str, Tensor]:
        return {"gain": self.gain, "bias": self.bias}


class BatchNorm:
    """Feature-wise normalization over axis 0 with running statistics.

    Training mode standardizes with batch statistics and updates running
    mean/variance with momentum ``BATCH_NORM_MOMENTUM``; eval mode applies
    the affine transform implied by the stored statistics.
    """

    def __init__(self, width: int):
        self.gain = Tensor(np.ones(width), requires_grad=True)
        self.bias = Tensor(np.zeros(width), requires_grad=True)
        self.running_mean = np.zeros(width)
        self.running_var = np.ones(width)

    def __call__(self, x: Tensor, training: bool) -> Tensor:
        if x.ndim != 2:
            raise ShapeError(f"batch norm expects (rows, width), got {x.shape}")
        if training:
            if x.shape[0] < 2:
                raise ShapeError("batch norm in training mode needs at least 2 rows")
            normed = ad.standardize(x, 0, BATCH_NORM_EPS)
            m = x.data.mean(axis=0)
            v = x.data.var(axis=0)
            self.running_mean = BATCH_NORM_MOMENTUM * self.running_mean + (1.0 - BATCH_NORM_MOMENTUM) * m
            self.running_var = BATCH_NORM_MOMENTUM * self.running_var + (1.0 - BATCH_NORM_MOMENTUM) * v
        else:
            scale = 1.0 / np.sqrt(self.running_var + BATCH_NORM_EPS)
            normed = ad.mul(ad.sub(x, Tensor(self.running_mean)), Tensor(scale))
        return ad.add(ad.mul(normed, self.gain), self.bias)

    def params(self) -> dict[str, Tensor]:
        return {"gain": self.gain, "bias": self.bias}

    def buffers(self) -> dict[str, np.ndarray]:
        return {"running_mean": self.running_mean, "running_var": self.running_var}

    def load_buffers(self, entries: dict[str, np.ndarray]) -> None:
        self.running_mean = np.array(entries["running_mean"], dtype=np.float64)
        self.running_var = np.array(entries["running_var"], dtype=np.float64)


def assign_state(params: dict[str, Tensor], state: dict[str, np.ndarray], buffers=()) -> None:
    """Copy arrays into parameter tensors by name, validating names and shapes.

    ``state`` must hold exactly the names in ``params`` plus ``buffers`` (the
    non-trainable entries the caller loads itself).  A missing or extra name,
    as from a checkpoint written under another config, raises
    :class:`ConfigError` listing both.
    """
    expected = set(params) | set(buffers)
    missing, unexpected = sorted(expected - set(state)), sorted(set(state) - expected)
    if missing or unexpected:
        raise ConfigError(
            f"state does not match the model (saved under another config?): "
            f"missing {missing}, unexpected {unexpected}"
        )
    for name, tensor in params.items():
        value = np.asarray(state[name], dtype=np.float64)
        if value.shape != tensor.data.shape:
            raise ShapeError(
                f"parameter {name!r} has shape {tensor.data.shape}, state provides {value.shape}"
            )
        tensor.data = value.copy()
