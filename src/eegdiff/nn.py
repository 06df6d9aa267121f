"""Small trainable layers and multi-head attention on the autodiff engine.

Every layer subclasses :class:`Module`, which names its parameters and
buffers from its attributes, so each checkpoint record name is decided in
one place.
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


class Module:
    """Base of every layer: derives record names from the attributes.

    Walking ``vars(self)`` in assignment order, a ``Tensor`` attribute is a
    parameter, an ``ndarray`` attribute a buffer, a ``Module`` attribute a
    child whose names get the attribute name and a dot as prefix, and a list
    of modules one child per item, named with its index (``spatial0``).
    Anything else (``None``, ints, configs, the noise schedule) is not state.
    ``NAMES`` maps the attributes whose record name is not a Python name.
    """

    NAMES: dict[str, str] = {}

    def _walk(self, prefix: str = ""):
        """(record name, value) of each parameter and buffer."""
        for attr, value in vars(self).items():
            name = prefix + self.NAMES.get(attr, attr)
            if isinstance(value, (Tensor, np.ndarray)):
                yield name, value
            elif isinstance(value, Module):
                yield from value._walk(name + ".")
            elif isinstance(value, list):
                for i, child in enumerate(value):
                    if isinstance(child, Module):
                        yield from child._walk(f"{name}{i}.")

    def params(self) -> dict[str, Tensor]:
        return {name: value for name, value in self._walk() if isinstance(value, Tensor)}

    def buffers(self) -> dict[str, np.ndarray]:
        return {name: value for name, value in self._walk() if isinstance(value, np.ndarray)}

    def state(self) -> dict[str, np.ndarray]:
        """A copy of every parameter and buffer by record name."""
        return {name: _array(value).copy() for name, value in self._walk()}

    def load_state(self, state: dict[str, np.ndarray]) -> None:
        """Copy arrays into the parameters and buffers by name.

        ``state`` must hold exactly this module's names: a missing or extra
        name, as from a checkpoint written under another config, raises
        :class:`ConfigError` listing both, and a value of the wrong shape
        raises :class:`ShapeError`.  Nothing is assigned unless all fit.
        """
        entries = dict(self._walk())
        missing, unexpected = sorted(set(entries) - set(state)), sorted(set(state) - set(entries))
        if missing or unexpected:
            raise ConfigError(
                f"state does not match the model (saved under another config?): "
                f"missing {missing}, unexpected {unexpected}"
            )
        for name, value in entries.items():
            if np.shape(state[name]) != value.shape:
                kind = "parameter" if isinstance(value, Tensor) else "buffer"
                raise ShapeError(f"{kind} {name!r} has shape {value.shape}, state provides {np.shape(state[name])}")
        for name, value in entries.items():
            _array(value)[...] = state[name]


def _array(value) -> np.ndarray:
    """The array of a parameter (a ``Tensor``) or of a buffer (an ``ndarray``)."""
    return value.data if isinstance(value, Tensor) else value


def glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int, shape) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


class Linear(Module):
    """Dense map over the last axis: y = x @ w (+ b)."""

    def __init__(self, rng: np.random.Generator, d_in: int, d_out: int, bias: bool = True):
        self.w = Tensor(glorot_uniform(rng, d_in, d_out, (d_in, d_out)), requires_grad=True)
        self.b = Tensor(np.zeros(d_out), requires_grad=True) if bias else None

    def __call__(self, x: Tensor) -> Tensor:
        return ad.linear(x, self.w, self.b)


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


class LayerNorm(Module):
    """Row standardization over the last axis with learned gain and bias."""

    def __init__(self, width: int):
        self.gain = Tensor(np.ones(width), requires_grad=True)
        self.bias = Tensor(np.zeros(width), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return ad.add(ad.mul(ad.standardize(x, -1, LAYER_NORM_EPS), self.gain), self.bias)


class BatchNorm(Module):
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

