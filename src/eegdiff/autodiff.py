"""Reverse-mode automatic differentiation over float64 numpy arrays.

A :class:`Tensor` wraps an ``np.ndarray`` and records, for every operation,
its parent tensors and one vector-Jacobian product (VJP) per parent.
Calling :meth:`Tensor.backward` on a scalar walks the recorded graph in
reverse topological order and accumulates gradients into ``.grad`` for
every leaf created with ``requires_grad=True``.

Design notes:

* everything is float64; inputs are coerced on construction,
* the non-finite probe runs where a NaN/Inf can be born: on every leaf and
  on every op that can turn finite inputs non-finite (arithmetic,
  ``exp``/``log``/``power``, ``matmul``/``linear``, reductions and
  normalizers), which raises :class:`NonFiniteError` naming the op
  (overflowing ops error rather than clamp).  Copy, selection and bounded
  ops (:data:`FINITE_PRESERVING`) skip it: their inputs were probed when
  they were made,
* an op extends the graph only when some input has ``requires_grad`` and
  gradients are enabled; inside :func:`no_grad` no op records parents, so
  eval-mode passes build no graph,
* an op hands :func:`_make` its result, its parents and a VJP per parent:
  a pure function from the output gradient to that parent's gradient,
  which may broadcast wider than the parent.  The VJP computes whatever
  only the backward pass needs, so no-graph passes never pay for it,
* one rule decides who gets a gradient: the engine runs a parent's VJP,
  unbroadcasts its result and accumulates it only when that parent has
  ``requires_grad``, so frozen weights and constants cost no backward work
  (the activity analysis of Griewank & Walther).  No op repeats that check,
* graphs are acyclic: a VJP receives the output gradient as its argument
  and holds input tensors and arrays, never its own output, so reference
  counting frees a graph as soon as its root is dropped,
* a node adopts its first incoming gradient array as its ``.grad`` when the
  array is writeable and has the node's data strides, and copies it
  otherwise; later contributions are summed into fresh arrays.  So ``.grad``
  arrays may share memory with each other (an ``add`` hands one array to
  both operands): read them, never write them in place,
* gradient lifetime: an op result's ``.grad`` lives only until its VJPs
  have run, then the walk drops it (root included), so after
  ``backward()`` only leaves hold a ``.grad``, as in PyTorch's autograd,
* ``backward()`` resets the gradients of the graph it walks before
  accumulating, so calling it twice yields identical results.

Primitives: elementwise ``add``/``sub``/``mul``/``div``/``power``/``exp``/
``log``/``abs_``/``minimum``/``relu``/``sigmoid``; ``matmul``; ``linear``,
the affine map behind ``nn.Linear``; ``conv3x3``, the same-padding 3x3
convolution behind ``diffusion.Conv3x3``, which with ``upsample`` convolves
the nearest-neighbour 2x upsampled input at the input's resolution (the
denoiser's ``up`` layer) and whose graph keeps its input and weight but
never a patch matrix or folded kernel; reductions and normalizers
``sum_``/``mean``/``softmax``/``cosine_similarity`` and ``standardize``,
behind ``nn.LayerNorm`` and ``nn.BatchNorm``; and structural ``reshape``/
``transpose``/``concat``.  ``pad_last2``/``crop_last2`` no longer serve
any model: they remain only because the benchmark tracer wraps them by name
and the reference ``Conv3x3`` of the tests is built from them.
"""

from __future__ import annotations

from contextlib import contextmanager
from functools import partial
from typing import Callable, Iterable, Sequence

import numpy as np


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


class NonFiniteError(FloatingPointError):
    """An operation produced NaN or Inf."""


# Ops whose outputs are copies, selections or bounded maps of their inputs:
# finite inputs, which were probed when they were made, give finite outputs.
FINITE_PRESERVING = frozenset(
    {"reshape", "transpose", "concat", "pad_last2", "crop_last2", "relu", "abs", "minimum", "sigmoid", "softmax"}
)

_grad_enabled = True


@contextmanager
def no_grad():
    """Build no graph inside the block: every op result is a constant."""
    global _grad_enabled
    saved, _grad_enabled = _grad_enabled, False
    try:
        yield
    finally:
        _grad_enabled = saved


def _check_finite(arr: np.ndarray, op: str) -> None:
    if arr.size == 0:
        return
    # min and max propagate NaN and reach any Inf: two scalar tests instead
    # of a full boolean temporary.  (Their sum would overflow on finite
    # values near the float64 limit.)
    if not (np.isfinite(arr.min()) and np.isfinite(arr.max())):
        raise NonFiniteError(f"operation '{op}' produced non-finite values")


class Tensor:
    """Node in a dynamically recorded computation graph.

    Parameters
    ----------
    data : array-like
        Coerced to a float64 ``np.ndarray``.
    requires_grad : bool
        Whether gradients should be accumulated into this tensor.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_op")

    def __init__(self, data, requires_grad: bool = False, _op: str = "leaf"):
        self.data = np.asarray(data, dtype=np.float64)
        if _op not in FINITE_PRESERVING:
            _check_finite(self.data, _op)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], None] | None = None
        self._op = _op

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    # -- graph construction ------------------------------------------------

    def _accumulate(self, g: np.ndarray) -> None:
        """Add the gradient contribution ``g`` to ``.grad``.

        The first contribution is adopted as ``.grad`` itself when it is
        writeable and laid out like ``.data`` (equal strides); otherwise it
        is copied into a fresh ``np.empty_like(self.data)``.  Each later
        contribution is summed into another fresh array.  No gradient array
        is ever written in place, because an adopted ``g`` may be the
        gradient of another node or a view of it.  For the dense ``.data``
        that ops produce, both layouts are the one ``np.zeros_like`` gives,
        so the GEMMs and reductions that read ``.grad`` see the operands a
        zero-filled buffer would give them, with the values of
        ``0 + g1 + g2 + ...``.
        """
        if self.grad is not None:
            self.grad = np.add(self.grad, g, out=np.empty_like(self.data))
        elif g.strides == self.data.strides and g.flags.writeable:
            self.grad = g
        else:
            self.grad = np.add(g, 0.0, out=np.empty_like(self.data))

    def backward(self) -> None:
        """Backpropagate from a scalar root into the ``.grad`` of every
        ``requires_grad`` leaf the graph reaches.

        Each op result's ``.grad`` is dropped as soon as its VJPs have run,
        so the walk holds only the gradients still to be consumed.
        Gradients are reset before accumulation, so repeated calls give
        identical results.  A tensor outside the graph keeps its ``.grad``.
        """
        if self.data.size != 1:
            raise ShapeError(f"backward() requires a scalar root, got shape {self.shape}")

        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in seen:
                    stack.append((parent, False))

        for node in order:
            node.grad = None
        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
                node.grad = None

    def reshape(self, *shape: int) -> "Tensor":
        return reshape(self, shape)

    def transpose(self, *axes: int) -> "Tensor":
        return transpose(self, axes)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _make(
    data: np.ndarray, parents: Sequence[Tensor], vjps: Sequence[Callable[[np.ndarray], np.ndarray]], op: str
) -> Tensor:
    """Wrap an op result and, when it joins the graph, record how to
    backpropagate through it.

    ``vjps[i]`` maps the output gradient ``g`` to the gradient of
    ``parents[i]``, before unbroadcasting to that parent's shape.  A VJP is
    pure: it reads ``g`` and the op's inputs, never the output tensor, and
    computes whatever only the backward pass needs, so no-graph passes skip
    that work.  :func:`_propagate` decides which parents get a gradient.
    """
    out = Tensor(data, _op=op)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = partial(_propagate, out._parents, tuple(vjps))
    return out


def _propagate(parents: tuple[Tensor, ...], vjps: tuple, g: np.ndarray) -> None:
    """Run each VJP whose parent requires a gradient, unbroadcast its result
    to the parent's shape and accumulate it; frozen parents cost nothing."""
    for parent, vjp in zip(parents, vjps):
        if parent.requires_grad:
            parent._accumulate(_unbroadcast(vjp(g), parent.data.shape))


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (g, s) in enumerate(zip(grad.shape, shape)) if s == 1 and g != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


# -- elementwise arithmetic -----------------------------------------------


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return _make(a.data + b.data, (a, b), (lambda g: g, lambda g: g), "add")


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return _make(a.data - b.data, (a, b), (lambda g: g, lambda g: -g), "sub")


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return _make(a.data * b.data, (a, b), (lambda g: g * b.data, lambda g: g * a.data), "mul")


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return _make(
        a.data / b.data,
        (a, b),
        (lambda g: g / b.data, lambda g: -g * a.data / (b.data * b.data)),
        "div",
    )


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul requires ndim >= 2 operands, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner dims differ: {a.shape} @ {b.shape}")
    return _make(
        np.matmul(a.data, b.data),
        (a, b),
        (
            lambda g: np.matmul(g, np.swapaxes(b.data, -1, -2)),
            lambda g: np.matmul(np.swapaxes(a.data, -1, -2), g),
        ),
        "matmul",
    )


def linear(x, w, b=None) -> Tensor:
    """Affine map ``x @ w (+ b)`` as one node: the bias is added in place
    into the fresh GEMM output, so the layer makes one (..., N) array, one
    probe and one graph node.  Values equal those of
    ``add(matmul(x, w), b)``.  Each VJP is one 2-D GEMM over the rows of
    all leading axes: ``x``'s gradient is ``g.reshape(-1, N) @ w.T`` and
    ``w``'s is ``x.reshape(-1, K).T @ g.reshape(-1, N)``.  For 2-D ``x``
    these are that composite's gradients; for ndim >= 3 they differ from
    its batched products only in rounding.
    """
    x, w = as_tensor(x), as_tensor(w)
    if x.ndim < 2 or w.ndim != 2:
        raise ShapeError(f"linear requires x of ndim >= 2 and a 2-D weight, got {x.shape} @ {w.shape}")
    if x.shape[-1] != w.shape[0]:
        raise ShapeError(f"linear inner dims differ: {x.shape} @ {w.shape}")
    data = np.matmul(x.data, w.data)
    parents = [x, w]
    vjps = [
        lambda g: np.matmul(g.reshape(-1, w.shape[1]), w.data.T).reshape(x.shape),
        lambda g: np.matmul(x.data.reshape(-1, w.shape[0]).T, g.reshape(-1, w.shape[1])),
    ]
    if b is not None:
        b = as_tensor(b)
        if b.shape != w.shape[1:]:
            raise ShapeError(f"linear bias {b.shape} does not match the weight {w.shape}")
        np.add(data, b.data, out=data)
        parents.append(b)
        vjps.append(lambda g: g)
    return _make(data, parents, vjps, "linear")


def power(x, exponent: float) -> Tensor:
    x = as_tensor(x)
    p = float(exponent)
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        data = x.data ** p

    def vjp(g):
        if p == 0.0:
            return np.zeros_like(x.data)
        return g * p * x.data ** (p - 1.0)

    return _make(data, (x,), (vjp,), "power")


def exp(x) -> Tensor:
    x = as_tensor(x)
    with np.errstate(over="ignore"):
        data = np.exp(x.data)
    return _make(data, (x,), (lambda g: g * data,), "exp")


def log(x) -> Tensor:
    x = as_tensor(x)
    with np.errstate(divide="ignore", invalid="ignore"):
        data = np.log(x.data)
    return _make(data, (x,), (lambda g: g / x.data,), "log")


def abs_(x) -> Tensor:
    """Elementwise absolute value; subgradient 0 at 0."""
    x = as_tensor(x)
    return _make(np.abs(x.data), (x,), (lambda g: g * np.sign(x.data),), "abs")


def minimum(a, b) -> Tensor:
    """Elementwise minimum; ties route the gradient to the first argument."""
    a, b = as_tensor(a), as_tensor(b)
    return _make(
        np.minimum(a.data, b.data),
        (a, b),
        (lambda g: g * (a.data <= b.data), lambda g: g * (1.0 - (a.data <= b.data))),
        "minimum",
    )


def relu(x) -> Tensor:
    x = as_tensor(x)
    return _make(np.maximum(x.data, 0.0), (x,), (lambda g: g * (x.data > 0.0),), "relu")


def sigmoid(x) -> Tensor:
    x = as_tensor(x)
    z = np.exp(-np.abs(x.data))
    data = np.where(x.data >= 0.0, 1.0 / (1.0 + z), z / (1.0 + z))
    return _make(data, (x,), (lambda g: g * data * (1.0 - data),), "sigmoid")


# -- reductions and normalizers -------------------------------------------


def _norm_axes(axis, ndim: int):
    if axis is None:
        return None
    if isinstance(axis, int):
        axis = (axis,)
    return tuple(a % ndim for a in axis)


def sum_(x, axis=None, keepdims: bool = False) -> Tensor:
    x = as_tensor(x)
    axes = _norm_axes(axis, x.ndim)

    def vjp(g):
        if not keepdims and axes is not None:
            g = np.expand_dims(g, axes)
        return np.broadcast_to(g, x.data.shape)

    return _make(x.data.sum(axis=axes, keepdims=keepdims), (x,), (vjp,), "sum")


def mean(x, axis=None, keepdims: bool = False) -> Tensor:
    x = as_tensor(x)
    axes = _norm_axes(axis, x.ndim)
    count = x.data.size if axes is None else int(np.prod([x.data.shape[a] for a in axes]))

    def vjp(g):
        g = g / count
        if not keepdims and axes is not None:
            g = np.expand_dims(g, axes)
        return np.broadcast_to(g, x.data.shape)

    return _make(x.data.mean(axis=axes, keepdims=keepdims), (x,), (vjp,), "mean")


def softmax(x, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    x = as_tensor(x)
    # Row max as a running maximum over the slices along ``axis``: numpy's
    # max reduction over a short axis is several times slower, and a
    # maximum does not round, so the values are the same.
    slices = np.moveaxis(x.data, axis, 0)
    row_max = np.array(slices[0])  # a 0-d array, not a scalar, for 1-d x
    for s in slices[1:]:
        np.maximum(row_max, s, out=row_max)
    shifted = x.data - np.expand_dims(row_max, axis)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)
    return _make(y, (x,), (lambda g: y * (g - (g * y).sum(axis=axis, keepdims=True)),), "softmax")


def standardize(x, axis, eps: float) -> Tensor:
    """(x - mean) / sqrt(var + eps) over ``axis`` (int or tuple), biased var."""
    x = as_tensor(x)
    axes = _norm_axes(axis, x.ndim)
    mu = x.data.mean(axis=axes, keepdims=True)
    centered = x.data - mu
    # An overflowing variance would turn ``inv`` into 0 and the output into
    # finite zeros, which the output probe cannot see: probe it here.
    with np.errstate(over="ignore"):
        var = (centered * centered).mean(axis=axes, keepdims=True)
    _check_finite(var, "standardize")
    inv = 1.0 / np.sqrt(var + eps)
    y = centered * inv

    def vjp(g):
        gm = g.mean(axis=axes, keepdims=True)
        gy = (g * y).mean(axis=axes, keepdims=True)
        return inv * (g - gm - y * gy)

    return _make(y, (x,), (vjp,), "standardize")


def cosine_similarity(a, b, eps: float = 1e-12) -> Tensor:
    """Cosine similarity over the last axis with epsilon-guarded norms.

    Supports numpy broadcasting across leading axes, e.g. (N,1,D) against
    (1,M,D) yields an (N,M) similarity matrix.
    """
    a, b = as_tensor(a), as_tensor(b)
    if a.shape[-1] != b.shape[-1]:
        raise ShapeError(f"cosine_similarity last dims differ: {a.shape} vs {b.shape}")
    ad, bd = a.data, b.data
    dot = (ad * bd).sum(axis=-1, keepdims=True)
    na = np.sqrt((ad * ad).sum(axis=-1, keepdims=True))
    nb = np.sqrt((bd * bd).sum(axis=-1, keepdims=True))
    q = (na + eps) * (nb + eps)
    y = dot / q

    def vjp(u, v, nu):
        """Gradient for the operand ``u`` with norm ``nu``; ``v`` is the other."""
        return lambda g: g[..., None] * (v / q - y * u / (np.where(nu > 0.0, nu, 1.0) * (nu + eps)))

    return _make(y[..., 0], (a, b), (vjp(ad, bd, na), vjp(bd, ad, nb)), "cosine_similarity")


# -- structural ops --------------------------------------------------------


def reshape(x, shape: tuple[int, ...]) -> Tensor:
    x = as_tensor(x)
    return _make(x.data.reshape(shape), (x,), (lambda g: g.reshape(x.data.shape),), "reshape")


def transpose(x, axes: tuple[int, ...]) -> Tensor:
    x = as_tensor(x)
    axes = tuple(a % x.ndim for a in axes)
    inverse = tuple(np.argsort(axes))
    return _make(np.transpose(x.data, axes), (x,), (lambda g: np.transpose(g, inverse),), "transpose")


def concat(tensors: Iterable, axis: int = 0) -> Tensor:
    parts = [as_tensor(t) for t in tensors]
    if not parts:
        raise ShapeError("concat of an empty sequence")
    data = np.concatenate([p.data for p in parts], axis=axis)
    ax = axis % data.ndim
    lead = (slice(None),) * ax
    offsets = np.cumsum([0] + [p.data.shape[ax] for p in parts])
    vjps = [lambda g, sl=lead + (slice(lo, hi),): g[sl] for lo, hi in zip(offsets[:-1], offsets[1:])]
    return _make(data, parts, vjps, "concat")


def pad_last2(x, pad: int) -> Tensor:
    """Zero-pad the last two axes by ``pad`` on every side."""
    x = as_tensor(x)
    if x.ndim < 2:
        raise ShapeError(f"pad_last2 requires ndim >= 2, got {x.shape}")
    if pad < 0:
        raise ShapeError("pad must be non-negative")
    width = [(0, 0)] * (x.ndim - 2) + [(pad, pad), (pad, pad)]
    h, w = x.shape[-2:]
    return _make(
        np.pad(x.data, width), (x,), (lambda g: g[..., pad : pad + h, pad : pad + w],), "pad_last2"
    )


def crop_last2(x, top: int, left: int, height: int, width: int) -> Tensor:
    """Slice a (height, width) window out of the last two axes."""
    x = as_tensor(x)
    if x.ndim < 2:
        raise ShapeError(f"crop_last2 requires ndim >= 2, got {x.shape}")
    if top < 0 or left < 0 or top + height > x.shape[-2] or left + width > x.shape[-1]:
        raise ShapeError(f"crop window out of bounds for {x.shape}")
    sl = (Ellipsis, slice(top, top + height), slice(left, left + width))

    def vjp(g):
        full = np.zeros_like(x.data)
        full[sl] = g
        return full

    return _make(x.data[sl], (x,), (vjp,), "crop_last2")


# Window offset d = 0, 1, 2 moves output row i to input row i + d - 1: the
# (output rows, input rows) slices of that shift that stay inside the image.
_IM2COL_SPANS = (
    (slice(1, None), slice(None, -1)),
    (slice(None), slice(None)),
    (slice(None, -1), slice(1, None)),
)

# Per-axis phase-tap tables of conv3x3, keyed by ``upsample``: output row
# s*i + p (p the phase of s) reads input rows i + p + t - 1 for the k taps t
# of its kernel, and the 3x3 tap d folds into tap [p][d].  The plain conv is
# one phase whose taps fold into themselves; a row 2i + p of the 2x upsampled
# map reads coarse rows i + p - 1 and i + p (phase 0: taps 0 | 1+2, phase 1:
# 0+1 | 2).
_PHASE_TAPS = {False: ((0, 1, 2),), True: ((0, 1, 1), (0, 0, 1))}

# The forward GEMMs of conv3x3 run over blocks of whole images, one GEMM per
# phase and block, each of at least this many patch rows, so guided
# sampling at batch 64 copies at most 4.7 MB of patches at a time instead
# of 18.9 MB.  Measured with OpenBLAS 0.3.31 (one thread) on (4096 or 8192, K) @ (K, N)
# at the six (K, N) of the default denoiser's plain convs: row blocks of
# 1024 and 2048 rows rounded like the unblocked product in every case, while
# blocks of 64 to 896 rows rounded differently for (K, N) = (288, 4), the
# output conv.  The upsampling phases count rows of the coarse map: at the
# default 4x4 one a block holds 64 images, so the default training and
# sampling batches (16 and 64) run each phase as one GEMM.
CONV_BLOCK_ROWS = 1024


def _pad_channel_last(x: np.ndarray) -> np.ndarray:
    """The (B, H+2, W+2, C) channel-last copy of a (B, C, H, W) array with a
    one-pixel zero border."""
    n, c, h, w = x.shape
    padded = np.zeros((n, h + 2, w + 2, c))
    padded[:, 1:-1, 1:-1, :] = x.transpose(0, 2, 3, 1)
    return padded


def _patches(padded: np.ndarray, k: int, p: int, q: int, column_major: bool) -> np.ndarray:
    """The (n*H*W, k*k*C) patch matrix at phase corner (p, q) of a
    :func:`_pad_channel_last` (n, H+2, W+2, C) array (Chellapilla et al.
    2006).

    Row ``(b, i, j)`` holds ``x[b, c, i+p+ty-1, j+q+tx-1]`` at column
    ``(ty*k + tx)*C + c``, zero outside the image: one copy out of a strided
    k x k window view of the padded rows and columns that the phase reads.
    """
    n, h, w, c = padded.shape[0], padded.shape[1] - 2, padded.shape[2] - 2, padded.shape[3]
    windows = np.lib.stride_tricks.sliding_window_view(padded[:, p : p + h + k - 1, q : q + w + k - 1], (k, k), axis=(1, 2))
    cols = windows.transpose(0, 1, 2, 4, 5, 3).reshape(n * h * w, k * k * c)
    if column_major:
        # Conv3x3 outputs at batch 1 have always come from a column-major
        # patch matrix; BLAS rounds each layout differently, so keep it.
        cols = np.asfortranarray(cols)
    return cols


def _phase_kernel(w: np.ndarray, taps_y: tuple, taps_x: tuple) -> np.ndarray:
    """The (k*k*C, N) kernel of the phase with per-axis taps ``taps_y`` and
    ``taps_x``: the 3x3 taps of the (9*C, N) weight ``w`` summed into k x k
    in ascending (dy, dx) order.  The plain conv's taps fold into
    themselves, so its kernel is ``w``."""
    k = taps_y[-1] + 1
    if k == 3:
        return w
    w3 = w.reshape(3, 3, -1, w.shape[1])
    folded = np.zeros((k, k) + w3.shape[2:])
    for dy, ty in enumerate(taps_y):
        for dx, tx in enumerate(taps_x):
            folded[ty, tx] += w3[dy, dx]
    return folded.reshape(-1, w.shape[1])


def conv3x3(x, w, b, upsample: bool = False) -> Tensor:
    """Same-padding 3x3 convolution of a (B, C, H, W) tensor as one node;
    with ``upsample``, the same convolution of its nearest-neighbour 2x
    upsampling, computed at the input's resolution (sub-pixel convolution,
    Shi et al. 2016).

    ``w`` is (9*C, N) with rows ordered (dy, dx, c) and ``b`` is (N,).  The
    output is s x s phases (s = 2 with ``upsample``, else 1), the pixels
    (s*i + p, s*j + q); phase (p, q) is a k x k convolution of ``x`` whose
    taps are sums of the 3x3 taps (:data:`_PHASE_TAPS`): k = 3 and the taps
    themselves for the plain conv, k = 2 for the upsampling one.  The
    forward pass pads each block of images (:data:`CONV_BLOCK_ROWS`) once
    and, per phase, multiplies its patch matrix (see :func:`_patches`) by
    the folded kernel and adds the bias into one channel-last
    (B, H, s, W, s, N) buffer, returned as its (B, N, s*H, s*W) view.  The VJPs keep ``x`` and ``w``, never the patches
    or the folded kernels:

    * ``x``: each phase's ``g @ kernel.T``, its taps added at their offsets
      in ascending order into one zeroed channel-last buffer, returned as
      its (B, C, H, W) view, which the engine adopts without a copy when
      ``x`` is itself channel-last;
    * ``w``: each phase's patch matrix, rebuilt from ``x`` in one piece,
      transposed times ``g`` (recompute instead of store, Chen et al. 2016),
      every phase tap's gradient added back to the 3x3 taps it sums;
    * ``b``: ``g`` as (B*s*s*H*W, N) rows, which the engine sums.

    The plain conv's values and gradients equal those of the patch unfold,
    ``linear``, ``reshape`` and ``transpose`` it replaces; the upsampling
    conv's differ from the plain conv of the upsampled input only by the
    rounding of the folded taps.
    """
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    if x.ndim != 4:
        raise ShapeError(f"conv3x3 requires x of (batch, channels, H, W), got {x.shape}")
    n, c, h, wd = x.shape
    if w.ndim != 2 or w.shape[0] != 9 * c:
        raise ShapeError(f"conv3x3 weight {w.shape} does not match {c} input channels")
    if b.shape != w.shape[1:]:
        raise ShapeError(f"conv3x3 bias {b.shape} does not match the weight {w.shape}")
    taps = _PHASE_TAPS[upsample]
    s, k = len(taps), taps[0][-1] + 1
    phases = [(p, q) for p in range(s) for q in range(s)]
    c_out, hw = w.shape[1], h * wd
    out = np.empty((n, h, s, wd, s, c_out))
    # Whole images of at least CONV_BLOCK_ROWS rows; a short tail joins the
    # block before it.
    per = -(-CONV_BLOCK_ROWS // hw)
    bounds = [i * per for i in range(max(1, n // per))] + [n]
    # a tap sum or a product may overflow: the output probe names the op
    with np.errstate(over="ignore", invalid="ignore"):
        kernels = [_phase_kernel(w.data, taps[p], taps[q]) for p, q in phases]
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            padded = _pad_channel_last(x.data[lo:hi])
            for (p, q), kernel in zip(phases, kernels):
                block = out[lo:hi, :, p, :, q]
                # the one phase of a plain conv is contiguous: its GEMM writes it in place
                rows = np.matmul(_patches(padded, k, p, q, n == 1), kernel, out=block.reshape(-1, c_out) if s == 1 else None)
                np.add(rows.reshape(block.shape), b.data, out=block)

    def g_phases(g):
        """Each phase's (B*H*W, N) output-gradient rows, one at a time."""
        g6 = g.transpose(0, 2, 3, 1).reshape(n, h, s, wd, s, c_out)
        return (g6[:, :, p, :, q].reshape(n * hw, c_out) for p, q in phases)

    def x_vjp(g):
        acc = np.zeros((n, h, wd, c))
        for (p, q), g_pq in zip(phases, g_phases(g)):
            g_cols = np.matmul(g_pq, _phase_kernel(w.data, taps[p], taps[q]).T).reshape(n, h, wd, k, k, c)
            # tap (ty, tx) of phase (p, q) reads x at offset (p + ty - 1, q + tx - 1)
            for ty in range(k):
                src_y, dst_y = _IM2COL_SPANS[p + ty]
                for tx in range(k):
                    src_x, dst_x = _IM2COL_SPANS[q + tx]
                    acc[:, dst_y, dst_x, :] += g_cols[:, src_y, src_x, ty, tx, :]
        return acc.transpose(0, 3, 1, 2)

    def w_vjp(g):
        padded = _pad_channel_last(x.data)
        grad = np.zeros((3, 3, c, c_out))
        for (p, q), g_pq in zip(phases, g_phases(g)):
            g_taps = np.matmul(_patches(padded, k, p, q, n == 1).T, g_pq).reshape(k, k, c, c_out)
            grad += g_taps[taps[p], :][:, taps[q]]
        return grad.reshape(9 * c, c_out)

    return _make(
        out.reshape(n, s * h, s * wd, c_out).transpose(0, 3, 1, 2),
        (x, w, b),
        (x_vjp, w_vjp, lambda g: g.transpose(0, 2, 3, 1).reshape(n * s * s * hw, c_out)),
        "conv3x3",
    )


# -- gradient checking -----------------------------------------------------


def _central_differences(array: np.ndarray, value: Callable[[], float], epsilon: float) -> np.ndarray:
    """Central-difference gradient of ``value()`` in every entry of
    ``array``, which is perturbed in place by ``epsilon`` and restored."""
    if not (0.0 < epsilon <= 1e-2):
        raise ValueError(f"epsilon must be in (0, 1e-2], got {epsilon}")
    numeric = np.zeros_like(array)
    for i in np.ndindex(array.shape):
        orig = array[i]
        array[i] = orig + epsilon
        hi = value()
        array[i] = orig - epsilon
        lo = value()
        array[i] = orig
        numeric[i] = (hi - lo) / (2.0 * epsilon)
    return numeric


def grad_check(fn: Callable[[Tensor], Tensor], point, epsilon: float = 1e-5) -> float:
    """Compare analytic and central-difference gradients of a scalar map.

    Returns ``max |a - n| / max(1e-8, |a| + |n|)`` over all entries of the
    input, where ``a`` is the backpropagated gradient and ``n`` the numeric
    one at step ``epsilon``.
    """
    base = np.array(point.data if isinstance(point, Tensor) else point, dtype=np.float64)

    x = Tensor(base.copy(), requires_grad=True)
    out = fn(x)
    if out.data.size != 1:
        raise ShapeError(f"grad_check target must be scalar, got shape {out.shape}")
    out.backward()
    analytic = np.zeros_like(base) if x.grad is None else x.grad.copy()
    numeric = _central_differences(base, lambda: float(fn(Tensor(base.copy())).data.reshape(())), epsilon)

    denom = np.maximum(1e-8, np.abs(analytic) + np.abs(numeric))
    return float(np.max(np.abs(analytic - numeric) / denom)) if base.size else 0.0


def grad_check_params(loss: Callable[[], Tensor], params: dict[str, Tensor], epsilon: float = 1e-5) -> float:
    """Compare the backpropagated gradient of the scalar ``loss()`` in
    ``params`` with central differences taken on the parameters' own arrays.

    Returns ``max |a - n| / max(1e-8, max |a| + max |n|)``, each maximum
    over every entry of every parameter: one score for the whole step
    gradient, so an entry that is zero in exact arithmetic (a bias before a
    normalization) cannot turn difference noise into a full error.
    """
    for p in params.values():
        p.grad = None
    loss().backward()
    analytic = np.concatenate([np.zeros(p.data.size) if p.grad is None else p.grad.ravel() for p in params.values()])
    with no_grad():
        numeric = np.concatenate(
            [_central_differences(p.data, lambda: float(loss().data.reshape(())), epsilon).ravel() for p in params.values()]
        )
    scale = np.max(np.abs(analytic), initial=0.0) + np.max(np.abs(numeric), initial=0.0)
    return float(np.max(np.abs(analytic - numeric), initial=0.0) / max(1e-8, scale))
