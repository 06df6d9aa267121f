import ast
import functools
import gc
import inspect
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from conftest import tiny_config
from eegdiff import autodiff as ad
from eegdiff.autodiff import NonFiniteError, ShapeError, Tensor
from eegdiff.diffusion import Conv3x3, apply_train_mask, selective_finetune_mask, stage2_step_loss, stage2_train_step
from eegdiff.encoder import SignalAutoencoder
from eegdiff.losses import v_loss
from eegdiff.training import Adam, RunConfig, build_stage2_model, gradient_suite, primitive_cases, stage1_step_loss


def test_tensor_basics(rng):
    t = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    assert t.shape == (2, 3)
    assert t.ndim == 2


def test_tensor_casts_to_float64():
    t = Tensor(np.arange(4, dtype=np.int32))
    assert t.data.dtype == np.float64


def test_scalar_broadcast_arithmetic():
    x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    y = ad.power(ad.sub(ad.add(ad.mul(2.0, x), 1.0), ad.div(x, 2.0)), 2.0)
    loss = ad.sum_(y)
    loss.backward()
    v = np.array([1.0, 2.0])
    expected = 2.0 * (1.5 * v + 1.0) * 1.5
    np.testing.assert_allclose(x.grad, expected, rtol=1e-12)


def test_backward_requires_scalar_root():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(ShapeError):
        ad.mul(x, 2.0).backward()


def test_backward_twice_is_idempotent(rng):
    x = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
    loss = ad.sum_(ad.mul(x, ad.sigmoid(x)))
    loss.backward()
    g1 = x.grad.copy()
    loss.backward()
    g2 = x.grad
    np.testing.assert_array_equal(g1, g2)


def test_graph_pruned_without_requires_grad(rng):
    x = Tensor(rng.normal(size=(2, 2)))
    y = ad.relu(x)
    assert y._parents == ()
    assert y._backward is None


def test_no_grad_builds_no_graph_nests_and_restores(rng):
    x = Tensor(rng.normal(size=(2, 2)), requires_grad=True)
    with ad.no_grad():
        y = ad.mul(x, 2.0)
        with ad.no_grad():
            pass
        z = ad.relu(x)  # still off after the inner block closed
    for t in (y, z):
        assert t._parents == () and t._backward is None and not t.requires_grad
    with pytest.raises(RuntimeError), ad.no_grad():
        raise RuntimeError("boom")
    after = ad.mul(x, 2.0)
    assert after.requires_grad and after._parents[0] is x


def test_broadcast_gradients_unbroadcast(rng):
    a = Tensor(rng.normal(size=(3, 1)), requires_grad=True)
    b = Tensor(rng.normal(size=(1, 4)), requires_grad=True)
    ad.sum_(ad.mul(a, b)).backward()
    np.testing.assert_allclose(a.grad, np.full((3, 1), b.data.sum()), rtol=1e-12)
    np.testing.assert_allclose(b.grad, np.full((1, 4), a.data.sum()), rtol=1e-12)


# Every primitive with more than one parent, on operand shapes that
# broadcast against each other (concat: parts of different lengths).
MULTI_PARENT = {
    "add": (ad.add, [(3, 1), (1, 4)]),
    "sub": (ad.sub, [(3, 4), (4,)]),
    "mul": (ad.mul, [(2, 3, 1), (3, 4)]),
    "div": (ad.div, [(3, 1), (2, 3, 4)]),
    "matmul": (ad.matmul, [(2, 3, 4), (4, 5)]),
    "linear": (ad.linear, [(2, 3, 4), (4, 5), (5,)]),
    "conv3x3": (ad.conv3x3, [(2, 3, 4, 5), (27, 2), (2,)]),
    "upsample_conv3x3": (functools.partial(ad.conv3x3, upsample=True), [(2, 3, 2, 3), (27, 2), (2,)]),
    "minimum": (ad.minimum, [(3, 4), (1, 4)]),
    "cosine_similarity": (ad.cosine_similarity, [(3, 1, 5), (1, 4, 5)]),
    "concat": (lambda *parts: ad.concat(parts, axis=1), [(2, 1, 3), (2, 2, 3), (2, 3, 3)]),
}


@pytest.mark.parametrize("op", sorted(MULTI_PARENT))
def test_engine_skips_frozen_parents(op, rng):
    fn, shapes = MULTI_PARENT[op]
    values = [rng.uniform(0.5, 2.0, size=shape) for shape in shapes]
    weight = rng.normal(size=fn(*map(Tensor, values)).shape)

    def grads(trainable):
        inputs = [Tensor(v, requires_grad=i in trainable) for i, v in enumerate(values)]
        ad.sum_(ad.mul(fn(*inputs), weight)).backward()
        return [t.grad for t in inputs]

    reference = grads(range(len(values)))
    gc.collect()
    gc.disable()
    try:
        for k in range(1, len(values) + 1):
            for trainable in itertools.combinations(range(len(values)), k):
                for i, grad in enumerate(grads(trainable)):
                    if i in trainable:
                        assert np.array_equal(grad, reference[i]), (trainable, i)
                    else:
                        assert grad is None, (trainable, i)
                # reference counting alone freed the graph
                assert gc.collect() == 0
    finally:
        gc.enable()


def zero_fill_accumulate(self, g):
    """Reference accumulation: zero a buffer like ``.data``, then add every
    contribution into it in place."""
    if self.grad is None:
        self.grad = np.zeros_like(self.data)
    self.grad += g


@pytest.mark.parametrize("seed", range(3))
def test_adopted_gradients_match_zero_fill_on_primitives(seed, monkeypatch):
    def leaf_grads():
        rng = np.random.default_rng(np.random.SeedSequence([1000 + seed, 0]))
        grads = {}
        for kind, (fn, point) in primitive_cases(rng).items():
            x = Tensor(point, requires_grad=True)
            fn(x).backward()
            grads[kind] = x.grad
        return grads

    adopted = leaf_grads()
    monkeypatch.setattr(Tensor, "_accumulate", zero_fill_accumulate)
    reference = leaf_grads()
    for kind, grad in reference.items():
        assert np.array_equal(adopted[kind], grad), kind
        assert adopted[kind].strides == grad.strides, kind


def stage1_loss(model: SignalAutoencoder, cfg: RunConfig, rng) -> Tensor:
    """The training-mode stage-1 step loss of one random batch."""
    b = cfg.batch_size
    windows = rng.normal(size=(b, cfg.channels, cfg.samples))
    text = rng.normal(size=(b, cfg.latent_tokens, cfg.latent_dim))
    images = rng.normal(size=(b, cfg.latent_dim))
    return stage1_step_loss(model, windows, text, images, cfg.loss_weights)[0]


def train_three_steps(stage: int) -> dict:
    """Model state after three stage-1 or stage-2 steps at the tiny config."""
    cfg = tiny_config()
    rng = np.random.default_rng(8)
    b = cfg.batch_size
    if stage == 1:
        model = SignalAutoencoder(cfg.encoder_config(), rng)
        opt = Adam(model.params(), cfg.lr_stage1)
        for _ in range(3):
            total = stage1_loss(model, cfg, rng)
            opt.minimize(total)
    else:
        model = build_stage2_model(cfg, rng)
        opt = Adam(apply_train_mask(model, selective_finetune_mask(model)), cfg.lr_stage2)
        for _ in range(3):
            batch = {
                "x0": rng.normal(size=(b,) + cfg.grid),
                "cond": rng.normal(size=(b, cfg.latent_tokens, cfg.latent_dim)),
            }
            stage2_train_step(batch, model, opt, rng, drop_prob=0.5)
    return model.state()


@pytest.mark.parametrize("stage", [1, 2])
def test_adopted_gradients_match_zero_fill_in_training(stage, monkeypatch):
    adopted = train_three_steps(stage)
    monkeypatch.setattr(Tensor, "_accumulate", zero_fill_accumulate)
    reference = train_three_steps(stage)
    assert adopted.keys() == reference.keys()
    for name, value in reference.items():
        assert np.array_equal(adopted[name], value), name


def test_adopted_gradient_is_never_written_in_place(rng):
    a = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    b = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    w = rng.normal(size=(2, 3))
    # a and b both take the add node's gradient array as their own; a then
    # gets a second contribution through the mul node.
    ad.sum_(ad.mul(ad.add(ad.add(a, b), ad.mul(a, 2.0)), w)).backward()
    np.testing.assert_array_equal(b.grad, w)
    np.testing.assert_array_equal(a.grad, w + 2.0 * w)


def keep_all_backward(root: Tensor) -> list[Tensor]:
    """Reference walk: ``Tensor.backward`` as it was before it dropped
    consumed gradients, so every node keeps its ``.grad``.  Returns the nodes
    in topological order."""
    order, seen, stack = [], set(), [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        stack += [(parent, False) for parent in node._parents if id(parent) not in seen]
    for node in order:
        node.grad = None
    root.grad = np.ones_like(root.data)
    for node in reversed(order):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)
    return order


def _bytes(arrays: dict) -> dict:
    return {name: (a.tobytes(), a.strides) for name, a in arrays.items()}


def test_backward_keeps_only_leaf_gradients():
    cfg = RunConfig()
    rng = np.random.default_rng(19)
    model = SignalAutoencoder(cfg.encoder_config(), rng)
    params = model.params()
    loss = stage1_loss(model, cfg, rng)
    inner = [node for node in keep_all_backward(loss) if node._backward is not None]
    assert len(inner) > 100 and all(node.grad is not None for node in inner)
    reference = _bytes({name: p.grad for name, p in params.items()})

    loss.backward()
    assert [node for node in inner if node.grad is not None] == []
    assert _bytes({name: p.grad for name, p in params.items()}) == reference
    loss.backward()
    assert _bytes({name: p.grad for name, p in params.items()}) == reference


def test_backward_peak_memory_stays_near_its_graph():
    """One default-size stage-1 backward holds at most 3 MiB above its graph:
    the gradients it consumes are dropped, and no batched weight-gradient
    product is built."""
    cfg = RunConfig()
    rng = np.random.default_rng(19)
    model = SignalAutoencoder(cfg.encoder_config(), rng)
    tracemalloc.start()
    try:
        loss = stage1_loss(model, cfg, rng)
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        loss.backward()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - held <= 3 * 2**20, f"backward peaked {(peak - held) / 2**20:.2f} MiB above its graph"


def test_matmul_shape_errors():
    with pytest.raises(ShapeError):
        ad.matmul(Tensor(np.ones(3)), Tensor(np.ones((3, 2))))
    with pytest.raises(ShapeError):
        ad.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 2))))


@pytest.mark.parametrize(
    "x,w,b",
    [((3,), (3, 2), None), ((2, 3), (4, 2), None), ((2, 3), (2, 3, 2), None), ((2, 3), (3, 2), (1, 2))],
)
def test_linear_shape_errors(x, w, b):
    bias = None if b is None else Tensor(np.ones(b))
    with pytest.raises(ShapeError):
        ad.linear(Tensor(np.ones(x)), Tensor(np.ones(w)), bias)


# A Conv3x3 patch matrix (2-D) and a Linear token input (3-D), each with and
# without a bias.
LINEAR_SHAPES = [((256, 288), (288, 32)), ((16, 64, 32), (32, 32))]


def _laid_out_like(value, like):
    """``value`` in the layout the engine stores a gradient of ``like`` in."""
    out = np.empty_like(like)
    out[...] = value
    return out


def folded_linear(x, w, g, b=None):
    """``linear``'s output and the gradients of x, w (and b) for the output
    gradient ``g``, each VJP as one 2-D GEMM over the rows of all leading
    axes, and each gradient laid out like its input."""
    k, n = w.shape
    y = np.matmul(x, w)
    if b is not None:
        y = y + b
    grads = [np.matmul(g.reshape(-1, n), w.T).reshape(x.shape), np.matmul(x.reshape(-1, k).T, g.reshape(-1, n))]
    if b is not None:
        grads.append(g.sum(axis=tuple(range(g.ndim - 1))))
    return [y] + [_laid_out_like(grad, v) for grad, v in zip(grads, (x, w, b))]


def assert_folded(new, reference, batched):
    """``new`` has the bytes (signed zeros included) and strides of the 2-D
    GEMM ``reference``, and lies within 1e-12 of the largest entry of the
    ``batched`` products' result."""
    assert new.tobytes() == reference.tobytes()
    assert new.strides == reference.strides
    assert np.abs(new - batched).max() <= 1e-12 * np.abs(batched).max()


@pytest.mark.parametrize("bias", [True, False])
@pytest.mark.parametrize("x_shape,w_shape", LINEAR_SHAPES)
def test_linear_matches_add_of_matmul(x_shape, w_shape, bias, rng):
    values = [rng.normal(size=x_shape), rng.normal(size=w_shape)]
    if bias:
        values.append(rng.normal(size=w_shape[1]))
    weight = rng.normal(size=x_shape[:-1] + w_shape[1:])

    def composite(x, w, b=None):
        y = ad.matmul(x, w)
        return y if b is None else ad.add(y, b)

    runs = []
    for fn in (ad.linear, composite):
        inputs = [Tensor(v, requires_grad=True) for v in values]
        y = fn(*inputs)
        ad.sum_(ad.mul(y, weight)).backward()
        runs.append([y.data] + [t.grad for t in inputs])
    for new, reference, old in zip(runs[0], folded_linear(*values[:2], weight, *values[2:]), runs[1]):
        assert_folded(new, reference, old)
        if len(x_shape) == 2:
            # one GEMM per VJP is the composite's own arithmetic
            assert np.array_equal(new, old) and new.strides == old.strides


def _transposed(shape, rng):
    """A (B, M, N) view of a C-contiguous (B, N, M) array, as ``h.transpose``
    hands ``enc_tokens``, ``enc_feat``, ``dec_tokens`` and ``dec_head``."""
    b, m, n = shape
    return rng.normal(size=(b, n, m)).transpose(0, 2, 1)


# (x, d_out) of the 3-D ``linear`` calls of the default models, plus batch 1,
# a case whose ``g`` is -0.0 in some columns of every slice, an ``x`` of
# ndim 4, and a ``g`` that is a transposed view (the engine hands ``linear``
# a dense ``g``, but its VJPs take any layout)
LINEAR_WEIGHT_CASES = {
    "spatial_qkv_out": (lambda rng: rng.normal(size=(16, 16, 128)), 128),
    "enc_tokens": (lambda rng: _transposed((16, 128, 16), rng), 8),
    "enc_feat": (lambda rng: _transposed((16, 8, 128), rng), 32),
    "dec_tokens": (lambda rng: _transposed((16, 128, 8), rng), 16),
    "dec_head": (lambda rng: _transposed((16, 16, 128), rng), 64),
    "xattn_kv": (lambda rng: rng.normal(size=(16, 12, 32)), 32),
    "batch1": (lambda rng: rng.normal(size=(1, 16, 128)), 128),
    "signed_zeros": (lambda rng: np.abs(rng.normal(size=(16, 12, 32))), 32),
    "ndim4": (lambda rng: rng.normal(size=(4, 4, 16, 32)), 16),
    "noncontiguous_g": (lambda rng: rng.normal(size=(16, 12, 32)), 24),
}


@pytest.mark.parametrize("case", sorted(LINEAR_WEIGHT_CASES))
def test_linear_weight_grad_matches_batched_sum(case):
    make_x, d_out = LINEAR_WEIGHT_CASES[case]
    rng = np.random.default_rng(np.random.SeedSequence([19, d_out]))
    x_data = make_x(rng)
    g = rng.normal(size=x_data.shape[:-1] + (d_out,))
    if case == "signed_zeros":
        # every slice's products in these columns are -0.0
        g[..., ::3] = -0.0
    if case == "noncontiguous_g":
        g = np.ascontiguousarray(g.transpose(0, 2, 1)).transpose(0, 2, 1)
    x = Tensor(x_data, requires_grad=True)
    w = Tensor(rng.normal(size=(x_data.shape[-1], d_out)), requires_grad=True)
    # the engine's backward step through the one linear node, for this g
    ad.linear(x, w)._backward(g)
    _, x_ref, w_ref = folded_linear(x_data, w.data, g)
    batched_w = np.matmul(np.swapaxes(x_data, -1, -2), g).sum(axis=tuple(range(x_data.ndim - 2)))
    assert_folded(w.grad, w_ref, batched_w)
    assert_folded(x.grad, x_ref, np.matmul(g, w.data.T))


def reference_im2col3x3(x):
    """The patch unfold op that ``Conv3x3`` ran before ``ad.conv3x3``: the
    (B*H*W, 9*C) patch matrix as a graph node, column-major at batch 1."""
    b, c, h, w = x.shape
    padded = np.zeros((b, h + 2, w + 2, c))
    padded[:, 1:-1, 1:-1, :] = x.data.transpose(0, 2, 3, 1)
    windows = np.lib.stride_tricks.sliding_window_view(padded, (3, 3), axis=(1, 2))
    cols = windows.transpose(0, 1, 2, 4, 5, 3).reshape(b * h * w, 9 * c)
    if b == 1:
        cols = np.asfortranarray(cols)

    def vjp(g):
        g = g.reshape(b, h, w, 3, 3, c)
        acc = np.zeros((b, h, w, c))
        for dy, (src_y, dst_y) in enumerate(ad._IM2COL_SPANS):
            for dx, (src_x, dst_x) in enumerate(ad._IM2COL_SPANS):
                acc[:, dst_y, dst_x, :] += g[:, src_y, src_x, dy, dx, :]
        return acc.transpose(0, 3, 1, 2)

    return ad._make(cols, (x,), (vjp,), "im2col3x3")


def composite_conv3x3(x, w, b):
    """The four-node convolution ``ad.conv3x3`` replaced: patch unfold,
    ``linear``, then ``reshape`` and ``transpose`` back to (B, N, H, W)."""
    n, _, h, wd = x.shape
    y = ad.linear(reference_im2col3x3(x), w, b)
    return y.reshape(n, h, wd, w.shape[1]).transpose(0, 3, 1, 2)


# (c_in, c_out, H, W) of the seven default denoiser convs: conv_in, enc1,
# down, mid, up, dec1, conv_out.
DENOISER_CONVS = [
    (4, 32, 8, 8), (32, 32, 8, 8), (32, 64, 4, 4), (64, 64, 4, 4), (64, 32, 8, 8), (32, 32, 8, 8), (32, 4, 8, 8)
]


# batch 1 takes the column-major patch path, 16 is the training batch and 64
# the sampler batch, whose 8x8 convs run in four GEMM blocks
@pytest.mark.parametrize("batch", [1, 16, 64])
@pytest.mark.parametrize("c_in,c_out,h,w", DENOISER_CONVS)
def test_conv3x3_matches_four_node_composite(c_in, c_out, h, w, batch):
    rng = np.random.default_rng(np.random.SeedSequence([c_in, c_out, h, batch]))
    # channel-last input, as every conv input in the denoiser but the first
    x_data = np.ascontiguousarray(rng.normal(size=(batch, h, w, c_in))).transpose(0, 3, 1, 2)
    values = [x_data, rng.normal(size=(9 * c_in, c_out)), rng.normal(size=c_out)]
    weight = rng.normal(size=(batch, c_out, h, w))
    runs = []
    for fn in (ad.conv3x3, composite_conv3x3):
        inputs = [Tensor(v, requires_grad=True) for v in values]
        y = fn(*inputs)
        ad.sum_(ad.mul(y, weight)).backward()
        runs.append([y.data] + [t.grad for t in inputs])
    for new, old in zip(*runs):
        assert np.array_equal(new, old)
        assert new.strides == old.strides


def test_conv3x3_is_one_node(rng):
    x = Tensor(rng.normal(size=(2, 3, 4, 4)), requires_grad=True)
    y = Conv3x3(rng, 3, 5)(x)
    assert y._op == "conv3x3" and y._parents[0] is x


def _retained_arrays(root: Tensor):
    """Every array the graph of ``root`` keeps alive: node data, plus what
    the VJP closures hold (their cells and default arguments)."""
    seen, stack, found = set(), [root], []
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            found.append(obj)
        elif isinstance(obj, Tensor):
            stack += [obj.data, *obj._parents, obj._backward]
        elif isinstance(obj, (tuple, list)):
            stack += obj
        elif isinstance(obj, functools.partial):
            stack += [obj.func, *obj.args]
        elif inspect.isfunction(obj):
            stack += [cell.cell_contents for cell in obj.__closure__ or ()]
            stack += obj.__defaults__ or ()
    return found


def test_stage2_graph_holds_no_patch_matrix():
    cfg = RunConfig()
    rng = np.random.default_rng(3)
    model = build_stage2_model(cfg, rng)
    apply_train_mask(model, selective_finetune_mask(model))
    b = cfg.batch_size
    x0 = rng.normal(size=(b,) + cfg.grid)
    cond = model.condition(rng.normal(size=(b, cfg.latent_tokens, cfg.latent_dim)))
    t = rng.integers(0, model.schedule.steps, size=b)
    loss = v_loss(Tensor(x0), Tensor(rng.normal(size=x0.shape)), t, cond, model.denoise, model.schedule)
    _, h, w = cfg.grid
    patch_shapes = {
        (b * (h // scale) * (w // scale), 9 * conv.c_in)
        for conv, scale in (
            (model.denoiser.conv_in, 1), (model.denoiser.enc1, 1), (model.denoiser.down, 2),
            (model.denoiser.mid, 2), (model.denoiser.dec1, 1), (model.denoiser.conv_out, 1),
        )
    }
    # up's phase patches, at the resolution of its input
    up = model.denoiser.up
    patch_shapes.add((b * (h // 2) * (w // 2), 4 * up.c_in))
    arrays = _retained_arrays(loss)
    assert len(arrays) > 100  # the walk reached the denoiser
    assert not [a.shape for a in arrays if a.shape in patch_shapes or a.shape[::-1] in patch_shapes]
    # nor up's folded phase kernels, nor any array shaped like a conv weight
    # but the weight itself: the VJPs fold the kernels again from w
    convs = [getattr(model.denoiser, name) for name in ("conv_in", "enc1", "down", "mid", "up", "dec1", "conv_out")]
    kernel_shapes = {(4 * up.c_in, up.c_out)} | {conv.w.shape for conv in convs}
    kernels = [a for a in arrays if a.shape in kernel_shapes or a.shape[::-1] in kernel_shapes]
    assert not [a.shape for a in kernels if not any(a is conv.w.data for conv in convs)]


def reference_upsample2(x):
    """The nearest-neighbour 2x upsampling op that ran before
    ``ad.conv3x3`` took ``upsample``: a broadcast copy into a channel-last buffer,
    returned as its (B, C, 2H, 2W) view, whose VJP sums each 2x2 block."""
    b, c, h, w = x.shape
    tiled = np.empty((b, h, 2, w, 2, c))
    tiled[...] = x.data.transpose(0, 2, 3, 1)[:, :, None, :, None, :]

    def vjp(g):
        g = g.transpose(0, 2, 3, 1).reshape(b, h, 2, w, 2, c)
        top = g[:, :, 0, :, 0] + g[:, :, 0, :, 1]
        np.add(top, g[:, :, 1, :, 0] + g[:, :, 1, :, 1], out=top)
        return top.transpose(0, 3, 1, 2)

    return ad._make(tiled.reshape(b, 2 * h, 2 * w, c).transpose(0, 3, 1, 2), (x,), (vjp,), "upsample2")


# batch 1 is a single image, 16 the training batch and 64 the sampler batch,
# at the shape of the denoiser's up conv (64 channels at 4x4 -> 32 at 8x8);
# at 128 the 4x4 map first spans two CONV_BLOCK_ROWS blocks
@pytest.mark.parametrize("batch", [1, 16, 64, 128])
def test_upsample_conv3x3_matches_composite(batch):
    rng = np.random.default_rng(np.random.SeedSequence([27, batch]))
    c_in, c_out, h, w = 64, 32, 4, 4
    # channel-last input, as the cross-attention output the denoiser feeds it
    x_data = np.ascontiguousarray(rng.normal(size=(batch, h, w, c_in))).transpose(0, 3, 1, 2)
    values = [x_data, rng.normal(size=(9 * c_in, c_out)), rng.normal(size=c_out)]
    weight = rng.normal(size=(batch, c_out, 2 * h, 2 * w))
    runs = []
    for fn in (functools.partial(ad.conv3x3, upsample=True), lambda x, w, b: ad.conv3x3(reference_upsample2(x), w, b)):
        inputs = [Tensor(v, requires_grad=True) for v in values]
        y = fn(*inputs)
        ad.sum_(ad.mul(y, weight)).backward()
        runs.append([y] + [t.grad for t in inputs])
    y, new_grads = runs[0][0], runs[0][1:]
    assert y._op == "conv3x3" and y._parents[0].data is x_data
    assert y.data.strides == runs[1][0].data.strides  # channel-last, as conv3x3's
    # the input gradient comes back laid out like the input, so it is adopted
    assert new_grads[0].strides == x_data.strides
    # the folded taps round differently: relative to each array's largest
    # entry, since an entry near zero can come from cancellation
    for new, old in zip([y.data] + new_grads, [runs[1][0].data] + runs[1][1:]):
        np.testing.assert_allclose(new, old, rtol=0.0, atol=1e-12 * np.abs(old).max())


@pytest.mark.parametrize("upsample", [False, True], ids=["plain", "upsample"])
def test_conv3x3_overflow_names_the_op(upsample):
    x = Tensor(np.ones((1, 2, 2, 2)))
    with pytest.raises(NonFiniteError, match="conv3x3"):
        ad.conv3x3(x, Tensor(np.full((18, 3), 1e308)), Tensor(np.zeros(3)), upsample)


def test_nonfinite_probe_raises():
    x = Tensor(np.array([800.0]), requires_grad=True)
    with pytest.raises(NonFiniteError):
        ad.exp(x)
    with np.errstate(divide="ignore"), pytest.raises(NonFiniteError):
        ad.div(Tensor(np.ones(2)), Tensor(np.zeros(2)))


# One call per op in ad.FINITE_PRESERVING, on two same-shape 4-D inputs.
FINITE_CASES = {
    "reshape": lambda x, y: ad.reshape(x, (-1,)),
    "transpose": lambda x, y: ad.transpose(x, (3, 1, 2, 0)),
    "concat": lambda x, y: ad.concat([x, y], axis=1),
    "pad_last2": lambda x, y: ad.pad_last2(x, 1),
    "crop_last2": lambda x, y: ad.crop_last2(x, 1, 0, 2, 3),
    "relu": lambda x, y: ad.relu(x),
    "abs": lambda x, y: ad.abs_(x),
    "minimum": lambda x, y: ad.minimum(x, y),
    "sigmoid": lambda x, y: ad.sigmoid(x),
    "softmax": lambda x, y: ad.softmax(x, axis=-1),
}
finite = st.one_of(
    st.sampled_from([1.7e308, -1.7e308, 0.0]), st.floats(allow_nan=False, allow_infinity=False)
)


@given(arrays(np.float64, (2, 2, 3, 3), elements=finite), arrays(np.float64, (2, 2, 3, 3), elements=finite))
@settings(max_examples=50, deadline=None)
def test_unprobed_ops_keep_finite_inputs_finite(x, y):
    assert set(FINITE_CASES) == ad.FINITE_PRESERVING
    for op, fn in FINITE_CASES.items():
        # softmax's max shift may overflow to -inf, which exp maps to 0
        with np.errstate(over="ignore"):
            out = fn(Tensor(x), Tensor(y))
        assert out._op == op
        assert np.isfinite(out.data).all(), op


def test_minimum_ties_route_gradient_to_first(rng):
    a = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    b = Tensor(np.array([1.0, 5.0]), requires_grad=True)
    ad.sum_(ad.minimum(a, b)).backward()
    np.testing.assert_array_equal(a.grad, [1.0, 1.0])
    np.testing.assert_array_equal(b.grad, [0.0, 0.0])


def test_abs_subgradient_zero_at_zero():
    x = Tensor(np.array([0.0, -2.0, 3.0]), requires_grad=True)
    ad.sum_(ad.abs_(x)).backward()
    np.testing.assert_array_equal(x.grad, [0.0, -1.0, 1.0])


def test_power_zero_exponent_has_zero_grad():
    x = Tensor(np.array([0.0, 2.0]), requires_grad=True)
    ad.sum_(ad.power(x, 0.0)).backward()
    np.testing.assert_array_equal(x.grad, [0.0, 0.0])


def test_sum_mean_axis_tuples(rng):
    x = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
    s = ad.sum_(x, axis=(0, 2))
    assert s.shape == (3,)
    m = ad.mean(x, axis=1, keepdims=True)
    assert m.shape == (2, 1, 4)
    ad.sum_(m).backward()
    np.testing.assert_allclose(x.grad, np.full((2, 3, 4), 1.0 / 3.0), rtol=1e-12)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_softmax_rows_are_distributions(seed):
    x = np.random.default_rng(seed).normal(scale=3.0, size=(4, 6))
    p = ad.softmax(Tensor(x)).data
    np.testing.assert_allclose(p.sum(axis=-1), np.ones(4), atol=1e-12)
    assert (p >= 0).all()
    shifted = ad.softmax(Tensor(x + 100.0)).data
    np.testing.assert_allclose(p, shifted, atol=1e-12)


@given(
    st.data(),
    arrays(
        np.float64,
        array_shapes(min_dims=1, max_dims=4, max_side=5),
        elements=st.sampled_from([-0.0, 0.0, 1.5, -1.5, 3.0]) | st.floats(-50, 50),
    ),
)
@settings(max_examples=200, deadline=None)
def test_softmax_matches_max_reduction_formula(data, x):
    axis = data.draw(st.integers(-x.ndim, x.ndim - 1))
    e = np.exp(x - x.max(axis=axis, keepdims=True))
    assert np.array_equal(ad.softmax(Tensor(x), axis=axis).data, e / e.sum(axis=axis, keepdims=True))


def test_layer_norm_standardizes_rows(rng):
    y = ad.standardize(Tensor(rng.normal(size=(5, 8))), -1, 1e-12).data
    np.testing.assert_allclose(y.mean(axis=-1), 0.0, atol=1e-10)
    np.testing.assert_allclose(y.var(axis=-1), 1.0, atol=1e-8)


@pytest.mark.parametrize("axis", [0, -1])
def test_standardize_rejects_overflowing_variance(axis):
    rows = np.array([[1e200, -1e200, 1e200], [-1e200, 1e200, -1e200]])
    with pytest.raises(NonFiniteError, match="standardize"):
        ad.standardize(Tensor(rows), axis=axis, eps=1e-12)


def test_batch_norm_standardizes_columns(rng):
    x = rng.normal(size=(16, 4))
    y = ad.standardize(Tensor(x), 0, 1e-5).data
    np.testing.assert_allclose(y.mean(axis=0), 0.0, atol=1e-10)
    # the 1e-5 epsilon in the denominator shrinks the variance slightly
    v = x.var(axis=0)
    np.testing.assert_allclose(y.var(axis=0), v / (v + 1e-5), rtol=1e-10)


def test_cosine_similarity_matches_reference(rng):
    a = rng.normal(size=(3, 1, 5))
    b = rng.normal(size=(1, 4, 5))
    got = ad.cosine_similarity(Tensor(a), Tensor(b)).data
    na = a / np.linalg.norm(a, axis=-1, keepdims=True)
    nb = b / np.linalg.norm(b, axis=-1, keepdims=True)
    # the epsilon-guarded norms perturb the result at the 1e-12 level
    np.testing.assert_allclose(got, (na * nb).sum(-1), rtol=1e-10)


def test_transpose_reshape_concat_roundtrip(rng):
    x = rng.normal(size=(2, 3, 4))
    t = ad.transpose(Tensor(x), (2, 0, 1))
    assert t.shape == (4, 2, 3)
    neg = ad.transpose(Tensor(x), (-1, 0, 1))
    np.testing.assert_array_equal(t.data, neg.data)
    r = ad.reshape(Tensor(x), (6, 4))
    assert r.shape == (6, 4)
    c = ad.concat([Tensor(x), Tensor(x)], axis=1)
    assert c.shape == (2, 6, 4)


def test_pad_crop_guards():
    with pytest.raises(ShapeError):
        ad.pad_last2(Tensor(np.ones(3)), 1)
    with pytest.raises(ShapeError):
        ad.crop_last2(Tensor(np.ones(3)), 0, 0, 1, 1)


# Each case once per conv: the plain conv's under pytest's own ids (shape0,
# w0-b0), the upsampling conv's with an "upsample-" prefix.
NOT_4D = [(3, 4, 5), (1, 2, 3, 4, 5)]


@pytest.mark.parametrize(
    "shape,upsample",
    [pytest.param(shape, up, id=f"{'upsample-' if up else ''}shape{i}") for up in (False, True)
     for i, shape in enumerate(NOT_4D)],
)
def test_conv3x3_requires_4d(shape, upsample):
    with pytest.raises(ShapeError):
        ad.conv3x3(Tensor(np.ones(shape)), Tensor(np.ones((9 * shape[1], 2))), Tensor(np.ones(2)), upsample)


CONV_WEIGHT_MISMATCHES = [((27, 2), (3,)), ((18, 2), (2,)), ((27, 2, 1), (2, 1)), ((27, 2), (1, 2))]


@pytest.mark.parametrize(
    "w,b,upsample",
    [pytest.param(w, b, up, id=f"{'upsample-' if up else ''}w{i}-b{i}") for up in (False, True)
     for i, (w, b) in enumerate(CONV_WEIGHT_MISMATCHES)],
)
def test_conv3x3_shape_errors(w, b, upsample):
    with pytest.raises(ShapeError):
        ad.conv3x3(Tensor(np.ones((2, 3, 4, 4))), Tensor(np.ones(w)), Tensor(np.ones(b)), upsample)


def made_op_names() -> list[str]:
    """Every op name that ``autodiff``'s source hands to ``_make``."""
    return sorted({
        call.args[-1].value
        for call in ast.walk(ast.parse(inspect.getsource(ad)))
        if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "_make"
        and isinstance(call.args[-1], ast.Constant)
    })


def test_gradient_audit_covers_every_op(monkeypatch):
    """Every op that ``autodiff`` records lies on the gradient path of some
    audit case, so an op added without a case in ``primitive_cases`` fails."""
    defined = set(made_op_names())
    recorded = set()
    make = ad._make

    def recording_make(data, parents, vjps, op):
        if any(p.requires_grad for p in parents):
            recorded.add(op)
        return make(data, parents, vjps, op)

    monkeypatch.setattr(ad, "_make", recording_make)
    for fn, point in primitive_cases(np.random.default_rng(0)).values():
        fn(Tensor(point, requires_grad=True))
    assert len(defined) >= 20
    assert recorded == defined


@pytest.mark.parametrize("op", made_op_names())
def test_gradient_audit_catches_a_one_percent_vjp_error_in_every_op(op, monkeypatch):
    make = ad._make

    def skewed_make(data, parents, vjps, name):
        if name == op:
            vjps = [lambda g, vjp=vjp: 1.01 * vjp(g) for vjp in vjps]
        return make(data, parents, vjps, name)

    monkeypatch.setattr(ad, "_make", skewed_make)
    cases = primitive_cases(np.random.default_rng(0)).values()
    assert max(ad.grad_check(fn, point) for fn, point in cases) > 1e-4


def test_grad_check_epsilon_validation(rng):
    x = rng.normal(size=(3,))
    with pytest.raises(ValueError):
        ad.grad_check(lambda t: ad.sum_(t), x, epsilon=0.0)
    with pytest.raises(ValueError):
        ad.grad_check(lambda t: ad.sum_(t), x, epsilon=1.0)


def test_grad_check_params_restores_every_parameter(rng):
    w = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
    b = Tensor(rng.normal(size=2), requires_grad=True)
    x = rng.normal(size=(4, 3))
    before = (w.data.copy(), b.data.copy())
    err = ad.grad_check_params(lambda: ad.sum_(ad.sigmoid(ad.linear(x, w, b))), {"w": w, "b": b})
    assert err < 1e-8
    assert np.array_equal(w.data, before[0]) and np.array_equal(b.data, before[1])
    with pytest.raises(ValueError):
        ad.grad_check_params(lambda: ad.sum_(w), {"w": w}, epsilon=0.0)


def skew_linear_weight_gradient(monkeypatch):
    """Patch ``autodiff.linear`` so its weight gradient comes out 1 % too large."""
    real = ad.linear

    def skewed(x, w, b=None):
        # an identity node whose VJP scales the weight's gradient by 1.01
        w = ad.as_tensor(w)
        return real(x, ad._make(w.data, (w,), (lambda g: 1.01 * g,), "skew"), b)

    monkeypatch.setattr(ad, "linear", skewed)


def test_step_loss_rows_catch_a_linear_weight_gradient_error(monkeypatch):
    skew_linear_weight_gradient(monkeypatch)
    errs = dict(gradient_suite(seeds=2))
    assert errs["stage1_loss"] > 1e-4 and errs["stage2_loss"] > 1e-4, errs


def default_size_step_loss(stage: int):
    """(loss, trained parameters) of one stage's step loss on a batch of the
    default ``RunConfig``: every stage-1 parameter, or the masked stage-2
    ones with the same timestep, noise and dropout draws at every call."""
    cfg = RunConfig()
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, stage]))
    b = cfg.batch_size
    tokens = rng.normal(size=(b, cfg.latent_tokens, cfg.latent_dim))  # class text, or condition latents
    if stage == 1:
        model = SignalAutoencoder(cfg.encoder_config(), rng)
        windows, images = rng.normal(size=(b, cfg.channels, cfg.samples)), rng.normal(size=(b, cfg.latent_dim))
        return (lambda: stage1_step_loss(model, windows, tokens, images, cfg.loss_weights)[0]), model.params()
    model = build_stage2_model(cfg, rng)
    batch = {"x0": rng.standard_normal((b,) + cfg.grid), "cond": tokens}

    def loss():
        # drop_prob 0.5 sends samples through both the condition and the null condition
        return stage2_step_loss(batch, model, np.random.default_rng(5), 0.5, cfg.gamma)[0]

    return loss, apply_train_mask(model, selective_finetune_mask(model))


def directional_error(loss, params: dict, directions: int = 3, epsilon: float = 1e-5) -> float:
    """``(L(θ+εu) − L(θ−εu)) / 2ε`` against ``⟨∇L, u⟩`` over seeded unit
    directions ``u`` of all of ``params``, scored like ``grad_check_params``:
    ``max |a − n| / (max |a| + max |n|)`` over the directions, so a direction
    nearly orthogonal to the gradient cannot turn rounding into a full error."""
    for p in params.values():
        p.grad = None
    loss().backward()
    grad = np.concatenate([np.zeros(p.data.size) if p.grad is None else p.grad.ravel() for p in params.values()])
    theta = np.concatenate([p.data.ravel() for p in params.values()])

    def loss_at(point):
        offsets = np.cumsum([0] + [p.data.size for p in params.values()])
        for p, lo, hi in zip(params.values(), offsets, offsets[1:]):
            p.data[...] = point[lo:hi].reshape(p.data.shape)
        with ad.no_grad():
            return float(loss().data)

    rng = np.random.default_rng(0)
    analytic, numeric = np.zeros(directions), np.zeros(directions)
    for i in range(directions):
        u = rng.standard_normal(theta.size)
        u /= np.linalg.norm(u)
        analytic[i] = grad @ u
        numeric[i] = (loss_at(theta + epsilon * u) - loss_at(theta - epsilon * u)) / (2.0 * epsilon)
    loss_at(theta)
    return float(np.abs(analytic - numeric).max() / (np.abs(analytic).max() + np.abs(numeric).max()))


@pytest.mark.parametrize("stage", [1, 2])
def test_directional_gradient_at_default_sizes(stage):
    # the default sizes reach code the tiny audit config does not: the
    # multi-block conv3x3 path and linear's folded VJPs at the encoder's
    # GEMM sizes
    loss, params = default_size_step_loss(stage)
    assert directional_error(loss, params) < 1e-6


@pytest.mark.parametrize("stage", [1, 2])
def test_directional_gradient_catches_a_linear_weight_gradient_error(stage, monkeypatch):
    skew_linear_weight_gradient(monkeypatch)
    loss, params = default_size_step_loss(stage)
    assert directional_error(loss, params) > 1e-4


@pytest.mark.parametrize(
    "fn",
    [
        lambda x: ad.sum_(ad.sigmoid(x)),
        lambda x: ad.add(ad.sum_(ad.softmax(x)), ad.mean(ad.exp(ad.mul(x, 0.1)))),
        lambda x: ad.mean(ad.mul(ad.standardize(x, -1, 1e-12), ad.sigmoid(x))),
        lambda x: ad.mean(ad.cosine_similarity(x, ad.relu(ad.add(x, 0.7)))),
    ],
)
def test_grad_check_on_composites(fn, rng):
    err = ad.grad_check(fn, rng.normal(size=(4, 5)) + 0.3)
    assert err < 1e-6
