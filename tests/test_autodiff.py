import ast
import gc
import inspect
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from conftest import tiny_config
from eegdiff import autodiff as ad
from eegdiff.autodiff import NonFiniteError, ShapeError, Tensor
from eegdiff.diffusion import Conv3x3, apply_train_mask, selective_finetune_mask, stage2_train_step
from eegdiff.encoder import SignalAutoencoder, mean_pool_latent
from eegdiff.losses import stage1_loss_terms
from eegdiff.training import Adam, build_stage2_model, primitive_cases


def test_tensor_basics(rng):
    t = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    assert t.shape == (2, 3)
    assert t.ndim == 2
    assert "Tensor" in repr(t)


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


def train_three_steps(stage: int) -> dict:
    """Model state after three stage-1 or stage-2 steps at the tiny config."""
    cfg = tiny_config()
    rng = np.random.default_rng(8)
    b = cfg.batch_size
    if stage == 1:
        model = SignalAutoencoder(cfg.encoder_config(), rng)
        opt = Adam(model.params(), cfg.lr_stage1)
        for _ in range(3):
            x = Tensor(rng.normal(size=(b, cfg.channels, cfg.samples)))
            z = model.encode_batch(x, training=True)
            total, _ = stage1_loss_terms(
                x, model.decode_batch(z), z, Tensor(rng.normal(size=(b, cfg.latent_tokens, cfg.latent_dim))),
                mean_pool_latent(z), Tensor(rng.normal(size=(b, cfg.latent_dim))), cfg.loss_weights,
            )
            opt.zero_grad()
            total.backward()
            opt.step()
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
    for new, old in zip(*runs):
        assert np.array_equal(new, old)
        assert new.strides == old.strides


def composite_upsample2(x):
    """The reshape, broadcast ``mul`` and reshape that upsampled before
    ``ad.upsample2``."""
    b, c, h, w = x.shape
    tiled = ad.mul(x.reshape(b, c, h, 1, w, 1), Tensor(np.ones((1, 1, 1, 2, 1, 2))))
    return tiled.reshape(b, c, 2 * h, 2 * w)


@pytest.mark.parametrize("shape", [(64, 64, 4, 4), (3, 5, 1, 2), (1, 4, 3, 2)])
def test_upsample2_matches_composite_on_channel_last_input(shape, rng):
    # as in the denoiser: a Conv3x3 output, channel-last in memory, upsampled
    # into another Conv3x3
    b, c, h, w = shape
    pre, up = Conv3x3(rng, 3, c), Conv3x3(rng, c, 5)
    pre.b.data = rng.normal(size=c)
    x_data = rng.normal(size=(b, 3, h, w))
    weight = rng.normal(size=(b, 5, 2 * h, 2 * w))
    runs = []
    for upsample in (ad.upsample2, composite_upsample2):
        x = Tensor(x_data, requires_grad=True)
        feature = pre(x)
        assert feature.data.strides[1] == feature.data.itemsize  # channel-last
        tiled = upsample(feature)
        ad.sum_(ad.mul(up(tiled), weight)).backward()
        runs.append((tiled.data, feature.grad, x.grad, pre.w.grad, up.w.grad, up.b.grad))
    for new, old in zip(*runs):
        assert np.array_equal(new, old)
    # the gradient comes back laid out like the feature map, so it is adopted
    assert runs[0][1].strides == feature.data.strides


@pytest.mark.parametrize("shape", [(3, 4, 5), (1, 2, 3, 4, 5)])
def test_upsample2_requires_4d(shape):
    with pytest.raises(ShapeError):
        ad.upsample2(Tensor(np.ones(shape)))


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
    "im2col3x3": lambda x, y: ad.im2col3x3(x),
    "upsample2": lambda x, y: ad.upsample2(x),
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


@pytest.mark.parametrize("shape", [(3, 4, 5), (1, 2, 3, 4, 5)])
def test_im2col3x3_requires_4d(shape):
    with pytest.raises(ShapeError):
        ad.im2col3x3(Tensor(np.ones(shape)))


def test_gradient_audit_covers_every_op(monkeypatch):
    """Every op that ``autodiff`` records lies on the gradient path of some
    audit case, so an op added without a case in ``primitive_cases`` fails."""
    tree = ast.parse(inspect.getsource(ad))
    defined = {
        call.args[-1].value
        for call in ast.walk(tree)
        if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "_make"
        and isinstance(call.args[-1], ast.Constant)
    }
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


def test_grad_check_epsilon_validation(rng):
    x = rng.normal(size=(3,))
    with pytest.raises(ValueError):
        ad.grad_check(lambda t: ad.sum_(t), x, epsilon=0.0)
    with pytest.raises(ValueError):
        ad.grad_check(lambda t: ad.sum_(t), x, epsilon=1.0)


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
