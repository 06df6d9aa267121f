import gc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eegdiff import autodiff as ad
from eegdiff.autodiff import ShapeError, Tensor
from eegdiff.diffusion import (
    ADAPTER_TOKENS,
    ConditionAdapter,
    Conv3x3,
    DenoiserConfig,
    Stage2Model,
    apply_train_mask,
    avg_pool2,
    build_condition,
    build_schedule,
    class_target_latents,
    sample,
    selective_finetune_mask,
    stage2_train_step,
    timestep_embedding,
)
from eegdiff.losses import cfg_combine
from eegdiff.nn import ConfigError
from eegdiff.training import Adam, RunConfig, build_stage2_model

TINY = DenoiserConfig(cond_dim=8, grid=(2, 4, 4), widths=(4, 8), attn_width=4,
                      attn_heads=2, time_dim=8)


def tiny_model(seed=0, steps=10):
    return Stage2Model(TINY, np.random.default_rng(seed), latent_tokens=4,
                       latent_dim=8, schedule=build_schedule(steps))


# -- schedule -------------------------------------------------------------------


@given(st.integers(2, 400))
@settings(max_examples=25, deadline=None)
def test_schedule_is_variance_preserving(steps):
    sched = build_schedule(steps)
    np.testing.assert_allclose(sched.alphas**2 + sched.sigmas**2, 1.0, atol=1e-12)
    assert (np.diff(sched.alphas) < 0).all()
    assert (np.diff(sched.sigmas) > 0).all()
    snrs = np.array([sched.snr(t) for t in range(steps)])
    assert (np.diff(snrs) < 0).all()


def test_schedule_validation():
    with pytest.raises(ConfigError):
        build_schedule(1)
    with pytest.raises(ConfigError):
        build_schedule(10, beta_min=0.0)
    with pytest.raises(ConfigError):
        build_schedule(10, beta_min=0.05, beta_max=0.01)


# -- conditioning ----------------------------------------------------------------


def test_adapter_shapes_and_null(rng):
    adapter = ConditionAdapter(rng, latent_dim=8, latent_tokens=4)
    batch = adapter(Tensor(rng.normal(size=(3, 8))))
    assert batch.shape == (3, ADAPTER_TOKENS, 8)
    assert adapter.null_cond.shape == (4 + ADAPTER_TOKENS, 8)


def test_build_condition_concatenates_tokens(rng):
    lat = Tensor(rng.normal(size=(2, 4, 8)))
    adapted = Tensor(rng.normal(size=(2, ADAPTER_TOKENS, 8)))
    cond = build_condition(lat, adapted)
    assert cond.shape == (2, 4 + ADAPTER_TOKENS, 8)
    np.testing.assert_array_equal(cond.data[:, :4], lat.data)
    np.testing.assert_array_equal(cond.data[:, 4:], adapted.data)
    with pytest.raises(ShapeError):
        build_condition(lat, Tensor(rng.normal(size=(3, ADAPTER_TOKENS, 8))))


def test_timestep_embedding_properties():
    emb = timestep_embedding(np.array([0, 1, 5]), 8)
    assert emb.shape == (3, 8)
    assert not np.array_equal(emb[1], emb[2])
    np.testing.assert_allclose(emb[0], np.concatenate([np.ones(4), np.zeros(4)]), atol=1e-12)


# -- spatial helpers -------------------------------------------------------------


def test_pool_and_upsample_inverse_on_constant(rng):
    x = Tensor(np.ones((2, 3, 4, 4)))
    down = avg_pool2(x)
    assert down.shape == (2, 3, 2, 2)
    # an upsampling conv whose one tap is the centre's identity map
    up = Conv3x3(rng, 3, 3, upsample=True)
    up.w.data = np.kron(np.eye(9)[4], np.eye(3)).T
    np.testing.assert_array_equal(up(down).data, np.ones((2, 3, 4, 4)))
    with pytest.raises(ShapeError):
        avg_pool2(Tensor(np.ones((1, 1, 3, 4))))


# -- Conv3x3 --------------------------------------------------------------------


def padded_crop_conv(conv, x):
    """Reference Conv3x3 from pad_last2, nine crop_last2 windows and concat."""
    b, _, h, w = x.shape
    padded = ad.pad_last2(x, 1)
    patches = [ad.crop_last2(padded, dy, dx, h, w) for dy in range(3) for dx in range(3)]
    tokens = ad.concat(patches, axis=1).transpose(0, 2, 3, 1).reshape(b * h * w, 9 * conv.c_in)
    y = ad.add(ad.matmul(tokens, conv.w), conv.b)
    return y.reshape(b, h, w, conv.c_out).transpose(0, 3, 1, 2)


def loop_conv(conv, x):
    """Plain-loop 3x3 same-padding convolution with weight rows (dy, dx, c)."""
    b, c_in, h, w = x.shape
    kernel = conv.w.data.reshape(3, 3, c_in, conv.c_out)
    padded = np.pad(x, [(0, 0), (0, 0), (1, 1), (1, 1)])
    out = np.zeros((b, conv.c_out, h, w))
    for i in range(h):
        for j in range(w):
            for dy in range(3):
                for dx in range(3):
                    out[:, :, i, j] += padded[:, :, i + dy, j + dx] @ kernel[dy, dx]
    return out + conv.b.data[None, :, None, None]


@pytest.mark.parametrize(
    "shape,c_out", [((64, 32, 8, 8), 32), ((1, 4, 4, 6), 3), ((3, 2, 5, 2), 4), ((2, 3, 1, 1), 2)]
)
def test_conv3x3_matches_padded_crop_reference(shape, c_out):
    rng = np.random.default_rng(7)
    conv = Conv3x3(rng, shape[1], c_out)
    conv.b.data = rng.normal(size=c_out)
    x_data = rng.normal(size=shape)
    weight = Tensor(rng.normal(size=(shape[0], c_out) + shape[2:]))
    runs = []
    for forward in (conv, lambda x: padded_crop_conv(conv, x)):
        x = Tensor(x_data, requires_grad=True)
        y = forward(x)
        ad.sum_(ad.mul(y, weight)).backward()
        runs.append((y.data, x.grad, conv.w.grad.copy(), conv.b.grad.copy()))
    for new, old in zip(*runs):
        np.testing.assert_array_equal(new, old)
    np.testing.assert_allclose(runs[0][0], loop_conv(conv, x_data), rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("channel_last", [False, True])
@pytest.mark.parametrize("shape,c_out", [((2, 3, 1, 1), 2), ((3, 2, 3, 5), 4)])
def test_upsample_conv3x3_matches_loop_conv_of_repeated_input(shape, c_out, channel_last):
    rng = np.random.default_rng(11)
    conv = Conv3x3(rng, shape[1], c_out, upsample=True)
    conv.b.data = rng.normal(size=c_out)
    x = rng.normal(size=shape)
    if channel_last:
        x = np.ascontiguousarray(x.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)
    y = conv(Tensor(x))
    assert y._op == "conv3x3"
    fine = np.repeat(np.repeat(x, 2, axis=2), 2, axis=3)
    np.testing.assert_allclose(y.data, loop_conv(conv, fine), rtol=1e-12, atol=1e-12)


# -- model and mask ---------------------------------------------------------------


def test_denoiser_output_shape_and_cond_broadcast(rng):
    model = tiny_model()
    x = rng.normal(size=(3, 2, 4, 4))
    v = model.denoise(x, np.array([1, 5, 9]))
    assert v.shape == (3, 2, 4, 4)


def test_denoise_is_velocity_of_trunk_and_branch(rng):
    model = tiny_model()
    net = model.denoiser
    x = Tensor(rng.normal(size=(2, 2, 4, 4)))
    cond = Tensor(rng.normal(size=(2, 4 + ADAPTER_TOKENS, 8)))
    for t, c, used in [(4, None, model.null_condition(2)), (np.array([1, 8]), cond, cond)]:
        np.testing.assert_array_equal(
            model.denoise(x, t, c).data,
            model.velocity(x, t, net.branch(net.trunk(x, t), used)).data,
        )


def test_velocity_head_uses_schedule_scaling(rng):
    model = tiny_model()
    sched = model.schedule
    x = Tensor(rng.normal(size=(2, 2, 4, 4)))
    t = np.array([2, 7])
    raw = model.denoiser(x, t, model.null_condition(2))
    v = model.denoise(x, t)
    a = sched.alphas[t].reshape(2, 1, 1, 1)
    s = sched.sigmas[t].reshape(2, 1, 1, 1)
    np.testing.assert_allclose(v.data, s * (a * x.data - raw.data), rtol=1e-12)


def two_pass_sample(model, cond_latents, scale, steps, seed):
    """The guided sampler as two full ``model.denoise`` passes per step."""
    sched = model.schedule
    ts = np.round(np.linspace(0, sched.steps - 1, steps)).astype(int)[::-1]
    b = cond_latents.shape[0]
    x = np.random.default_rng(np.random.SeedSequence([seed, 31])).standard_normal((b,) + TINY.grid)
    with ad.no_grad():
        adapted = model.adapter(Tensor(cond_latents.mean(axis=1))).data
        cond = Tensor(np.concatenate([cond_latents, adapted], axis=1))
        for i, t in enumerate(ts):
            t_arr = np.full(b, t)
            v = model.denoise(Tensor(x), t_arr, None).data
            if scale != 0.0:
                v = cfg_combine(v, model.denoise(Tensor(x), t_arr, cond).data, scale)
            a, s = sched.alphas[t], sched.sigmas[t]
            x0_hat, eps_hat = a * x - s * v, s * x + a * v
            if i + 1 < len(ts):
                x = sched.alphas[ts[i + 1]] * x0_hat + sched.sigmas[ts[i + 1]] * eps_hat
            else:
                x = x0_hat
    return x


@pytest.mark.parametrize("batch", [1, 3])
def test_sample_matches_two_pass_reference(batch):
    model = tiny_model(seed=4, steps=20)
    cond_latents = np.random.default_rng(9).normal(size=(batch, 4, 8))
    outs = {}
    for scale in (0.0, 1.0, 7.5):
        outs[scale] = sample(model, cond_latents, scale, steps=6, seed=2)
        np.testing.assert_array_equal(outs[scale], two_pass_sample(model, cond_latents, scale, 6, 2))
    assert not np.array_equal(outs[0.0], outs[7.5])


def test_guided_step_shares_the_trunk(monkeypatch):
    calls = []
    conv_call = Conv3x3.__call__
    monkeypatch.setattr(Conv3x3, "__call__", lambda self, x: calls.append(self) or conv_call(self, x))
    model = tiny_model()
    cond_latents = np.zeros((2, 4, 8))
    for scale, per_step in [(7.5, 12), (0.0, 7)]:
        calls.clear()
        sample(model, cond_latents, scale, steps=3)
        assert len(calls) == 3 * per_step


def test_mask_covers_adapter_and_kv_only():
    model = tiny_model()
    mask = selective_finetune_mask(model)
    assert mask == tuple(sorted(mask))
    for name in mask:
        assert name.startswith("adapter.") or (".xattn" in name and name.endswith((".k.w", ".v.w")))
    kv = [n for n in mask if n.endswith((".k.w", ".v.w"))]
    assert len(kv) == 4  # two attention sites, two projections each
    assert "unet.xattn1.q.w" not in mask
    assert "unet.in.w" not in mask


def test_apply_train_mask_sets_requires_grad():
    model = tiny_model()
    mask = selective_finetune_mask(model)
    trainable = apply_train_mask(model, mask)
    assert set(trainable) == set(mask)
    for name, p in model.params().items():
        assert p.requires_grad == (name in mask)
    with pytest.raises(ConfigError):
        apply_train_mask(model, ("unet.bogus.w",))


def test_no_grad_context_restores_flags(rng):
    model = tiny_model()
    apply_train_mask(model, selective_finetune_mask(model))
    saved = {n: p.requires_grad for n, p in model.params().items()}
    x = rng.normal(size=(2,) + TINY.grid)
    with ad.no_grad():
        out = model.denoise(x, 3)
        assert not out.requires_grad and out._parents == ()
    assert {n: p.requires_grad for n, p in model.params().items()} == saved
    assert model.denoise(x, 3).requires_grad


def test_state_round_trip(rng):
    model = tiny_model(seed=5)
    clone = tiny_model(seed=6)
    clone.load_state(model.state())
    x = rng.normal(size=(2, 2, 4, 4))
    np.testing.assert_array_equal(model.denoise(x, 3).data, clone.denoise(x, 3).data)


def test_load_state_rejects_foreign_names():
    state = tiny_model().state()
    state["unet.extra.w"] = state.pop("unet.mid.w")
    with pytest.raises(ConfigError, match=r"missing \['unet\.mid\.w'\], unexpected \['unet\.extra\.w'\]"):
        tiny_model().load_state(state)


def test_checkpoint_record_names_and_shapes():
    # the stage-2 checkpoint format at the tiny config
    def attn(c):  # a cross-attention block over c channels
        return {"norm.gain": (c,), "norm.bias": (c,), "q.w": (c, 4), "k.w": (8, 4), "v.w": (8, 4),
                "out.w": (4, c), "out.b": (c,)}

    expected = {
        "adapter.fc_in.w": (8, 32), "adapter.fc_in.b": (32,), "adapter.norm.gain": (8,), "adapter.norm.bias": (8,),
        "adapter.fc_out.w": (8, 8), "adapter.fc_out.b": (8,), "adapter.null_cond": (8, 8),
        "unet.time.fc1.w": (8, 8), "unet.time.fc1.b": (8,), "unet.time.fc2.w": (8, 8), "unet.time.fc2.b": (8,),
        "unet.time.proj1.w": (8, 4), "unet.time.proj1.b": (4,), "unet.time.proj2.w": (8, 8), "unet.time.proj2.b": (8,),
        "unet.in.w": (18, 4), "unet.in.b": (4,), "unet.enc1.w": (36, 4), "unet.enc1.b": (4,),
        **{f"unet.xattn1.{name}": shape for name, shape in attn(4).items()},
        "unet.down.w": (36, 8), "unet.down.b": (8,), "unet.mid.w": (72, 8), "unet.mid.b": (8,),
        **{f"unet.xattn2.{name}": shape for name, shape in attn(8).items()},
        "unet.up.w": (72, 4), "unet.up.b": (4,), "unet.dec1.w": (36, 4), "unet.dec1.b": (4,),
        "unet.out.w": (36, 2), "unet.out.b": (2,),
    }
    state = tiny_model().state()
    assert sorted((name, value.shape) for name, value in state.items()) == sorted(expected.items())


def test_default_finetune_mask():
    model = build_stage2_model(RunConfig(), np.random.default_rng(0))
    assert selective_finetune_mask(model) == (
        "adapter.fc_in.b", "adapter.fc_in.w", "adapter.fc_out.b", "adapter.fc_out.w",
        "adapter.norm.bias", "adapter.norm.gain", "adapter.null_cond",
        "unet.xattn1.k.w", "unet.xattn1.v.w", "unet.xattn2.k.w", "unet.xattn2.v.w",
    )


def test_class_target_latents_unit_rms():
    lat = class_target_latents(5, (2, 4, 4), seed=11)
    assert lat.shape == (5, 2, 4, 4)
    rms = np.sqrt((lat**2).mean(axis=(1, 2, 3)))
    np.testing.assert_allclose(rms, 1.0, atol=1e-12)
    np.testing.assert_array_equal(lat, class_target_latents(5, (2, 4, 4), seed=11))


def test_class_target_latents_fit_every_even_grid():
    for h in range(2, 41, 2):
        for w in range(2, 41, 2):
            lat = class_target_latents(3, (2, h, w), seed=4)
            assert lat.shape == (3, 2, h, w), (h, w)
            np.testing.assert_allclose(np.sqrt((lat**2).mean(axis=(1, 2, 3))), 1.0, atol=1e-12)
            bh, bw = max(1, h // 4), max(1, w // 4)
            if h % bh == 0 and w % bw == 0:
                # where whole-cell repeats fit, the anchors are those repeats, bit for bit
                coarse = np.random.default_rng(np.random.SeedSequence([4, 8])).standard_normal((3, 2, bh, bw))
                tiled = np.repeat(np.repeat(coarse, h // bh, axis=2), w // bw, axis=3)
                rms = np.sqrt((tiled * tiled).mean(axis=(1, 2, 3), keepdims=True))
                np.testing.assert_array_equal(lat, tiled / rms)


# -- training step -----------------------------------------------------------------


def batch_for(model, rng, b=4):
    return {
        "x0": rng.normal(size=(b,) + TINY.grid),
        "cond": rng.normal(size=(b, 4, 8)),
    }


def test_train_step_updates_only_masked_params(rng):
    model = tiny_model()
    mask = selective_finetune_mask(model)
    trainable = apply_train_mask(model, mask)
    before = model.state()
    opt = Adam(trainable, 1e-3)
    loss = stage2_train_step(batch_for(model, rng), model, opt, np.random.default_rng(0), drop_prob=0.5)
    assert np.isfinite(loss)
    after = model.state()
    for name in before:
        if name in mask:
            assert not np.array_equal(before[name], after[name]), name
        else:
            np.testing.assert_array_equal(before[name], after[name], err_msg=name)


def test_train_step_skips_frozen_gradients(rng):
    batch = batch_for(tiny_model(), rng)
    frozen_model, open_model = tiny_model(), tiny_model()
    mask = selective_finetune_mask(frozen_model)
    trainable = apply_train_mask(frozen_model, mask)
    for model, params in ((frozen_model, trainable), (open_model, open_model.params())):
        stage2_train_step(batch, model, Adam(params, 1e-3), np.random.default_rng(0), drop_prob=0.5)
    open_params = open_model.params()
    for name, p in frozen_model.params().items():
        if name in mask:
            np.testing.assert_array_equal(p.grad, open_params[name].grad, err_msg=name)
        else:
            assert p.grad is None, name


def test_train_step_graph_needs_no_cyclic_gc(rng):
    model = tiny_model()
    opt = Adam(apply_train_mask(model, selective_finetune_mask(model)), 1e-3)
    step_rng = np.random.default_rng(0)
    stage2_train_step(batch_for(model, rng), model, opt, step_rng)
    batch = batch_for(model, rng)
    gc.collect()
    gc.disable()
    try:
        stage2_train_step(batch, model, opt, step_rng)
        # reference counting alone freed the step's graph
        assert gc.collect() == 0
    finally:
        gc.enable()


def inline_loss_train_step(batch, model, optimizer, rng, drop_prob, gamma=0.5):
    """Reference stage-2 step with the weighted velocity loss written out inline."""
    schedule = model.schedule
    x0, cond_lat = batch["x0"], batch["cond"]
    pooled = cond_lat.mean(axis=1)
    b = x0.shape[0]
    t = rng.integers(0, schedule.steps, size=b)
    eps = rng.standard_normal(x0.shape)
    drop = rng.random(b) < drop_prob
    alpha = schedule.alphas[t].reshape(b, 1, 1, 1)
    sigma = schedule.sigmas[t].reshape(b, 1, 1, 1)
    x_t = Tensor(alpha * x0 + sigma * eps)
    v_tgt = Tensor(alpha * eps - sigma * x0)
    cond = build_condition(Tensor(cond_lat), model.adapter(Tensor(pooled)))
    keep = Tensor((~drop).astype(np.float64).reshape(b, 1, 1))
    dropped = Tensor(drop.astype(np.float64).reshape(b, 1, 1))
    cond_used = ad.add(ad.mul(cond, keep), ad.mul(model.null_condition(b), dropped))
    pred = model.denoise(x_t, t, cond_used)
    snr = np.clip(alpha**2 / sigma**2, 1e-8, 1e8)
    diff = ad.sub(v_tgt, pred)
    loss = ad.mean(ad.mul(Tensor(snr ** (-gamma)), ad.mul(diff, diff)))
    optimizer.minimize(loss)
    return float(loss.data)


def test_train_step_matches_inline_loss_reference(rng):
    batches = [batch_for(tiny_model(), rng) for _ in range(3)]
    runs = []
    for step in (stage2_train_step, inline_loss_train_step):
        model = tiny_model()
        opt = Adam(apply_train_mask(model, selective_finetune_mask(model)), 1e-3)
        step_rng = np.random.default_rng(5)
        losses = [step(batch, model, opt, step_rng, drop_prob=0.5) for batch in batches]
        runs.append((losses, model.state()))
    (losses, state), (ref_losses, ref_state) = runs
    assert losses == ref_losses
    for name in ref_state:
        np.testing.assert_array_equal(state[name], ref_state[name], err_msg=name)


# -- sampling ---------------------------------------------------------------------


def test_sample_deterministic_and_shaped(rng):
    model = tiny_model()
    cond = rng.normal(size=(3, 4, 8))
    one = sample(model, cond, 2.0, steps=5, seed=9)
    two = sample(model, cond, 2.0, steps=5, seed=9)
    np.testing.assert_array_equal(one, two)
    assert one.shape == (3, 2, 4, 4)
    other = sample(model, cond, 2.0, steps=5, seed=10)
    assert not np.array_equal(one, other)


def test_sample_scale_zero_ignores_conditioning(rng):
    model = tiny_model()
    a = sample(model, rng.normal(size=(2, 4, 8)), 0.0, steps=4, seed=3)
    b = sample(model, rng.normal(size=(2, 4, 8)), 0.0, steps=4, seed=3)
    np.testing.assert_array_equal(a, b)


def test_sample_validates_steps_and_shape(rng):
    model = tiny_model()
    cond = rng.normal(size=(2, 4, 8))
    with pytest.raises(ConfigError):
        sample(model, cond, 1.0, steps=0)
    with pytest.raises(ConfigError):
        sample(model, cond, 1.0, steps=99)
    with pytest.raises(ShapeError):
        sample(model, rng.normal(size=(2, 8)), 1.0, steps=2)


def test_sample_leaves_grad_flags_intact(rng):
    model = tiny_model()
    apply_train_mask(model, selective_finetune_mask(model))
    saved = {n: p.requires_grad for n, p in model.params().items()}
    sample(model, rng.normal(size=(2, 4, 8)), 1.5, steps=3)
    assert {n: p.requires_grad for n, p in model.params().items()} == saved
