import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eegdiff import autodiff as ad
from eegdiff.autodiff import ShapeError, Tensor
from eegdiff.diffusion import DenoiserConfig, NoiseSchedule, Stage2Model, build_schedule
from eegdiff.losses import (
    LossWeights,
    cfg_combine,
    contrastive_loss,
    mse_loss,
    recon_loss,
    sdsc_loss,
    snr_weight,
    stage1_loss_terms,
    text_align_loss,
    v_loss,
    v_target,
)
from eegdiff.nn import ConfigError

finite = st.floats(-8.0, 8.0, allow_nan=False)


def arrays(seed, shape, scale=1.0):
    return np.random.default_rng(seed).normal(scale=scale, size=shape)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_sdsc_symmetric_and_bounded(seed):
    a = Tensor(arrays(seed, (3, 7)))
    b = Tensor(arrays(seed + 1, (3, 7)))
    ab = float(sdsc_loss(a, b).data)
    ba = float(sdsc_loss(b, a).data)
    assert abs(ab - ba) < 1e-12
    assert 0.0 <= ab <= 1.0


def test_sdsc_zero_denominator_is_zero():
    z = Tensor(np.zeros((2, 4)))
    assert float(sdsc_loss(z, z).data) == 0.0


def test_sdsc_opposite_signs_score_badly(rng):
    x = Tensor(rng.normal(size=(2, 16)) + 3.0)
    loss = float(sdsc_loss(x, ad.mul(x, -1.0)).data)
    assert loss > 0.9


def test_mse_and_recon_composition(rng):
    a, b = rng.normal(size=(3, 4)), rng.normal(size=(3, 4))
    w = LossWeights(sdsc=0.2)
    got = float(recon_loss(Tensor(a), Tensor(b), w).data)
    want = float(mse_loss(Tensor(a), Tensor(b)).data) + 0.2 * float(sdsc_loss(Tensor(a), Tensor(b)).data)
    assert abs(got - want) < 1e-12


def test_text_align_cosine_term_scale_invariant(rng):
    latent = rng.normal(size=(2, 4, 6))
    text = Tensor(rng.normal(size=(2, 4, 6)))
    w = LossWeights(mse=0.0, cos=1.0)
    one = float(text_align_loss(Tensor(latent), text, w).data)
    scaled = float(text_align_loss(Tensor(37.5 * latent), text, w).data)
    assert abs(one - scaled) < 1e-12


def test_contrastive_uniform_similarities_give_log_n():
    same = np.tile(np.array([1.0, 2.0, 3.0]), (5, 1))
    loss = float(contrastive_loss(Tensor(same), Tensor(same.copy()), 0.07).data)
    assert abs(loss - np.log(5)) < 1e-12


def test_contrastive_prefers_matched_pairs(rng):
    x = np.eye(4) + 0.01 * rng.normal(size=(4, 4))
    aligned = float(contrastive_loss(Tensor(x), Tensor(np.eye(4)), 0.07).data)
    shuffled = float(contrastive_loss(Tensor(x[::-1].copy()), Tensor(np.eye(4)), 0.07).data)
    assert aligned < shuffled
    assert aligned < np.log(4)


def test_contrastive_single_pair_is_zero():
    x = Tensor(np.ones((1, 3)))
    assert float(contrastive_loss(x, x, 0.07).data) == pytest.approx(0.0, abs=1e-12)


def test_contrastive_validation():
    with pytest.raises(ShapeError):
        contrastive_loss(Tensor(np.ones((0, 3))), Tensor(np.ones((0, 3))), 0.07)
    with pytest.raises(ValueError):
        contrastive_loss(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))), 0.0)


def test_stage1_terms_sum_to_total(rng):
    b, c, s, t, d = 3, 2, 8, 4, 6
    x = Tensor(rng.normal(size=(b, c, s)))
    recon = Tensor(rng.normal(size=(b, c, s)))
    z = Tensor(rng.normal(size=(b, t, d)))
    text = Tensor(rng.normal(size=(b, t, d)))
    pooled = Tensor(rng.normal(size=(b, d)))
    img = Tensor(rng.normal(size=(b, d)))
    w = LossWeights(recon=1.0, align=0.7, contrast=0.3)
    total, terms = stage1_loss_terms(x, recon, z, text, pooled, img, w)
    want = terms["recon"].data + 0.7 * terms["align"].data + 0.3 * terms["contrast"].data
    assert abs(float(total.data) - float(want)) < 1e-12


def test_loss_weights_validation():
    with pytest.raises(ConfigError):
        LossWeights(temperature=0.0).validate()
    with pytest.raises(ConfigError):
        LossWeights(recon=-1.0).validate()


def test_snr_weight_spot_values():
    half = np.sqrt(0.5)
    sched = NoiseSchedule(alphas=np.array([half]), sigmas=np.array([half]))
    assert snr_weight(sched, 0, 0.5) == 1.0
    sched4 = NoiseSchedule(alphas=np.array([np.sqrt(0.8)]), sigmas=np.array([np.sqrt(0.2)]))
    assert abs(snr_weight(sched4, 0, 0.5) - 0.5) < 1e-12


def test_snr_weight_clamps_extremes():
    sched = NoiseSchedule(alphas=np.array([1.0]), sigmas=np.array([0.0]))
    assert snr_weight(sched, 0, 0.5) == 1e8 ** (-0.5)


@given(st.integers(0, 2**32 - 1), st.integers(0, 99))
@settings(max_examples=40, deadline=None)
def test_v_target_round_trip(seed, t):
    sched = build_schedule(100)
    g = np.random.default_rng(seed)
    x0 = g.normal(size=(2, 3))
    eps = g.normal(size=(2, 3))
    alpha, sigma = sched.alphas[t], sched.sigmas[t]
    x_t = alpha * x0 + sigma * eps
    v = v_target(x0, eps, t, sched).data
    recovered = alpha * x_t - sigma * v
    np.testing.assert_allclose(recovered, x0, atol=1e-12)


def test_v_loss_zero_for_perfect_model(rng):
    sched = build_schedule(20)
    x0 = rng.normal(size=(2, 2, 3, 3))
    eps = rng.normal(size=(2, 2, 3, 3))

    def perfect(x_t, t, cond):
        return v_target(Tensor(x0), Tensor(eps), t, sched)

    loss = v_loss(x0, eps, 7, None, perfect, sched)
    assert float(loss.data) < 1e-28


def test_snr_weight_and_v_target_take_per_sample_t(rng):
    sched = build_schedule(20)
    t = np.array([0, 7, 19])
    weights = snr_weight(sched, t, 0.5)
    assert weights.shape == (3,)
    for i, ti in enumerate(t):
        assert weights[i] == snr_weight(sched, int(ti), 0.5)
    x0 = rng.normal(size=(3, 2, 5))
    eps = rng.normal(size=(3, 2, 5))
    v = v_target(x0, eps, t, sched).data
    for i, ti in enumerate(t):
        np.testing.assert_array_equal(v[i : i + 1], v_target(x0[i : i + 1], eps[i : i + 1], ti, sched).data)
    with pytest.raises(ShapeError):
        v_target(x0, eps, t[:2], sched)


def test_v_loss_per_sample_t_matches_scalar_calls(rng):
    sched = build_schedule(10)
    model = Stage2Model(
        DenoiserConfig(cond_dim=4, grid=(2, 4, 4), widths=(4, 8), attn_width=4, attn_heads=2, time_dim=8),
        rng, latent_tokens=2, latent_dim=4, schedule=sched,
    )
    x0 = Tensor(rng.normal(size=(2, 2, 4, 4)), requires_grad=True)
    eps = rng.normal(size=(2, 2, 4, 4))
    t = np.array([2, 7])
    loss = v_loss(x0, eps, t, None, model.denoise, sched)
    loss.backward()
    singles = []
    for i, ti in enumerate(t):
        xi = Tensor(x0.data[i : i + 1], requires_grad=True)
        single = v_loss(xi, eps[i : i + 1], int(ti), None, model.denoise, sched)
        single.backward()
        singles.append(float(single.data))
        # each sample carries half of the batch mean
        np.testing.assert_allclose(x0.grad[i : i + 1], xi.grad / 2, rtol=1e-12, atol=1e-15)
    np.testing.assert_allclose(float(loss.data), np.mean(singles), rtol=1e-12)


def test_cfg_combine_endpoints_and_formula(rng):
    u, c = rng.normal(size=(2, 5)), rng.normal(size=(2, 5))
    np.testing.assert_array_equal(cfg_combine(u, c, 0.0), u)
    np.testing.assert_array_equal(cfg_combine(u, c, 1.0), c)
    out = cfg_combine(u, c, 7.5)
    np.testing.assert_allclose(out, u + 7.5 * (c - u), rtol=1e-12)
    assert cfg_combine(u, c, 0.0) is not u


@given(st.integers(0, 2**32 - 1), st.floats(-2.0, 12.0, allow_nan=False))
@settings(max_examples=30, deadline=None)
def test_cfg_combine_affine_in_scale(seed, s):
    g = np.random.default_rng(seed)
    u, c = g.normal(size=(3, 4)), g.normal(size=(3, 4))
    np.testing.assert_allclose(cfg_combine(u, c, s), u + s * (c - u), atol=1e-12)
