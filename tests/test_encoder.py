import re
from dataclasses import replace

import numpy as np
import pytest

from eegdiff import autodiff as ad
from eegdiff.autodiff import ShapeError, Tensor
from eegdiff.encoder import EncoderConfig, SignalAutoencoder, SpatialBlock, mean_pool_latent
from eegdiff.nn import ConfigError

TINY = EncoderConfig(channels=4, samples=16, latent_tokens=4, latent_dim=8,
                     temporal_dim=16, heads=2, depth=1)


def test_encode_decode_shapes(rng):
    model = SignalAutoencoder(TINY, rng)
    x = Tensor(rng.normal(size=(3, 4, 16)))
    z = model.encode_batch(x)
    assert z.shape == (3, 4, 8)
    recon = model.decode_batch(z)
    assert recon.shape == (3, 4, 16)


def test_encode_rejects_wrong_dims(rng):
    model = SignalAutoencoder(TINY, rng)
    with pytest.raises(Exception):
        model.encode_batch(Tensor(rng.normal(size=(3, 5, 16))))


def test_spatial_block_is_channel_permutation_equivariant(rng):
    block = SpatialBlock(rng, width=16, heads=2)
    x = rng.normal(size=(2, 6, 16))
    perm = rng.permutation(6)
    out = block(Tensor(x)).data
    out_perm = block(Tensor(x[:, perm])).data
    np.testing.assert_allclose(out[:, perm], out_perm, atol=1e-12)


def bn_buffers(model) -> dict:
    """A copy of the batch-norm running statistics in ``model.state()``."""
    return {k: v for k, v in model.state().items() if ".running_" in k}


def test_training_mode_updates_bn_buffers(rng):
    model = SignalAutoencoder(TINY, rng)
    before = bn_buffers(model)
    assert before
    model.encode_batch(Tensor(rng.normal(size=(4, 4, 16))), training=True)
    after = bn_buffers(model)
    changed = any(not np.array_equal(before[k], after[k]) for k in before)
    assert changed
    # eval mode leaves buffers alone
    model.encode_batch(Tensor(rng.normal(size=(4, 4, 16))))
    frozen = bn_buffers(model)
    for k in after:
        np.testing.assert_array_equal(after[k], frozen[k])


def test_state_round_trip(rng):
    model = SignalAutoencoder(TINY, rng)
    model.encode_batch(Tensor(rng.normal(size=(4, 4, 16))), training=True)
    state = model.state()
    clone = SignalAutoencoder(TINY, np.random.default_rng(999))
    clone.load_state(state)
    x = Tensor(rng.normal(size=(2, 4, 16)))
    np.testing.assert_array_equal(model.encode_batch(x).data, clone.encode_batch(x).data)


def test_load_state_missing_key(rng):
    model = SignalAutoencoder(TINY, rng)
    state = model.state()
    key = sorted(state)[0]
    state.pop(key)
    clone = SignalAutoencoder(TINY, np.random.default_rng(0))
    with pytest.raises(ConfigError, match=re.escape(f"missing ['{key}']")):
        clone.load_state(state)


def test_load_state_unexpected_key(rng):
    model = SignalAutoencoder(TINY, rng)
    state = model.state() | {"spatial9.q.w": np.zeros((2, 2))}
    clone = SignalAutoencoder(TINY, np.random.default_rng(0))
    with pytest.raises(ConfigError, match=re.escape("unexpected ['spatial9.q.w']")):
        clone.load_state(state)


def test_load_state_wrong_buffer_shape(rng):
    state = SignalAutoencoder(TINY, rng).state() | {"temporal.bn.running_var": np.ones(3)}
    clone = SignalAutoencoder(TINY, np.random.default_rng(0))
    before = clone.state()
    message = "buffer 'temporal.bn.running_var' has shape (16,), state provides (3,)"
    with pytest.raises(ShapeError, match=re.escape(message)):
        clone.load_state(state)
    # nothing is assigned when one record does not fit
    after = clone.state()
    for name in before:
        np.testing.assert_array_equal(before[name], after[name], err_msg=name)


def test_checkpoint_record_names_and_shapes(rng):
    # the stage-1 checkpoint format; samples == temporal_dim, so no shortcut
    state = SignalAutoencoder(replace(TINY, depth=2), rng).state()
    block = {"q.w": (16, 16), "q.b": (16,), "k.w": (16, 16), "k.b": (16,), "v.w": (16, 16), "v.b": (16,),
             "out.w": (16, 16), "out.b": (16,), "norm.gain": (16,), "norm.bias": (16,)}
    expected = {
        "temporal.proj.w": (16, 16), "temporal.proj.b": (16,),
        "temporal.bn.gain": (16,), "temporal.bn.bias": (16,),
        "temporal.bn.running_mean": (16,), "temporal.bn.running_var": (16,),
        **{f"spatial0.{name}": shape for name, shape in block.items()},
        **{f"spatial1.{name}": shape for name, shape in block.items()},
        "enc_tokens.w": (4, 4), "enc_feat.w": (16, 8), "enc_feat.b": (8,),
        "dec_feat.w": (8, 16), "dec_feat.b": (16,), "dec_tokens.w": (4, 4),
        "dec_head.w": (16, 16), "dec_head.b": (16,),
    }
    assert sorted((name, value.shape) for name, value in state.items()) == sorted(expected.items())


def test_mean_pool_latent(rng):
    z = rng.normal(size=(5, 4, 8))
    pooled = mean_pool_latent(Tensor(z))
    np.testing.assert_allclose(pooled.data, z.mean(axis=1), rtol=1e-12)


def test_autoencoder_gradients_flow_everywhere(rng):
    model = SignalAutoencoder(TINY, rng)
    x = Tensor(rng.normal(size=(3, 4, 16)))
    z = model.encode_batch(x, training=True)
    recon = model.decode_batch(z)
    loss = ad.mean(ad.mul(recon, recon))
    loss.backward()
    for name, p in model.params().items():
        assert p.grad is not None, name
        assert np.isfinite(p.grad).all(), name
