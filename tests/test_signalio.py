import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import tiny_config
from eegdiff import signalio
from eegdiff.signalio import (
    ContainerError,
    DataError,
    bandpass_filter,
    generate_dataset,
    load_checkpoint,
    preprocess,
    read_container,
    save_checkpoint,
    write_container,
    write_csv,
)
from eegdiff.training import load_data


def tone(freq, fs, n, phase=0.0):
    t = np.arange(n) / fs
    return np.sin(2 * np.pi * freq * t + phase)


# -- container -----------------------------------------------------------------


def test_container_round_trip(tmp_path, rng):
    arrays = {"b": rng.normal(size=(3, 4)), "a": rng.normal(size=7)}
    meta = {"kind": "test", "note": 5}
    path = tmp_path / "x.bin"
    offsets = write_container(path, arrays, meta)
    assert sorted(offsets) == ["a", "b"]
    got, got_meta = read_container(path, kind="test", records=("a", "b"))
    assert got_meta == meta
    np.testing.assert_array_equal(got["a"], arrays["a"])
    np.testing.assert_array_equal(got["b"], arrays["b"])


def test_container_write_is_deterministic(tmp_path, rng):
    arrays = {"z": rng.normal(size=(2, 2)), "a": rng.normal(size=3)}
    p1, p2 = tmp_path / "one.bin", tmp_path / "two.bin"
    write_container(p1, arrays, {"kind": "t"})
    write_container(p2, arrays, {"kind": "t"})
    assert p1.read_bytes() == p2.read_bytes()


def test_container_rejects_bad_magic_and_truncation(tmp_path, rng):
    path = tmp_path / "x.bin"
    write_container(path, {"a": rng.normal(size=4)}, {"kind": "t"})
    blob = path.read_bytes()

    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"XXXX" + blob[4:])
    with pytest.raises(ContainerError):
        read_container(bad)

    short = tmp_path / "short.bin"
    short.write_bytes(blob[:-9])
    with pytest.raises(ContainerError):
        read_container(short)

    long = tmp_path / "long.bin"
    long.write_bytes(blob + b"\x00")
    with pytest.raises(ContainerError):
        read_container(long)


@pytest.fixture(scope="module")
def fuzz_blob(tmp_path_factory):
    """A small container whose headers are a large share of its bytes."""
    rng = np.random.default_rng(3)
    arrays = {"w": rng.normal(size=(2, 3)), "bias\u00e9": rng.normal(size=2), "s": np.float64(1.5)}
    path = tmp_path_factory.mktemp("fuzz") / "x.bin"
    write_container(path, arrays, {"kind": "t"})
    return path.read_bytes()


@given(
    flips=st.lists(st.tuples(st.integers(0, 10_000), st.integers(0, 255)), max_size=4),
    cut=st.one_of(st.none(), st.integers(0, 10_000)),
)
@settings(max_examples=400, deadline=None)
def test_read_container_raises_only_container_error(tmp_path_factory, fuzz_blob, flips, cut):
    blob = bytearray(fuzz_blob)
    for pos, byte in flips:
        blob[pos % len(blob)] = byte
    if cut is not None:
        blob = blob[: cut % len(blob)]
    path = tmp_path_factory.getbasetemp() / "fuzz.bin"
    path.write_bytes(bytes(blob))
    try:
        read_container(path)
    except ContainerError:
        pass


def test_read_container_rejects_bad_name_size_and_meta(tmp_path, fuzz_blob):
    name_at = fuzz_blob.index(b"\x06\x00bias") + 6  # first byte of the UTF-8 "\u00e9"
    dim_at = fuzz_blob.index(b"\x01\x00w\x02") + 4  # first dimension of "w"
    path = tmp_path / "bad.bin"
    # an invalid UTF-8 name; a dimension of about 2**62, whose product with
    # the next one wraps around in int64; "bias\u00e9" read as 5-d, whose
    # shape holds a 0 next to dimensions above 2**63 that numpy cannot take
    for pos, byte in [(name_at, 0xFF), (dim_at + 7, 0x40), (name_at + 2, 5)]:
        blob = bytearray(fuzz_blob)
        blob[pos] = byte
        path.write_bytes(bytes(blob))
        with pytest.raises(ContainerError):
            read_container(path)
    write_container(path, {}, [1])  # meta that is JSON but not an object
    with pytest.raises(ContainerError, match="not a JSON object"):
        read_container(path)
    # a well-formed container of another kind, or without a named record
    path.write_bytes(fuzz_blob)
    with pytest.raises(ContainerError, match="is not a checkpoint container"):
        read_container(path, kind="checkpoint")
    with pytest.raises(ContainerError, match=r"lacks records: \['labels'\]"):
        read_container(path, kind="t", records=("w", "labels"))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_read_container_rejects_non_finite_records(tmp_path, rng, bad):
    b = rng.normal(size=(2, 3))
    b[1, 2] = bad
    path = tmp_path / "x.bin"
    write_container(path, {"a": rng.normal(size=4), "b": b}, {"kind": "t"})
    with pytest.raises(ContainerError, match=f"^{path} record 'b' holds non-finite values$"):
        read_container(path)
    # whatever the container's kind
    save_checkpoint(path, {"w": b})
    with pytest.raises(ContainerError, match="record 'w' holds non-finite values"):
        load_checkpoint(path)


def test_failed_write_keeps_old_file_and_leaves_no_temp(tmp_path, rng):
    path = tmp_path / "x.bin"
    write_container(path, {"a": rng.normal(size=4)}, {"kind": "t"})
    old = path.read_bytes()
    # "a" is written first; "b" cannot become float64, so the write fails part-way
    with pytest.raises(ValueError):
        write_container(path, {"a": rng.normal(size=4), "b": np.array(["x"])}, {"kind": "t"})
    assert path.read_bytes() == old
    assert [p.name for p in tmp_path.iterdir()] == ["x.bin"]


@pytest.mark.parametrize("target", ["t.csv", "manifest.json"])
def test_failed_text_write_keeps_old_file_and_leaves_no_temp(tmp_path, monkeypatch, target):
    path = tmp_path / target
    path.write_bytes(b"earlier\n")
    replace = signalio.os.replace

    def fail_on_target(src, dst):
        if Path(dst).name == target:
            raise OSError(f"cannot replace {dst}")
        replace(src, dst)

    monkeypatch.setattr(signalio.os, "replace", fail_on_target)
    with pytest.raises(OSError, match="cannot replace"):
        if target == "t.csv":
            write_csv(path, ["a", "b"], [[1, 0.5]])
        else:
            generate_dataset(tmp_path, tiny_config())
    assert path.read_bytes() == b"earlier\n"
    assert not list(tmp_path.glob("*.tmp"))


def test_checkpoint_kind_enforced(tmp_path, rng):
    path = tmp_path / "ckpt.bin"
    save_checkpoint(path, {"w": rng.normal(size=(2, 2))}, {"stage": 1})
    state, meta = load_checkpoint(path)
    assert meta["stage"] == 1
    np.testing.assert_array_equal(state["w"].shape, (2, 2))

    other = tmp_path / "other.bin"
    write_container(other, {"w": rng.normal(size=2)}, {"kind": "dataset"})
    with pytest.raises(ContainerError):
        load_checkpoint(other)


# -- filtering ------------------------------------------------------------------


def test_bandpass_stopband_and_passband():
    fs, n = 1000.0, 1000
    low_tone = tone(2.0, fs, n)
    mid_tone = tone(50.0, fs, n)
    out_low = bandpass_filter(low_tone, fs, 5.0, 95.0)
    out_mid = bandpass_filter(mid_tone, fs, 5.0, 95.0)
    att_low = 20 * np.log10(np.linalg.norm(out_low) / np.linalg.norm(low_tone))
    att_mid = 20 * np.log10(np.linalg.norm(out_mid) / np.linalg.norm(mid_tone))
    assert att_low <= -20.0
    assert abs(att_mid) <= 1.0


def test_bandpass_removes_dc_exactly():
    fs = 500.0
    x = np.full(256, 3.7)
    y = bandpass_filter(x, fs, 5.0, 95.0)
    assert np.abs(y.mean()) < 1e-12


def test_bandpass_validates_band():
    x = np.zeros(64)
    with pytest.raises(DataError):
        bandpass_filter(x, 100.0, 0.0, 40.0)
    with pytest.raises(DataError):
        bandpass_filter(x, 100.0, 30.0, 20.0)
    with pytest.raises(DataError):
        bandpass_filter(x, 100.0, 5.0, 60.0)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_bandpass_is_linear(seed):
    g = np.random.default_rng(seed)
    a, b = g.normal(size=200), g.normal(size=200)
    lhs = bandpass_filter(2.0 * a - 0.5 * b, 500.0, 5.0, 95.0)
    rhs = 2.0 * bandpass_filter(a, 500.0, 5.0, 95.0) - 0.5 * bandpass_filter(b, 500.0, 5.0, 95.0)
    np.testing.assert_allclose(lhs, rhs, atol=1e-10)


def test_preprocess_discard_and_truncate(rng):
    raw = rng.normal(size=(3, 500))
    out = preprocess(raw, fs=1000.0, target_len=440)
    assert isinstance(out, np.ndarray) and out.shape == (3, 440)
    full = bandpass_filter(raw, 1000.0, 5.0, 95.0)
    np.testing.assert_array_equal(out, full[:, 20:460])


def test_preprocess_too_short_raises(rng):
    with pytest.raises(DataError):
        preprocess(rng.normal(size=(2, 100)), fs=1000.0, target_len=95)
    with pytest.raises(DataError):
        preprocess(rng.normal(size=100), fs=1000.0, target_len=50)


# -- dataset generation ----------------------------------------------------------


def test_generate_dataset_layout(tiny_cfg, tiny_data):
    data = tiny_data
    total = tiny_cfg.classes * tiny_cfg.per_class
    assert data.windows.shape == (total, tiny_cfg.channels, tiny_cfg.samples)
    assert data.anchor_text.shape == (tiny_cfg.classes, tiny_cfg.latent_tokens, tiny_cfg.latent_dim)
    records, _ = read_container(tiny_cfg.resolved_data_dir / "dataset.bin")
    assert records["anchor_image"].shape == (tiny_cfg.classes, tiny_cfg.latent_dim)
    assert data.window_image_emb.shape == (total, tiny_cfg.latent_dim)
    assert len(data.train_idx) + len(data.val_idx) + len(data.test_idx) == total
    assert not set(data.train_idx) & set(data.val_idx)
    assert not set(data.train_idx) & set(data.test_idx)
    for c in range(tiny_cfg.classes):
        assert (data.labels[data.val_idx] == c).sum() == 2
        assert (data.labels[data.test_idx] == c).sum() == 2


def test_generate_dataset_deterministic(tmp_path, tiny_cfg):
    generate_dataset(tmp_path / "one", tiny_cfg)
    generate_dataset(tmp_path / "two", tiny_cfg)
    assert (tmp_path / "one" / "dataset.bin").read_bytes() == (tmp_path / "two" / "dataset.bin").read_bytes()
    assert (tmp_path / "one" / "manifest.json").read_text() == (tmp_path / "two" / "manifest.json").read_text()


def test_manifest_matches_container(tiny_cfg, tiny_data):
    manifest = json.loads((tiny_cfg.resolved_data_dir / "manifest.json").read_text())
    assert manifest["classes"] == tiny_cfg.classes
    assert manifest["counts"]["total"] == tiny_cfg.classes * tiny_cfg.per_class
    assert manifest["file"] == "dataset.bin"
    records, _ = read_container(tiny_cfg.resolved_data_dir / "dataset.bin")
    assert set(manifest["record_offsets"]) == set(records)


def test_anchor_separation(tiny_cfg, tiny_data):
    img = read_container(tiny_cfg.resolved_data_dir / "dataset.bin")[0]["anchor_image"]
    norms = np.linalg.norm(img, axis=1)
    np.testing.assert_allclose(norms, 1.0, atol=1e-9)
    sims = img @ img.T
    off = sims[~np.eye(len(img), dtype=bool)]
    assert np.abs(off).max() < 0.3


def test_windows_land_near_target_rms(tiny_cfg, tiny_data):
    rms = np.sqrt((tiny_data.windows**2).mean(axis=(1, 2)))
    assert 0.5 * tiny_cfg.target_rms < rms.mean() < 2.0 * tiny_cfg.target_rms
    assert np.isfinite(tiny_data.windows).all()


def test_generate_dataset_validation(tmp_path):
    with pytest.raises(DataError):
        generate_dataset(tmp_path, replace(tiny_config(), channels=2, classes=9))


def test_load_dataset_missing_and_wrong_kind(tmp_path, rng):
    with pytest.raises(DataError, match="run `gen-data` first"):
        load_data(replace(tiny_config(), data_dir=str(tmp_path / "nope")))
    bad = tmp_path / "bad"
    bad.mkdir()
    write_container(bad / "dataset.bin", {"x": rng.normal(size=3)}, {"kind": "checkpoint"})
    with pytest.raises(ContainerError, match="not a dataset"):
        load_data(replace(tiny_config(), data_dir=str(bad)))
