"""Dataset synthesis, preprocessing, and binary container I/O.

The on-disk container is a little-endian binary file: magic ``SYNP``, a u16
format version, a JSON metadata blob, then named float64 records.  Both
datasets and model checkpoints use it.  All generation is driven by
``np.random.default_rng`` seeded from explicit ``SeedSequence`` keys, and
writes are ordered, so identical inputs produce byte-identical files.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .autodiff import Tensor

MAGIC = b"SYNP"
FORMAT_VERSION = 1
DISCARD_SECONDS = 0.020
# Width in Hz of the raised-cosine edges of `bandpass_filter`.
TRANSITION_HZ = 2.0
# Sinusoids in each class signature of `generate_dataset`.
COMPONENTS = 3
# `_make_anchors`: the largest |cos| between two image anchors, and the noise
# scale of the image anchors about an orthonormal basis and of the text
# tokens about their image anchor.
ANCHOR_CEILING = 0.3
IMAGE_JITTER = 0.15
TEXT_JITTER = 0.3


class ContainerError(ValueError):
    """Malformed or truncated container file."""


class DataError(ValueError):
    """Invalid generation or preprocessing arguments."""


# -- binary container --------------------------------------------------------


def write_container(path, arrays: dict[str, np.ndarray], meta: dict | None = None) -> dict[str, int]:
    """Write named float64 records plus a JSON meta blob.

    Records are written sorted by name; returns ``{name: byte_offset}``.
    The bytes go to a sibling ``.tmp`` file that then replaces ``path``, so
    a write that fails part-way leaves any earlier file at ``path`` intact.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    meta_bytes = json.dumps(meta or {}, sort_keys=True).encode("utf-8")
    offsets: dict[str, int] = {}
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<H", FORMAT_VERSION))
            fh.write(struct.pack("<I", len(meta_bytes)))
            fh.write(meta_bytes)
            fh.write(struct.pack("<I", len(arrays)))
            for name in sorted(arrays):
                arr = np.ascontiguousarray(arrays[name], dtype=np.float64)
                encoded = name.encode("utf-8")
                offsets[name] = fh.tell()
                fh.write(struct.pack("<H", len(encoded)))
                fh.write(encoded)
                fh.write(struct.pack("<B", arr.ndim))
                for dim in arr.shape:
                    fh.write(struct.pack("<Q", dim))
                fh.write(arr.tobytes())
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    return offsets


def read_container(path) -> tuple[dict[str, np.ndarray], dict]:
    path = Path(path)
    try:
        blob = path.read_bytes()
    except OSError as exc:
        raise ContainerError(f"cannot read container {path}: {exc}") from exc

    view = memoryview(blob)
    pos = 0

    def take(n: int) -> memoryview:
        nonlocal pos
        if pos + n > len(view):
            raise ContainerError(f"truncated container {path} at byte {pos}")
        chunk = view[pos : pos + n]
        pos += n
        return chunk

    if bytes(take(4)) != MAGIC:
        raise ContainerError(f"{path} is not a signal container (bad magic)")
    (version,) = struct.unpack("<H", take(2))
    if version != FORMAT_VERSION:
        raise ContainerError(f"{path} has unsupported format version {version}")
    (meta_len,) = struct.unpack("<I", take(4))
    try:
        meta = json.loads(bytes(take(meta_len)).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ContainerError(f"{path} has a corrupt meta blob: {exc}") from exc
    if not isinstance(meta, dict):
        raise ContainerError(f"{path} has a meta blob that is not a JSON object")
    (count,) = struct.unpack("<I", take(4))

    arrays: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<H", take(2))
        try:
            name = bytes(take(name_len)).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ContainerError(f"{path} has a corrupt record name: {exc}") from exc
        (ndim,) = struct.unpack("<B", take(1))
        shape = tuple(struct.unpack("<Q", take(8))[0] for _ in range(ndim))
        # math.prod on Python ints: a corrupt dimension cannot wrap around
        data = np.frombuffer(take(math.prod(shape) * 8), dtype="<f8")
        try:
            data = data.reshape(shape)
        except ValueError as exc:  # more axes than numpy allows
            raise ContainerError(f"{path} record {name!r} has a corrupt shape: {exc}") from exc
        arrays[name] = np.array(data)  # own the memory
    if pos != len(view):
        raise ContainerError(f"{path} has {len(view) - pos} trailing bytes")
    return arrays, meta


def save_checkpoint(path, state: dict, meta: dict | None = None) -> None:
    """Persist named tensors/arrays; values may be Tensor or ndarray."""
    arrays = {
        name: (value.data if isinstance(value, Tensor) else np.asarray(value, dtype=np.float64))
        for name, value in state.items()
    }
    write_container(path, arrays, dict(meta or {}, kind="checkpoint"))


def load_checkpoint(path) -> tuple[dict[str, np.ndarray], dict]:
    arrays, meta = read_container(path)
    if meta.get("kind") != "checkpoint":
        raise ContainerError(f"{path} is not a checkpoint (kind={meta.get('kind')!r})")
    return arrays, meta


# -- filtering and preprocessing ---------------------------------------------


def bandpass_filter(signal, fs: float, low: float, high: float) -> np.ndarray:
    """Zero-phase bandpass via an rFFT frequency mask.

    The passband gain is 1 between ``low`` and ``high`` with raised-cosine
    transitions of width ``TRANSITION_HZ`` centered on each edge; DC is
    removed exactly.  Operates along the last axis.
    """
    signal = np.asarray(signal, dtype=np.float64)
    if signal.shape[-1] < 2:
        raise DataError("bandpass_filter needs at least 2 samples")
    if not (0.0 < low < high < fs / 2.0):
        raise DataError(f"band edges must satisfy 0 < low < high < fs/2, got ({low}, {high}) at fs={fs}")

    n = signal.shape[-1]
    freqs = np.fft.rfftfreq(n, d=1.0 / fs)

    def rise(edge: float) -> np.ndarray:
        x = np.clip((freqs - (edge - TRANSITION_HZ / 2.0)) / TRANSITION_HZ, 0.0, 1.0)
        return 0.5 - 0.5 * np.cos(np.pi * x)

    gain = rise(low) * (1.0 - rise(high))
    gain[0] = 0.0
    spectrum = np.fft.rfft(signal, axis=-1)
    return np.fft.irfft(spectrum * gain, n=n, axis=-1)


def preprocess(
    raw,
    fs: float,
    target_len: int,
    low: float = 5.0,
    high: float = 95.0,
) -> np.ndarray:
    """Bandpass, drop the filter warm-up, and truncate to ``target_len``.

    Returns the filtered (channels, target_len) array.  The warm-up discard
    is ``round(0.020 * fs)`` samples; the raw window must be at least
    ``discard + target_len`` long.
    """
    raw = np.asarray(raw, dtype=np.float64)
    if raw.ndim != 2:
        raise DataError(f"preprocess expects (channels, samples), got shape {raw.shape}")
    discard = int(round(DISCARD_SECONDS * fs))
    if raw.shape[-1] < discard + target_len:
        raise DataError(
            f"raw window of {raw.shape[-1]} samples is too short for "
            f"discard {discard} + target {target_len}"
        )
    filtered = bandpass_filter(raw, fs, low, high)
    return np.ascontiguousarray(filtered[..., discard : discard + target_len])


# -- synthetic dataset --------------------------------------------------------


@dataclass
class Dataset:
    windows: np.ndarray  # (N, C, S)
    labels: np.ndarray  # (N,) int
    subjects: np.ndarray  # (N,) int
    train_idx: np.ndarray
    val_idx: np.ndarray
    test_idx: np.ndarray
    anchor_text: np.ndarray  # (K, T, D)
    anchor_image: np.ndarray  # (K, D)
    window_image_emb: np.ndarray  # (N, D)
    meta: dict = field(default_factory=dict)


def _unit_rows(x: np.ndarray) -> np.ndarray:
    return x / np.linalg.norm(x, axis=-1, keepdims=True)


def _make_anchors(
    rng: np.random.Generator, classes: int, latent_tokens: int, latent_dim: int
) -> tuple[np.ndarray, np.ndarray]:
    if classes > latent_dim:
        raise DataError(f"cannot place {classes} near-orthogonal anchors in {latent_dim} dims")
    for _ in range(64):
        basis, _ = np.linalg.qr(rng.normal(size=(latent_dim, latent_dim)))
        image = _unit_rows(basis[:classes] + IMAGE_JITTER * rng.normal(size=(classes, latent_dim)))
        gram = image @ image.T
        off = np.abs(gram - np.diag(np.diag(gram)))
        if off.max() <= ANCHOR_CEILING:
            break
    else:
        raise DataError(f"failed to draw anchors with pairwise |cos| <= {ANCHOR_CEILING}")
    text = _unit_rows(
        image[:, None, :] + TEXT_JITTER * rng.normal(size=(classes, latent_tokens, latent_dim))
    )
    return text, image


def generate_dataset(
    out_dir,
    channels: int,
    samples: int,
    latent_tokens: int,
    latent_dim: int,
    classes: int,
    per_class: int,
    subjects: int,
    seed: int,
    fs: float = 1000.0,
    low: float = 5.0,
    high: float = 95.0,
    val_frac: float = 1.0 / 6.0,
    test_frac: float = 1.0 / 6.0,
    noise_std: float = 0.25,
    target_rms: float = 1.8,
) -> dict:
    """Generate a paired synthetic dataset and write it under ``out_dir``.

    Each class is a fixed mixture of in-band sinusoids with per-channel
    amplitudes/phases; subjects perturb it with per-channel gain and phase
    offsets; white noise is added before filtering.  Writes ``dataset.bin``
    and ``manifest.json`` and returns the manifest dict.
    """
    for name, dim in (("channels", channels), ("samples", samples),
                      ("latent_tokens", latent_tokens), ("latent_dim", latent_dim)):
        if dim < 2:
            raise DataError(f"{name} must be >= 2, got {dim}")
    if classes < 2:
        raise DataError("need at least 2 classes")
    if classes > channels * 4:
        raise DataError(f"{classes} classes exceed the {channels * 4} supported by {channels} channels")
    if per_class < 2:
        raise DataError("need at least 2 windows per class")
    if subjects < 1:
        raise DataError("need at least 1 subject")
    if not (0.0 <= val_frac < 1.0 and 0.0 <= test_frac < 1.0 and val_frac + test_frac < 1.0):
        raise DataError("split fractions must be in [0, 1) and sum below 1")

    n_test = int(round(per_class * test_frac))
    n_val = int(round(per_class * val_frac))
    n_train = per_class - n_val - n_test
    if n_train < 1:
        raise DataError("split fractions leave no training windows")

    anchor_rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
    class_rng = np.random.default_rng(np.random.SeedSequence([seed, 2]))
    subject_rng = np.random.default_rng(np.random.SeedSequence([seed, 3]))
    window_rng = np.random.default_rng(np.random.SeedSequence([seed, 4]))
    split_rng = np.random.default_rng(np.random.SeedSequence([seed, 5]))

    anchor_text, anchor_image = _make_anchors(anchor_rng, classes, latent_tokens, latent_dim)

    # class signatures: frequencies must fit the passband and complete at
    # least ~1.5 cycles per window so short windows stay class-separable
    f_lo = max(low + 3.0, 1.5 * fs / samples)
    f_hi = high - 5.0
    if f_lo >= f_hi:
        raise DataError(f"window of {samples} samples at fs={fs} leaves no usable band")
    freqs = class_rng.uniform(f_lo, f_hi, size=(classes, COMPONENTS))
    amps = class_rng.uniform(0.5, 1.5, size=(classes, channels, COMPONENTS))
    phases = class_rng.uniform(0.0, 2.0 * np.pi, size=(classes, channels, COMPONENTS))

    gains = subject_rng.uniform(0.8, 1.2, size=(subjects, channels))
    shifts = subject_rng.uniform(-np.pi / 8.0, np.pi / 8.0, size=(subjects, channels))

    discard = int(round(DISCARD_SECONDS * fs))
    raw_len = samples + discard
    t = np.arange(raw_len) / fs

    # per-class amplitude scale so clean windows land near target_rms
    scales = np.empty(classes)
    for k in range(classes):
        args = 2.0 * np.pi * freqs[k][None, :, None] * t[None, None, :] + phases[k][:, :, None]
        template = (amps[k][:, :, None] * np.sin(args)).sum(axis=1)
        scales[k] = target_rms / np.sqrt(np.mean(template * template))

    total = classes * per_class
    windows = np.empty((total, channels, samples))
    labels = np.empty(total, dtype=np.int64)
    subj = np.empty(total, dtype=np.int64)
    window_image_emb = np.empty((total, latent_dim))

    for k in range(classes):
        for j in range(per_class):
            n = k * per_class + j
            m = j % subjects
            args = (
                2.0 * np.pi * freqs[k][None, :, None] * t[None, None, :]
                + phases[k][:, :, None]
                + shifts[m][:, None, None]
            )
            clean = scales[k] * gains[m][:, None] * (amps[k][:, :, None] * np.sin(args)).sum(axis=1)
            raw = clean + noise_std * target_rms * window_rng.normal(size=(channels, raw_len))
            windows[n] = preprocess(raw, fs, samples, low=low, high=high)
            labels[n] = k
            subj[n] = m
            window_image_emb[n] = anchor_image[k] + 0.1 * window_rng.normal(size=latent_dim)

    window_image_emb = _unit_rows(window_image_emb)

    train_parts, val_parts, test_parts = [], [], []
    for k in range(classes):
        perm = split_rng.permutation(per_class) + k * per_class
        test_parts.append(perm[:n_test])
        val_parts.append(perm[n_test : n_test + n_val])
        train_parts.append(perm[n_test + n_val :])
    train_idx = np.sort(np.concatenate(train_parts))
    val_idx = np.sort(np.concatenate(val_parts))
    test_idx = np.sort(np.concatenate(test_parts))

    meta = {
        "kind": "dataset",
        "channels": channels,
        "samples": samples,
        "latent_tokens": latent_tokens,
        "latent_dim": latent_dim,
        "classes": classes,
        "per_class": per_class,
        "subjects": subjects,
        "seed": seed,
        "fs": fs,
        "band": [low, high],
        "val_frac": val_frac,
        "test_frac": test_frac,
        "noise_std": noise_std,
        "target_rms": target_rms,
        "components": COMPONENTS,
    }
    arrays = {
        "windows": windows,
        "labels": labels.astype(np.float64),
        "subjects": subj.astype(np.float64),
        "train_idx": train_idx.astype(np.float64),
        "val_idx": val_idx.astype(np.float64),
        "test_idx": test_idx.astype(np.float64),
        "anchor_text": anchor_text,
        "anchor_image": anchor_image,
        "window_image_emb": window_image_emb,
    }

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    offsets = write_container(out_dir / "dataset.bin", arrays, meta)
    manifest = dict(
        meta,
        counts={"total": total, "train": len(train_idx), "val": len(val_idx), "test": len(test_idx)},
        format_version=FORMAT_VERSION,
        file="dataset.bin",
        record_offsets=offsets,
    )
    with open(out_dir / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest


def integers_below(values: np.ndarray, stop: int) -> bool:
    """Whether ``values`` is a 1-D array of integers in [0, stop): indices or labels."""
    return values.ndim == 1 and bool(np.all((values >= 0) & (values < stop) & (values == np.floor(values))))


def load_dataset(data_dir) -> Dataset:
    """Load the dataset directory written by :func:`generate_dataset`."""
    container = Path(data_dir) / "dataset.bin"
    if not container.exists():
        raise DataError(f"no dataset at {container}; run `gen-data` first")
    arrays, meta = read_container(container)
    if meta.get("kind") != "dataset":
        raise ContainerError(f"{container} is not a dataset (kind={meta.get('kind')!r})")
    required = (
        "windows", "labels", "subjects", "train_idx", "val_idx", "test_idx",
        "anchor_text", "anchor_image", "window_image_emb",
    )
    missing = [name for name in required if name not in arrays]
    if missing:
        raise ContainerError(f"{container} lacks records: {missing}")
    # Indices select windows and labels select anchor rows: each must be an
    # integer in range, or training fails far from the file that is wrong.
    n = len(arrays["windows"])
    for name in ("labels", "window_image_emb"):
        if arrays[name].shape[:1] != (n,):
            raise ContainerError(f"{container} record {name!r} must hold one row per window ({n})")
    bounds = {"labels": len(arrays["anchor_text"]), "train_idx": n, "val_idx": n, "test_idx": n}
    for name, stop in bounds.items():
        if not integers_below(arrays[name], stop):
            raise ContainerError(f"{container} record {name!r} must hold integers in [0, {stop})")
    return Dataset(
        windows=arrays["windows"],
        labels=arrays["labels"].astype(np.int64),
        subjects=arrays["subjects"].astype(np.int64),
        train_idx=arrays["train_idx"].astype(np.int64),
        val_idx=arrays["val_idx"].astype(np.int64),
        test_idx=arrays["test_idx"].astype(np.int64),
        anchor_text=arrays["anchor_text"],
        anchor_image=arrays["anchor_image"],
        window_image_emb=arrays["window_image_emb"],
        meta=meta,
    )
