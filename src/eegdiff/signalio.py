"""Dataset synthesis, preprocessing, and the artifact layer.

Every file the pipeline writes goes through :func:`write_file`, which fills a
sibling ``.tmp`` file and renames it into place.  The binary container is a
little-endian file: magic ``SYNP``, a u16 format version, a JSON metadata
blob, then named float64 records.  Datasets, model checkpoints and samples
use it, and :func:`read_container` checks a container's ``kind`` and records.
Metrics are CSV text (:func:`write_csv`).  :func:`generate_dataset` writes
the dataset of a run config; ``training.load_data`` is its one reader.  All
generation is driven by ``np.random.default_rng`` seeded from explicit
``SeedSequence`` keys, and writes are ordered, so identical inputs produce
byte-identical files.
"""

from __future__ import annotations

import json
import math
import os
import struct
from pathlib import Path

import numpy as np

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


# -- artifact files ------------------------------------------------------------


def write_file(path, fill):
    """Create or replace ``path`` with what ``fill(fh)`` writes; returns its result.

    ``fill`` streams into a binary handle on a sibling ``.tmp`` file that then
    replaces ``path``, so a write that fails part-way leaves any earlier file
    at ``path`` intact and no ``.tmp`` file behind.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            result = fill(fh)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    return result


def format_float(x: float) -> str:
    """Shortest round-trip decimal text for metrics and file names; -0.0
    reads ``0.0``, so a scale of -0 names the samples of scale 0."""
    return repr(float(x) + 0.0)


def write_csv(path, header: list[str], rows: list[list]) -> Path:
    """Comma-separated ``header`` and ``rows``: float cells as
    :func:`format_float` text, every other cell as ``str``."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(format_float(cell) if isinstance(cell, float) else str(cell) for cell in row))
    text = "\n".join(lines) + "\n"
    write_file(path, lambda fh: fh.write(text.encode("utf-8")))
    return Path(path)


# -- binary container --------------------------------------------------------


def write_container(path, arrays: dict[str, np.ndarray], meta: dict | None = None) -> dict[str, int]:
    """Write named float64 records, sorted by name, plus a JSON meta blob
    through :func:`write_file`; returns ``{name: byte_offset}``."""
    meta_bytes = json.dumps(meta or {}, sort_keys=True).encode("utf-8")

    def fill(fh) -> dict[str, int]:
        fh.write(MAGIC)
        fh.write(struct.pack("<H", FORMAT_VERSION))
        fh.write(struct.pack("<I", len(meta_bytes)))
        fh.write(meta_bytes)
        fh.write(struct.pack("<I", len(arrays)))
        offsets: dict[str, int] = {}
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
        return offsets

    return write_file(path, fill)


def read_container(path, *, kind: str | None = None, records: tuple[str, ...] = ()) -> tuple[dict[str, np.ndarray], dict]:
    """The records and meta of the container at ``path``; ``ContainerError``
    for a malformed or unreadable file, one with a non-finite value in a
    record, one whose meta ``kind`` is not ``kind`` (when given), or one that
    lacks one of the named ``records``."""
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
    if kind is not None and meta.get("kind") != kind:
        raise ContainerError(f"{path} is not a {kind} container (kind={meta.get('kind')!r})")
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
        if not np.isfinite(data).all():
            raise ContainerError(f"{path} record {name!r} holds non-finite values")
        arrays[name] = np.array(data)  # own the memory
    if pos != len(view):
        raise ContainerError(f"{path} has {len(view) - pos} trailing bytes")
    missing = [name for name in records if name not in arrays]
    if missing:
        raise ContainerError(f"{path} lacks records: {missing}")
    return arrays, meta


def save_checkpoint(path, state: dict[str, np.ndarray], meta: dict | None = None) -> None:
    """Persist named arrays as a ``checkpoint`` container."""
    write_container(path, state, dict(meta or {}, kind="checkpoint"))


def load_checkpoint(path) -> tuple[dict[str, np.ndarray], dict]:
    return read_container(path, kind="checkpoint")


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


def split_sizes(per_class: int, val_frac: float, test_frac: float) -> tuple[int, int]:
    """Windows per class in the validation and test splits; the rest train."""
    if not (0.0 <= val_frac < 1.0 and 0.0 <= test_frac < 1.0 and val_frac + test_frac < 1.0):
        raise DataError("split fractions must be in [0, 1) and sum below 1")
    n_test = int(round(per_class * test_frac))
    n_val = int(round(per_class * val_frac))
    if per_class - n_val - n_test < 1:
        raise DataError("split fractions leave no training windows")
    return n_val, n_test


# The run-config fields that the manifest records as they are; it records
# `low` and `high` as its "band" pair.
MANIFEST_FIELDS = (
    "channels", "samples", "latent_tokens", "latent_dim", "classes", "per_class", "subjects",
    "seed", "fs", "val_frac", "test_frac", "noise_std", "target_rms",
)


def generate_dataset(out_dir, cfg) -> dict:
    """Generate a paired synthetic dataset and write it under ``out_dir``.

    Each class is a fixed mixture of in-band sinusoids with per-channel
    amplitudes/phases; subjects perturb it with per-channel gain and phase
    offsets; white noise is added before filtering.  Reads its sizes, seed,
    band and noise from ``cfg``, a run config (any object with
    ``RunConfig``'s dataset fields).  Writes ``dataset.bin`` and
    ``manifest.json`` and returns the manifest dict.  ``RunConfig.validate``
    checks each value's range; this checks what their combination allows.
    """
    channels, samples, classes, per_class = cfg.channels, cfg.samples, cfg.classes, cfg.per_class
    subjects, latent_dim, seed, fs, low, high = cfg.subjects, cfg.latent_dim, cfg.seed, cfg.fs, cfg.low, cfg.high
    if classes > channels * 4:
        raise DataError(f"{classes} classes exceed the {channels * 4} supported by {channels} channels")
    n_val, n_test = split_sizes(per_class, cfg.val_frac, cfg.test_frac)

    anchor_rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
    class_rng = np.random.default_rng(np.random.SeedSequence([seed, 2]))
    subject_rng = np.random.default_rng(np.random.SeedSequence([seed, 3]))
    window_rng = np.random.default_rng(np.random.SeedSequence([seed, 4]))
    split_rng = np.random.default_rng(np.random.SeedSequence([seed, 5]))

    anchor_text, anchor_image = _make_anchors(anchor_rng, classes, cfg.latent_tokens, latent_dim)

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
        scales[k] = cfg.target_rms / np.sqrt(np.mean(template * template))

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
            raw = clean + cfg.noise_std * cfg.target_rms * window_rng.normal(size=(channels, raw_len))
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

    meta = {name: getattr(cfg, name) for name in MANIFEST_FIELDS}
    meta.update(kind="dataset", band=[low, high], components=COMPONENTS)
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
    offsets = write_container(out_dir / "dataset.bin", arrays, meta)
    manifest = dict(
        meta,
        counts={"total": total, "train": len(train_idx), "val": len(val_idx), "test": len(test_idx)},
        format_version=FORMAT_VERSION,
        file="dataset.bin",
        record_offsets=offsets,
    )
    text = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    write_file(out_dir / "manifest.json", lambda fh: fh.write(text.encode("utf-8")))
    return manifest


def integers_below(values: np.ndarray, stop: int) -> bool:
    """Whether ``values`` is a 1-D array of integers in [0, stop): indices or labels."""
    return values.ndim == 1 and bool(np.all((values >= 0) & (values < stop) & (values == np.floor(values))))
