"""Correctness checks on the artifacts a workload leaves in its output dir.

Each check raises `CheckFailed` with a one-line reason; any other exception
(a missing or corrupt file) is a failure too.  The digest is a sha256 over
the named files, so two runs can show bit-identical outputs.
"""

from __future__ import annotations

import csv
import hashlib
import math
from pathlib import Path

import numpy as np

from eegdiff.diffusion import Stage2Model, build_schedule, selective_finetune_mask
from eegdiff.signalio import load_checkpoint, read_container
from eegdiff.training import RunConfig


class CheckFailed(AssertionError):
    """An output of the program is wrong."""


def digest(root: Path, names) -> str:
    """sha256 over (relative name, bytes) of each file, in the given order."""
    h = hashlib.sha256()
    for name in names:
        h.update(name.encode() + b"\0")
        h.update((root / name).read_bytes())
    return h.hexdigest()


def tree_digest(root: Path) -> str:
    """`digest` over every file under ``root``."""
    return digest(root, sorted(str(p.relative_to(root)) for p in root.rglob("*") if p.is_file()))


def csv_finite(path: Path) -> None:
    """Every numeric cell of a CSV written by the CLI is finite."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    if not rows:
        raise CheckFailed(f"{path.name} has no rows")
    for row in rows:
        for key, cell in row.items():
            try:
                value = float(cell)
            except ValueError:
                continue  # a metric name
            if not math.isfinite(value):
                raise CheckFailed(f"{path.name}: {key}={cell} in row {row}")


def samples_ok(cfg: RunConfig, scale: float, count: int) -> None:
    """``count`` finite samples of the latent grid's shape."""
    records, _ = read_container(cfg.samples_path(scale))
    samples = records["samples"]
    want = (count,) + tuple(cfg.grid)
    if samples.shape != want:
        raise CheckFailed(f"samples at scale {scale} have shape {samples.shape}, want {want}")
    if not np.isfinite(samples).all():
        raise CheckFailed(f"samples at scale {scale} hold non-finite values")


def stage2_selective(cfg: RunConfig) -> None:
    """Parameters outside the finetune mask are bit-identical to a fresh
    model from the training seed; the masked set has moved."""
    state, _ = load_checkpoint(cfg.stage2_checkpoint)
    fresh = Stage2Model(
        cfg.denoiser_config(),
        np.random.default_rng(np.random.SeedSequence([cfg.seed, 21])),
        latent_tokens=cfg.latent_tokens,
        latent_dim=cfg.latent_dim,
        schedule=build_schedule(cfg.schedule_steps, cfg.beta_min, cfg.beta_max),
    )
    mask = selective_finetune_mask(fresh)
    moved = False
    for name, p in fresh.params().items():
        same = np.array_equal(state[name], p.data)
        if name in mask:
            moved = moved or not same
        elif not same:
            raise CheckFailed(f"frozen parameter {name} changed in stage 2")
    if not moved:
        raise CheckFailed("no parameter of the finetune mask changed in stage 2")


# The checks a workload names, each given the run config and the work
# units per call (`workloads.item_counts`).
NAMED = {
    "stage1_metrics": lambda cfg, items: csv_finite(cfg.stage1_metrics),
    "stage2_metrics": lambda cfg, items: csv_finite(cfg.stage2_metrics),
    "stage2_selective": lambda cfg, items: stage2_selective(cfg),
    "samples": lambda cfg, items: [samples_ok(cfg, scale, items["samples"]) for scale in (0.0, 7.5)],
    "eval_csvs": lambda cfg, items: [csv_finite(cfg.eval_dir / f) for f in ("gen_scale_7.5.csv", "retrieval.csv")],
}
