"""Command-line surface: data generation, training, sampling, evaluation.

Every subcommand accepts --config (JSON), --seed, --out, and --data, and the
sampling commands --scale and --steps; each of these flags overrides one
config field (``OVERRIDES``), and ``RunConfig.validate`` checks the result
before the command reads or writes a file.  ``--num`` is a per-call count,
not a config value, also checked before any file is read: one sample is
enough for ``sample``, while a config's ``num_samples`` must fit a
covariance.  All outputs are pure functions of (config, seed), so rerunning
a command reproduces its files byte for byte.

Exit codes: 0 success, 1 validation or runtime failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import ctypes
import sys
from dataclasses import replace

import numpy as np

from .diffusion import sample as sample_latents
from .evaluate import (
    class_agreement,
    export_embeddings,
    fit_gaussian,
    frechet_distance,
    topk_retrieval,
)
from .nn import ConfigError
from .signalio import (
    DataError, format_float, generate_dataset, integers_below, read_container, write_container, write_csv,
)
from .training import (
    TOP_K,
    RunConfig,
    encode_windows,
    generation_conditions,
    gradient_suite,
    load_data,
    load_stage1_model,
    load_stage2_model,
    stage2_training_set,
    train_stage1,
    train_stage2,
)

GRAD_TOLERANCE = 1e-4
DEFAULT_SWEEP = "3,5,7,9"
SCORE_HEADER = ["scale", "agreement", "frechet"]

# glibc's mallopt parameters M_TRIM_THRESHOLD and M_MMAP_THRESHOLD, and the
# values `steady_heap` gives them: 32 MiB is the ceiling of glibc's own
# dynamic mmap threshold on 64-bit, and glibc trims above twice that.
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
MMAP_THRESHOLD = 32 * 2**20
TRIM_THRESHOLD = 2 * MMAP_THRESHOLD

# (flag, config field): a flag that a command accepts and was given replaces
# the field's value.
OVERRIDES = (
    ("seed", "seed"), ("out", "out_dir"), ("data", "data_dir"),
    ("scale", "guidance_scale"), ("steps", "sample_steps"),
)


def steady_heap() -> bool:
    """Keep freed heap memory in this process; True if glibc took both values.

    Each guided-sampling denoiser branch grows the heap by up to 8.07 MB
    and frees it, above glibc's dynamic trim threshold, so by default glibc
    returns the memory to the kernel and faults it back in at the next
    branch.  Setting one threshold alone turns off glibc's dynamic
    adjustment of both, so both are set.  Outputs do not depend on this.
    Where the C library has no ``mallopt`` this does nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):  # TypeError: Windows cannot open the program itself
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mmap_set = mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD)
    return bool(mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD) and mmap_set)


def _config_from(args: argparse.Namespace) -> RunConfig:
    """The command's run config with its flag overrides, checked once."""
    cfg = RunConfig.from_json(args.config) if args.config else RunConfig()
    for flag, name in OVERRIDES:
        value = getattr(args, flag, None)
        if value is not None:
            setattr(cfg, name, value)
    return cfg.validate()


def cmd_gen_data(args, cfg: RunConfig) -> int:
    generate_dataset(cfg.resolved_data_dir, cfg)
    base = cfg.resolved_data_dir
    print(f"wrote {base / 'dataset.bin'} and {base / 'manifest.json'}")
    return 0


def cmd_train_stage1(args, cfg: RunConfig) -> int:
    out = train_stage1(cfg)
    print(f"wrote {out['checkpoint']} and {out['metrics']}")
    return 0


def cmd_train_stage2(args, cfg: RunConfig) -> int:
    out = train_stage2(cfg)
    print(f"wrote {out['checkpoint']} and {out['metrics']}")
    return 0


def _generate(cfg: RunConfig, model, cond, labels):
    """Sample guided latents at ``cfg``'s scale and steps for the
    ``generation_conditions`` ``cond`` and ``labels``; returns (samples,
    container path)."""
    samples = sample_latents(model, cond, cfg.guidance_scale, steps=cfg.sample_steps, seed=cfg.seed)
    path = cfg.samples_path(cfg.guidance_scale)
    write_container(
        path,
        {"samples": samples, "labels": labels.astype(np.float64)},
        {
            "kind": "samples",
            "scale": cfg.guidance_scale,
            "steps": cfg.sample_steps,
            "seed": cfg.seed,
            "count": int(len(labels)),
        },
    )
    return samples, path


def cmd_sample(args, cfg: RunConfig) -> int:
    num = cfg.num_samples if args.num is None else args.num
    if num < 1:
        raise ConfigError(f"--num must be at least 1, got {num}")
    data, encoder, model = load_data(cfg), load_stage1_model(cfg), load_stage2_model(cfg)
    cond, labels = generation_conditions(cfg, data, encoder, num)
    _, path = _generate(cfg, model, cond, labels)
    print(f"wrote {path} ({len(labels)} samples, scale {format_float(cfg.guidance_scale)})")
    return 0


def cmd_eval_retrieval(args, cfg: RunConfig) -> int:
    data = load_data(cfg)
    encoder = load_stage1_model(cfg)
    idx = data.test_idx
    _, pooled = encode_windows(encoder, data.windows[idx])
    rows = list(topk_retrieval(pooled, data.window_image_emb[idx], data.labels[idx], (1, TOP_K)).items())
    out = write_csv(cfg.eval_dir / "retrieval.csv", ["metric", "value"], rows)
    emb = export_embeddings(pooled, data.labels[idx], cfg.eval_dir / "test_embeddings.csv")
    for name, value in rows:
        print(f"{name} {format_float(value)}")
    print(f"wrote {out} and {emb}")
    return 0


def _real_population(cfg: RunConfig, data):
    """The class target anchors and the Gaussian fit of the real
    latent-target population that generated samples are scored against."""
    real = stage2_training_set(cfg, data)
    return real["anchors"], fit_gaussian(real["x0"].reshape(len(real["x0"]), -1))


def _scored_row(cfg: RunConfig, samples: np.ndarray, labels: np.ndarray, real) -> list:
    """Printed and returned ``[scale, agreement, frechet]`` of samples drawn
    at ``cfg``'s guidance scale: class agreement against target anchors and
    Fréchet distance against the real population of :func:`_real_population`."""
    anchors, real_stats = real
    agree = class_agreement(samples, labels, anchors)
    fd = frechet_distance(fit_gaussian(np.asarray(samples).reshape(len(samples), -1)), real_stats)
    print(f"scale {format_float(cfg.guidance_scale)} agreement {format_float(agree)} frechet {format_float(fd)}")
    return [cfg.guidance_scale, agree, fd]


def _load_samples(cfg: RunConfig):
    path = cfg.samples_path(cfg.guidance_scale)
    if not path.exists():
        raise DataError(f"no samples at {path}; run `sample --scale {format_float(cfg.guidance_scale)}` first")
    records, _ = read_container(path, kind="samples", records=("samples", "labels"))
    samples, labels = records["samples"], records["labels"]
    if samples.ndim == 0 or labels.shape != samples.shape[:1]:
        raise DataError(f"{path} holds {samples.shape} samples but {labels.shape} labels")
    if samples.shape[1:] != tuple(cfg.grid):
        raise DataError(f"{path} holds samples of grid {samples.shape[1:]}, config grid is {tuple(cfg.grid)}")
    if not integers_below(labels, cfg.classes):
        raise DataError(f"{path} record 'labels' must hold integers in [0, {cfg.classes})")
    return samples, labels.astype(int)


def cmd_eval_gen(args, cfg: RunConfig) -> int:
    samples, labels = _load_samples(cfg)
    row = _scored_row(cfg, samples, labels, _real_population(cfg, load_data(cfg)))
    out = write_csv(cfg.eval_dir / f"gen_scale_{format_float(cfg.guidance_scale)}.csv", SCORE_HEADER, [row])
    print(f"wrote {out}")
    return 0


def cmd_cfg_sweep(args, cfg: RunConfig) -> int:
    try:
        scales = [float(s) for s in args.scales.split(",") if s.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad --scales value {args.scales!r}: {exc}") from exc
    if not scales:
        raise ConfigError("--scales must name at least one scale")
    # one run per samples file name, so a repeated scale is drawn once
    distinct = {format_float(scale): scale for scale in scales}
    runs = [replace(cfg, guidance_scale=scale).validate() for scale in distinct.values()]
    num = cfg.num_samples if args.num is None else args.num
    if num < 2:
        raise ConfigError(f"cfg-sweep needs at least 2 samples per scale to fit their covariance, got {num}")
    data, encoder, model = load_data(cfg), load_stage1_model(cfg), load_stage2_model(cfg)
    real = _real_population(cfg, data)
    cond, labels = generation_conditions(cfg, data, encoder, num)
    rows = [_scored_row(run, _generate(run, model, cond, labels)[0], labels, real) for run in runs]
    out = write_csv(cfg.eval_dir / "cfg_sweep.csv", SCORE_HEADER, rows)
    print(f"wrote {out}")
    return 0


def cmd_grad_check(args, cfg: RunConfig) -> int:
    results = gradient_suite(seeds=args.seeds)
    rows = []
    ok = True
    for name, err in results:
        passed = err < GRAD_TOLERANCE
        ok = ok and passed
        rows.append([name, err])
        print(f"{name:20s} {err:.3e} {'pass' if passed else 'FAIL'}")
    out = write_csv(cfg.eval_dir / "grad_check.csv", ["target", "max_rel_error"], rows)
    print(f"wrote {out}")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eegdiff",
        description="Two-stage EEG-to-latent pipeline: aligned autoencoder, "
        "guided latent diffusion, and evaluation tools.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    def add(name: str, func, help_: str) -> argparse.ArgumentParser:
        cmd = sub.add_parser(name, help=help_)
        cmd.add_argument("--config", default=None, metavar="PATH", help="JSON run config")
        cmd.add_argument("--seed", type=int, default=None, help="override the config seed")
        cmd.add_argument("--out", default=None, metavar="DIR", help="override the output directory")
        cmd.add_argument("--data", default=None, metavar="DIR", help="override the dataset directory")
        cmd.set_defaults(func=func)
        return cmd

    add("gen-data", cmd_gen_data, "generate the synthetic dataset")
    add("train-stage1", cmd_train_stage1, "train the aligned signal autoencoder")
    add("train-stage2", cmd_train_stage2, "selectively finetune the conditional denoiser")

    cmd = add("sample", cmd_sample, "draw guided samples from held-out conditions")
    cmd.add_argument("--scale", type=float, default=None, help="guidance scale")
    cmd.add_argument("--steps", type=int, default=None, help="sampler steps")
    cmd.add_argument("--num", type=int, default=None, help="number of samples")

    add("eval-retrieval", cmd_eval_retrieval, "test-split retrieval metrics and embedding export")

    cmd = add("eval-gen", cmd_eval_gen, "score saved samples: class agreement and Fréchet distance")
    cmd.add_argument("--scale", type=float, default=None, help="guidance scale of the saved samples")

    cmd = add("cfg-sweep", cmd_cfg_sweep, "sample and score a list of guidance scales")
    cmd.add_argument("--scales", default=DEFAULT_SWEEP, help="comma-separated guidance scales")
    cmd.add_argument("--steps", type=int, default=None, help="sampler steps")
    cmd.add_argument("--num", type=int, default=None, help="number of samples per scale")

    cmd = add("grad-check", cmd_grad_check, "run the analytic-vs-numeric gradient audit")
    cmd.add_argument("--seeds", type=int, default=10, help="random seeds per audited target")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    steady_heap()
    try:
        return args.func(args, _config_from(args))
    # The package's errors are ValueErrors (ConfigError, DataError, ...) and
    # ArithmeticErrors (NonFiniteError); numpy refuses sizes it cannot
    # allocate with a ValueError or a MemoryError.
    except (ValueError, ArithmeticError, MemoryError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
