"""Command-line surface: data generation, training, sampling, evaluation.

Every subcommand accepts --config (JSON), --seed, --out, and --data; flags
override the corresponding config fields.  All outputs are pure functions of
(config, seed), so rerunning a command reproduces its files byte for byte.

Exit codes: 0 success, 1 validation or runtime failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .autodiff import NonFiniteError, ShapeError
from .diffusion import sample as sample_latents
from .evaluate import (
    EvalError,
    RetrievalIndex,
    class_agreement,
    export_embeddings,
    fit_gaussian,
    frechet_distance,
    topk_retrieval,
)
from .nn import ConfigError
from .signalio import (
    ContainerError, DataError, format_float, generate_dataset, integers_below, read_container, write_container, write_csv,
)
from .training import (
    DATASET_FIELDS,
    TOP_K,
    RunConfig,
    encode_windows,
    finite_scale,
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


def _config_from(args: argparse.Namespace) -> RunConfig:
    """The command's run config with its flag overrides, checked once."""
    cfg = RunConfig.from_json(args.config) if args.config else RunConfig()
    if args.seed is not None:
        cfg.seed = args.seed
    if args.out is not None:
        cfg.out_dir = args.out
    if args.data is not None:
        cfg.data_dir = args.data
    return cfg.validate()


def cmd_gen_data(args, cfg: RunConfig) -> int:
    generate_dataset(cfg.resolved_data_dir, **{name: getattr(cfg, name) for name in DATASET_FIELDS})
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


def _generate(cfg: RunConfig, data, encoder, model, scale: float, steps: int, num: int):
    """Sample guided latents conditioned on held-out windows of the loaded
    dataset; returns (samples, labels, container path)."""
    cond, labels = generation_conditions(cfg, data, encoder, num)
    samples = sample_latents(model, cond, scale, steps=steps, seed=cfg.seed)
    path = cfg.samples_path(scale)
    write_container(
        path,
        {"samples": samples, "labels": labels.astype(np.float64)},
        {
            "kind": "samples",
            "scale": scale,
            "steps": steps,
            "seed": cfg.seed,
            "count": int(len(labels)),
        },
    )
    return samples, labels, path


def cmd_sample(args, cfg: RunConfig) -> int:
    scale = cfg.guidance_scale if args.scale is None else finite_scale(args.scale)
    steps = cfg.sample_steps if args.steps is None else int(args.steps)
    num = cfg.num_samples if args.num is None else int(args.num)
    loaded = load_data(cfg), load_stage1_model(cfg), load_stage2_model(cfg)
    _, labels, path = _generate(cfg, *loaded, scale, steps, num)
    print(f"wrote {path} ({len(labels)} samples, scale {format_float(scale)})")
    return 0


def cmd_eval_retrieval(args, cfg: RunConfig) -> int:
    data = load_data(cfg)
    encoder = load_stage1_model(cfg)
    idx = data.test_idx
    _, pooled = encode_windows(encoder, data.windows[idx])
    gallery = RetrievalIndex(data.window_image_emb[idx], labels=data.labels[idx])
    rows = [
        ["label_top1", topk_retrieval(pooled, gallery, 1, mode="label")],
        ["label_top5", topk_retrieval(pooled, gallery, TOP_K, mode="label")],
        ["image_top1", topk_retrieval(pooled, gallery, 1, mode="image")],
        ["image_top5", topk_retrieval(pooled, gallery, TOP_K, mode="image")],
    ]
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


def _gen_metrics(samples: np.ndarray, labels: np.ndarray, real):
    """Class agreement against target anchors and Fréchet distance against
    the real population of :func:`_real_population`."""
    anchors, real_stats = real
    agree = class_agreement(samples, labels, anchors)
    gen_stats = fit_gaussian(np.asarray(samples).reshape(len(samples), -1))
    return agree, frechet_distance(gen_stats, real_stats)


def _load_samples(cfg: RunConfig, scale: float):
    path = cfg.samples_path(scale)
    if not path.exists():
        raise DataError(f"no samples at {path}; run `sample --scale {format_float(scale)}` first")
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
    scale = cfg.guidance_scale if args.scale is None else finite_scale(args.scale)
    samples, labels = _load_samples(cfg, scale)
    agree, fd = _gen_metrics(samples, labels, _real_population(cfg, load_data(cfg)))
    out = write_csv(
        cfg.eval_dir / f"gen_scale_{format_float(scale)}.csv",
        ["scale", "agreement", "frechet"],
        [[scale, agree, fd]],
    )
    print(f"scale {format_float(scale)} agreement {format_float(agree)} frechet {format_float(fd)}")
    print(f"wrote {out}")
    return 0


def cmd_cfg_sweep(args, cfg: RunConfig) -> int:
    try:
        scales = [finite_scale(float(s)) for s in args.scales.split(",") if s.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad --scales value {args.scales!r}: {exc}") from exc
    if not scales:
        raise ConfigError("--scales must name at least one scale")
    steps = cfg.sample_steps if args.steps is None else int(args.steps)
    num = cfg.num_samples if args.num is None else int(args.num)
    if num < 2:
        raise ConfigError(f"cfg-sweep needs at least 2 samples per scale to fit their covariance, got {num}")
    data, encoder, model = load_data(cfg), load_stage1_model(cfg), load_stage2_model(cfg)
    real = _real_population(cfg, data)
    rows = []
    for scale in scales:
        samples, labels, _ = _generate(cfg, data, encoder, model, scale, steps, num)
        agree, fd = _gen_metrics(samples, labels, real)
        rows.append([scale, agree, fd])
        print(f"scale {format_float(scale)} agreement {format_float(agree)} frechet {format_float(fd)}")
    out = write_csv(cfg.eval_dir / "cfg_sweep.csv", ["scale", "agreement", "frechet"], rows)
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
    try:
        return args.func(args, _config_from(args))
    except (
        ConfigError, ShapeError, DataError, ContainerError, EvalError, NonFiniteError, OSError, RuntimeError
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
