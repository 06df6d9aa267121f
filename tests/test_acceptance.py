"""End-to-end acceptance checks for the whole pipeline.

Each test prints one scoreboard line (``criterion NN PASS/FAIL  <summary>``)
so a full run reads as a checklist; the assert keeps pytest semantics.  The
training-based checks share one session-scoped desk run driven through the
CLI, so they also exercise the command-line surface.
"""

import json
import sys
import time
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import tiny_config
from eegdiff.autodiff import Tensor
from eegdiff.cli import main
from eegdiff.diffusion import (
    ConditionAdapter,
    DenoiserConfig,
    NoiseSchedule,
    Stage2Model,
    apply_train_mask,
    build_condition,
    build_schedule,
    sample,
    selective_finetune_mask,
    stage2_train_step,
)
from eegdiff.encoder import EncoderConfig, SignalAutoencoder
from eegdiff.evaluate import (
    GaussianStats,
    RetrievalIndex,
    class_agreement,
    fit_gaussian,
    frechet_distance,
    topk_retrieval,
)
from eegdiff.losses import (
    LossWeights,
    cfg_combine,
    contrastive_loss,
    sdsc_loss,
    snr_weight,
    text_align_loss,
    v_target,
)
from eegdiff.signalio import load_dataset, preprocess
from eegdiff.training import (
    Adam,
    RunConfig,
    evaluate_stage1,
    generation_conditions,
    gradient_suite,
    load_stage1_model,
    load_stage2_model,
    stage2_training_set,
)


SCOREBOARD: list[str] = []


def report(num: int, ok: bool, label: str) -> None:
    line = f"criterion {num:2d} {'PASS' if ok else 'FAIL'}  {label}"
    SCOREBOARD.append(line)
    print(line, file=sys.__stdout__, flush=True)
    assert ok, line


@pytest.fixture(scope="session")
def desk(tmp_path_factory):
    """One full desk-scale run (data, stage 1, stage 2) via the CLI."""
    out = str(tmp_path_factory.mktemp("desk") / "run")
    cfg = RunConfig(out_dir=out).validate()
    assert main(["gen-data", "--out", out]) == 0
    t0 = time.monotonic()
    assert main(["train-stage1", "--out", out]) == 0
    t_stage1 = time.monotonic() - t0
    t0 = time.monotonic()
    assert main(["train-stage2", "--out", out]) == 0
    t_stage2 = time.monotonic() - t0
    data = load_dataset(cfg.resolved_data_dir)
    return SimpleNamespace(cfg=cfg, data=data, t_stage1=t_stage1, t_stage2=t_stage2)


def test_criterion_1_gradient_suite():
    t0 = time.monotonic()
    results = gradient_suite(seeds=10)
    elapsed = time.monotonic() - t0
    errs = dict(results)
    required = {
        "sdsc_loss",
        "recon_loss",
        "text_align_loss",
        "contrastive_loss",
        "stage1_loss",
        "v_loss",
        "adapter",
        "denoise",
        "autoencoder",
    }
    worst = max(errs.values())
    ok = required <= set(errs) and worst < 1e-4 and elapsed < 120.0
    report(1, ok, f"{len(errs)} gradient targets, worst rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_loss_identities():
    rng = np.random.default_rng(11)
    sym = 0.0
    in_range = True
    for _ in range(5):
        a = Tensor(rng.normal(size=(3, 8)))
        b = Tensor(rng.normal(size=(3, 8)))
        ab = float(sdsc_loss(a, b).data)
        sym = max(sym, abs(ab - float(sdsc_loss(b, a).data)))
        in_range = in_range and 0.0 <= ab <= 1.0

    uniform = 0.0
    for n in (1, 2, 5, 9):
        rows = Tensor(np.tile(rng.normal(size=(1, 6)), (n, 1)))
        uniform = max(uniform, abs(float(contrastive_loss(rows, rows, 0.5).data) - np.log(n)))

    cos_only = LossWeights(mse=0.0, cos=1.0)
    latent = Tensor(rng.normal(size=(2, 4, 6)))
    text = Tensor(rng.normal(size=(2, 4, 6)))
    base = float(text_align_loss(latent, text, cos_only).data)
    scaled = float(text_align_loss(Tensor(37.0 * latent.data), text, cos_only).data)
    scale_inv = abs(base - scaled)

    u = rng.normal(size=(2, 3, 4, 4))
    c = rng.normal(size=(2, 3, 4, 4))
    endpoints = np.array_equal(cfg_combine(u, c, 0.0), u) and np.array_equal(
        cfg_combine(u, c, 1.0), c
    )

    ok = sym < 1e-12 and in_range and uniform < 1e-12 and scale_inv < 1e-9 and endpoints
    report(
        2,
        ok,
        f"sdsc sym {sym:.1e}, uniform InfoNCE {uniform:.1e}, "
        f"cosine scale inv {scale_inv:.1e}, guidance endpoints exact {endpoints}",
    )


def test_criterion_3_v_round_trip():
    rng = np.random.default_rng(23)
    schedule = build_schedule(100)
    worst = 0.0
    for _ in range(100):
        t = int(rng.integers(0, schedule.steps))
        x0 = rng.normal(size=(3, 5))
        eps = rng.standard_normal((3, 5))
        a, s = float(schedule.alphas[t]), float(schedule.sigmas[t])
        x_t = a * x0 + s * eps
        v = v_target(x0, eps, t, schedule).data
        worst = max(worst, float(np.abs(a * x_t - s * v - x0).max()))
    report(3, worst < 1e-12, f"x0 recovered from (x_t, v), max err {worst:.2e} over 100 triples")


def test_criterion_4_schedule_invariants():
    cfg = RunConfig()
    unit = 0.0
    decreasing = True
    for schedule in (
        build_schedule(100, 1e-4, 0.02),
        build_schedule(cfg.schedule_steps, cfg.beta_min, cfg.beta_max),
    ):
        unit = max(unit, float(np.abs(schedule.alphas**2 + schedule.sigmas**2 - 1.0).max()))
        snrs = np.array([schedule.snr(t) for t in range(schedule.steps)])
        decreasing = decreasing and bool(np.all(np.diff(snrs) < 0))

    spot = NoiseSchedule(alphas=np.sqrt([0.8, 0.5]), sigmas=np.sqrt([0.2, 0.5]))
    w_at_snr4 = abs(snr_weight(spot, 0, 0.5) - 0.5)
    w_at_snr1 = abs(snr_weight(spot, 1, 0.5) - 1.0)

    ok = unit < 1e-12 and decreasing and w_at_snr4 < 1e-12 and w_at_snr1 < 1e-12
    report(
        4,
        ok,
        f"alpha^2+sigma^2 within {unit:.1e}, SNR strictly decreasing {decreasing}, "
        f"weight spot errs {w_at_snr1:.1e}/{w_at_snr4:.1e}",
    )


def test_criterion_5_selective_finetune_audit():
    rng = np.random.default_rng(5)
    model = Stage2Model(
        DenoiserConfig(
            cond_dim=8, grid=(2, 4, 4), widths=(4, 8), attn_width=4, attn_heads=2, time_dim=8
        ),
        rng,
        latent_tokens=3,
        latent_dim=8,
        schedule=build_schedule(12),
    )
    before = {k: v.data.copy() for k, v in model.params().items()}
    mask = selective_finetune_mask(model)
    expected = {
        name
        for name in before
        if name.startswith("adapter.") or (".xattn" in name and name.endswith((".k.w", ".v.w")))
    }
    trainable = apply_train_mask(model, mask)
    opt = Adam(trainable, lr=1e-3)
    for _ in range(50):
        batch = {
            "x0": rng.normal(size=(4, 2, 4, 4)),
            "cond": rng.normal(size=(4, 3, 8)),
        }
        stage2_train_step(batch, model, opt, rng)
    after = model.params()
    frozen_names = [k for k in before if k not in mask]
    frozen_ok = all(before[k].tobytes() == after[k].data.tobytes() for k in frozen_names)
    moved = sum(1 for k in mask.names if not np.array_equal(before[k], after[k].data))
    ok = set(mask.names) == expected and frozen_ok and moved > 0 and len(frozen_names) > 0
    report(
        5,
        ok,
        f"{len(frozen_names)} frozen params bit-identical after 50 steps, "
        f"{moved}/{len(mask.names)} masked params updated",
    )


def test_criterion_6_full_scale_shape_contract():
    rng = np.random.default_rng(6)
    enc = SignalAutoencoder(
        EncoderConfig(channels=128, samples=440, latent_tokens=77, latent_dim=1024), rng
    )
    x = rng.normal(size=(2, 128, 440))
    z = enc.encode_batch(Tensor(x))
    adapter = ConditionAdapter(rng, 1024, 77)
    tokens = adapter(Tensor(z.data.mean(axis=1)))
    condition = build_condition(Tensor(z.data), tokens)
    ok = (
        z.shape == (2, 77, 1024)
        and tokens.shape == (2, 4, 1024)
        and condition.shape == (2, 81, 1024)
    )
    report(6, ok, f"(2,128,440) -> {z.shape}, adapter {tokens.shape}, condition {condition.shape}")


def test_criterion_7_stage1_desk_training(desk):
    metrics = evaluate_stage1(load_stage1_model(desk.cfg), desk.data, desk.cfg.loss_weights)
    ok = (
        metrics["top1"] >= 0.7
        and metrics["top5"] >= 0.9
        and metrics["dice"] >= 0.6
        and desk.t_stage1 < 300.0
    )
    report(
        7,
        ok,
        f"stage 1 in {desk.t_stage1:.0f}s: top1 {metrics['top1']:.3f} "
        f"top5 {metrics['top5']:.3f} dice {metrics['dice']:.3f}",
    )


def test_criterion_8_guidance_direction(desk):
    cfg = desk.cfg
    encoder = load_stage1_model(cfg)
    model = load_stage2_model(cfg)
    train_set = stage2_training_set(cfg, desk.data, encoder)
    real = fit_gaussian(train_set["x0"].reshape(len(train_set["x0"]), -1))
    conds, labels = generation_conditions(cfg, desk.data, encoder, cfg.num_samples)

    results = {}
    for scale in (0.0, cfg.guidance_scale):
        gen = sample(model, conds, scale, cfg.sample_steps, seed=cfg.seed)
        results[scale] = (
            class_agreement(gen, labels, train_set["anchors"]),
            frechet_distance(real, fit_gaussian(gen.reshape(len(gen), -1))),
        )
    agree0, fd0 = results[0.0]
    agree_hi, fd_hi = results[cfg.guidance_scale]
    ok = (
        len(labels) == 64
        and agree_hi > agree0
        and fd_hi < fd0
        and desk.t_stage2 < 600.0
    )
    report(
        8,
        ok,
        f"stage 2 in {desk.t_stage2:.0f}s: scale {cfg.guidance_scale} vs 0 on {len(labels)} "
        f"samples, agreement {agree_hi:.3f} > {agree0:.3f}, frechet {fd_hi:.1f} < {fd0:.1f}",
    )


def test_criterion_9_frechet_oracles():
    rng = np.random.default_rng(9)
    d = 6
    mu = rng.normal(size=d)
    shift = frechet_distance(
        GaussianStats(mean=np.zeros(d), cov=np.eye(d)),
        GaussianStats(mean=mu, cov=np.eye(d)),
    )
    shift_err = abs(shift - float(mu @ mu))

    a_mat = rng.normal(size=(4, 4))
    stats_a = GaussianStats(mean=rng.normal(size=4), cov=a_mat @ a_mat.T + 0.5 * np.eye(4))
    self_dist = frechet_distance(stats_a, stats_a)

    b_mat = rng.normal(size=(4, 4))
    stats_b = GaussianStats(mean=rng.normal(size=4), cov=b_mat @ b_mat.T + 0.5 * np.eye(4))
    got = frechet_distance(stats_a, stats_b)
    # oracle: diagonalize the (non-symmetric) product to take its square root
    evals, evecs = np.linalg.eig(stats_a.cov @ stats_b.cov)
    cross = (evecs * np.sqrt(evals)) @ np.linalg.inv(evecs)
    diff = stats_a.mean - stats_b.mean
    oracle = float(diff @ diff + np.trace(stats_a.cov + stats_b.cov - 2.0 * np.real(cross)))
    oracle_err = abs(got - oracle)

    ok = shift_err < 1e-8 and self_dist < 1e-8 and oracle_err < 1e-8
    report(
        9,
        ok,
        f"mean-shift err {shift_err:.1e}, self distance {self_dist:.1e}, "
        f"eigendecomposition oracle err {oracle_err:.1e}",
    )


def test_criterion_10_retrieval_chance_oracle():
    rng = np.random.default_rng(10)
    n, trials = 32, 20
    ks = (1, 2, 5, 10)
    accs = np.zeros((trials, len(ks)))
    for trial in range(trials):
        index = RetrievalIndex(rng.normal(size=(n, 12)), labels=np.arange(n))
        queries = rng.normal(size=(n, 12))
        for j, k in enumerate(ks):
            accs[trial, j] = topk_retrieval(queries, index, k, mode="image")
    monotone = bool(np.all(np.diff(accs, axis=1) >= 0.0))
    chance = np.array(ks) / n
    dev = np.abs(accs.mean(axis=0) - chance)
    limit = 3.0 * np.sqrt(chance * (1.0 - chance) / (trials * n))
    ok = monotone and bool(np.all(dev <= limit))
    report(
        10,
        ok,
        f"top-k within {np.max(dev / limit):.2f} of the 3-SE band, "
        f"k-monotone on all {trials} trials {monotone}",
    )


def test_criterion_11_preprocessing_pipeline():
    fs = 1000.0
    t = np.arange(500) / fs

    def tone_amp(x, freq):
        phase = np.exp(-2j * np.pi * freq * np.arange(x.shape[-1]) / fs)
        return 2.0 * abs(x[0] @ phase) / x.shape[-1]

    low_in = np.sin(2 * np.pi * 2.0 * t)[None, :]
    low_out = preprocess(low_in, fs, 440)
    atten_db = 20.0 * np.log10(max(tone_amp(low_out, 2.0), 1e-300) / tone_amp(low_in, 2.0))

    mid_in = np.sin(2 * np.pi * 50.0 * t)[None, :]
    mid_out = preprocess(mid_in, fs, 440)
    # 50 Hz lands exactly on FFT bin 22 of the 440-sample output
    bin_amp = 2.0 * abs(np.fft.rfft(mid_out[0])[22]) / 440
    ripple_db = abs(20.0 * np.log10(bin_amp / tone_amp(mid_in[:, 20:460], 50.0)))

    shapes = low_out.shape == mid_out.shape == (1, 440)
    ok = shapes and atten_db <= -20.0 and ripple_db <= 1.0
    report(
        11,
        ok,
        f"500->440 samples, 2 Hz at {atten_db:.0f} dB, 50 Hz ripple {ripple_db:.3f} dB",
    )


def test_criterion_12_cli_determinism(tmp_path):
    out = tmp_path / "run"
    cfg_file = tmp_path / "config.json"
    cfg_file.write_text(json.dumps(tiny_config(str(out)).to_dict()))
    commands = [
        ["gen-data", "--config", str(cfg_file)],
        ["train-stage1", "--config", str(cfg_file)],
        ["train-stage2", "--config", str(cfg_file)],
        ["sample", "--config", str(cfg_file), "--scale", "2.0"],
        ["eval-retrieval", "--config", str(cfg_file)],
        ["eval-gen", "--config", str(cfg_file), "--scale", "2.0"],
        ["cfg-sweep", "--config", str(cfg_file), "--scales", "0,2", "--num", "4"],
        ["grad-check", "--config", str(cfg_file), "--seeds", "1"],
    ]

    def run_all():
        for cmd in commands:
            assert main(cmd) == 0, cmd
        return {
            p.relative_to(out).as_posix(): p.read_bytes()
            for p in sorted(out.rglob("*"))
            if p.is_file()
        }

    first = run_all()
    second = run_all()
    same_names = set(first) == set(second)
    same_bytes = same_names and all(first[k] == second[k] for k in first)
    ok = same_bytes and len(first) >= 8
    report(12, ok, f"{len(first)} output files byte-identical across repeated runs")
