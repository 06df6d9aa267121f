import ctypes
import gc
import json
import os
import re
import shutil
import subprocess
import sys
import warnings
import weakref
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import tiny_config
from eegdiff import autodiff as ad, cli, signalio, training
from eegdiff.autodiff import NonFiniteError, Tensor
from eegdiff.cli import main
from eegdiff.nn import ConfigError
from eegdiff.signalio import format_float, read_container, write_container, write_csv
from eegdiff.training import Adam, RunConfig


# -- optimizer ---------------------------------------------------------------------


def make_params():
    w, b = np.array([1.0, -2.0, 3.0]), np.array([0.5])
    return {"w": Tensor(w, requires_grad=True), "b": Tensor(b, requires_grad=True)}


def test_adam_step_without_gradients_is_identity():
    params = make_params()
    before = {k: p.data.copy() for k, p in params.items()}
    opt = Adam(params, lr=0.1)
    assert all(p.grad is None for p in params.values())
    opt.step()
    for name, p in params.items():
        np.testing.assert_array_equal(p.data, before[name])


def test_adam_minimize_steps_on_the_loss_gradient_alone():
    # a stale gradient on either parameter must not reach the update
    params, fresh = make_params(), make_params()
    for p in params.values():
        p.grad = np.full_like(p.data, 100.0)
    opt, ref = Adam(params, lr=0.1), Adam(fresh, lr=0.1)
    opt.minimize(ad.sum_(ad.mul(params["w"], params["w"])))
    fresh["w"].grad = 2.0 * fresh["w"].data
    ref.step()
    for name, p in params.items():
        np.testing.assert_array_equal(p.data, fresh[name].data, err_msg=name)
    assert params["b"].grad is None


def test_adam_first_step_moves_by_lr():
    params = {"w": Tensor(np.array([0.0]))}
    opt = Adam(params, lr=0.05)
    params["w"].grad = np.array([3.0])
    opt.step()
    # bias-corrected m/sqrt(v) is sign(g) on the first step
    assert params["w"].data[0] == pytest.approx(-0.05, rel=1e-6)


def test_adam_descends_quadratic():
    params = {"w": Tensor(np.array([5.0]), requires_grad=True)}
    opt = Adam(params, lr=0.2)
    for _ in range(200):
        opt.minimize(ad.sum_(ad.mul(params["w"], params["w"])))
    assert abs(params["w"].data[0]) < 0.1


def test_adam_overflowing_moment_raises_and_names_the_parameter():
    # 1e200 squared overflows the second moment, which would freeze "w" from then on
    params = {"w": Tensor(np.array([0.0])), "b": Tensor(np.array([0.5]))}
    opt = Adam(params, lr=0.1)
    params["w"].grad = np.array([1e200])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteError, match="parameter 'w'"):
            opt.step()
    assert params["w"].data[0] == 0.0 and opt.v["w"][0] == 0.0


# -- run config --------------------------------------------------------------------


def test_config_dict_round_trip(tmp_path):
    cfg = tiny_config(str(tmp_path / "run"))
    again = RunConfig.from_dict(cfg.to_dict())
    assert again == cfg


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"channels": 4, "bogus_knob": 1})
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"loss_weights": {"mse": 1.0, "nope": 2.0}})


def test_config_from_json_errors(tmp_path):
    with pytest.raises(ConfigError):
        RunConfig.from_json(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        RunConfig.from_json(bad)
    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]")
    with pytest.raises(ConfigError):
        RunConfig.from_json(arr)


def test_config_validate_errors(tmp_path):
    base = tiny_config(str(tmp_path)).to_dict()
    for patch in (
        {"batch_size": 1},
        {"drop_prob": 1.5},
        {"num_samples": 1},
        {"sample_steps": 0},
        {"sample_steps": 999},
        {"heads": 3},
        {"attn_heads": 3},
        {"latent_tokens": 1},
        {"grid": 5},
        {"grid": [2, 4]},
        {"widths": [4, 8.0]},
        {"epochs_stage1": "3"},
        {"loss_weights": 5},
        {"loss_weights": {"mse": "1"}},
        {"seed": 1.5},
        {"seed": True},
        {"batch_size": None},
        {"lr_stage1": False},
        {"fs": float("nan")},
        {"noise_std": float("inf")},
        {"loss_weights": {"mse": float("nan")}},
        {"out_dir": 3},
        {"data_dir": 3},
        {"val_frac": 1.5},
        {"classes": 2, "per_class": 6},  # a 2-window validation split
        {"test_frac": 0.0},  # an empty test split
        {"lr_stage1": 0.0},
        {"adam_beta1": 1.0},
        {"adam_eps": 0.0},
        {"channels": 0},
        {"loss_weights": {"temperature": 0.0}},
        {"loss_weights": {"recon": -1.0}},
        {"time_dim": 7},
        {"classes": 1, "per_class": 36},  # one class, still 6 validation windows
        {"fs": 0},
        {"low": 60.0, "high": 50.0},
    ):
        raw = dict(base, **patch)
        with pytest.raises(ConfigError):
            RunConfig.from_dict(raw).validate()


def test_config_json_round_trip(tmp_path):
    cfg = tiny_config(str(tmp_path / "run"))
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg.to_dict()))
    assert RunConfig.from_json(path) == cfg


# -- csv helpers -------------------------------------------------------------------


@given(st.floats(allow_nan=False, allow_infinity=False))
@settings(max_examples=100, deadline=None)
def test_format_float_round_trips(x):
    assert float(format_float(x)) == x


def test_write_csv_layout(tmp_path):
    path = write_csv(tmp_path / "sub" / "t.csv", ["a", "b", "c"], [[1, 0.5, "x"], [2, 0.25, "y"]])
    text = path.read_text()
    assert text == "a,b,c\n1,0.5,x\n2,0.25,y\n"


# -- CLI pipeline ------------------------------------------------------------------


@pytest.fixture(scope="session")
def ws(tmp_path_factory):
    """Full tiny pipeline driven through the CLI entry point, in process."""
    root = tmp_path_factory.mktemp("cliws")
    cfg = tiny_config(str(root / "run"))
    cfg_path = root / "config.json"
    cfg_path.write_text(json.dumps(cfg.to_dict()))
    argv = ["--config", str(cfg_path)]
    assert main(["gen-data", *argv]) == 0
    assert main(["train-stage1", *argv]) == 0
    assert main(["train-stage2", *argv]) == 0
    return SimpleNamespace(root=root, cfg=cfg, argv=argv)


def test_pipeline_writes_artifacts(ws):
    cfg = ws.cfg
    assert (cfg.resolved_data_dir / "dataset.bin").exists()
    assert (cfg.resolved_data_dir / "manifest.json").exists()
    assert cfg.stage1_checkpoint.exists()
    assert cfg.stage2_checkpoint.exists()
    for metrics in (cfg.stage1_metrics, cfg.stage2_metrics):
        lines = metrics.read_text().strip().split("\n")
        assert lines[0] == "epoch,metric,value"
        assert len(lines) > 1
        for line in lines[1:]:
            epoch, metric, value = line.split(",")
            int(epoch)
            float(value)
            assert metric


def test_sample_then_eval_gen(ws, capsys):
    assert main(["sample", *ws.argv, "--scale", "2.0"]) == 0
    path = ws.cfg.samples_path(2.0)
    assert path.exists()
    assert main(["eval-gen", *ws.argv, "--scale", "2.0"]) == 0
    out = capsys.readouterr().out
    assert "agreement" in out and "frechet" in out
    csv = (ws.cfg.eval_dir / "gen_scale_2.0.csv").read_text().strip().split("\n")
    assert csv[0] == "scale,agreement,frechet"
    scale, agree, fd = (float(v) for v in csv[1].split(","))
    assert scale == 2.0
    assert 0.0 <= agree <= 1.0
    assert fd >= 0.0


def test_sample_is_deterministic(ws):
    path = ws.cfg.samples_path(2.0)
    first = path.read_bytes()
    assert main(["sample", *ws.argv, "--scale", "2.0"]) == 0
    assert path.read_bytes() == first


def test_eval_gen_needs_samples(ws, capsys):
    assert main(["eval-gen", *ws.argv, "--scale", "123.0"]) == 1
    assert "error:" in capsys.readouterr().err


def test_eval_retrieval_outputs(ws):
    assert main(["eval-retrieval", *ws.argv]) == 0
    lines = (ws.cfg.eval_dir / "retrieval.csv").read_text().strip().split("\n")
    assert lines[0] == "metric,value"
    metrics = dict(line.split(",") for line in lines[1:])
    assert set(metrics) == {"label_top1", "label_top5", "image_top1", "image_top5"}
    for value in metrics.values():
        assert 0.0 <= float(value) <= 1.0
    emb = (ws.cfg.eval_dir / "test_embeddings.csv").read_text().strip().split("\n")
    assert emb[0].startswith("id,label,e0")
    assert len(emb) == 1 + 8  # header + 2 windows per class in the tiny test split


def test_cfg_sweep(ws, monkeypatch):
    # 2 and 2.0 name one samples file, so that scale is drawn and scored once
    draws = []
    sample = cli.sample_latents
    monkeypatch.setattr(cli, "sample_latents", lambda *a, **k: draws.append(a[2]) or sample(*a, **k))
    assert main(["cfg-sweep", *ws.argv, "--scales", "0,2,2.0", "--num", "4"]) == 0
    lines = (ws.cfg.eval_dir / "cfg_sweep.csv").read_text().strip().split("\n")
    assert lines[0] == "scale,agreement,frechet"
    assert len(lines) == 3
    assert [line.split(",")[0] for line in lines[1:]] == ["0.0", "2.0"]
    assert draws == [0.0, 2.0]


def test_negative_zero_scale_is_the_zero_scale(ws, monkeypatch):
    # -0 == 0: both draw the unguided samples, so they name one samples
    # file, one eval-gen CSV and one cfg-sweep row
    assert main(["sample", *ws.argv, "--scale", "-0"]) == 0
    assert main(["eval-gen", *ws.argv, "--scale", "0"]) == 0
    assert main(["eval-gen", *ws.argv, "--scale", "-0"]) == 0
    draws = []
    sample = cli.sample_latents
    monkeypatch.setattr(cli, "sample_latents", lambda *a, **k: draws.append(a[2]) or sample(*a, **k))
    assert main(["cfg-sweep", *ws.argv, "--scales", "0,-0", "--num", "4"]) == 0
    assert draws == [0.0]
    assert not list(Path(ws.cfg.out_dir).rglob("*-0.0*"))
    for name in ("gen_scale_0.0.csv", "cfg_sweep.csv"):
        assert [line.split(",")[0] for line in (ws.cfg.eval_dir / name).read_text().split("\n")[1:-1]] == ["0.0"]


def test_negative_zero_scale_writes_the_zero_scale_bytes(ws):
    # the samples meta records the scale: -0 must not be written as -0.0
    assert str(RunConfig(guidance_scale=-0.0).validate().guidance_scale) == "0.0"
    path = ws.cfg.samples_path(0.0)
    written = []
    for scale in ("0", "-0"):
        assert main(["sample", *ws.argv, "--scale", scale]) == 0
        written.append(path.read_bytes())
    assert written[0] == written[1]


def test_cfg_sweep_loads_each_input_once(ws, monkeypatch):
    reads, populations = [], []
    read = signalio.read_container
    for module in (signalio, cli):  # cli reads the samples container itself
        monkeypatch.setattr(
            module, "read_container", lambda path, **kwargs: reads.append(Path(path).name) or read(path, **kwargs)
        )
    population = cli.stage2_training_set
    monkeypatch.setattr(cli, "stage2_training_set", lambda *a: populations.append(1) or population(*a))
    assert main(["cfg-sweep", *ws.argv, "--scales", "0,2", "--num", "4"]) == 0
    assert sorted(reads) == ["autoencoder.bin", "dataset.bin", "diffusion.bin"]
    assert len(populations) == 1
    # eval-gen scores saved samples against the targets: no checkpoint is read
    reads.clear()
    assert main(["eval-gen", *ws.argv, "--scale", "2"]) == 0
    assert sorted(reads) == ["dataset.bin", "scale_2.0.bin"]
    assert len(populations) == 2


def test_eval_gen_needs_only_the_dataset_and_samples(ws, tmp_path):
    assert main(["sample", *ws.argv, "--scale", "2.0"]) == 0
    assert main(["eval-gen", *ws.argv, "--scale", "2.0"]) == 0
    run = tmp_path / "run"
    shutil.copytree(ws.cfg.resolved_data_dir, run / "data")
    (run / "samples").mkdir()
    shutil.copy(ws.cfg.samples_path(2.0), run / "samples")
    argv = write_config(tmp_path / "config.json", ws.cfg, out_dir=str(run))
    assert main(["eval-gen", *argv, "--scale", "2.0"]) == 0
    name = "eval/gen_scale_2.0.csv"
    assert (run / name).read_bytes() == (Path(ws.cfg.out_dir) / name).read_bytes()


def test_stage2_runs_at_a_grid_the_anchors_do_not_divide(ws, tmp_path, capsys):
    # H = 14 is even, so the config check accepts it, but 14 // (14 // 4) = 4
    # repeats of 3 coarse rows would give 12 rows
    run = tmp_path / "run"
    shutil.copytree(Path(ws.cfg.out_dir) / "stage1", run / "stage1")
    changes = {"out_dir": str(run), "data_dir": str(ws.cfg.resolved_data_dir), "grid": [2, 14, 4]}
    argv = write_config(tmp_path / "config.json", ws.cfg, **changes)
    for command in (["train-stage2"], ["sample", "--scale", "2.0"], ["eval-gen", "--scale", "2.0"]):
        assert main([*command, *argv]) == 0, capsys.readouterr().err


def test_cfg_sweep_refuses_one_sample_before_it_samples(ws, tmp_path, capsys):
    # a Fréchet distance needs the covariance of at least 2 samples; the run
    # has both checkpoints, so only the check keeps it from sampling
    run = tmp_path / "run"
    for stage in ("stage1", "stage2"):
        shutil.copytree(Path(ws.cfg.out_dir) / stage, run / stage)
    argv = write_config(tmp_path / "config.json", ws.cfg, out_dir=str(run), data_dir=str(ws.cfg.resolved_data_dir))
    capsys.readouterr()
    assert main(["cfg-sweep", *argv, "--scales", "0,1", "--num", "1"]) == 1
    assert_one_error_line(capsys)
    assert not (run / "samples").exists()


def test_gen_data_rejects_a_split_too_small_to_score(tmp_path, capsys):
    config = write_config(tmp_path / "config.json", tiny_config(str(tmp_path / "run")), classes=2, per_class=6)
    assert main(["gen-data", *config]) == 1
    assert_one_error_line(capsys)
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize(
    "flags, changes",
    [
        (["--seed", "-1"], {}),
        ([], {"seed": -3}),
        ([], {"attn_heads": 0}),
        ([], {"attn_heads": -2}),
        ([], {"time_dim": 0}),
        ([], {"attn_width": 0}),
        ([], {"beta_max": 1.5}),
        ([], {"schedule_steps": 1, "sample_steps": 1}),
        ([], {"lr_stage2": -1.0}),
        ([], {"adam_beta2": 1.0}),
    ],
    ids=["flag-seed", "seed", "attn_heads-0", "attn_heads-neg", "time_dim", "attn_width",
         "beta_max", "schedule_steps", "lr_stage2", "adam_beta2"],
)
def test_gen_data_checks_every_run_value(tmp_path, flags, changes, capsys):
    # values that only stage 2 reads are rejected before the first command writes
    config = write_config(tmp_path / "config.json", tiny_config(str(tmp_path / "run")), **changes)
    assert main(["gen-data", *config, *flags]) == 1
    assert_one_error_line(capsys)
    assert not (tmp_path / "run" / "data" / "dataset.bin").exists()


def test_train_rejects_a_dataset_split_too_small_to_score(tmp_path, capsys):
    signalio.generate_dataset(tmp_path / "data", replace(tiny_config(), classes=2, per_class=6))  # 2 validation windows
    config = write_config(
        tmp_path / "config.json", tiny_config(str(tmp_path / "run")),
        classes=2, per_class=18, data_dir=str(tmp_path / "data"),
    )
    assert main(["train-stage1", *config]) == 1
    err = capsys.readouterr().err
    assert err == "error: the dataset's validation split holds 2 windows; top-5 retrieval needs at least 5\n", err
    assert not (tmp_path / "run").exists()


def test_cfg_sweep_rejects_bad_scales(ws, capsys):
    assert main(["cfg-sweep", *ws.argv, "--scales", "abc"]) == 1
    assert main(["cfg-sweep", *ws.argv, "--scales", ","]) == 1
    assert "error:" in capsys.readouterr().err


def assert_one_error_line(capsys):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize(
    "argv",
    [
        ["sample", "--scale", "nan"],
        ["sample", "--scale", "nan", "--steps", "1"],
        ["sample", "--scale=-inf"],
        ["eval-gen", "--scale", "nan"],
        ["cfg-sweep", "--scales", "1,inf"],
    ],
)
def test_nonfinite_scale_exits_1(ws, argv, capsys):
    samples = ws.cfg.samples_path(0.0).parent
    before = sorted(samples.glob("*"))
    capsys.readouterr()
    assert main([*argv, *ws.argv]) == 1
    assert_one_error_line(capsys)
    assert sorted(samples.glob("*")) == before


@pytest.mark.parametrize(
    "argv, field",
    [
        (["sample", "--steps", "0"], "sample_steps"),
        (["cfg-sweep", "--steps", "999"], "sample_steps"),
        (["cfg-sweep", "--scales", "1,nan"], "guidance_scale"),
        (["sample", "--num", "0"], "--num"),
    ],
)
def test_sampling_overrides_are_checked_before_any_file(tmp_path, argv, field, capsys):
    # an empty run directory: a check after the first read would report the missing dataset
    assert main([*argv, "--out", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and field in err, err
    assert list(tmp_path.iterdir()) == []


def test_nonfinite_config_scale_exits_1(ws, tmp_path, capsys):
    argv = write_config(tmp_path / "config.json", ws.cfg, guidance_scale=float("inf"))
    capsys.readouterr()
    assert main(["sample", *argv]) == 1
    assert_one_error_line(capsys)


def test_diverging_sampler_exits_1(ws, monkeypatch, capsys):
    def diverge(*args, **kwargs):
        raise NonFiniteError("operation 'add' produced non-finite values")

    monkeypatch.setattr(cli, "sample_latents", diverge)
    capsys.readouterr()
    assert main(["sample", *ws.argv, "--scale", "4.0"]) == 1
    assert_one_error_line(capsys)
    assert not ws.cfg.samples_path(4.0).exists()


@pytest.mark.parametrize(
    "records",
    [
        {"samples": np.zeros((4, 2, 4, 4))},
        {"samples": np.zeros((4, 2, 4, 4)), "labels": np.zeros(3)},
        {"samples": np.full((4, 2, 4, 4), np.nan), "labels": np.zeros(4)},
        {"samples": 1e300 * np.arange(128.0).reshape(4, 2, 4, 4), "labels": np.zeros(4)},
        {"samples": np.zeros((4, 2, 4, 4)), "labels": np.array([0.0, np.nan, 1.0, 2.0])},
        {"samples": np.zeros((4, 2, 4, 4)), "labels": np.array([0.0, 99.0, 1.0, 2.0])},
        {"samples": np.zeros((4, 2, 4, 4)), "labels": np.array([0.0, -3.0, 1.0, 2.0])},
        {"samples": np.zeros((4, 2, 4, 4)), "labels": np.array([0.0, 1.5, 1.0, 2.0])},
        {"samples": np.zeros((4, 4, 2, 4)), "labels": np.zeros(4)},
    ],
    ids=["no-labels", "length-mismatch", "non-finite", "huge-finite",
         "nan-label", "label-99", "label--3", "label-1.5", "other-grid"],
)
def test_eval_gen_rejects_malformed_samples(ws, records, capsys):
    write_container(ws.cfg.samples_path(-3.0), records, {"kind": "samples"})
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["eval-gen", *ws.argv, "--scale", "-3.0"]) == 1
    assert_one_error_line(capsys)
    assert not caught, [str(w.message) for w in caught]


@pytest.mark.parametrize("scale", ["1e200", "1e300"])
def test_huge_scale_sample_exits_1(ws, scale, capsys):
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["sample", *ws.argv, "--scale", scale]) == 1
    err = capsys.readouterr().err
    assert err == "error: operation 'standardize' produced non-finite values\n", err
    assert not caught, [str(w.message) for w in caught]
    assert not ws.cfg.samples_path(float(scale)).exists()


def test_overflowing_snr_weight_exits_1(ws, tmp_path, capsys):
    # SNR^-gamma overflows at gamma -1e6: the loss's non-finite probe is the only report
    shutil.copytree(Path(ws.cfg.out_dir) / "stage1", tmp_path / "stage1")
    changes = {"out_dir": str(tmp_path), "data_dir": str(ws.cfg.resolved_data_dir), "gamma": -1e6}
    argv = write_config(tmp_path / "config.json", ws.cfg, **changes)
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["train-stage2", *argv]) == 1
    assert_one_error_line(capsys)
    assert not caught, [str(w.message) for w in caught]
    assert not (tmp_path / "stage2").exists()


# Every command that loads the dataset.
DATASET_COMMANDS = (
    ["train-stage1"], ["train-stage2"], ["sample"], ["eval-retrieval"],
    ["eval-gen", "--scale", "2.0"], ["cfg-sweep", "--scales", "1", "--num", "4"],
)


@pytest.mark.parametrize(
    "record, value",
    [
        ("train_idx", 1000000.0), ("val_idx", -1.0), ("test_idx", 0.5), ("labels", 4.0),
        # an index keeps only those elements of the record
        pytest.param("window_image_emb", slice(0, 5), id="window_image_emb-truncated"),
        pytest.param("train_idx", slice(0, 0), id="train_idx-empty"),
        pytest.param("train_idx", slice(0, 1), id="train_idx-one-window"),
        pytest.param("windows", np.s_[:, :3], id="windows-3-channels"),
        pytest.param("anchor_text", np.s_[:, :3], id="anchor_text-3-tokens"),
        pytest.param("window_image_emb", np.s_[:, :5], id="window_image_emb-narrow"),
    ],
)
def test_train_rejects_out_of_range_dataset_records(ws, tmp_path, record, value, capsys):
    arrays, meta = read_container(ws.cfg.resolved_data_dir / "dataset.bin")
    if isinstance(value, float):
        arrays[record] = arrays[record].copy()
        arrays[record][0] = value
    else:
        arrays[record] = arrays[record][value]
    write_container(tmp_path / "data" / "dataset.bin", arrays, meta)
    # both checkpoints and the samples are in place, so only the dataset is at fault
    for stage in ("stage1", "stage2"):
        shutil.copytree(Path(ws.cfg.out_dir) / stage, tmp_path / stage)
    samples = {"samples": np.zeros((4, 2, 4, 4)), "labels": np.zeros(4)}
    write_container(tmp_path / "samples" / "scale_2.0.bin", samples, {"kind": "samples"})
    argv = write_config(tmp_path / "config.json", ws.cfg, out_dir=str(tmp_path), data_dir=None)
    # every path and every file's bytes: a command that rewrote a checkpoint
    # before failing would change the snapshot as surely as one that added a file
    def snapshot():
        return {p: p.read_bytes() if p.is_file() else None for p in tmp_path.rglob("*")}

    before = snapshot()
    for command in DATASET_COMMANDS:
        capsys.readouterr()
        assert main([*command, *argv]) == 1, command
        assert_one_error_line(capsys)
        assert snapshot() == before, command


@pytest.mark.parametrize(
    "command, record",
    [(["eval-retrieval"], "window_image_emb"), (["train-stage1"], "windows")],
    ids=["eval-retrieval", "train-stage1"],
)
def test_non_finite_dataset_record_exits_1(ws, tmp_path, command, record, capsys):
    # a corrupt file is named as such, not scored or blamed on training
    arrays, meta = read_container(ws.cfg.resolved_data_dir / "dataset.bin")
    arrays[record] = arrays[record].copy()
    row = int(arrays["test_idx"][0]) if record == "window_image_emb" else int(arrays["train_idx"][0])
    arrays[record][row].flat[0] = np.nan
    container = tmp_path / "data" / "dataset.bin"
    write_container(container, arrays, meta)
    shutil.copytree(Path(ws.cfg.out_dir) / "stage1", tmp_path / "stage1")
    argv = write_config(tmp_path / "config.json", ws.cfg, out_dir=str(tmp_path), data_dir=None)
    capsys.readouterr()
    assert main([*command, *argv]) == 1
    assert capsys.readouterr().err == f"error: {container} record {record!r} holds non-finite values\n"
    assert not (tmp_path / "eval").exists()


@pytest.mark.parametrize("fault", ["scored-on-training", "repeated-index"])
def test_overlapping_splits_exit_1(ws, tmp_path, fault, capsys):
    # scoring training windows read label_top1 1.0 before the splits were checked
    arrays, meta = read_container(ws.cfg.resolved_data_dir / "dataset.bin")
    if fault == "scored-on-training":
        arrays["val_idx"] = arrays["test_idx"] = arrays["train_idx"][:8]
        problem = "records 'train_idx' and 'val_idx' share a window"
    else:
        arrays["test_idx"] = np.concatenate([arrays["test_idx"], arrays["test_idx"][:1]])
        problem = "record 'test_idx' names a window twice"
    container = tmp_path / "data" / "dataset.bin"
    write_container(container, arrays, meta)
    shutil.copytree(Path(ws.cfg.out_dir) / "stage1", tmp_path / "stage1")
    argv = write_config(tmp_path / "config.json", ws.cfg, out_dir=str(tmp_path), data_dir=None)
    capsys.readouterr()
    assert main(["eval-retrieval", *argv]) == 1
    assert capsys.readouterr().err == f"error: {container} {problem}\n"
    assert not (tmp_path / "eval").exists()


def test_usage_errors_exit_2(capsys):
    assert main([]) == 2
    assert main(["not-a-command"]) == 2
    capsys.readouterr()


def test_invalid_config_exits_1(tmp_path, capsys):
    raw = tiny_config(str(tmp_path)).to_dict()
    raw["batch_size"] = 1
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))
    assert main(["gen-data", "--config", str(path)]) == 1
    assert "error:" in capsys.readouterr().err


def test_mistyped_config_value_exits_1(tmp_path, capsys):
    argv = write_config(tmp_path / "config.json", tiny_config(str(tmp_path)), grid=5)
    assert main(["gen-data", *argv]) == 1
    err = capsys.readouterr().err
    assert err == "error: config grid must be a list of 3 ints, got 5\n", err
    assert not (tmp_path / "data").exists()


def test_config_takes_any_int_and_refuses_a_float_without_a_float_value(tmp_path, capsys):
    huge = 10**400  # past the largest float
    argv = write_config(tmp_path / "seed.json", tiny_config(str(tmp_path / "seed")), seed=huge)
    assert main(["gen-data", *argv]) == 0
    assert (tmp_path / "seed" / "data" / "dataset.bin").exists()
    argv = write_config(tmp_path / "fs.json", tiny_config(str(tmp_path / "fs")), fs=huge)
    capsys.readouterr()
    assert main(["gen-data", *argv]) == 1
    assert capsys.readouterr().err == f"error: config fs must be a finite number, got {huge!r}\n"
    assert not (tmp_path / "fs").exists()


# Each size is refused before anything is allocated: the model-size check
# of the config refuses samples, channels and latent_tokens, and numpy's
# largest array size or dimension is exceeded by the others.
@pytest.mark.parametrize(
    "changes",
    [
        {"samples": 10**30},
        {"fs": 1e308, "high": 1e307},
        {"per_class": 10**15},
        {"channels": 10**20},
        {"subjects": 10**20},
        {"latent_tokens": 10**15},
    ],
    ids=["samples", "fs", "per_class", "channels", "subjects", "latent_tokens"],
)
def test_gen_data_at_a_size_numpy_cannot_allocate_exits_1(tmp_path, changes, capsys):
    argv = write_config(tmp_path / "config.json", RunConfig(out_dir=str(tmp_path / "run")), **changes)
    assert main(["gen-data", *argv]) == 1
    assert_one_error_line(capsys)
    assert not (tmp_path / "run" / "data").exists()


def test_an_allocation_failure_ends_in_one_error_line(tmp_path, monkeypatch, capsys):
    # the model-size check now refuses latent_tokens 10**15, the one size
    # above that reached numpy's MemoryError, so the command raises it here
    def no_memory(*args):
        raise MemoryError("Unable to allocate 1.80 EiB")

    monkeypatch.setattr(cli, "generate_dataset", no_memory)
    argv = write_config(tmp_path / "config.json", tiny_config(str(tmp_path)))
    assert main(["gen-data", *argv]) == 1
    assert capsys.readouterr().err == "error: Unable to allocate 1.80 EiB\n"


@pytest.mark.parametrize(
    "cfg",
    [RunConfig(), tiny_config(), RunConfig(samples=128, grid=(3, 4, 6), widths=(5, 7), attn_width=6, attn_heads=3)],
    ids=["default", "tiny", "no-shortcut"],
)
def test_parameter_counts_match_the_built_models(cfg):
    rng = np.random.default_rng(0)
    built = {
        1: training.SignalAutoencoder(cfg.encoder_config(), rng),
        2: training.build_stage2_model(cfg, rng),
    }
    sizes = {stage: sum(p.data.size for p in model.params().values()) for stage, model in built.items()}
    assert training.parameter_counts(cfg) == sizes


def test_oversized_model_is_refused_before_any_file(tmp_path, capsys):
    argv = write_config(tmp_path / "config.json", RunConfig(out_dir=str(tmp_path / "run")), depth=10**11)
    assert main(["train-stage1", *argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: the stage-1 model would hold ") and err.count("\n") == 1, err
    assert "depth" in err
    assert not (tmp_path / "run").exists()


def test_train_without_dataset_exits_1(tmp_path, capsys):
    argv = write_config(tmp_path / "config.json", tiny_config(str(tmp_path)))
    assert main(["train-stage1", *argv]) == 1
    container = tmp_path / "data" / "dataset.bin"
    assert capsys.readouterr().err == f"error: no dataset at {container}; run `gen-data` first\n"
    assert not (tmp_path / "stage1").exists()


@pytest.mark.parametrize(
    "argv",
    [["sample"], ["eval-gen", "--scale", "-5.0"], ["eval-retrieval"]],
    ids=["sample", "eval-gen", "eval-retrieval"],
)
def test_dataset_config_mismatch_exits_1(ws, tmp_path, argv, capsys):
    write_container(
        ws.cfg.samples_path(-5.0), {"samples": np.zeros((4, 2, 4, 4)), "labels": np.zeros(4)}, {"kind": "samples"}
    )
    # 18 windows per class, so the 2-class config still scores 6 validation
    # and 6 test windows
    config = write_config(tmp_path / "config.json", ws.cfg, classes=2, per_class=18)
    outputs = sorted(Path(ws.cfg.out_dir).rglob("*"))
    capsys.readouterr()
    assert main([*argv, *config]) == 1
    assert capsys.readouterr().err == "error: dataset classes=4 does not match config classes=2\n"
    assert sorted(Path(ws.cfg.out_dir).rglob("*")) == outputs


@pytest.mark.parametrize("stage, name", [(1, "stage1_loss_terms"), (2, "stage2_train_step")])
def test_divergence_names_stage_epoch_and_step(ws, tmp_path, monkeypatch, stage, name):
    # a fresh run directory: a diverging stage writes neither its metrics nor its checkpoint
    cfg = replace(ws.cfg, out_dir=str(tmp_path / "run"), data_dir=str(ws.cfg.resolved_data_dir))
    if stage == 2:
        shutil.copytree(Path(ws.cfg.out_dir) / "stage1", tmp_path / "run" / "stage1")
    real = getattr(training, name)
    calls = []

    def diverge_on_second_call(*args, **kwargs):
        calls.append(name)
        if len(calls) == 2:
            raise NonFiniteError("operation 'add' produced non-finite values")
        return real(*args, **kwargs)

    monkeypatch.setattr(training, name, diverge_on_second_call)
    train = training.train_stage1 if stage == 1 else training.train_stage2
    match = f"^stage {stage} diverged at epoch 0, step 1: operation 'add' produced non-finite values$"
    with pytest.raises(RuntimeError, match=match):
        train(cfg)
    assert not getattr(cfg, f"stage{stage}_metrics").exists()
    assert not getattr(cfg, f"stage{stage}_checkpoint").exists()


def test_stage1_step_graph_is_freed_before_the_next_loss(ws, tmp_path, monkeypatch):
    real = training.stage1_loss_terms
    # Tensor has no weakref slot; a loss's data array lives exactly as long as the loss
    last_total = []
    alive = []  # whether the previous loss was still alive when the next was built

    def recording(*args, **kwargs):
        alive.append(bool(last_total) and last_total[-1]() is not None)
        total, terms = real(*args, **kwargs)
        last_total.append(weakref.ref(total.data))
        return total, terms

    monkeypatch.setattr(training, "stage1_loss_terms", recording)
    cfg = replace(ws.cfg, out_dir=str(tmp_path), data_dir=str(ws.cfg.resolved_data_dir), epochs_stage1=1)
    gc.collect()
    gc.disable()
    try:
        training.train_stage1(cfg)
    finally:
        gc.enable()
    assert len(alive) > 1 and not any(alive), alive


def write_config(path, cfg, **changes):
    path.write_text(json.dumps(cfg.to_dict() | changes))
    return ["--config", str(path)]


@pytest.fixture(scope="module")
def deep_run(ws, tmp_path_factory):
    """A depth-2 stage-1 checkpoint trained on the workspace's dataset."""
    root = tmp_path_factory.mktemp("deep")
    changes = {"data_dir": str(ws.cfg.resolved_data_dir), "out_dir": str(root / "run")}
    argv = write_config(root / "config.json", ws.cfg, depth=2, epochs_stage1=1, **changes)
    assert main(["train-stage1", *argv]) == 0
    return SimpleNamespace(root=root, changes=changes)


@pytest.mark.parametrize("direction", ["missing", "unexpected"])
def test_checkpoint_config_mismatch_exits_1(ws, deep_run, direction, capsys):
    if direction == "missing":  # depth-1 checkpoint, depth-2 config
        argv = write_config(deep_run.root / "deeper.json", ws.cfg, depth=2)
    else:  # depth-2 checkpoint, depth-1 config
        argv = write_config(deep_run.root / "shallow.json", ws.cfg, **deep_run.changes)
    capsys.readouterr()
    assert main(["eval-retrieval", *argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"{direction} ['spatial1." in err
    assert not (Path(deep_run.changes["out_dir"]) / "eval" / "retrieval.csv").exists()


def test_checkpoint_with_a_wrong_buffer_shape_exits_1(ws, tmp_path, capsys):
    arrays, meta = read_container(ws.cfg.stage1_checkpoint)
    arrays["temporal.bn.running_var"] = np.ones(3)
    argv = write_config(tmp_path / "config.json", ws.cfg, out_dir=str(tmp_path),
                        data_dir=str(ws.cfg.resolved_data_dir))
    write_container(tmp_path / "stage1" / "autoencoder.bin", arrays, meta)
    capsys.readouterr()
    assert main(["eval-retrieval", *argv]) == 1
    err = capsys.readouterr().err
    assert err == "error: buffer 'temporal.bn.running_var' has shape (16,), state provides (3,)\n", err
    assert not (tmp_path / "eval").exists()


@pytest.mark.parametrize(
    "command, changes, checkpoint, differs",
    [
        (["eval-retrieval"], {"heads": 4}, "stage1_checkpoint", "heads 2 (config 4)"),
        (["sample"], {"beta_max": 0.02}, "stage2_checkpoint", "beta_max 0.004 (config 0.02)"),
        (["sample"], {"schedule_steps": 20, "attn_heads": 4}, "stage2_checkpoint",
         "attn_heads 2 (config 4), schedule_steps 10 (config 20)"),
    ],
    ids=["heads", "beta_max", "two-fields"],
)
def test_checkpoint_trained_under_other_config_exits_1(ws, tmp_path, command, changes, checkpoint, differs, capsys):
    # same record names and shapes, other model-shaping values
    argv = write_config(tmp_path / "config.json", ws.cfg, **changes)
    outputs = sorted(Path(ws.cfg.out_dir).rglob("*"))
    capsys.readouterr()
    assert main([*command, *argv]) == 1
    err = capsys.readouterr().err
    path = getattr(ws.cfg, checkpoint)
    assert err == f"error: {path} was trained under other config values: {differs}\n", err
    assert sorted(Path(ws.cfg.out_dir).rglob("*")) == outputs


# The config fields that shape each stage's model (for stage 2, its noise
# schedule too), in the order a refused checkpoint names them.
MODEL_SHAPING = {
    1: ("channels", "samples", "latent_tokens", "latent_dim", "temporal_dim", "heads", "depth"),
    2: ("grid", "widths", "attn_width", "attn_heads", "time_dim", "schedule_steps", "beta_min", "beta_max"),
}
LOADERS = {1: training.load_stage1_model, 2: training.load_stage2_model}


def rewrite_checkpoint(ws, tmp_path, stage, edit):
    """The workspace config with its run directory in ``tmp_path``, which
    holds the workspace's stage-``stage`` checkpoint with ``edit`` applied
    to its meta and its records kept."""
    cfg = replace(ws.cfg, out_dir=str(tmp_path))
    arrays, meta = read_container(getattr(ws.cfg, f"stage{stage}_checkpoint"))
    edit(meta)
    write_container(getattr(cfg, f"stage{stage}_checkpoint"), arrays, meta)
    return cfg


@pytest.mark.parametrize("stage, field", [(stage, field) for stage, names in MODEL_SHAPING.items() for field in names])
def test_checkpoint_trained_under_another_value_names_the_field(ws, tmp_path, stage, field):
    value = ws.cfg.to_dict()[field]
    other = [v + 1 for v in value] if isinstance(value, list) else value * 2
    cfg = rewrite_checkpoint(ws, tmp_path, stage, lambda meta: meta["config"].update({field: other}))
    differs = f"was trained under other config values: {field} {other!r} (config {value!r})"
    with pytest.raises(ConfigError, match=re.escape(differs) + "$"):
        LOADERS[stage](cfg)


def test_checkpoint_without_config_names_every_field(ws, tmp_path):
    for stage, fields in MODEL_SHAPING.items():
        cfg = rewrite_checkpoint(ws, tmp_path / str(stage), stage, lambda meta: meta.pop("config"))
        missing = ", ".join(f"{key} missing (config {ws.cfg.to_dict()[key]!r})" for key in fields)
        with pytest.raises(ConfigError, match=re.escape(f"was trained under other config values: {missing}") + "$"):
            LOADERS[stage](cfg)


def test_gen_data_checks_band_edges_before_generating(tmp_path, capsys):
    argv = write_config(tmp_path / "config.json", tiny_config(str(tmp_path)), fs=0.0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["gen-data", *argv]) == 1
    err = capsys.readouterr().err
    assert err == "error: band edges must satisfy 0 < low < high < fs/2, got (5.0, 95.0) at fs=0.0\n", err
    assert not caught, [str(w.message) for w in caught]
    assert not (tmp_path / "data").exists()


def test_gen_data_deterministic_and_seed_sensitive(ws, tmp_path):
    base = ws.cfg.resolved_data_dir / "dataset.bin"
    assert main(["gen-data", *ws.argv, "--out", str(tmp_path / "b")]) == 0
    twin = tmp_path / "b" / "data" / "dataset.bin"
    assert twin.read_bytes() == base.read_bytes()
    assert main(["gen-data", *ws.argv, "--out", str(tmp_path / "c"), "--seed", "99"]) == 0
    assert (tmp_path / "c" / "data" / "dataset.bin").read_bytes() != base.read_bytes()


def test_gen_data_writes_configured_signal_fields(tmp_path):
    changes = {"fs": 300.0, "low": 8.0, "high": 60.0, "noise_std": 0.3, "target_rms": 1.5}
    argv = write_config(tmp_path / "config.json", tiny_config(str(tmp_path)), **changes)
    assert main(["gen-data", *argv]) == 0
    manifest = json.loads((tmp_path / "data" / "manifest.json").read_text())
    assert manifest["fs"] == 300.0 and manifest["band"] == [8.0, 60.0]
    assert manifest["noise_std"] == 0.3 and manifest["target_rms"] == 1.5


def test_gen_data_accepts_seed_needing_many_anchor_draws(tmp_path):
    # seed 3 at the default sizes draws 11 anchor sets before one fits
    assert main(["gen-data", "--out", str(tmp_path), "--seed", "3"]) == 0


def test_checkpoint_bytes_do_not_depend_on_run_dir(ws, tmp_path):
    # same run from another out dir, reading the workspace's dataset by path
    other = tmp_path / "elsewhere"
    argv = write_config(tmp_path / "config.json", ws.cfg, out_dir=str(other),
                        data_dir=str(ws.cfg.resolved_data_dir))
    assert main(["train-stage1", *argv]) == 0
    assert (other / "stage1" / "autoencoder.bin").read_bytes() == ws.cfg.stage1_checkpoint.read_bytes()


def test_grad_check_cli(tmp_path, capsys):
    assert main(["grad-check", "--out", str(tmp_path), "--seeds", "1"]) == 0
    out = capsys.readouterr().out
    assert "pass" in out and "FAIL" not in out
    lines = (tmp_path / "eval" / "grad_check.csv").read_text().strip().split("\n")
    assert lines[0] == "target,max_rel_error"
    assert len(lines) > 5


@pytest.mark.parametrize("seeds", ["0", "-2"])
def test_grad_check_without_seeds_exits_1(tmp_path, seeds, capsys):
    assert main(["grad-check", "--out", str(tmp_path), "--seeds", seeds]) == 1
    assert_one_error_line(capsys)
    assert not (tmp_path / "eval" / "grad_check.csv").exists()


# -- process heap ------------------------------------------------------------------

# Minor page faults of one guided sample at batch 64 and the default sizes,
# after `cli.steady_heap`; prints whether glibc took the thresholds, then the
# count.  About 3.5k with the thresholds set and 51k without.
FAULTS_OF_GUIDED_SAMPLE = """
import resource
import numpy as np
from eegdiff import cli
from eegdiff.diffusion import sample
from eegdiff.training import RunConfig, build_stage2_model

cfg = RunConfig()
model = build_stage2_model(cfg, np.random.default_rng(0))
cond = np.random.default_rng(1).normal(size=(64, cfg.latent_tokens, cfg.latent_dim))
print(cli.steady_heap())
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
sample(model, cond, 7.5, steps=10, seed=5)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def test_steady_heap_keeps_guided_sampling_from_faulting():
    src = str(Path(cli.__file__).resolve().parents[1])
    env = os.environ | {"PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
                        "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    child = subprocess.run([sys.executable, "-c", FAULTS_OF_GUIDED_SAMPLE], env=env,
                           capture_output=True, text=True, timeout=120)
    assert child.returncode == 0, child.stderr
    took, faults = child.stdout.split()
    if took != "True":
        pytest.skip("the C library has no mallopt")
    # each denoiser branch frees up to 8 MB: trimmed, they fault back in at the next
    assert int(faults) < 10_000


@pytest.mark.parametrize("library", ["unloadable", "without-mallopt"])
def test_steady_heap_without_mallopt_does_nothing(tmp_path, monkeypatch, library):
    def cdll(name):
        if library == "unloadable":
            raise OSError("no C library")
        return object()  # a C library without mallopt

    monkeypatch.setattr(ctypes, "CDLL", cdll)
    assert cli.steady_heap() is False
    argv = write_config(tmp_path / "config.json", tiny_config(str(tmp_path)))
    assert main(["gen-data", *argv]) == 0
    assert (tmp_path / "data" / "dataset.bin").exists()
