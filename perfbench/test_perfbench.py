"""Self-test of the benchmark at the ``tests/conftest.py::tiny_config`` sizes.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

TINY = {
    "channels": 4, "samples": 16, "latent_tokens": 4, "latent_dim": 8, "temporal_dim": 16,
    "heads": 2, "depth": 1, "classes": 4, "per_class": 12, "subjects": 2, "fs": 250.0,
    "low": 5.0, "high": 95.0, "batch_size": 4, "schedule_steps": 10, "grid": [2, 4, 4],
    "widths": [4, 8], "attn_width": 4, "attn_heads": 2, "time_dim": 8, "sample_steps": 5,
    "num_samples": 4,
}
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "SIZES", TINY)
    monkeypatch.setattr(run, "WORK", tmp_path)
    return tmp_path


def bench(capsys, workload: str, trace: int) -> tuple[int, dict]:
    rc = run.main(["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace)])
    return rc, json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in BENCH["per_layer"]] == [(k, u) for k, (_, u) in run.layer_metrics().items()]
    assert [(m["name"], m["unit"]) for m in BENCH["end_to_end"]] == list(run.E2E)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(tiny, capsys, workload):
    rc, out = bench(capsys, workload, 0)
    assert rc == 0 and out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    assert {k: v["unit"] for k, v in out["metrics"].items()} == {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert all(v["value"] > 0 for v in out["metrics"].values())

    rc, out = bench(capsys, workload, 1)
    assert rc == 0 and out["correct"] and out["failed"] == 0
    assert {k: v["unit"] for k, v in out["metrics"].items()} == {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    result = json.loads((tiny / workload / "result.json").read_text())
    wall = out["metrics"]["trace.traced_wall_s"]["value"]
    spans = result["trace"]["spans"]
    assert all(0 <= row["self_s"] <= wall for row in spans.values())
    assert sum(row["self_s"] for row in spans.values()) <= wall
    assert out["metrics"][f"cli.{' '.join(WORKLOADS[workload].timed[0][:1])}.s"]["value"] > 0


def test_failed_check_exits_nonzero(tiny, capsys, monkeypatch):
    def broken(path):
        raise checks.CheckFailed(f"{path.name} deliberately rejected")

    monkeypatch.setattr(checks, "csv_finite", broken)
    rc, out = bench(capsys, "stage1_train", 0)
    assert rc != 0 and not out["correct"] and out["failed"] == 1
    assert set(out["metrics"]) == {m["name"] for m in BENCH["end_to_end"]}


def test_failed_cli_call_is_counted(tiny, capsys, monkeypatch):
    # sampling before stage 2 has trained fails with exit code 1
    wl = dataclasses.replace(WORKLOADS["stage1_train"], timed=(("train-stage1",), ("sample",)))
    monkeypatch.setitem(WORKLOADS, "stage1_train", wl)
    rc, out = bench(capsys, "stage1_train", 0)
    assert rc != 0 and not out["correct"] and out["failed"] >= 1 and out["attempted"] > out["failed"]


def test_selective_check_catches_a_moved_frozen_parameter(tiny, capsys):
    from eegdiff.signalio import load_checkpoint, save_checkpoint
    from eegdiff.training import RunConfig

    rc, _ = bench(capsys, "stage2_train", 0)
    assert rc == 0
    work = tiny / "stage2_train"
    cfg = RunConfig.from_json(work / "config.json")
    cfg.seed, cfg.out_dir = 3, str(work / "out")
    checks.stage2_selective(cfg)
    state, meta = load_checkpoint(cfg.stage2_checkpoint)
    state["unet.in.b"] = state["unet.in.b"] + 1e-12
    save_checkpoint(cfg.stage2_checkpoint, state, meta)
    with pytest.raises(checks.CheckFailed, match="unet.in.b"):
        checks.stage2_selective(cfg)


def test_span_check_catches_uncovered_wall(tiny, capsys, monkeypatch):
    # no root span can cover twice its call's wall time
    monkeypatch.setattr(run, "ROOT_COVERAGE", 2.0)
    rc, out = bench(capsys, "stage1_train", 1)
    assert rc != 0 and not out["correct"] and out["failed"] == 1
