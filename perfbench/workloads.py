"""The three benchmark workloads of the desk pipeline.

Model and data sizes are the `RunConfig` defaults; a workload sets only
epoch counts, through ``--config``.  Set-up calls prepare the output dir and
are timed as ``setup_s``; the timed calls are repeated for the measured
seconds.  Each workload's headline rate is its ``items_per_s``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

GEN = ("gen-data",)
STAGE1 = ("train-stage1",)
STAGE2 = ("train-stage2",)
UNGUIDED = ("sample", "--scale", "0")
GUIDED = ("sample", "--scale", "7.5")
EVAL_GEN = ("eval-gen", "--scale", "7.5")
EVAL_RETRIEVAL = ("eval-retrieval",)


@dataclass(frozen=True)
class Rate:
    """``items / wall`` of one timed call, reported by ``name``."""

    name: str
    unit: str
    call: tuple[str, ...]
    items: str  # "stage1_windows", "stage2_examples" or "samples"


@dataclass(frozen=True)
class Workload:
    name: str
    epochs: dict
    setup: tuple[tuple[str, ...], ...]
    timed: tuple[tuple[str, ...], ...]  # one round, repeated for the measured seconds
    after: tuple[tuple[str, ...], ...]  # run once after the rounds
    rates: tuple[Rate, ...]  # the first one, of a timed call, is items_per_s
    checks: tuple[str, ...]  # keys of `checks.NAMED`


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="stage1_train",
            epochs={"epochs_stage1": 3},
            setup=(GEN,),
            timed=(STAGE1,),
            after=(),
            rates=(Rate("stage1_windows_per_s", "windows/s", STAGE1, "stage1_windows"),),
            checks=("stage1_metrics",),
        ),
        Workload(
            name="stage2_train",
            epochs={"epochs_stage1": 1, "epochs_stage2": 3},
            setup=(GEN, STAGE1),
            timed=(STAGE2,),
            after=(),
            rates=(Rate("stage2_examples_per_s", "examples/s", STAGE2, "stage2_examples"),),
            checks=("stage1_metrics", "stage2_metrics", "stage2_selective"),
        ),
        Workload(
            name="cfg_sweep",
            epochs={"epochs_stage1": 1, "epochs_stage2": 1},
            setup=(GEN, STAGE1, STAGE2),
            timed=(GUIDED,),
            after=(UNGUIDED, EVAL_GEN, EVAL_RETRIEVAL),
            rates=(
                Rate("guided_samples_per_s", "samples/s", GUIDED, "samples"),
                Rate("unguided_samples_per_s", "samples/s", UNGUIDED, "samples"),
            ),
            checks=("stage1_metrics", "stage2_metrics", "samples", "eval_csvs"),
        ),
    )
}


def item_counts(cfg, data_dir: Path) -> dict[str, int]:
    """Work units per timed call, from the config and the dataset manifest."""
    counts = json.loads((data_dir / "manifest.json").read_text())["counts"]
    train = counts["train"]
    # stage 1 skips a trailing batch of one window (batch norm needs two)
    stage1_per_epoch = train - (1 if train % cfg.batch_size == 1 else 0)
    return {
        "stage1_windows": stage1_per_epoch * cfg.epochs_stage1,
        "stage2_examples": train * cfg.epochs_stage2,
        "samples": min(cfg.num_samples, counts["val"] + counts["test"]),
    }
