#!/usr/bin/env python3
"""Heap peak of each desk-pipeline command, each in a fresh process.

    python3 tools/heap_peaks.py SRC_DIR WORK_DIR

SRC_DIR holds the ``eegdiff`` package (a checkout's ``src/``); WORK_DIR is a
new or empty directory for the config and the run outputs.  The commands are
those of ``tools/output_digests.sh`` that build the run (its config: stage 1
for 1 epoch, stage 2 for 2, seed 5, one BLAS thread): ``gen-data``,
``train-stage1``, ``train-stage2`` and ``sample --scale 7.5``.  Each runs in
its own Python process, which imports ``eegdiff.cli``, starts ``tracemalloc``
and calls ``cli.main``; the line printed for the command is its tracemalloc
peak above the traced memory at the start, in MiB.  Lazy imports inside the
command count.  The exit code is 1 if a command fails, 2 on a usage error.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

COMMANDS = (["gen-data"], ["train-stage1"], ["train-stage2"], ["sample", "--scale", "7.5"])
CONFIG = {"epochs_stage1": 1, "epochs_stage2": 2}

# Run in the child: the command's own output goes to /dev/null, and the last
# stdout line is its peak in bytes above the start.
CHILD = """
import contextlib, os, sys, tracemalloc
from eegdiff import cli
tracemalloc.start()
start = tracemalloc.get_traced_memory()[0]
with open(os.devnull, "w") as null, contextlib.redirect_stdout(null):
    status = cli.main(sys.argv[1:])
peak = tracemalloc.get_traced_memory()[1]
print(peak - start)
sys.exit(status)
"""


def peak_bytes(src: Path, work: Path, command: list[str]) -> int:
    """The tracemalloc peak of one command, in bytes above its start."""
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    argv = [*command, "--config", str(work / "config.json"), "--seed", "5", "--out", str(work / "out")]
    proc = subprocess.run([sys.executable, "-c", CHILD, *argv], env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"'{' '.join(command)}' exited {proc.returncode}: {proc.stderr.strip()}")
    return int(proc.stdout.split()[-1])


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python3 tools/heap_peaks.py SRC_DIR WORK_DIR", file=sys.stderr)
        return 2
    src, work = Path(argv[0]).resolve(), Path(argv[1]).resolve()
    work.mkdir(parents=True, exist_ok=True)
    if any(work.iterdir()):
        print(f"{work} is not empty", file=sys.stderr)
        return 2
    (work / "config.json").write_text(json.dumps(CONFIG) + "\n")
    print(f"{'command':<22}peak_mib")
    for command in COMMANDS:
        try:
            peak = peak_bytes(src, work, command)
        except RuntimeError as exc:
            print(exc, file=sys.stderr)
            return 1
        print(f"{' '.join(command):<22}{peak / 2**20:.2f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
