#!/usr/bin/env python3
"""How far apart two run directories' outputs are, record by record.

    python3 tools/output_diff.py BASE_OUT CHANGE_OUT

Each directory is the ``--out`` of a run, such as the ``out/`` that
``tools/output_digests.sh`` leaves in its work directory.  For every file
whose bytes differ it prints one line per differing part:

* a ``.bin`` container (read with ``signalio.read_container``): each record
  that differs, with its max absolute and max relative difference, and
  whether the meta differs;
* a ``.csv`` file: each column whose cells differ, with the max absolute and
  max relative difference over its numeric cells and the count of differing
  cells;
* any other file, or one that cannot be read: that it differs.

The relative difference of two values is ``|a - b| / max(|a|, |b|)``.
Files present on one side only are named.  The exit code is 0 when every
file is byte-identical, 1 when any differs and 2 on a usage error.  Needs
numpy and this checkout's ``src/``.
"""

from __future__ import annotations

import csv
import math
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
from eegdiff.signalio import ContainerError, read_container  # noqa: E402


def _gaps(a: np.ndarray, b: np.ndarray) -> str:
    """Max absolute and max relative difference of two same-shape arrays."""
    diff = np.abs(a - b)
    scale = np.maximum(np.abs(a), np.abs(b))
    rel = np.divide(diff, scale, out=np.zeros_like(diff), where=scale > 0)
    return f"max abs {diff.max(initial=0.0):.3g}, max rel {rel.max(initial=0.0):.3g}"


def container_lines(base: Path, change: Path) -> list[str]:
    """One line per record (and for the meta) that differs."""
    (old, old_meta), (new, new_meta) = read_container(base), read_container(change)
    lines = []
    for name in sorted(set(old) | set(new)):
        if name not in new or name not in old:
            lines.append(f"record {name}: only in {'base' if name in old else 'change'}")
        elif old[name].shape != new[name].shape:
            lines.append(f"record {name}: shape {old[name].shape} vs {new[name].shape}")
        elif not np.array_equal(old[name], new[name]):
            lines.append(f"record {name}: {_gaps(old[name], new[name])}")
    if old_meta != new_meta:
        lines.append("meta differs")
    return lines


def _number(cell: str) -> float | None:
    try:
        value = float(cell)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def csv_lines(base: Path, change: Path) -> list[str]:
    """One line per column whose cells differ."""
    with open(base, newline="") as fh:
        old = list(csv.reader(fh))
    with open(change, newline="") as fh:
        new = list(csv.reader(fh))
    if not old or not new or old[0] != new[0] or [len(r) for r in old] != [len(r) for r in new]:
        return ["header or layout differs"]
    lines = []
    for col, name in enumerate(old[0]):
        pairs = [(o[col], n[col]) for o, n in zip(old[1:], new[1:]) if o[col] != n[col]]
        if not pairs:
            continue
        numbers = [(_number(o), _number(n)) for o, n in pairs]
        numeric = np.array([p for p in numbers if None not in p]).reshape(-1, 2)
        text = len(pairs) - len(numeric)
        gaps = _gaps(numeric[:, 0], numeric[:, 1]) if len(numeric) else "no numeric cells"
        lines.append(f"column {name}: {gaps} ({len(pairs)} of {len(old) - 1} cells differ"
                     + (f", {text} not numbers)" if text else ")"))
    return lines


def file_lines(base: Path, change: Path) -> list[str]:
    """What differs between two files whose bytes differ."""
    try:
        if base.suffix == ".bin":
            return container_lines(base, change)
        if base.suffix == ".csv":
            return csv_lines(base, change)
    except (ContainerError, OSError, UnicodeDecodeError, csv.Error) as exc:
        return [f"unreadable: {exc}"]
    return ["bytes differ"]


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1].strip(), file=sys.stderr)
        return 2
    roots = [Path(a) for a in argv]
    for root in roots:
        if not root.is_dir():
            print(f"{root} is not a directory", file=sys.stderr)
            return 2
    files = [{p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file()} for root in roots]
    differ = False
    for rel in sorted(files[0] | files[1]):
        if rel not in files[1] or rel not in files[0]:
            differ = True
            print(f"{rel}: only in {'base' if rel in files[0] else 'change'}")
            continue
        base, change = roots[0] / rel, roots[1] / rel
        if base.read_bytes() == change.read_bytes():
            continue
        differ = True
        for line in file_lines(base, change) or ["bytes differ"]:
            print(f"{rel}: {line}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
