import importlib.util
from pathlib import Path

import numpy as np

from eegdiff.signalio import write_container, write_csv

SPEC = importlib.util.spec_from_file_location(
    "output_diff", Path(__file__).resolve().parents[1] / "tools" / "output_diff.py"
)
output_diff = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(output_diff)


def make_run(root: Path, scale: float, label: str, extra: bool = False) -> Path:
    """A tiny run directory: a container, a CSV and a text file."""
    a = np.array([[1.0, -2.0], [0.0, 4.0]])
    write_container(root / "stage2" / "model.bin", {"a": a * scale, "same": np.arange(3.0)}, {"stage": 2})
    write_csv(root / "eval" / "sweep.csv", ["scale", "label", "value"], [[2.0, label, 0.5 * scale], [3.0, "x", 0.0]])
    (root / "notes.txt").write_text("same\n")
    if extra:
        (root / "extra.txt").write_text("new\n")
    return root


def test_identical_runs_print_nothing(tmp_path, capsys):
    base, change = make_run(tmp_path / "base", 1.0, "a"), make_run(tmp_path / "change", 1.0, "a")
    assert output_diff.main([str(base), str(change)]) == 0
    assert capsys.readouterr().out == ""


def test_each_differing_record_and_column_is_reported(tmp_path, capsys):
    base = make_run(tmp_path / "base", 1.0, "a")
    change = make_run(tmp_path / "change", 1.0 + 2.0**-40, "b", extra=True)
    assert output_diff.main([str(base), str(change)]) == 1
    lines = capsys.readouterr().out.splitlines()
    rel = 2.0**-40 / (1.0 + 2.0**-40)
    assert lines == [
        "eval/sweep.csv: column label: no numeric cells (1 of 2 cells differ, 1 not numbers)",
        f"eval/sweep.csv: column value: max abs {0.5 * 2.0**-40:.3g}, max rel {rel:.3g} (1 of 2 cells differ)",
        "extra.txt: only in change",
        f"stage2/model.bin: record a: max abs {4.0 * 2.0**-40:.3g}, max rel {rel:.3g}",
    ]


def test_record_layout_changes_are_named(tmp_path, capsys):
    base, change = tmp_path / "base", tmp_path / "change"
    write_container(base / "c.bin", {"a": np.zeros(2), "gone": np.ones(1)}, {"k": 1})
    write_container(change / "c.bin", {"a": np.zeros(3), "new": np.ones(1)}, {"k": 2})
    (base / "t.json").write_text("{}\n")
    (change / "t.json").write_text("[]\n")
    assert output_diff.main([str(base), str(change)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "c.bin: record a: shape (2,) vs (3,)",
        "c.bin: record gone: only in base",
        "c.bin: record new: only in change",
        "c.bin: meta differs",
        "t.json: bytes differ",
    ]


def test_usage_errors_exit_2(tmp_path, capsys):
    assert output_diff.main([str(tmp_path)]) == 2
    assert output_diff.main([str(tmp_path), str(tmp_path / "missing")]) == 2
    assert "is not a directory" in capsys.readouterr().err
