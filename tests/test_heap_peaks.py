import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPEC = importlib.util.spec_from_file_location("heap_peaks", ROOT / "tools" / "heap_peaks.py")
heap_peaks = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(heap_peaks)


def test_prints_one_peak_per_command(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(heap_peaks, "COMMANDS", (["gen-data"],))
    assert heap_peaks.main([str(ROOT / "src"), str(tmp_path / "work")]) == 0
    header, row = capsys.readouterr().out.splitlines()
    assert header.split() == ["command", "peak_mib"]
    name, peak = row.split()
    assert name == "gen-data" and float(peak) > 0.0
    assert (tmp_path / "work" / "out" / "data" / "dataset.bin").exists()


def test_a_failing_command_exits_1(tmp_path, monkeypatch, capsys):
    # no dataset yet
    monkeypatch.setattr(heap_peaks, "COMMANDS", (["train-stage1"],))
    assert heap_peaks.main([str(ROOT / "src"), str(tmp_path)]) == 1
    assert "'train-stage1' exited 1" in capsys.readouterr().err


def test_usage_errors_exit_2(tmp_path):
    assert heap_peaks.main([str(ROOT / "src")]) == 2
    (tmp_path / "old").write_text("")
    assert heap_peaks.main([str(ROOT / "src"), str(tmp_path)]) == 2
