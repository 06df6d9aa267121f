"""Run one eegdiff CLI call in this process and write a JSON report.

    python3 perfbench/worker.py REPORT.json [--trace] -- <eegdiff CLI args>

The call goes through the public entry point ``eegdiff.cli.main``.  The
report holds the exit code (``null`` when an exception escaped ``main``), the
wall time of ``main``, the peak RSS of this process, the garbage collector's
counts from ``gc.callbacks`` and, with ``--trace``, the span summary, the
gradient-waste count of a trained model, and the path of the span dump.
"""

from __future__ import annotations

import gc
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))


class GcCounter:
    """Collections, objects collected and pause time, via ``gc.callbacks``."""

    def __init__(self):
        self.collected = 0
        self.full_collections = 0
        self.pause_s = 0.0
        self._start = 0.0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._start = time.perf_counter()
            return
        self.pause_s += time.perf_counter() - self._start
        self.collected += info["collected"]
        if info["generation"] == 2:
            self.full_collections += 1

    def report(self) -> dict:
        return {"collected": self.collected, "full_collections": self.full_collections, "pause_s": self.pause_s}


def grad_elements(model) -> dict:
    """Parameter-gradient elements computed in the last backward pass, and
    the share of them that landed on trainable parameters (public
    attributes only)."""
    useful = total = 0
    for p in model.params().values():
        if p.grad is not None:
            total += p.grad.size
            if p.requires_grad:
                useful += p.grad.size
    return {"useful": useful, "total": total}


def keep_result(fn, results: list):
    def kept(*args, **kwargs):
        results.append(fn(*args, **kwargs))
        return results[-1]

    return kept


def main(argv: list[str]) -> int:
    report_path = Path(argv[0])
    trace = "--trace" in argv[1 : argv.index("--")]
    cli_args = argv[argv.index("--") + 1 :]

    from eegdiff import cli

    tracer = None
    trained = []
    if trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        # The trained model is only returned to the command function; keep
        # a reference to read its gradients afterwards.
        for attr in ("train_stage1", "train_stage2"):
            setattr(cli, attr, keep_result(getattr(cli, attr), trained))

    counter = GcCounter()
    gc.callbacks.append(counter)
    error = None
    start = time.perf_counter()
    try:
        rc = cli.main(cli_args)
    except Exception as exc:  # a NonFiniteError or a bug the CLI did not map to an exit code
        rc, error = None, f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - start
    maxrss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    gc.callbacks.remove(counter)

    report = {"rc": rc, "error": error, "wall_s": wall, "maxrss_mb": maxrss_mb, "gc": counter.report()}
    if tracer is not None:
        tracer.uninstall()
        report["trace"] = tracer.summary()
        report["grad"] = grad_elements(trained[-1]["model"]) if trained else {"useful": 0, "total": 0}
        spans_path = report_path.with_suffix(".spans.json")
        spans_path.write_text(json.dumps(tracer.dump()))
        report["spans_file"] = str(spans_path)
    report_path.write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
