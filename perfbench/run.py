"""Desk-run benchmark of the eegdiff CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Every eegdiff CLI call runs in a fresh child
process (`worker.py`) with BLAS pinned to one thread.  A run:

1. sets the workload up at least ``SETUP_REPEATS`` times and for at least
   ``SETUP_SECONDS``, each time from an empty output dir, and reports as
   ``setup_s`` the median over set-ups of the summed ``cli.main`` wall times
   of the set-up calls (interpreter start-up left out, as for every call);
2. repeats the workload's timed calls (a round) at least once and while
   another round of the mean length so far fits in ``--seconds``, and
   reports medians over the rounds (a failed call counts as rate 0, never
   dropped); then runs the workload's after-calls once;
3. checks the outputs: exit codes, finite metrics and samples, the stage-2
   selective finetune, and bit-identical digests across set-ups and rounds;
4. with ``--trace 1``, sets up and runs one more round with every layer
   wrapped (`tracing.py`), requires the same digests, and reports the
   per-layer table instead of the end-to-end metrics.

Human-readable lines come first; the last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is 1 when any call or check failed.  Everything a run writes goes under
``.perfbench_work/<workload>/``, including ``result.json`` with the raw
values, the environment and the span table.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORK = ROOT / ".perfbench_work"

PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# Set-up runs at least this often and for at least this long; a cheap
# set-up repeats more, so its median is steadier.
SETUP_REPEATS = 3
SETUP_SECONDS = 3.0
CALL_TIMEOUT_S = 170
SEED_STRIDE = 100_003
# Share of a traced call's `cli.main` wall time its root span must cover.
ROOT_COVERAGE = 0.5
# RunConfig fields besides the epochs; empty means the desk defaults.
SIZES: dict = {}

E2E = (("setup_s", "s"), ("peak_rss_mb", "MB"), ("items_per_s", "1/s"))

# Span names whose call count is reported as well as their time.
COUNTED = (
    "nn.Linear", "nn.LayerNorm", "nn.BatchNorm", "losses.sdsc_loss",
    "diffusion.Conv3x3", "diffusion.CrossAttention", "diffusion.ConditionAdapter", "diffusion.Denoiser",
)


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas.get('version', '?')}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_1m": os.getloadavg()[0],
        "blas_threads": PINNED["OPENBLAS_NUM_THREADS"],
    }


class Run:
    """One benchmark run: child calls and checks, with failure accounting."""

    def __init__(self, workload, seed: int, work: Path):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.out = work / "out"
        self.config = work / "config.json"
        self.attempted = 0
        self.failures: list[str] = []
        self.n_calls = 0
        self.env = dict(os.environ, **PINNED)

    def fail(self, what: str) -> None:
        self.failures.append(what)
        print(f"FAIL {what}", file=sys.stderr)

    def call(self, args: tuple[str, ...], trace: bool = False) -> dict:
        """Run one CLI call in a child; returns its report (``ok`` set)."""
        self.attempted += 1
        self.n_calls += 1
        report_path = self.work / f"call{self.n_calls:04d}.json"
        cmd = [sys.executable, str(WORKER), str(report_path)] + (["--trace"] if trace else [])
        cmd += ["--", *args, "--config", str(self.config), "--seed", str(self.seed), "--out", str(self.out)]
        label = " ".join(args) + (" [traced]" if trace else "")
        try:
            proc = subprocess.run(cmd, env=self.env, capture_output=True, text=True, timeout=CALL_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.fail(f"{label}: no exit within {CALL_TIMEOUT_S} s")
            return {"ok": False}
        report = json.loads(report_path.read_text()) if report_path.exists() else {}
        report["ok"] = proc.returncode == 0 and report.get("rc") == 0
        if not report["ok"]:
            detail = report.get("error") or proc.stderr.strip().splitlines()[-1:] or ["no report"]
            self.fail(f"{label}: exit {report.get('rc', proc.returncode)}: {detail}")
        return report

    def calls(self, calls: tuple, trace: bool = False) -> list[dict] | None:
        """Run calls in order; ``None`` once one fails (later ones would
        only fail for want of its outputs)."""
        reports = []
        for args in calls:
            reports.append(self.call(args, trace))
            if not reports[-1]["ok"]:
                return None
        return reports

    def check(self, name: str, fn) -> bool:
        self.attempted += 1
        try:
            fn()
        except Exception as exc:  # any error while checking an output is a failed check
            self.fail(f"check {name}: {type(exc).__name__}: {exc}")
            return False
        return True


def _same(values: list, what: str):
    def check():
        if None in values or len(set(values)) != 1:
            raise AssertionError(f"{what} differ: {sorted(set(map(str, values)))}")

    return check


def sum_reports(reports: list[dict], key: str) -> float:
    return sum(r.get(key, 0.0) for r in reports)


def merge_traces(reports: list[dict]) -> dict:
    spans: dict[str, dict] = {}
    out_bytes: dict[str, int] = {}
    file_bytes: dict[str, int] = {}
    for r in reports:
        t = r.get("trace", {})
        for name, row in t.get("spans", {}).items():
            acc = spans.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0})
            for k in acc:
                acc[k] += row[k]
        for src, dst in ((t.get("out_bytes", {}), out_bytes), (t.get("file_bytes", {}), file_bytes)):
            for k, v in src.items():
                dst[k] = dst.get(k, 0) + v
    return {"spans": spans, "out_bytes": out_bytes, "file_bytes": file_bytes}


EMPTY_TRACE = {"spans": {}, "out_bytes": {}, "file_bytes": {}}
NO_GC = {"collected": 0, "full_collections": 0, "pause_s": 0.0}


def layer_metrics(
    trace: dict = EMPTY_TRACE,
    gc_stats: dict = NO_GC,
    grad: dict | None = None,
    traced_wall: float = 0.0,
    untraced_wall: float = 0.0,
) -> dict[str, tuple[float, str]]:
    """Every per-layer metric as ``name: (value, unit)``, in report order.
    Called with no arguments it gives the names and units with zeros."""
    from tracing import FILE_SPANS, FUNCTIONS, METHODS, OPS, OTHER_OPS, OUT_MB_OPS

    spans = trace["spans"]

    def total(names, key: str = "s"):
        return sum(spans.get(n, {}).get(key, 0) for n in names)

    m: dict[str, tuple[float, str]] = {}
    for op in OPS + ("other",):
        ops = OTHER_OPS if op == "other" else (op,)
        m[f"autodiff.{op}.fwd_s"] = (total(f"autodiff.{o}" for o in ops), "s")
        m[f"autodiff.{op}.bwd_s"] = (total(f"autodiff.{o}.bwd" for o in ops), "s")
        m[f"autodiff.{op}.calls"] = (total((f"autodiff.{o}" for o in ops), "calls"), "count")
    for op in OUT_MB_OPS:
        m[f"autodiff.{op}.out_mb"] = (trace["out_bytes"].get(op, 0) / 1e6, "MB")
    m["autodiff.backward_s"] = (total(["autodiff.backward"]), "s")
    m["autodiff.backward_self_s"] = (total(["autodiff.backward"], "self_s"), "s")
    # Share of computed parameter-gradient elements that reach trainable
    # parameters after the workload's last training call; 1 if none ran.
    useful = grad["useful"] / grad["total"] if grad and grad["total"] else 1.0
    m["autodiff.useful_grad_fraction"] = (useful, "ratio")
    m["autodiff.gc_collected"] = (gc_stats["collected"], "count")
    m["autodiff.gc_full_collections"] = (gc_stats["full_collections"], "count")
    m["autodiff.gc_pause_s"] = (gc_stats["pause_s"], "s")
    for name in [n for n, *_ in METHODS if n != "autodiff.backward"] + [n for n, _ in FUNCTIONS]:
        m[f"{name}.s"] = (total([name]), "s")
        if name in COUNTED:
            m[f"{name}.calls"] = (total([name], "calls"), "count")
        if name in FILE_SPANS:
            m[f"{name}.mb"] = (trace["file_bytes"].get(name, 0) / 1e6, "MB")
    m["trace.traced_wall_s"] = (traced_wall, "s")
    m["trace.untraced_wall_s"] = (untraced_wall, "s")
    m["trace.overhead"] = (traced_wall / untraced_wall if untraced_wall else 0.0, "ratio")
    return m


def program_seed(run: Run, probe_dir: Path) -> tuple[int, list[str]]:
    """The eegdiff seed for the run's benchmark seed, and the seeds skipped.

    ``gen-data`` rejects a few seeds (about 1 in 20 at the default sizes): its
    anchor draw gives up after 8 tries.  Such a seed is replaced, the same
    way every time, by the next of ``seed + k * SEED_STRIDE`` that it accepts.
    Every probe counts in ``attempted`` (a rejected one not in ``failed``),
    so a swap shows in the summary line as well as in ``result.json``.
    """
    from eegdiff.cli import main as cli_main

    skipped = []
    for k in range(10):
        candidate = run.seed + k * SEED_STRIDE
        run.attempted += 1
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = cli_main(["gen-data", "--config", str(run.config), "--seed", str(candidate), "--out", str(probe_dir)])
        shutil.rmtree(probe_dir, ignore_errors=True)
        if rc == 0:
            return candidate, skipped
        skipped.append(f"{candidate} ({err.getvalue().strip()})")
    raise RuntimeError(f"gen-data rejected every seed tried: {skipped}")


def run_workload(run: Run, seconds: float, trace: bool) -> dict:
    """Set up, measure, check and (optionally) trace; returns the result."""
    import checks
    from eegdiff.training import RunConfig
    from workloads import item_counts

    wl, out = run.workload, run.out
    run.config.write_text(json.dumps(SIZES | wl.epochs))
    run.seed, rejected = program_seed(run, run.work / "seed_check")
    print(f"program seed {run.seed}" + "".join(f"; skipped {r}" for r in rejected))
    cfg = RunConfig.from_json(run.config)
    cfg.seed, cfg.out_dir = run.seed, str(out)

    result = {
        "program_seed": run.seed, "rejected_seeds": rejected,
        "setup_s": [], "setup_digests": [], "rounds": [], "after": None, "digest": None,
    }
    setups = []
    begin = time.perf_counter()
    while len(setups) < SETUP_REPEATS or time.perf_counter() - begin < SETUP_SECONDS:
        shutil.rmtree(out, ignore_errors=True)
        reports = run.calls(wl.setup)
        if reports is None:
            return result
        result["setup_s"].append(sum_reports(reports, "wall_s"))
        setups.append(reports)
        result["setup_digests"].append(checks.tree_digest(out))
    run.check("setup_deterministic", _same(result["setup_digests"], "set-up digests"))
    items = item_counts(cfg, out / "data")

    start = time.perf_counter()
    while True:
        reports = run.calls(wl.timed)
        result["rounds"].append(measure(wl.timed, reports or [], items, wl.rates))
        result["rounds"][-1]["digest"] = checks.tree_digest(out) if reports else None
        elapsed = time.perf_counter() - start
        if elapsed * (len(result["rounds"]) + 1) / len(result["rounds"]) > seconds:
            break  # another round of the mean length so far would overrun
    run.check("rounds_deterministic", _same([r["digest"] for r in result["rounds"]], "round digests"))
    reports = run.calls(wl.after)
    result["after"] = measure(wl.after, reports or [], items, wl.rates)
    if reports is None:
        return result
    result["digest"] = checks.tree_digest(out)

    for name in wl.checks:
        run.check(name, lambda: checks.NAMED[name](cfg, items))

    if trace:
        result["trace"] = trace_pass(run, setups, result)
    return result


def measure(calls: tuple, reports: list[dict], items: dict, rates) -> dict:
    """Wall times, peak RSS, gc counts and rates of one sequence of calls.
    A call that failed or never ran gives rate 0."""
    by_call = dict(zip(calls, reports))
    return {
        "wall_s": sum_reports(reports, "wall_s"),
        "peak_rss_mb": max((r.get("maxrss_mb", 0.0) for r in reports), default=0.0),
        "calls": {" ".join(a): r.get("wall_s") for a, r in by_call.items()},
        "rates": {
            rate.name: items[rate.items] / by_call[rate.call]["wall_s"] if by_call.get(rate.call, {}).get("ok") else 0.0
            for rate in rates
            if rate.call in calls
        },
        "gc": [r["gc"] for r in reports if "gc" in r],
    }


def trace_pass(run: Run, setups: list, result: dict) -> dict | None:
    """One traced set-up, round and after-calls; each must leave the same
    digest as the untraced pass."""
    import checks

    wl, out = run.workload, run.out
    shutil.rmtree(out, ignore_errors=True)
    reports = []
    for calls, want, what in (
        (wl.setup, result["setup_digests"][0], "set-up"),
        (wl.timed, result["rounds"][0]["digest"], "round"),
        (wl.after, result["digest"], "final"),
    ):
        traced = run.calls(calls, trace=True)
        if traced is None:
            return None
        reports += traced
        run.check(f"trace_{what}_digest", _same([checks.tree_digest(out), want], f"traced and untraced {what} digests"))

    def spans_consistent():
        # A negative self time means a child span outlasts its parent (a
        # parenting or clock fault); roots other than the `cli` commands, or
        # roots that leave much of `cli.main` uncovered, mean a span was lost.
        for r, args in zip(reports, wl.setup + wl.timed + wl.after):
            t = r["trace"]
            if t["min_self_s"] < -1e-6:
                raise AssertionError(f"{args[0]}: a span has self time {t['min_self_s']:.2e} s")
            if t["root_names"] != [f"cli.{args[0]}"]:
                raise AssertionError(f"{args[0]}: root spans {t['root_names']}")
            if t["root_s"] < ROOT_COVERAGE * r["wall_s"]:
                raise AssertionError(f"{args[0]}: root spans cover {t['root_s']:.4f} of {r['wall_s']:.4f} s")

    run.check("trace_spans_consistent", spans_consistent)

    untraced = (
        statistics.median(result["setup_s"])
        + statistics.median(r["wall_s"] for r in result["rounds"])
        + result["after"]["wall_s"]
    )
    # gc counts repeat exactly between untraced runs, so the first set-up
    # and round stand for all; the traced pass allocates spans and would not.
    gcs = [r["gc"] for r in setups[0]] + result["rounds"][0]["gc"] + result["after"]["gc"]
    gc_stats = {k: sum(g[k] for g in gcs) for k in ("collected", "full_collections", "pause_s")}
    trained = [r["grad"] for r in reports if r["grad"]["total"]]
    grad = trained[-1] if trained else {"useful": 0, "total": 0}
    merged = merge_traces(reports)
    return {
        "metrics": layer_metrics(merged, gc_stats, grad, sum_reports(reports, "wall_s"), untraced),
        "spans": merged["spans"],
        "span_files": [r["spans_file"] for r in reports],
    }


def rates(result: dict) -> dict[str, tuple[float, int]]:
    """Each rate's median over the rounds, or its after-call value, and the
    number of calls behind it."""
    values: dict[str, list[float]] = {}
    for part in result["rounds"] + [result["after"] or {"rates": {}}]:
        for name, value in part["rates"].items():
            values.setdefault(name, []).append(value)
    return {name: (statistics.median(v), len(v)) for name, v in values.items()}


def e2e_metrics(result: dict, wl) -> dict:
    rounds = result["rounds"]
    after = result["after"] or {"peak_rss_mb": 0.0}
    return {
        "setup_s": statistics.median(result["setup_s"]),
        "peak_rss_mb": max(statistics.median(r["peak_rss_mb"] for r in rounds), after["peak_rss_mb"]) if rounds else 0.0,
        "items_per_s": rates(result)[wl.rates[0].name][0] if rounds else 0.0,
    }


def print_table(wl, result: dict, trace: bool) -> None:
    print(f"setup_s {statistics.median(result['setup_s']):.4f} s  (median of {len(result['setup_s'])} set-ups)")
    units = {rate.name: rate.unit for rate in wl.rates}
    for name, (value, n) in rates(result).items():
        print(f"{name} {value:.4f} {units[name]}  (median of {n} calls)")
    if result["rounds"]:
        print(f"peak_rss_mb {e2e_metrics(result, wl)['peak_rss_mb']:.1f} MB")
        walls: dict[str, list[float]] = {}
        for part in result["rounds"] + [result["after"] or {"calls": {}}]:
            for call, wall in part["calls"].items():
                walls.setdefault(call, []).append(wall or 0.0)
        for call, values in walls.items():
            print(f"call_s[{call}] {statistics.median(values):.4f} s  (median of {len(values)})")
    print(f"digest.setup {(result['setup_digests'] or ['-'])[0]}")
    print(f"digest.outputs {result.get('digest')}")
    if trace and result.get("trace"):
        print(f"{'span':40s} {'total_s':>10s} {'self_s':>10s} {'calls':>8s}")
        for name, row in sorted(result["trace"]["spans"].items(), key=lambda kv: -kv[1]["self_s"]):
            print(f"{name:40s} {row['s']:10.4f} {row['self_s']:10.4f} {row['calls']:8d}")
        m = result["trace"]["metrics"]
        print(
            f"trace overhead {m['trace.overhead'][0]:.3f}x: traced {m['trace.traced_wall_s'][0]:.3f} s"
            f" vs untraced {m['trace.untraced_wall_s'][0]:.3f} s"
        )


def parse_args(argv):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "eegdiff" / "cli.py").is_file():
        print(f"error: no eegdiff sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.environ.update(PINNED)  # before numpy loads BLAS in this process
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    work = WORK / wl.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = environment()
    print(f"perfbench workload={wl.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))

    run = Run(wl, args.seed, work)
    start = time.perf_counter()
    result = run_workload(run, args.seconds, bool(args.trace))
    result["run_s"] = time.perf_counter() - start
    print_table(wl, result, bool(args.trace))

    if args.trace:
        metrics = result["trace"]["metrics"] if result.get("trace") else layer_metrics()
    else:
        units = dict(E2E)
        values = e2e_metrics(result, wl) if result["setup_s"] else dict.fromkeys(units, 0.0)
        metrics = {name: (values[name], unit) for name, unit in units.items()}
    summary = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    result |= {"env": env, "args": vars(args), "failures": run.failures, "summary": summary}
    (work / "result.json").write_text(json.dumps(result, indent=1))
    print(json.dumps(summary))
    return 0 if not run.failures else 1


if __name__ == "__main__":
    sys.exit(main())
