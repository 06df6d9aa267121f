"""Repeat `run.py` over seeds and summarise the spread of every metric.

    python3 perfbench/baseline.py [--out FILE]

For each workload of ``BENCHMARK.json``: untraced runs of ``run_seconds``
with seeds ``SEEDS``, then one traced run with the first seed.  Prints, and
with ``--out`` writes as JSON, the median and quartiles of
each end-to-end metric and of each rate the workload reports, the spread
(q3 - q1) / median against the metric's bound from ``BENCHMARK.json``, and
the traced per-layer table with the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import rates  # noqa: E402

SEEDS = range(1, 11)


def one_run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    result = json.loads((ROOT / ".perfbench_work" / workload / "result.json").read_text())
    return summary, result


def quartiles(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = {"run_seconds": seconds, "seeds": list(SEEDS), "workloads": {}}
    for workload in [w["name"] for w in bench["workloads"]]:
        metrics: dict[str, list[float]] = {}
        digests = []
        for seed in SEEDS:
            summary, result = one_run(workload, seed, seconds, 0)
            for name, m in summary["metrics"].items():
                metrics.setdefault(name, []).append(m["value"])
            for name, (value, _) in rates(result).items():
                metrics.setdefault(name, []).append(value)
            digests.append({"seed": result["args"]["seed"], "program_seed": result["program_seed"],
                            "attempted": summary["attempted"],
                            "outputs": result["digest"], "rounds": len(result["rounds"]), "run_s": result["run_s"]})
            report["env"] = result["env"]
        entry = {"metrics": {k: quartiles(v) for k, v in metrics.items()}, "digests": digests}
        print(f"== {workload}")
        for name, q in entry["metrics"].items():
            bound = bounds.get(name)
            flag = "" if bound is None else f" bound {bound:g} {'ok' if q['spread'] < bound / 3 else 'WIDE'}"
            print(f"  {name:26s} median {q['median']:12.4f}  q1 {q['q1']:12.4f}  q3 {q['q3']:12.4f}"
                  f"  spread {q['spread']:.4f}{flag}")
        summary, result = one_run(workload, SEEDS[0], seconds, 1)
        entry["trace"] = {
            "seed": SEEDS[0],
            "metrics": {k: m["value"] for k, m in summary["metrics"].items()},
            "spans": result["trace"]["spans"],
        }
        m = entry["trace"]["metrics"]
        print(f"  trace overhead {m['trace.overhead']:.3f} "
              f"(traced {m['trace.traced_wall_s']:.3f} s / untraced {m['trace.untraced_wall_s']:.3f} s)")
        report["workloads"][workload] = entry
    if args.out:
        args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
