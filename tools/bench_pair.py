#!/usr/bin/env python3
"""Paired benchmark of two source trees: parent against change.

    python3 tools/bench_pair.py PARENT_DIR CHANGE_DIR [--pairs 10] [--seed 1]
        [--seconds 30] [--out BENCH.json]

Each directory is a checkout holding ``perfbench/run.py`` and ``src/``.  Pair
``i`` runs ``perfbench/run.py --trace 0`` with seed ``seed + i`` on every
workload, once per side; even pairs run the parent first and odd pairs the
change, so a drift in host speed does not favour one side.  Each run's last
stdout line is the benchmark's JSON summary, and its ``digest.outputs`` line
the sha256 of everything the run wrote.

The JSON written to ``--out`` (default stdout) holds, per workload and
end-to-end metric of the change's ``BENCHMARK.json``, each side's per-run
values, median and quartiles, the number of pairs in which the change is
better, and paired statistics over the pairs where both sides reported: the
median change/parent ratio, a distribution-free interval of at least 95 %
for it, and the exact two-sided sign-test p-value of the wins (ties count
for neither side); per workload, whether both sides wrote the same outputs
in every pair.  The exit code is 1 if any run reports ``failed > 0`` or exits
non-zero, else 0.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py --trace 0`` run in ``root``: its summary, exit
    code and output digest."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", f"{seconds:g}", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    digests = [line.split()[1] for line in lines if line.startswith("digest.outputs ")]
    try:
        summary = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        summary = {"failed": None, "metrics": {}}
    return {"returncode": proc.returncode, "summary": summary, "digest": digests[-1] if digests else None}


def spread(values: list[float]) -> dict:
    if len(values) < 2:
        q1 = q3 = values[0] if values else None
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"runs": values, "median": statistics.median(values) if values else None, "q1": q1, "q3": q3}


def median_interval(values: list[float]) -> list[float] | None:
    """``[v(j), v(n-j+1)]`` of the sorted values for the largest ``j`` with
    ``2 P(Bin(n, 1/2) <= j-1) <= 0.05``: an order-statistic interval that
    covers the median with at least 95 % probability (the sign-test
    interval).  None when no ``j`` qualifies, which is when ``n < 6``."""
    n, ordered = len(values), sorted(values)
    j = 0
    # 2 P(Bin(n, 1/2) <= j) <= 1/20, in integers
    while j < n and 40 * sum(math.comb(n, i) for i in range(j + 1)) <= 2**n:
        j += 1
    return [ordered[j - 1], ordered[n - j]] if j else None


def sign_test_p(wins: int, losses: int) -> float:
    """Exact two-sided sign-test p-value of ``wins`` against ``losses``."""
    n = wins + losses
    return min(1.0, 2 * sum(math.comb(n, i) for i in range(min(wins, losses) + 1)) / 2**n)


def report(runs: dict, metrics: list[dict]) -> dict:
    """Per workload and metric, both sides' spreads, the change's wins and
    the paired statistics of the change/parent ratios."""
    out = {}
    for workload, pairs in runs.items():
        table = {}
        for metric in metrics:
            name, sign = metric["name"], 1.0 if metric["better"] == "higher" else -1.0
            values = {side: [pair[side]["summary"]["metrics"].get(name, {}).get("value") for pair in pairs]
                      for side in SIDES}
            complete = [(p, c) for p, c in zip(values["parent"], values["change"]) if None not in (p, c)]
            wins = sum(sign * (c - p) > 0 for p, c in complete)
            ratios = [c / p for p, c in complete if p]
            table[name] = {
                "unit": metric["unit"],
                "better": metric["better"],
                **{side: spread([v for v in values[side] if v is not None]) for side in SIDES},
                "change_wins": wins,
                "pairs": len(complete),
                "ratio_median": statistics.median(ratios) if ratios else None,
                "ratio_interval": median_interval(ratios),
                "sign_test_p": sign_test_p(wins, sum(sign * (c - p) < 0 for p, c in complete)),
            }
        digests = [(pair["parent"]["digest"], pair["change"]["digest"]) for pair in pairs]
        table["digests_equal"] = all(p is not None and p == c for p, c in digests)
        out[workload] = table
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="parent checkout")
    parser.add_argument("change", type=Path, help="change checkout")
    parser.add_argument("--pairs", type=int, default=10, help="alternating pairs per workload")
    parser.add_argument("--seed", type=int, default=1, help="seed of pair 0; pair i uses seed + i")
    parser.add_argument("--seconds", type=float, default=30.0, help="--seconds of each run")
    parser.add_argument("--out", type=Path, default=None, help="JSON report path (default stdout)")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")

    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    declared = json.loads((roots["change"] / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in declared["workloads"]]

    runs: dict[str, list[dict]] = {w: [] for w in workloads}
    failed = []
    for i in range(args.pairs):
        seed = args.seed + i
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        for workload in workloads:
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                result = run_once(roots[side], workload, seed, args.seconds)
                pair[side] = result
                if result["returncode"] != 0 or result["summary"].get("failed") != 0:
                    failed.append({"workload": workload, "seed": seed, "side": side,
                                   "returncode": result["returncode"], "failed": result["summary"].get("failed")})
                value = {m: v["value"] for m, v in result["summary"]["metrics"].items()}
                print(f"pair {i} seed {seed} {workload} {side}: {value}", file=sys.stderr, flush=True)
            runs[workload].append(pair)

    bench = {
        "parent": roots["parent"].name,
        "change": roots["change"].name,
        "pairs": args.pairs,
        "seeds": [args.seed + i for i in range(args.pairs)],
        "seconds": args.seconds,
        "host": {"python": platform.python_version(), "machine": platform.machine(), "cpus": os.cpu_count()},
        "failed_runs": failed,
        "workloads": report(runs, declared["end_to_end"]),
        "runs": {w: [{"seed": p["seed"], "first": p["first"],
                      **{side: {"returncode": p[side]["returncode"], "failed": p[side]["summary"].get("failed"),
                                "digest": p[side]["digest"]} for side in SIDES}} for p in pairs]
                 for w, pairs in runs.items()},
    }
    text = json.dumps(bench, indent=1) + "\n"
    if args.out:
        args.out.write_text(text)
    else:
        sys.stdout.write(text)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
