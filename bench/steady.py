"""Run-to-run spread of the end-to-end metrics across seeds.

    python3 bench/steady.py [--seeds 10] [--first-seed 100]

Runs `run.py --trace 0` once per seed on each workload, with `run_seconds`
from BENCHMARK.json, and prints each run's metrics by name and unit, then,
per metric, the median and the distance between the first and third
quartile as a share of the median, next to a third of the metric's bound.
The raw values go to `.bench_work/steady.json`. Exits 1 if any run fails its output check.
`--first-seed 0 --seeds 2` covers the seeds with recorded references.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
PRINTED = ("wall_s", "setup_s", "peak_rss_mb", "error_rate", "max_rel_dev", "oracle_rel_dev")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=100)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values: dict = {}
    failures = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            proc = subprocess.run(
                [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                 "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=600)
            last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "{}"
            result = json.loads(last) if last.startswith("{") else {}
            if proc.returncode != 0 or not result.get("correct"):
                failures += 1
                print(f"{workload} seed {seed}: FAILED (exit {proc.returncode})\n"
                      f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}", flush=True)
                continue
            for name, m in result["metrics"].items():
                values.setdefault(workload, {}).setdefault(name, []).append(m["value"])
            for line in proc.stdout.splitlines():
                if line.split(" ", 1)[0] in PRINTED:
                    print(f"{workload:<14}seed {seed:<6}{line}", flush=True)
    report = {}
    for workload, metrics in values.items():
        for name, vals in metrics.items():
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            report.setdefault(workload, {})[name] = {
                "median": med, "q1": q1, "q3": q3, "spread": spread, "values": vals}
            bound = bounds.get(name)
            limit = f"  third of bound {bound / 3:.4f}" if bound is not None else ""
            print(f"{workload:<14}{name:<24} median {med:<12.6g} spread {spread:.4f}{limit}")
    os.makedirs(os.path.join(ROOT, ".bench_work"), exist_ok=True)
    with open(os.path.join(ROOT, ".bench_work", "steady.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
