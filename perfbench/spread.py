"""Run-to-run spread of the end-to-end metrics, against their bounds.

    python3 perfbench/spread.py --workload paper_400 --runs 10

Runs the benchmark ``--runs`` times with seeds 1..runs and prints, per
metric, the median and the quartile spread (Q3 - Q1) / median beside
the metric's bound from ``BENCHMARK.json``.  A benchmark is steady when
every spread stays well inside its bound.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
from harness import median, quartile_spread  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python3 perfbench/spread.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    options = parser.parse_args(argv)

    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    values = {entry["name"]: [] for entry in contract["end_to_end"]}
    walls = []
    for seed in range(options.first_seed, options.first_seed + options.runs):
        started = perf_counter()
        output = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", options.workload,
             "--seed", str(seed), "--seconds", str(contract["run_seconds"]), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        ).stdout
        walls.append(perf_counter() - started)
        result = json.loads(output.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: failed {result['failed']} of {result['attempted']}")
        for name, metric in result["metrics"].items():
            values[name].append(metric["value"])
        print(f"seed {seed}: " + " ".join(
            f"{name}={metric['value']:.5g}" for name, metric in result["metrics"].items()
        ) + f" wall={walls[-1]:.1f}s", flush=True)
    print(f"{'metric':<14} {'median':>12} {'spread':>8} {'bound':>6}")
    for entry in contract["end_to_end"]:
        series = values[entry["name"]]
        spread = f"{quartile_spread(series):.4f}" if len(series) > 1 else "-"
        print(f"{entry['name']:<14} {median(series):>12.5g} {spread:>8} {entry['bound']:>6}")
    print(f"wall per run: median {median(walls):.1f} s, max {max(walls):.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
