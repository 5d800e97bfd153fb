"""Run the benchmark over several seeds and report each metric's spread.

Usage, from the root of a source checkout:

    python3 perfbench/repeat.py --runs 10 [--first-seed 1]

For every workload of ``BENCHMARK.json`` it runs the benchmark untraced
for ``run_seconds``, once per seed, one run at a time, and prints for
each metric the median, the quartiles (``statistics.quantiles(values,
n=4)``) and the spread, that is the distance between the quartiles as a
share of the median, next to a third of the metric's bound.  The last line is a JSON
summary of the same figures.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    summary = {}
    for workload in (w["name"] for w in spec["workloads"]):
        values: dict = {}
        failed = 0
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=600, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            failed += result["failed"] + (not result["correct"])
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        print(f"{workload}: {args.runs} runs, {failed} failed ops or incorrect runs")
        summary[workload] = {}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            summary[workload][name] = {"median": med, "q1": q1, "q3": q3,
                                       "spread": spread}
            target = f"{bound / 3:.3f}" if bound else "-"
            flag = "" if not bound or spread <= bound / 3 else "  WIDE"
            print(f"  {name:40s} median {med:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}"
                  f"  spread {spread:7.4f} (bound/3 {target}){flag}")
        sys.stdout.flush()
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
