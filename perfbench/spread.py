"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workload NAME --runs 10 --seconds 25 [--first-seed 0]

Runs the benchmark once per seed, each in a fresh process, one after the
other, and prints for every end-to-end metric its median and the distance
between its first and third quartiles as a share of the median, beside
the metric's bound from BENCHMARK.json.
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
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--first-seed", type=int, default=0)
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    values: dict[str, list[float]] = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        done = subprocess.run(
            [*bench["command"], "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True, check=True, cwd=ROOT,
        )
        result = json.loads(done.stdout.strip().splitlines()[-1])
        if not result["correct"] or result["failed"]:
            print(f"seed {seed}: run not correct", file=sys.stderr)
            return 1
        line = []
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            line.append(f"{name}={metric['value']:.6g}")
        print(f"seed {seed}: " + " ".join(line), flush=True)

    summary = {}
    for spec in bench["end_to_end"]:
        series = values[spec["name"]]
        q1, median, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / median
        summary[spec["name"]] = {"median": median, "spread": spread, "bound": spec["bound"]}
        print(f"{spec['name']:<14} median {median:.6g} {spec['unit']:<4} "
              f"spread {spread:.4f}  bound {spec['bound']}")
    print(json.dumps({"workload": args.workload, "runs": args.runs, "metrics": summary}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
