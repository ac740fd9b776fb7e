"""Run-to-run spread of the benchmark's end-to-end metrics over seeds.

    python3 perfbench/spread.py --workload NAME --seeds 0-9 [--seconds S]

Runs perfbench/run.py once per seed, one run at a time, and prints for
each end-to-end metric its median and the distance between the first and
third quartile (statistics.quantiles(values, n=4)) as a share of the
median, next to the metric's bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().with_name("run.py")
DECLARED = json.loads((RUN.parent.parent / "BENCHMARK.json").read_text())


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("0-9"))
    parser.add_argument("--seconds", type=float, default=DECLARED["run_seconds"])
    args = parser.parse_args(argv)

    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        out = subprocess.run(
            [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True, timeout=600, check=True).stdout
        result = json.loads(out.strip().splitlines()[-1])
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}/"
              f"{result['attempted']} " + " ".join(
                  f"{k}={m['value']:.4g}" for k, m in result["metrics"].items()), flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    for metric in DECLARED["end_to_end"]:
        series = values[metric["name"]]
        median = statistics.median(series)
        q1, _, q3 = statistics.quantiles(series, n=4)
        print(f"{metric['name']:14s} median {median:<12.6g} spread {(q3 - q1) / median:.4f} "
              f"bound {metric['bound']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
