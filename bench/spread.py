"""Run a workload under several seeds and print each metric's spread.

    python3 bench/spread.py --workload extract --seeds 1-10 --seconds 20

The spread of a metric is the distance between the first and third
quartiles of its values (``statistics.quantiles(values, n=4)``) as a share
of their median; BENCHMARK.json bounds each end-to-end metric by it.
Runs go one after the other, never in parallel, so they do not contend.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", default="20")
    args = parser.parse_args()
    values: dict[str, list[float]] = {}
    shares = set()
    for seed in seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
             "--seconds", args.seconds, "--trace", "0"],
            capture_output=True, text=True, check=False,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        print(lines[0] if len(lines) > 1 else "", flush=True)
        result = json.loads(lines[-1])
        shares.add((result["failed"], result["attempted"]) if result["failed"] else 0)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    print(f"failed shares seen: {sorted(shares, key=str)}")
    for name, vals in values.items():
        median = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / median if median else 0.0
        print(f"{name:40s} median {median:12.6g}  spread {spread:7.4f}  min {min(vals):.6g}  max {max(vals):.6g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
