"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 bench/spread.py --workload queries --seeds 11 12 13 14 15

Runs the workload once per seed (untraced) and prints, for each end-to-end
metric, the median of the runs and the distance between the first and third
quartiles as a share of that median, beside the metric's bound in
BENCHMARK.json. It also prints the failed share of operations per run.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    values: dict[str, list[float]] = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in args.seeds:
        cmd = [sys.executable, "bench/run.py", "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: correct={result['correct']} failed/attempted="
              f"{result['failed']}/{result['attempted']} " + " ".join(
                  f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()), flush=True)
        for name, metric in result["metrics"].items():
            values[name].append(metric["value"])
    for m in spec["end_to_end"]:
        v = values[m["name"]]
        q1, _, q3 = quantiles(v, n=4)
        mid = median(v)
        print(f"{args.workload} {m['name']}: median {mid:.5g} {m['unit']}, "
              f"spread {(q3 - q1) / mid:.3f} (bound {m['bound']})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
