"""Run-to-run spread of the end-to-end metrics.

Usage: python3 perfbench/spread.py --workload sample_n1024 [--workload ...]
           --seeds 1 2 3 4 5 6 7 8 9 10 --seconds 50

Runs the benchmark once per seed and workload, one run at a time, with each
run's wall time, and prints for every metric its median and the distance
between its first and third quartiles as a share of the median
(``statistics.quantiles(values, n=4)``).
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

RUN = Path(__file__).resolve().parent / "run.py"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()
    for workload in args.workload:
        values: dict[str, list[float]] = {}
        for seed in args.seeds:
            start = perf_counter()
            done = subprocess.run(
                [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                capture_output=True, text=True, check=True, timeout=600)
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: incorrect result", file=sys.stderr)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed={seed} wall_s={perf_counter() - start:.1f} " + " ".join(
                f"{k}={m['value']:.5g}" for k, m in result["metrics"].items()), flush=True)
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            share = (q3 - q1) / med if med else float("nan")
            print(f"{workload:<14} {name:<14} median={med:.6g} iqr/median={share:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
