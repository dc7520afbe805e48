"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload NAME --runs 10 [--seconds 10]
                                [--first-seed 1] [--trace 0] [--out FILE]

Each run is a separate ``perfbench/run.py`` process with its own seed.  For
every metric the script prints the median of the runs and the distance
between the first and third quartile as a share of that median, computed
with ``statistics.quantiles(values, n=4)``.  With ``--out`` the values,
spreads and provenance lines are also written as JSON.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else 0.0


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out")
    args = ap.parse_args()

    values, runs = {}, []
    for k in range(args.runs):
        seed = args.first_seed + k
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], capture_output=True, text=True)
        took = time.monotonic() - start
        if proc.returncode != 0:
            sys.exit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        runs.append({"seed": seed, "took_s": took, "result": result,
                     "provenance": json.loads(lines[-2])["provenance"]})
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: {took:.1f} s, correct={result['correct']} "
              + " ".join(f"{n}={m['value']:.4g}" for n, m in result["metrics"].items()
                         if n in ("wall_s", "setup_s", "verdict_s.p50")),
              file=sys.stderr, flush=True)

    table = {name: {"median": statistics.median(v), "spread": spread(v)}
             for name, v in values.items() if len(v) >= 2}
    for name, row in table.items():
        print(f"{name:36s} median {row['median']:.6g}  spread {row['spread']:.4f}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"workload": args.workload, "seconds": args.seconds,
                       "trace": args.trace, "table": table, "values": values,
                       "runs": runs}, fh, indent=1)
            fh.write("\n")


if __name__ == "__main__":
    main()
