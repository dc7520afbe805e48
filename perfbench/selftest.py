"""Self-test of the benchmark: metric names and count determinism.

    python3 perfbench/selftest.py [--workload NAME ...] [--seed N]

Checks that ``run.py`` prints exactly the metrics ``BENCHMARK.json``
declares, then makes two traced passes of each workload under different
``PYTHONHASHSEED`` values.  Their output digests must be identical.  Every
per-layer count, and each ratio of two counts, must repeat exactly; a count
that does not is listed, and must be treated as a timing.  Exits 1 if
anything differs.
"""

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import layers  # noqa: E402
import run  # noqa: E402

# ratios of two counts; the other ratios are shares of time
EXACT_RATIOS = ("groebner.syz_useful_ratio", "homalg.repeat_ratio")


def declared():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    return ({m["name"]: m["unit"] for m in bench["end_to_end"]},
            {m["name"]: m["unit"] for m in bench["per_layer"]})


def traced_counts(workload, seed, hash_seed):
    runner = run.Runner(os.getcwd(), workload, seed)
    runner.env["PYTHONHASHSEED"] = str(hash_seed)
    _, _, summary = runner.one_pass(trace=True)
    per_layer = layers.metrics(summary, 1.0, 1.0)
    counts = {name: value for name, (value, unit) in per_layer.items()
              if unit == "count" or name in EXACT_RATIOS}
    return counts, runner.last_reports, runner.tally


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", nargs="*", default=list(run.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()

    ok = True
    e2e, per_layer = declared()
    printed = {name: unit for name, (_, unit) in layers.metrics(
        layers.merge([]), 1.0, 1.0).items()}
    if printed != per_layer:
        print(f"per-layer metrics differ from BENCHMARK.json: "
              f"{sorted(set(printed.items()) ^ set(per_layer.items()))}")
        ok = False
    printed = {name: unit for name, (_, unit) in run.end_to_end(
        [1.0], [1.0], [1.0, 2.0], 1024).items()}
    if printed != e2e:
        print(f"end-to-end metrics differ from BENCHMARK.json: {printed} vs {e2e}")
        ok = False

    for workload in args.workload:
        a, digest_a, tally_a = traced_counts(workload, args.seed, 1)
        b, digest_b, tally_b = traced_counts(workload, args.seed, 2)
        moved = sorted(name for name in a if a[name] != b[name])
        same_outputs = digest_a == digest_b
        clean = not (tally_a.wrong or tally_a.failed or tally_b.wrong or tally_b.failed)
        print(json.dumps({"workload": workload, "counts": len(a),
                          "counts_not_repeating": {n: [a[n], b[n]] for n in moved},
                          "outputs_identical": same_outputs, "outputs_correct": clean}))
        ok = ok and not moved and same_outputs and clean
    print("selftest:", "ok" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
