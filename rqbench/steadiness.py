"""Seed-steadiness check of the benchmark.

    python3 rqbench/steadiness.py [--workloads trees battery] [--seeds 10]
                                  [--first-seed 1000]

Runs every workload untraced on consecutive seeds, for BENCHMARK.json's
run_seconds each, and reports per end-to-end metric the median and the
spread: the distance between the first and third quartiles
(`statistics.quantiles(values, n=4)`) as a share of the median.  Exits with
status 1 when any spread other than setup_s's exceeds the metric's bound, or
when a run reports incorrect output.  The table also goes to
rqbench/out/steadiness-<first seed>.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="*",
                    default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1000)
    args = ap.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report, ok = {}, True
    for workload in args.workloads:
        values = {name: [] for name in bounds}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            cmd = [sys.executable, os.path.join(HERE, "run.py"),
                   "--workload", workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                 check=True, timeout=600)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            ok &= result["correct"]
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        rows = {}
        for name, vals in values.items():
            s = spread(vals)
            rows[name] = {"median": statistics.median(vals), "spread": s,
                          "bound": bounds[name], "values": vals}
            if name != "setup_s" and s > bounds[name]:
                ok = False
            print(f"{workload:10s} {name:13s} median {statistics.median(vals):10.5g}"
                  f"  spread {s:7.4f}  bound {bounds[name]}", flush=True)
        report[workload] = rows
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    path = os.path.join(HERE, "out", f"steadiness-{args.first_seed}.json")
    with open(path, "w") as f:
        json.dump({"seeds": args.seeds, "first_seed": args.first_seed,
                   "workloads": report}, f, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
