#!/usr/bin/env python3
"""Runs one workload over several seeds and reports each end-to-end metric's
median, quartiles and spread (interquartile distance over the median) next
to its bound in BENCHMARK.json. Run from the repository root:

    python3 perfbench/spread.py --workload tuning_loop --seeds 1-10
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.dont_write_bytecode = True  # Leave no __pycache__ in the checkout.
sys.path.insert(0, HERE)
import stats  # noqa: E402


def seed_list(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        contract = json.load(f)
    seconds = args.seconds or contract["run_seconds"]
    values = {}
    for seed in args.seeds:
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, check=False)
        result = json.loads(out.stdout.decode().strip().splitlines()[-1])
        if out.returncode != 0 or not result["correct"]:
            print(f"seed {seed}: run failed or incorrect", file=sys.stderr)
            return 1
        line = []
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            line.append(f"{name}={metric['value']:.6g}")
        print(f"seed {seed}: " + " ".join(line), flush=True)
    bounds = {m["name"]: m.get("bound") for m in contract["end_to_end"]}
    for name, vs in values.items():
        if len(vs) < 2:
            continue
        q1, q2, q3 = statistics.quantiles(vs, n=4)
        bound = bounds.get(name)
        note = f" bound {bound:g} (spread/bound {stats.spread(vs) / bound:.2f})" if bound else ""
        print(f"{args.workload} {name}: median {q2:.6g} q1 {q1:.6g} q3 {q3:.6g} "
              f"spread {stats.spread(vs):.4f}{note}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
