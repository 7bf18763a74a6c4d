#!/usr/bin/env python3
"""Run the benchmark on several seeds per workload and report, for each
metric, the median and the quartile spread (Q3 - Q1) / median next to the
metric's bound in BENCHMARK.json.

Run from the repository root:

    python3 perfbench/spread.py [--runs 10] [--first-seed 1] [--trace 0]
                                [--save set.json] [--baseline set.json]
                                [workload ...]

Each run is the BENCHMARK.json command with `--workload`, `--seed`,
`--seconds` and `--trace` appended; seeds are first-seed, first-seed + 1,
... A spread above a third of its bound is marked `!` (setup_s is exempt:
only its median must hold). `--save` writes every value measured;
`--baseline` reads such a file and reports how far each median moved
against it, marking with `!` a move in the worse direction beyond the bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run(command, workload, seed, seconds, trace):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    started = time.monotonic()
    done = subprocess.run(args, stdout=subprocess.PIPE, text=True, check=False)
    wall = time.monotonic() - started
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {done.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: incorrect result {result}")
    values = {name: m["value"] for name, m in result["metrics"].items()}
    return values, wall


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, (q3 - q1) / q2 if q2 else 0.0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workloads", nargs="*")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, default=0, choices=[0, 1])
    parser.add_argument("--save")
    parser.add_argument("--baseline")
    opts = parser.parse_args()

    with open("BENCHMARK.json", encoding="utf-8") as f:
        bench = json.load(f)
    metrics = bench["end_to_end"] if opts.trace == 0 else bench["per_layer"]
    workloads = opts.workloads or [w["name"] for w in bench["workloads"]]
    baseline = {}
    if opts.baseline:
        with open(opts.baseline, encoding="utf-8") as f:
            baseline = json.load(f)

    measured = {}
    for workload in workloads:
        runs, walls = zip(*[run(bench["command"], workload, opts.first_seed + i,
                                bench["run_seconds"], opts.trace)
                            for i in range(opts.runs)])
        measured[workload] = {m["name"]: [r[m["name"]] for r in runs] for m in metrics}
        print(f"== {workload} ({opts.runs} runs, "
              f"{statistics.median(walls):.1f} s median wall, {max(walls):.1f} s longest)")
        for m in metrics:
            values = measured[workload][m["name"]]
            median, rel = spread(values)
            bound = m.get("bound")
            flag = ""
            if bound is not None and m["name"] != "setup_s" and rel > bound / 3:
                flag = " !"
            line = f"  {m['name']:<34} median {median:<14.6g} spread {rel:7.2%}"
            if bound is not None:
                line += f"  bound {bound:.0%}{flag}"
            old = baseline.get(workload, {}).get(m["name"])
            if old:
                before = statistics.median(old)
                move = (median - before) / before if before else 0.0
                worse = move if m["better"] == "lower" else -move
                mark = " !" if bound is not None and worse > bound else ""
                line += f"  moved {move:+7.2%}{mark}"
            print(line, flush=True)

    if opts.save:
        with open(opts.save, "w", encoding="utf-8") as f:
            json.dump(measured, f, indent=1)


if __name__ == "__main__":
    main()
