#!/usr/bin/env python3
"""Knob ablation report for the end-to-end benchmark (report-only, not gated).

Runs the benchmark's workloads with each tensor performance layer switched
off through its CHIRON_* knob, against the defaults, and prints the median
of every end-to-end metric with its ratio to the default. Runs interleave
the configurations, so drift in the machine's speed hits every column alike.

    python3 perfbench/ablate.py [--seconds 20] [--repeats 3] \
        [--workloads paper_pipeline,real_training]

Run it from the repository root; it builds through the same cargo command as
BENCHMARK.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

KNOBS = [
    ("default", {}),
    ("CHIRON_SIMD=0", {"CHIRON_SIMD": "0"}),
    ("CHIRON_PACK_CACHE=0", {"CHIRON_PACK_CACHE": "0"}),
    ("CHIRON_AUTOTUNE=0", {"CHIRON_AUTOTUNE": "0"}),
    ("CHIRON_COARSE=0", {"CHIRON_COARSE": "0"}),
]


def run(command, workload, seed, seconds, extra_env):
    env = dict(os.environ, **extra_env)
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(args, env=env, capture_output=True, text=True, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{workload} {extra_env}: correctness gate failed")
    return result["metrics"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--workloads", default="paper_pipeline,real_training")
    args = parser.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    command = bench["command"]
    for workload in args.workloads.split(","):
        samples = {label: {} for label, _ in KNOBS}
        units = {}
        for repeat in range(args.repeats):
            for label, extra in KNOBS:
                metrics = run(command, workload, repeat + 1, args.seconds, extra)
                for name, m in metrics.items():
                    samples[label].setdefault(name, []).append(m["value"])
                    units[name] = m["unit"]
        print(f"\n### {workload} ({args.repeats} runs of {args.seconds} s per column, medians)\n")
        print("| metric | " + " | ".join(label for label, _ in KNOBS) + " |")
        print("|---" * (len(KNOBS) + 1) + "|")
        for name in units:
            base = statistics.median(samples["default"][name])
            cells = [f"{base:.4g} {units[name]}"]
            for label, _ in KNOBS[1:]:
                value = statistics.median(samples[label][name])
                ratio = f" ({value / base:.2f}x)" if base else ""
                cells.append(f"{value:.4g}{ratio}")
            print(f"| {name} | " + " | ".join(cells) + " |")


if __name__ == "__main__":
    main()
