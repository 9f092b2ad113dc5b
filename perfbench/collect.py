#!/usr/bin/env python3
"""Runs the benchmark over several seeds and tabulates each metric.

Run from the repository root, e.g.

    python3 perfbench/collect.py --workloads tandem-cold,serve-mixed \
        --seeds 1-10 --trace 0 --out runs.jsonl

Each run's result line is appended to --out as one JSON object (with its
workload, seed and trace mode). The table printed at the end gives, per
workload and metric, the median, the first and third quartiles (Python's
statistics.quantiles(values, n=4)) and the spread (q3 - q1) / median
next to the metric's bound from BENCHMARK.json. `--from FILE` tabulates
an existing file without running anything.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    result.update(workload=workload, seed=seed, trace=trace)
    return result


def table(results, bounds):
    rows = []
    for workload in dict.fromkeys(r["workload"] for r in results):
        for trace in (0, 1):
            runs = [r for r in results if r["workload"] == workload and r["trace"] == trace]
            if not runs:
                continue
            rows.append(f"\n{workload} (trace {trace}, {len(runs)} runs, "
                        f"all correct: {all(r['correct'] for r in runs)}, "
                        f"failed/attempted: {sum(r['failed'] for r in runs)}"
                        f"/{sum(r['attempted'] for r in runs)})")
            rows.append("| metric | unit | median | q1 | q3 | spread | bound |")
            rows.append("|---|---|---|---|---|---|---|")
            for name, first in runs[0]["metrics"].items():
                values = [r["metrics"][name]["value"] for r in runs]
                med = statistics.median(values)
                q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
                spread = (q3 - q1) / med if med else float("nan")
                bound = bounds.get(name)
                rows.append(f"| {name} | {first['unit']} | {med:.6g} | {q1:.6g} | {q3:.6g} "
                            f"| {spread:.3f} | {'' if bound is None else bound} |")
    return "\n".join(rows)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default="tandem-cold,tandem-sweep,serve-mixed")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    ap.add_argument("--from", dest="source")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    if args.source:
        with open(args.source) as f:
            results = [json.loads(line) for line in f if line.strip()]
    else:
        results = []
        seconds = args.seconds or spec["run_seconds"]
        for seed in seeds(args.seeds):
            for workload in args.workloads.split(","):
                r = run(workload, seed, seconds, args.trace)
                results.append(r)
                print(f"{workload} seed {seed}: correct={r['correct']}", file=sys.stderr)
                if args.out:
                    with open(args.out, "a") as f:
                        f.write(json.dumps(r) + "\n")
    print(table(results, bounds))


if __name__ == "__main__":
    main()
