#!/usr/bin/env python3
"""Runs a set of benchmark runs and summarises each metric's spread.

Usage, from the root of a checkout:

  python3 perfbench/measure.py --seeds 1-10 [--workloads a,b] \\
      [--seconds S] [--trace 0|1] [--out FILE]

The workloads and run length default to those of BENCHMARK.json.
Every (workload, seed) pair is one run of perfbench/run.py, made one after
another. For each workload and metric it prints the median, the first and
third quartiles (statistics.quantiles(values, n=4)) and the spread, the
distance between the quartiles as a share of the median. --out also writes
every run's result as JSON, the format of the files in
perfbench/trajectory/.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def seed_list(spec):
    seeds = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def summary(values):
    med = statistics.median(values)
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [med] * 3
    return {"median": med, "q1": q[0], "q3": q[2],
            "spread": (q[2] - q[0]) / med if med else 0.0}


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--workloads", default=",".join(
        w["name"] for w in BENCHMARK["workloads"]))
    p.add_argument("--seconds", type=int, default=BENCHMARK["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out")
    a = p.parse_args()

    report = {"seconds": a.seconds, "trace": a.trace, "workloads": {}}
    ok = True
    for w in a.workloads.split(","):
        runs = []
        for seed in seed_list(a.seeds):
            r = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "run.py"),
                 "--workload", w, "--seed", str(seed),
                 "--seconds", str(a.seconds), "--trace", str(a.trace)],
                cwd=ROOT, capture_output=True, text=True, check=False)
            lines = r.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                print(f"{w} seed {seed}: no result (exit {r.returncode})")
                ok = False
                continue
            ok = ok and r.returncode == 0 and result["correct"]
            runs.append({"seed": seed, "exit": r.returncode, **result})
            print(f"{w} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}",
                  flush=True)
        metrics = {}
        for run in runs:
            for name, m in run["metrics"].items():
                metrics.setdefault(name, []).append(m["value"])
        stats = {name: summary(v) for name, v in metrics.items()}
        report["workloads"][w] = {"runs": runs, "summary": stats}
        for name, s in stats.items():
            print(f"  {w:13s} {name:32s} median {s['median']:.6g}  "
                  f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  "
                  f"spread {s['spread']:.4f}", flush=True)
    if a.out:
        pathlib.Path(a.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
