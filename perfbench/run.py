#!/usr/bin/env python3
"""Builds and runs rmrsim's benchmark.

Usage, from the root of a checkout:

  python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --selftest

W is one of paper_sweep, trace_zipf, explore. The benchmark
program is compiled from the checkout's sources into $CARGO_TARGET_DIR
(default .bench_build) on first use; later runs rebuild only what changed.
The last line of stdout is the result as one JSON object; --trace 1 also
writes the span log to <build dir>/spans/. Exits non-zero, printing no
result, when the build fails.
"""

import argparse
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
WORKLOADS = ("paper_sweep", "trace_zipf", "explore")
BUILD_JOBS = "2"
RUN_TIMEOUT_S = 170


def build_dir():
    d = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return d if d.is_absolute() else ROOT / d


def build(out):
    """Configures (once) and builds the program; returns its path or None."""
    if not (out / "CMakeCache.txt").exists():
        r = subprocess.run(
            ["cmake", "-S", str(BENCH), "-B", str(out),
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, stderr=sys.stderr, check=False)
        if r.returncode != 0:
            return None
    r = subprocess.run(
        ["cmake", "--build", str(out), "--target", "perfbench",
         "-j", BUILD_JOBS],
        stdout=sys.stderr, stderr=sys.stderr, check=False)
    exe = out / "perfbench"
    return exe if r.returncode == 0 and exe.exists() else None


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=35)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selftest", action="store_true")
    a = p.parse_args()
    if not a.selftest and a.workload is None:
        p.error("--workload is required")
    if a.seed < 0 or a.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")

    out = build_dir() / "perfbench"
    exe = build(out)
    if exe is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    cmd = [str(exe), "--pins-dir", str(BENCH / "expected")]
    if a.selftest:
        cmd.append("--selftest")
    else:
        cmd += ["--workload", a.workload, "--seed", str(a.seed),
                "--seconds", str(a.seconds), "--trace", str(a.trace)]
        if a.trace == 1:
            spans = out / "spans"
            spans.mkdir(exist_ok=True)
            cmd += ["--spans",
                    str(spans / f"{a.workload}-seed{a.seed}.jsonl")]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, check=False,
                           timeout=RUN_TIMEOUT_S, cwd=ROOT, text=True)
    except subprocess.TimeoutExpired:
        print(f"perfbench: no result within {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 1
    sys.stdout.write(r.stdout)
    sys.stdout.flush()
    return r.returncode


if __name__ == "__main__":
    sys.exit(main())
