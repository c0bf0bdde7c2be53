#!/usr/bin/env python3
"""Repository benchmark: build the mixq library and the benchmark program
from source, then run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload serve_cnn_rate --seed 1 \
        --seconds 15 --trace 0
    python3 perfbench/run.py --self-test

The build goes to $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench) and is a no-op once up to date. Build output
goes to stderr; the program's last stdout line is one JSON object with
the keys correct, attempted, failed and metrics. With --trace 0 the
metrics are BENCHMARK.json's end_to_end list, with --trace 1 its
per_layer list; a missing metric, or one whose unit differs from
BENCHMARK.json's, marks the run incorrect.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def build_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")) / "perfbench"


def build():
    """Configure and build; returns the program's path or None."""
    bdir = build_dir()
    bdir.mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(bdir / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (bdir / "CMakeCache.txt").exists():
            steps.append(["cmake", "-S", str(HERE), "-B", str(bdir),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(bdir), "-j", jobs])
        for cmd in steps:
            if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
                return None
    exe = bdir / "mixq_perfbench"
    return exe if exe.exists() else None


def expected_metrics(trace):
    """Maps each metric BENCHMARK.json asks for to its unit."""
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and (args.workload is None or args.seed is None
                               or args.seconds is None):
        ap.error("--workload, --seed and --seconds are required")

    exe = build()
    if exe is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    if args.self_test:
        return subprocess.run([str(exe), "--self-test"]).returncode

    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0 or not lines:
        print(f"perfbench: program exited with {proc.returncode}", file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    want = expected_metrics(args.trace)
    missing = set(want) - set(result["metrics"])
    if missing:
        print(f"perfbench: metrics missing {sorted(missing)}", file=sys.stderr)
        result["correct"] = False
    wrong_unit = sorted(k for k, v in result["metrics"].items()
                        if k in want and v["unit"] != want[k])
    if wrong_unit:
        print(f"perfbench: units differ from BENCHMARK.json {wrong_unit}",
              file=sys.stderr)
        result["correct"] = False
    result["metrics"] = {k: v for k, v in result["metrics"].items() if k in want}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
