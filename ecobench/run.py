#!/usr/bin/env python3
"""Builds the ecoDB benchmark driver from source and runs one workload.

Usage (from the repository root):
  python3 ecobench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The build goes to $CARGO_TARGET_DIR/ecobench (default .bench_build/ecobench)
relative to the current directory; build output goes to stderr so that the
driver's result stays the last line of stdout. With --trace 1 the recorded
spans are written next to the build, under traces/. Exits non-zero, without a
result, if the build or the run fails.
"""

import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 170


def build_dir() -> Path:
    root = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return root.resolve() / "ecobench"


def build() -> Path:
    out = build_dir()
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(out), "--target", "ecobench_driver",
                  "-j", "4"])
    for cmd in steps:
        subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, check=True)
    return out / "ecobench_driver"


def main() -> int:
    try:
        driver = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"build failed: {e}", file=sys.stderr)
        return 1
    args = sys.argv[1:]
    if "--trace" in args and args[args.index("--trace") + 1:][:1] == ["1"]:
        traces = build_dir() / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        args += ["--trace-dir", str(traces)]
    try:
        return subprocess.run([str(driver), *args],
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"driver exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
