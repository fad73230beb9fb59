#!/usr/bin/env python3
"""Self-test of the ecoDB benchmark at a tiny scale factor.

Usage (from the repository root):  python3 ecobench/selftest.py

For every workload it checks that
  * every metric named in BENCHMARK.json is printed, with its unit, in the
    run that --trace selects;
  * the simulated metrics and the counts are bit-identical across two runs
    with the same seed;
  * a deliberately corrupted reference answer makes the run fail.
Exits non-zero on the first failed check.
"""

import json
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402  (the benchmark's own build step)

SPEC = json.loads(
    (Path(run.BENCH_DIR).parent / "BENCHMARK.json").read_text())


def deterministic(name: str) -> bool:
    """Metrics that are pure functions of the seed."""
    if name.startswith("morsel.execute_ms"):
        return False
    if name.startswith(("sim_", "sim.", "morsel.", "storage.")):
        return True
    if name.startswith("scheduler."):
        return name != "scheduler.run_host_s"
    return name.startswith("exec.") and (name.endswith("_per_query") or
                                         name == "exec.peak_memory_bytes")


def drive(driver, workload, trace, *extra):
    cmd = [str(driver), "--workload", workload, "--seed", "5", "--seconds",
           "1", "--trace", str(trace), "--tiny", *extra]
    p = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    lines = p.stdout.strip().splitlines()
    return p.returncode, json.loads(lines[-1]) if lines else None


def check(cond, what):
    if not cond:
        print(f"FAIL: {what}")
        sys.exit(1)


def main() -> int:
    driver = run.build()
    for w in (w["name"] for w in SPEC["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            runs = [drive(driver, w, trace) for _ in range(2)]
            for code, result in runs:
                check(code == 0 and result and result["correct"],
                      f"{w} trace={trace} did not pass")
                for m in SPEC[key]:
                    got = result["metrics"].get(m["name"])
                    check(got is not None and got["unit"] == m["unit"],
                          f"{w}: {m['name']} missing or wrong unit")
                check(len(result["metrics"]) == len(SPEC[key]),
                      f"{w}: extra metrics printed")
            a, b = (r["metrics"] for _, r in runs)
            for name in a:
                if deterministic(name):
                    check(a[name]["value"] == b[name]["value"],
                          f"{w}: {name} differs between identical runs")
        code, result = drive(driver, w, 0, "--corrupt-reference")
        check(code != 0 and (result is None or not result["correct"]),
              f"{w}: a corrupted reference answer went unnoticed")
        print(f"ok: {w}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
