#!/usr/bin/env python3
"""Self-check of the repository benchmark.

Runs every workload of BENCHMARK.json briefly, untraced and traced, and
asserts that:
  - every metric named in BENCHMARK.json is printed with its unit;
  - the traced layer rows plus unattributed_s sum to trace.wall_s, and
    unattributed_s is not negative (no span is counted twice);
  - error_rate is 0: every checked output matched (failed == 0);
  - the reference verdict file agrees with EXPERIMENTS.md Table 1 on every
    app's injection count (when EXPERIMENTS.md is present);
  - run.py fails without printing a result in a directory that holds only
    BENCHMARK.json and the benchmark's own files.

    python3 perfbench/selfcheck.py

Exits 0 when every assertion holds.
"""
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SECONDS = 2  # measured time of each brief run

failures = []


def expect(ok, message):
    print(("ok   " if ok else "FAIL ") + message)
    if not ok:
        failures.append(message)


def run(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", str(SECONDS), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        print(proc.stdout + proc.stderr)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_units(workload, result, group):
    want = {m["name"]: m["unit"] for m in SPEC[group]}
    got = {k: m["unit"] for k, m in result["metrics"].items()}
    expect(got == want, f"{workload}: every {group} metric printed with its "
                        f"unit")


def check_layer_sum(workload, result):
    metrics = result["metrics"]
    rows = [k for k, m in metrics.items()
            if m["unit"] == "s" and k != "trace.wall_s"]
    total = sum(metrics[k]["value"] for k in rows)
    wall = metrics["trace.wall_s"]["value"]
    expect(abs(total - wall) <= 1e-6 * max(wall, 1.0),
           f"{workload}: {len(rows)} layer rows incl. unattributed_s sum to "
           f"trace.wall_s ({total:.6f} vs {wall:.6f} s)")
    unattributed = metrics["unattributed_s"]["value"]
    expect(unattributed >= -1e-6 * wall,
           f"{workload}: unattributed_s not negative ({unattributed:.6f} s)")


def check_reference():
    table = ROOT / "EXPERIMENTS.md"
    if not table.is_file():
        print("skip reference vs EXPERIMENTS.md (file absent)")
        return
    injections = {}
    for line in table.read_text().splitlines():
        m = re.match(r"\|\s*(\w+)\s*\|\s*(C\+\+|Java)\s*\|\s*\d+\s*\|\s*\d+\s*"
                     r"\|\s*(\d+)\s*\|", line)
        if m:
            injections.setdefault(m.group(1), int(m.group(3)))
    reference = json.loads((HERE / "reference.json").read_text())["apps"]
    got = {app: ref["injections"] for app, ref in reference.items()}
    expect(got == injections,
           f"reference injection counts match EXPERIMENTS.md Table 1 "
           f"({len(got)} apps)")


def check_bare_directory():
    bare = ROOT / ".bench_build" / "selfcheck_bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        SPEC["command"] + ["--workload", SPEC["workloads"][0]["name"],
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare, ignore_errors=True)
    expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
           "run.py fails without a result when only the benchmark's files "
           "are present")


def main():
    check_reference()
    check_bare_directory()
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace in (0, 1):
            result = run(workload, trace)
            expect(result is not None, f"{workload} trace={trace}: run.py "
                                       f"succeeded")
            if result is None:
                continue
            expect(result["correct"] and result["failed"] == 0
                   and result["attempted"] >= 1,
                   f"{workload} trace={trace}: error_rate 0 "
                   f"({result['failed']} failed of {result['attempted']})")
            check_units(workload, result,
                        "per_layer" if trace else "end_to_end")
            if trace:
                check_layer_sum(workload, result)
    print(f"{len(failures)} failure(s)")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
