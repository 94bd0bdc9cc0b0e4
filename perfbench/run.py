#!/usr/bin/env python3
"""Repository benchmark entry point.

Builds the benchmark program from the repository sources (into
.bench_build/ at the repository root), runs one workload and re-prints the
program's output.  The last line of stdout is one JSON object with the keys
correct / attempted / failed / metrics; with --trace 0 the metrics are the
end-to-end metrics of BENCHMARK.json, with --trace 1 its per-layer metrics.

    python3 perfbench/run.py --workload detect_selfstar --seed 1 \
        --seconds 30 --trace 0

Exits non-zero, without a result line, when the sources are missing, the
build fails, the program fails, or the program's metrics do not match
BENCHMARK.json.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "cmake"
PROGRAM = BUILD / "perfbench"
PROGRAM_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no repository sources at {ROOT}")
    # Build output goes to stderr: stdout carries only the benchmark's report.
    if not (BUILD / "CMakeCache.txt").is_file():
        attach = HERE / "perfbench.cmake"
        configure = ["cmake", "-S", str(ROOT), "-B", str(BUILD),
                     f"-DCMAKE_PROJECT_fatomic_INCLUDE={attach}"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    compile_ = ["cmake", "--build", str(BUILD), "--target", "perfbench",
                "-j", jobs]
    if subprocess.run(compile_, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def git_describe():
    # GIT_CEILING_DIRECTORIES keeps git from searching above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        r = subprocess.run(["git", "describe", "--always", "--dirty", "--tags"],
                           cwd=ROOT, env=env, capture_output=True, text=True,
                           timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return r.stdout.strip() if r.returncode == 0 and r.stdout.strip() \
        else "unknown"


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    group = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in group}


def check_result(line, trace):
    """Returns an error message, or None when the result line is valid."""
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        return "the program's last line is not JSON"
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return f"unexpected result keys {sorted(result)}"
    want = expected_metrics(trace)
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        return (f"metrics differ from BENCHMARK.json: missing {missing}, "
                f"unexpected {extra}, or units differ")
    if result["attempted"] < 1:
        return "no operation was checked"
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build()
    cmd = [str(PROGRAM), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--source-root", str(ROOT / "src" / "subjects"),
           "--reference", str(HERE / "reference.json"),
           "--git-describe", git_describe()]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=PROGRAM_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"program did not finish within {PROGRAM_TIMEOUT_S} s")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.rstrip("\n").splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        fail(f"program exited with code {proc.returncode}")
    error = check_result(lines[-1], args.trace == 1)
    if error is not None:
        sys.stderr.write(proc.stdout)
        fail(error)
    print("\n".join(lines), flush=True)


if __name__ == "__main__":
    main()
