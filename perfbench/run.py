#!/usr/bin/env python3
"""Entry point of the repository benchmark (BENCHMARK.json).

Run from the repository root:

    python3 perfbench/run.py --workload http_steady --seed 1 --seconds 10 --trace 0

Builds perfbench/ together with the library sources under src/ into
.bench_build/perfbench (CMake, Release; a no-op when up to date), then runs
one workload of the perfbench binary. Everything the binary prints is
passed through; its last line, the result object
{"correct", "attempted", "failed", "metrics"}, is validated -- it must hold
every end-to-end metric of BENCHMARK.json (--trace 0) or every per-layer
one (--trace 1), in its unit -- and stays the last line of stdout. Build and
tool output goes to stderr. When the build or the run fails, the script
exits non-zero without printing a result.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(os.getcwd(), ".bench_build", "perfbench")
RUN_TIMEOUT_S = 170


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "--target", "perfbench",
                    "-j", jobs], stdout=sys.stderr, check=True)
    return os.path.join(BUILD, "perfbench")


def check_result(result, trace):
    """Raises ValueError unless `result` is a well-formed result object
    holding every metric the manifest lists for this mode."""
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError(f"unexpected keys {sorted(result)}")
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        manifest = json.load(f)
    want = manifest["per_layer" if trace else "end_to_end"]
    got = result["metrics"]
    for m in want:
        if got.get(m["name"], {}).get("unit") != m["unit"]:
            raise ValueError(f"metric {m['name']} ({m['unit']}) missing")
    extra = set(got) - {m["name"] for m in want}
    if extra:
        raise ValueError(f"metrics not in BENCHMARK.json: {sorted(extra)}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["http_steady", "http_overload"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    try:
        exe = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        print(f"perfbench: exited with {proc.returncode}", file=sys.stderr)
        return proc.returncode or 1
    try:
        check_result(json.loads(lines[-1]), args.trace)
    except (OSError, ValueError, TypeError, AttributeError) as e:
        sys.stderr.write(proc.stdout)
        print(f"perfbench: malformed result line: {e}", file=sys.stderr)
        return 1
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
