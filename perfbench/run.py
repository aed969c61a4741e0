#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload optft-cold --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --write-reference perfbench/reference.txt

Builds perfbench/ (and the analysis library from src/) into
.bench_build/perfbench under the checkout root, then runs the benchmark
binary.
The last line of standard output is the JSON result; build output goes
to standard error.  Exits non-zero, without a result, when the build
or the run fails.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
BUILD_TYPE = "Release"
RUN_TIMEOUT_S = 170


def clean_env():
    """The process environment minus the analysis knobs (OHA_*), so
    every run measures the default configuration."""
    return {k: v for k, v in os.environ.items() if not k.startswith("OHA_")}


def build():
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    log_path = BUILD_DIR / "build.log"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                      f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target",
                  "oha_perfbench", "-j", jobs])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              env=clean_env()).returncode != 0:
                log.flush()
                sys.stderr.write(log_path.read_text()[-4000:])
                sys.stderr.write("perfbench: build failed\n")
                return None
    return BUILD_DIR / "oha_perfbench"


def main(argv):
    binary = build()
    if binary is None:
        return 1
    args = list(argv)
    flags = dict(zip(args[::2], args[1::2]))
    writing_reference = "--write-reference" in flags
    if not writing_reference:
        args += ["--reference", str(HERE / "reference.txt")]
        if flags.get("--trace") == "1":
            spans = f"spans-{flags.get('--workload')}-{flags.get('--seed')}.tsv"
            args += ["--spans-out", str(BUILD_DIR / spans)]
    try:
        proc = subprocess.run([str(binary)] + args, stdout=subprocess.PIPE,
                              text=True, env=clean_env(), cwd=ROOT,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run timed out\n")
        return 1
    lines = proc.stdout.splitlines()
    sys.stdout.write("\n".join(lines[:-1]) + ("\n" if len(lines) > 1 else ""))
    if proc.returncode != 0:
        return proc.returncode
    if writing_reference:
        return 0
    try:
        json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write("perfbench: no JSON result line\n")
        return 1
    print(lines[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
