#!/usr/bin/env python3
"""Runs one workload of the end-to-end serving benchmark.

    python3 perfbench/run.py --workload path_cold --seed 1 --seconds 25 --trace 0

Run it from the root of a checkout. It builds the benchmark program
(perfbench/CMakeLists.txt, which builds the library from the checkout's own
sources) into .bench_build/perfbench, times a program-independent host
reference before and after the workload, runs the workload, and prints the
program's JSON result as the last line of standard output. Build output and
check failures go to standard error; any failure exits non-zero without a
result.
"""
import argparse
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "perfbench")
WORKLOADS = ("path_cold", "od_hot_refresh", "route_budget")
RUN_TIMEOUT_S = 140


def build():
    """Configures (once) and builds the benchmark; returns the binary."""
    if not any(os.path.exists(os.path.join(BUILD, f))
               for f in ("build.ninja", "Makefile")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "--target", "perfbench",
                    "-j", "4"], check=True, stdout=sys.stderr)
    return os.path.join(BUILD, "perfbench")


def host_reference(binary):
    out = subprocess.run([binary, "--host-ref"], check=True,
                         stdout=subprocess.PIPE, text=True, timeout=15)
    return out.stdout.strip()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"run.py: build failed: {err}", file=sys.stderr)
        return 1

    os.makedirs(BUILD_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=BUILD_ROOT)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--workdir", workdir]
    if args.trace:
        # One file per workload, overwritten by its next traced run, so the
        # spans of many runs do not pile up on disk.
        traces = os.path.join(BUILD_ROOT, "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-out", os.path.join(traces,
                                                f"{args.workload}.tsv")]
    try:
        before = host_reference(binary)
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
        after = host_reference(binary)
    except (OSError, subprocess.SubprocessError) as err:
        print(f"run.py: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    lines = run.stdout.splitlines()
    if run.returncode != 0 or not lines or not lines[-1].startswith("{"):
        print(f"run.py: benchmark exited with {run.returncode} and no result",
              file=sys.stderr)
        return 1
    print(before.replace("# host reference", "# host reference before"))
    for line in lines[:-1]:
        print(line)
    print(after.replace("# host reference", "# host reference after"))
    print(lines[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
