#!/usr/bin/env python3
"""Build and run the repo benchmark.

    python3 wfdbench/run.py --workload fuzz-swarm|mc-scenario|serve-mixed \\
        --seed N --seconds S --trace 0|1
    python3 wfdbench/run.py --selftest

Run from the repo root. The first call configures and builds the
benchmark package (wfdbench/CMakeLists.txt, which reuses the program's
library targets and the wfd_serve executable) into .bench_build/wfdbench;
later calls only rebuild what changed. The last line of standard output is
the result JSON (see README.md). A traced run also writes its spans to
.bench_build/wfdbench/traces/. Exit 0 iff the run completed.
"""
import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "wfdbench")
WORKLOADS = ("fuzz-swarm", "mc-scenario", "serve-mixed")
TARGETS = ("wfdbench", "wfdbench_selftest", "wfd_serve_cli")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"wfdbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no program sources at {os.path.join(ROOT, 'src')}")
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j", str(min(4, os.cpu_count() or 1)),
                  "--target", *TARGETS])
    with open(log_path, "w") as log:
        for step in steps:
            try:
                code = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                                      cwd=ROOT).returncode
            except OSError as e:
                fail(f"cannot run {step[0]}: {e}")
            if code != 0:
                log.flush()
                with open(log_path) as text:
                    sys.stderr.write("".join(text.readlines()[-30:]))
                fail(f"build failed ({' '.join(step)}); log in {log_path}")


def commit_id():
    """The git commit when there is one, else a digest of the sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10)
            if out.returncode == 0:
                return out.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for top in ("src", "wfdbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-sha256:" + digest.hexdigest()[:16]


def run(argv, **kwargs):
    try:
        return subprocess.run(argv, cwd=ROOT, timeout=RUN_TIMEOUT_S, **kwargs).returncode
    except subprocess.TimeoutExpired:
        fail(f"{os.path.basename(argv[0])} exceeded {RUN_TIMEOUT_S} s")


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or not 0 < args.seconds <= 600:
        parser.error("--seed must be >= 0 and --seconds in (0, 600]")

    build()
    if args.selftest:
        sys.exit(run([os.path.join(BUILD, "wfdbench_selftest"),
                      os.path.join(ROOT, "BENCHMARK.json")]))
    command = [os.path.join(BUILD, "wfdbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--root", ROOT, "--serve-bin", os.path.join(BUILD, "bench", "wfd_serve"),
               "--commit", commit_id()]
    if args.trace:
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-out",
                    os.path.join(traces, f"{args.workload}-seed{args.seed}.json")]
    sys.stdout.flush()
    sys.exit(run(command))


if __name__ == "__main__":
    main()
