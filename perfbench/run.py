#!/usr/bin/env python3
"""End-to-end benchmark of RASED: builds the checkout, generates one run's
inputs, runs one workload and prints its result as the last stdout line.

    python3 perfbench/run.py --workload panels_resident --seed 1 \
        --seconds 15 --trace 0

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR
(default .bench_build); generated inputs to .bench_work/ (removed after the
run); traced runs write their spans to .bench_traces/. See README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

WORKLOADS = ("panels_resident", "history_spill", "feed_ingest")
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
# Every run (generation, set-up, window, checks) must end well inside the
# 180 s a run is allowed; the first build may take longer on its own.
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds the harness; returns the binary path."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", BENCH_DIR, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "rased_perfbench",
         "-j", jobs],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(build_dir, "rased_perfbench")


def run_step(cmd, deadline, capture):
    remaining = max(1.0, deadline - time.monotonic())
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE if capture else sys.stderr,
                            stderr=sys.stderr, text=True)
    try:
        out, _ = proc.communicate(timeout=remaining)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError("timed out: " + " ".join(cmd))
    if proc.returncode != 0:
        raise RuntimeError("exit %d: %s" % (proc.returncode, " ".join(cmd)))
    return out


def flush_files(directory):
    """Writes the generated inputs to disk now, so that kernel writeback of
    them does not compete with the measured process for CPU."""
    for dirpath, _, files in os.walk(directory):
        for name in files:
            fd = os.open(os.path.join(dirpath, name), os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    root = os.getcwd()
    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"), "perfbench")
    # Compiler and program temporaries stay inside the checkout too.
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = tmp
    try:
        binary = build(build_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        log("perfbench: build failed: %s" % e)
        return 1

    work = os.path.join(root, ".bench_work",
                        "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", str(args.trace),
              "--work-dir", work]
    if args.trace:
        traces = os.path.join(root, ".bench_traces")
        os.makedirs(traces, exist_ok=True)
        common += ["--trace-out", os.path.join(
            traces, "%s-seed%d.jsonl" % (args.workload, args.seed))]
    deadline = time.monotonic() + RUN_TIMEOUT_S
    try:
        # Inputs are generated in their own process, outside every timed
        # window; the measured process only reads them from disk.
        run_step([binary, "gen"] + common, deadline, capture=False)
        flush_files(work)
        out = run_step([binary, "run"] + common, deadline, capture=True)
    except RuntimeError as e:
        log("perfbench: %s" % e)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    lines = [l for l in out.splitlines() if l.strip()]
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (IndexError, ValueError, AssertionError):
        log("perfbench: no result line from the measured process")
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
