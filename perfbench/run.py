#!/usr/bin/env python3
"""End-to-end private-training benchmark: build, pin, run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run from the repository root. Builds the library and the `trainbench` driver
from source into `.bench_build` (or $CARGO_TARGET_DIR), then runs the
workload in its own process. The out-of-core workload first computes its
in-memory reference digest in a separate process, so the measured process
never holds an in-memory model. The last stdout line is the result object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Exits non-zero without a result line when the build, a process, or a check
of the output fails. Refuses to run while SEPRIV_FAILPOINTS is armed.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("strucequ-deepwalk", "bigbatch-degree", "oocore-degree")
OUT_OF_CORE = "oocore-degree"
MAX_THREADS = 4
RUN_BUDGET_S = 170  # every process of one run, build excluded
# Knobs trainbench sets explicitly; dropped so an outer shell cannot make two
# runs differ silently.
SCRUBBED_ENV = ("SEPRIV_NUM_THREADS", "SEPRIV_POOL_PAGES",
                "SEPRIV_PROXIMITY_CACHE")


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR")
    if target:
        return os.path.abspath(target)
    return os.path.join(ROOT, ".bench_build")


def build(out_dir, jobs):
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", out_dir, "-j", str(jobs),
                    "--target", "trainbench"],
                   stdout=sys.stderr, check=True)
    return os.path.join(out_dir, "trainbench")


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def run_child(cmd, env, deadline):
    """Runs one driver process to completion; returns its stdout lines."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise subprocess.TimeoutExpired(cmd, 0)
    # subprocess.run kills the child on timeout and waits for it.
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        name = os.path.basename(cmd[0])
        raise RuntimeError(f"{name} exited {proc.returncode}")
    return proc.stdout.splitlines()


def check_result(line):
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError(f"unexpected result keys {sorted(result)}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        raise ValueError("no op attempted")
    return result


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    if os.environ.get("SEPRIV_FAILPOINTS"):
        log("SEPRIV_FAILPOINTS is armed; refusing to measure injected faults")
        return 2

    threads = min(MAX_THREADS, len(os.sched_getaffinity(0)))
    out_dir = build_dir()
    try:
        binary = build(out_dir, max(threads, 1))
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 1

    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    deadline = time.monotonic() + RUN_BUDGET_S
    scratch = tempfile.mkdtemp(prefix="scratch-", dir=out_dir)
    try:
        common = ["--workload", args.workload, "--seed", str(args.seed),
                  "--trace", str(args.trace), "--threads", str(threads),
                  "--scratch", scratch]
        extra = []
        reference = None
        if args.workload == OUT_OF_CORE:
            lines = run_child([binary, "--reference"] + common, env, deadline)
            reference = json.loads(lines[-1])["reference"]
            extra = ["--expect", reference["digest"],
                     "--ref-op-s", repr(reference["op_s"])]
        lines = run_child([binary, "--seconds", str(args.seconds)] + common +
                          extra, env, deadline)
        result_line = lines[-1]
        check_result(result_line)
    except (OSError, ValueError, KeyError, IndexError, RuntimeError,
            subprocess.TimeoutExpired) as e:
        log(f"run failed: {e}")
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    env_meta = {"cpu_model": cpu_model(), "nproc": os.cpu_count(),
                "threads": threads}
    if reference is not None:
        env_meta["inmem_reference"] = reference
    print(json.dumps({"env": env_meta}))
    for line in lines:
        print(line)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
