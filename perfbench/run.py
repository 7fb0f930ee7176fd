#!/usr/bin/env python3
"""Benchmark of reliaware's paper flows.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root. The first run builds the library, the rwserved
daemon and the harness (perfbench/harness.cpp) from this source tree into
$CARGO_TARGET_DIR (default .bench_build), then fills a disk cache of
characterized libraries there that the warm workloads read. Later runs reuse
both. Build and harness logs go to stderr; the last stdout line is one JSON
object with `correct`, `attempted`, `failed` and `metrics` — end-to-end
metrics with --trace 0, per-layer metrics with --trace 1.

Workloads (see harness.cpp for what one operation is):
  cold_char   SPICE characterization into an empty cache
  warm_flows  static, dynamic and proven guardband flows on a warm cache
  served      closed-loop clients of a real rwserved daemon on a warm cache
"""

import argparse
import fcntl
import os
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("cold_char", "warm_flows", "served")
# Upper bound on one measured run, so a wedged daemon or flow cannot hang it.
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def run_group(cmd, env, timeout=None, stdout=None):
    """Runs cmd in its own process group; on timeout kills the whole group
    (the harness's daemon and its workers included) and waits for it."""
    proc = subprocess.Popen(cmd, env=env, stdout=stdout or sys.stderr,
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    finally:
        # Strays a crashed harness left behind: kill them, then give init a
        # moment to reap them.
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                break
            time.sleep(0.05)
    return proc.returncode, out


def build_and_prepare(build, env):
    jobs = str(min(os.cpu_count() or 1, 4))
    if not os.path.isfile(os.path.join(build, "CMakeCache.txt")):
        code, _ = run_group(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", build,
                             "-DCMAKE_BUILD_TYPE=Release"], env)
        if code != 0:
            return False
    code, _ = run_group(["cmake", "--build", build, "-j", jobs], env)
    if code != 0:
        return False
    work = os.path.join(build, "work")
    if not os.path.isfile(os.path.join(work, "prepared")):
        log("filling the warm library cache (one-time)")
        code, _ = run_group([os.path.join(build, "perfbench"), "--work", work, "--prepare"], env)
        if code != 0:
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"no reliaware sources under {ROOT}")
        return 2
    build = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    os.makedirs(build, exist_ok=True)
    # The program's own RW_* knobs (cache dir, threads, adaptive grid, ...)
    # would change what is measured; the harness sets what it needs.
    env = {k: v for k, v in os.environ.items() if not k.startswith("RW_")}

    with open(os.path.join(build, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not build_and_prepare(build, env):
            log("build or cache preparation failed")
            return 2

    cmd = [os.path.join(build, "perfbench"), "--work", os.path.join(build, "work"),
           "--rwserved", os.path.join(build, "rwserved"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        code, out = run_group(cmd, env, timeout=RUN_TIMEOUT_S, stdout=subprocess.PIPE)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 2
    lines = out.strip().splitlines()
    if code != 0 or not lines:
        log(f"harness exited with {code}")
        return 2
    print(lines[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
