#!/usr/bin/env python3
"""The dmlfpd benchmark.

Builds the real daemon and the load generator from this checkout's
sources (into .bench_build/perfbench), then runs one workload:

    python3 perfbench/run.py --workload raw_replay --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --list     # every metric by name, with its unit

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1 runs
the traced per-layer ledger and reports the per-layer metrics.  The last
line of stdout is the JSON result; progress and the human-readable report
go to stderr.  The exit status is 0 only when the output check passed.
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
# Leaves headroom under the 180 s a run may take once built.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def load_json(name):
    with open(os.path.join(HERE, name)) as f:
        return json.load(f)


def list_metrics():
    bench = load_json(os.path.join("..", "BENCHMARK.json"))
    print("end-to-end metrics (--trace 0):")
    for m in bench["end_to_end"]:
        print("  %-30s %-8s %-6s better, bound %.2f"
              % (m["name"], m["unit"], m["better"], m["bound"]))
    print("per-layer metrics (--trace 1):")
    for m in bench["per_layer"]:
        print("  %-30s %-8s %s better" % (m["name"], m["unit"], m["better"]))


def build():
    if not (os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt"))
            and os.path.isfile(os.path.join(ROOT, "tools", "dmlfpd.cpp"))):
        fail("no dmlfpd sources next to perfbench/ (src/, tools/dmlfpd.cpp)")
    if not shutil.which("cmake"):
        fail("cmake not found")
    configure = ["cmake", "-S", HERE, "-B", BUILD]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (configure, ["cmake", "--build", BUILD, "-j", jobs]):
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
        if done.returncode != 0:
            fail("build failed: " + " ".join(cmd))


def stop_group(pgid):
    """Kills whatever the run left in its process group and waits it out."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--list", action="store_true",
                        help="print every metric by name with its unit")
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test sizes from workloads.json")
    parser.add_argument("--perturb", action="store_true",
                        help="alter one received warning (negative check)")
    args = parser.parse_args()

    if args.list:
        list_metrics()
        return 0
    workloads = load_json("workloads.json")["workloads"]
    if args.workload not in workloads:
        fail("unknown workload %r; one of %s"
             % (args.workload, ", ".join(workloads)))
    build()

    spec = dict(workloads[args.workload]["flags"])
    if args.tiny:
        spec.update(workloads[args.workload]["tiny"])
    workdir = os.path.join(BUILD, "work", args.workload)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)

    cmd = [os.path.join(BUILD, "perfbench"), "run",
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--dmlfpd", os.path.join(BUILD, "dmlfpd"),
           "--workdir", workdir,
           "--perturb", "1" if args.perturb else "0"]
    for key, value in spec.items():
        cmd += ["--" + key.replace("_", "-"), str(value)]

    # The generator and every daemon it spawns share one process group,
    # so nothing outlives the run even if the generator dies.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stop_group(proc.pid)
        proc.communicate()
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    finally:
        stop_group(proc.pid)
    lines = out.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        fail("generator exited with status %d" % proc.returncode)
    result = json.loads(lines[-1])
    print(lines[-1])
    return 0 if result["correct"] and proc.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
