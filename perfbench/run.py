#!/usr/bin/env python3
"""Builds and runs the bati end-to-end benchmark (see perfbench/README.md).

One measured run of one workload:

    python3 perfbench/run.py --workload realm-offline --seed 1 \
        --seconds 33 --trace 0

builds perfbench/ (and the library sources under src/) into
.bench_build/perfbench on first use, runs the benchmark binary, and passes
its output through. The last line of standard output is one JSON object:
{"correct": .., "attempted": .., "failed": .., "metrics": {..}}. With
--trace 0 the metrics are the end-to-end ones; with --trace 1 a separate
traced run reports the per-layer ones. The exit code is non-zero when the
build fails or any output check fails.

    python3 perfbench/run.py --selftest [--seed N]

runs every workload twice at the same seed and requires the deterministic
per-layer counts of the two invocations to be identical.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ("realm-offline", "reald-offline", "serve-drift")
# A run must end within 180 s; a hung benchmark is killed just before.
RUN_TIMEOUT_S = 175


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("the library sources (src/) are not in this checkout")
        return False
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            log("cmake configure failed")
            return False
    jobs = str(os.cpu_count() or 1)
    step = ["cmake", "--build", BUILD, "-j", jobs]
    if subprocess.run(step, stdout=sys.stderr).returncode != 0:
        log("build failed")
        return False
    return True


def run_binary(args, capture):
    """Runs the benchmark binary; returns (exit code, stdout or None)."""
    proc = subprocess.Popen([BINARY] + args,
                            stdout=subprocess.PIPE if capture else None)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log("timed out after %d s" % RUN_TIMEOUT_S)
        return 1, None
    return proc.returncode, out.decode() if capture else None


def counts_line(stdout):
    for line in stdout.splitlines():
        if line.startswith("counts "):
            return line
    return None


def selftest(seed):
    ok = True
    for workload in WORKLOADS:
        args = ["--workload", workload, "--seed", str(seed), "--seconds",
                "1", "--trace", "0"]
        lines = []
        for _ in range(2):
            code, out = run_binary(args, capture=True)
            if code != 0 or out is None:
                log("%s: run failed (exit %d)" % (workload, code))
                ok = False
                break
            lines.append(counts_line(out))
        if len(lines) == 2 and (lines[0] is None or lines[0] != lines[1]):
            log("%s: counts differ between invocations:\n  %s\n  %s"
                % (workload, lines[0], lines[1]))
            ok = False
        elif len(lines) == 2:
            log("%s: counts identical across two invocations" % workload)
    print("selftest " + ("ok" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=33.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    opts = parser.parse_args()
    if opts.seed < 0:
        parser.error("--seed must be non-negative")
    if not opts.selftest and opts.workload is None:
        parser.error("--workload is required")

    if not build():
        return 1
    if opts.selftest:
        return selftest(opts.seed)
    args = ["--workload", opts.workload, "--seed", str(opts.seed),
            "--seconds", repr(opts.seconds), "--trace", str(opts.trace)]
    code, _ = run_binary(args, capture=False)
    return code


if __name__ == "__main__":
    sys.exit(main())
