#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload equi_uniform_rt --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --smoke      # self-test: every workload, tiny inputs

The first call configures and builds perfbench/ (which compiles ../src) into
$CARGO_TARGET_DIR, default .bench_build; later calls rebuild incrementally.
The last line of stdout is the benchmark binary's JSON result. Build output and
diagnostics go to stderr. Exit code 0 only when the run completed and every
op matched its oracle.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["equi_uniform_rt", "band_zipf_sim", "plan_chain_sim", "serve_shared_rt"]
DEFAULT_SEED = 1
# One process must finish well inside the 180 s a run may take.
RUN_TIMEOUT_S = 170


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Configures (once) and builds the benchmark binary; returns its path or None."""
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            shutil.rmtree(out, ignore_errors=True)
            return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmd = ["cmake", "--build", out, "--target", "perfbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        return None
    return os.path.join(out, "perfbench")


def run_binary(binary, args):
    """Runs the benchmark binary; returns (exit code, stdout lines)."""
    try:
        proc = subprocess.run([binary] + args, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 124, []
    return proc.returncode, proc.stdout.splitlines()


def parse_result(lines):
    """The binary's last stdout line, validated; None when malformed."""
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return None
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        return None
    return result


def self_test(binary):
    ok = True
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            code, lines = run_binary(binary, [
                "--workload", workload, "--seed", str(DEFAULT_SEED), "--seconds", "0.3",
                "--trace", trace, "--smoke"])
            result = parse_result(lines)
            passed = code == 0 and result is not None and result["correct"]
            ok = ok and passed
            print("%-16s trace=%s  %s  attempted=%s failed=%s" % (
                workload, trace, "ok  " if passed else "FAIL",
                result and result["attempted"], result and result["failed"]))
    print("self-test %s" % ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="self-test: run every workload at tiny size, both modes")
    args = parser.parse_args()
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")

    binary = build()
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    if args.smoke:
        return self_test(binary)

    binary_args = ["--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans = os.path.join(build_dir(), "spans")
        os.makedirs(spans, exist_ok=True)
        binary_args += ["--spans_out",
                        os.path.join(spans, "%s-seed%d.json" % (args.workload, args.seed))]
    code, lines = run_binary(binary, binary_args)
    result = parse_result(lines)
    if result is None:
        sys.stderr.write("\n".join(lines) + "\n")
        print("perfbench: benchmark binary exited %d without a result" % code, file=sys.stderr)
        return code or 1
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0 if code == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
