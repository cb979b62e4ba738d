#!/usr/bin/env python3
"""Build and run the specsec benchmark (see specbench/README.md).

Run from the repository root:

    python3 specbench/run.py --workload gate --seed 1 --seconds 20 --trace 0
    python3 specbench/run.py --selftest      # benchmark self-tests
    python3 specbench/run.py --smoke         # every workload, tiny runs
    python3 specbench/run.py --record        # re-record fingerprints

The benchmark is built with CMake into $CARGO_TARGET_DIR (default
.bench_build), relative to the current directory.  Build output goes
to standard error, so the last line of standard output is the
benchmark's JSON result.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
FINGERPRINTS = os.path.join(HERE, "fingerprints.tsv")
WORKLOADS = ("gate", "sweep", "serve-warm")


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build(targets):
    """Configure (once) and build @targets; False on failure."""
    out = build_dir()
    steps = []
    if not any(os.path.exists(os.path.join(out, f)) for f in ("build.ninja", "Makefile")):
        configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    jobs = str(os.cpu_count() or 1)
    steps.append(["cmake", "--build", out, "-j", jobs, "--target", *targets])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print("specbench: build failed: " + " ".join(step), file=sys.stderr)
            return False
    return True


def bench_cmd(*args):
    return [
        os.path.join(build_dir(), "specbench"),
        "--fingerprints", FINGERPRINTS,
        "--golden-dir", os.path.join(ROOT, "golden"),
        "--work-dir", os.path.join(build_dir(), "run"),
        *args,
    ]


def smoke():
    """Every workload traced and untraced at tiny run lengths; the
    printed metric names must be exactly those of BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    want = {
        "0": {m["name"] for m in spec["end_to_end"]},
        "1": {m["name"] for m in spec["per_layer"]},
    }
    ok = True
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            args = ["--workload", workload, "--seed", "1", "--seconds", "1",
                    "--trace", trace, "--smoke"]
            proc = subprocess.run(bench_cmd(*args), stdout=subprocess.PIPE,
                                  text=True)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            names = set(result.get("metrics", {}))
            good = (proc.returncode == 0 and result.get("correct") is True
                    and names == want[trace])
            print(f"smoke {workload} trace={trace}: "
                  f"{'ok' if good else 'FAIL'} "
                  f"({result.get('attempted')} checks)", file=sys.stderr)
            if names != want[trace]:
                print(f"  missing {sorted(want[trace] - names)}, "
                      f"extra {sorted(names - want[trace])}", file=sys.stderr)
            ok = ok and good
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", choices=("0", "1"))
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--selftest", action="store_true")
    mode.add_argument("--smoke", action="store_true")
    mode.add_argument("--record", action="store_true")
    args = parser.parse_args()

    if args.selftest:
        if not build(["specbench_selftest"]):
            return 1
        return subprocess.run([os.path.join(build_dir(), "specbench_selftest")],
                              stdout=sys.stderr).returncode
    if not build(["specbench"]):
        return 1
    if args.smoke:
        return 0 if smoke() else 1
    if args.record:
        return subprocess.run(bench_cmd("--record")).returncode
    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    return subprocess.run(bench_cmd(
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", args.trace)).returncode


if __name__ == "__main__":
    sys.exit(main())
