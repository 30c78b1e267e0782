#!/usr/bin/env python3
"""Build and run the mpcbfd benchmark from the root of a source checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
        [--offered-keys-per-s NAME=RATE ...]

builds perfbench/ (which compiles ../src) into .bench_build/perfbench, runs
one workload and passes its output through; the last line of stdout is the
result JSON. Build logs go to stderr.

Other modes:

    --spread N     run the workload N times (seeds 1..N, or --seed upward)
                   and print each metric's median, quartiles and min/max
    --self-test    build and run the benchmark's own tests
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base, "perfbench")


def build(target):
    out = build_dir()
    if not os.path.isdir(os.path.join(HERE, "..", "src")):
        sys.exit("perfbench: library sources (src/) not found next to perfbench/")
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", out, "--target", target, "-j",
                    str(min(os.cpu_count() or 1, 4))],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(out, target)


def run_once(binary, args, capture):
    base = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", os.path.join(base, "perfbench-work"),
           "--trace-out", os.path.join(
               base, "perfbench-traces",
               "%s-seed%d.json" % (args.workload, args.seed))]
    for rate in args.offered_keys_per_s:
        cmd += ["--offered-keys-per-s", rate]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE if capture else None)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    return proc.returncode, (out.decode() if capture else "")


def spread(binary, args):
    first = args.seed
    values = {}
    units = {}
    for i in range(args.spread):
        args.seed = first + i
        code, out = run_once(binary, args, capture=True)
        line = out.strip().splitlines()[-1] if out.strip() else "{}"
        result = json.loads(line)
        if code != 0 or not result.get("correct"):
            sys.stdout.write(out)
            sys.exit("perfbench: seed %d failed" % args.seed)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print("seed %d: %s" % (args.seed, " ".join(
            "%s=%.6g" % (k, v["value"]) for k, v in result["metrics"].items())),
            flush=True)
    print("%-36s %12s %12s %12s %12s %12s %9s" % (
        "metric", "median", "q1", "q3", "min", "max", "iqr/med"))
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (
            vals[0], 0, vals[0])
        rel = (q3 - q1) / med if med else float("nan")
        print("%-36s %12.6g %12.6g %12.6g %12.6g %12.6g %9.4f %s" % (
            name, med, q1, q3, min(vals), max(vals), rel, units[name]))


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--offered-keys-per-s", action="append", default=[],
                    metavar="NAME=RATE")
    ap.add_argument("--spread", type=int, default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()

    if args.self_test:
        sys.exit(subprocess.call([build("perfbench_tests")]))
    if not args.workload:
        ap.error("--workload is required")
    binary = build("perfbench")
    if args.spread:
        spread(binary, args)
        return
    code, _ = run_once(binary, args, capture=False)
    sys.exit(code)


if __name__ == "__main__":
    main()
