#!/usr/bin/env python3
"""xdb-bench entry point: builds the benchmark from source, runs one workload.

    python3 xdb-bench/run.py --workload oltp_mixed --seed 7 --seconds 10 --trace 0

Run from the repository root. The build lives in .bench_build/xdb-bench/
(configured once, rebuilt incrementally); engine files go to
.bench_build/xdb-bench/work/ and are removed after the run; traced runs
leave their spans in .bench_build/xdb-bench/trace/.

The last line of standard output is the result object
{"correct", "attempted", "failed", "metrics"}; with --trace 0 the metrics
are the end_to_end set of BENCHMARK.json, with --trace 1 the per_layer set.
Exits non-zero, without a result line, when the build or the run fails.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "xdb-bench")
RUN_TIMEOUT_S = 170


def build():
    """Configures (first time) and builds xdb_bench; output goes to stderr."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            # A half-configured tree would make the next attempt skip
            # configuration; start clean then.
            shutil.rmtree(BUILD, ignore_errors=True)
            return None
    res = subprocess.run(["cmake", "--build", BUILD, "--parallel", "4"],
                         stdout=sys.stderr)
    if res.returncode != 0:
        return None
    return os.path.join(BUILD, "xdb_bench")


def listed_metrics(trace):
    """(name, unit) pairs BENCHMARK.json declares for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return [(m["name"], m["unit"]) for m in spec[key]]


def printed_metrics(lines):
    """{name: (value, unit)} from the "metric <name> <value> <unit>" lines."""
    out = {}
    for line in lines:
        if line.startswith("metric "):
            _, name, value, unit = line.split()
            out[name] = (float(value), unit)
    return out


def compose_result(lines, trace):
    """The result object: xdb_bench's last line plus, as "metrics", the
    printed metrics BENCHMARK.json lists for this mode. Raises ValueError
    when a listed metric is missing or printed with another unit."""
    res = json.loads(lines[-1])
    if set(res) != {"correct", "attempted", "failed"}:
        raise ValueError("summary keys %s" % sorted(res))
    if res["attempted"] < 1:
        raise ValueError("no operation attempted")
    printed = printed_metrics(lines[:-1])
    res["metrics"] = {}
    for name, unit in listed_metrics(trace):
        if name not in printed:
            raise ValueError("listed metric %s was not printed" % name)
        value, got = printed[name]
        if got != unit:
            raise ValueError("%s printed in %s, listed in %s" % (name, got, unit))
        res["metrics"][name] = {"value": value, "unit": unit}
    return res


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    binary = build()
    if binary is None:
        print("xdb-bench: build failed", file=sys.stderr)
        return 1
    trace_dir = os.path.join(BUILD, "trace")
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", os.path.join(BUILD, "work")]
    if args.trace:
        cmd += ["--spans-out", os.path.join(
            trace_dir, "%s-seed%d.tsv" % (args.workload, args.seed))]
    try:
        res = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("xdb-bench: run timed out", file=sys.stderr)
        return 1
    lines = res.stdout.splitlines()
    if res.returncode != 0 or not lines:
        sys.stderr.write(res.stdout)
        print("xdb-bench: run failed (exit %d)" % res.returncode,
              file=sys.stderr)
        return 1
    try:
        result = compose_result(lines, args.trace)
    except (ValueError, KeyError, json.JSONDecodeError) as e:
        sys.stderr.write(res.stdout)
        print("xdb-bench: bad output: %s" % e, file=sys.stderr)
        return 1
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
