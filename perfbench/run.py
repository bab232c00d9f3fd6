#!/usr/bin/env python3
"""End-to-end benchmark for ltefp: builds the benchmark program from source, runs one
workload and prints its result as the last line of standard output.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload paper --seed 7 --seconds 15 --trace 0

--trace 0 reports the end-to-end metrics BENCHMARK.json lists; --trace 1
runs the traced variant and reports the per-layer metrics. The build goes
to $CARGO_TARGET_DIR (default .bench_build), scratch corpora to
.bench_work/ and the full output of each run, host fingerprint and spans
included, to .bench_results/.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 175


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds the benchmark program; returns its path or None."""
    gen = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir, *gen]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return None
    jobs = str(os.cpu_count() or 1)
    cmd = ["cmake", "--build", build_dir, "--target", "ltefp_bench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(build_dir, "ltefp_bench")


def expected_metrics(trace):
    """(name, unit) pairs the result must carry, from BENCHMARK.json."""
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [(m["name"], m["unit"]) for m in spec["per_layer" if trace else "end_to_end"]]


def validate(line, trace):
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError(f"result keys {sorted(result)}")
    want = expected_metrics(trace)
    got = result["metrics"]
    if set(got) != {name for name, _ in want}:
        missing = {name for name, _ in want} - set(got)
        extra = set(got) - {name for name, _ in want}
        raise ValueError(f"metrics missing {sorted(missing)}, unexpected {sorted(extra)}")
    for name, unit in want:
        if got[name].get("unit") != unit:
            raise ValueError(f"{name}: unit {got[name].get('unit')!r}, expected {unit!r}")
        if not isinstance(got[name].get("value"), (int, float)):
            raise ValueError(f"{name}: value is not a number")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=["paper", "city", "monitor", "contacts"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], required=True)
    p.add_argument("--size", choices=["full", "tiny"], default="full",
                   help="tiny: smoke-test scale (the benchmark's own tests)")
    p.add_argument("--corrupt", action="store_true",
                   help="flip one output before it is checked (tests only)")
    args = p.parse_args()

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    program = build(build_dir)
    if program is None:
        log("build failed")
        return 1

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{args.size}"
    workdir = os.path.join(".bench_work", f"{tag}-{os.getpid()}")
    results = ".bench_results"
    os.makedirs(results, exist_ok=True)
    cmd = [program, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir, "--size", args.size,
           "--expected", os.path.join(HERE, "expected_paper.txt")]
    if args.trace:
        cmd += ["--spans", os.path.join(results, f"{tag}.spans.json")]
    if args.corrupt:
        cmd.append("--corrupt")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"benchmark program exceeded {RUN_TIMEOUT_S} s")
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(os.path.join(results, f"{tag}.txt"), "w") as f:
        f.write(proc.stdout)
    if proc.returncode != 0:
        log(f"benchmark program exited with {proc.returncode}")
        return 1
    lines = proc.stdout.strip().splitlines()
    try:
        validate(lines[-1], args.trace)
    except (ValueError, IndexError, KeyError, json.JSONDecodeError) as e:
        log(f"malformed result: {e}")
        return 1
    print("\n".join(lines), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
