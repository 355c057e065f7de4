#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds genax_perfbench from source
(perfbench/CMakeLists.txt, into .bench_build/), generates the
workload's inputs from the seed under .bench_work/, runs one workload,
and prints as the last line of standard output one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list (0 for a layer the workload does not
run). The full report (host stamp, sample counts, percentiles, span
totals, check results) and, for traced runs, the Chrome trace are kept
under .bench_out/. --workload all runs every workload in turn.

Exit status: 0 when every output check passed, 1 when one failed or
the build failed (no result line is printed then), 2 on bad usage.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
WORK = os.path.join(ROOT, ".bench_work")
OUT = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD, "genax_perfbench")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configure once, then bring the binary up to date. Returns False
    (after saying why) when the sources or the toolchain are missing."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"no GenAx sources under {ROOT}/src; cannot build")
        return False
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "genax_perfbench",
                  "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        except OSError as e:
            log(f"build failed: {e}")
            return False
        if done.returncode != 0:
            log(f"build failed: {' '.join(cmd)}")
            return False
    return True


def run_binary(args, workdir):
    """Run one workload; returns (exit code, stdout) or None on timeout."""
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", os.path.relpath(workdir, ROOT),
           "--outdir", os.path.relpath(OUT, ROOT)]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        return proc.returncode, out
    except subprocess.TimeoutExpired:
        log(f"{args.workload}: no result within {RUN_TIMEOUT_S} s")
        return None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()


def result_line(contract, report, trace, exit_code):
    """The contract's result object from the binary's full report."""
    wanted = contract["per_layer" if trace else "end_to_end"]
    declared = {m["name"] for m in wanted}
    got = report.get("metrics", {})
    problems = [f"undeclared metric {n}" for n in sorted(set(got) - declared)]
    metrics = {}
    for m in wanted:
        name, unit = m["name"], m["unit"]
        if name not in got:
            if trace:  # the layer is not on this workload's path
                metrics[name] = {"value": 0.0, "unit": unit}
            else:
                problems.append(f"missing end-to-end metric {name}")
            continue
        if got[name]["unit"] != unit:
            problems.append(f"{name}: unit {got[name]['unit']}, declared {unit}")
        value = got[name]["value"]
        if value is None:
            problems.append(f"{name}: not a finite number")
            value = 0.0
        metrics[name] = {"value": value, "unit": unit}
    for p in problems:
        log(p)
    correct = bool(report.get("correct")) and not problems and exit_code == 0
    return {"correct": correct, "attempted": int(report.get("attempted", 0)),
            "failed": int(report.get("failed", 0)), "metrics": metrics}


def run_one(args, contract):
    os.makedirs(WORK, exist_ok=True)
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        outcome = run_binary(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if outcome is None:
        return 1
    code, out = outcome
    lines = out.strip().splitlines()
    try:
        report = json.loads(lines[-1])
    except (IndexError, ValueError):
        log(f"{args.workload}: no report (exit {code})")
        return 1
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, name), "w") as f:
        json.dump(report, f, indent=1)

    result = result_line(contract, report, args.trace, code)
    log(f"{args.workload} seed {args.seed}: correct={result['correct']} "
        f"attempted={result['attempted']} failed={result['failed']} "
        f"(full report: .bench_out/{name})")
    for failure in report.get("checks", {}).get("failures", []):
        log(f"  check failed: {failure}")
    for metric, v in result["metrics"].items():
        log(f"  {metric:34s} {v['value']:.6g} {v['unit']}")
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    # A terminated run still stops its child and removes its inputs.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        contract = json.load(f)
    names = [w["name"] for w in contract["workloads"]]
    if args.workload != "all" and args.workload not in names:
        parser.error(f"unknown workload {args.workload}; one of {names} or all")
    if not build():
        return 1
    if args.workload != "all":
        return run_one(args, contract)
    status = 0
    for name in names:
        args.workload = name
        status = max(status, run_one(args, contract))
    return status


if __name__ == "__main__":
    sys.exit(main())
