#!/usr/bin/env python3
"""Repository benchmark: builds the perfbench program from source and runs
one workload, or all of them.

One workload (the form BENCHMARK.json declares):

    python3 perfbench/run.py --workload small_msg_64r --seed 1 \
        --seconds 30 --trace 0

prints the program's report and, as the last stdout line, one JSON object
with the keys correct, attempted, failed and metrics. --trace 0 reports
the end-to-end metrics of BENCHMARK.json, --trace 1 its per-layer
metrics; the full ledger (every row, with its unit and the end-to-end
metric it should move) is printed above that line and saved under
.bench_build/results/, next to the traced run's Chrome trace and
attribution CSV.

Every workload, both modes, with the correctness gate:

    python3 perfbench/run.py --all [--seed 1] [--seconds 30]

exits 1 if any run reports correct=false.

Run from the root of a checkout; the build goes to .bench_build/.
"""
import argparse
import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
RESULTS = ROOT / ".bench_build" / "results"
RUN_TIMEOUT_S = 175


def fail(msg, code):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no emc sources at {ROOT / 'src'}: run from a full checkout", 2)
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "perfbench",
                  "-j", "4"])
    # Compiler temporaries stay inside the checkout too.
    tmp = ROOT / ".bench_build" / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode:
            fail("build failed: " + " ".join(cmd), 1)


def run_one(spec, workload, seed, seconds, trace):
    """Runs perfbench once; returns (report lines, filtered result)."""
    cmd = [str(BUILD / "perfbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--out", str(RESULTS)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s", 1)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        fail(f"perfbench exited with {proc.returncode}", proc.returncode or 1)
    RESULTS.mkdir(parents=True, exist_ok=True)
    (RESULTS / f"{workload}_seed{seed}_trace{trace}.txt").write_text(
        proc.stdout)
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result line", 1)
    # perfbench prints the whole ledger; the result line carries exactly
    # the metrics BENCHMARK.json declares for this mode, with its units.
    wanted = spec["end_to_end"] if trace == 0 else spec["per_layer"]
    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            fail(f"metric {m['name']} ({m['unit']}) missing or mis-united", 1)
        metrics[m["name"]] = got
    result["metrics"] = metrics
    return lines[:-1], result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true",
                    help="run every workload in both modes")
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    if args.seconds is not None and args.seconds < 1:
        fail("--seconds must be at least 1", 2)
    if not args.all and args.workload not in names:
        fail(f"--workload must be one of {', '.join(names)}", 2)
    build()

    if not args.all:
        lines, result = run_one(spec, args.workload, args.seed, seconds,
                                args.trace)
        print("\n".join(lines))
        print(json.dumps(result), flush=True)
        return 0

    ok = True
    for workload in names:
        for trace in (0, 1):
            lines, result = run_one(spec, workload, args.seed, seconds, trace)
            print("\n".join(lines))
            print(f"== {workload} trace={trace}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}"
                  f"\n", flush=True)
            ok = ok and result["correct"]
    print("all workloads correct" if ok else "CORRECTNESS GATE FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
