#!/usr/bin/env python3
"""Builds xh_bench from source, runs one workload, prints one JSON line.

    python3 bench/e2e/run.py --workload table1 --seed 1 --seconds 15 --trace 0

Run it from the root of a checkout. It configures the top-level project in
.bench_build with attach.cmake and builds only xh_bench there; scratch files
go to .bench_build/work and xh_bench's result documents (and, with
--trace 1, its Chrome traces) to .bench_build/results. --seconds defaults
to BENCHMARK.json's run_seconds.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. With --trace 0 the metrics are the
end_to_end metrics of BENCHMARK.json, with --trace 1 its per_layer metrics.
A per-layer metric of a layer the workload never calls reads 0 (README.md
lists which layers each workload exercises). Everything else goes to
standard error. The exit code is 0 only when every check passed.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
OUT = ROOT / ".bench_build"
WORKLOADS = ("table1", "hybrid-sim", "circuit-flow", "serve-batch")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    """Configures the top-level project with bench/e2e attached and builds
    only the xh_bench target, so it compiles exactly as the main build."""
    if not (ROOT / "CMakeLists.txt").is_file():
        fail(f"no CMakeLists.txt at {ROOT}: run from a full checkout", 2)
    steps = [["cmake", "--build", str(OUT), "-j", "4", "--target", "xh_bench"]]
    if not (OUT / "CMakeCache.txt").is_file():
        steps.insert(0, ["cmake", "-S", str(ROOT), "-B", str(OUT),
                         "-DCMAKE_BUILD_TYPE=Release",
                         f"-DCMAKE_PROJECT_xhybrid_INCLUDE={HERE / 'attach.cmake'}"])
    for step in steps:
        try:
            subprocess.run(step, stdout=sys.stderr, check=True,
                           timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.SubprocessError) as e:
            fail(f"build failed: {e}")
    return OUT / "xh_bench"


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 1:
        fail("--seed must be at least 1", 2)

    exe = build()

    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    doc_path = results / f"{stem}-trace{args.trace}.json"
    doc_path.unlink(missing_ok=True)
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--workdir", str(OUT / "work" / args.workload),
           "--json", str(doc_path)]
    if args.trace:
        cmd += ["--trace", str(results / f"{stem}.trace.json")]
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"xh_bench did not finish within {RUN_TIMEOUT_S} s")
    if not doc_path.is_file():
        fail(f"xh_bench exited {proc.returncode} without a result document")
    doc = json.loads(doc_path.read_text())

    section = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    for want in spec[section]:
        name, unit = want["name"], want["unit"]
        got = doc[section].get(name)
        if got is None and section == "end_to_end":
            fail(f"xh_bench reported no {name}")
        if got is not None and got["unit"] != unit:
            fail(f"{name}: unit {got['unit']}, BENCHMARK.json says {unit}")
        metrics[name] = {"value": 0 if got is None else got["value"],
                         "unit": unit}
    print(json.dumps({"correct": doc["correct"], "attempted": doc["attempted"],
                      "failed": doc["failed"], "metrics": metrics}))
    sys.exit(0 if doc["correct"] and proc.returncode == 0 else 1)


if __name__ == "__main__":
    main()
