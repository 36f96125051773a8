#!/usr/bin/env python3
"""The keddah benchmark: builds kbench/ from source and runs its workloads.

One workload, machine-readable (run from the repository root):

    python3 kbench/run.py --workload paper-pipeline --seed 7 --seconds 35 --trace 0

prints the workload's log on stderr and, as the last line of stdout, one JSON
object with the keys correct, attempted, failed and metrics. With --trace 0
the metrics are the end_to_end metrics of BENCHMARK.json; with --trace 1 they
are its per_layer metrics (0 for a layer the workload does not exercise).

Every workload, each in its own process, untraced and then traced:

    python3 kbench/run.py [--seed 7] [--seconds 10]

prints every end-to-end metric by name with its unit, the per-workload
headline metrics, the tracing overhead and the span coverage, and exits
non-zero if any correctness check failed.

Build output and run artefacts go under $CARGO_TARGET_DIR (default
.bench_build) in the repository root: the CMake build, one full report per
run (results/), the span traces (work/) and the determinism records
(records/). A record is kept per (workload, seed, binary) and every later run
of the same binary and seed must reproduce it exactly.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper-pipeline", "fattree-wave", "whatif-serve")
RUN_TIMEOUT_S = 170
MIN_COVERAGE = 0.95

# Each workload's headline figures, by headline name, mapped to the report's
# metric names (pass_s and flows_per_s mean a different span on each
# workload; see kbench/NOTES.md).
HEADLINES = {
    "paper-pipeline": [("pipeline_s", "pass_s"), ("replay_flows_per_s", "flows_per_s"),
                       ("capture_flows_per_s", "capture_flows_per_s"),
                       ("validation_ks_max", "validation_ks_max"),
                       ("validation_vol_err_max", "validation_vol_err_max")],
    "fattree-wave": [("wave_flows_per_s", "flows_per_s")],
    "whatif-serve": [("whatif_miss_p50_ms", "whatif_miss_p50_ms"),
                     ("whatif_miss_p90_ms", "whatif_miss_p90_ms"),
                     ("serve_qps", "serve_qps")],
}


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


class BenchError(Exception):
    """A failure that leaves no result to print."""


def load_declaration():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        raise BenchError(f"cannot read {path}: {e}")


def out_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Configures and builds keddah_bench; returns the binary's path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError(f"keddah sources not found under {ROOT}/src")
    build_dir = os.path.join(out_dir(), "kbench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        run_build_step(configure)
    run_build_step(["cmake", "--build", build_dir, "--target", "keddah_bench",
                    "-j", str(os.cpu_count() or 1)])
    binary = os.path.join(build_dir, "keddah_bench")
    if not os.access(binary, os.X_OK):
        raise BenchError(f"build produced no {binary}")
    return binary


def run_build_step(cmd):
    done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        raise BenchError(f"build step failed ({done.returncode}): {' '.join(cmd)}")


def file_digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()[:16]


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def run_workload(binary, workload, seed, seconds, trace):
    """Runs the binary once; returns its full report (a dict)."""
    work_dir = os.path.join(out_dir(), "work")
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0", "--work-dir", work_dir]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} ran past {RUN_TIMEOUT_S} s")
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise BenchError(f"{workload} exited with {done.returncode} and no report")
    try:
        return json.loads(lines[-1])
    except ValueError as e:
        raise BenchError(f"{workload} printed an unreadable report: {e}")


def check_record(report, binary_digest):
    """Determinism: one seed's record must repeat across runs of one binary."""
    records_dir = os.path.join(out_dir(), "records")
    os.makedirs(records_dir, exist_ok=True)
    path = os.path.join(records_dir,
                        f"{report['workload']}-seed{report['seed']}-{binary_digest}.json")
    record = report["record"]
    if os.path.exists(path):
        with open(path) as f:
            if json.load(f) != record:
                report["correct"] = False
                report["failures"].append(f"determinism record differs from {path}")
    else:
        with open(path, "w") as f:
            json.dump(record, f, sort_keys=True)


def select_metrics(report, declared, fill_missing):
    """The declared metrics, with the declared units, from the report."""
    metrics = {}
    for entry in declared:
        name, unit = entry["name"], entry["unit"]
        got = report["metrics"].get(name)
        if got is None:
            if not fill_missing:
                raise BenchError(f"{report['workload']} reported no {name}")
            got = {"value": 0, "unit": unit}  # layer not exercised by this workload
        if got["unit"] != unit:
            raise BenchError(f"{name} reported in {got['unit']}, declared in {unit}")
        metrics[name] = {"value": got["value"], "unit": unit}
    return metrics


def measure(binary, binary_digest, workload, seed, seconds, trace):
    report = run_workload(binary, workload, seed, seconds, trace)
    check_record(report, binary_digest)
    meta = report["meta"]
    meta["git_sha"] = git_sha()
    meta["binary_sha256"] = binary_digest
    if meta.get("build_type") != "Release":
        meta["flag"] = "not a Release build: timings are not comparable"
        log(f"WARNING: {meta['flag']} ({meta.get('build_type')})")
    for failure in report["failures"]:
        log(f"CHECK FAILED [{workload}]: {failure}")
    coverage = report["metrics"].get("trace.coverage")
    if coverage is not None and coverage["value"] < MIN_COVERAGE:
        log(f"WARNING: spans cover {coverage['value']:.3f} of the timed wall time "
            f"(want >= {MIN_COVERAGE})")
    results_dir = os.path.join(out_dir(), "results")
    os.makedirs(results_dir, exist_ok=True)
    path = os.path.join(results_dir, f"{workload}-seed{seed}-trace{int(trace)}.json")
    with open(path, "w") as f:
        json.dump(report, f, indent=1, sort_keys=True)
    return report


def result_line(report, metrics):
    return json.dumps({"correct": bool(report["correct"]),
                       "attempted": int(max(report["attempted"], 1)),
                       "failed": int(report["failed"]),
                       "metrics": metrics})


def run_all(binary, binary_digest, declaration, seed, seconds):
    ok = True
    for workload in WORKLOADS:
        plain = measure(binary, binary_digest, workload, seed, seconds, False)
        traced = measure(binary, binary_digest, workload, seed, seconds, True)
        ok = ok and plain["correct"] and traced["correct"]
        print(f"== {workload} (seed {seed}): correct={plain['correct'] and traced['correct']} "
              f"attempted={plain['attempted']} failed={plain['failed']}")
        for entry in declaration["end_to_end"]:
            m = plain["metrics"][entry["name"]]
            print(f"  {entry['name']:<26} {m['value']:>16.6g} {m['unit']}")
        for headline, name in HEADLINES[workload]:
            m = plain["metrics"][name]
            print(f"  {headline:<26} {m['value']:>16.6g} {m['unit']}")
        overhead = traced["metrics"]["pass_s"]["value"] / plain["metrics"]["pass_s"]["value"] - 1
        print(f"  {'tracing overhead':<26} {100 * overhead:>15.2f}% of pass_s")
        print(f"  {'span coverage':<26} {traced['metrics']['trace.coverage']['value']:>16.4f}")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        declaration = load_declaration()
        binary = build()
        binary_digest = file_digest(binary)
        if args.workload is None:
            return run_all(binary, binary_digest, declaration, args.seed, args.seconds)
        report = measure(binary, binary_digest, args.workload, args.seed, args.seconds,
                         bool(args.trace))
        declared = declaration["per_layer" if args.trace else "end_to_end"]
        metrics = select_metrics(report, declared, fill_missing=bool(args.trace))
    except BenchError as e:
        log(f"kbench: {e}")
        return 1
    print(result_line(report, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
