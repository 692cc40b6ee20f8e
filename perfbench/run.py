#!/usr/bin/env python3
"""Build and run the wall-clock serving benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
        One run of one workload. The last stdout line is the result object
        {"correct", "attempted", "failed", "metrics"}; end-to-end metrics
        when untraced, per-layer metrics with --trace 1 (which also writes a
        Chrome trace to .bench_out/).

    python3 perfbench/run.py --workload all [--seed n] [--seconds s]
        Every workload, untraced then traced, each in its own process; prints
        the end-to-end metrics with units, the per-layer ledger and the
        tracing overhead. Exits non-zero if any output mismatches.

The benchmark builds the library from the repository's sources into
.bench_build/ (CMake, RelWithDebInfo) and runs the engine with two OpenMP
threads per worker.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
OUT = ROOT / ".bench_out"
WORKLOADS = ["warm-mix", "sampled-cold", "model-stream"]
RUN_TIMEOUT_S = 175


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configure (once) and build serve_wall; return its path."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise RuntimeError(f"library sources not found under {ROOT}")
    if not (BUILD / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD), "--target", "serve_wall", "-j", "4"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return BUILD / "serve_wall"


def source_hash():
    """Digest of the library and benchmark sources (the checkout may not be
    a git repository)."""
    h = hashlib.sha256()
    for base in (ROOT / "src", HERE / "src"):
        for p in sorted(base.rglob("*")):
            if p.is_file():
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return h.hexdigest()[:16]


def git_sha():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def run_env():
    env = dict(os.environ)
    env["OMP_NUM_THREADS"] = "2"
    env["PERFBENCH_GIT_SHA"] = git_sha()
    env["PERFBENCH_SOURCE_HASH"] = source_hash()
    return env


def run_once(binary, workload, seed, seconds, trace, echo=True):
    """Run one workload in its own process; return (exit code, stdout lines)."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if trace:
        OUT.mkdir(exist_ok=True)
        cmd += ["--trace-out", str(OUT / f"trace-{workload}-{seed}.json")]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=run_env(),
                              cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload}: timed out after {RUN_TIMEOUT_S} s")
        return 1, []
    if proc.stderr:
        log(proc.stderr.rstrip())
    lines = proc.stdout.rstrip("\n").split("\n") if proc.stdout else []
    if echo:
        for line in lines:
            print(line, flush=True)
    return proc.returncode, lines


def result_of(lines):
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return None


def run_all(binary, seed, seconds):
    status = 0
    summary = {}
    for w in WORKLOADS:
        for trace in (False, True):
            code, lines = run_once(binary, w, seed, seconds, trace, echo=False)
            for line in lines[:-1]:
                log(line)
            res = result_of(lines)
            if code != 0 or res is None or not res["correct"]:
                status = 1
            summary[(w, trace)] = res
    print("\nend-to-end metrics (untraced)")
    for w in WORKLOADS:
        res = summary[(w, False)]
        if res is None:
            print(f"  {w}: no result")
            continue
        print(f"  {w}: correct={res['correct']} attempted={res['attempted']} failed={res['failed']}")
        for name, m in res["metrics"].items():
            print(f"    {name:<24} {m['value']:>14.6g} {m['unit']}")
    print("\ntracing overhead (traced vs untraced req_per_s)")
    for w in WORKLOADS:
        plain, traced = summary[(w, False)], summary[(w, True)]
        if plain and traced:
            a = plain["metrics"]["req_per_s"]["value"]
            b = traced["metrics"]["serve.traced_req_per_s"]["value"]
            print(f"  {w:<14} untraced {a:10.2f}  traced {b:10.2f}  overhead {1 - b / a:6.1%}")
    return status


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    try:
        binary = build()
    except (RuntimeError, OSError, subprocess.CalledProcessError) as e:
        log(f"perfbench: build failed: {e}")
        return 1
    if args.workload == "all":
        return run_all(binary, args.seed, args.seconds)
    code, _ = run_once(binary, args.workload, args.seed, args.seconds, args.trace == 1)
    return code


if __name__ == "__main__":
    sys.exit(main())
