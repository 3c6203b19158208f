#!/usr/bin/env python3
"""End-to-end collection benchmark: build, run one workload, report.

Run from the repository root:

    python3 perfbench/run.py --workload grr-rounds --seed 1 --seconds 10 --trace 0

Builds perfbench/ (which compiles the library from src/) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs one
workload in a fresh scratch directory that is removed afterwards, checks
that the program reported every metric BENCHMARK.json declares, and
prints two lines: the full run record (host, build, seed, plan, sample
counts, every metric), then, as the last line, the result object
{"correct", "attempted", "failed", "metrics"} — the end-to-end metrics
with --trace 0, the per-layer metrics with --trace 1.

Exits non-zero when the build fails, a previous run left an endpoint
process or a scratch directory behind, a round or a correctness gate
failed, or a declared metric is missing.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

RUN_LIMIT_S = 170  # the whole run must end within 180 s once built


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    return os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                        "perfbench")


def build(bdir):
    """Configures once, then builds (a no-op when up to date)."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        r = subprocess.run(["cmake", "-S", "perfbench", "-B", bdir,
                            "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            return False
    r = subprocess.run(["cmake", "--build", bdir, "-j", jobs],
                       stdout=sys.stderr, stderr=sys.stderr)
    return r.returncode == 0


def leftover_endpoints(binary):
    """Endpoint processes of this benchmark that are still running."""
    found = []
    real = os.path.realpath(binary)
    for pid in os.listdir("/proc"):
        if not pid.isdigit():
            continue
        try:
            exe = os.path.realpath(f"/proc/{pid}/exe")
            with open(f"/proc/{pid}/cmdline", "rb") as f:
                argv = f.read().split(b"\0")
        except OSError:
            continue
        if exe == real and b"--endpoint" in argv:
            found.append(int(pid))
    return found


def source_digest():
    """sha256 over the library and benchmark sources (the checkout a run
    sees is not a git repository, so this stands in for the commit)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench", "CMakeLists.txt"):
        paths = []
        if os.path.isfile(top):
            paths = [top]
        for dirpath, _, files in os.walk(top):
            paths += [os.path.join(dirpath, f) for f in files]
        for p in sorted(paths):
            h.update(p.encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def git_commit():
    if not os.path.isdir(".git"):
        return None
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                           text=True, timeout=10)
        if r.returncode != 0:
            return None
        return r.stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--small", action="store_true",
                    help="test-sized inputs (the benchmark's own test)")
    ap.add_argument("--perturb-reference", action="store_true",
                    help="perturb the correctness gate's reference "
                         "(the gate must then fail)")
    args = ap.parse_args()
    start = time.monotonic()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    names = {w["name"] for w in spec["workloads"]}
    if args.workload not in names:
        log(f"unknown workload {args.workload}; known: {sorted(names)}")
        return 2

    bdir = build_dir()
    binary = os.path.join(bdir, "perfbench_e2e")
    runs = os.path.join(bdir, "runs")
    # Isolation: a run starts from nothing a previous run left behind.
    if os.path.isdir(runs) and os.listdir(runs):
        log(f"a previous run left {runs}/{os.listdir(runs)[0]} behind")
        return 1
    if os.path.exists(binary):
        stale = leftover_endpoints(binary)
        if stale:
            log(f"endpoint processes of a previous run are alive: {stale}")
            return 1
    if not build(bdir):
        log("build failed")
        return 1
    build_s = time.monotonic() - start

    scratch = os.path.join(runs, f"{args.workload}-{os.getpid()}")
    os.makedirs(scratch)
    spans = os.path.join(bdir, f"spans-{args.workload}.json")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--scratch", scratch]
    if args.trace:
        cmd += ["--spans", spans]
    if args.small:
        cmd.append("--small")
    if args.perturb_reference:
        cmd.append("--perturb-reference")
    try:
        # A run that had to build from scratch may take up to 900 s.
        limit = 880 if build_s > 60 else RUN_LIMIT_S
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              timeout=max(10.0, limit - build_s))
    except subprocess.TimeoutExpired:
        log("run timed out")
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(runs)
        except OSError:
            pass
    stale = leftover_endpoints(binary)
    if stale:
        log(f"endpoint processes outlived the run: {stale}")
        return 1

    lines = proc.stdout.decode().strip().splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, ValueError):
        log(f"no result record (exit code {proc.returncode})")
        return 1

    key = "per_layer" if args.trace else "end_to_end"
    emitted = record["layers"] if args.trace else record["e2e"]
    missing = [m["name"] for m in spec[key] if m["name"] not in emitted]
    wrong_unit = [m["name"] for m in spec[key] if m["name"] in emitted and
                  emitted[m["name"]]["unit"] != m["unit"]]
    correct = bool(record["correct"]) and proc.returncode == 0
    if missing or wrong_unit:
        log(f"metrics missing: {missing}; with another unit: {wrong_unit}")
        correct = False

    record["source_sha256"] = source_digest()
    record["commit"] = git_commit()
    record["build_s"] = round(build_s, 3)
    print(json.dumps(record))
    result = {
        "correct": correct,
        "attempted": int(record["attempted"]),
        "failed": int(record["failed"]),
        "metrics": {m["name"]: emitted[m["name"]] for m in spec[key]
                    if m["name"] in emitted},
    }
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
