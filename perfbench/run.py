#!/usr/bin/env python3
"""Repository benchmark: builds the perfbench driver and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload batch_3d --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

The driver prints a host-context line and, last, one JSON result line:
{"correct", "attempted", "failed", "metrics"} with the end-to-end metrics
(--trace 0) or the per-layer metrics (--trace 1) named in BENCHMARK.json.
This script re-prints both lines, adding the source digest and commit to the
host line, and exits nonzero when the build, the run or a correctness check
fails. --out DIR also appends the run, host context included, to
DIR/<workload>.jsonl for perfbench/compare.py.

--smoke runs all three workloads at a tiny scale in a few seconds each, in
both modes, and checks that every metric named in BENCHMARK.json is present
with its unit and that no operation failed.

Stdlib only.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("batch_3d", "serve_2d", "stream_2d")
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configures (once) and builds the driver; returns its path."""
    out = build_dir()
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "perfbench_driver",
                  "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            raise SystemExit("perfbench: build failed: " + " ".join(cmd))
    return os.path.join(out, "perfbench_driver")


def source_digest():
    """sha256 over the library sources and build files the driver compiles."""
    h = hashlib.sha256()
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in (os.path.join(ROOT, "src"), HERE):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".h", ".cpp", ".txt")):
                    paths.append(os.path.join(dirpath, name))
    for path in paths:
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def commit():
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True,
                              timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def run_driver(driver, workload, seed, seconds, trace, scale=None):
    """Runs one workload; returns (host dict, result dict, exit code)."""
    cmd = [driver, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if scale is not None:
        cmd += ["--scale", str(scale)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise SystemExit("perfbench: %s timed out" % workload)
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if len(lines) < 2:
        raise SystemExit("perfbench: %s exited %d without a result"
                         % (workload, proc.returncode))
    host = json.loads(lines[-2])["host"]
    result = json.loads(lines[-1])
    return host, result, proc.returncode


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def smoke(driver):
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            _, result, rc = run_driver(driver, workload, 1, 1.5, trace,
                                       scale=0.02)
            want = expected_metrics(trace)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            problems = []
            if rc != 0 or result["failed"] != 0 or not result["correct"]:
                problems.append("failed %d of %d operations"
                                % (result["failed"], result["attempted"]))
            if got != want:
                problems.append("metrics differ from BENCHMARK.json: "
                                "missing %s, extra %s, unit mismatch %s" % (
                                    sorted(set(want) - set(got)),
                                    sorted(set(got) - set(want)),
                                    sorted(k for k in want if k in got
                                           and got[k] != want[k])))
            print("%-10s trace=%d attempted=%-5d %s" % (
                workload, trace, result["attempted"],
                "ok" if not problems else "; ".join(problems)))
            ok = ok and not problems
    print("smoke: " + ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="append the run to OUT/<workload>.jsonl")
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    if not args.smoke and args.workload is None:
        ap.error("--workload is required")

    driver = build()
    if args.smoke:
        return smoke(driver)

    host, result, rc = run_driver(driver, args.workload, args.seed,
                                  args.seconds, args.trace)
    host["source_digest"] = source_digest()
    host["commit"] = commit()
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        record = {"workload": args.workload, "seed": args.seed,
                  "seconds": args.seconds, "trace": args.trace,
                  "host": host, "result": result}
        with open(os.path.join(args.out, args.workload + ".jsonl"), "a") as f:
            f.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps({"host": host}))
    print(json.dumps(result))
    return rc


if __name__ == "__main__":
    sys.exit(main())
