#!/usr/bin/env python3
"""Builds the linbench binary from this checkout and runs one workload.

    python3 linbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 linbench/run.py --self-test

Run from the root of a checkout. The build lives in
$CARGO_TARGET_DIR/linbench (default .bench_build/linbench) under the
checkout; build output goes to stderr, so the last stdout line is the
binary's result object. --self-test runs every workload at toy size, traced
and untraced, and checks that each metric BENCHMARK.json names is emitted,
finite and carries its unit, that nothing failed, and that the traced run
wrote a Chrome trace-event file. It also runs mixed_lu and serve_repeat,
which the binary measures but BENCHMARK.json leaves out (README.md says
why); their metrics must be finite and carry a unit.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
ALL_WORKLOADS = ["native_lu", "mixed_lu", "hpl_2x2", "serve_repeat"]


def log(msg):
    print(f"linbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, target, "linbench")


def build():
    """Configures (once) and builds; returns the binary path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"library sources missing under {ROOT}/src; cannot build")
        return None
    if shutil.which("cmake") is None:
        log("cmake not found")
        return None
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("configure failed")
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", out, "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        log("build failed")
        return None
    return os.path.join(out, "linbench")


def run_binary(binary, args, capture):
    """Runs the binary to completion (killed at the timeout)."""
    proc = subprocess.Popen([binary] + args,
                            stdout=subprocess.PIPE if capture else None)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log(f"timed out after {RUN_TIMEOUT_S} s: {' '.join(args)}")
        return 1, ""
    return proc.returncode, (out.decode() if capture else "")


def check_result(stdout, names_units):
    """Problems with one run's result line against the expected metrics
    (names_units None: any metrics, each finite and with a unit)."""
    lines = stdout.strip().splitlines()
    if not lines:
        return ["no output"]
    try:
        res = json.loads(lines[-1])
    except json.JSONDecodeError:
        return ["last line is not JSON"]
    problems = []
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(res)}")
        return problems
    if res["correct"] is not True:
        problems.append(f"correct is {res['correct']}")
    if not isinstance(res["attempted"], int) or res["attempted"] < 1:
        problems.append(f"attempted {res['attempted']}")
    if res["failed"] != 0:
        problems.append(f"failed {res['failed']}")
    got = res["metrics"]
    if names_units is None:
        names_units = {k: m.get("unit") or "<missing>" for k, m in got.items()}
    if set(got) != set(names_units):
        problems.append(f"metrics differ: missing "
                        f"{sorted(set(names_units) - set(got))}, extra "
                        f"{sorted(set(got) - set(names_units))}")
    for name, unit in names_units.items():
        m = got.get(name)
        if m is None:
            continue
        v = m.get("value")
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            problems.append(f"{name} value {v!r} is not finite")
        if m.get("unit") != unit:
            problems.append(f"{name} unit {m.get('unit')!r} != {unit!r}")
    if "failed_frac" in got and got["failed_frac"]["value"] != 0:
        problems.append(f"failed_frac {got['failed_frac']['value']}")
    return problems


def self_test(binary):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    problems = []
    gated = {w["name"] for w in spec["workloads"]}
    for w in ALL_WORKLOADS:
        for trace, names in (("0", e2e if w in gated else None), ("1", layer)):
            label = f"{w} trace={trace}"
            trace_out = os.path.join(build_dir(), f"selftest-{w}.json")
            if os.path.exists(trace_out):
                os.remove(trace_out)
            code, out = run_binary(binary, [
                "--workload", w, "--seed", "1", "--seconds", "0.3",
                "--trace", trace, "--smoke", "--trace-out", trace_out], True)
            found = [f"exit code {code}"] if code else check_result(out, names)
            if trace == "1" and not code:
                try:
                    with open(trace_out) as f:
                        events = json.load(f)["traceEvents"]
                    if not events or any(e.get("ph") != "X" for e in events):
                        found.append("empty or malformed trace")
                except (OSError, ValueError, KeyError) as e:
                    found.append(f"trace file: {e}")
            print(f"{label}: {'ok' if not found else 'FAIL'}")
            problems += [f"{label}: {p}" for p in found]
    for p in problems:
        print(f"FAIL {p}")
    print("self-test:", "PASS" if not problems else "FAIL")
    return 0 if not problems else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and not args.workload:
        ap.error("--workload is required")
    binary = build()
    if binary is None:
        return 2
    if args.self_test:
        return self_test(binary)
    trace_out = os.path.join(
        build_dir(), f"trace-{args.workload}-{args.seed}.json")
    code, _ = run_binary(binary, [
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", args.trace,
        "--trace-out", trace_out], False)
    return code


if __name__ == "__main__":
    sys.exit(main())
