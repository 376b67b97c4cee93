#!/usr/bin/env python3
"""End-to-end benchmark of the fsup threads library.

    python3 perfbench/run.py --workload <pipeline|echo|spawn|signals> --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Builds the library from ../src together with the benchmark program (cached under
.bench_build/perfbench, rebuilt when a source changes), clears every FSUP_* variable, runs
one workload in its own process and prints two JSON lines: a detail record (environment,
checks, exact counts, setup rounds, layer breakdown) and, last, the result
{"correct", "attempted", "failed", "metrics"}. --trace 0 reports the end-to-end metrics,
--trace 1 the per-layer ones from a separate traced run. The exit code is 0 only for a
correct run.

--selftest plants one dropped pipeline item and one corrupted echo reply and checks that
both are counted as failures.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "fsup_perfbench")
BUILD_TYPE = "RelWithDebInfo"
WORKLOADS = ("pipeline", "echo", "spawn", "signals")
RUN_TIMEOUT_S = 170

MANIFEST = os.path.join(ROOT, "BENCHMARK.json")


def declared_metrics():
    """(end_to_end, per_layer): each a dict name -> unit, as BENCHMARK.json declares them."""
    with open(MANIFEST) as f:
        m = json.load(f)
    return ({x["name"]: x["unit"] for x in m["end_to_end"]},
            {x["name"]: x["unit"] for x in m["per_layer"]})


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def clean_env():
    """The environment without any FSUP_* variable, and the names removed."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("FSUP_")}
    return env, sorted(k for k in os.environ if k.startswith("FSUP_"))


BUILD_INPUTS = (".c", ".cpp", ".h", ".hpp", ".S", ".txt")


def source_digest():
    """Hash of every build input: the library's and the benchmark's sources."""
    h = hashlib.sha256()
    for top in (SRC, HERE):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(f for f in filenames if f.endswith(BUILD_INPUTS)):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def build(env):
    digest = source_digest()
    stamp = os.path.join(BUILD, "source.sha256")
    if os.path.exists(BINARY) and os.path.exists(stamp):
        with open(stamp) as f:
            if f.read().strip() == digest:
                return digest
    os.makedirs(BUILD, exist_ok=True)
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD, f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"]
                       + gen, check=True, env=env, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs], check=True, env=env,
                   stdout=sys.stderr)
    with open(stamp, "w") as f:
        f.write(digest + "\n")
    return digest


def git_rev(env):
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_binary(env, workload, seed, seconds, trace, plant=False):
    """Runs one workload; returns (exit code, parsed record or None)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0"]
    if trace:
        cmd += ["--spans", os.path.join(BUILD, f"spans-{workload}.json")]
    if plant:
        cmd.append("--plant")
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    try:
        return proc.returncode, json.loads(lines[-1])
    except (IndexError, ValueError):
        return proc.returncode, None


def metrics_of(rec, trace):
    """The declared metrics found in the record, and the names of those it lacks."""
    end_to_end, per_layer = declared_metrics()
    if trace:
        values = dict(rec["per_layer"])
        values["trace.throughput_ops_s"] = rec["throughput_ops_s"]
        values["trace.latency_p50_us"] = rec["latency_p50_us"]
    else:
        values = rec
    declared = per_layer if trace else end_to_end
    metrics = {k: {"value": values[k], "unit": u} for k, u in declared.items() if k in values}
    return metrics, [k for k in declared if k not in values]


def selftest(env, seed):
    ok = True
    for workload in ("pipeline", "echo"):
        rc, rec = run_binary(env, workload, seed, 1, False, plant=True)
        caught = rc != 0 and rec is not None and not rec["correct"] and rec["failed"] == 1
        print(f"selftest {workload}: exit={rc} correct={rec and rec['correct']} "
              f"failed={rec and rec['failed']} attempted={rec and rec['attempted']} -> "
              f"{'counted' if caught else 'MISSED'}")
        ok = ok and caught
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and args.workload is None:
        ap.error("--workload is required")
    if not os.path.isfile(os.path.join(SRC, "CMakeLists.txt")):
        log(f"library sources not found at {SRC}; run from a full checkout")
        return 2
    if not os.path.isfile(MANIFEST):
        log(f"{MANIFEST} not found; run from a full checkout")
        return 2

    env, cleared = clean_env()
    if cleared:
        log(f"cleared {', '.join(cleared)}")
    try:
        digest = build(env)
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 2
    if args.selftest:
        return selftest(env, args.seed)

    trace = args.trace == 1
    rc, rec = run_binary(env, args.workload, args.seed, args.seconds, trace)
    if rec is None:
        log(f"fsup_perfbench exited {rc} without a result")
        return rc or 1

    detail = {k: v for k, v in rec.items() if k != "per_layer"}
    if trace:
        detail["breakdown"] = {k: v for k, v in rec["per_layer"].items()
                               if k.startswith("breakdown.")}
    detail["env"] = {
        "build_type": BUILD_TYPE,
        "git_rev": git_rev(env),
        "source_sha256": digest,
        "nproc": os.cpu_count(),
        "kernel": platform.release(),
        "cleared_fsup_vars": cleared,
    }
    metrics, missing = metrics_of(rec, trace)
    if missing:
        log(f"fsup_perfbench did not report {', '.join(missing)}")
    correct = bool(rec["correct"]) and rc == 0 and not missing
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": correct,
        "attempted": rec["attempted"],
        "failed": rec["failed"],
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
