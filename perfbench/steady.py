#!/usr/bin/env python3
"""Steadiness, tracing-overhead and count-stability report for perfbench/run.py.

    python3 perfbench/steady.py [--runs 10] [--seconds 25]
                                [--workloads pipeline,echo,spawn,signals] [--json FILE]

For each workload it makes --runs untraced runs with seeds 1, 2, ... and prints, for every
end-to-end metric, the median, the quartiles (statistics.quantiles, n=4), the quartile spread
(q3-q1)/median and the range (max-min)/median. The first three seeds also get a traced run
right after their untraced one; the tracing overhead is the median over these pairs of
1 - traced/untraced throughput. Finally it repeats the first seed once and reports, for each
exact count taken over the run's first K ops, whether it repeated exactly: only such counts
can back a claim.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(HERE, "run.py")
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True
from run import WORKLOADS, declared_metrics  # noqa: E402

TRACED_PAIRS = 3


def run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed} trace {trace}: exit {proc.returncode}")
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def spread(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "iqr_over_median": (q3 - q1) / med if med else 0.0,
            "range_over_median": (max(values) - min(values)) / med if med else 0.0}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    ap.add_argument("--json", help="also write the report here")
    args = ap.parse_args()
    if args.runs < 2:
        ap.error("--runs must be at least 2 for quartiles")

    end_to_end, _ = declared_metrics()
    report = {}
    for w in args.workloads.split(","):
        seeds = list(range(1, args.runs + 1))
        # Each traced run follows the untraced run of its seed, so a pair sees the same host.
        untraced, traced = [], []
        for i, seed in enumerate(seeds):
            untraced.append(run(w, seed, args.seconds, 0))
            if i < TRACED_PAIRS:
                traced.append(run(w, seed, args.seconds, 1))
        values = {m: [r["metrics"][m]["value"] for _, r in untraced] for m in end_to_end}
        stats = {m: spread(v) for m, v in values.items()}
        print(f"\n== {w}: {args.runs} runs x {args.seconds} s, seeds {seeds[0]}..{seeds[-1]}")
        print(f"{'metric':18} {'median':>12} {'q1':>12} {'q3':>12} {'iqr/med':>8} {'range/med':>9}")
        for m, st in stats.items():
            print(f"{m:18} {st['median']:12.6g} {st['q1']:12.6g} {st['q3']:12.6g} "
                  f"{st['iqr_over_median']:8.4f} {st['range_over_median']:9.4f}")
        failed = sum(r["failed"] for _, r in untraced)
        attempted = sum(r["attempted"] for _, r in untraced)
        print(f"failed_fraction {failed}/{attempted}")

        overhead = None
        if traced:
            pairs = [(u["metrics"]["throughput_ops_s"]["value"],
                      t["metrics"]["trace.throughput_ops_s"]["value"])
                     for (_, u), (_, t) in zip(untraced, traced)]
            overhead = statistics.median(1.0 - tr / un for un, tr in pairs)
            print(f"tracing overhead over {len(pairs)} same-seed pairs: "
                  + ", ".join(f"{un:.6g}->{tr:.6g}" for un, tr in pairs)
                  + f" ops/s; median {overhead:.1%}")

        repeat, _ = run(w, seeds[0], args.seconds, 0)
        first = untraced[0][0]["counts_fixed_k"]
        again = repeat["counts_fixed_k"]
        exact = {k: first[k] == again.get(k) for k in first if k != "k"}
        print(f"count stability over the first {first.get('k')} ops (seed {seeds[0]} twice):")
        for k, same in exact.items():
            print(f"  {k:24} {first[k]:>10} {again.get(k):>10}  {'exact' if same else 'varies'}")
        report[w] = {"end_to_end": stats, "failed": failed, "attempted": attempted,
                     "tracing_overhead": overhead, "counts_exact": exact,
                     "runs": [d for d, _ in untraced]}

    if args.json:
        with open(args.json, "w") as f:
            json.dump(report, f, indent=1)


if __name__ == "__main__":
    main()
