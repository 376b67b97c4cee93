#!/usr/bin/env python3
"""Regenerates the tables EXPERIMENTS.md quotes from the committed ledgers (BENCH_*.json).

Each generated table sits between two marker lines, `<!-- ledger:NAME -->` and
`<!-- /ledger:NAME -->`, and everything between them is rewritten:

  table2        Table 2 with the paper's columns and the measured ones (BENCH_table2.json)
  table2-shape  the ratios behind Table 2's shape checks, paper and measured
  counts        OS calls, switches and kernel entries per operation (BENCH_counts.json)

Usage: python3 tools/ledger_tables.py [--check]

--check writes nothing; it prints a diff and exits 1 when a generated table differs from what
the ledgers give. The ledgers and EXPERIMENTS.md are read from the repository this script is in.
"""

import argparse
import difflib
import json
import pathlib
import re
import sys

# The paper's Table 2 columns, which no run reproduces: (Sun 3/1+ Sun / Ours, IPX Ours / Lynx).
PAPER = {
    "enter and exit Pthreads kernel": ("—", "0.4 / 7.5 µs"),
    "enter and exit UNIX kernel": ("—", "18 µs / —"),
    "mutex lock/unlock, no contention": ("—", "1 / 5 µs"),
    "mutex lock/unlock, contention": ("—", "51 µs / —"),
    "semaphore synchronization (P+V)": ("158 / 101 µs", "55 / 75 µs"),
    "thread create, no context switch": ("56 / 25 µs", "12 µs / —"),
    "setjmp/longjmp pair": ("59 / 49 µs", "29 µs / —"),
    "thread context switch (yield)": ("—", "37 / 38 µs"),
    "UNIX process context switch": ("—", "123 / 41 µs"),
    "thread signal handler (internal)": ("—", "52 µs / —"),
    "thread signal handler (external)": ("—", "250 µs / —"),
    "UNIX signal handler": ("—", "154 µs / —"),
}

# Table 2's shape checks: (claim, paper ratio, numerator (op, column), denominator (op, column)).
SHAPE = [
    ("UNIX kernel entry / Pthreads kernel entry", "45× (18 / 0.4 µs)",
     ("enter and exit UNIX kernel", "native_us"), ("enter and exit Pthreads kernel", "fsup_us")),
    ("contended / uncontended mutex lock+unlock", "51× (51 / 1 µs)",
     ("mutex lock/unlock, contention", "fsup_us"),
     ("mutex lock/unlock, no contention", "fsup_us")),
    ("kernel-thread create / library thread create", "2.2× (SunOS LWP 56 / 25 µs)",
     ("thread create, no context switch", "native_us"),
     ("thread create, no context switch", "fsup_us")),
    ("process switch / thread switch", "3.3× (123 / 37 µs)",
     ("UNIX process context switch", "native_us"), ("thread context switch (yield)", "fsup_us")),
    ("external / internal thread signal", "4.8× (250 / 52 µs)",
     ("thread signal handler (external)", "fsup_us"),
     ("thread signal handler (internal)", "fsup_us")),
    ("external thread signal / bare UNIX handler", "1.6× (250 / 154 µs)",
     ("thread signal handler (external)", "fsup_us"), ("UNIX signal handler", "native_us")),
]


def table2(ledgers):
    out = ["| Performance metric | paper: Sun 1+ (Sun / Ours) | paper: IPX (Ours / Lynx) "
           "| **measured: fsup** | **measured: native** | note |",
           "|---|---|---|---|---|---|"]
    for r in ledgers["table2"]["rows"]:
        sun, ipx = PAPER[r["op"]]
        fsup = f"**{r['fsup_us']:.4f} µs**" if "fsup_us" in r else "—"
        native = f"{r['native_us']:.4f} µs" if "native_us" in r else "—"
        out.append(f"| {r['op']} | {sun} | {ipx} | {fsup} | {native} | {r['note']} |")
    return out


def table2_shape(ledgers):
    rows = {r["op"]: r for r in ledgers["table2"]["rows"]}
    out = ["| shape check | paper | measured |", "|---|---|---|"]
    for claim, paper, (num_op, num_col), (den_op, den_col) in SHAPE:
        num, den = rows[num_op][num_col], rows[den_op][den_col]
        ratio = num / den
        out.append(f"| {claim} | {paper} | {ratio:.{0 if ratio >= 10 else 2}f}× "
                   f"({num:.4f} / {den:.4f} µs) |")
    return out


def counts(ledgers):
    out = ["| row | ops | switches | kernel entries | host calls | other non-zero columns |",
           "|---|---|---|---|---|---|"]
    for r in ledgers["counts"]["rows"]:
        c = {k: v for k, v in r.items() if k not in ("op", "ops")}
        host = ", ".join(f"{k[7:]} {v}" for k, v in c.items() if k.startswith("hostos."))
        rest = ", ".join(f"{k} {v}" for k, v in c.items() if not k.startswith(
            ("hostos.", "kernel.ctx_switches", "kernel.kernel_entries")))
        out.append(f"| {r['op']} | {r['ops']} | {c.get('kernel.ctx_switches', 0)} |"
                   f" {c.get('kernel.kernel_entries', 0)} | {host or 0} | {rest} |")
    return out


TABLES = {"table2": table2, "table2-shape": table2_shape, "counts": counts}
LEDGERS = {"table2": "BENCH_table2.json", "counts": "BENCH_counts.json"}
ROOT = pathlib.Path(__file__).resolve().parent.parent


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true")
    args = parser.parse_args()

    ledgers = {k: json.loads((ROOT / f).read_text(encoding="utf-8")) for k, f in LEDGERS.items()}
    doc_path = ROOT / "EXPERIMENTS.md"
    old = doc_path.read_text(encoding="utf-8")
    new = old
    for name, generate in TABLES.items():
        marker = re.compile(rf"(<!-- ledger:{name} -->\n).*?(<!-- /ledger:{name} -->)", re.S)
        if len(marker.findall(new)) != 1:
            sys.exit(f"EXPERIMENTS.md: need exactly one <!-- ledger:{name} --> block")
        body = "\n".join(generate(ledgers)) + "\n"
        new = marker.sub(lambda m: m.group(1) + body + m.group(2), new)

    if new == old:
        return 0
    if args.check:
        sys.stdout.writelines(difflib.unified_diff(
            old.splitlines(True), new.splitlines(True), "EXPERIMENTS.md (committed)",
            "EXPERIMENTS.md (from the ledgers)"))
        return 1
    doc_path.write_text(new, encoding="utf-8")
    print(f"rewrote {doc_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
